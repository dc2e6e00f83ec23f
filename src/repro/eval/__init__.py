"""Evaluation: Hits@K / AUC metrics, the validation-test protocol and
the inference engine (`score_pairs`, `materialize_embeddings`, and the
per-layer `materialize_layers` / `refresh_layers`)."""

from .evaluator import (
    EvalResult,
    Evaluator,
    materialize_embeddings,
    materialize_layers,
    refresh_layers,
    score_pairs,
)
from .metrics import (
    accuracy_at_threshold,
    auc,
    hits_at_k,
    mean_reciprocal_rank,
    precision_at_k,
)

__all__ = [
    "EvalResult",
    "Evaluator",
    "materialize_embeddings",
    "materialize_layers",
    "refresh_layers",
    "score_pairs",
    "accuracy_at_threshold",
    "auc",
    "hits_at_k",
    "mean_reciprocal_rank",
    "precision_at_k",
]
