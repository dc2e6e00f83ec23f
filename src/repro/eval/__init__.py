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
from .heuristics import (
    HEURISTICS,
    adamic_adar,
    common_neighbors,
    heuristic_score,
    jaccard,
    katz_index,
    preferential_attachment,
    resource_allocation,
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
    "HEURISTICS",
    "adamic_adar",
    "common_neighbors",
    "heuristic_score",
    "jaccard",
    "katz_index",
    "preferential_attachment",
    "resource_allocation",
    "accuracy_at_threshold",
    "auc",
    "hits_at_k",
    "mean_reciprocal_rank",
    "precision_at_k",
]
