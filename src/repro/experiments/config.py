"""Shared experiment configuration.

Every figure/table runner accepts an :class:`ExperimentScale` that
controls how large the synthetic datasets and the training budget are.
``quick()`` (the default everywhere) finishes the full benchmark suite
in minutes on a laptop CPU while preserving every qualitative
relationship the paper reports; ``paper()`` matches the paper's actual
hyperparameters (Table I sizes, 3 layers, hidden 256, fanouts 25/10/5,
batch 256, 500 epochs) and is intended for long offline runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..distributed.trainer import TrainConfig
from ..graph.datasets import load_dataset
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit, split_edges


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shrinking the paper's setup to a CI-friendly budget."""

    dataset_scale: float = 0.2
    feature_dim: Optional[int] = 64
    hidden_dim: int = 48
    num_layers: int = 2
    fanouts: Tuple[int, ...] = (10, 5)
    batch_size: int = 128
    epochs: int = 40
    hits_k: int = 50
    eval_every: int = 4
    sync: str = "grad"
    alpha: float = 0.15
    seed: int = 0
    # Accuracy experiments average over this many seeds (the paper
    # repeats runs "multiple times"); communication measurements are
    # deterministic enough to use one.
    num_seeds: int = 3

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Small-scale preset used by tests and smoke runs."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Minimum viable scale used by integration tests."""
        return cls(dataset_scale=0.08, feature_dim=32, hidden_dim=24,
                   epochs=3, eval_every=3, batch_size=96, hits_k=20,
                   num_seeds=1)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Full-scale preset approximating the paper's settings."""
        return cls(dataset_scale=1.0, feature_dim=None, hidden_dim=256,
                   num_layers=3, fanouts=(25, 10, 5), batch_size=256,
                   epochs=500, hits_k=100, eval_every=10, num_seeds=1)

    @property
    def seeds(self) -> Tuple[int, ...]:
        """Random seeds for repeated runs at this scale."""
        return tuple(range(self.seed, self.seed + self.num_seeds))

    # ------------------------------------------------------------------

    def train_config(self, **overrides) -> TrainConfig:
        """Build a :class:`TrainConfig` at this scale, with overrides.

        Delegates to :func:`repro.api.resolve_config`, the single place
        where scale knobs and ``TrainConfig`` fields are reconciled.
        """
        from ..api import resolve_config

        return resolve_config(self, **overrides)

    def load(self, dataset: str) -> Graph:
        """Load ``dataset`` at this scale's size and feature dim."""
        return load_dataset(dataset, scale=self.dataset_scale,
                            feature_dim=self.feature_dim)

    def load_split(self, dataset: str) -> EdgeSplit:
        """Load ``dataset`` and split its edges, seeded by the scale."""
        graph = self.load(dataset)
        return split_edges(graph, rng=np.random.default_rng(self.seed + 101))


@dataclass
class MeanResult:
    """Seed-averaged outcome of one framework configuration."""

    hits: float
    auc: float
    comm_gb_per_epoch: float
    hits_std: float
    runs: list = field(default_factory=list)

    @property
    def val_curve(self):
        """Validation curve of the first run (for convergence plots)."""
        return self.runs[0].val_curve() if self.runs else []

    def summary(self) -> str:
        """Human-readable report of the seed-averaged outcome, following
        the same convention as :meth:`TrainResult.summary
        <repro.distributed.trainer.TrainResult.summary>`."""
        framework = self.runs[0].framework if self.runs else "?"
        lines = [
            f"framework: {framework}",
            f"seeds:     {len(self.runs)}",
            f"test:      Hits={self.hits:.4f} ± {self.hits_std:.4f}, "
            f"AUC={self.auc:.4f}",
            f"comm:      {self.comm_gb_per_epoch:.6f} GB/epoch "
            f"(graph data)",
        ]
        return "\n".join(lines)


def run_framework_mean(
    name: str,
    split,
    num_parts: int,
    config,
    alpha: float = 0.15,
    seeds: Sequence[int] = (0, 1, 2),
    sparsifier_kind: str = "approx_er",
) -> MeanResult:
    """Run a framework once per seed and average the test metrics.

    Seeds drive model init, partitioning randomness, sampling and
    sparsification end to end, so the mean reflects the framework
    rather than one lucky draw — this is what the accuracy experiments
    report.
    """
    from dataclasses import replace as dc_replace

    from ..core.frameworks import run_framework

    runs = []
    for seed in seeds:
        cfg = dc_replace(config, seed=int(seed))
        runs.append(run_framework(
            name, split, num_parts=num_parts, config=cfg, alpha=alpha,
            rng=np.random.default_rng(int(seed)),
            sparsifier_kind=sparsifier_kind))
    hits = np.array([r.test.hits for r in runs])
    aucs = np.array([r.test.auc for r in runs])
    comm = np.array([r.graph_data_gb_per_epoch for r in runs])
    return MeanResult(
        hits=float(hits.mean()),
        auc=float(aucs.mean()),
        comm_gb_per_epoch=float(comm.mean()),
        hits_std=float(hits.std()),
        runs=runs,
    )


def format_rows(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Plain-text table used by benchmark output."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows))
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "  ".join("-" * widths[c] for c in columns)]
    for r in rows:
        lines.append("  ".join(
            _fmt(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
