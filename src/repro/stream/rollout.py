"""The rollout gate: what a candidate artifact must pass to go live.

Re-embedding produces a stream of candidate
:class:`~repro.serve.artifact.ServableArtifact` versions; promoting
one blindly would let a corrupted table or a quality regression reach
traffic.  :class:`RolloutGate` checks, in order:

1. **Digest equality** — the candidate's payload checksum recomputed
   now equals the checksum captured when the candidate was built.  The
   checksum is cut from the very table the cluster would serve, so a
   served row corrupted (or mutated in place) between re-embedding and
   rollout fails here, before any score is served from it.
2. **Layout compatibility** — the serving cluster's hot-swap rule
   against the live artifact, :func:`~repro.serve.cluster.
   layout_mismatch` (rebalanced layouts need a cold swap).
3. **AUC floor** — the candidate scores a seeded probe set (present
   edges vs. drawn non-edges of the *current* graph) and must reach
   ``auc_floor``.  The probe derives from ``(seed, tick)``, so the
   gate decision — and therefore the whole stream — replays
   bit-identically.

A failed gate is a **rollback**: the candidate is discarded and the
previous version keeps serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..eval.metrics import auc
from ..graph.graph import Graph
from ..serve.artifact import ServableArtifact
from ..serve.cluster import layout_mismatch


def probe_pairs(graph: Graph, seed: int, tick: int,
                num_pairs: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded positive/negative probe pairs on the current graph.

    Positives sample present edges; negatives are rejection-sampled
    absent pairs (bounded attempts, deterministic in ``(seed, tick)``).
    """
    rng = np.random.default_rng((seed, tick, 211))
    edges = graph.edge_list()
    if edges.shape[0] == 0:
        return (np.zeros((0, 2), dtype=np.int64),
                np.zeros((0, 2), dtype=np.int64))
    take = min(num_pairs, edges.shape[0])
    pos = edges[rng.choice(edges.shape[0], size=take, replace=False)]
    neg = []
    attempts = 0
    while len(neg) < take and attempts < take * 50:
        attempts += 1
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes - 1))
        if v >= u:
            v += 1
        if not graph.has_edge(u, v):
            neg.append((u, v))
    return pos, np.asarray(neg, dtype=np.int64).reshape(-1, 2)


def score_pairs(artifact: ServableArtifact,
                pairs: np.ndarray) -> np.ndarray:
    """Decoder scores for ``pairs`` straight off the artifact table:
    the forward-only decode the serving cluster runs, in the table's
    dtype."""
    table = artifact.embedding_table()
    return artifact.build_predictor().decode(table, pairs[:, 0],
                                             pairs[:, 1])


@dataclass(frozen=True)
class GateDecision:
    """The gate's verdict on one candidate."""

    accepted: bool
    reason: str
    auc: float = float("nan")

    def to_dict(self) -> dict:
        """JSON form for tick records and reports."""
        return {"accepted": self.accepted, "reason": self.reason,
                "auc": self.auc}


class RolloutGate:
    """Digest-equality + AUC-floor admission control for hot swaps."""

    def __init__(self, auc_floor: float = 0.0,
                 probe_pairs_n: int = 32) -> None:
        self.auc_floor = float(auc_floor)
        self.probe_pairs_n = int(probe_pairs_n)

    def evaluate(self, candidate: ServableArtifact,
                 expected_checksum: str,
                 live: Optional[ServableArtifact],
                 graph: Graph, seed: int, tick: int) -> GateDecision:
        """Run all three checks; first failure wins."""
        actual = candidate.checksum()
        if actual != expected_checksum:
            return GateDecision(
                False, f"digest mismatch: payload hashes {actual[:12]} "
                       f"but {expected_checksum[:12]} was promised")
        if live is not None and layout_mismatch(candidate, live):
            return GateDecision(
                False, "layout incompatible with the live artifact "
                       "(cold swap required)")
        pos, neg = probe_pairs(graph, seed, tick, self.probe_pairs_n)
        if pos.shape[0] == 0 or neg.shape[0] == 0:
            probe_auc = 0.5  # degenerate probe: neither pass nor fail
        else:
            probe_auc = float(auc(score_pairs(candidate, pos),
                                  score_pairs(candidate, neg)))
        if probe_auc < self.auc_floor:
            return GateDecision(
                False, f"probe auc {probe_auc:.4f} below floor "
                       f"{self.auc_floor:.4f}", probe_auc)
        return GateDecision(True, "accepted", probe_auc)
