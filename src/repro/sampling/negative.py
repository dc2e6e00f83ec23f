"""Negative samplers for link prediction.

The paper distinguishes two standard strategies (Section II-B):

* **global uniform** — node pairs drawn uniformly from all non-edges;
  used for validation/test sets.
* **per-source uniform** — for each source endpoint of a positive
  training edge, a destination drawn uniformly from the nodes that do
  not share an edge with the source; used during training.

The distributed findings of the paper hinge on the *candidate set* a
worker can draw destinations from: a worker without shared data can
only reach its own partition's nodes (local negatives), whereas SpLPG
and the ``+`` data-sharing variants can reach every node (global
negatives).  Both samplers therefore accept an explicit ``candidates``
array restricting the destination sample space.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import ensure_rng
from ..graph.graph import Graph


class EdgeMembership:
    """Membership test over a graph's undirected edge set: one sorted
    ``int64`` key per edge, answered by binary search."""

    def __init__(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes
        edges = graph.edge_list()
        lo = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
        hi = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
        self._keys = np.sort(lo * self.num_nodes + hi)

    def __contains__(self, pair) -> bool:
        return bool(self.contains_many(np.asarray(pair).reshape(1, 2))[0])

    def contains_many(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized membership: True where a pair is an edge (or a
        self-pair, which is never a valid negative)."""
        pairs = np.asarray(pairs, dtype=np.int64)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * self.num_nodes + hi
        self_loop = pairs[:, 0] == pairs[:, 1]
        if self._keys.size == 0:
            return self_loop
        # Probe in key order: neighbouring probes then share most of
        # their search path, which roughly halves the search time.
        order = np.argsort(keys)
        probes = keys[order]
        slot = np.minimum(np.searchsorted(self._keys, probes),
                          self._keys.size - 1)
        member = np.empty(keys.size, dtype=bool)
        member[order] = self._keys[slot] == probes
        return member | self_loop


class PerSourceUniformNegativeSampler:
    """Per-source uniform negative sampling (training-time strategy).

    For every source node given to :meth:`sample`, draws one
    destination uniformly from ``candidates`` such that the pair is not
    an edge of ``graph``.  Rejection sampling with a bounded number of
    rounds; pairs that still collide after that (possible only in
    near-clique candidate sets) are kept anyway, mirroring DGL's
    non-strict uniform sampler.
    """

    def __init__(
        self,
        graph: Graph,
        candidates: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 16,
    ) -> None:
        self.membership = EdgeMembership(graph)
        if candidates is None:
            candidates = np.arange(graph.num_nodes, dtype=np.int64)
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.size == 0:
            raise ValueError("candidate set must be non-empty")
        self.rng = ensure_rng(rng)
        self.max_rounds = max_rounds
        self.obs = None  # optional RunObserver; attached by the trainer

    def sample(self, sources: np.ndarray) -> np.ndarray:
        """One negative destination per source; returns ``(m, 2)``."""
        sources = np.asarray(sources, dtype=np.int64)
        dst = self.candidates[self.rng.integers(
            0, self.candidates.size, size=sources.size)]
        pairs = np.stack([sources, dst], axis=1)
        for _ in range(self.max_rounds):
            bad = self.membership.contains_many(pairs)
            if not bad.any():
                break
            redraw = self.candidates[self.rng.integers(
                0, self.candidates.size, size=int(bad.sum()))]
            pairs[bad, 1] = redraw
        if self.obs is not None:
            self.obs.counter("sample.negatives").inc(int(pairs.shape[0]))
        return pairs


class GlobalUniformNegativeSampler:
    """Global uniform negative sampling (evaluation-time strategy).

    Draws pairs ``(u, v)`` with both endpoints uniform over
    ``candidates`` and ``{u, v}`` not an edge.
    """

    def __init__(
        self,
        graph: Graph,
        candidates: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 16,
    ) -> None:
        self.membership = EdgeMembership(graph)
        if candidates is None:
            candidates = np.arange(graph.num_nodes, dtype=np.int64)
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.size < 2:
            raise ValueError("need at least two candidate nodes")
        self.rng = ensure_rng(rng)
        self.max_rounds = max_rounds
        self.obs = None  # optional RunObserver; attached by the trainer

    def sample(self, count: int) -> np.ndarray:
        """``count`` uniform non-edge pairs; returns ``(count, 2)``."""
        idx = self.rng.integers(0, self.candidates.size, size=(count, 2))
        pairs = self.candidates[idx]
        for _ in range(self.max_rounds):
            bad = self.membership.contains_many(pairs)
            if not bad.any():
                break
            n_bad = int(bad.sum())
            redraw = self.rng.integers(0, self.candidates.size,
                                       size=(n_bad, 2))
            pairs[bad] = self.candidates[redraw]
        if self.obs is not None:
            self.obs.counter("sample.negatives").inc(int(pairs.shape[0]))
        return pairs


class DegreeWeightedNegativeSampler:
    """Per-source negatives with destinations ∝ degree^beta.

    PinSage-style "hard" negative sampling: popular nodes appear more
    often as negatives, which sharpens rankings around hubs.  With
    ``beta = 0`` this degenerates to the uniform sampler; ``beta =
    0.75`` is the word2vec/PinSage convention.  Included as an
    extension for the negative-sampling ablation.
    """

    def __init__(
        self,
        graph: Graph,
        beta: float = 0.75,
        candidates: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 16,
    ) -> None:
        self.membership = EdgeMembership(graph)
        if candidates is None:
            candidates = np.arange(graph.num_nodes, dtype=np.int64)
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.size == 0:
            raise ValueError("candidate set must be non-empty")
        weights = graph.degrees[self.candidates].astype(np.float64) ** beta
        weights = np.maximum(weights, 1e-12)
        self.probs = weights / weights.sum()
        self.rng = ensure_rng(rng)
        self.max_rounds = max_rounds
        self.obs = None  # optional RunObserver; attached by the trainer

    def sample(self, sources: np.ndarray) -> np.ndarray:
        """One degree-biased negative per source; returns ``(m, 2)``."""
        sources = np.asarray(sources, dtype=np.int64)
        dst = self.rng.choice(self.candidates, size=sources.size,
                              p=self.probs)
        pairs = np.stack([sources, dst], axis=1)
        for _ in range(self.max_rounds):
            bad = self.membership.contains_many(pairs)
            if not bad.any():
                break
            redraw = self.rng.choice(self.candidates,
                                     size=int(bad.sum()), p=self.probs)
            pairs[bad, 1] = redraw
        if self.obs is not None:
            self.obs.counter("sample.negatives").inc(int(pairs.shape[0]))
        return pairs


class InBatchNegativeSampler:
    """Negatives from within the positive batch itself.

    For each positive edge ``(u, v)``, the destination of another
    (randomly chosen) positive edge in the same batch serves as ``u``'s
    negative.  Costs no extra sampling space — a common trick in
    retrieval training — but the destination distribution follows the
    batch's degree profile rather than the uniform distribution link
    prediction evaluation assumes.
    """

    def __init__(self, graph: Graph,
                 rng: Optional[np.random.Generator] = None,
                 max_rounds: int = 8) -> None:
        self.membership = EdgeMembership(graph)
        self.rng = ensure_rng(rng)
        self.max_rounds = max_rounds
        self.obs = None  # optional RunObserver; attached by the trainer

    def sample(self, batch: np.ndarray) -> np.ndarray:
        """``batch`` is the positive ``(m, 2)`` edge batch (not just
        sources: destinations are recycled from it)."""
        batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        m = batch.shape[0]
        sources = batch[:, 0]
        perm = self.rng.permutation(m)
        pairs = np.stack([sources, batch[perm, 1]], axis=1)
        for _ in range(self.max_rounds):
            bad = self.membership.contains_many(pairs)
            if not bad.any():
                break
            redraw = self.rng.integers(0, m, size=int(bad.sum()))
            pairs[bad, 1] = batch[redraw, 1]
        # Any survivors that are still edges get a uniform fallback so
        # the batch never trains on a mislabeled positive.
        bad = self.membership.contains_many(pairs)
        if bad.any():
            n = self.membership.num_nodes
            pairs[bad, 1] = self.rng.integers(0, n, size=int(bad.sum()))
        if self.obs is not None:
            self.obs.counter("sample.negatives").inc(int(pairs.shape[0]))
        return pairs


def classify_negatives(pairs: np.ndarray,
                       assignment: np.ndarray) -> np.ndarray:
    """Label each negative pair local (True) or global (False).

    ``assignment[v]`` is the partition owning node ``v``.  A pair is
    *local* when both endpoints live in the same partition — the only
    kind a worker without data sharing can produce (paper Fig. 5).
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    return assignment[pairs[:, 0]] == assignment[pairs[:, 1]]
