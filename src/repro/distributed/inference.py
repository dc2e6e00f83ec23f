"""Distributed inference: serving link predictions from workers.

After training, predictions are usually served from the same cluster
that holds the partitioned graph.  :class:`DistributedScorer` assigns
each query pair to the worker owning its source endpoint, builds the
computational graph through that worker's view (local partition plus
the configured remote store, with every remote access charged), and
scores the pair with the trained model.

Scoring can run on any :mod:`execution backend
<repro.distributed.backends>`: worker shards are disjoint, so the
``thread`` backend scores them concurrently in one process and the
``process`` backend forks one child per worker (copy-on-write graph,
results and communication deltas merged in worker order).  Scores and
ledgers are bit-identical across backends: every worker's sampler seed
is pre-drawn from the scorer RNG in worker order before any dispatch.

With full-neighbor computation (``fanouts = [-1] * K``) and a complete
remote store, distributed scores are *exactly* equal to centralized
scores — the test suite uses this as an end-to-end consistency check
of the whole locality machinery.  Full-neighbor embeddings are also
deterministic per node, which lets the scorer memoize them across
``score`` calls: repeated queries against an unchanged model reuse
each node's embedding instead of recomputing (and re-fetching) it.
The memo is keyed by the model's parameter fingerprint and invalidated
the moment the weights change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..rng import ensure_rng
from ..nn.models import LinkPredictionModel
from ..nn.serialize import model_fingerprint
from ..nn.tensor import Tensor, no_grad
from ..partition.partitioned import PartitionedGraph
from ..sampling.neighbor import NeighborSampler
from .backends import BACKEND_NAMES
from .comm import CommMeter, CommRecord
from .routing import ShardRouter, fan_out, resolve_backend
from .views import WorkerGraphView


@dataclass
class InferenceResult:
    """Scores plus the communication the cluster paid to produce them."""

    scores: np.ndarray
    comm: CommRecord
    pairs_per_worker: List[int]
    rerouted_pairs: int = 0

    def summary(self) -> str:
        """Human-readable report of the scoring pass (routing + comm
        ledger), following the same convention as
        :meth:`TrainResult.summary <repro.distributed.trainer.TrainResult.summary>`."""
        total = self.comm
        routed = ", ".join(str(c) for c in self.pairs_per_worker)
        lines = [
            f"pairs scored:     {int(self.scores.shape[0])}",
            f"pairs per worker: [{routed}]",
            "communication:",
            f"  features:  {total.feature_bytes / 2**20:.3f} MB",
            f"  structure: {total.structure_bytes / 2**20:.3f} MB",
        ]
        if self.rerouted_pairs:
            lines.insert(2, f"pairs rerouted:   {self.rerouted_pairs} "
                            f"(owner shard down)")
        return "\n".join(lines)


class DistributedScorer:
    """Scores node pairs across the simulated cluster.

    Parameters
    ----------
    model:
        The trained (synchronized) link-prediction model; every worker
        holds the same replica.
    partitioned:
        The cluster's graph placement.
    remote:
        Master-side store for non-local data (same choices as
        training: ``None``, full, or sparsified).
    fanouts:
        Per-layer fanouts; ``[-1] * K`` for exact full-neighbor
        inference.
    backend:
        Execution backend name (``serial`` | ``thread`` | ``process``);
        results are bit-identical across all three.

    With all-full-neighbor fanouts, per-node embeddings are exact and
    deterministic, so the scorer memoizes them per shard across
    ``score`` calls (see :attr:`stats` for hit/compute counters).  The
    memo is keyed by the model's parameter fingerprint: any weight
    update invalidates it.  Stochastic fanouts disable the memo — the
    sampled neighborhoods (and hence the scores) legitimately differ
    per call.
    """

    def __init__(
        self,
        model: LinkPredictionModel,
        partitioned: PartitionedGraph,
        remote=None,
        fanouts: Sequence[int] = (-1, -1),
        batch_size: int = 1024,
        rng: Optional[np.random.Generator] = None,
        backend: str = "serial",
        timeout_s: float = 30.0,
    ) -> None:
        self.model = model
        self.partitioned = partitioned
        self.fanouts = list(fanouts)
        self.batch_size = batch_size
        self.rng = ensure_rng(rng)
        self.backend = resolve_backend(backend, BACKEND_NAMES, "scoring")
        self.timeout_s = float(timeout_s)
        # Pairs route to master replicas under vertex cut.
        self.router = ShardRouter(partitioned.node_owner,
                                  partitioned.num_parts)
        self.meters = [CommMeter() for _ in range(partitioned.num_parts)]
        self.views = [
            WorkerGraphView(partitioned, part, remote=remote,
                            meter=self.meters[part])
            for part in range(partitioned.num_parts)
        ]
        #: Embedding memo, per shard: node id -> final-layer embedding.
        #: Only populated with all-full-neighbor fanouts (deterministic
        #: embeddings); see the class docstring.
        self._memo_enabled = all(f == -1 for f in self.fanouts)
        self._embed_memo: List[Dict[int, np.ndarray]] = [
            {} for _ in range(partitioned.num_parts)]
        self._memo_version: Optional[str] = None
        #: Deterministic embedding-work counters: ``embed_computed``
        #: (node embeddings built from scratch) and ``embed_memo_hits``
        #: (reused from the memo).  Identical across backends.
        self.stats: Dict[str, int] = {"embed_computed": 0,
                                      "embed_memo_hits": 0}

    def mark_down(self, part: int) -> None:
        """Take shard ``part`` out of the routing table; its pairs are
        rerouted (see :meth:`ShardRouter.mark_down`) and pay the remote
        traffic of scoring through a non-owner's view."""
        self.router.mark_down(part)

    def mark_up(self, part: int) -> None:
        """Return a previously downed shard to the routing table."""
        self.router.mark_up(part)

    @property
    def live_shards(self) -> List[int]:
        """Shards currently accepting queries, in worker order."""
        return self.router.live_shards

    def _refresh_memo(self) -> None:
        """Invalidate the embedding memo if the model changed.

        The memo is keyed by the model's parameter fingerprint; a
        version mismatch (any weight update since the last ``score``)
        clears every shard's cache.
        """
        if not self._memo_enabled:
            return
        version = model_fingerprint(self.model)
        if version != self._memo_version:
            self._memo_version = version
            for memo in self._embed_memo:
                memo.clear()

    def score(self, pairs: np.ndarray) -> InferenceResult:
        """Score pairs; each is routed to its source endpoint's owner
        (or a fallback shard when the owner is marked down)."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.shape[0] == 0:
            # Graceful empty query: nothing routed, nothing charged.
            return InferenceResult(
                scores=np.empty(0, dtype=np.float64),
                comm=self._total_comm(),
                pairs_per_worker=[0] * self.partitioned.num_parts,
                rerouted_pairs=0)
        self._refresh_memo()
        owners, rerouted = self.router.route_pairs(pairs)
        scores = np.empty(pairs.shape[0], dtype=np.float64)
        counts: List[int] = []
        # Pre-draw every shard's sampler seed in worker order so the
        # scorer RNG advances identically on every backend.
        work: Dict[int, tuple] = {}  # part -> (sel, seed)
        for part in range(self.partitioned.num_parts):
            sel = np.flatnonzero(owners == part)
            counts.append(int(sel.size))
            if sel.size == 0:
                continue
            work[part] = (sel, int(self.rng.integers(0, 2**63 - 1)))

        def run(part: int, worker: Optional[int] = None) -> tuple:
            """Score shard ``part`` through ``worker``'s view (its own by
            default); the reply names the worker and what it charged."""
            worker = part if worker is None else worker
            sel, seed = work[part]
            before = self.meters[worker].current.to_dict()
            reply = self._score_shard(worker, sel, pairs, seed)
            after = self.meters[worker].current.to_dict()
            return (worker, *reply,
                    {key: after[key] - before[key] for key in after})

        def fallback(part: int, exc: Exception) -> tuple:
            # Owner shard is gone mid-query: mark it down and re-score
            # its pairs through a surviving shard's view (same sampler
            # seed, remote fetches charged to the fallback worker).
            warnings.warn(
                f"scoring shard {part} failed ({exc}); falling back to "
                f"a live shard", RuntimeWarning, stacklevel=2)
            self.mark_down(part)
            return run(part, worker=self.live_shards[0])

        self.model.eval()
        try:
            for part, reply, piped in fan_out(
                    self.backend, list(work), run, fallback,
                    self.timeout_s, context="score"):
                worker, shard_scores, fresh, hits, charged = reply
                scores[work[part][0]] = shard_scores
                self._absorb_memo(worker, fresh, hits)
                if piped:  # the child charged its own copy of the meter
                    self.meters[worker].absorb(CommRecord(**charged))
        finally:
            self.model.train()
        return InferenceResult(scores=scores, comm=self._total_comm(),
                               pairs_per_worker=counts,
                               rerouted_pairs=rerouted)

    # ------------------------------------------------------------------

    def _absorb_memo(self, part: int, fresh: Dict[int, np.ndarray],
                     hits: int) -> None:
        """Fold a shard's freshly computed embeddings into its memo and
        count the embedding work.  Runs parent-side only, in worker
        order, so the counters are bit-identical across backends."""
        self.stats["embed_computed"] += len(fresh)
        self.stats["embed_memo_hits"] += int(hits)
        if self._memo_enabled and fresh:
            self._embed_memo[part].update(fresh)

    @no_grad()
    def _score_shard(self, part: int, sel: np.ndarray, pairs: np.ndarray,
                     seed: int
                     ) -> Tuple[np.ndarray, Dict[int, np.ndarray], int]:
        """Score one worker's shard of pairs, in routing order.

        Touches only worker-``part`` state (view, meter, a fresh
        sampler), so shards are safe to run concurrently.  Returns the
        scores plus the per-node embeddings computed from scratch this
        call plus the memo hit count (the caller folds both into the
        shard memo and the work counters — the forked child ships them
        back to the parent instead).  Records no tape: the scope is
        entered here, on whichever thread or child runs the shard.
        """
        view = self.views[part]
        sampler = NeighborSampler(self.fanouts,
                                  rng=np.random.default_rng(seed))
        memo = self._embed_memo[part] if self._memo_enabled else None
        fresh: Dict[int, np.ndarray] = {}
        hits = 0
        out = np.empty(sel.size, dtype=np.float64)
        for start in range(0, sel.size, self.batch_size):
            idx = sel[start:start + self.batch_size]
            batch = pairs[idx]
            seeds, inverse = np.unique(batch.ravel(), return_inverse=True)
            pair_idx = inverse.reshape(-1, 2)
            if memo is None:
                comp_graph = sampler.sample(view, seeds)
                feats = view.fetch_features(comp_graph.input_nodes)
                emb = self.model.embed(comp_graph, feats)
                logits = self.model.score_pairs(emb, pair_idx[:, 0],
                                                pair_idx[:, 1])
                # Without the memo every seed is computed fresh; the
                # rows are still reported so the work counters agree
                # across backends (the forked child ships them back).
                for j, node in enumerate(seeds):
                    fresh[int(node)] = emb.data[j]
            else:
                known = np.fromiter(
                    (int(n) in memo or int(n) in fresh for n in seeds),
                    dtype=bool, count=seeds.size)
                missing = seeds[~known]
                hits += int(known.sum())
                if missing.size:
                    # `missing` is sorted-unique, so the sampled
                    # computation graph's seed order matches it and
                    # embedding rows align one-to-one.
                    comp_graph = sampler.sample(view, missing)
                    feats = view.fetch_features(comp_graph.input_nodes)
                    new_emb = self.model.embed(comp_graph, feats).data
                    for j, node in enumerate(missing):
                        fresh[int(node)] = new_emb[j]
                rows = np.stack([
                    fresh[int(n)] if int(n) in fresh else memo[int(n)]
                    for n in seeds])
                logits = self.model.score_pairs(Tensor(rows),
                                                pair_idx[:, 0],
                                                pair_idx[:, 1])
            out[start:start + idx.size] = logits.data
        return out, fresh, hits

    def _total_comm(self) -> CommRecord:
        """Cumulative communication over every ``score`` call so far."""
        comm = CommRecord()
        for meter in self.meters:
            comm += meter.total()
        return comm

