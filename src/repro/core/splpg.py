"""SpLPG: the paper's distributed link-prediction training framework.

This module is the primary public API.  :class:`SpLPG` packages
Algorithm 1 end to end:

1. partition the input graph with METIS, mirroring cross-partition
   edges so every owned node keeps its full neighbor list;
2. sparsify each partition with the effective-resistance sampler and
   publish the sparsified copies to shared memory;
3. train one model replica per worker — positive samples from the
   local partition, negative samples drawn per-source-uniformly over
   the *entire* node set with remote neighborhoods answered from the
   sparsified copies — synchronizing by gradient or model averaging;
4. select the best model by validation Hits@K and report test metrics
   together with the full communication ledger.

Example
-------
>>> from repro import SpLPG, load_dataset, split_edges
>>> graph = load_dataset("cora", scale=0.2, feature_dim=64)
>>> split = split_edges(graph)
>>> framework = SpLPG(num_parts=4, alpha=0.15)
>>> result = framework.fit(split)
>>> result.test.hits, result.graph_data_gb_per_epoch  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..distributed.store import SparsifiedRemoteStore
from ..distributed.trainer import DistributedTrainer, TrainConfig, TrainResult
from ..obs import RunObserver
from ..eval.evaluator import score_pairs
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit, split_edges
from ..partition import partition_graph
from ..partition.partitioned import PartitionedGraph
from ..sparsify.partition_sparsifier import (
    SparsifiedPartitions,
    sparsify_partitions,
)


@dataclass
class PreparedData:
    """Output of the preprocessing stage (Algorithm 1 lines 1-14)."""

    partitioned: PartitionedGraph
    sparsified: SparsifiedPartitions

    @property
    def sparsify_seconds(self) -> float:
        """Sparsifier wall-clock time (Table II's measurement)."""
        return self.sparsified.elapsed_seconds


class SpLPG:
    """Distributed GNN training for link prediction with sparsification.

    Parameters
    ----------
    num_parts:
        Number of workers / partitions ``p``.
    alpha:
        Sparsification level: each partition draws
        ``L^i = alpha * |E^i|`` edge samples (paper default 0.15,
        retaining roughly 10-15% of edges).
    config:
        Training hyperparameters; paper defaults when omitted.
    seed:
        Seeds partitioning, sparsification and training end to end.
    """

    def __init__(
        self,
        num_parts: int = 4,
        alpha: float = 0.15,
        config: Optional[TrainConfig] = None,
        seed: int = 0,
    ) -> None:
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.num_parts = num_parts
        self.alpha = alpha
        self.config = config or TrainConfig(seed=seed)
        self.seed = seed
        self.prepared: Optional[PreparedData] = None
        self.result: Optional[TrainResult] = None
        self._trainer: Optional[DistributedTrainer] = None
        # One observer per framework instance so preprocessing spans
        # (sparsify) and training spans land on the same trace.
        self._observer: Optional[RunObserver] = (
            RunObserver() if self.config.observe else None)

    # ------------------------------------------------------------------

    def prepare(self, graph: Graph,
                rng: Optional[np.random.Generator] = None) -> PreparedData:
        """Partition and sparsify (Algorithm 1 lines 1-14).

        Exposed separately so experiments can time/inspect the
        preprocessing stage (Table II) and reuse it across runs.
        """
        rng = rng or np.random.default_rng(self.seed)
        partitioned = partition_graph(graph, self.num_parts,
                                      strategy="metis", rng=rng, mirror=True)
        sparsified = sparsify_partitions(partitioned, alpha=self.alpha,
                                         rng=rng, obs=self._observer)
        self.prepared = PreparedData(partitioned=partitioned,
                                     sparsified=sparsified)
        return self.prepared

    def fit(self, data: EdgeSplit | Graph,
            rng: Optional[np.random.Generator] = None) -> TrainResult:
        """Run distributed training (Algorithm 1 lines 15-30).

        Accepts either a pre-made :class:`EdgeSplit` or a raw
        :class:`Graph` (split 80/10/10 internally).
        """
        rng = rng or np.random.default_rng(self.seed)
        split = data if isinstance(data, EdgeSplit) else split_edges(
            data, rng=rng)
        if self.prepared is None or \
                self.prepared.partitioned.full is not split.train_graph:
            self.prepare(split.train_graph, rng=rng)
        prepared = self.prepared
        store = SparsifiedRemoteStore(
            split.train_graph,
            prepared.sparsified.graphs,
            prepared.partitioned.node_owner,
        )
        self._trainer = DistributedTrainer(
            framework="splpg",
            split=split,
            partitioned=prepared.partitioned,
            config=self.config,
            remote_store=store,
            global_negatives=True,
            observer=self._observer,
        )
        self._trainer.build_knobs = {"alpha": float(self.alpha),
                                     "sparsifier_kind": "approx_er"}
        self.result = self._trainer.train()
        self._split = split
        return self.result

    # ------------------------------------------------------------------

    def score(self, pairs: np.ndarray) -> np.ndarray:
        """Edge scores (logits) for node pairs, using the trained model."""
        if self._trainer is None:
            raise RuntimeError("call fit() before score()")
        model = self._trainer.workers[0].model
        return score_pairs(model, self._split.train_graph,
                           pairs, self.config.fanouts,
                           rng=np.random.default_rng(self.seed + 13))

    def predict(self, pairs: np.ndarray, threshold: float = 0.0) -> np.ndarray:
        """Binary link predictions (score > threshold)."""
        return self.score(pairs) > threshold

    @property
    def communication_gb_per_epoch(self) -> float:
        """Graph-data traffic per epoch in GB (the paper's cost metric)."""
        if self.result is None:
            raise RuntimeError("call fit() first")
        return self.result.graph_data_gb_per_epoch
