"""Worker-side graph views.

A :class:`WorkerGraphView` is what a worker's neighbor sampler sees: a
composite over (a) the worker's local partition — free to read — and
(b) an optional remote store on the master — every access charged to
the worker's communication meter.  The view also resolves feature
vectors, fetching remotely only those input nodes whose features are
not stored locally.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..partition.partitioned import PartitionedGraph
from ..sampling.blocks import GraphNeighborSource, merge_neighbor_chunks
from .comm import CommMeter


class WorkerGraphView:
    """Composite neighbor source for worker ``part``.

    Parameters
    ----------
    remote:
        ``None`` for pure-local training (vanilla baselines, SpLPG-),
        a :class:`~repro.distributed.store.RemoteGraphStore` for the
        complete data-sharing strategy, or a
        :class:`~repro.distributed.store.SparsifiedRemoteStore` for
        SpLPG.  Structure queries for nodes owned by other partitions
        go to the remote store when present; without one, the worker
        can only use whatever edges its local partition stores.
    """

    def __init__(
        self,
        partitioned: PartitionedGraph,
        part: int,
        remote=None,
        meter: Optional[CommMeter] = None,
        cache_remote_features: bool = False,
        obs=None,
    ) -> None:
        self.partitioned = partitioned
        self.part = part
        self.remote = remote
        self.meter = meter
        # Optional RunObserver: reports fetch volumes and cache hits.
        self.obs = obs
        self._local_graph = partitioned.local_graph(part)
        # Worker-local partition structure — free to read by definition.
        self._local = GraphNeighborSource(self._local_graph)
        # Which nodes this worker answers structure queries for locally
        # — owned nodes under node partitioning, every stored endpoint
        # under vertex cut (where local lists are complete by design).
        self._owned_mask = partitioned.local_structure_mask(part)
        # Optional optimization beyond the paper's accounting: remember
        # which remote features were already fetched and never pay for
        # them again until the cache is cleared (see the feature-cache
        # ablation benchmark).
        self.cache_remote_features = cache_remote_features
        self._feature_cache = np.zeros(self.num_nodes, dtype=bool)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the full (global) graph."""
        return self.partitioned.full.num_nodes

    # -- structure ---------------------------------------------------------

    def neighbors_batch(self, nodes: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor lists of ``nodes``: local partition edges for free,
        remote answers through the charged store path."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.remote is not None and getattr(self.remote, "complete",
                                               False):
            # Complete data-sharing: every neighbor list is served at
            # full fidelity; the worker pays only for the edges its
            # local partition does not store (paper Section III-B).
            return self._complete_neighbors(nodes)
        local_mask = self._owned_mask[nodes]
        if self.remote is None or bool(local_mask.all()):
            # Everything answered from local storage (owned nodes have
            # complete neighbor lists when mirrored; halo/foreign nodes
            # expose only locally stored edges).
            return self._local.neighbors_batch(nodes)

        chunks = []
        local_sel = np.flatnonzero(local_mask)
        if local_sel.size:
            chunks.append((local_sel,
                           *self._local.neighbors_batch(nodes[local_sel])))
        remote_sel = np.flatnonzero(~local_mask)
        chunks.append((remote_sel, *self.remote.neighbors_batch(
            nodes[remote_sel], self.meter)))
        return merge_neighbor_chunks(nodes.size, chunks)

    def _complete_neighbors(self, nodes: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-fidelity answers with delta charging.

        The master's store serves the complete neighbor lists and
        charges the meter for the difference between the full and
        locally stored degree of each queried node (a node whose list
        is already complete locally costs nothing) — see
        :meth:`~repro.distributed.store.RemoteGraphStore.complete_neighbors_batch`.
        """
        local_counts = self._local_graph.degrees[nodes]
        return self.remote.complete_neighbors_batch(
            nodes, local_counts, self.meter)

    # -- features ------------------------------------------------------------

    def fetch_features(self, nodes: np.ndarray) -> np.ndarray:
        """Features of ``nodes``; remote rows are charged to the meter.

        Within one call (= one mini-batch) nodes are already unique, so
        the per-batch deduplication of the paper's accounting holds.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        local = self.partitioned.has_feature_locally(self.part, nodes)
        remote_pos = np.flatnonzero(~local)
        requested_remote = int(remote_pos.size)
        if self.cache_remote_features and remote_pos.size:
            remote_pos = remote_pos[~self._feature_cache[nodes[remote_pos]]]
            self._feature_cache[nodes[remote_pos]] = True
        if self.obs is not None:
            self.obs.counter("fetch.nodes_total").inc(int(nodes.size))
            self.obs.counter("fetch.nodes_remote").inc(int(remote_pos.size))
            self.obs.counter("fetch.cache_hits").inc(
                requested_remote - int(remote_pos.size))
        # Local (and cache-hit) rows are served from worker storage.
        result = self.partitioned.local_feature_rows(nodes)
        if self.remote is None:
            # Without a remote store a worker cannot see foreign
            # features at all; those rows are zero-filled (the sampler
            # only reaches such nodes in pure-local regimes via stale
            # halo edges, if ever).
            if not local.all():
                result[~local] = 0.0
            return result
        if remote_pos.size:
            fetched = self.remote.fetch_features(nodes[remote_pos],
                                                 self.meter)
            result[remote_pos] = fetched.astype(np.float32)
        return result

    def clear_feature_cache(self) -> None:
        """Reset the remote-feature cache (e.g. at epoch boundaries)."""
        self._feature_cache[:] = False

    # -- candidate sets for negative sampling ---------------------------------

    def local_candidate_nodes(self) -> np.ndarray:
        """Nodes a worker can negative-sample without data sharing."""
        return self.partitioned.local_candidate_nodes(self.part)

    def global_candidate_nodes(self) -> np.ndarray:
        """Full negative-sampling space (needs a remote store)."""
        return np.arange(self.num_nodes, dtype=np.int64)
