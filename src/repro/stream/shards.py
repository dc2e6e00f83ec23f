"""Streaming shard state: frozen ownership over a moving graph.

:class:`ShardedState` keeps what is genuinely incremental about a
partitioned stream — *who owns what* — and nothing else.  Its
``layout`` is a plain
:class:`~repro.partition.partitioned.PartitionedGraph`, re-assembled
every tick from the tick's snapshot by the placement rule the static
builders use (``PartitionedGraph.assemble``), so between rebalances
``layout`` *is* what a from-scratch build on the carried ownership
would produce.  Carried from tick to tick:

* the node→shard ``assignment``, fixed between rebalances (under
  vertex cut: the frozen *masters* — no global argmax re-runs while
  edges come and go);
* under vertex cut, the per-edge owners: surviving edges keep theirs
  and a new edge is assigned online, so ownership stays deterministic
  and stable while replicas grow.

Every shipped byte is charged to a
:class:`~repro.distributed.comm.CommMeter`.  Replica growth and skewed
edge ownership are what the *rebalancing triggers* watch; when one
fires, :meth:`ShardedState.rebalance` re-runs the configured strategy
through the :mod:`partitioner registry <repro.partition.registry>`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

from ..distributed.comm import CommMeter
from ..graph.graph import Graph
from ..partition.partitioned import PartitionedGraph
from ..partition.registry import PartitionSpec
from .errors import StreamError
from .mutable import GraphDelta


def _edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonical ``(m, 2)`` edge rows as sortable scalar keys."""
    return edges[:, 0] * num_nodes + edges[:, 1]


def _part_edge_rows(part: Graph) -> np.ndarray:
    """``part.edge_list()`` of a shard :meth:`PartitionedGraph.assemble`
    wrote, without its sort check: shards are in the canonical row
    layout, so their ``u < v`` entries already come sorted."""
    src = np.repeat(np.arange(part.num_nodes, dtype=np.int64),
                    np.diff(part.indptr))
    upper = src < part.indices
    return np.stack([src[upper], part.indices[upper]], axis=1)


class ShardedState:
    """Evolving shard storage over a fixed node universe.

    Built once from a :class:`~repro.partition.registry.PartitionSpec`
    and thereafter advanced by :meth:`apply_delta` / :meth:`rebalance`,
    each of which replaces ``layout``; every read — storage, ownership,
    replicas — goes through ``layout``.
    """

    def __init__(self, graph: Graph, spec: PartitionSpec,
                 num_parts: int, seed: int) -> None:
        if num_parts < 1:
            raise StreamError("num_parts must be >= 1")
        self.spec = spec
        self.seed = int(seed)
        self.rebalances = 0
        self.layout: PartitionedGraph = spec.build(
            graph, int(num_parts), rng=np.random.default_rng((seed, 0, 97)))

    def apply_delta(self, delta: GraphDelta, snapshot: Graph,
                    meter: Optional[CommMeter] = None) -> None:
        """Advance the layout to ``snapshot``, the graph ``delta`` led to.

        Inserted edges are charged before deleted ones, each announced
        to every shard that stores it (an edge id pair per shard, the
        ``structure_nbytes`` formula training uses; vertex cut assigns
        an inserted edge its owner online).  The layout is then
        re-assembled on the carried ownership and each drifted feature
        row is charged to every shard that now replicates the node.
        """
        old = self.layout
        expected = (old.full.num_edges + delta.inserted.shape[0]
                    - delta.deleted.shape[0])
        if expected != snapshot.num_edges:
            raise StreamError(
                "sharded state is out of sync with the snapshot: expected "
                f"{expected} edge(s), it has {snapshot.num_edges} — apply "
                "the same deltas to both")
        edge_owner = (self._carry_edge_owners(delta, snapshot)
                      if old.edge_partitioned else None)
        if meter is not None:
            for edges in (delta.inserted, delta.deleted):
                for k in self._storing_shards(edges).tolist():
                    if k:
                        meter.charge_structure(num_edges=k,
                                               num_queried_nodes=k)
        self.layout = PartitionedGraph.assemble(
            snapshot, old.assignment, old.num_parts, old.mirror, edge_owner)
        if delta.drifted.size and snapshot.feature_dim:
            rows = int(self.layout.replica_mask()[:, delta.drifted].sum())
            if meter is not None and rows:
                meter.charge_features(rows, snapshot.feature_dim)

    def _carry_edge_owners(self, delta: GraphDelta,
                           snapshot: Graph) -> np.ndarray:
        """Vertex-cut owners of ``snapshot``'s edges: survivors keep
        theirs, inserted edges are assigned online in delta order and
        no master moves — a shard already replicating both endpoints
        wins (insertions earlier in the same tick count; fewest owned
        edges, then lowest id), else the less loaded endpoint master.
        """
        old = self.layout
        stored = old.replica_mask()
        counts = np.bincount(old.edge_assignment, minlength=old.num_parts)
        assigned = np.empty(delta.inserted.shape[0], dtype=np.int64)
        for j, (u, v) in enumerate(delta.inserted):
            shared = np.flatnonzero(stored[:, u] & stored[:, v])
            candidates = shared if shared.size else np.unique(
                old.assignment[[u, v]])
            # Candidates ascend, so argmin's first minimum is the
            # lowest shard id among the least loaded.
            part = candidates[np.argmin(counts[candidates])]
            assigned[j] = part
            counts[part] += 1
            stored[part, [u, v]] = True
        # Look every snapshot edge up among the old and the inserted
        # edges; the stable sort puts a re-inserted edge after its old
        # self, so the right-most match is the owner that counts.
        n = snapshot.num_nodes
        known = np.concatenate([_edge_keys(old.full.edge_list(), n),
                                _edge_keys(delta.inserted, n)])
        order = np.argsort(known, kind="stable")
        keys = _edge_keys(snapshot.edge_list(), n)
        at = order[np.searchsorted(known[order], keys, side="right") - 1]
        if np.any(known[at] != keys):
            raise StreamError(
                "sharded state is out of sync with the snapshot: the "
                "carried edge owners do not cover its edge list")
        return np.concatenate([old.edge_assignment, assigned])[at]

    def _storing_shards(self, edges: np.ndarray) -> np.ndarray:
        """How many shards store each of ``edges`` under the carried
        ownership: its one owner (vertex cut), both endpoint owners
        (mirror), or the common owner if there is one (plain)."""
        layout = self.layout
        if layout.edge_partitioned:
            return np.ones(edges.shape[0], dtype=np.int64)
        owner = layout.assignment
        cut = owner[edges[:, 0]] != owner[edges[:, 1]]
        return 1 + cut if layout.mirror else 1 - cut

    def edge_imbalance(self) -> float:
        """Max/mean owned edges per shard (1.0 = perfectly balanced),
        over the whole disjoint edge cover — cut edges a plain layout
        stores nowhere included, which keeps the trigger honest."""
        counts = np.bincount(self.layout.edge_cover(),
                             minlength=self.layout.num_parts)
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    def needs_rebalance(self, imbalance_threshold: float,
                        replication_threshold: float) -> Optional[str]:
        """The firing trigger, or ``None`` when balanced (a threshold
        of 0 disables that trigger)."""
        for name, threshold, measure in (
                ("edge_imbalance", imbalance_threshold, self.edge_imbalance),
                ("replication_factor", replication_threshold,
                 self.layout.replication_factor)):
            if threshold > 0 and measure() > threshold:
                return f"{name} {measure():.3f} > {threshold:.3f}"
        return None

    def rebalance(self, graph: Graph, tick: int,
                  meter: Optional[CommMeter] = None) -> Dict[str, int]:
        """Re-partition the current snapshot through the registry.

        The strategy's rng derives from ``(seed, tick, salt)`` —
        deterministic across backends and across resume.  Migration is
        charged and returned: every (shard, edge) newly stored ships as
        structure, every (shard, node) newly replicated as a feature row.
        """
        old = self.layout
        new = self.layout = self.spec.build(
            graph, old.num_parts,
            rng=np.random.default_rng((self.seed, tick, 131)))
        self.rebalances += 1
        n = graph.num_nodes
        moved_edges = sum(
            int((~np.isin(_edge_keys(_part_edge_rows(new.parts[p]), n),
                          _edge_keys(_part_edge_rows(old.parts[p]), n))
                 ).sum())
            for p in range(old.num_parts))
        moved_rows = int((new.replica_mask() & ~old.replica_mask()).sum())
        if meter is not None:
            if moved_edges:
                meter.charge_structure(num_edges=moved_edges,
                                       num_queried_nodes=moved_edges)
            if moved_rows and graph.feature_dim:
                meter.charge_features(moved_rows, graph.feature_dim)
        return {"moved_edges": moved_edges, "moved_rows": moved_rows}

    def fingerprint(self) -> str:
        """Content hash of the layout (hex sha256): the assignment and
        every shard's sorted edge list (plus the per-edge owners under
        vertex cut).  Equal exactly when the layouts store equal bytes.
        Arrays are hashed through the buffer protocol, not copied.
        """
        layout = self.layout
        digest = hashlib.sha256()
        digest.update(np.int64([layout.num_parts, self.rebalances,
                                int(layout.edge_partitioned),
                                int(layout.mirror)]).tobytes())
        digest.update(np.ascontiguousarray(layout.assignment,
                                           dtype=np.int64))
        for part in layout.parts:
            digest.update(_part_edge_rows(part))
        if layout.edge_partitioned:
            digest.update(layout.full.edge_list())
            digest.update(np.ascontiguousarray(layout.edge_assignment))
        return digest.hexdigest()

    def state_arrays(self) -> dict:
        """Flat array dict for checkpointing."""
        layout = self.layout
        state = {"stream.shards.assignment": layout.assignment,
                 "stream.shards.rebalances": np.array(self.rebalances,
                                                      dtype=np.int64)}
        if layout.edge_partitioned:
            state["stream.shards.owner_edges"] = layout.full.edge_list()
            state["stream.shards.owner_parts"] = layout.edge_assignment
        return state

    @classmethod
    def from_state_arrays(cls, state: dict, graph: Graph,
                          spec: PartitionSpec, num_parts: int,
                          seed: int) -> "ShardedState":
        """Rebuild from :meth:`state_arrays` plus the live snapshot.

        The frozen assignment (and, for vertex cut, the per-edge
        ownership) is restored verbatim rather than re-partitioned: a
        resumed stream continues from the *same* layout, which
        bit-identical resume requires.
        """
        obj = cls.__new__(cls)
        obj.spec, obj.seed = spec, int(seed)
        obj.rebalances = int(state["stream.shards.rebalances"])
        edge_owner = None
        if spec.edge_partitioned:
            if not np.array_equal(state["stream.shards.owner_edges"],
                                  graph.edge_list()):
                raise StreamError(
                    "checkpointed edge owners do not match the "
                    "snapshot's edge list")
            edge_owner = np.asarray(state["stream.shards.owner_parts"],
                                    dtype=np.int64)
        obj.layout = PartitionedGraph.assemble(
            graph, np.asarray(state["stream.shards.assignment"],
                              dtype=np.int64),
            int(num_parts), spec.mirror or spec.edge_partitioned,
            edge_owner)
        return obj
