"""Partitioned graph: what each worker stores locally.

All partition subgraphs live in the *global* node-id space (their CSR
simply omits edges a worker does not store).  That keeps every id
translation out of the training path and matches how the simulated
cluster reasons about locality: a :class:`PartitionedGraph` knows, for
every node, which worker owns it and which workers hold its features.

One placement rule (:meth:`PartitionedGraph.assemble`) — partition
``i`` keeps the edges a mask selects and stores features for
``owned(i) ∪ endpoints(kept edges)`` — and three masks:

* ``mirror=False`` — both endpoints owned by ``i``: node-induced
  partitions (the baselines; cross-partition edges are lost,
  fragmenting neighbor lists).
* ``mirror=True`` — either endpoint owned by ``i``: SpLPG's strategy
  (Section IV-B).  Owned nodes keep their full neighbor lists; the
  off-partition endpoints ("halo" nodes) are stored together with
  their feature vectors at distribution time.
* ``edge_partitioned=True`` (built via :meth:`build_edge_partitioned`)
  — the *edge* is assigned to ``i``: vertex cut.  Each node has a
  deterministic **master** replica (the partition holding most of its
  edges, ties to the lowest id; the ``assignment`` vector records
  masters so node-keyed consumers — routing, inference, serving — keep
  working unchanged) and zero or more **mirror** replicas that the
  trainer keeps consistent by replica averaging, charged as sync bytes.

The ownership model (:meth:`owner_of`, :meth:`replicas_of`,
:meth:`stored_nodes`, :meth:`mirror_nodes`,
:meth:`local_candidate_nodes`, :meth:`local_structure_mask`) abstracts
over all three so ``repro.distributed`` never assumes
one-owner-per-node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph


def owner_vector(owners, num_parts: int,
                 size: Optional[int] = None) -> np.ndarray:
    """``owners`` as an int64 vector of partition ids (``size`` long).

    An id outside ``[0, num_parts)`` names a partition that does not
    exist — edges nobody stores, routed queries nobody scores — so it
    is rejected here, for every consumer of an owner array.
    """
    owners = np.asarray(owners, dtype=np.int64)
    low, high = (owners.min(), owners.max()) if owners.size else (0, 0)
    if (owners.ndim != 1 or low < 0 or high >= num_parts
            or size not in (None, owners.size)):
        raise ValueError(
            f"owner vector must be 1-d"
            f"{'' if size is None else f' of length {size}'} with ids in "
            f"[0, {num_parts}); got shape {owners.shape}, ids {low}..{high}")
    return owners


def _canonical_rows(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """``graph``'s structure in the canonical row layout, and each CSR
    entry's row.

    :meth:`Graph.from_edges` stores row ``x`` as its neighbours ``> x``
    in ascending order, then its neighbours ``< x`` in ascending order,
    with no self-loop or repeat.  Dropping entries keeps that layout,
    so masking such a CSR with a symmetric per-entry mask gives the
    arrays ``from_edges`` builds from the kept edges.  One O(m) pass
    checks the layout; a graph not in it (the raw constructor's) is
    rebuilt from its edge list once.
    """
    n = graph.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    # The entry's place in canonical row order, as one increasing key.
    keys = src * (2 * n) + np.where(dst > src, dst, dst + n)
    if np.all(keys[1:] > keys[:-1]) and np.all(dst != src):
        return graph, src
    rebuilt = Graph.from_edges(n, graph.edge_list())
    return rebuilt, np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(rebuilt.indptr))


@dataclass
class PartitionedGraph:
    """The result of distributing a graph across ``num_parts`` workers."""

    full: Graph
    assignment: np.ndarray
    num_parts: int
    mirror: bool
    parts: List[Graph] = field(default_factory=list)
    local_feature_nodes: List[np.ndarray] = field(default_factory=list)
    _feature_mask: Optional[np.ndarray] = None
    #: True for vertex-cut layouts: ``assignment`` then records each
    #: node's *master* replica and ``edge_assignment`` the per-edge
    #: owner (``full.edge_list()`` order).
    edge_partitioned: bool = False
    edge_assignment: Optional[np.ndarray] = None

    @classmethod
    def assemble(cls, graph: Graph, node_owner: np.ndarray, num_parts: int,
                 mirror: bool, edge_owner: Optional[np.ndarray] = None
                 ) -> "PartitionedGraph":
        """The one placement rule (module docstring), unvalidated.

        ``edge_owner``, aligned with ``graph.edge_list()``, selects the
        vertex-cut mask.  :meth:`build` and :meth:`build_edge_partitioned`
        validate and derive the owner vectors;
        :class:`repro.stream.ShardedState` calls this directly with the
        ownership it carries from tick to tick.
        """
        structure, src = _canonical_rows(graph)
        n = graph.num_nodes
        dst = structure.indices
        if edge_owner is None:
            ends = (node_owner[src], node_owner[dst])
        else:
            # Entry -> undirected-edge index.  ``u < v`` entries come
            # in edge-list order; ``v -> u`` entries come in ``(v, u)``
            # order, which a stable sort of the edges by ``v`` gives.
            upper = src < dst
            edge_of = np.empty(dst.size, dtype=np.int64)
            edge_of[upper] = np.arange(np.count_nonzero(upper))
            edge_of[~upper] = np.argsort(dst[upper], kind="stable")
            ends = (edge_owner[edge_of],) * 2
        combine = np.logical_or if mirror else np.logical_and
        parts: List[Graph] = []
        local_nodes: List[np.ndarray] = []
        feature_mask = np.zeros((num_parts, n), dtype=bool)
        for i in range(num_parts):
            keep = combine(ends[0] == i, ends[1] == i)
            kept_before = np.concatenate([[0], np.cumsum(keep)])
            indptr = kept_before[structure.indptr]
            # Structure only; features are answered via the mask below.
            parts.append(Graph(indptr, dst[keep]))
            # Masks are symmetric, so the rows keeping an entry are
            # exactly the kept edges' endpoints.
            stored = feature_mask[i]
            np.greater(indptr[1:], indptr[:-1], out=stored)
            stored |= node_owner == i
            local_nodes.append(np.flatnonzero(stored))
        return cls(full=graph, assignment=node_owner, num_parts=num_parts,
                   mirror=mirror, parts=parts,
                   local_feature_nodes=local_nodes,
                   _feature_mask=feature_mask,
                   edge_partitioned=edge_owner is not None,
                   edge_assignment=edge_owner)

    @classmethod
    def build(cls, graph: Graph, assignment: np.ndarray,
              num_parts: int, mirror: bool) -> "PartitionedGraph":
        """Assemble partition storage from an assignment vector."""
        return cls.assemble(
            graph, owner_vector(assignment, num_parts, graph.num_nodes),
            num_parts, mirror)

    @classmethod
    def build_edge_partitioned(cls, graph: Graph, edge_assignment: np.ndarray,
                               num_parts: int) -> "PartitionedGraph":
        """Assemble vertex-cut storage from a per-*edge* assignment.

        ``edge_assignment`` names the owning partition of every edge in
        ``graph.edge_list()`` order.  Each partition stores the subgraph
        of its edges plus features for every endpoint (so training-time
        feature fetches are zero by construction).  The per-node master
        is the partition holding most of the node's edges (ties break to
        the lowest partition id); isolated nodes fall back to
        ``node_id % num_parts`` and are stored at that master so routing
        and candidate covers stay total functions over nodes.
        """
        edges = graph.edge_list()
        edge_assignment = owner_vector(edge_assignment, num_parts,
                                       edges.shape[0])
        incident = np.zeros((num_parts, graph.num_nodes), dtype=np.int64)
        np.add.at(incident, (np.repeat(edge_assignment, 2), edges.ravel()), 1)
        # Master replica: most incident edges, ties → lowest partition
        # id (argmax picks the first maximum).
        assignment = (np.argmax(incident, axis=0).astype(np.int64)
                      if num_parts else np.zeros(graph.num_nodes, np.int64))
        isolated = np.flatnonzero(incident.sum(axis=0) == 0)
        assignment[isolated] = isolated % num_parts
        return cls.assemble(graph, assignment, num_parts, mirror=True,
                            edge_owner=edge_assignment)

    # -- ownership model ----------------------------------------------------

    def owned_nodes(self, part: int) -> np.ndarray:
        """Node ids mastered by partition ``part``."""
        return np.flatnonzero(self.assignment == part)

    @property
    def node_owner(self) -> np.ndarray:
        """Per-node owning (master) partition — always one per node,
        even under vertex cut, so node-keyed routing stays well-defined.
        """
        return self.assignment

    def owner_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owning (master) partition of each of ``nodes``."""
        return self.assignment[np.asarray(nodes, dtype=np.int64)]

    def replicas_of(self, node: int) -> np.ndarray:
        """Partitions storing ``node`` (features included), ascending
        partition id.  The master is always among them."""
        return np.flatnonzero(self._feature_mask[:, int(node)])

    def replica_mask(self) -> np.ndarray:
        """``(num_parts, num_nodes)`` boolean copy: entry ``[p, n]`` is
        true when partition ``p`` stores node ``n``."""
        return self._feature_mask.copy()

    def stored_nodes(self, part: int) -> np.ndarray:
        """Every node partition ``part`` stores (owned + replicas)."""
        return self.local_feature_nodes[part]

    def mirror_nodes(self, part: int) -> np.ndarray:
        """Nodes stored at ``part`` but mastered elsewhere.

        Under vertex cut these are the replicas the trainer must keep
        consistent (replica averaging = sync bytes); under mirrored node
        partitioning they are the read-only halo copies.
        """
        stored = self.local_feature_nodes[part]
        return stored[self.assignment[stored] != part]

    def local_candidate_nodes(self, part: int) -> np.ndarray:
        """Nodes a worker may negative-sample with zero communication.

        Node-partitioned layouts restrict workers to their owned nodes;
        vertex cut stores features for every local endpoint, so the
        whole stored set is fair game (that is the point of the design).
        """
        if self.edge_partitioned:
            return self.local_feature_nodes[part]
        return self.owned_nodes(part)

    def local_structure_mask(self, part: int) -> np.ndarray:
        """Boolean mask over nodes whose structure queries worker
        ``part`` answers from local storage (the rest go to a remote
        store when one exists)."""
        if self.edge_partitioned:
            return self._feature_mask[part].copy()
        return self.assignment == part

    def edge_cover(self, edges: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-edge owner in the disjoint edge cover, aligned with
        ``full.edge_list()`` (pass it as ``edges`` when already at hand).

        Vertex-cut layouts own edges directly (the assignment *is* the
        cover); node-partitioned layouts assign each undirected edge to
        its lower-id endpoint's owner — including cut edges a plain
        layout stores nowhere.
        """
        if self.edge_partitioned:
            return self.edge_assignment
        if edges is None:
            edges = self.full.edge_list()
        return self.assignment[edges[:, 0]]

    def owned_edges(self, part: int) -> np.ndarray:
        """The disjoint edge cover of partition ``part``: the union over
        partitions is exactly ``full.edge_list()`` with no overlaps
        (see :meth:`edge_cover`)."""
        edges = self.full.edge_list()
        return edges[self.edge_cover(edges) == part]

    def local_graph(self, part: int) -> Graph:
        """The structure a worker stores (global id space)."""
        return self.parts[part]

    def has_feature_locally(self, part: int, nodes: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``nodes`` have locally stored features."""
        return self._feature_mask[part, np.asarray(nodes, dtype=np.int64)]

    def local_feature_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Feature rows as a fresh float32 array from worker-local storage.

        In-process, every worker's feature shard aliases the full
        matrix, so this serves any row — callers are responsible for
        only using it for rows :meth:`has_feature_locally` reports as
        local (or already paid for) and for routing genuinely remote
        rows through a charged store path.
        """
        if self.full.features is None:
            raise ValueError("graph has no features")
        nodes = np.asarray(nodes, dtype=np.int64)
        # Fancy indexing already copies; converting is a second copy
        # only when the stored matrix is not float32.
        return self.full.features[nodes].astype(np.float32, copy=False)

    def preprocessing_feature_nbytes(self) -> int:
        """Bytes of feature data shipped at distribution time (one-off).

        Mirrored partitions replicate halo features; this quantifies
        that overhead (it is *not* training-time communication).
        """
        if self.full.features is None:
            return 0
        per_node = self.full.features.shape[1] * self.full.features.itemsize
        total_nodes = sum(n.size for n in self.local_feature_nodes)
        return int(total_nodes) * int(per_node)

    def replication_factor(self) -> float:
        """Average number of workers storing each node's features."""
        total = sum(n.size for n in self.local_feature_nodes)
        return total / max(self.full.num_nodes, 1)
