"""The mutable graph: where stream events are applied.

:class:`~repro.graph.graph.Graph` is immutable by contract (lint rule
R111 enforces it repo-wide); :class:`MutableGraph` is the sanctioned
exception — the *single* place edge insertions, deletions and feature
drift touch storage.  It keeps its own edge set and its own feature
matrix (copies, never views of a ``Graph``), applies
:class:`~repro.stream.plan.StreamEvent` batches, and emits immutable
:class:`Graph` snapshots plus a :class:`GraphDelta` describing exactly
what changed — the delta is what drives shard-layout updates,
communication accounting and frontier re-embedding downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Collection, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..graph.graph import Graph
from .errors import StreamError
from .plan import StreamEvent


def _edge_array(edges: Collection[Tuple[int, int]],
                num_nodes: int) -> np.ndarray:
    """Canonical ``(m, 2)`` int64 array, rows sorted lexicographically
    (by the key ``u * num_nodes + v``, whose order is the rows')."""
    keys = np.fromiter((u * num_nodes + v for u, v in edges),
                       dtype=np.int64, count=len(edges))
    keys.sort()
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


@dataclass(frozen=True)
class GraphDelta:
    """What one tick's events actually changed.

    ``inserted``/``deleted`` are canonical ``(k, 2)`` edge arrays
    (``u < v``, lexicographic order); ``drifted`` the ids of nodes
    whose features shifted; ``skipped`` counts the no-op events
    (insert of an existing edge, delete of a missing one, drift on a
    featureless graph) — deterministic, so it rides in the digest.
    """

    tick: int
    inserted: np.ndarray
    deleted: np.ndarray
    drifted: np.ndarray
    skipped: int = 0

    def is_empty(self) -> bool:
        """True when the tick changed nothing."""
        return (self.inserted.shape[0] == 0 and self.deleted.shape[0] == 0
                and self.drifted.size == 0)

    def touched_nodes(self) -> np.ndarray:
        """Every node incident to a changed edge or drifted feature."""
        parts = [self.inserted.ravel(), self.deleted.ravel(),
                 self.drifted]
        return np.unique(np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in parts]))


class MutableGraph:
    """An evolving undirected graph with a fixed node universe.

    The node count and feature dimensionality are frozen at
    construction; edges and feature values evolve through
    :meth:`apply`.  All state is private copies — mutating a
    ``MutableGraph`` can never alias-corrupt the immutable ``Graph``
    it was seeded from, and every :meth:`snapshot` is a fresh
    immutable ``Graph``.  The canonical edge array that snapshots,
    fingerprints and checkpoints read is built once per mutating
    :meth:`apply` (and at construction, which is also how a resumed
    graph gets it back).
    """

    def __init__(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes
        edges = graph.edge_list()
        self._edges: Set[Tuple[int, int]] = {
            (int(u), int(v)) for u, v in edges}
        self._edge_rows = _edge_array(self._edges, self.num_nodes)
        self._features: Optional[np.ndarray] = (
            None if graph.features is None
            else graph.features.astype(np.float32, copy=True))

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Current undirected edge count."""
        return len(self._edges)

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality (0 when featureless)."""
        return 0 if self._features is None else int(
            self._features.shape[1])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` currently exists."""
        return (min(u, v), max(u, v)) in self._edges

    def edge_array(self) -> np.ndarray:
        """Canonical sorted ``(m, 2)`` array of the current edge set
        (a copy: callers may not reach the cached rows)."""
        return self._edge_rows.copy()

    # -- mutation (the sanctioned apply path) ----------------------------

    def apply(self, events: Iterable[StreamEvent],
              tick: int) -> GraphDelta:
        """Apply one tick's events; returns the realized delta.

        Events whose precondition fails (duplicate insert, missing
        delete) are *skipped*, not errors: the arrival plan is
        generated without graph state, so collisions are expected and
        must resolve identically on every backend — counting them is
        the deterministic resolution.
        """
        inserted: List[Tuple[int, int]] = []
        deleted: List[Tuple[int, int]] = []
        drifted: Set[int] = set()
        skipped = 0
        for event in events:
            if event.kind == "insert":
                key = event.edge
                if key in self._edges:
                    skipped += 1
                else:
                    self._edges.add(key)
                    inserted.append(key)
            elif event.kind == "delete":
                key = event.edge
                if key in self._edges:
                    self._edges.remove(key)
                    deleted.append(key)
                else:
                    skipped += 1
            elif event.kind == "drift":
                if self._features is None or event.u >= self.num_nodes:
                    skipped += 1
                else:
                    self._features[event.u] += np.float32(event.scale)
                    drifted.add(event.u)
            else:  # pragma: no cover - StreamEvent validates kinds
                raise StreamError(f"unknown event kind {event.kind!r}")
        if inserted or deleted:
            self._edge_rows = _edge_array(self._edges, self.num_nodes)
        return GraphDelta(
            tick=tick,
            inserted=_edge_array(inserted, self.num_nodes),
            deleted=_edge_array(deleted, self.num_nodes),
            drifted=np.array(sorted(drifted), dtype=np.int64),
            skipped=skipped)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Graph:
        """Freeze the current state into an immutable :class:`Graph`."""
        features = (None if self._features is None
                    else self._features.copy())
        return Graph.from_edges(self.num_nodes, self._edge_rows,
                                features=features)

    def fingerprint(self) -> str:
        """Content hash of the live state (hex sha256).

        Covers the canonical edge list and the feature bytes — two
        mutable graphs agree exactly when every future snapshot would
        be bit-identical.
        """
        digest = hashlib.sha256()
        digest.update(np.int64([self.num_nodes]).tobytes())
        digest.update(self._edge_rows.tobytes())
        if self._features is not None:
            digest.update(str(self._features.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(self._features).tobytes())
        return digest.hexdigest()

    def state_arrays(self) -> dict:
        """Flat array dict for checkpointing (see ``stream.driver``)."""
        state = {"stream.graph.edges": self.edge_array(),
                 "stream.graph.num_nodes": np.array(self.num_nodes,
                                                    dtype=np.int64)}
        if self._features is not None:
            state["stream.graph.features"] = self._features.copy()
        return state

    @classmethod
    def from_state_arrays(cls, state: dict) -> "MutableGraph":
        """Rebuild from :meth:`state_arrays` output."""
        num_nodes = int(state["stream.graph.num_nodes"])
        features = state.get("stream.graph.features")
        base = Graph.from_edges(num_nodes, state["stream.graph.edges"],
                                features=features)
        return cls(base)
