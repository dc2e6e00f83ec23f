"""The mutable graph: where stream events are applied.

:class:`~repro.graph.graph.Graph` is immutable by contract (lint rule
R111 enforces it repo-wide); :class:`MutableGraph` is the sanctioned
exception — the *single* place edge insertions, deletions and feature
drift touch storage.  It keeps its own sorted edge-key array and its
own feature matrix (copies, never views of a ``Graph``), applies
:class:`~repro.stream.plan.StreamEvent` batches, and emits immutable
:class:`Graph` snapshots plus a :class:`GraphDelta` describing exactly
what changed — the delta is what drives shard-layout updates,
communication accounting and frontier re-embedding downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np
import scipy.sparse as sp

from ..graph.graph import Graph
from .errors import StreamError
from .plan import StreamEvent


def _member(keys: np.ndarray, queries: Sequence[int]) -> List[bool]:
    """Whether each of ``queries`` is one of the sorted ``keys``."""
    if keys.size == 0:
        return [False] * len(queries)
    at = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return (keys[at] == queries).tolist()


def _edge_rows(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonical ``(m, 2)`` int64 rows of sorted ``u * num_nodes + v``
    keys (``u < v``): the key order is the rows' lexicographic order."""
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
    immutable ``Graph``.  The only edge state is one sorted ``int64``
    key ``u * num_nodes + v`` per edge ``u < v``; snapshots,
    fingerprints and checkpoints read the canonical edge rows decoded
    from it once per change (a snapshot's ``edge_list()`` included).
    """

    def __init__(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes
        edges = graph.edge_list()
        self._keys = np.unique(edges[:, 0] * self.num_nodes + edges[:, 1])
        self._rows: Optional[np.ndarray] = None
        self._features: Optional[np.ndarray] = (
            None if graph.features is None
            else graph.features.astype(np.float32, copy=True))

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Current undirected edge count."""
        return int(self._keys.size)

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality (0 when featureless)."""
        return 0 if self._features is None else int(
            self._features.shape[1])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` currently exists."""
        lo, hi = min(u, v), max(u, v)
        if lo < 0 or hi >= self.num_nodes or lo == hi:
            return False
        key = lo * self.num_nodes + hi
        at = int(np.searchsorted(self._keys, key))
        return at < self._keys.size and int(self._keys[at]) == key

    def edge_array(self) -> np.ndarray:
        """Canonical sorted ``(m, 2)`` array of the current edge set
        (a fresh array: callers may not reach the live keys)."""
        return self._decoded().copy()

    def _decoded(self) -> np.ndarray:
        """The current edge rows, decoded once per change, read-only."""
        if self._rows is None:
            self._rows = _edge_rows(self._keys, self.num_nodes)
            self._rows.flags.writeable = False
        return self._rows

    # -- mutation (the sanctioned apply path) ----------------------------

    def apply(self, events: Iterable[StreamEvent],
              tick: int) -> GraphDelta:
        """Apply one tick's events; returns the realized delta.

        Events whose precondition fails (duplicate insert, missing
        delete) are *skipped*, not errors: the arrival plan is
        generated without graph state, so collisions are expected and
        must resolve identically on every backend — counting them is
        the deterministic resolution.  An insert or delete endpoint
        outside ``[0, num_nodes)`` is an error: it raises
        :class:`StreamError` before any event of the tick is applied.

        Each edge event is resolved against the sorted key array plus
        this tick's overlay of edges it already changed; the net
        change is merged into the array once, at the end.
        """
        events = list(events)
        n = self.num_nodes
        for event in events:
            if event.kind != "drift" and max(event.u, event.v) >= n:
                raise StreamError(
                    f"{event.kind} event ({event.u}, {event.v}) at tick "
                    f"{event.tick} names a node outside [0, {n})")
        edge_keys = [e.edge[0] * n + e.edge[1]
                     for e in events if e.kind != "drift"]
        present = dict(zip(edge_keys, _member(self._keys, edge_keys)))
        before = dict(present)
        inserted: List[int] = []
        deleted: List[int] = []
        drifted: Set[int] = set()
        skipped = 0
        for event in events:
            if event.kind == "drift":
                if self._features is None or event.u >= n:
                    skipped += 1
                else:
                    self._features[event.u] += np.float32(event.scale)
                    drifted.add(event.u)
                continue
            key = event.edge[0] * n + event.edge[1]
            insert = event.kind == "insert"
            if present[key] == insert:
                skipped += 1
                continue
            present[key] = insert
            (inserted if insert else deleted).append(key)
        gone = sorted(k for k, now in present.items() if before[k] and not now)
        new = sorted(k for k, now in present.items() if now and not before[k])
        kept = np.delete(self._keys, np.searchsorted(self._keys, gone))
        self._keys = np.insert(kept, np.searchsorted(kept, new), new)
        self._rows = None
        return GraphDelta(
            tick=tick,
            inserted=_edge_rows(np.sort(np.int64(inserted)), n),
            deleted=_edge_rows(np.sort(np.int64(deleted)), n),
            drifted=np.array(sorted(drifted), dtype=np.int64),
            skipped=skipped)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Graph:
        """Freeze the current state into an immutable :class:`Graph`.

        Writes the CSR :meth:`Graph.from_edges` would, without its
        sort: row ``x`` holds its neighbours ``> x`` ascending, then
        its neighbours ``< x`` ascending.  The sorted keys already list
        the first half in row order; the second half is their
        transpose, which scipy's counting ``tocsc`` writes with the
        rows ascending inside each column.
        """
        n = self.num_nodes
        m = self._keys.size
        lo, hi = np.divmod(self._keys, n)
        above = np.bincount(lo, minlength=n)
        upper_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(above, out=upper_ptr[1:])
        lower = sp.csr_matrix((np.ones(m, dtype=bool), hi, upper_ptr),
                              shape=(n, n)).tocsc()
        lower_ptr = lower.indptr.astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(above + np.diff(lower_ptr), out=indptr[1:])
        indices = np.empty(2 * m, dtype=np.int64)
        ids = np.arange(m, dtype=np.int64)
        indices[ids + np.repeat(indptr[:-1] - upper_ptr[:-1], above)] = hi
        indices[ids + np.repeat(indptr[:-1] + above - lower_ptr[:-1],
                                np.diff(lower_ptr))] = lower.indices
        features = (None if self._features is None
                    else self._features.copy())
        return Graph(indptr, indices, features=features,
                     edge_rows=self._decoded())

    def fingerprint(self) -> str:
        """Content hash of the live state (hex sha256).

        Covers the canonical edge list and the feature bytes — two
        mutable graphs agree exactly when every future snapshot would
        be bit-identical.  Arrays are hashed through the buffer
        protocol, not copied.
        """
        digest = hashlib.sha256()
        digest.update(np.int64([self.num_nodes]))
        digest.update(self._decoded())
        if self._features is not None:
            digest.update(str(self._features.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(self._features))
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
