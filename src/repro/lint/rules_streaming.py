"""Streaming-discipline rule: graph state mutates only through deltas.

The streaming subsystem's determinism contract hangs on one
invariant: every change to graph state flows through
:meth:`repro.stream.MutableGraph.apply` (which turns
:class:`~repro.stream.ArrivalPlan` events into an auditable
:class:`~repro.stream.GraphDelta`) and
:meth:`repro.stream.ShardedState.apply_delta` (which re-assembles
shard storage from the snapshot and charges the byte ledger).  A direct write to a graph's
CSR arrays or feature matrix bypasses the delta pipeline: shard
storage silently diverges from the graph, the comm meter misses the
bytes, fingerprints stop matching, and the cross-backend digest —
the whole point — breaks.

R111 is the scoped, graph-shaped sibling of R003 (which guards
``Tensor.data`` for the autodiff engine): it flags in-place writes to
graph-state attributes everywhere except :mod:`repro.stream.mutable`,
which *is* the managed mutation path.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from .astutils import call_name
from .registry import Rule, register

#: Attributes that make up graph state; writing through any of them
#: in place bypasses the delta pipeline.
_GRAPH_STATE_ATTRS = {"indptr", "indices", "features", "weights",
                      "_feature_mask"}

#: The managed mutation path: the one module that applies events to
#: storage; everything else (shard layouts included) rebuilds from its
#: snapshots.
_EXEMPT = ("repro/stream/mutable.py",)

#: numpy calls that mutate their first array argument (same set R003
#: guards for ``.data``).
_MUTATING_NP_CALLS = {
    "np.add.at", "np.subtract.at", "np.multiply.at", "np.divide.at",
    "np.maximum.at", "np.minimum.at", "numpy.add.at",
    "numpy.subtract.at", "numpy.multiply.at", "numpy.divide.at",
    "numpy.maximum.at", "numpy.minimum.at", "np.copyto", "numpy.copyto",
    "np.put", "numpy.put", "np.place", "numpy.place", "np.putmask",
    "numpy.putmask",
}

#: ndarray methods that mutate in place.
_MUTATING_METHODS = {"fill", "sort", "partition", "resize", "itemset",
                     "setfield", "byteswap"}


def _is_graph_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and node.attr in _GRAPH_STATE_ATTRS)


def _graph_subscript(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and _is_graph_attr(node.value)


@register
class UnmanagedGraphMutationRule(Rule):
    """R111: in-place write to graph state outside the delta pipeline.

    Flags ``g.features[...] = v`` / ``g.indices[...] = v``, augmented
    assignment to a graph-state attribute (or a slice of it), mutating
    numpy ops (``np.add.at(g.features, ...)``) and mutating ndarray
    methods (``g.indptr.sort()``).  Rebinding the attribute to a new
    array is fine — that is how snapshots are built; in-place writes
    are not.  :mod:`repro.stream.mutable` is the sanctioned mutation
    path and is exempt.
    """

    rule_id = "R111"
    name = "unmanaged-graph-mutation"
    description = ("in-place write to graph state (indptr/indices/"
                   "features/weights) outside the stream delta pipeline")

    def applies_to(self, modpath: str) -> bool:
        """Everywhere except the managed mutation module."""
        return modpath not in _EXEMPT

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(Finding(
                rule_id=self.rule_id, path=modpath,
                line=node.lineno, col=node.col_offset,
                message=(f"{what}: graph state must change through "
                         "MutableGraph.apply / ShardedState."
                         "apply_delta (repro.stream), not in-place "
                         "writes; rebind to a new array instead")))

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _graph_subscript(target):
                        flag(target,
                             "subscript assignment to "
                             f".{target.value.attr}")
            elif isinstance(node, ast.AugAssign):
                if _is_graph_attr(node.target):
                    flag(node.target,
                         f"augmented assignment to .{node.target.attr}")
                elif _graph_subscript(node.target):
                    flag(node.target,
                         "augmented assignment to "
                         f".{node.target.value.attr}")
            elif isinstance(node, ast.Call):
                name: Optional[str] = call_name(node)
                if name in _MUTATING_NP_CALLS:
                    if node.args and (_is_graph_attr(node.args[0])
                                      or _graph_subscript(node.args[0])):
                        flag(node, f"{name} on graph state")
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATING_METHODS
                        and _is_graph_attr(node.func.value)):
                    flag(node,
                         f".{node.func.value.attr}."
                         f"{node.func.attr}()")
        return findings
