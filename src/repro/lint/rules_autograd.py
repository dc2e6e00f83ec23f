"""Autograd-safety rule.

The numpy autodiff engine records backward closures that capture
``tensor.data`` arrays by reference.  Mutating such an array in place
after it has entered the graph silently corrupts every gradient
computed from it — no exception, just wrong numbers.  Rebinding is
not flagged; for a parameter (a view of its replica's vector) the view
tests in ``tests/test_parameter_vector.py`` catch it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from .astutils import call_name
from .registry import Rule, register


def _is_data_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _data_subscript(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and _is_data_attr(node.value)


# numpy calls that mutate their first array argument.
_MUTATING_NP_CALLS = {
    "np.add.at", "np.subtract.at", "np.multiply.at", "np.divide.at",
    "np.maximum.at", "np.minimum.at", "numpy.add.at", "numpy.subtract.at",
    "numpy.multiply.at", "numpy.divide.at", "numpy.maximum.at",
    "numpy.minimum.at", "np.copyto", "numpy.copyto", "np.put", "numpy.put",
    "np.place", "numpy.place", "np.putmask", "numpy.putmask",
}

# ndarray methods that mutate in place.
_MUTATING_METHODS = {"fill", "sort", "partition", "resize", "itemset",
                     "setfield", "byteswap"}


@register
class InplaceTensorMutationRule(Rule):
    """R003: in-place mutation of a ``.data`` array.

    Flags ``t.data[...] = v``, augmented assignment to ``t.data`` (or a
    slice of it), mutating numpy ops (``np.add.at(t.data, ...)``,
    ``np.copyto(t.data, ...)``) and mutating ndarray methods
    (``t.data.fill(...)``).  ``Module.load_state_dict``'s write
    between steps is the one sanctioned site (suppressed).
    """

    rule_id = "R003"
    name = "inplace-tensor-mutation"
    description = "in-place write to a Tensor.data array"

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(Finding(
                rule_id=self.rule_id, path=modpath,
                line=node.lineno, col=node.col_offset,
                message=(f"{what}: arrays captured by the autodiff graph "
                         "must not be mutated in place (corrupts "
                         "gradients); compute a new tensor instead")))

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _data_subscript(target):
                        flag(target, "subscript assignment to .data")
            elif isinstance(node, ast.AugAssign):
                if _is_data_attr(node.target) or _data_subscript(node.target):
                    flag(node.target, "augmented assignment to .data")
            elif isinstance(node, ast.Call):
                name: Optional[str] = call_name(node)
                if name in _MUTATING_NP_CALLS:
                    if node.args and (_is_data_attr(node.args[0])
                                      or _data_subscript(node.args[0])):
                        flag(node, f"{name} on .data")
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATING_METHODS
                        and _is_data_attr(node.func.value)):
                    flag(node, f".data.{node.func.attr}()")
        return findings
