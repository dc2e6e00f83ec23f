"""Partition-registry boundary rule.

Partition strategies are first-class :class:`repro.partition.Partitioner`
objects resolved through the registry
(:func:`repro.partition.register` / ``get_partitioner``).  Code that
dispatches on hard-coded strategy-name string comparisons outside the
partition package re-creates exactly the closed-world coupling the
registry removed: a newly registered partitioner would silently miss
that call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .registry import Rule, register

#: Strategy names shipped by the built-in registry.  A static checker
#: cannot consult the live registry (plugins may add names at runtime),
#: so the rule flags dispatch on the names known to be strategies.
_KNOWN_STRATEGY_NAMES = frozenset(
    {"metis", "random_tma", "super_tma", "ldg", "vertex_cut"})


def _is_strategy_string(node: ast.AST) -> bool:
    """Whether ``node`` is (or contains) a built-in strategy literal.

    Containers cover the membership form ``name in ("metis", "ldg")``.
    """
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_strategy_string(el) for el in node.elts)
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in _KNOWN_STRATEGY_NAMES)


@register
class PartitionRegistryBypassRule(Rule):
    """R109: partition-strategy dispatch bypassing the registry.

    Flags ``==``/``!=``/``in`` comparisons against hard-coded
    strategy-name literals (e.g. ``if strategy == "metis":``) outside
    ``repro/partition/`` — capability checks belong on the
    :class:`~repro.partition.Partitioner` (e.g.
    ``get_partitioner(name).edge_partitioned``), not on name matching
    that a newly registered strategy would silently miss.

    Scope: everything outside ``repro/partition/`` (the package that
    defines the strategies may of course name them).  A deliberate
    exception needs an explicit ``# lint: disable=R109``.
    """

    rule_id = "R109"
    name = "partition-registry-bypass"
    description = ("partition strategies dispatched outside the "
                   "repro.partition registry (hard-coded strategy-string "
                   "comparison)")

    _EXEMPT_PREFIXES = ("repro/partition/",)

    def applies_to(self, modpath: str) -> bool:
        """Everything outside the partition package itself."""
        return not modpath.startswith(self._EXEMPT_PREFIXES)

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(_is_strategy_string(op) for op in operands)
                        and all(isinstance(o, (ast.Eq, ast.NotEq, ast.In,
                                               ast.NotIn))
                                for o in node.ops)):
                    findings.append(Finding(
                        rule_id=self.rule_id, path=modpath,
                        line=node.lineno, col=node.col_offset,
                        message=("hard-coded partition-strategy string "
                                 "dispatch: consult the registered "
                                 "Partitioner's capabilities (e.g. "
                                 "get_partitioner(name).edge_partitioned) "
                                 "instead of matching names")))
        return findings
