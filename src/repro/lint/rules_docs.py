"""Documentation rules."""

from __future__ import annotations

import ast
from typing import Iterable, List

from .registry import Rule, register


@register
class MissingDocstringRule(Rule):
    """R104: public function or class without a docstring.

    Every public def/class — a name not starting with ``_`` — at module
    or class level must carry a docstring: the API documentation is
    generated from them and an undocumented public symbol is invisible
    there.  Nested (function-local) defs are implementation detail and
    exempt, as are private names and dunders.
    """

    rule_id = "R104"
    name = "missing-docstring"
    description = "public function/class missing a docstring"

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node, kind in _public_defs(tree):
            if ast.get_docstring(node) is None:
                findings.append(Finding(
                    rule_id=self.rule_id, path=modpath,
                    line=node.lineno, col=node.col_offset,
                    message=f"public {kind} {node.name!r} has no docstring"))
        return findings


def _public_defs(tree: ast.AST):
    """Yield ``(node, kind)`` for public defs at module and class level.

    Walks module bodies and class bodies only — a def inside a function
    body is never visited, so helpers closed over local state stay
    exempt however they are named.
    """
    stack = [tree]
    while stack:
        scope = stack.pop()
        for node in getattr(scope, "body", []):
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield node, "class"
                    stack.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    kind = ("method" if isinstance(scope, ast.ClassDef)
                            else "function")
                    yield node, kind
