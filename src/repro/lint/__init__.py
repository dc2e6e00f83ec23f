"""repro.lint — machine-checked invariants for the reproduction.

A **static rule engine** (:mod:`repro.lint.engine`) that walks Python
sources with AST visitors and reports violations of the invariants the
paper's numbers rest on — determinism (R001), data locality (R002),
autograd safety (R003) — plus hygiene rules (R1xx) and one
whole-program rule, F202, which builds the project's call graph
(:mod:`repro.lint.callgraph`) and flags worker-executed writes to
module-level globals.  Run it as ``python -m repro.lint src/``.

Findings can be silenced per line with a trailing comment::

    graph.indptr[nodes]  # lint: disable=R002 -- local partition is free

See ``docs/lint.md`` for the full rule catalogue.
"""

from .engine import Finding, LintEngine, lint_paths, lint_source
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintEngine",
    "lint_paths",
    "lint_source",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
]
