"""The lint driver: file discovery, parsing, suppression, dispatch.

The engine parses each module once and hands the parsed project to
every rule: per-file rules see one module at a time, the whole-program
rule (F202) sees them all.  Findings whose *logical statement* carries a
``# lint: disable=R001[,R003...]`` (or a bare ``# lint: disable``)
trailing comment are dropped: a suppression anywhere on a multi-line
call, and on any decorator of a decorated definition, covers the whole
statement, not just the comment's physical line.  Suppression comments
are read with :mod:`tokenize` so string literals that merely *mention*
the syntax do not suppress anything.

Engine output is deterministic: findings are globally sorted by
(path, line, col, rule, message) and exact duplicates are removed, so
CI diffs are reproducible run to run.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from .registry import Rule, all_rules

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?:=(?P<ids>[A-Za-z0-9_,\s]+))?")

_SKIP_DIRS = {"__pycache__", ".git", "build", "dist", ".pytest_cache"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """Serializable form used by the JSON reporter."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids = match.group("ids")
            if ids is None:
                table[tok.start[0]] = None
            else:
                parsed = {part.strip().upper()
                          for part in ids.split(",") if part.strip()}
                existing = table.get(tok.start[0], set())
                if existing is None:
                    continue
                table[tok.start[0]] = existing | parsed
    except tokenize.TokenError:
        pass  # unterminated constructs; parse error surfaces elsewhere
    return table


def _line_groups(source: str,
                 tree: Optional[ast.AST] = None) -> Dict[int, Set[int]]:
    """Map each physical line to the lines of its logical statement.

    Built from :mod:`tokenize` logical lines (everything up to a
    ``NEWLINE`` token is one statement, however many physical lines it
    spans), then decorator lines are merged with their decorated
    definition's header so one suppression covers the whole decorated
    signature.  Lines outside any logical line (blanks, standalone
    comments) map to themselves.
    """
    groups: Dict[int, Set[int]] = {}
    rows: Set[int] = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NEWLINE:
                rows.update(range(tok.start[0], tok.end[0] + 1))
                group = set(rows)
                for row in group:
                    groups.setdefault(row, set()).update(group)
                rows = set()
            elif tok.type == tokenize.COMMENT:
                # A comment *inside* an open statement joins it; a
                # standalone comment line stays its own group (no
                # comment-above suppression semantics).
                if rows:
                    rows.add(tok.start[0])
            elif tok.type in (tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
                continue
            else:
                rows.update(range(tok.start[0], tok.end[0] + 1))
    except tokenize.TokenError:
        return {}
    if tree is not None:
        for node in ast.walk(tree):
            decorators = getattr(node, "decorator_list", None)
            if not decorators:
                continue
            merged: Set[int] = set()
            for line in [d.lineno for d in decorators] + [node.lineno]:
                merged |= groups.get(line, {line})
            for row in merged:
                groups.setdefault(row, set()).update(merged)
            # Union-closure: every member sees the full merged span.
            for row in merged:
                groups[row] |= merged
    return groups


def _apply_suppressions(findings: List[Finding],
                        suppressed: Dict[int, Optional[Set[str]]],
                        groups: Dict[int, Set[int]]) -> List[Finding]:
    """Drop findings whose logical statement carries a suppression."""
    kept: List[Finding] = []
    for f in findings:
        lines = groups.get(f.line, {f.line})
        silenced = False
        for line in lines:
            ids = suppressed.get(line)
            if line not in suppressed:
                continue
            if ids is None or f.rule_id in ids:
                silenced = True
                break
        if not silenced:
            kept.append(f)
    return kept


def dedupe_sorted(findings: List[Finding]) -> List[Finding]:
    """Stable-sort findings and drop exact duplicates.

    The sort key (path, line, col, rule, message) is total, so output
    order is independent of rule registration or path traversal order;
    duplicates arise when over-approximate analyses reach the same
    violation through several call paths.
    """
    findings = sorted(
        findings,
        key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message))
    out: List[Finding] = []
    for f in findings:
        if out and out[-1] == f:
            continue
        out.append(f)
    return out


def _module_path(path: Path) -> str:
    """Path rooted at the ``repro`` package when possible.

    ``src/repro/distributed/views.py`` -> ``repro/distributed/views.py``
    so rules can scope themselves independently of where the checkout
    lives or which directory the CLI was pointed at.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.as_posix()


@dataclass
class LintEngine:
    """Runs a set of rules over files, sources, or directory trees."""

    rules: Sequence[Rule] = field(default_factory=all_rules)

    def select(self, rule_ids: Iterable[str]) -> "LintEngine":
        """A new engine restricted to the given rule ids."""
        wanted = {rid.upper() for rid in rule_ids}
        unknown = wanted - {r.rule_id for r in self.rules}
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        return LintEngine(
            rules=[r for r in self.rules if r.rule_id in wanted])

    # -- entry points ---------------------------------------------------

    def check_sources(self, sources: Mapping[str, str]) -> List[Finding]:
        """Lint a project given as ``{modpath: source}``.

        Every module is parsed once; a module that fails to parse is an
        ``E999`` finding and is left out of what the rules see.
        Returns sorted, deduplicated, unsuppressed findings.
        """
        trees: Dict[str, ast.AST] = {}
        broken: List[Finding] = []
        for modpath in sorted(sources):
            try:
                trees[modpath] = ast.parse(sources[modpath])
            except SyntaxError as exc:
                broken.append(Finding(
                    rule_id="E999", path=modpath, line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}"))
        by_path: Dict[str, List[Finding]] = {}
        for rule in self.rules:
            for finding in rule.check_project(trees):
                by_path.setdefault(finding.path, []).append(finding)
        kept = broken
        for modpath, findings in by_path.items():
            source, tree = sources[modpath], trees[modpath]
            kept += _apply_suppressions(findings, _suppressions(source),
                                        _line_groups(source, tree))
        return dedupe_sorted(kept)

    def check_source(self, source: str, modpath: str) -> List[Finding]:
        """Lint one module's source as a one-module project."""
        return self.check_sources({modpath: source})

    def check_paths(self, paths: Sequence[Path]) -> List[Finding]:
        """Lint files and directory trees (recursively) as one project.

        Findings come back globally sorted and deduplicated regardless
        of how many roots were given or in what order.
        """
        sources: Dict[str, str] = {}
        for path in paths:
            for file in _iter_python_files(path):
                sources[_module_path(file)] = file.read_text(
                    encoding="utf-8")
        return self.check_sources(sources)


def _iter_python_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in root.rglob("*.py"):
        if not any(part in _SKIP_DIRS or part.endswith(".egg-info")
                   for part in path.parts):
            yield path


# -- convenience wrappers ----------------------------------------------


def lint_source(source: str, modpath: str = "repro/module.py",
                rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint a source string as if it lived at ``modpath``."""
    engine = LintEngine() if rules is None else LintEngine(rules=list(rules))
    return engine.check_source(source, modpath)


def lint_paths(paths: Sequence[str | Path],
               select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint files/directories; the CLI and the pytest gate both use this."""
    engine = LintEngine()
    if select:
        engine = engine.select(select)
    return engine.check_paths([Path(p) for p in paths])
