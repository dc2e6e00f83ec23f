"""CLI entry point: ``python -m repro.lint [paths...]``.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors.  ``--format json`` emits a machine-readable report for CI.
The given paths are linted as one project, so the whole-program rule
(F202) runs in the same pass as the per-file rules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .engine import LintEngine
from .registry import all_rules
from .reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("Invariant checker for the repro codebase: "
                     "determinism (R001), autograd safety (R003), "
                     "hygiene (R1xx) and "
                     "worker races (F202)."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", default=None, metavar="R001,F202",
                        help="comma-separated subset of rule ids to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit code 1 when findings remain."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<28} {rule.description}")
        return 0

    engine = LintEngine()
    if args.select:
        try:
            engine = engine.select(
                rid.strip() for rid in args.select.split(",") if rid.strip())
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2

    findings = engine.check_paths(paths)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
