"""CI gate: the shipped source tree must be lint-clean.

Runs the invariant checker over ``src/repro`` in-process — every
per-file rule plus the whole-program F202 worker-race rule — so the
gate rides along with the tier-1 pytest run (no separate CI step needed
to catch regressions, though ``scripts/ci.sh`` also runs the CLI).
"""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.reporters import render_text

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + render_text(findings)
