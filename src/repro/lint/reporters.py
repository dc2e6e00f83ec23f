"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from .engine import Finding


def render_text(findings: Sequence[Finding]) -> str:
    """grep-friendly ``path:line:col: RULE message`` lines + summary."""
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col}: {f.rule_id} {f.message}"
        for f in findings
    ]
    if findings:
        counts = Counter(f.rule_id for f in findings)
        breakdown = ", ".join(
            f"{rid}×{n}" for rid, n in sorted(counts.items()))
        lines.append(f"{len(findings)} finding(s): {breakdown}")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Render findings as a JSON array string."""
    counts = Counter(f.rule_id for f in findings)
    payload = {
        "tool": "repro.lint",
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "total": len(findings),
    }
    return json.dumps(payload, indent=2)
