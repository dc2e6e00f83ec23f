#!/usr/bin/env python3
"""Compare two benchmark result sets under ``BENCHMARK.json``'s bounds.

    python3 perf/compare.py a.json b.json

``a`` is the base (the parent commit, or the first of two sets of the
same commit), ``b`` the candidate; both are documents written by
``perf/run.py --out`` and may hold several runs (``--seeds``).  One row
is printed per (workload, metric) with both medians and the ratio
``b / a`` next to its base ``a``.

An end-to-end metric is a **regression** when ``b``'s median is worse
than ``a``'s by more than the metric's bound.  When it is not, but
either set's own spread (interquartile range over its median) exceeds
the bound, the pair is **unresolved** rather than unchanged — unless
every run of ``b`` reads better than every run of ``a``.  Per-layer
metrics have no bound and are listed for reading.

``BENCHMARK.json``'s bounds must hold the spread across seeds, which for
the two metrics that are exact per ``(seed, seconds)`` is far wider
than any run-to-run difference.  Those are therefore also compared
**seed by seed** (:data:`PAIRED_BOUNDS`) wherever both sets ran the
same seed.  A workload's failed operations may not increase as a share
of those attempted, and its untraced/traced digests must stay
identical.

Exit code 1 on a regression or a missing metric, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Same-seed limits for the metrics that repeat exactly: accuracy may
#: drop 0.01 absolute, bytes per item may grow 1 %.
PAIRED_BOUNDS = {"quality_auc": ("absolute", 0.01),
                 "comm_bytes_per_item": ("relative", 0.01)}


def _values(doc: dict, workload: str, group: str, metric: str
            ) -> List[float]:
    """``metric`` of ``workload`` in every run that has it."""
    found = []
    for run in doc["runs"]:
        entry = run["workloads"].get(workload, {}).get(group, {})
        if metric in entry:
            found.append(float(entry[metric]["value"]))
    return found


def paired_regression(a_doc: dict, b_doc: dict, workload: str,
                      metric: str, better: str) -> bool:
    """Whether any seed both sets ran breaks :data:`PAIRED_BOUNDS`."""
    kind, limit = PAIRED_BOUNDS[metric]
    by_seed = [{run["seed"]: run["workloads"][workload]["end_to_end"]
                [metric]["value"] for run in doc["runs"]
                if metric in run["workloads"].get(workload, {})
                .get("end_to_end", {})} for doc in (a_doc, b_doc)]
    for seed in by_seed[0].keys() & by_seed[1].keys():
        base, new = by_seed[0][seed], by_seed[1][seed]
        worse = (new - base) if better == "lower" else (base - new)
        if kind == "relative":
            worse = worse / abs(base) if base else float(worse > 0)
        if worse > limit:
            return True
    return False


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) if better == "lower" else (base - new)
    return delta / abs(base)


def judge(a: List[float], b: List[float], better: str,
          bound: float) -> str:
    """``ok`` | ``REGRESSION`` | ``unresolved`` for one bounded pair."""
    if worse_by(statistics.median(a), statistics.median(b),
                better) > bound:
        return "REGRESSION"
    all_better = (max(b) < min(a) if better == "lower"
                  else min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def _row(workload: str, metric: str, unit: str, a: float, b: float,
         status: str) -> str:
    ratio = f"{b / a:8.4f}" if a else "     n/a"
    return (f"{workload:22s} {metric:30s} {a:16.6g} {b:16.6g} "
            f"{ratio} of {a:<12.6g} {unit:6s} {status}")


def _failed_share(doc: dict, workload: str) -> Optional[float]:
    """Failed over attempted operations, summed over the runs."""
    entries = [run["workloads"][workload] for run in doc["runs"]
               if workload in run["workloads"]]
    if not entries:
        return None
    return (sum(e["failed"] for e in entries)
            / max(sum(e["attempted"] for e in entries), 1))


def compare(spec: dict, a_doc: dict, b_doc: dict) -> int:
    """Print every row; return the number of regressions + missing."""
    bad = 0
    print(f"{'workload':22s} {'metric':30s} {'a (median)':>16s} "
          f"{'b (median)':>16s} {'b/a':>8s} of base         unit   status")
    for workload in (w["name"] for w in spec["workloads"]):
        for group, bounded in (("end_to_end", True), ("per_layer", False)):
            for entry in spec[group]:
                name = entry["name"]
                a = _values(a_doc, workload, group, name)
                b = _values(b_doc, workload, group, name)
                if not a or not b:
                    print(f"{workload:22s} {name:30s} MISSING in "
                          f"{'a' if not a else 'b'}")
                    bad += 1
                    continue
                status = (judge(a, b, entry["better"], entry["bound"])
                          if bounded else "-")
                if (bounded and name in PAIRED_BOUNDS and paired_regression(
                        a_doc, b_doc, workload, name, entry["better"])):
                    status = "REGRESSION (same seed)"
                bad += status.startswith("REGRESSION")
                print(_row(workload, name, entry["unit"],
                           statistics.median(a), statistics.median(b),
                           status))
        shares = [_failed_share(doc, workload) for doc in (a_doc, b_doc)]
        stable = [min((run["workloads"][workload]["digest_stable"]
                       for run in doc["runs"]
                       if workload in run["workloads"]), default=None)
                  for doc in (a_doc, b_doc)]
        for name, (a, b), unit in (("failed_share", shares, "ratio"),
                                   ("digest_stable", stable, "count")):
            if a is None or b is None:
                print(f"{workload:22s} {name:30s} MISSING")
                bad += 1
                continue
            worse = b > a if name == "failed_share" else b < a
            bad += worse
            print(_row(workload, name, unit, a, b,
                       "REGRESSION" if worse else "ok"))
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    docs: List[Dict] = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bad = compare(spec, docs[0], docs[1])
    print(f"compare: {bad} regression(s) or missing metric(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
