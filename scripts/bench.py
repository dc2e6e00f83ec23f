#!/usr/bin/env python
"""Benchmark driver: run a suite, emit and validate its JSON document.

Usage::

    PYTHONPATH=src python scripts/bench.py                       # backends
    PYTHONPATH=src python scripts/bench.py --suite serve         # serving
    PYTHONPATH=src python scripts/bench.py --smoke [--suite S]   # CI gate
    PYTHONPATH=src python scripts/bench.py --out FILE

Suites:

* ``backends`` — training wall-clock across execution backends
  (writes ``BENCH_backends.json``, schema ``bench_backends/v1``).
* ``serve`` — serving load harness: open/closed-loop workloads per
  backend with cross-backend digest equality enforced (writes
  ``BENCH_serve.json``, schema ``bench_serve/v1``).
* ``sync`` — staleness–accuracy frontier across sync modes (barrier,
  ps, async, local_sgd) with cross-backend accuracy equality enforced
  (writes ``BENCH_sync.json``, schema ``bench_sync/v1``).
* ``partition`` — accuracy-vs-communication frontier across partition
  strategies (metis, metis+mirror/SpLPG, random_tma, super_tma, ldg,
  vertex_cut) with cross-backend accuracy and byte-ledger equality
  enforced (writes ``BENCH_partition.json``, schema
  ``bench_partition/v1``).
* ``checkpoint`` — durable checkpoint/resume: per-backend baseline vs
  checkpointed vs crash-resumed digests (all must be one value, also
  across backends), snapshot size and store write/read latency
  (writes ``BENCH_checkpoint.json``, schema ``bench_checkpoint/v1``).
* ``stream`` — deterministic streaming tick loop: steady (hot swaps)
  and churn (rebalances + rollbacks) regimes per backend with
  cross-backend digest equality enforced (writes
  ``BENCH_stream.json``, schema ``bench_stream/v1``).

``--smoke`` runs a miniature workload, validates the emitted document
against the suite schema, and exits non-zero on any problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_backends import (  # noqa: E402
    FULL,
    SMOKE,
    check_speedup,
    run_bench,
    validate_document,
)


def _run_backends(args) -> int:
    """The training-backend sweep (the original driver behavior)."""
    params = SMOKE if args.smoke else FULL
    workers = args.workers or ([2] if args.smoke else [2, 4])
    repeats = args.repeats or (1 if args.smoke else 2)
    doc = run_bench(workers_list=workers, params=params, repeats=repeats)

    problems = validate_document(doc)
    if not args.smoke:
        speedup_problem = check_speedup(doc)
        if speedup_problem is not None:
            problems.append(speedup_problem)
        elif "speedup_note" in doc:
            print(f"NOTE: {doc['speedup_note']}", file=sys.stderr)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        print(f"{row['backend']:>8s}  workers={row['workers']}  "
              f"wall={row['wall_s']:8.3f}s  "
              f"speedup={row['speedup_vs_serial']:.2f}x  "
              f"hits={row['hits']:.4f}")
    return _finish(doc, problems, args, "BENCH_backends.json")


def _run_serve(args) -> int:
    """The serving load harness sweep."""
    from benchmarks.bench_serve import (
        FULL as SERVE_FULL,
        SMOKE as SERVE_SMOKE,
        run_bench as run_serve_bench,
        validate_document as validate_serve,
    )

    params = SERVE_SMOKE if args.smoke else SERVE_FULL
    doc = run_serve_bench(params=params)
    problems = validate_serve(doc)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        print(f"{row['mode']:>6s}  {row['backend']:>8s}  "
              f"wall={row['wall_s']:7.3f}s  "
              f"rps={row['throughput_rps']:9.1f}  "
              f"p50={row['p50_latency_ms']:7.3f}ms  "
              f"p99={row['p99_latency_ms']:7.3f}ms  "
              f"cache={row['cache_hit_rate']:.2f}  "
              f"shed={row['shed_rate']:.2f}")
    return _finish(doc, problems, args, "BENCH_serve.json")


def _run_sync(args) -> int:
    """The staleness–accuracy frontier sweep."""
    from benchmarks.bench_sync import (
        FULL as SYNC_FULL,
        SMOKE as SYNC_SMOKE,
        run_bench as run_sync_bench,
        validate_document as validate_sync,
    )

    params = SYNC_SMOKE if args.smoke else SYNC_FULL
    doc = run_sync_bench(params=params)
    problems = validate_sync(doc)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        print(f"{row['cell']:>24s}  {row['backend']:>8s}  "
              f"auc={row['auc']:.4f}  hits={row['hits']:.4f}  "
              f"staleness={row['mean_staleness']:5.2f}"
              f"/{row['max_staleness']:4.1f}  "
              f"sync={row['sync_bytes']:>10d}B  "
              f"wall={row['wall_s']:7.3f}s")
    return _finish(doc, problems, args, "BENCH_sync.json")


def _run_partition(args) -> int:
    """The partition-strategy frontier sweep."""
    from benchmarks.bench_partition import (
        FULL as PART_FULL,
        SMOKE as PART_SMOKE,
        run_bench as run_partition_bench,
        validate_document as validate_partition,
    )

    params = PART_SMOKE if args.smoke else PART_FULL
    doc = run_partition_bench(params=params)
    problems = validate_partition(doc)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        print(f"{row['cell']:>28s}  {row['backend']:>8s}  "
              f"auc={row['auc']:.4f}  hits={row['hits']:.4f}  "
              f"feat={row['feature_bytes']:>10d}B  "
              f"struct={row['structure_bytes']:>10d}B  "
              f"sync={row['sync_bytes']:>10d}B  "
              f"repl={row['replication_factor']:.2f}  "
              f"wall={row['wall_s']:7.3f}s")
    return _finish(doc, problems, args, "BENCH_partition.json")


def _run_checkpoint(args) -> int:
    """The durable checkpoint/resume sweep."""
    from benchmarks.bench_checkpoint import (
        FULL as CKPT_FULL,
        SMOKE as CKPT_SMOKE,
        run_bench as run_ckpt_bench,
        validate_document as validate_ckpt,
    )

    params = CKPT_SMOKE if args.smoke else CKPT_FULL
    doc = run_ckpt_bench(params=params)
    problems = validate_ckpt(doc)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        identical = (row["digest"] == row["ckpt_digest"]
                     == row["resume_digest"])
        print(f"{row['backend']:>8s}  "
              f"digest={row['digest'][:16]}…  "
              f"identical={'yes' if identical else 'NO'}  "
              f"resumed_from={row['resumed_from']}  "
              f"snap={row['snapshot_nbytes']:>8d}B  "
              f"write={row['write_ms']:7.2f}ms  "
              f"read={row['read_ms']:7.2f}ms  "
              f"wall={row['wall_s']:7.3f}s  "
              f"ckpt_wall={row['ckpt_wall_s']:7.3f}s")
    return _finish(doc, problems, args, "BENCH_checkpoint.json")


def _run_stream(args) -> int:
    """The streaming tick-loop sweep."""
    from benchmarks.bench_stream import (
        FULL as STREAM_FULL,
        SMOKE as STREAM_SMOKE,
        run_bench as run_stream_bench,
        validate_document as validate_stream,
    )

    params = STREAM_SMOKE if args.smoke else STREAM_FULL
    doc = run_stream_bench(params=params)
    problems = validate_stream(doc)
    print(f"host: {doc['host']['schedulable_cpus']} schedulable cpu(s)")
    for row in doc["results"]:
        swap = (f"{row['swap_p50_ms']:7.3f}ms"
                if row["swap_p50_ms"] is not None else "      —")
        print(f"{row['mode']:>7s}  {row['backend']:>8s}  "
              f"wall={row['wall_s']:7.3f}s  "
              f"ev/s={row['events_per_s']:8.1f}  "
              f"rebal={row['rebalances']:2d}  "
              f"swaps={row['swaps']:2d}  "
              f"rollbacks={row['rollbacks']:2d}  "
              f"swap_p50={swap}  "
              f"comm={row['stream_mbytes']:7.3f}MB")
    return _finish(doc, problems, args, "BENCH_stream.json")


def _finish(doc, problems, args, default_name: str) -> int:
    """Report problems; persist the document for full runs."""
    if problems:
        for problem in problems:
            print(f"SCHEMA ERROR: {problem}", file=sys.stderr)
        return 1
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / default_name
    if out is not None:
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to the selected suite."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite",
                        choices=("backends", "serve", "sync", "partition",
                                 "checkpoint", "stream"),
                        default="backends",
                        help="benchmark suite to run (default: backends)")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature workload + schema validation only")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<suite>.json at "
                             "the repo root; smoke runs default to not "
                             "persisting)")
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="[backends] worker counts (default: 2 4)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="[backends] timings per cell, best-of "
                             "(default: 2, smoke: 1)")
    args = parser.parse_args(argv)
    if args.suite == "serve":
        return _run_serve(args)
    if args.suite == "sync":
        return _run_sync(args)
    if args.suite == "partition":
        return _run_partition(args)
    if args.suite == "checkpoint":
        return _run_checkpoint(args)
    if args.suite == "stream":
        return _run_stream(args)
    return _run_backends(args)


if __name__ == "__main__":
    raise SystemExit(main())
