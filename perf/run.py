#!/usr/bin/env python3
"""The benchmark's one command.

Driver form — one workload, one pass, one result line::

    python3 perf/run.py --workload serve_mixed --seed 3 --seconds 20 --trace 0

``--trace 0`` is the untraced pass (end-to-end metrics), ``--trace 1``
the traced pass (per-layer metrics, micro-benchmarks included).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A failed correctness check still prints the metrics but
sets ``correct`` false and exits 1.

Suite form — no ``--workload``: every workload, both passes, each in a
fresh subprocess, plus the checks that need both passes (identical
digests, measured tracing overhead); ``--out`` writes the document
``perf/compare.py`` reads::

    python3 perf/run.py [--seeds 0,1,2] [--smoke] [--out results.json]

Metric names, units and bounds live in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS thread: parallelism comes only from the repo's own
#: backends.  With BLAS threads free, user time ran ~1.8x wall and the
#: run-to-run spread doubled.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer bounds the traced pass enforces on itself.
MAX_RESIDUAL_SHARE = 0.15
MAX_OVERHEAD_SHARE = 0.10

INFO_PREFIX = "INFO "


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads and metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _pin_malloc() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process
    and the workers it forks; ``False`` where there is no glibc.

    Left alone, both thresholds adapt to whichever large blocks a
    process happens to free first, so two runs of one seed differed by
    20k against 1.5M page faults — up to 18 % of an epoch.  Pinned,
    blocks under 32 MiB come from the heap and the heap is never
    trimmed: ~20k faults on every run.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30)
                and mallopt(m_mmap_threshold, 32 << 20))


def _prepare_process() -> None:
    """Pin BLAS (before NumPy loads) and malloc, and make
    ``repro``/``perf`` importable; ``perf/`` itself leaves the path so
    ``perf/trace.py`` cannot shadow the standard library's ``trace``."""
    for name in BLAS_PINS:
        os.environ[name] = "1"
    _pin_malloc()
    sys.path[:] = [p for p in sys.path
                   if not p or Path(p).resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker."""
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF,
                              resource.RUSAGE_CHILDREN))
    return peak_kb / 1024.0


def _stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended, so that none outlives the run.

    The trainer stops the process backend's workers itself.  What is
    left is ``multiprocessing``'s resource tracker, started with the
    backend's first shared-memory segment: it ends only when it sees
    its parent's end of a pipe close, i.e. a few milliseconds *after*
    the parent has exited — late enough to be found still running.
    Closing the pipe here and reaping it closes that window.  A worker
    that outlived the backend's own join time-outs is terminated first.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for worker in multiprocessing.active_children():
            worker.terminate()
            worker.join()
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:  # already reaped
            pass


# -- one workload, one pass --------------------------------------------------

def _untraced(workload, seed: int, cycles: int, scale, repeats: int
              ) -> Tuple[Dict[str, float], object, object, dict]:
    """End-to-end metrics: one full measured run on a fresh heap, then
    set-up alone ``repeats - 1`` more times (stopping at the first
    marker) so ``setup_s`` is a median of ``repeats``."""
    from perf.workloads import Context, SetupDone, typical_cycle_s

    ctx = Context(seed, cycles, scale)
    outcome = workload.run(ctx)
    setups = [ctx.marks[0] - ctx.started]
    metrics = {
        "items_per_s": (outcome.items / cycles
                        / typical_cycle_s(ctx.marks, outcome.steps)),
        "quality_auc": outcome.quality_auc,
        "comm_bytes_per_item": (sum(outcome.comm.values())
                                / max(outcome.items, 1)),
    }
    for _ in range(repeats - 1):
        gc.collect()
        again = Context(seed, cycles, scale, setup_only=True)
        try:
            workload.run(again)
        except SetupDone:
            pass
        setups.append(again.marks[0] - again.started)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics, outcome, ctx, {"setup_samples_s": setups}


def _traced(workload, seed: int, cycles: int, scale, smoke: bool
            ) -> Tuple[Dict[str, float], object, object, dict]:
    """Per-layer metrics: micro-benchmarks on the program as shipped,
    then one run with the tracer installed."""
    from perf.micro import run_micro
    from perf.trace import Tracer, layer_metrics, span_cost_s
    from perf.workloads import Context

    micro = run_micro(seed, scale, reps=5 if smoke else 30,
                      serve_reps=2 if smoke else 5)
    span_cost = span_cost_s()
    tracer = Tracer()
    tracer.install()
    ctx = Context(seed, cycles, scale, tracer=tracer)
    outcome = workload.run(ctx)
    metrics = layer_metrics(tracer, ctx.marks, outcome.comm, span_cost)
    metrics.update(micro)
    samples = {
        "spans": len(tracer.spans),
        "span_cost_us": span_cost * 1e6,
        "rounds": int(metrics["backends.rounds"]),
        "serve_calls": len(tracer.durations("serve.execute_s")),
        "sim_latencies": len(tracer.samples.get("serve.sim_latency_s", [])),
    }
    return metrics, outcome, ctx, {"samples": samples}


def run_single(spec: dict, args) -> int:
    """Driver form: run, check, print; exit code 0 iff correct."""
    _prepare_process()
    from perf.workloads import FULL, SMOKE, WORKLOADS, typical_cycle_s

    workload = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else FULL
    cycles = 3 if args.smoke else max(
        3, int(args.seconds / workload.cycle_s))
    if args.trace:
        declared = spec["per_layer"]
        metrics, outcome, ctx, extra = _traced(
            workload, args.seed, cycles, scale, args.smoke)
    else:
        declared = spec["end_to_end"]
        metrics, outcome, ctx, extra = _untraced(
            workload, args.seed, cycles, scale,
            1 if args.smoke else workload.setup_repeats)

    problems = list(outcome.problems)
    if outcome.attempted < 1 or not 0 <= outcome.failed <= outcome.attempted:
        problems.append("attempted/failed out of range")
    names = [m["name"] for m in declared]
    for name in names:
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite")
    for name in sorted(set(metrics) - set(names)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    if not args.smoke and not outcome.quality_auc >= workload.min_auc:
        problems.append(f"quality_auc {outcome.quality_auc:.4f} below "
                        f"{workload.min_auc}")
    if args.trace:
        for name, limit in (("trace.residual_share", MAX_RESIDUAL_SHARE),
                            ("trace.overhead_share", MAX_OVERHEAD_SHARE)):
            if not metrics.get(name, math.inf) <= limit:
                problems.append(f"{name} above {limit}")

    result_metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
            result_metrics[name] = {"value": metrics[name], "unit": unit}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "cycles": cycles, "segments_per_cycle": outcome.steps,
        "run_s": ctx.marks[-1] - ctx.marks[0],
        "cycle_s": typical_cycle_s(ctx.marks, outcome.steps),
        "digest": outcome.digest, "problems": problems, **extra,
    }
    for problem in problems:
        print(f"CHECK FAILED {args.workload}: {problem}")
    print(INFO_PREFIX + json.dumps(info))
    print(json.dumps({"correct": not problems,
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": result_metrics}))
    return 1 if problems else 0


# -- the suite ---------------------------------------------------------------

def host_record() -> dict:
    """What the numbers were taken on (context, never compared)."""
    try:
        schedulable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        schedulable = os.cpu_count() or 1
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
        if found.returncode == 0:
            commit = found.stdout.strip()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count() or 1, "schedulable_cpus": schedulable,
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_pinning": {name: "1" for name in BLAS_PINS},
            "malloc_pinned": _pin_malloc(),
            "git_commit": commit}


def _run_child(workload: str, seed: int, trace: int, args
               ) -> Tuple[Optional[dict], Optional[dict], int]:
    """One pass in a fresh subprocess: ``(result, info, exit code)``."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, check=False)
    result = info = None
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith(INFO_PREFIX):
            info = json.loads(line[len(INFO_PREFIX):])
        elif not line.startswith("{"):
            print(line)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return result, info, proc.returncode


def run_suite(spec: dict, args) -> int:
    """Every workload, both passes, per seed; cross-pass checks."""
    failures: List[str] = []
    runs = []
    for seed in args.seeds:
        record = {"seed": seed, "workloads": {}}
        for entry in spec["workloads"]:
            name = entry["name"]
            passes = {}
            for trace in (0, 1):
                result, info, code = _run_child(name, seed, trace, args)
                if result is None or info is None:
                    failures.append(f"{name} seed {seed} trace {trace}: "
                                    f"no result (exit {code})")
                    break
                for problem in info["problems"]:
                    failures.append(f"{name} seed {seed}: {problem}")
                passes[trace] = (result, info)
            if len(passes) < 2:
                continue
            (plain, plain_info), (traced, traced_info) = passes[0], passes[1]
            stable = plain_info["digest"] == traced_info["digest"]
            overhead = (traced_info["cycle_s"] / plain_info["cycle_s"]
                        - 1.0)
            print(f"{name} digest_stable = {int(stable)} count")
            print(f"{name} trace.overhead_measured = {overhead!r} ratio")
            if not stable:
                failures.append(f"{name} seed {seed}: untraced and traced "
                                "digests differ")
            if not args.smoke and overhead > MAX_OVERHEAD_SHARE:
                failures.append(f"{name} seed {seed}: measured tracing "
                                f"overhead {overhead:.3f}")
            record["workloads"][name] = {
                "end_to_end": plain["metrics"],
                "per_layer": traced["metrics"],
                "attempted": plain["attempted"], "failed": plain["failed"],
                "digest": plain_info["digest"], "digest_stable": int(stable),
                "overhead_measured": overhead,
                "untraced": plain_info, "traced": traced_info,
            }
        runs.append(record)
    document = {"schema": "perf/v1", "host": host_record(),
                "seconds": args.seconds, "smoke": args.smoke, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    print(f"suite: {len(runs)} seed(s), "
          f"{'FAILED' if failures else 'all checks passed'}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="600-node fixture, 3 segments")
    parser.add_argument("--seeds", default=None,
                        help="suite form: comma-separated seeds")
    parser.add_argument("--out", default=None,
                        help="suite form: write the result document here")
    args = parser.parse_args(argv)
    if args.workload:
        try:
            return run_single(spec, args)
        finally:
            _stop_children()
    args.seeds = ([int(s) for s in args.seeds.split(",")]
                  if args.seeds else [args.seed])
    return run_suite(spec, args)


if __name__ == "__main__":
    sys.exit(main())
