"""Execution-backend wall-clock benchmark.

Sweeps backends × worker counts over one deterministic training
workload and reports real wall-clock seconds per run.  The workload is
chosen so per-batch compute dominates dispatch overhead — the regime
parallel backends are for — while the model-averaging sync keeps
inter-process traffic to one state exchange per epoch:

* medium synthetic community graph (per-batch matmuls in the
  milliseconds range, so pipe round-trips amortize),
* ``sync="model"`` with sync only at epoch end (the paper's headline
  synchronization mode),
* accuracy is recorded per run and must be bit-identical across
  backends at equal seed — the benchmark doubles as an equivalence
  check at realistic scale.

Emitted schema (``BENCH_backends.json``)::

    {
      "schema": "bench_backends/v1",
      "config": {...workload knobs...},
      "results": [
        {"backend": "serial", "workers": 4, "wall_s": 12.3,
         "hits": 0.81, "speedup_vs_serial": 1.0},
        ...
      ]
    }

``speedup_vs_serial`` compares against the serial run *at the same
worker count* (serial rows are exactly 1.0).

Run via ``scripts/bench.py`` (``--smoke`` for the CI-sized variant).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.frameworks import run_framework
from repro.distributed import TrainConfig
from repro.graph import split_edges, synthetic_lp_graph

SCHEMA = "bench_backends/v1"

#: Full-size workload: compute-heavy enough that 4-way process
#: parallelism wins clearly over serial on a laptop CPU.
FULL = dict(num_nodes=2400, target_edges=9600, feature_dim=64,
            hidden_dim=64, num_layers=2, fanouts=(10, 5), batch_size=192,
            epochs=2, framework="psgd_pa", seed=0)

#: CI-sized workload: the whole sweep finishes in ~10 seconds; numbers
#: only validate the schema, not the speedup claim.
SMOKE = dict(num_nodes=300, target_edges=1100, feature_dim=16,
             hidden_dim=16, num_layers=2, fanouts=(5, 5), batch_size=96,
             epochs=1, framework="psgd_pa", seed=0)


def _build_split(params: Dict):
    """Synthesize the benchmark graph and edge split (seeded)."""
    rng = np.random.default_rng(params["seed"])
    graph = synthetic_lp_graph(
        num_nodes=params["num_nodes"], target_edges=params["target_edges"],
        feature_dim=params["feature_dim"], num_communities=8, rng=rng)
    return split_edges(graph, rng=rng)


def _bench_config(params: Dict, backend: str, workers: int) -> TrainConfig:
    """TrainConfig for one benchmark cell."""
    return TrainConfig(
        hidden_dim=params["hidden_dim"], num_layers=params["num_layers"],
        fanouts=params["fanouts"], batch_size=params["batch_size"],
        epochs=params["epochs"], seed=params["seed"], sync="model",
        sync_every_batches=0, eval_every=max(params["epochs"], 1),
        backend=backend, num_workers=workers, observe=False)


def run_bench(
    workers_list: Sequence[int] = (2, 4),
    backends: Sequence[str] = ("serial", "thread", "process"),
    params: Optional[Dict] = None,
    repeats: int = 1,
) -> Dict:
    """Run the sweep and return the ``bench_backends/v1`` document.

    Each (backend, workers) cell trains the same workload from the
    same seed; ``wall_s`` is the best of ``repeats`` timings of
    ``run_framework`` (setup + train + eval), which is what a user of
    ``repro.run`` experiences.
    """
    params = dict(FULL if params is None else params)
    split = _build_split(params)
    results: List[Dict] = []
    serial_wall: Dict[int, float] = {}
    for workers in workers_list:
        for backend in backends:
            config = _bench_config(params, backend, workers)
            best = float("inf")
            hits = None
            for _ in range(max(1, repeats)):
                started = time.perf_counter()
                outcome = run_framework(
                    params["framework"], split, workers, config,
                    rng=np.random.default_rng(params["seed"]))
                wall = time.perf_counter() - started
                best = min(best, wall)
                hits = float(outcome.test.hits)
            if backend == "serial":
                serial_wall[workers] = best
            results.append({
                "backend": backend,
                "workers": int(workers),
                "wall_s": round(best, 4),
                "hits": hits,
            })
    for row in results:
        base = serial_wall.get(row["workers"])
        row["speedup_vs_serial"] = (
            round(base / row["wall_s"], 3) if base else None)
    return {
        "schema": SCHEMA,
        "config": {**params, "repeats": int(repeats),
                   "workers_list": [int(w) for w in workers_list],
                   "backends": list(backends), "sync": "model"},
        "host": _host_info(),
        "results": results,
    }


def _host_info() -> Dict:
    """CPU topology the sweep ran on.

    Wall-clock comparisons are only meaningful relative to this:
    parallel backends need more than one schedulable core to beat
    serial (on a single-core host every backend shares the same core
    and the parallel ones just add dispatch overhead).
    """
    try:
        schedulable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        schedulable = os.cpu_count() or 1
    return {"cpu_count": os.cpu_count() or 1,
            "schedulable_cpus": schedulable}


def validate_document(doc: Dict) -> List[str]:
    """Schema check for a ``bench_backends/v1`` document.

    Returns a list of problems (empty when valid) — used by the CI
    smoke run so a drifted emitter fails loudly.
    """
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}")
    if not isinstance(doc.get("config"), dict):
        problems.append("config must be a dict")
    host = doc.get("host")
    if (not isinstance(host, dict)
            or not isinstance(host.get("schedulable_cpus"), int)):
        problems.append("host.schedulable_cpus missing")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        problems.append("results must be a non-empty list")
        return problems
    for i, row in enumerate(rows):
        for key, kinds in (("backend", str), ("workers", int),
                           ("wall_s", (int, float)),
                           ("hits", (int, float)),
                           ("speedup_vs_serial", (int, float))):
            if not isinstance(row.get(key), kinds):
                problems.append(f"results[{i}].{key} missing or wrong type")
    for workers in {r["workers"] for r in rows if isinstance(r, dict)}:
        cell = {r["backend"]: r for r in rows
                if isinstance(r, dict) and r.get("workers") == workers}
        hits = {r.get("hits") for r in cell.values()}
        if len(hits) > 1:
            problems.append(
                f"accuracy diverged across backends at {workers} workers: "
                f"{sorted(cell)} -> {sorted(hits)}")
    return problems


def check_speedup(doc: Dict, workers: int = 4) -> Optional[str]:
    """The headline claim: process beats serial at ``workers`` workers.

    Only meaningful when every worker can have a core of its own: on a
    host with fewer schedulable CPUs than ``workers`` the children
    time-share and pay fork + pipe overhead for no overlap, so the
    claim is skipped and the reason recorded in ``doc["speedup_note"]``.
    Returns a problem string when the claim fails on a host that can
    run the workers in parallel.
    """
    host = doc.get("host") or {}
    cpus = int(host.get("schedulable_cpus") or 1)
    if cpus < workers:
        doc["speedup_note"] = (
            f"{cpus} schedulable CPU(s) for {workers} workers: parallel "
            "backends cannot beat serial wall-clock on this host; rerun "
            f"with at least {workers} cores for the speedup claim")
        return None
    rows = {(r["backend"], r["workers"]): r for r in doc["results"]}
    process = rows.get(("process", workers))
    if process is None:
        return f"no process@{workers} row to check the speedup claim"
    if process["speedup_vs_serial"] <= 1.0:
        return (f"process@{workers} did not beat serial: "
                f"{process['speedup_vs_serial']}x")
    return None
