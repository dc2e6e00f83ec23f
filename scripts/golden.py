#!/usr/bin/env python
"""Golden digest matrices (training, streaming, serving): write, or check.

Usage::

    python scripts/golden.py --check                 # full matrix
    python scripts/golden.py --check --subset        # the tier-1 subset
    python scripts/golden.py --write                 # re-baseline all
    python scripts/golden.py --write --match /elastic   # only these cells

One seeded 300-node ``synthetic_lp_graph`` is trained under every cell
of

    4 frameworks x 3 backends x 5 sync modes
      x {no faults, a 7-event mixed plan x 4 policies,
         worker_failure_prob=0.2 x 4 policies}

plus one observed serial run per framework x sync mode, and sixteen
fault-free serial + process cells that widen two axes past the matrix
grid: the ``splpg`` staleness frontier (``local_sgd`` every 8 rounds,
``ps`` at ``max_staleness`` 1 / 4 / 16, ``async`` at ``pull_prob``
0.1) and the partitioners no framework above trains on
(``random_tma``, ``super_tma``, and ``psgd_pa`` over ``ldg``).  The
digests are committed in
``tests/golden_train_digests.json``; a refactor proves "behaviour
unchanged" with ``--check``, and an intended change shows up as a
reviewed diff of that file (``--write --match`` re-writes only the
named cells and leaves the rest untouched).

Cell names read ``framework/backend/sync/plan/policy`` with an
``/observed`` suffix for the observed runs.  A knob that departs from
the matrix default rides in its segment as ``name:key=value``
(``splpg/serial/ps:max_staleness=4/none/drop``,
``psgd_pa:partition=ldg/process/grad/none/drop``).

Thirteen more training cells carry a ``/resume`` suffix — every
framework x {grad, model, ps} on serial, plus ``llcg/process/grad``:
the run checkpoints every epoch, is crashed by a round hook at
``(1, 1)``, resumed from its checkpoint directory, and must equal the
digest **already committed** for its uninterrupted twin.  They have no
entry of their own in the golden file and ``--write`` skips them.

The same switches cover the **stream cells**
(``stream/<layout>/<regime>/<backend>[/resume]``, committed in
``tests/golden_stream_digests.json`` next to the training file): one
seeded 160-node graph streamed for 8 ticks under

    {metis, metis+mirror, vertex_cut} x {steady, churn} on serial

— churn arms the rebalance trigger that layout can fire, tuned so some
ticks re-partition and others patch incrementally — plus, on
``metis+mirror``, steady on the thread and process backends, an
``outage`` regime (a shard crash and a store outage mid-tick) on serial
+ process, and a ``rollback`` regime (a hair-trigger rebalance and an
unreachable AUC floor, so candidates are rolled back) on serial; and
one cell interrupted after tick 4 and resumed from its checkpoint.
Every steady cell must hot-swap at least once, and the rollback cell
must rebalance and roll back.  Each stores ``StreamReport.digest()`` and the
per-tick ``shards_fingerprint`` list, so a shard-layout refactor is
pinned tick by tick on all three layouts.

And the **serve cells** (``serve/<regime>/<backend>``, committed in
``tests/golden_serve_digests.json``): two untrained, layout-compatible
artifacts over one seeded 400-node graph on 3 shards serve 240 seeded
requests under

    {pair, mixed, outage, swap, cache0, cache4, dot}
      x {serial, thread, process}

— pair-only; mixed pairs + store-backed top-k exclusion in a closed
loop; a shard crash + a store-outage window + a straggle; a hot swap
that straddles a flush; the embedding cache off and at 4 entries (a
top-k sweep of ~267 remote rows evicts inside itself; the default 256
of the other cells evicts too); the dot-product decoder.  Each stores
one hash over ``ServeReport.digest()`` and the counters (cache hits and
misses included, which the report digest alone does not cover).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_PATH = REPO_ROOT / "tests" / "golden_train_digests.json"
STREAM_GOLDEN_NAME = "golden_stream_digests.json"
SERVE_GOLDEN_NAME = "golden_serve_digests.json"

FRAMEWORKS = ("psgd_pa", "llcg", "splpg", "vertex_cut")
BACKENDS = ("serial", "thread", "process")
SYNCS = ("grad", "model", "ps", "async", "local_sgd")
POLICIES = ("drop", "retry", "restore", "elastic")
PLANS = ("mixed", "prob")

WORKERS = 3
EPOCHS = 3
SEED = 5


class Cell(NamedTuple):
    """One training run of the matrix."""

    framework: str
    backend: str
    sync: str
    plan: str       # "none" | "mixed" | "prob"
    policy: str
    observe: bool = False
    resume: bool = False

    @property
    def name(self) -> str:
        """``framework/backend/sync/plan/policy[/observed|/resume]``."""
        parts = [self.framework, self.backend, self.sync, self.plan,
                 self.policy]
        if self.observe:
            parts.append("observed")
        if self.resume:
            parts.append("resume")
        return "/".join(parts)


#: ``(framework, sync)`` segments of the fault-free cells beyond the
#: grid: the staleness frontier, then the partitioners.
FRONTIER = (
    ("splpg", "local_sgd:sync_every=8"),
    ("splpg", "ps:max_staleness=1"),
    ("splpg", "ps:max_staleness=4"),
    ("splpg", "ps:max_staleness=16"),
    ("splpg", "async:pull_prob=0.1"),
    ("random_tma", "grad"),
    ("super_tma", "grad"),
    ("psgd_pa:partition=ldg", "grad"),
)


def all_cells() -> Iterator[Cell]:
    """Every cell of the matrix, in a stable order."""
    for fw in FRAMEWORKS:
        for sync in SYNCS:
            for backend in BACKENDS:
                yield Cell(fw, backend, sync, "none", "drop")
                for plan in PLANS:
                    for policy in POLICIES:
                        yield Cell(fw, backend, sync, plan, policy)
            yield Cell(fw, "serial", sync, "mixed", "retry", observe=True)
    for fw, sync in FRONTIER:
        for backend in ("serial", "process"):
            yield Cell(fw, backend, sync, "none", "drop")


def subset_cells() -> List[Cell]:
    """The tier-1 slice: every backend x sync mode fault-free, the
    mixed plan under each policy on the serial and process backends,
    and one frontier and one partitioner cell."""
    cells = [Cell("splpg", backend, sync, "none", "drop")
             for backend in BACKENDS for sync in SYNCS]
    cells += [Cell("psgd_pa", backend, "model", "mixed", policy)
              for backend in ("serial", "process") for policy in POLICIES]
    cells += [Cell("splpg", "process", "ps:max_staleness=4", "none", "drop"),
              Cell("psgd_pa:partition=ldg", "serial", "grad", "none", "drop")]
    return cells


#: Where a resume cell's coordinator loop is crashed: ``(epoch, round)``.
RESUME_CRASH_AT = (1, 1)


def resume_cells() -> List[Cell]:
    """Crash-and-resume twins of fault-free cells: checked against the
    twin's committed digest, never written."""
    cells = [Cell(fw, "serial", sync, "none", "drop", resume=True)
             for fw in FRAMEWORKS for sync in ("grad", "model", "ps")]
    cells.append(Cell("llcg", "process", "grad", "none", "drop",
                      resume=True))
    return cells


def with_resume_twins(golden: Dict[str, object]) -> Dict[str, object]:
    """``golden`` plus every resume cell under its twin's digest."""
    golden = dict(golden)
    for cell in resume_cells():
        twin = cell._replace(resume=False).name
        if twin in golden:
            golden[cell.name] = golden[twin]
    return golden


def make_split():
    """The matrix's one seeded workload."""
    from repro.graph import split_edges, synthetic_lp_graph

    rng = np.random.default_rng(SEED)
    graph = synthetic_lp_graph(num_nodes=300, target_edges=1200,
                               feature_dim=16, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def mixed_plan():
    """Seven events over three epochs: both stragglers (one past the
    timeout, so it escalates to a crash), both message faults, a store
    outage, and a crash of worker 0 — the replica the evaluator and the
    correction hook read."""
    from repro.faults import FaultEvent, FaultPlan

    return FaultPlan(name="golden-mixed", events=(
        FaultEvent(kind="straggle", epoch=0, round=1, worker=0,
                   delay_s=0.5),
        FaultEvent(kind="store_outage", epoch=0, round=2, rounds=2),
        FaultEvent(kind="msg_loss", epoch=0, round=3, worker=2),
        FaultEvent(kind="crash", epoch=1, round=0, worker=0),
        FaultEvent(kind="msg_corrupt", epoch=1, round=1, worker=1),
        FaultEvent(kind="straggle", epoch=1, round=3, worker=2,
                   delay_s=60.0),
        FaultEvent(kind="msg_loss", epoch=2, round=0, worker=1),
    ))


class _Crash(RuntimeError):
    """Raised by a resume cell's round hook."""


def _crash_hook(_trainer, epoch: int, rnd: int) -> None:
    if (epoch, rnd) == RESUME_CRASH_AT:
        raise _Crash


def run_cell(split, cell: Cell) -> str:
    """Train one cell and return its digest (a resume cell: train with
    durable checkpoints, crash, resume from the directory)."""
    from repro.checkpoint import load_checkpoint, rebuild_trainer
    from repro.core.frameworks import run_framework
    from repro.distributed import TrainConfig
    from repro.distributed.trainer import set_round_hook
    from repro.partition import PartitionSpec

    def segment(text: str):
        """``name[:key=value]`` -> ``(name, {key: value})``."""
        name, _, knob = text.partition(":")
        if not knob:
            return name, {}
        key, _, value = knob.partition("=")
        return name, {key: PartitionSpec(value) if key == "partition"
                      else json.loads(value)}

    framework, knobs = segment(cell.framework)
    sync, sync_knobs = segment(cell.sync)
    knobs = {"sync_every": 2, **knobs, **sync_knobs}
    if cell.plan == "mixed":
        knobs["fault_plan"] = mixed_plan()
    elif cell.plan == "prob":
        knobs["worker_failure_prob"] = 0.2
    # Half the frameworks average models mid-epoch, half only at the
    # epoch end, so both cadences of sync="model" are in the matrix.
    every = 2 if framework in ("splpg", "vertex_cut") else 0
    def train(**checkpointing):
        config = TrainConfig(
            hidden_dim=16, num_layers=2, fanouts=(5, 5), epochs=EPOCHS,
            batch_size=64, seed=SEED, sync=sync,
            sync_every_batches=every, backend=cell.backend,
            observe=cell.observe, recovery=cell.policy,
            fault_timeout_s=15.0, retry_backoff_s=0.05, **knobs,
            **checkpointing)
        return run_framework(framework, split, WORKERS, config,
                             rng=np.random.default_rng(SEED))

    if not cell.resume:
        return train().digest()
    with tempfile.TemporaryDirectory() as tmp:
        previous = set_round_hook(_crash_hook)
        try:
            train(checkpoint_dir=tmp)
            raise AssertionError(f"{cell.name}: the crash never fired")
        except _Crash:
            pass
        finally:
            set_round_hook(previous)
        meta, state = load_checkpoint(tmp)
        return rebuild_trainer(meta, state, split).train().digest()


def _digests(cells, run, verbose: bool) -> Dict[str, object]:
    """``run(cell)`` for every cell, keyed by cell name."""
    out: Dict[str, object] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cell in cells:
            value = out[cell.name] = run(cell)
            if verbose:
                digest = value if isinstance(value, str) else value["digest"]
                print(f"{digest[:12]}  {cell.name}", flush=True)
    return out


def compute(cells, verbose: bool = False) -> Dict[str, str]:
    """Digest of every given cell, keyed by cell name."""
    split = make_split()
    return _digests(cells, lambda cell: run_cell(split, cell), verbose)


class StreamCell(NamedTuple):
    """One streaming run: a shard layout under a trigger regime."""

    layout: str     # "metis" | "metis+mirror" | "vertex_cut"
    regime: str     # "steady" | "churn"
    backend: str = "serial"
    resume: bool = False

    @property
    def name(self) -> str:
        """``stream/layout/regime/backend[/resume]``."""
        parts = ["stream", self.layout, self.regime, self.backend]
        if self.resume:
            parts.append("resume")
        return "/".join(parts)


STREAM_LAYOUTS = ("metis", "metis+mirror", "vertex_cut")
STREAM_SEED = 7
STREAM_TICKS = 8
#: The resume cell drops its driver after this many ticks.
STREAM_RESUME_AFTER = 5
STREAM_MODEL = {"gnn_type": "sage", "in_dim": 12, "hidden_dim": 16,
                "num_layers": 2, "seed": STREAM_SEED}


def stream_cells() -> List[StreamCell]:
    """Every stream cell (all of them fit the tier-1 budget)."""
    cells = [StreamCell(layout, regime) for layout in STREAM_LAYOUTS
             for regime in ("steady", "churn")]
    cells += [StreamCell("metis+mirror", regime, backend)
              for regime, backend in (("steady", "thread"),
                                      ("steady", "process"),
                                      ("outage", "serial"),
                                      ("outage", "process"),
                                      ("rollback", "serial"))]
    cells.append(StreamCell("vertex_cut", "churn", resume=True))
    return cells


def run_stream_cell(cell: StreamCell) -> Dict[str, object]:
    """Stream one cell; its digest and per-tick shard fingerprints."""
    from repro.faults import FaultEvent, FaultPlan
    from repro.graph import synthetic_lp_graph
    from repro.nn.models import build_model
    from repro.partition.registry import PartitionSpec
    from repro.stream import StreamConfig, StreamDriver

    graph = synthetic_lp_graph(160, 640, feature_dim=12,
                               rng=np.random.default_rng(STREAM_SEED))
    strategy, _, mirror = cell.layout.partition("+")
    spec = PartitionSpec(strategy, mirror=bool(mirror))
    knobs = dict(ticks=STREAM_TICKS, seed=STREAM_SEED,
                 requests_per_tick=12, inserts_per_tick=12.0,
                 deletes_per_tick=6.0, drifts_per_tick=4.0, embed_batch=32)
    if cell.regime == "churn":
        # Plain metis replicates nothing, so only the imbalance trigger
        # can fire; the mirrored layouts drift in replication instead.
        # At these values each layout rebalances on some ticks only.
        if cell.layout == "metis":
            knobs["rebalance_threshold"] = 1.1
        else:
            knobs["replication_threshold"] = 1.95
    elif cell.regime == "outage":
        # Fault events are addressed by (tick, request sequence).
        knobs["fault_plan"] = FaultPlan(name="golden-stream", events=(
            FaultEvent(kind="crash", epoch=1, round=4, worker=1),
            FaultEvent(kind="store_outage", epoch=2, round=3, rounds=2)))
    elif cell.regime == "rollback":
        # Every tick re-partitions, and no candidate can pass the gate.
        knobs.update(rebalance_threshold=1.01, auc_floor=1.5)
    with tempfile.TemporaryDirectory() as tmp:
        if cell.resume:
            knobs.update(checkpoint_dir=tmp, checkpoint_every=1)
        driver = StreamDriver(build_model(**STREAM_MODEL), graph, spec, 3,
                              StreamConfig(**knobs), backend=cell.backend,
                              model_spec=STREAM_MODEL)
        if cell.resume:
            driver._setup()
            for tick in range(STREAM_RESUME_AFTER):
                driver._run_tick(tick)
                driver._next_tick = tick + 1
                driver._write_checkpoint(tick)
            driver = StreamDriver.resume(tmp)
        report = driver.run()
    if cell.regime == "churn":
        rebalanced = [bool(r.rebalanced) for r in report.records]
        assert any(rebalanced) and not all(rebalanced), (cell.name,
                                                         rebalanced)
    counters = report.counters
    if cell.regime == "steady":
        assert counters["swaps"] >= 1, (cell.name, counters)
    elif cell.regime == "rollback":
        assert counters["rebalances"] >= 1 and counters["rollbacks"] >= 1, (
            cell.name, counters)
    return {"digest": report.digest(),
            "shards_fingerprints": [r.shards_fingerprint
                                    for r in report.records]}


def compute_stream(cells, verbose: bool = False) -> Dict[str, dict]:
    """Golden value of every given stream cell, keyed by cell name."""
    return _digests(cells, run_stream_cell, verbose)


class ServeCell(NamedTuple):
    """One serving run: a request/fault/cache regime on a backend."""

    regime: str
    backend: str

    @property
    def name(self) -> str:
        """``serve/regime/backend``."""
        return f"serve/{self.regime}/{self.backend}"


SERVE_REGIMES = ("pair", "mixed", "outage", "swap", "cache0", "cache4",
                 "dot")
SERVE_SEED = 11
SERVE_NODES = 400
SERVE_REQUESTS = 240
#: The ``swap`` cell switches model versions at this admission sequence.
SERVE_SWAP_SEQ = 97


def serve_cells() -> List[ServeCell]:
    """Every serve cell (all of them fit the tier-1 budget)."""
    return [ServeCell(regime, backend) for regime in SERVE_REGIMES
            for backend in BACKENDS]


def serve_fixture():
    """The serve cells' graph store and two layout-compatible
    artifacts per decoder kind (``kind -> (old, new)``)."""
    from repro.distributed.store import RemoteGraphStore
    from repro.graph import synthetic_lp_graph
    from repro.nn.models import build_model
    from repro.partition import partition_graph
    from repro.serve import export_servable

    graph = synthetic_lp_graph(SERVE_NODES, 1600, feature_dim=16,
                               rng=np.random.default_rng(SERVE_SEED))
    partitioned = partition_graph(graph, 3,
                                  rng=np.random.default_rng(SERVE_SEED))
    artifacts = {
        kind: tuple(export_servable(
            build_model("sage", 16, hidden_dim=16, num_layers=2,
                        predictor=kind, seed=SERVE_SEED + version),
            partitioned) for version in (0, 1))
        for kind in ("mlp", "dot")}
    return RemoteGraphStore(graph), artifacts


def run_serve_cell(fixture, cell: ServeCell) -> str:
    """Serve one cell; a hash of its report digest and counters."""
    from repro.faults import FaultEvent, FaultPlan
    from repro.serve import (ClosedLoopWorkload, OpenLoopWorkload,
                             ServingCluster, synthetic_requests)

    store, artifacts = fixture
    old, new = artifacts["dot" if cell.regime == "dot" else "mlp"]
    knobs = dict(backend=cell.backend, store=store, max_batch=5,
                 max_delay_s=2e-3, max_queue=32)
    if cell.regime.startswith("cache"):
        knobs["embed_cache"] = int(cell.regime[len("cache"):])
    if cell.regime == "outage":
        knobs["plan"] = FaultPlan(name="golden-serve", events=(
            FaultEvent(kind="store_outage", epoch=0, round=20, rounds=30,
                       worker=2),
            FaultEvent(kind="straggle", epoch=0, round=40, worker=0,
                       delay_s=0.01),
            FaultEvent(kind="crash", epoch=0, round=SERVE_REQUESTS // 3,
                       worker=1)))
    requests = synthetic_requests(
        SERVE_REQUESTS, SERVE_NODES, seed=SERVE_SEED,
        topk_fraction=0.0 if cell.regime == "pair" else 0.1)
    if cell.regime == "mixed":
        workload = ClosedLoopWorkload(requests, num_clients=12,
                                      think_time_s=2e-4)
    else:
        workload = OpenLoopWorkload(requests, rate_rps=4000.0,
                                    seed=SERVE_SEED + 13)
    swaps = None
    with ServingCluster(old, **knobs) as cluster:
        if cell.regime == "swap":
            swaps = [(SERVE_SWAP_SEQ, cluster.register_version(new))]
        report = cluster.serve(workload, swaps=swaps)
    counters = report.counters
    if cell.regime == "swap":
        flushes: Dict[tuple, List[int]] = {}
        for o in report.completed():
            flushes.setdefault((o.shard, o.dispatch_s), []).append(o.index)
        assert any(min(seqs) < SERVE_SWAP_SEQ <= max(seqs)
                   for seqs in flushes.values()), "no flush straddles"
    elif cell.regime == "outage":
        assert counters["rerouted"] > 0, counters
    if cell.regime not in ("pair", "cache0"):
        assert counters["embed_cache_hits"] > 0, counters
        assert counters["neighbor_cache_misses"] > 0, counters
    return hashlib.sha256((report.digest() + json.dumps(
        counters, sort_keys=True)).encode()).hexdigest()


def compute_serve(cells, verbose: bool = False) -> Dict[str, str]:
    """Golden value of every given serve cell, keyed by cell name."""
    fixture = serve_fixture()
    return _digests(cells, lambda cell: run_serve_cell(fixture, cell),
                    verbose)


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    """The committed digests."""
    return json.loads(path.read_text())["digests"]


def load_stream_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    """The committed stream cells (the file beside ``path``)."""
    return load_golden(path.with_name(STREAM_GOLDEN_NAME))


def load_serve_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    """The committed serve cells (the file beside ``path``)."""
    return load_golden(path.with_name(SERVE_GOLDEN_NAME))


def _mismatch(want, got) -> str:
    """Where a cell's value departs from the golden one."""
    if isinstance(got, str):
        return f"{got[:12]} != golden {want[:12]}"
    ticks = [t for t, (a, b) in enumerate(zip(
        want["shards_fingerprints"], got["shards_fingerprints"])) if a != b]
    where = (f"; shard layout first differs at tick {ticks[0]}"
             if ticks else "; every shard fingerprint equal")
    return _mismatch(want["digest"], got["digest"]) + where


def diff(golden: Dict[str, object], got: Dict[str, object]) -> List[str]:
    """One line per cell whose digest is missing or differs."""
    problems = []
    for name, value in got.items():
        want = golden.get(name)
        if want is None:
            problems.append(f"{name}: not in the golden file")
        elif want != value:
            problems.append(f"{name}: {_mismatch(want, value)}")
    return problems


def main(argv=None) -> int:
    """CLI entry point; exit 1 when a checked digest differs."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--subset", action="store_true",
                        help="only the tier-1 subset of cells")
    parser.add_argument("--match", default="",
                        help="only cells whose name contains this text")
    parser.add_argument("--file", type=Path, default=GOLDEN_PATH,
                        help="training digests; the stream and serve "
                             f"cells live beside it in {STREAM_GOLDEN_NAME}"
                             f" and {SERVE_GOLDEN_NAME}")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    train = subset_cells() if args.subset else list(all_cells())
    if args.check:
        train += resume_cells()
    suites = [
        (args.file, compute, train,
         {"nodes": 300, "workers": WORKERS, "epochs": EPOCHS,
          "seed": SEED}),
        (args.file.with_name(STREAM_GOLDEN_NAME), compute_stream,
         stream_cells(),
         {"nodes": 160, "parts": 3, "ticks": STREAM_TICKS,
          "seed": STREAM_SEED}),
        (args.file.with_name(SERVE_GOLDEN_NAME), compute_serve,
         serve_cells(),
         {"nodes": SERVE_NODES, "shards": 3, "requests": SERVE_REQUESTS,
          "seed": SERVE_SEED}),
    ]
    status = 0
    for path, run, cells, workload in suites:
        cells = [c for c in cells if args.match in c.name]
        if not cells:
            continue
        got = run(cells, verbose=args.verbose)
        if args.write:
            digests = load_golden(path) if path.exists() else {}
            changed = sorted(n for n, d in got.items()
                             if digests.get(n) != d)
            digests.update(got)
            doc = {"workload": workload,
                   "digests": dict(sorted(digests.items()))}
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{path.name}: wrote {len(got)} cell(s), "
                  f"{len(changed)} changed")
            for name in changed:
                print(f"  {name}")
            continue
        problems = diff(with_resume_twins(load_golden(path)), got)
        for line in problems:
            print(f"GOLDEN MISMATCH: {line}", file=sys.stderr)
        print(f"{path.name}: checked {len(got)} cell(s): "
              f"{'ok' if not problems else f'{len(problems)} differ'}")
        status = status or (1 if problems else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
