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
         FaultPlan.from_probability(0.2) x 4 policies}

plus one observed serial run per framework x sync mode, and sixteen
fault-free serial + process cells that widen two axes past the matrix
grid: the ``splpg`` staleness frontier (``local_sgd`` every 8 rounds,
``ps`` at ``max_staleness`` 1 / 4 / 16, ``async`` at ``pull_prob``
0.1) and the partitioners no framework above trains on
(``random_tma``, ``super_tma``, and ``psgd_pa`` over ``ldg``); plus one
fault-free serial ``centralized`` cell, the single-worker reference
curve of every accuracy figure.  The digests are committed in
``tests/golden_train_digests.json``; a refactor proves "behaviour
unchanged" with ``--check``, and an intended change shows up as a
reviewed diff of that file (``--write --match`` re-writes only the
named cells and leaves the rest untouched).

Cell names read ``framework/backend/sync/plan/policy`` with an
``/observed`` suffix for the observed runs.  A knob that departs from
the matrix default rides in its segment as ``name:key=value``
(``splpg/serial/ps:max_staleness=4/none/drop``,
``psgd_pa:partition=ldg/process/grad/none/drop``).

Every faulted cell (a ``mixed`` or ``prob`` plan, observed ones
included) must also hold the fault-tolerance invariants against its
fault-free ``none/drop`` twin on the same framework, backend and sync
mode, trained in the same pass (:func:`check_faulted`): it finishes
inside a 300 s budget with ``EPOCHS`` finite-loss epochs and a finite
test AUC within 0.30 of the twin's; under ``restore`` (no worker
removed) its byte ledger equals the twin's; an edge-partitioned
framework fetches no features and averages replicas
(``replica_sync_bytes`` > 0, the twin's under ``retry`` / ``restore``);
its ``faults`` ledger is non-empty, and an observed run's report
carries ``fault.*`` counters and ``meta["faults"]``.

Thirteen more training cells carry a ``/resume`` suffix — every
framework x {grad, model, ps} on serial, plus ``llcg/process/grad``:
the run checkpoints every epoch, is crashed by a round hook at
``(1, 1)``, resumed from its checkpoint directory, and must equal the
digest **already committed** for its uninterrupted twin.  Five
``/kill`` cells do the same with a real death: a forked coordinator
SIGKILLs its own process group (workers included) at ``(1, 1)`` and
must exit by that signal, and a second fork resumes from the durable
checkpoint — every backend and sync mode, ``llcg`` included.  Neither
kind has an entry of its own in the golden file, and ``--write`` skips
them.

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
misses included, which the report digest alone does not cover).  One
more regime, ``sweep``, runs on its own seeded 1 300-node graph: the
``mixed`` closed loop there makes every top-k sweep score ~1 290
candidates, so the decoder's 512-row chunks run three to a sweep with a
tail of more than one row.

The same file holds the **score cells** (``score/<mode>/<backend>``):
a ``DistributedScorer`` over the serve cells' graph and layout, with
the complete remote store, scores 240 seeded pairs in batches of 64
under full-neighbour (``full``) or sampled (``sampled``) fanouts on
every backend.  Each stores one hash over the scores' bytes, the
communication ledger, ``pairs_per_worker`` and ``rerouted_pairs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

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

#: A faulted cell's test AUC may sit this far from its fault-free
#: twin's: faults degrade a run, they do not destroy it.
AUC_TOLERANCE = 0.30
#: Wall-clock budget of one faulted cell (seconds), the no-hang backstop
#: on top of the backends' own ``fault_timeout_s`` deadlines.
WALL_BUDGET_S = 300.0
#: How long a kill cell waits for each forked coordinator (seconds).
KILL_TIMEOUT_S = 240.0


class Cell(NamedTuple):
    """One training run of the matrix."""

    framework: str
    backend: str
    sync: str
    plan: str       # "none" | "mixed" | "prob"
    policy: str
    observe: bool = False
    resume: bool = False
    kill: bool = False

    @property
    def name(self) -> str:
        """``framework/backend/sync/plan/policy[/observed|/resume|/kill]``."""
        parts = [self.framework, self.backend, self.sync, self.plan,
                 self.policy]
        if self.observe:
            parts.append("observed")
        if self.resume:
            parts.append("resume")
        if self.kill:
            parts.append("kill")
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

#: The single-worker reference every accuracy figure compares against.
CENTRALIZED = Cell("centralized", "serial", "grad", "none", "drop")


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
    yield CENTRALIZED


def subset_cells() -> List[Cell]:
    """The tier-1 slice: every backend x sync mode fault-free, the
    mixed plan under each policy on the serial and process backends,
    the edge-partitioned framework under the mixed plan's lossless
    policies (the replica-ledger invariants), one frontier and one
    partitioner cell, and the centralized cell."""
    cells = [Cell("splpg", backend, sync, "none", "drop")
             for backend in BACKENDS for sync in SYNCS]
    cells += [Cell("psgd_pa", backend, "model", "mixed", policy)
              for backend in ("serial", "process") for policy in POLICIES]
    cells += [Cell("vertex_cut", "serial", "model", "mixed", policy)
              for policy in ("retry", "restore")]
    cells += [Cell("splpg", "process", "ps:max_staleness=4", "none", "drop"),
              Cell("psgd_pa:partition=ldg", "serial", "grad", "none", "drop"),
              CENTRALIZED]
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


def kill_cells() -> List[Cell]:
    """Coordinator-SIGKILL twins of fault-free cells, one per backend
    and sync mode at least, ``llcg``'s stateful correction included:
    checked against the twin's committed digest, never written."""
    return [Cell(fw, backend, sync, "none", "drop", kill=True)
            for fw, backend, sync in (("splpg", "serial", "grad"),
                                      ("llcg", "thread", "ps"),
                                      ("splpg", "process", "async"),
                                      ("llcg", "serial", "local_sgd"),
                                      ("vertex_cut", "process", "model"))]


def with_resume_twins(golden: Dict[str, object]) -> Dict[str, object]:
    """``golden`` plus every resume and kill cell under its twin's
    digest."""
    golden = dict(golden)
    for cell in resume_cells() + kill_cells():
        twin = cell._replace(resume=False, kill=False).name
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


def _segment(text: str):
    """``name[:key=value]`` -> ``(name, {key: value})``."""
    from repro.partition import PartitionSpec

    name, _, knob = text.partition(":")
    if not knob:
        return name, {}
    key, _, value = knob.partition("=")
    return name, {key: PartitionSpec(value) if key == "partition"
                  else json.loads(value)}


def train_cell(split, cell: Cell, **checkpointing):
    """Train one cell's configuration; its ``TrainResult``."""
    from repro.core.frameworks import run_framework
    from repro.distributed import TrainConfig

    framework, knobs = _segment(cell.framework)
    sync, sync_knobs = _segment(cell.sync)
    knobs = {"sync_every": 2, **knobs, **sync_knobs}
    if cell.plan == "mixed":
        knobs["fault_plan"] = mixed_plan()
    elif cell.plan == "prob":
        from repro.faults import FaultPlan

        knobs["fault_plan"] = FaultPlan.from_probability(0.2)
    # Half the frameworks average models mid-epoch, half only at the
    # epoch end, so both cadences of sync="model" are in the matrix.
    every = 2 if framework in ("splpg", "vertex_cut") else 0
    config = TrainConfig(
        hidden_dim=16, num_layers=2, fanouts=(5, 5), epochs=EPOCHS,
        batch_size=64, seed=SEED, sync=sync, sync_every_batches=every,
        backend=cell.backend, observe=cell.observe, recovery=cell.policy,
        fault_timeout_s=15.0, retry_backoff_s=0.05, **knobs,
        **checkpointing)
    return run_framework(framework, split, WORKERS, config,
                         rng=np.random.default_rng(SEED))


def check_faulted(cell: Cell, result, twin, wall_s: float) -> None:
    """Hold a faulted cell's run to the fault-tolerance invariants
    against ``twin``, its fault-free ``none/drop`` run on the same
    framework, backend and sync mode; raise ``AssertionError`` naming
    every invariant it breaks."""
    from repro.core.frameworks import FRAMEWORKS
    from repro.partition import get_partitioner

    broken = []
    if wall_s > WALL_BUDGET_S:
        broken.append(f"took {wall_s:.1f}s, over the "
                      f"{WALL_BUDGET_S:.0f}s no-hang budget")
    if len(result.history) != EPOCHS:
        broken.append(f"history has {len(result.history)} epochs, "
                      f"expected {EPOCHS}: the round loop stopped early")
    bad = [i for i, s in enumerate(result.history)
           if not np.isfinite(s.mean_loss)]
    if bad:
        broken.append(f"non-finite mean loss at epochs {bad}")
    if not np.isfinite(result.test.auc):
        broken.append("non-finite test AUC")
    elif abs(result.test.auc - twin.test.auc) > AUC_TOLERANCE:
        broken.append(f"test AUC {result.test.auc:.3f} is more than "
                      f"{AUC_TOLERANCE} from the twin's "
                      f"{twin.test.auc:.3f}")
    lossless = "elastic_removed" not in result.faults
    if (cell.policy == "restore" and lossless
            and result.comm_total != twin.comm_total):
        broken.append(f"comm_total {result.comm_total.to_dict()} != twin "
                      f"{twin.comm_total.to_dict()} under 'restore' "
                      "(replay must not re-charge the meters)")
    strategy = FRAMEWORKS[_segment(cell.framework)[0]].partition_strategy
    if get_partitioner(strategy).edge_partitioned:
        # Edge-partitioned training keeps its communication shape under
        # faults: no feature fetches, a replica-averaging ledger, and
        # the twin's ledger byte for byte under a lossless policy.
        replica = result.sync_stats.get("replica_sync_bytes", 0)
        if result.comm_total.feature_bytes != 0:
            broken.append(f"moved {result.comm_total.feature_bytes} "
                          "feature bytes (must stay 0)")
        if replica <= 0:
            broken.append("no replica_sync_bytes: mirror reconciliation "
                          "did not run")
        twin_replica = twin.sync_stats.get("replica_sync_bytes", 0)
        if (cell.policy in ("retry", "restore") and lossless
                and replica != twin_replica):
            broken.append(f"replica_sync_bytes {replica} != twin "
                          f"{twin_replica} under '{cell.policy}'")
    if not result.faults:
        broken.append("empty TrainResult.faults ledger")
    if cell.observe:
        report = result.report
        if report is None:
            broken.append("an observed run produced no RunReport")
        else:
            if not any(n.startswith("fault.") for n in report.metrics):
                broken.append("RunReport has no fault.* counters")
            if not report.meta.get("faults"):
                broken.append("RunReport.meta['faults'] is empty")
    if broken:
        raise AssertionError(f"{cell.name}: " + "; ".join(broken))


def _coordinator(split, cell: Cell, directory: str, kill: bool) -> None:
    """One forked coordinator of a kill cell.

    Trains from scratch with durable checkpoints when ``directory``
    holds none yet, else resumes from its newest snapshot.  ``kill``
    arms a round hook that SIGKILLs this coordinator's own process group
    (its forked workers included) at ``RESUME_CRASH_AT``.  A run that
    finishes records its digest in ``RESULT.json`` beside the
    checkpoints.
    """
    from repro.checkpoint import (CheckpointNotFoundError, load_checkpoint,
                                  rebuild_trainer)
    from repro.distributed.trainer import set_round_hook

    os.setpgid(0, 0)
    checkpoints = os.path.join(directory, "checkpoints")
    resumed_from = None
    if kill:
        def hook(_trainer, epoch: int, rnd: int) -> None:
            if (epoch, rnd) == RESUME_CRASH_AT:
                os.killpg(os.getpgrp(), signal.SIGKILL)

        set_round_hook(hook)
    try:
        meta, state = load_checkpoint(checkpoints)
    except CheckpointNotFoundError:
        result = train_cell(split, cell, checkpoint_dir=checkpoints)
    else:
        resumed_from = int(meta["epoch"])
        result = rebuild_trainer(meta, state, split).train()
    Path(directory, "RESULT.json").write_text(json.dumps(
        {"digest": result.digest(), "resumed_from": resumed_from}))


def _reap(cell: Cell, proc, what: str) -> int:
    """Wait for a forked coordinator within ``KILL_TIMEOUT_S``; its
    exit code.  Polls instead of joining: the coordinator's own workers
    inherit its join sentinel."""
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while proc.is_alive():
        if time.monotonic() > deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.join(10)
            raise AssertionError(
                f"{cell.name}: the {what} coordinator overran the "
                f"{KILL_TIMEOUT_S:.0f}s budget and was killed")
        time.sleep(0.02)
    return proc.exitcode


def _killed_digest(split, cell: Cell) -> str:
    """Fork a coordinator that SIGKILLs itself mid-run, then a second
    one that resumes from its checkpoints; the resumed run's digest."""
    ctx = mp.get_context("fork")
    with tempfile.TemporaryDirectory() as tmp:
        done = Path(tmp, "RESULT.json")
        victim = ctx.Process(target=_coordinator,
                             args=(split, cell, tmp, True))
        victim.start()
        code = _reap(cell, victim, "victim")
        if code != -signal.SIGKILL or done.exists():
            raise AssertionError(
                f"{cell.name}: the victim exited with {code}, expected "
                f"{-signal.SIGKILL}" + (" — the kill never landed"
                                        if done.exists() else ""))
        resumer = ctx.Process(target=_coordinator,
                              args=(split, cell, tmp, False))
        resumer.start()
        code = _reap(cell, resumer, "resumed")
        if code != 0 or not done.exists():
            raise AssertionError(
                f"{cell.name}: the resumed coordinator exited with {code}"
                " and recorded no digest")
        doc = json.loads(done.read_text())
    if doc["resumed_from"] is None:
        raise AssertionError(f"{cell.name}: the resumed coordinator "
                             "started fresh instead of loading the "
                             "checkpoint")
    return doc["digest"]


def run_cell(split, cell: Cell, twins: Optional[dict] = None) -> str:
    """Train one cell and return its digest.

    A resume cell trains with durable checkpoints, is crashed by a
    round hook and resumed from the directory; a kill cell is SIGKILLed
    in a forked coordinator and resumed in another.  A faulted cell
    must pass :func:`check_faulted` against its fault-free twin, taken
    from ``twins`` (fault-free results by cell name) or trained now.
    """
    from repro.checkpoint import load_checkpoint, rebuild_trainer
    from repro.distributed.trainer import set_round_hook

    if cell.kill:
        return _killed_digest(split, cell)
    if cell.resume:
        with tempfile.TemporaryDirectory() as tmp:
            previous = set_round_hook(_crash_hook)
            try:
                train_cell(split, cell, checkpoint_dir=tmp)
                raise AssertionError(f"{cell.name}: the crash never fired")
            except _Crash:
                pass
            finally:
                set_round_hook(previous)
            meta, state = load_checkpoint(tmp)
            return rebuild_trainer(meta, state, split).train().digest()
    twins = {} if twins is None else twins
    started = time.perf_counter()
    result = train_cell(split, cell)
    wall_s = time.perf_counter() - started
    if cell.plan == "none":
        twins[cell.name] = result
    else:
        twin = cell._replace(plan="none", policy="drop", observe=False)
        if twin.name not in twins:
            twins[twin.name] = train_cell(split, twin)
        check_faulted(cell, result, twins[twin.name], wall_s)
    return result.digest()


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
    twins: Dict[str, object] = {}
    return _digests(cells, lambda cell: run_cell(split, cell, twins),
                    verbose)


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
                 "dot", "sweep")
SERVE_SEED = 11
SERVE_NODES = 400
SERVE_REQUESTS = 240
#: The ``sweep`` regime's graph: large enough that a top-k sweep spans
#: three decoder chunks of ``SWEEP_CHUNK`` rows, the last one > 1 row.
SWEEP_NODES = 1300
#: The ``swap`` cell switches model versions at this admission sequence.
SERVE_SWAP_SEQ = 97


class ScoreCell(NamedTuple):
    """One ``DistributedScorer`` pass: a fanout mode on a backend."""

    mode: str       # "full" | "sampled"
    backend: str

    @property
    def name(self) -> str:
        """``score/mode/backend``."""
        return f"score/{self.mode}/{self.backend}"


#: Fanouts of each score mode.
SCORE_FANOUTS = {"full": (-1, -1), "sampled": (5, 5)}
#: Pairs per scorer batch: each shard's share runs several batches.
SCORE_BATCH = 64


def serve_cells() -> List[object]:
    """Every serve and score cell (all of them fit the tier-1 budget)."""
    return ([ServeCell(regime, backend) for regime in SERVE_REGIMES
             for backend in BACKENDS]
            + [ScoreCell(mode, backend) for mode in SCORE_FANOUTS
               for backend in BACKENDS])


def serve_fixture(num_nodes: int = SERVE_NODES):
    """A serve graph store, two layout-compatible artifacts per
    decoder kind (``kind -> (old, new)``) and the layout itself."""
    from repro.distributed.store import RemoteGraphStore
    from repro.graph import synthetic_lp_graph
    from repro.nn.models import build_model
    from repro.partition import partition_graph
    from repro.serve import export_servable

    graph = synthetic_lp_graph(num_nodes, 4 * num_nodes, feature_dim=16,
                               rng=np.random.default_rng(SERVE_SEED))
    partitioned = partition_graph(graph, 3,
                                  rng=np.random.default_rng(SERVE_SEED))
    artifacts = {
        kind: tuple(export_servable(
            build_model("sage", 16, hidden_dim=16, num_layers=2,
                        predictor=kind, seed=SERVE_SEED + version),
            partitioned) for version in (0, 1))
        for kind in ("mlp", "dot")}
    return RemoteGraphStore(graph), artifacts, partitioned


def run_serve_cell(fixture, cell: ServeCell) -> str:
    """Serve one cell; a hash of its report digest and counters."""
    from repro.faults import FaultEvent, FaultPlan
    from repro.nn.models import SWEEP_CHUNK
    from repro.serve import (ClosedLoopWorkload, OpenLoopWorkload,
                             ServingCluster, synthetic_requests)

    store, artifacts, _ = fixture
    old, new = artifacts["dot" if cell.regime == "dot" else "mlp"]
    num_nodes = old.num_nodes
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
        SERVE_REQUESTS, num_nodes, seed=SERVE_SEED,
        topk_fraction=0.0 if cell.regime == "pair" else 0.1)
    if cell.regime in ("mixed", "sweep"):
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
    elif cell.regime == "sweep":
        # Every sweep's candidates (all nodes but the query and its
        # neighbours) fill two chunks and leave a tail of >= 2 rows.
        graph = store.graph
        sweeps = [num_nodes - np.union1d(graph.neighbors(o.request.node),
                                         [o.request.node]).size
                  for o in report.completed() if o.topk_nodes is not None]
        assert sweeps and all(2 * SWEEP_CHUNK + 2 <= n < 3 * SWEEP_CHUNK
                              for n in sweeps), sweeps
    if cell.regime not in ("pair", "cache0"):
        assert counters["embed_cache_hits"] > 0, counters
        assert counters["neighbor_cache_misses"] > 0, counters
    return hashlib.sha256((report.digest() + json.dumps(
        counters, sort_keys=True)).encode()).hexdigest()


def run_score_cell(fixture, cell: ScoreCell) -> str:
    """Score the seeded pairs once; a hash of the scores and ledger."""
    from repro.distributed import DistributedScorer
    from repro.nn.models import build_model

    store, _, partitioned = fixture
    model = build_model("sage", 16, hidden_dim=16, num_layers=2,
                        seed=SERVE_SEED)
    pairs = np.random.default_rng(SERVE_SEED).integers(
        0, SERVE_NODES, size=(SERVE_REQUESTS, 2))
    scorer = DistributedScorer(
        model, partitioned, remote=store,
        fanouts=SCORE_FANOUTS[cell.mode], batch_size=SCORE_BATCH,
        rng=np.random.default_rng(SERVE_SEED + 17), backend=cell.backend)
    result = scorer.score(pairs)
    assert min(result.pairs_per_worker) > SCORE_BATCH, result
    digest = hashlib.sha256(result.scores.tobytes())
    digest.update(json.dumps(
        [result.comm.to_dict(), result.pairs_per_worker,
         result.rerouted_pairs], sort_keys=True).encode())
    return digest.hexdigest()


def compute_serve(cells, verbose: bool = False) -> Dict[str, str]:
    """Golden value of every given serve or score cell, keyed by cell
    name."""
    fixtures = {}

    def run(cell) -> str:
        nodes = (SWEEP_NODES if getattr(cell, "regime", "") == "sweep"
                 else SERVE_NODES)
        if nodes not in fixtures:
            fixtures[nodes] = serve_fixture(nodes)
        if isinstance(cell, ScoreCell):
            return run_score_cell(fixtures[nodes], cell)
        return run_serve_cell(fixtures[nodes], cell)

    return _digests(cells, run, verbose)


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
        train += resume_cells() + kill_cells()
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
