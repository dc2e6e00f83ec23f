"""The shared fixture and the four benchmark workloads.

Every workload is one function of a :class:`Context`: it builds its
inputs from ``ctx.seed``, runs ``ctx.cycles`` cycles (epochs, ``serve()``
calls, ticks), calls ``ctx.mark()`` at each segment boundary of its
measured phase and returns an :class:`Outcome`.  A cycle is one segment,
except in training, where every round is a segment (so the fine-grained
median in :func:`typical_cycle_s` can shed short host stalls).  All
loops are closed: the next segment starts when the previous one
returns.  Everything before the first marker is set-up; a context built
with ``setup_only=True`` stops the workload there, which is how set-up
is timed several times per run.

The program only ever sees generated inputs and its own
``TrainConfig(seed=)`` / ``StreamConfig(seed=)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import Session
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed.store import RemoteGraphStore
from repro.distributed.trainer import TrainConfig, set_round_hook
from repro.eval.metrics import auc
from repro.graph import synthetic_lp_graph
from repro.graph.splits import EdgeSplit, split_edges
from repro.serve import (
    ClosedLoopWorkload,
    ScoreRequest,
    ServingCluster,
    TopKRequest,
)
from repro.stream import StreamConfig
from repro.stream.plan import ArrivalPlan

#: GraphSAGE, 2 layers — the model every workload trains or serves.
MODEL = dict(gnn_type="sage", hidden_dim=64, num_layers=2,
             fanouts=(10, 5), batch_size=256)


@dataclass(frozen=True)
class Scale:
    """Input sizes: the full benchmark, or the ``--smoke`` miniature."""

    num_nodes: int
    target_edges: int
    serve_requests: int      # per serve() call in serve_mixed
    stream_requests: int     # per tick in stream_steady
    stream_events: float     # multiplier on the per-tick event rates


FULL = Scale(num_nodes=4000, target_edges=20000, serve_requests=4000,
             stream_requests=400, stream_events=1.0)
SMOKE = Scale(num_nodes=600, target_edges=2400, serve_requests=300,
              stream_requests=60, stream_events=0.25)


class SetupDone(Exception):
    """Raised by the first marker of a set-up-only context."""


@dataclass
class Context:
    """What one execution of a workload is given, and its markers."""

    seed: int
    cycles: int
    scale: Scale = FULL
    tracer: Optional[object] = None
    setup_only: bool = False
    started: float = field(default_factory=perf_counter)
    marks: List[float] = field(default_factory=list)

    def mark(self) -> None:
        """Record one segment boundary — a timestamp and nothing else."""
        now = perf_counter()
        self.marks.append(now)
        if len(self.marks) == 1:
            if self.setup_only:
                raise SetupDone
            if self.tracer is not None:
                self.tracer.begin_run(now)


@dataclass
class Outcome:
    """What a workload's measured phase produced."""

    items: int                    # items processed over all cycles
    quality_auc: float
    comm: Dict[str, int]          # feature / structure / sync bytes
    attempted: int
    failed: int
    digest: str
    #: Output checks that failed (empty when the outputs are correct).
    problems: List[str] = field(default_factory=list)
    #: Segments (markers) per cycle; the same in every cycle.
    steps: int = 1


def typical_cycle_s(marks: List[float], steps: int) -> float:
    """Seconds a typical cycle takes: for each segment position within
    a cycle the median over the cycles, summed over the positions.

    With one segment per cycle this is the median segment; with many
    (training rounds, the last of which carries the validation) a
    stall of a second or two spoils one sample per position, not the
    cycle it falls in.
    """
    durations = np.diff(marks)
    if durations.size == 0 or durations.size % steps:
        raise ValueError(f"{durations.size} segments do not divide into "
                         f"cycles of {steps}")
    return float(np.median(durations.reshape(-1, steps), axis=0).sum())


def fixture(seed: int, scale: Scale) -> EdgeSplit:
    """The one seeded graph family every workload runs on."""
    graph = synthetic_lp_graph(
        num_nodes=scale.num_nodes, target_edges=scale.target_edges,
        feature_dim=64, num_communities=8,
        rng=np.random.default_rng(seed))
    return split_edges(graph, rng=np.random.default_rng(seed + 101))


# -- training ----------------------------------------------------------------

def _train(ctx: Context, framework: str, workers: int,
           backend: str) -> Outcome:
    """``ctx.cycles`` epochs, each with its validation; one marker per
    round from the trainer's round hook."""
    split = fixture(ctx.seed, ctx.scale)
    config = TrainConfig(**MODEL, epochs=ctx.cycles, eval_every=1,
                         sync="grad", backend=backend, seed=ctx.seed)
    trainer = build_trainer(FRAMEWORKS[framework], split, workers, config,
                            alpha=0.15,
                            rng=np.random.default_rng(ctx.seed))

    previous = set_round_hook(lambda _trainer, _epoch, _round: ctx.mark())
    try:
        result = trainer.train()
    finally:
        set_round_hook(previous)
    ctx.mark()
    # The positive edges the workers iterate each epoch: a mirrored
    # layout trains a cut edge on both sides, an induced one drops it,
    # so this — not the split's edge count — is the work a seed sets.
    partitioned = trainer.partitioned
    epoch_edges = sum(partitioned.local_graph(part).num_edges
                      for part in range(partitioned.num_parts))
    return Outcome(
        items=ctx.cycles * epoch_edges,
        quality_auc=float(result.test.auc),
        comm=result.comm_total.to_dict(),
        attempted=sum(s.rounds for s in result.history) * workers,
        failed=int(result.dropped_contributions),
        digest=result.digest(), steps=result.history[0].rounds)


def train_splpg_serial(ctx: Context) -> Outcome:
    """SpLPG as the paper runs it, every worker-side layer in-process."""
    return _train(ctx, "splpg", workers=4, backend="serial")


def train_psgdpa_process(ctx: Context) -> Outcome:
    """Local-only PSGD-PA with one pipe round-trip per round."""
    return _train(ctx, "psgd_pa", workers=2, backend="process")


# -- serving -----------------------------------------------------------------

def _pretrain(split: EdgeSplit, seed: int, mirror: bool) -> Session:
    """The short PSGD-PA run that gives serve/stream a model."""
    session = (Session(split).framework("psgd_pa").backend("serial")
               .configure(**MODEL, epochs=2, eval_every=1, seed=seed))
    if mirror:
        session.partition(4, "metis", mirror=True)
    else:
        session.partition(4)
    session.train()
    return session


def labelled_pairs(split: EdgeSplit):
    """The split's test pairs and their ``(u, v) -> label`` table."""
    pairs = np.concatenate([split.test_pos, split.test_neg])
    labels = {(int(u), int(v)): 1 for u, v in split.test_pos}
    labels.update({(int(u), int(v)): 0 for u, v in split.test_neg})
    return pairs, labels


def draw_requests(pairs: np.ndarray, rng: np.random.Generator, count: int,
                  topk_fraction: float = 0.015) -> list:
    """``count`` requests over ``pairs``: pair scores, and exactly a
    ``topk_fraction`` of top-10 recommendations for the pair's source
    (a top-k costs ~90 pair scores, so a drawn count would make the
    work per call a matter of luck)."""
    drawn = pairs[rng.integers(0, pairs.shape[0], size=count)]
    topk = np.zeros(count, dtype=bool)
    topk[rng.choice(count, size=round(count * topk_fraction),
                    replace=False)] = True
    return [TopKRequest(node=int(u), k=10) if is_topk
            else ScoreRequest(u=int(u), v=int(v))
            for (u, v), is_topk in zip(drawn, topk)]


def serve_mixed(ctx: Context) -> Outcome:
    """Forward-only decoding under a closed loop of 16 clients."""
    split = fixture(ctx.seed, ctx.scale)
    session = _pretrain(split, ctx.seed, mirror=False)
    cluster = ServingCluster(
        session.export(), backend="serial",
        store=RemoteGraphStore(split.train_graph), max_batch=8,
        max_queue=64, embed_cache=512, neighbor_cache=128)
    pairs, labels = labelled_pairs(split)
    rng = np.random.default_rng([ctx.seed, 17])
    calls = [draw_requests(pairs, rng, ctx.scale.serve_requests)
             for _ in range(ctx.cycles)]

    reports = []
    with cluster:
        for requests in calls:
            ctx.mark()
            reports.append(cluster.serve(ClosedLoopWorkload(
                requests, num_clients=16, think_time_s=5e-4)))
        ctx.mark()

    scores = {0: [], 1: []}
    problems: List[str] = []
    failed = 0
    comm = {"feature_bytes": 0, "structure_bytes": 0, "sync_bytes": 0}
    for report in reports:
        for key, value in report.comm.to_dict().items():
            comm[key] += value
        for outcome in report.outcomes:
            request = outcome.request
            if outcome.status != "ok":
                failed += 1
            elif isinstance(request, ScoreRequest):
                if outcome.score is None:
                    problems.append(f"request {outcome.index}: no score")
                else:
                    scores[labels[(request.u, request.v)]].append(
                        outcome.score)
            elif (outcome.topk_nodes is None
                  or len(outcome.topk_nodes) != request.k):
                problems.append(f"request {outcome.index}: top-k size")
    attempted = sum(len(r.outcomes) for r in reports)
    if attempted != ctx.cycles * ctx.scale.serve_requests:
        problems.append("completed + failed != attempted")
    return Outcome(
        items=attempted,
        quality_auc=float(auc(scores[1], scores[0])),
        comm=comm, attempted=attempted, failed=failed,
        digest=hashlib.sha256("".join(
            r.digest() for r in reports).encode()).hexdigest(),
        problems=problems[:5])


# -- streaming ---------------------------------------------------------------

def stream_steady(ctx: Context) -> Outcome:
    """``ctx.cycles`` ticks of insert/delete/drift + serve; one
    marker per tick around ``ArrivalPlan.events_at``."""
    split = fixture(ctx.seed, ctx.scale)
    session = _pretrain(split, ctx.seed, mirror=True)
    events = ctx.scale.stream_events
    config = StreamConfig(
        ticks=ctx.cycles, seed=ctx.seed, inserts_per_tick=40 * events,
        deletes_per_tick=10 * events, drifts_per_tick=10 * events,
        requests_per_tick=ctx.scale.stream_requests, topk_fraction=0.015,
        refresh="frontier", embed_batch=64, max_batch=8)
    events_at = ArrivalPlan.events_at

    def marked(plan, tick):
        ctx.mark()
        return events_at(plan, tick)

    ArrivalPlan.events_at = marked
    try:
        report = session.stream(config)
    finally:
        ArrivalPlan.events_at = events_at
    ctx.mark()

    counters = report.counters
    gated = [r.gate_auc for r in report.records
             if not np.isnan(r.gate_auc)]
    problems = []
    if len(report.records) != ctx.cycles:
        problems.append("tick records != ticks")
    if not gated:
        problems.append("no tick was gated")
    comm = {kind: sum(v for k, v in report.comm.items() if k.endswith(kind))
            for kind in ("feature_bytes", "structure_bytes", "sync_bytes")}
    return Outcome(
        items=(counters["inserted"] + counters["deleted"]
               + counters["drifted"]),
        quality_auc=float(np.mean(gated)) if gated else float("nan"),
        comm=comm, attempted=counters["requests"],
        failed=counters["requests"] - counters["completed"],
        digest=report.digest(), problems=problems)


@dataclass(frozen=True)
class Workload:
    """A workload function plus what the runner needs to schedule it."""

    run: Callable[[Context], Outcome]
    #: Wall seconds one cycle takes on the reference host; turns
    #: ``--seconds`` into a cycle count (never fewer than 3).
    cycle_s: float
    #: How many times set-up is timed in an untraced run.
    setup_repeats: int
    #: Lowest ``quality_auc`` a full-size run may report.
    min_auc: float


WORKLOADS: Dict[str, Workload] = {
    "train_splpg_serial": Workload(train_splpg_serial, 2.7, 3, 0.75),
    "train_psgdpa_process": Workload(train_psgdpa_process, 1.8, 3, 0.75),
    "serve_mixed": Workload(serve_mixed, 0.6, 2, 0.65),
    "stream_steady": Workload(stream_steady, 1.0, 2, 0.60),
}
