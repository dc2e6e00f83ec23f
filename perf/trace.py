"""In-memory span tracer for the benchmark's traced pass.

The traced pass wraps a declared list of *public* callables of the
program (:data:`TARGETS`) so that every call records one span —
``[layer, start, end, parent]`` on ``time.perf_counter`` — in a list
that is only read after the run.  Nothing under ``src/`` changes: the
wrappers are installed from here, around the calls into each layer,
and only in the traced pass, so the untraced pass that yields the
end-to-end metrics runs the program exactly as shipped.

A layer's **self time** is its spans' duration minus the part their
child spans cover, so self times of all layers sum to the wall clock
the top-level spans cover; what is left of the measured phase is the
``trace.residual_share``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: The ExecutionBackend contract, by the layer each method is billed to.
_BACKEND_METHODS = {
    "bind": "backends.bind_s",
    "train_round": "backends.train_round_s",
    "apply_gradients": "backends.sync_s",
    "step_all": "backends.sync_s",
    "step_participants": "backends.sync_s",
    "sync_models": "backends.sync_s",
    "collect_gradients": "backends.sync_s",
    "load_worker_model": "backends.sync_s",
    "refresh_eval_model": "backends.refresh_eval_s",
    # Loader iteration: reported inside ``backends.train_round_s`` but
    # kept apart so round durations are those of ``train_round`` alone.
    "begin_epoch": "backends.poll_s",
    "poll_batches": "backends.poll_s",
}

#: Layers whose time is set-up, read from before the first marker.
_SETUP_LAYERS = ("partition.build_s", "sparsify.build_s",
                 "backends.bind_s", "serve.export_s")

#: Layers read from the measured phase.
_RUN_LAYERS = (
    "sampling.neighbor_s", "sampling.negative_s", "store.neighbors_s",
    "store.fetch_s", "nn.forward_s", "nn.loss_s", "nn.backward_s",
    "nn.optim_s", "backends.train_round_s", "backends.sync_s",
    "backends.refresh_eval_s", "eval.validate_s", "eval.test_s",
    "serve.plan_s", "serve.execute_s", "stream.apply_s", "stream.patch_s",
    "stream.frontier_s", "stream.reembed_s", "stream.artifact_s",
    "stream.gate_s", "stream.fingerprint_s")

#: Counts reported under the name they are taken under.
_COUNTS = (
    "sampling.neighbor_calls", "sampling.mfg_edges",
    "sampling.negative_pairs", "store.neighbors_calls", "store.fetch_rows",
    "sync.events", "eval.pairs_scored", "serve.flushes", "serve.shed",
    "stream.events", "stream.frontier_nodes", "stream.reembed_rows",
    "stream.swaps", "stream.rollbacks")


def _note_partition(tracer, args, result) -> None:
    tracer.gauge("partition.replication_factor",
                 result.replication_factor())


def _note_sparsify(tracer, args, result) -> None:
    partitioned = args[0]
    before = sum(partitioned.local_graph(p).num_edges
                 for p in range(partitioned.num_parts))
    tracer.gauge("sparsify.kept_edge_share",
                 result.total_edges() / max(before, 1))


def _note_sample(tracer, args, result) -> None:
    tracer.add("sampling.neighbor_calls", 1)
    tracer.add("sampling.mfg_edges",
               sum(block.num_edges for block in result.blocks))


def _note_negative(tracer, args, result) -> None:
    tracer.add("sampling.negative_pairs", int(result.shape[0]))


def _note_view_neighbors(tracer, args, result) -> None:
    tracer.add("store.neighbors_calls", 1)


def _note_view_fetch(tracer, args, result) -> None:
    tracer.add("store.fetch_rows", int(result.shape[0]))


def _note_remote_fetch(tracer, args, result) -> None:
    tracer.add("store.remote_rows", int(result.shape[0]))


def _note_sync(tracer, args, result) -> None:
    tracer.add("sync.events", 1)


def _note_validate(tracer, args, result) -> None:
    split = args[0].split
    tracer.add("eval.pairs_scored",
               int(split.val_pos.shape[0] + split.val_neg.shape[0]))


def _note_test(tracer, args, result) -> None:
    split = args[0].split
    tracer.add("eval.pairs_scored",
               int(split.test_pos.shape[0] + split.test_neg.shape[0]))


def _note_serve(tracer, args, result) -> None:
    counters = result.counters
    for key in ("requests", "flushes", "shed", "embed_cache_hits",
                "embed_cache_misses", "neighbor_cache_hits",
                "neighbor_cache_misses"):
        tracer.add(f"serve.{key}", counters.get(key, 0))
    tracer.samples.setdefault("serve.sim_latency_s", []).extend(
        result.latencies_s().tolist())


def _note_apply(tracer, args, result) -> None:
    tracer.add("stream.events", int(result.inserted.shape[0])
               + int(result.deleted.shape[0]) + int(result.drifted.size))


def _note_frontier(tracer, args, result) -> None:
    tracer.add("stream.frontier_nodes", int(result.size))


def _note_reembed(tracer, args, result) -> None:
    tracer.add("stream.reembed_rows", int(result))


def _note_gate(tracer, args, result) -> None:
    tracer.add("stream.swaps" if result.accepted else "stream.rollbacks",
               1)


#: Layers traced as leaves: calls made under them are not split out,
#: so ``sampling.*``/``nn.*`` read training and re-embedding only while
#: evaluation, export and partitioning each read as one whole.
_LEAF_LAYERS = ("partition.build_s", "sparsify.build_s", "eval.validate_s",
                "eval.test_s", "serve.export_s")

#: ``(module, qualified name, layer, note)``: every callable the
#: traced pass wraps.  ``note(tracer, args, result)`` records counts at
#: the same boundary the span is taken.
TARGETS = [
    ("repro.partition.registry", "PartitionSpec.build",
     "partition.build_s", _note_partition),
    ("repro.sparsify.partition_sparsifier", "sparsify_partitions",
     "sparsify.build_s", _note_sparsify),
    ("repro.sampling.neighbor", "NeighborSampler.sample",
     "sampling.neighbor_s", _note_sample),
    ("repro.sampling.negative", "PerSourceUniformNegativeSampler.sample",
     "sampling.negative_s", _note_negative),
    ("repro.sampling.negative", "DegreeWeightedNegativeSampler.sample",
     "sampling.negative_s", _note_negative),
    ("repro.sampling.negative", "InBatchNegativeSampler.sample",
     "sampling.negative_s", _note_negative),
    ("repro.sampling.negative", "GlobalUniformNegativeSampler.sample",
     "sampling.negative_s", _note_negative),
    ("repro.distributed.views", "WorkerGraphView.neighbors_batch",
     "store.neighbors_s", _note_view_neighbors),
    ("repro.distributed.views", "WorkerGraphView.fetch_features",
     "store.fetch_s", _note_view_fetch),
    ("repro.distributed.store", "RemoteGraphStore.neighbors_batch",
     "store.neighbors_s", None),
    ("repro.distributed.store",
     "RemoteGraphStore.complete_neighbors_batch",
     "store.neighbors_s", None),
    ("repro.distributed.store", "RemoteGraphStore.fetch_features",
     "store.fetch_s", _note_remote_fetch),
    ("repro.distributed.store", "SparsifiedRemoteStore.neighbors_batch",
     "store.neighbors_s", None),
    ("repro.distributed.store", "SparsifiedRemoteStore.fetch_features",
     "store.fetch_s", _note_remote_fetch),
    ("repro.nn.models", "LinkPredictionModel.forward",
     "nn.forward_s", None),
    ("repro.nn.models", "LinkPredictionModel.embed",
     "nn.forward_s", None),
    ("repro.nn.models", "LinkPredictionModel.score_pairs",
     "nn.forward_s", None),
    ("repro.nn.loss", "bce_with_logits", "nn.loss_s", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward_s", None),
    ("repro.nn.optim", "Optimizer.zero_grad", "nn.optim_s", None),
    ("repro.nn.optim", "Adam.step", "nn.optim_s", None),
    ("repro.eval.evaluator", "Evaluator.validate",
     "eval.validate_s", _note_validate),
    ("repro.eval.evaluator", "Evaluator.test", "eval.test_s", _note_test),
    ("repro.serve.artifact", "export_servable", "serve.export_s", None),
    ("repro.serve.scheduler", "MicroBatchScheduler.run",
     "serve.plan_s", None),
    ("repro.serve.cluster", "ServingCluster.serve",
     "serve.execute_s", _note_serve),
    ("repro.stream.mutable", "MutableGraph.apply",
     "stream.apply_s", _note_apply),
    ("repro.stream.mutable", "MutableGraph.snapshot",
     "stream.apply_s", None),
    ("repro.stream.mutable", "MutableGraph.fingerprint",
     "stream.fingerprint_s", None),
    ("repro.stream.shards", "ShardedState.apply_delta",
     "stream.patch_s", None),
    ("repro.stream.shards", "ShardedState.needs_rebalance",
     "stream.patch_s", None),
    ("repro.stream.shards", "ShardedState.rebalance",
     "stream.patch_s", None),
    ("repro.stream.shards", "ShardedState.fingerprint",
     "stream.fingerprint_s", None),
    ("repro.stream.reembed", "affected_frontier",
     "stream.frontier_s", _note_frontier),
    ("repro.stream.reembed", "Reembedder.full_refresh",
     "stream.reembed_s", _note_reembed),
    ("repro.stream.reembed", "Reembedder.frontier_refresh",
     "stream.reembed_s", _note_reembed),
    ("repro.stream.reembed", "Reembedder.make_artifact",
     "stream.artifact_s", None),
    ("repro.serve.artifact", "ServableArtifact.checksum",
     "stream.artifact_s", None),
    ("repro.serve.requests", "ServeReport.digest",
     "stream.fingerprint_s", None),
    ("repro.stream.rollout", "RolloutGate.evaluate",
     "stream.gate_s", _note_gate),
]


class Tracer:
    """Span list + counters of one traced run."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1]`` per call.
        self.spans: List[list] = []
        #: Additive counts taken during the measured phase.
        self.counts: Dict[str, float] = {}
        #: Last-value readings (taken in any phase).
        self.gauges: Dict[str, float] = {}
        #: Raw samples for percentiles, by name.
        self.samples: Dict[str, List[float]] = {}
        #: Start of the measured phase; ``None`` while setting up.
        self.run_t0: Optional[float] = None
        #: End of the measured phase, set when the metrics are read.
        self.run_t1 = float("inf")
        self._stack: List[int] = []
        #: Open leaf spans; while non-zero, nested calls are not traced.
        self._muted = 0

    # -- recording -------------------------------------------------------

    def begin_run(self, now: float) -> None:
        """The first segment marker: set-up ends, measurement starts."""
        self.run_t0 = now

    def add(self, name: str, amount: float) -> None:
        """Count ``amount`` under ``name`` (measured phase only)."""
        if self.run_t0 is not None:
            self.counts[name] = self.counts.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record the latest reading of ``name``."""
        self.gauges[name] = float(value)

    def wrap(self, fn: Callable, layer: str,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` with one span (and ``note``'s counts) per call."""
        spans, stack = self.spans, self._stack
        leaf = layer in _LEAF_LAYERS

        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            self._muted += leaf
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(self, args, result)
                return result
            finally:
                self._muted -= leaf
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every callable in :data:`TARGETS`, and each backend's
        own implementation of the ExecutionBackend contract, in place.

        Methods are replaced on the class that defines them; module
        functions are replaced in every loaded ``repro`` module that
        holds a reference (``from x import f`` copies the name).
        """
        backends = importlib.import_module("repro.distributed.backends")
        contract = [
            ("repro.distributed.backends", f"{cls}.{method}", layer,
             _note_sync if method in ("apply_gradients", "sync_models")
             else None)
            for cls in ("SerialBackend", "ThreadBackend", "ProcessBackend")
            for method, layer in _BACKEND_METHODS.items()
            if method in vars(getattr(backends, cls))]
        for module_name, qualname, layer, note in TARGETS + contract:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr,
                        self.wrap(vars(owner)[attr], layer, note))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, layer, note)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, name, wrapped)

    # -- reading ---------------------------------------------------------

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """Summed self time per layer, split ``{"setup": .., "run": ..}``
        by whether the span started before the first segment marker."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {"setup": {}, "run": {}}
        for (layer, start, end, _), child in zip(self.spans, covered):
            phase = out["run" if self._in_run(start) else "setup"]
            phase[layer] = phase.get(layer, 0.0) + (end - start) - child
        return out

    def durations(self, layer: str) -> List[float]:
        """Inclusive seconds of each measured-phase span of ``layer``."""
        return [end - start for name, start, end, _ in self.spans
                if name == layer and self._in_run(start)]

    def top_level_seconds(self) -> float:
        """Wall clock the measured phase's outermost spans cover."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0 and self._in_run(start))

    def run_span_count(self) -> int:
        """Spans recorded during the measured phase."""
        return sum(self._in_run(span[1]) for span in self.spans)

    def _in_run(self, start: float) -> bool:
        return (self.run_t0 is not None
                and self.run_t0 <= start < self.run_t1)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op against a bare one."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    costs = []
    for _ in range(5):
        started = perf_counter()
        for _ in range(calls):
            traced()
        middle = perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((middle - started) - (perf_counter() - middle))
                     / calls)
    return max(statistics.median(costs), 0.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0.0 when empty)."""
    if not values:
        return 0.0
    return float(np.percentile(values, q, method="inverted_cdf"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, marks: List[float],
                  comm: Dict[str, int], span_cost: float
                  ) -> Dict[str, float]:
    """Every traced per-layer metric, by its ``BENCHMARK.json`` name.

    ``marks`` are the run's segment boundaries, ``comm`` the measured
    phase's CommMeter ledger and ``span_cost`` the calibrated cost of
    one span (:func:`span_cost_s`).  A layer that did not run reads 0.
    """
    run_s = marks[-1] - marks[0]
    tracer.run_t1 = marks[-1]
    seconds = tracer.self_seconds()
    counts = tracer.counts
    out = {name: seconds["setup"].get(name, 0.0) for name in _SETUP_LAYERS}
    out.update({name: seconds["run"].get(name, 0.0)
                for name in _RUN_LAYERS})
    out["backends.train_round_s"] += seconds["run"].get(
        "backends.poll_s", 0.0)
    out.update({name: counts.get(name, 0) for name in _COUNTS})
    for name in ("partition.replication_factor",
                 "sparsify.kept_edge_share"):
        out[name] = tracer.gauges.get(name, 0.0)
    out["store.feature_bytes"] = comm["feature_bytes"]
    out["store.structure_bytes"] = comm["structure_bytes"]
    out["store.remote_row_share"] = _ratio(
        counts.get("store.remote_rows", 0), out["store.fetch_rows"])
    out["sync.bytes"] = comm["sync_bytes"]

    rounds = tracer.durations("backends.train_round_s")
    out["backends.rounds"] = len(rounds)
    out["backends.round_ms_p50"] = 1e3 * percentile(rounds, 50)
    out["backends.round_ms_p90"] = 1e3 * percentile(rounds, 90)

    calls = tracer.durations("serve.execute_s")
    served = counts.get("serve.requests", 0) - out["serve.shed"]
    out["serve.mean_batch"] = _ratio(served, out["serve.flushes"])
    for cache in ("embed", "neighbor"):
        hits = counts.get(f"serve.{cache}_cache_hits", 0)
        out[f"serve.{cache}_cache_hit_rate"] = _ratio(
            hits, hits + counts.get(f"serve.{cache}_cache_misses", 0))
    out["serve.call_ms_p50"] = 1e3 * percentile(calls, 50)
    out["serve.call_ms_p90"] = 1e3 * percentile(calls, 90)
    latencies = tracer.samples.get("serve.sim_latency_s", [])
    out["serve.sim_latency_ms_p50"] = 1e3 * percentile(latencies, 50)
    out["serve.sim_latency_ms_p99"] = 1e3 * percentile(latencies, 99)

    # Stream-only readings: the tick's serve() time (inclusive, so not
    # part of the self-time sum) and the tick duration itself.
    streaming = "stream.apply_s" in seconds["run"]
    ticks = [b - a for a, b in zip(marks, marks[1:])]
    out["stream.serve_s"] = sum(calls) if streaming else 0.0
    out["stream.tick_ms_p50"] = (1e3 * percentile(ticks, 50)
                                 if streaming else 0.0)
    out["stream.reembed_waste"] = _ratio(out["stream.reembed_rows"],
                                         out["stream.frontier_nodes"])

    out["trace.residual_share"] = (
        run_s - tracer.top_level_seconds()) / run_s
    out["trace.overhead_share"] = (
        tracer.run_span_count() * span_cost / run_s)
    return out
