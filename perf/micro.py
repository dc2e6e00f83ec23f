"""Micro-benchmarks of the ROADMAP's named hot-path suspects.

One number per suspect — the median wall time of repeated calls on
fixed seeded inputs cut from the shared fixture — reported as per-layer
metrics next to the traced ``_s`` metric of the same layer.  They run
before the tracer is installed, so they time the program as shipped.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from repro.distributed.comm import CommMeter
from repro.distributed.store import RemoteGraphStore, SparsifiedRemoteStore
from repro.distributed.views import WorkerGraphView
from repro.nn.models import build_model
from repro.nn.tensor import Tensor, gather, segment_softmax, segment_sum
from repro.partition import partition_graph
from repro.sampling.blocks import GraphNeighborSource
from repro.sampling.negative import PerSourceUniformNegativeSampler
from repro.sampling.neighbor import sample_block
from repro.serve import ClosedLoopWorkload, ServingCluster, export_servable
from repro.sparsify.partition_sparsifier import sparsify_partitions

from perf.workloads import MODEL, Scale, draw_requests, fixture, \
    labelled_pairs


def _median_s(call: Callable[[], object], reps: int) -> float:
    """Median seconds of ``reps`` calls, after one warm-up call."""
    call()
    samples = []
    for _ in range(reps):
        started = perf_counter()
        call()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def run_micro(seed: int, scale: Scale, reps: int = 30,
              serve_reps: int = 5) -> Dict[str, float]:
    """Every micro metric, by its ``BENCHMARK.json`` name."""
    split = fixture(seed, scale)
    graph = split.train_graph
    rng = np.random.default_rng([seed, 23])
    seeds = rng.choice(graph.num_nodes, size=min(512, graph.num_nodes),
                       replace=False).astype(np.int64)
    source = GraphNeighborSource(graph)
    out: Dict[str, float] = {}

    # nn: one message-passing block's reductions (512 seeds, fanout 10).
    block = sample_block(source, seeds, 10, np.random.default_rng(seed))
    rows = Tensor(graph.features[block.src_nodes].astype(np.float64),
                  requires_grad=True)
    messages = Tensor(rows.data[block.edge_src])
    out["nn.segment_sum_us"] = 1e6 * _median_s(
        lambda: segment_sum(messages, block.edge_dst, block.num_dst), reps)
    ones = np.ones_like(messages.data)
    # Building the gather node is untimed; only its backward is.
    samples = []
    for _ in range(reps + 1):
        gathered = gather(rows, block.edge_src)
        started = perf_counter()
        gathered.backward(ones)
        samples.append(perf_counter() - started)
    out["nn.gather_backward_us"] = 1e6 * statistics.median(samples[1:])
    scores = Tensor(rng.standard_normal(block.edge_dst.shape[0]))
    out["nn.segment_softmax_us"] = 1e6 * _median_s(
        lambda: segment_softmax(scores, block.edge_dst, block.num_dst),
        reps)

    # sampling
    block_rng = np.random.default_rng([seed, 29])
    out["sampling.sample_block_us"] = 1e6 * _median_s(
        lambda: sample_block(source, seeds, 10, block_rng), reps)
    negatives = PerSourceUniformNegativeSampler(
        graph, rng=np.random.default_rng([seed, 31]))
    sources = seeds[:256]
    out["sampling.negative_us"] = 1e6 * _median_s(
        lambda: negatives.sample(sources), reps)

    # store: worker 0's view over the sparsified remote store, queried
    # for seeds it mostly does not own.
    part_rng = np.random.default_rng(seed)
    partitioned = partition_graph(graph, 4, strategy="metis", rng=part_rng,
                                  mirror=True)
    sparsified = sparsify_partitions(partitioned, alpha=0.15, rng=part_rng)
    view = WorkerGraphView(
        partitioned, 0,
        remote=SparsifiedRemoteStore(graph, sparsified.graphs, partitioned),
        meter=CommMeter())
    out["store.neighbors_batch_us"] = 1e6 * _median_s(
        lambda: view.neighbors_batch(seeds), reps)
    out["store.fetch_features_us"] = 1e6 * _median_s(
        lambda: view.fetch_features(seeds), reps)

    # serve: decoding cost does not depend on the weights, so an
    # untrained model's artifact stands in for a trained one.
    model = build_model(MODEL["gnn_type"], graph.feature_dim,
                        MODEL["hidden_dim"], num_layers=MODEL["num_layers"],
                        seed=seed)
    cluster = ServingCluster(
        export_servable(model, partitioned), backend="serial",
        store=RemoteGraphStore(graph), max_batch=8, max_queue=64,
        embed_cache=512, neighbor_cache=128)
    pairs, _ = labelled_pairs(split)
    request_rng = np.random.default_rng([seed, 37])
    num_pairs = max(1, scale.serve_requests // 2)
    num_topk = max(1, scale.serve_requests // 80)
    pair_only = draw_requests(pairs, request_rng, num_pairs, 0.0)
    topk_only = draw_requests(pairs, request_rng, num_topk, 1.0)

    def serve(requests) -> Callable[[], object]:
        return lambda: cluster.serve(ClosedLoopWorkload(
            requests, num_clients=16, think_time_s=5e-4))

    with cluster:
        out["serve.pair_score_us"] = (
            1e6 * _median_s(serve(pair_only), serve_reps) / num_pairs)
        out["serve.topk_score_ms"] = (
            1e3 * _median_s(serve(topk_only), serve_reps) / num_topk)
    return out
