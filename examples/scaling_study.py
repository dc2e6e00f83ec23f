#!/usr/bin/env python
"""Scaling study: partitions, models, and where the bytes go.

A systems-flavored example: sweep the worker count p for SpLPG on a
Pubmed-like graph, break the communication bill into feature vs
structure bytes, and show the partitioner quality numbers (edge cut,
balance, replication factor) that drive them.

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro import TrainConfig, load_dataset, split_edges
from repro.core import run_framework
from repro.partition import edge_cut, partition_balance, partition_graph
from repro.sparsify import sparsify_partitions


def main() -> None:
    rng = np.random.default_rng(3)
    graph = load_dataset("pubmed", scale=0.12, feature_dim=64)
    print(f"Graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{graph.feature_dim}-dim features")
    split = split_edges(graph, rng=rng)

    config = TrainConfig(
        gnn_type="sage",
        hidden_dim=48,
        num_layers=2,
        fanouts=(10, 5),
        batch_size=256,
        epochs=4,
        hits_k=50,
        eval_every=4,
        seed=4,
    )

    print("\n-- Partitioner quality (mini-METIS, mirrored storage) --")
    print(f"{'p':>3} {'edge cut':>9} {'cut %':>7} {'balance':>8} "
          f"{'replication':>12}")
    for p in (2, 4, 8):
        pg = partition_graph(split.train_graph, p, "metis",
                             rng=np.random.default_rng(p), mirror=True)
        cut = edge_cut(split.train_graph, pg.assignment)
        print(f"{p:>3} {cut:>9} {cut / split.train_graph.num_edges:>7.1%} "
              f"{partition_balance(pg.assignment, p):>8.3f} "
              f"{pg.replication_factor():>12.3f}")

    print("\n-- SpLPG communication breakdown per epoch --")
    print(f"{'p':>3} {'features MB':>12} {'structure MB':>13} "
          f"{'total MB':>9} {'Hits@50':>8}")
    for p in (2, 4, 8):
        result = run_framework("splpg", split, num_parts=p, config=config,
                               rng=np.random.default_rng(p))
        epochs = len(result.history)
        feat_mb = result.comm_total.feature_bytes / epochs / 2**20
        struct_mb = result.comm_total.structure_bytes / epochs / 2**20
        print(f"{p:>3} {feat_mb:>12.3f} {struct_mb:>13.3f} "
              f"{feat_mb + struct_mb:>9.3f} {result.test.hits:>8.3f}")

    print("\n-- Sparsifier throughput --")
    pg = partition_graph(split.train_graph, 4, "metis",
                         rng=np.random.default_rng(1), mirror=True)
    for alpha in (0.05, 0.15, 0.30):
        sparsified = sparsify_partitions(pg, alpha=alpha,
                                         rng=np.random.default_rng(1))
        total = sum(part.num_edges for part in pg.parts)
        print(f"  alpha={alpha:.2f}: kept "
              f"{sparsified.total_edges()}/{total} edges in "
              f"{sparsified.elapsed_seconds * 1e3:.1f} ms")

    print("\nReading: feature bytes dominate the bill (the paper's "
          "observation that\nnode features are the heavy payload), and "
          "both buckets grow with p as\nmore negative destinations land "
          "in remote partitions.")


if __name__ == "__main__":
    main()
