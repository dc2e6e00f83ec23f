#!/usr/bin/env python
"""Citation recommendation with a sparsification-level sweep.

Knowledge-graph-style use case from the paper's introduction: predict
which papers should cite each other.  This example sweeps SpLPG's
sparsification level alpha on a Citeseer-like citation graph and shows
the paper's Table III trade-off — more aggressive sparsification saves
communication but eventually costs accuracy.

Run:  python examples/citation_graph.py
"""

import numpy as np

from repro import SpLPG, TrainConfig, load_dataset, split_edges
from repro.core import run_framework


def main() -> None:
    rng = np.random.default_rng(5)
    graph = load_dataset("citeseer", scale=0.3, feature_dim=64)
    print(f"Citation graph: {graph.num_nodes} papers, "
          f"{graph.num_edges} citation links")

    split = split_edges(graph, rng=rng)
    config = TrainConfig(
        gnn_type="gcn",
        hidden_dim=48,
        num_layers=2,
        fanouts=(10, 5),
        batch_size=128,
        epochs=12,
        hits_k=50,
        eval_every=3,
        seed=2,
    )

    # Reference point: SpLPG+ = complete data sharing, no sparsification.
    plus = run_framework("splpg_plus", split, num_parts=4, config=config,
                         rng=np.random.default_rng(9))
    plus_gb = plus.graph_data_gb_per_epoch
    print(f"\nSpLPG+ (no sparsification): Hits@50={plus.test.hits:.3f}, "
          f"comm={plus_gb * 1024:.2f} MB/epoch")

    print(f"\n{'alpha':>6} {'edges kept':>11} {'Hits@50':>8} "
          f"{'comm MB/ep':>11} {'saving':>7}")
    print("-" * 49)
    for alpha in (0.05, 0.10, 0.15, 0.25):
        framework = SpLPG(num_parts=4, alpha=alpha, config=config, seed=2)
        prepared = framework.prepare(split.train_graph)
        kept = prepared.sparsified.total_edges()
        total = sum(p.num_edges for p in prepared.partitioned.parts)
        result = framework.fit(split)
        gb = result.graph_data_gb_per_epoch
        saving = 1.0 - gb / plus_gb if plus_gb else 0.0
        print(f"{alpha:>6.2f} {kept / total:>10.1%} "
              f"{result.test.hits:>8.3f} {gb * 1024:>11.3f} "
              f"{saving:>7.1%}")

    print("\nReading: alpha around 0.15 keeps ~10-15% of shared-partition "
          "edges,\nsaving the bulk of the transfer while accuracy stays "
          "near the unsparsified\nceiling — the paper's recommended "
          "operating point.")


if __name__ == "__main__":
    main()
