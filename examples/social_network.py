#!/usr/bin/env python
"""Friend recommendation on a social network (framework comparison).

The paper's motivating domain: predict missing friendships.  This
example builds a community-structured social graph, then compares how
the distributed training regime affects recommendation quality:

* centralized training (the reference),
* PSGD-PA (vanilla METIS partitions, local negatives only),
* SpLPG (mirrored partitions + sparsified global negatives),

and prints accuracy alongside the per-epoch communication bill —
the trade-off the paper is about.

Run:  python examples/social_network.py
"""

import numpy as np

from repro import PAPER_LABELS, TrainConfig, split_edges
from repro.core import run_framework
from repro.graph import synthetic_lp_graph


def build_social_graph(rng: np.random.Generator):
    """A power-law friendship graph with tight communities."""
    return synthetic_lp_graph(
        num_nodes=900,
        target_edges=4200,
        feature_dim=48,       # user profile embeddings
        num_communities=12,   # friend circles
        intra_fraction=0.92,  # most friendships stay inside a circle
        exponent=2.3,         # a few highly connected users
        rng=rng,
    )


def main() -> None:
    rng = np.random.default_rng(7)
    graph = build_social_graph(rng)
    print(f"Social graph: {graph.num_nodes} users, "
          f"{graph.num_edges} friendships")

    split = split_edges(graph, rng=rng)
    config = TrainConfig(
        gnn_type="sage",
        hidden_dim=48,
        num_layers=2,
        fanouts=(10, 5),
        batch_size=128,
        epochs=12,
        hits_k=50,
        eval_every=3,
        seed=1,
    )

    print(f"\n{'framework':<14} {'Hits@50':>8} {'AUC':>7} "
          f"{'comm MB/epoch':>14}")
    print("-" * 47)
    for name in ("centralized", "psgd_pa", "splpg"):
        parts = 1 if name == "centralized" else 4
        result = run_framework(name, split, num_parts=parts, config=config,
                               rng=np.random.default_rng(3))
        comm_mb = result.graph_data_gb_per_epoch * 1024
        print(f"{PAPER_LABELS[name]:<14} {result.test.hits:>8.3f} "
              f"{result.test.auc:>7.3f} {comm_mb:>14.3f}")

    print("\nReading: PSGD-PA pays nothing in communication but loses "
          "accuracy to\nfragmented neighborhoods and local-only negatives; "
          "SpLPG recovers most of\nthe centralized accuracy at a fraction "
          "of full data-sharing cost.")


if __name__ == "__main__":
    main()
