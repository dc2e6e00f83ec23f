#!/usr/bin/env python
"""How far does a GNN get you?  Heuristics vs embeddings vs GNNs.

The paper's Section II-A surveys the link-prediction toolbox: classical
similarity heuristics, random-walk embeddings (DeepWalk), and GNNs.
This example runs all three families on one graph:

* heuristics — common neighbors, Adamic-Adar, Katz (no training);
* DeepWalk — structure-only skip-gram embeddings;
* GraphSAGE — centralized, and distributed with SpLPG.

GNNs use node features; the others cannot, which is exactly the gap
they are supposed to close.

Run:  python examples/baseline_comparison.py
"""

import numpy as np

from repro import TrainConfig, split_edges
from repro.core import run_framework
from repro.embeddings import deepwalk_embedding
from repro.eval import auc, heuristic_score, hits_at_k
from repro.graph import synthetic_lp_graph


def main() -> None:
    rng = np.random.default_rng(17)
    graph = synthetic_lp_graph(num_nodes=700, target_edges=3000,
                               feature_dim=48, num_communities=10,
                               intra_fraction=0.88, rng=rng)
    split = split_edges(graph, rng=rng)
    print(f"Graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{graph.feature_dim}-dim features\n")

    rows = []

    # --- classical heuristics (no training) --------------------------
    for name in ("common_neighbors", "adamic_adar", "katz"):
        pos = heuristic_score(name, split.train_graph, split.test_pos)
        neg = heuristic_score(name, split.train_graph, split.test_neg)
        rows.append((name, hits_at_k(pos, neg, 50), auc(pos, neg), "-"))

    # --- DeepWalk ------------------------------------------------------
    emb = deepwalk_embedding(split.train_graph, dim=48, num_walks=8,
                             walk_length=30, epochs=3,
                             rng=np.random.default_rng(1))
    pos = emb.score_pairs(split.test_pos)
    neg = emb.score_pairs(split.test_neg)
    rows.append(("deepwalk", hits_at_k(pos, neg, 50), auc(pos, neg), "-"))

    # --- GNNs -----------------------------------------------------------
    config = TrainConfig(gnn_type="sage", hidden_dim=48, num_layers=2,
                         fanouts=(10, 5), batch_size=128, epochs=30,
                         hits_k=50, eval_every=5, seed=2)
    for fw in ("centralized", "splpg"):
        parts = 1 if fw == "centralized" else 4
        res = run_framework(fw, split, num_parts=parts, config=config,
                            rng=np.random.default_rng(3))
        comm = (f"{res.graph_data_gb_per_epoch * 1024:.2f} MB/ep"
                if parts > 1 else "-")
        rows.append((f"sage/{fw}", res.test.hits, res.test.auc, comm))

    print(f"{'method':<22} {'Hits@50':>8} {'AUC':>7} {'comm':>12}")
    print("-" * 52)
    for name, hits, a, comm in rows:
        print(f"{name:<22} {hits:>8.3f} {a:>7.3f} {comm:>12}")

    print("\nReading: neighborhood heuristics are respectable on a graph "
          "with strong\ncommunity structure, DeepWalk learns that "
          "structure without features, and\nthe feature-aware GNN tops "
          "both when trained centrally.  SpLPG keeps the\ndistributed "
          "version in the race at a modest epoch budget — give it more "
          "\nepochs (the paper trains 500) and it closes on the "
          "centralized line.")


if __name__ == "__main__":
    main()
