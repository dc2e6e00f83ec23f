#!/usr/bin/env python
"""Train → checkpoint → serve: the full model lifecycle.

1. Train SpLPG on a co-authorship-style graph.
2. Checkpoint the synchronized model to disk (`.npz`).
3. Reload it into a fresh process-equivalent model.
4. Serve link predictions from the simulated cluster with
   :class:`~repro.distributed.DistributedScorer`, comparing the
   serving communication bill of a sparsified store vs full data
   sharing.

Run:  python examples/model_serving.py
"""

import os
import tempfile

import numpy as np

from repro import SpLPG, TrainConfig, load_dataset, split_edges
from repro.distributed import (
    DistributedScorer,
    RemoteGraphStore,
    SparsifiedRemoteStore,
)
from repro.nn import build_model, load_model, save_model


def main() -> None:
    rng = np.random.default_rng(21)
    graph = load_dataset("co-cs", scale=0.04, feature_dim=64)
    split = split_edges(graph, rng=rng)
    print(f"Graph: {graph.num_nodes} authors, {graph.num_edges} "
          f"collaborations")

    config = TrainConfig(gnn_type="sage", hidden_dim=48, num_layers=2,
                         fanouts=(10, 5), batch_size=128, epochs=12,
                         hits_k=50, eval_every=3, seed=4)
    framework = SpLPG(num_parts=4, alpha=0.15, config=config, seed=4)
    result = framework.fit(split)
    print(f"\nTrained: {result.test}")

    # ---- checkpoint and reload -------------------------------------
    trained = framework._trainer.workers[0].model
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "splpg_sage.npz")
        save_model(trained, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"Checkpoint written: {size_kb:.1f} KiB")

        served_model = build_model("sage", graph.feature_dim,
                                   config.hidden_dim,
                                   num_layers=config.num_layers, seed=999)
        load_model(served_model, path)
    print("Checkpoint reloaded into a fresh model.")

    # ---- distributed serving ----------------------------------------
    prepared = framework.prepared
    queries = np.concatenate([split.test_pos[:50], split.test_neg[:50]])

    sparsified_store = SparsifiedRemoteStore(
        split.train_graph, prepared.sparsified.graphs,
        prepared.partitioned.node_owner)
    full_store = RemoteGraphStore(split.train_graph)

    print(f"\nServing {queries.shape[0]} queries from 4 workers:")
    print(f"{'store':<12} {'bytes fetched':>14} {'top-10 precision':>17}")
    for label, store in [("sparsified", sparsified_store),
                         ("full", full_store)]:
        scorer = DistributedScorer(served_model, prepared.partitioned,
                                   remote=store, fanouts=(-1, -1),
                                   rng=np.random.default_rng(3))
        res = scorer.score(queries)
        order = np.argsort(-res.scores)[:10]
        precision = np.mean(order < 50)  # first 50 queries are positives
        print(f"{label:<12} {res.comm.graph_data_bytes:>14,d} "
              f"{precision:>17.2f}")

    print("\nReading: the sparsified store answers serving-time remote "
          "expansions with\nfar fewer bytes while the ranking quality is "
          "essentially unchanged — the\nsame trade-off SpLPG exploits "
          "during training.")


if __name__ == "__main__":
    main()
