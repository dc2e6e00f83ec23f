"""Sparsification experiments.

* **Figure 6** — training centrally on a *sparsified* graph collapses
  link-prediction accuracy (positive samples disappear with the
  edges), motivating SpLPG's design of sparsifying only the remote
  negative-sampling copies.
* **Table II** — wall-clock running time of SpLPG's
  effective-resistance sparsification stage across datasets and
  partition counts.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.frameworks import run_framework
from ..core.splpg import SpLPG
from ..partition import partition_graph
from ..sparsify.effective_resistance import (
    retained_edge_fraction,
    sparsify_with_level,
)
from .config import ExperimentScale


#: Timed ``prepare`` calls per Table II cell; the cell is their median.
TABLE2_REPEATS = 3


def run_fig6(
    datasets: Sequence[str] = ("cora", "pubmed"),
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
    alpha: Optional[float] = None,
) -> List[Dict]:
    """Centralized accuracy with vs without input-graph sparsification."""
    scale = scale or ExperimentScale.quick()
    alpha = scale.alpha if alpha is None else alpha
    rows: List[Dict] = []
    for dataset in datasets:
        split = scale.load_split(dataset)
        config = scale.train_config(gnn_type=gnn_type)
        dense = run_framework("centralized", split, 1, config)
        sparse_graph = sparsify_with_level(
            split.train_graph, alpha,
            rng=np.random.default_rng(scale.seed + 17))
        # Trained (positives, neighbours, negatives) on the sparsified
        # graph, evaluated on the split's full training graph.
        sparse = run_framework("centralized", split, 1, config,
                               partitioned=partition_graph(sparse_graph, 1))
        retained = retained_edge_fraction(split.train_graph, sparse_graph)
        rows.append({"dataset": dataset, "variant": "w/o sparsification",
                     "hits": dense.test.hits, "edges_retained": 1.0})
        rows.append({"dataset": dataset, "variant": "w/ sparsification",
                     "hits": sparse.test.hits, "edges_retained": retained})
    return rows


def run_table2(
    datasets: Sequence[str] = ("citeseer", "cora", "pubmed"),
    p_values: Sequence[int] = (4, 8, 16),
    scale: Optional[ExperimentScale] = None,
) -> List[Dict]:
    """Sparsifier wall-clock seconds per dataset and partition count.

    One untimed ``prepare`` first warms imports and caches, so the
    first dataset timed pays no one-off cost; each cell is then the
    median of :data:`TABLE2_REPEATS` timed calls, since a single call
    of a few milliseconds is at the mercy of the host's jitter.
    """
    scale = scale or ExperimentScale.quick()
    rows: List[Dict] = []
    for dataset in datasets:
        graph = scale.load(dataset)
        if not rows and p_values:   # the warm-up call
            SpLPG(num_parts=p_values[0], alpha=scale.alpha,
                  seed=scale.seed).prepare(graph)
        row: Dict = {"dataset": dataset, "num_edges": graph.num_edges}
        for p in p_values:
            sparsify, prepare = [], []
            for _ in range(TABLE2_REPEATS):
                framework = SpLPG(num_parts=p, alpha=scale.alpha,
                                  seed=scale.seed)
                started = time.perf_counter()
                prepared = framework.prepare(graph)
                prepare.append(time.perf_counter() - started)
                sparsify.append(prepared.sparsify_seconds)
            row[f"sparsify_s_p{p}"] = float(np.median(sparsify))
            row[f"prepare_s_p{p}"] = float(np.median(prepare))
        rows.append(row)
    return rows
