"""Extension experiments beyond the paper's figures.

These ablate design choices DESIGN.md calls out and exercise the
optional features of this implementation:

* :func:`run_sparsifier_ablation` — SpLPG with the paper's degree-based
  effective-resistance sampler vs exact effective resistance vs uniform
  edge sampling.  Expected: approx_er ~ exact_er (the bound is tight in
  practice) and both beat uniform on accuracy at equal comm budget.
* :func:`run_feature_cache_ablation` — epoch-scoped caching of remote
  feature vectors, an optimization the paper's per-batch accounting
  deliberately excludes.  Expected: large comm reduction, identical
  accuracy (caching never changes computation).
* :func:`run_sync_ablation` — gradient averaging vs (periodic) model
  averaging; the paper reports both perform "more or less the same"
  given enough epochs.  The same table carries the staleness–accuracy
  frontier of the asynchronous modes (``local_sgd``, ``ps``,
  ``async``) with their observed staleness and sync bytes.
* :func:`run_partitioner_ablation` — SpLPG's communication bill and
  accuracy on top of each partitioner, with vertex cut beside them.
* :func:`run_gnn_zoo` — every implemented conv (including the GIN
  extension) under SpLPG.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.frameworks import run_framework
from ..sparsify.alternatives import SPARSIFIER_KINDS
from .config import ExperimentScale


def run_sparsifier_ablation(
    dataset: str = "cora",
    p: int = 4,
    kinds: Sequence[str] = SPARSIFIER_KINDS,
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
) -> List[Dict]:
    """Compare sparsifier sampling distributions inside SpLPG."""
    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    config = scale.train_config(gnn_type=gnn_type)
    rows: List[Dict] = []
    for kind in kinds:
        result = run_framework(
            "splpg", split, num_parts=p, config=config, alpha=scale.alpha,
            rng=np.random.default_rng(scale.seed), sparsifier_kind=kind)
        rows.append({
            "dataset": dataset,
            "sparsifier": kind,
            "hits": result.test.hits,
            "auc": result.test.auc,
            "comm_gb_per_epoch": result.graph_data_gb_per_epoch,
        })
    return rows


def run_feature_cache_ablation(
    dataset: str = "cora",
    p: int = 4,
    frameworks: Sequence[str] = ("splpg", "splpg_plus"),
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
) -> List[Dict]:
    """Measure the effect of epoch-scoped remote-feature caching."""
    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    rows: List[Dict] = []
    for name in frameworks:
        for cached in (False, True):
            # Communication per epoch is what this ablation measures; a
            # couple of epochs suffice and keep the sweep cheap.
            config = scale.train_config(gnn_type=gnn_type,
                                        cache_remote_features=cached,
                                        epochs=min(scale.epochs, 4),
                                        eval_every=max(scale.eval_every, 5))
            result = run_framework(
                name, split, num_parts=p, config=config, alpha=scale.alpha,
                rng=np.random.default_rng(scale.seed))
            rows.append({
                "dataset": dataset,
                "framework": name,
                "cache": cached,
                "hits": result.test.hits,
                "comm_gb_per_epoch": result.graph_data_gb_per_epoch,
            })
    return rows


def run_sync_ablation(
    dataset: str = "cora",
    p: int = 4,
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
) -> List[Dict]:
    """The sync-mode frontier for SpLPG: gradient averaging, model
    averaging every round or every epoch, and each asynchronous family
    at several points along its staleness knob.

    Expected shape: accuracy degrades with observed staleness within
    each asynchronous family while sync bytes drop.
    """
    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    rows: List[Dict] = []
    settings = [
        ("grad", dict(sync="grad", sync_every_batches=0)),
        ("model/round", dict(sync="model", sync_every_batches=1)),
        ("model/epoch", dict(sync="model", sync_every_batches=0)),
    ]
    settings += [(f"local_sgd/sync_every={n}",
                  dict(sync="local_sgd", sync_every=n)) for n in (2, 8)]
    settings += [(f"ps/max_staleness={n}", dict(sync="ps", max_staleness=n))
                 for n in (1, 4, 16)]
    settings += [(f"async/pull_prob={q}", dict(sync="async", pull_prob=q))
                 for q in (0.5, 0.1)]
    for label, knobs in settings:
        config = scale.train_config(gnn_type=gnn_type, **knobs)
        result = run_framework(
            "splpg", split, num_parts=p, config=config, alpha=scale.alpha,
            rng=np.random.default_rng(scale.seed))
        stats = result.sync_stats
        rows.append({
            "dataset": dataset,
            "sync": label,
            "hits": result.test.hits,
            "auc": result.test.auc,
            "mean_staleness": float(stats.get("mean_staleness", 0.0)),
            "max_staleness": float(stats.get("max_staleness", 0.0)),
            "sync_bytes": int(result.comm_total.sync_bytes),
        })
    return rows


def run_partitioner_ablation(
    dataset: str = "cora",
    p: int = 4,
    strategies: Sequence[str] = ("metis", "ldg", "super_tma",
                                 "random_tma", "vertex_cut"),
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
    comm_epochs: int = 2,
) -> List[Dict]:
    """How partitioner quality drives SpLPG's communication bill.

    Runs SpLPG on top of each partitioner (same mirroring and
    sparsification).  Lower edge cut means fewer halo replicas and
    fewer remote expansions, so METIS < LDG < SuperTMA < RandomTMA in
    per-epoch bytes — quantifying why the paper partitions with METIS.
    An edge-partitioned layout (vertex cut) is one the sparsified
    store cannot serve, so its row trains without remote access, like
    the ``vertex_cut`` framework: zero graph bytes, paid for in
    replica-averaging sync.
    """
    from ..core.frameworks import FrameworkSpec, build_trainer
    from ..partition import edge_cut, get_partitioner, partition_graph

    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    config = scale.train_config(gnn_type=gnn_type, epochs=comm_epochs,
                                eval_every=comm_epochs + 1)
    rows: List[Dict] = []
    for strategy in strategies:
        rng = np.random.default_rng(scale.seed)
        if get_partitioner(strategy).edge_partitioned:
            spec = FrameworkSpec(strategy, partition_strategy=strategy)
        else:
            spec = FrameworkSpec("splpg_" + strategy,
                                 partition_strategy=strategy, mirror=True,
                                 remote="sparsified", global_negatives=True)
        partitioned = partition_graph(split.train_graph, p,
                                      strategy=strategy, rng=rng,
                                      mirror=spec.mirror)
        trainer = build_trainer(spec, split, p, config, alpha=scale.alpha,
                                rng=rng, partitioned=partitioned)
        result = trainer.train()
        rows.append({
            "dataset": dataset,
            "partitioner": strategy,
            "cut_fraction": edge_cut(split.train_graph,
                                     partitioned.assignment)
            / max(split.train_graph.num_edges, 1),
            "replication": partitioned.replication_factor(),
            "comm_gb_per_epoch": result.graph_data_gb_per_epoch,
            "sync_bytes": int(result.comm_total.sync_bytes),
            "hits": result.test.hits,
            "auc": result.test.auc,
        })
    return rows


def run_negative_sampler_ablation(
    dataset: str = "cora",
    p: int = 4,
    strategies: Sequence[str] = ("uniform", "degree", "in_batch"),
    scale: Optional[ExperimentScale] = None,
    gnn_type: str = "sage",
) -> List[Dict]:
    """Training-time negative-sampling strategies under SpLPG.

    The paper trains with per-source uniform sampling; degree-weighted
    (PinSage) and in-batch sampling are common alternatives whose
    distribution mismatch with the uniform evaluation protocol shows up
    as an accuracy delta.
    """
    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    rows: List[Dict] = []
    for strategy in strategies:
        config = scale.train_config(gnn_type=gnn_type,
                                    negative_sampler=strategy)
        result = run_framework(
            "splpg", split, num_parts=p, config=config, alpha=scale.alpha,
            rng=np.random.default_rng(scale.seed))
        rows.append({
            "dataset": dataset,
            "strategy": strategy,
            "hits": result.test.hits,
            "auc": result.test.auc,
        })
    return rows


def run_gnn_zoo(
    dataset: str = "cora",
    p: int = 4,
    gnn_types: Sequence[str] = ("gcn", "sage", "gat", "gatv2", "gin"),
    scale: Optional[ExperimentScale] = None,
) -> List[Dict]:
    """Every implemented convolution under SpLPG vs centralized."""
    scale = scale or ExperimentScale.quick()
    split = scale.load_split(dataset)
    rows: List[Dict] = []
    for gnn_type in gnn_types:
        config = scale.train_config(gnn_type=gnn_type)
        central = run_framework("centralized", split, 1, config=config)
        splpg = run_framework(
            "splpg", split, num_parts=p, config=config, alpha=scale.alpha,
            rng=np.random.default_rng(scale.seed))
        rows.append({
            "dataset": dataset,
            "gnn": gnn_type,
            "centralized_hits": central.test.hits,
            "splpg_hits": splpg.test.hits,
        })
    return rows
