"""Framework zoo: SpLPG, its ablation variants, and all baselines.

Every training framework the paper evaluates is expressed as a
:class:`FrameworkSpec` — a declarative combination of four choices:

==================  ========================================================
knob                meaning
==================  ========================================================
partition strategy  ``metis`` (edge-cut minimizing), ``random_tma``,
                    ``super_tma``
mirror              keep cross-partition edges in both partitions so owned
                    nodes retain full neighbor lists (SpLPG, Section IV-B)
remote              what workers can read from the master during training:
                    ``none`` (pure local), ``full`` (complete data-sharing
                    strategy, the ``+`` variants), or ``sparsified``
                    (SpLPG's shared sparsified subgraphs)
global negatives    whether negative destinations are drawn from the whole
                    node set or only the worker's own partition
==================  ========================================================

The mapping to the paper's names:

=================  ==========  ======  ===========  ================
framework          partition   mirror  remote       negatives
=================  ==========  ======  ===========  ================
psgd_pa            metis       no      none         local
psgd_pa_plus       metis       no      full         global
random_tma         random_tma  no      none         local
random_tma_plus    random_tma  no      full         global
super_tma          super_tma   no      none         local
super_tma_plus     super_tma   no      full         global
llcg               metis       no      none         local (+ server
                                                    correction step)
splpg              metis       yes     sparsified   global
splpg_plus         metis       yes     full         global
splpg_minus        metis       yes     none         local
splpg_minus_minus  metis       no      none         local
centralized        one part    no      none         local (one worker
                                                    owns everything)
=================  ==========  ======  ===========  ================

``centralized`` is the accuracy reference of every figure: the same
trainer at one worker, which owns every node, edge and feature, so
neither partition-induced neighbour loss nor partition-local negatives
is left.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from ..distributed.store import RemoteGraphStore, SparsifiedRemoteStore
from ..distributed.trainer import DistributedTrainer, TrainConfig, TrainResult
from ..graph.splits import EdgeSplit
from ..obs import RunObserver
from ..partition import partition_graph
from ..partition.partitioned import PartitionedGraph
from ..sparsify.partition_sparsifier import sparsify_partitions
from .llcg import GlobalCorrection


@dataclass(frozen=True)
class FrameworkSpec:
    """Declarative description of a distributed training framework."""

    name: str
    partition_strategy: str = "metis"
    mirror: bool = False
    remote: str = "none"            # "none" | "full" | "sparsified"
    global_negatives: bool = False
    correction: bool = False        # LLCG's server-side correction step

    def __post_init__(self) -> None:
        if self.remote not in ("none", "full", "sparsified"):
            raise ValueError(f"invalid remote mode {self.remote!r}")
        if self.global_negatives and self.remote == "none":
            raise ValueError(
                "global negatives require access to remote graph data")


FRAMEWORKS: Dict[str, FrameworkSpec] = {
    spec.name: spec
    for spec in [
        FrameworkSpec("psgd_pa"),
        FrameworkSpec("psgd_pa_plus", remote="full", global_negatives=True),
        FrameworkSpec("random_tma", partition_strategy="random_tma"),
        FrameworkSpec("random_tma_plus", partition_strategy="random_tma",
                      remote="full", global_negatives=True),
        FrameworkSpec("super_tma", partition_strategy="super_tma"),
        FrameworkSpec("super_tma_plus", partition_strategy="super_tma",
                      remote="full", global_negatives=True),
        FrameworkSpec("llcg", correction=True),
        FrameworkSpec("splpg", mirror=True, remote="sparsified",
                      global_negatives=True),
        FrameworkSpec("splpg_plus", mirror=True, remote="full",
                      global_negatives=True),
        FrameworkSpec("splpg_minus", mirror=True),
        FrameworkSpec("splpg_minus_minus"),
        # Vertex cut (edge-partitioned, mirrored vertices): zero
        # training-time feature/structure fetches by construction — the
        # communication moves into replica-averaging sync bytes.
        FrameworkSpec("vertex_cut", partition_strategy="vertex_cut"),
    ]
}

FRAMEWORK_NAMES = tuple(FRAMEWORKS)

#: The single-worker reference run; not in :data:`FRAMEWORKS`, which
#: lists the distributed frameworks.
CENTRALIZED = FrameworkSpec("centralized")

#: Pretty labels used by experiment tables (paper nomenclature).
PAPER_LABELS = {
    "centralized": "Centralized",
    "psgd_pa": "PSGD-PA",
    "psgd_pa_plus": "PSGD-PA+",
    "random_tma": "RandomTMA",
    "random_tma_plus": "RandomTMA+",
    "super_tma": "SuperTMA",
    "super_tma_plus": "SuperTMA+",
    "llcg": "LLCG",
    "splpg": "SpLPG",
    "splpg_plus": "SpLPG+",
    "splpg_minus": "SpLPG-",
    "splpg_minus_minus": "SpLPG--",
    "vertex_cut": "VertexCut",
}


def build_trainer(
    spec: FrameworkSpec,
    split: EdgeSplit,
    num_parts: int,
    config: TrainConfig,
    alpha: float = 0.15,
    rng: Optional[np.random.Generator] = None,
    partitioned: Optional[PartitionedGraph] = None,
    sparsifier_kind: str = "approx_er",
) -> DistributedTrainer:
    """Assemble a :class:`DistributedTrainer` for a framework spec.

    ``partitioned`` lets callers reuse one partitioning across several
    frameworks (so accuracy comparisons share the same cut); it must
    match the spec's strategy and mirroring if given.
    ``sparsifier_kind`` swaps the sparsifier's sampling distribution
    (``approx_er`` | ``exact_er`` | ``uniform``) for ablations.
    """
    rng = rng or np.random.default_rng(config.seed)
    graph = split.train_graph
    observer = RunObserver() if config.observe else None
    if partitioned is None:
        if config.partition is not None:
            # An explicit PartitionSpec on the config overrides the
            # framework's default layout (canonicalized by TrainConfig).
            partitioned = config.partition.build(graph, num_parts, rng=rng)
        else:
            partitioned = partition_graph(
                graph, num_parts, strategy=spec.partition_strategy,
                rng=rng, mirror=spec.mirror)
    if partitioned.edge_partitioned and spec.remote == "sparsified":
        raise ValueError(
            "sparsified remote stores answer per-owner node queries and "
            "cannot serve an edge-partitioned (vertex-cut) layout; use "
            "remote='none' or 'full' with vertex_cut")

    remote_store = None
    if spec.remote == "full":
        remote_store = RemoteGraphStore(graph)
    elif spec.remote == "sparsified":
        sparsified = sparsify_partitions(partitioned, alpha=alpha, rng=rng,
                                         kind=sparsifier_kind, obs=observer)
        remote_store = SparsifiedRemoteStore(
            graph, sparsified.graphs, partitioned.node_owner)

    correction_hook = None
    if spec.correction:
        correction_hook = GlobalCorrection(split, config, rng=rng)

    # Complete data-sharing restores full positive-edge coverage: the
    # cluster jointly iterates every edge via an ownership rule, paying
    # for any remote neighborhoods.  All other regimes train on what
    # each worker locally stores.
    positive_mode = "owned_cover" if spec.remote == "full" else "local"
    trainer = DistributedTrainer(
        framework=spec.name,
        split=split,
        partitioned=partitioned,
        config=config,
        remote_store=remote_store,
        global_negatives=spec.global_negatives,
        correction_hook=correction_hook,
        positive_mode=positive_mode,
        observer=observer,
    )
    # Recorded in durable checkpoints (repro.checkpoint) so resume can
    # rebuild this exact cluster from the stored config alone.
    trainer.build_knobs = {"alpha": float(alpha),
                           "sparsifier_kind": str(sparsifier_kind)}
    return trainer


def framework_spec(name: str) -> FrameworkSpec:
    """The spec called ``name``: one of :data:`FRAMEWORK_NAMES` or
    ``"centralized"``."""
    if name == CENTRALIZED.name:
        return CENTRALIZED
    if name not in FRAMEWORKS:
        raise ValueError(
            f"unknown framework {name!r}; choose from "
            f"{(CENTRALIZED.name,) + FRAMEWORK_NAMES}")
    return FRAMEWORKS[name]


def run_framework(
    name: str,
    split: EdgeSplit,
    num_parts: int,
    config: TrainConfig,
    alpha: float = 0.15,
    rng: Optional[np.random.Generator] = None,
    partitioned: Optional[PartitionedGraph] = None,
    sparsifier_kind: str = "approx_er",
) -> TrainResult:
    """Train with the named framework and return its result.

    ``name`` is one of :data:`FRAMEWORK_NAMES` or ``"centralized"``,
    which always trains on one worker, whatever ``num_parts`` says.
    """
    spec = framework_spec(name)
    if spec is CENTRALIZED:
        num_parts = 1
    trainer = build_trainer(spec, split, num_parts, config,
                            alpha=alpha, rng=rng, partitioned=partitioned,
                            sparsifier_kind=sparsifier_kind)
    return trainer.train()
