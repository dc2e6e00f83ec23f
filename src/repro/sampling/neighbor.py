"""Fanout neighbor sampling (DGL's ``NeighborSampler`` reimplemented).

Builds the layered computational graph (:class:`ComputationGraph`) for
a set of seed nodes: layer ``K`` samples up to ``fanouts[-1]`` neighbors
of each seed, layer ``K-1`` expands the resulting frontier, and so on
down to the input layer.  A fanout of ``-1`` keeps all neighbors
(full-neighbor training, as used by GCN in the paper).

Sampling is without replacement, vectorized across the whole frontier
via the random-priority trick: every candidate edge gets an i.i.d.
uniform key and we keep the ``fanout`` smallest keys per destination.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..rng import ensure_rng
from .blocks import Block, ComputationGraph, GraphNeighborSource, NeighborSource


def _unique_preserving_seeds(seeds: np.ndarray,
                             extra: np.ndarray) -> np.ndarray:
    """Seeds first (in order), then unique extra nodes not in seeds."""
    if extra.size == 0:
        return seeds
    extra_unique = np.unique(extra)
    mask = ~np.isin(extra_unique, seeds, assume_unique=False)
    return np.concatenate([seeds, extra_unique[mask]])


def sample_block(
    source: NeighborSource,
    seeds: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Block:
    """Sample one message-flow block for ``seeds``.

    Parameters
    ----------
    fanout:
        Maximum neighbors kept per seed; ``-1`` keeps all.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    nbrs, weights, offsets = source.neighbors_batch(seeds)
    counts = np.diff(offsets)
    dst_per_edge = np.repeat(np.arange(seeds.size, dtype=np.int64), counts)

    if fanout >= 0 and nbrs.size:
        keys = rng.random(nbrs.size)
        # Sort edges by (destination, random key); keep first `fanout`
        # edges of each destination.
        order = np.lexsort((keys, dst_per_edge))
        sorted_dst = dst_per_edge[order]
        # rank of each edge within its destination group
        rank = np.arange(sorted_dst.size) - offsets[sorted_dst]
        keep = order[rank < fanout]
        nbrs, weights, dst_per_edge = nbrs[keep], weights[keep], dst_per_edge[keep]

    src_nodes = _unique_preserving_seeds(seeds, nbrs)
    # Map global neighbor ids to local row indices: the first row
    # holding each id (a stable sort keeps equal ids in row order).
    by_id = np.argsort(src_nodes, kind="stable")
    edge_src = by_id[np.searchsorted(src_nodes[by_id], nbrs)]
    return Block(
        src_nodes=src_nodes,
        num_dst=int(seeds.size),
        edge_src=edge_src,
        edge_dst=dst_per_edge,
        edge_weight=weights,
    )


class NeighborSampler:
    """Multi-layer fanout sampler producing :class:`ComputationGraph`.

    Parameters
    ----------
    fanouts:
        Per-layer fanouts ordered from the *input* layer to the output
        layer, e.g. ``[25, 10, 5]`` for the paper's 3-layer GraphSAGE
        (25 first-hop, 10 second-hop, 5 third-hop).  Use ``[-1] * K``
        for full-neighbor computation graphs.
    """

    def __init__(self, fanouts: Sequence[int],
                 rng: Optional[np.random.Generator] = None) -> None:
        if not fanouts:
            raise ValueError("need at least one fanout")
        self.fanouts = list(fanouts)
        self.rng = ensure_rng(rng)

    @property
    def num_layers(self) -> int:
        """Sampling depth (number of fanouts)."""
        return len(self.fanouts)

    def sample(self, source: NeighborSource | object,
               seeds: np.ndarray) -> ComputationGraph:
        """Build the computational graph rooted at ``seeds``.

        ``source`` may be a :class:`NeighborSource` or a raw
        :class:`~repro.graph.Graph` (auto-wrapped).
        """
        if not hasattr(source, "neighbors_batch"):
            # Master-side convenience: the evaluator and the
            # centralized baseline sample from an explicit raw Graph
            # they own outright; worker paths always pass their
            # WorkerGraphView here.
            source = GraphNeighborSource(source)  # lint: disable=R002
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        blocks = []
        frontier = seeds
        # Sample from the output layer backwards; fanouts are listed
        # input-first, so iterate them reversed.
        for fanout in reversed(self.fanouts):
            block = sample_block(source, frontier, fanout, self.rng)
            blocks.append(block)
            frontier = block.src_nodes
        blocks.reverse()
        return ComputationGraph(blocks=blocks, seeds=seeds)
