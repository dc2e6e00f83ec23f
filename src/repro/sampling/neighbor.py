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

from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from ..rng import ensure_rng
from .blocks import (
    Block,
    ComputationGraph,
    GraphNeighborSource,
    NeighborSource,
    check_node_ids,
    sorted_unique,
)


def _by_destination_then_key(dst_per_edge: np.ndarray,
                             keys: np.ndarray) -> np.ndarray:
    """The edge order of ``np.lexsort((keys, dst_per_edge))``.

    Destinations are integers and keys lie in [0, 1), so ``d + k`` is
    strictly increasing in ``(d, k)``; rounding is monotone, so sorting
    the float sums gives the same order whenever no two sums round to
    the same value.  Only on such a collision is ``lexsort`` needed.
    Without one the order is unique, so ``kind="stable"`` is there for
    speed: NumPy's stable sort is the faster one on ascending groups.
    """
    composite = dst_per_edge + keys
    order = np.argsort(composite, kind="stable")
    ranked = composite[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.lexsort((keys, dst_per_edge))
    return order


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
    num_nodes = source.num_nodes
    bound = check_node_ids(seeds, num_nodes)
    nbrs, weights, offsets = source.neighbors_batch(seeds)
    bound = max(bound, check_node_ids(nbrs, num_nodes))
    counts = np.diff(offsets)
    dst_per_edge = np.repeat(np.arange(seeds.size, dtype=np.int64), counts)

    if fanout >= 0 and nbrs.size:
        keys = rng.random(nbrs.size)
        # Keep the `fanout` smallest keys of each destination, in key
        # order.  Sorting leaves the non-decreasing destinations in
        # place, so an edge's rank in its group is its sorted position
        # minus the group's offset.
        order = _by_destination_then_key(dst_per_edge, keys)
        rank = np.arange(nbrs.size) - offsets[dst_per_edge]
        keep = order[rank < fanout]
        nbrs, weights, dst_per_edge = nbrs[keep], weights[keep], dst_per_edge[keep]

    # Rows: the seeds in order, then every other sampled id ascending.
    # A dense table over the ids touched maps each id to the first row
    # holding it (``minimum.at`` settles repeated seeds).
    present = np.zeros(bound, dtype=bool)
    present[nbrs] = True
    present[seeds] = False
    src_nodes = np.concatenate([seeds, np.flatnonzero(present)])
    row = np.empty(bound, dtype=np.int64)
    row[src_nodes[seeds.size:]] = np.arange(seeds.size, src_nodes.size)
    row[seeds] = seeds.size
    np.minimum.at(row, seeds, np.arange(seeds.size))
    edge_src = row[nbrs]
    return Block(
        src_nodes=src_nodes,
        num_dst=int(seeds.size),
        edge_src=edge_src,
        edge_dst=dst_per_edge,
        edge_weight=weights,
    )


def check_fanouts(fanouts: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``fanouts`` is non-empty and each one
    is an int >= 1 or exactly -1 (all neighbours)."""
    if not fanouts:
        raise ValueError("need at least one fanout")
    for fanout in fanouts:
        if (isinstance(fanout, bool) or not isinstance(fanout, Integral)
                or not (fanout >= 1 or fanout == -1)):
            raise ValueError(
                "fanout must be an int >= 1 or -1 (all neighbours), "
                f"got {fanout!r}")


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
        check_fanouts(fanouts)
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
            # Master-side convenience: the evaluator and LLCG's
            # server correction sample from an explicit raw Graph
            # they own outright; worker paths always pass their
            # WorkerGraphView here.
            source = GraphNeighborSource(source)
        seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
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
