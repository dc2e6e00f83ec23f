"""K-layer GNN encoders and edge predictors.

``GNNModel`` stacks convolution layers over a sampled
:class:`~repro.sampling.blocks.ComputationGraph` to produce seed-node
embeddings (paper Eq. (1)); an edge predictor then scores node pairs
(paper Eq. (2)).  The paper's default configuration is a 3-layer
GCN/GraphSAGE with hidden dimension 256 and a 3-layer MLP predictor.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..rng import ensure_rng
from ..sampling.blocks import Block, ComputationGraph
from .gnn import GATConv, GATv2Conv, GCNConv, GINConv, SAGEConv
from .module import MLP, Dropout, Linear, Module
from .tensor import Tensor, gather, relu

GNN_TYPES = ("gcn", "sage", "gat", "gatv2", "gin")

#: Rows per chunk of :meth:`MLPPredictor.sweep`'s hidden layers: one
#: chunk's ``(rows, width)`` intermediates stay cache-resident.
SWEEP_CHUNK = 512
#: Hidden widths :meth:`MLPPredictor.sweep` chunks: multiples of the
#: double-precision GEMM kernels' column panel.  On OpenBLAS a width
#: 1-4 columns past a multiple of 8 takes an edge kernel whose rounding
#: moves with the row count, so such a decoder runs as one chunk.
SWEEP_PANEL = 8


def make_conv(gnn_type: str, in_dim: int, out_dim: int,
              num_heads: int = 1,
              rng: Optional[np.random.Generator] = None) -> Module:
    """Factory for one convolution layer of the requested family."""
    kind = gnn_type.lower()
    if kind == "gcn":
        return GCNConv(in_dim, out_dim, rng=rng)
    if kind in ("sage", "graphsage"):
        return SAGEConv(in_dim, out_dim, rng=rng)
    if kind == "gat":
        return GATConv(in_dim, out_dim, num_heads=num_heads, rng=rng)
    if kind == "gatv2":
        return GATv2Conv(in_dim, out_dim, num_heads=num_heads, rng=rng)
    if kind == "gin":
        return GINConv(in_dim, out_dim, rng=rng)
    raise ValueError(f"unknown GNN type {gnn_type!r}; choose from {GNN_TYPES}")


class GNNModel(Module):
    """A K-layer GNN encoder for mini-batch training.

    ``forward(comp_graph, features)`` consumes the layered blocks of a
    sampled computational graph and the raw features of its input
    nodes, returning embeddings for the seed nodes (the first
    ``len(comp_graph.seeds)`` destination rows of the last block).
    """

    def __init__(
        self,
        gnn_type: str,
        in_dim: int,
        hidden_dim: int,
        num_layers: int = 3,
        out_dim: Optional[int] = None,
        dropout: float = 0.0,
        num_heads: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = ensure_rng(rng)
        out_dim = hidden_dim if out_dim is None else out_dim
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.gnn_type = gnn_type.lower()
        self.convs = [make_conv(gnn_type, dims[i], dims[i + 1],
                                num_heads=num_heads, rng=rng)
                      for i in range(num_layers)]
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    @property
    def num_layers(self) -> int:
        """Number of GNN layers (= required sampling depth)."""
        return len(self.convs)

    def forward(self, comp_graph: ComputationGraph,
                features: np.ndarray | Tensor) -> Tensor:
        """Embeddings of the computation graph's destination nodes."""
        for h in self.layer_outputs(comp_graph, features):
            pass
        return h

    def layer_outputs(self, comp_graph: ComputationGraph,
                      features: np.ndarray | Tensor) -> Iterator[Tensor]:
        """Each layer's output over its block's destination rows, input
        layer first: post-activation below the last layer, then the
        embeddings :meth:`forward` returns."""
        if len(comp_graph.blocks) != self.num_layers:
            raise ValueError(
                f"computational graph has {len(comp_graph.blocks)} blocks "
                f"but the model has {self.num_layers} layers")
        h = features if isinstance(features, Tensor) else Tensor(features)
        if h.shape[0] != comp_graph.input_nodes.size:
            raise ValueError("features must cover the input nodes")
        for i, block in enumerate(comp_graph.blocks):
            h = self.layer(i, block, h)
            yield h

    def layer(self, index: int, block: Block, h_src: Tensor) -> Tensor:
        """Layer ``index`` over one block: the convolution, then ReLU
        and dropout below the last layer."""
        h = self.convs[index](block, h_src)
        if index < self.num_layers - 1:
            h = relu(h)
            if self.dropout is not None:
                h = self.dropout(h)
        return h


def _checked_rows(rows, num_rows: int) -> np.ndarray:
    """``rows`` as int64, each in ``[0, num_rows)`` (so an unbuffered
    ``np.take(mode="clip")`` gathers exactly ``table[rows]``)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
        raise IndexError(f"sweep rows must lie in [0, {num_rows})")
    return rows


class DotPredictor(Module):
    """Dot-product edge scorer: ``s_uv = <h_u, h_v>``."""

    def forward(self, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Edge scores as dot products of endpoint embeddings (over the
        last axis, so a stacked ``(n, 1, d)`` block gives ``n`` scores)."""
        return (h_u * h_v).sum(axis=-1).reshape(-1)

    def sweep(self, query: np.ndarray, table: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
        """Scores of ``query`` against every ``table[rows]``, without
        the tape: byte-equal to ``forward`` on the same candidates."""
        table = np.asarray(table, dtype=np.float64)
        cand = np.take(table, _checked_rows(rows, table.shape[0]), axis=0,
                       mode="clip")
        cand *= query
        return cand.sum(axis=-1)


class MLPPredictor(Module):
    """MLP edge scorer on the Hadamard product of endpoint embeddings.

    The paper uses a 3-layer MLP edge predictor; with ``num_layers=3``
    this maps ``h_u * h_v`` through two hidden layers to a scalar logit.
    """

    def __init__(self, embed_dim: int, hidden_dim: Optional[int] = None,
                 num_layers: int = 3,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden_dim = embed_dim if hidden_dim is None else hidden_dim
        dims = [embed_dim] + [hidden_dim] * (num_layers - 1) + [1]
        self.mlp = MLP(dims, rng=rng)

    def forward(self, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Edge scores from an MLP over concatenated endpoints."""
        out = self.mlp(h_u * h_v)
        return out.reshape(-1)

    def sweep(self, query: np.ndarray, table: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
        """Scores of one ``query`` row against every ``table[rows]``.

        Forward-only: no ``Tensor``, no tape, and byte-equal to
        ``forward(query[None], table[rows])``.  The hidden layers run in
        chunks of :data:`SWEEP_CHUNK` rows through preallocated buffers
        (gather, Hadamard product, GEMM, bias and ReLU all in place).
        That is exact because a GEMM row's bits depend neither on the
        row count nor on the row's offset once there are two or more
        rows (for hidden widths that are multiples of
        :data:`SWEEP_PANEL`; other widths run as one chunk).  A lone
        tail row would go down GEMV and round differently, so it joins
        the chunk before it.  The output layer's ``(n, h) @ (h, 1)``
        GEMV does round by row position (the last rows of a call take a
        tail path), so it runs once over the whole hidden matrix,
        exactly as ``forward`` runs it.  Active dropout falls back to
        ``forward``.
        """
        mlp = self.mlp
        if mlp.dropout is not None and mlp.dropout.training:
            return self.forward(Tensor(query[None, :]),
                                Tensor(table[rows])).data
        table = np.asarray(table, dtype=np.float64)
        rows = _checked_rows(rows, table.shape[0])
        *hidden, last = mlp.layers
        n = rows.size
        out = np.empty((n, last.in_features))
        step = (SWEEP_CHUNK if all(layer.out_features % SWEEP_PANEL == 0
                                   for layer in hidden) else max(n, 1))
        bounds = list(range(0, n, step)) + [n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            del bounds[-2]   # a lone tail row joins the chunk before it
        cap = min(n, step + 1)
        prod = np.empty((cap, table.shape[1])) if hidden else None
        acts = [np.empty((cap, layer.out_features))
                for layer in hidden[:-1]]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            x = prod[:stop - start] if hidden else out[start:stop]
            np.take(table, rows[start:stop], axis=0, out=x, mode="clip")
            x *= query
            for i, layer in enumerate(hidden):
                y = (acts[i][:stop - start] if i < len(acts)
                     else out[start:stop])
                np.matmul(x, layer.weight.data, out=y)
                if layer.bias is not None:
                    y += layer.bias.data
                np.maximum(y, 0.0, out=y)
                y += 0.0   # -0.0 -> +0.0, the bits ``relu`` gives
                x = y
        scores = out @ last.weight.data
        if last.bias is not None:
            scores += last.bias.data
        return scores.reshape(-1)


class LinkPredictionModel(Module):
    """GNN encoder + edge predictor, trained end to end.

    This is "the model" that distributed workers replicate: its
    ``state_dict`` is what model averaging exchanges and its gradients
    are what gradient averaging reduces.
    """

    def __init__(self, encoder: GNNModel, predictor: Module) -> None:
        super().__init__()
        self.encoder = encoder
        self.predictor = predictor

    def embed(self, comp_graph: ComputationGraph,
              features: np.ndarray) -> Tensor:
        """Destination-node embeddings for a sampled computation graph."""
        return self.encoder(comp_graph, features)

    def score_pairs(self, embeddings: Tensor, pair_u: np.ndarray,
                    pair_v: np.ndarray) -> Tensor:
        """Score pairs given seed embeddings and row indices into them."""
        h_u = gather(embeddings, np.asarray(pair_u, dtype=np.int64))
        h_v = gather(embeddings, np.asarray(pair_v, dtype=np.int64))
        return self.predictor(h_u, h_v)

    def forward(self, comp_graph: ComputationGraph, features: np.ndarray,
                pair_u: np.ndarray, pair_v: np.ndarray) -> Tensor:
        """Scores for pairs ``(pair_u[i], pair_v[i])``."""
        return self.score_pairs(self.embed(comp_graph, features),
                                pair_u, pair_v)


def build_model(
    gnn_type: str,
    in_dim: int,
    hidden_dim: int = 256,
    num_layers: int = 3,
    predictor: str = "mlp",
    predictor_layers: int = 3,
    dropout: float = 0.0,
    num_heads: int = 1,
    seed: Optional[int] = None,
) -> LinkPredictionModel:
    """Build the paper's default link-prediction model.

    ``predictor`` is ``"mlp"`` (paper default, 3 layers) or ``"dot"``.
    A fixed ``seed`` makes all workers start from identical weights,
    matching the broadcast-initial-model step of Algorithm 1.
    """
    rng = np.random.default_rng(seed)
    encoder = GNNModel(gnn_type, in_dim, hidden_dim, num_layers=num_layers,
                       dropout=dropout, num_heads=num_heads, rng=rng)
    if predictor == "mlp":
        head: Module = MLPPredictor(hidden_dim, num_layers=predictor_layers,
                                    rng=rng)
    elif predictor == "dot":
        head = DotPredictor()
    else:
        raise ValueError(f"unknown predictor {predictor!r}")
    return LinkPredictionModel(encoder, head)
