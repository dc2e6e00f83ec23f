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
from .module import MLP, Linear, Module
from .tensor import Tensor, gather, relu

GNN_TYPES = ("gcn", "sage", "gat", "gatv2", "gin")

#: Rows per chunk of the forward-only decode
#: (:meth:`EdgePredictor.decode` / :meth:`~EdgePredictor.sweep`): one
#: chunk's ``(rows, width)`` intermediates stay cache-resident.
SWEEP_CHUNK = 512
#: The decode's GEMM output panel: hidden widths are zero-padded up to
#: a multiple of it.  At a multiple of 16 a GEMM row's bits depend
#: neither on the row count nor on the row's offset (two or more rows)
#: in float32 and float64; ``scripts/envcheck.py`` checks it.  On
#: OpenBLAS widths 1-4 past a multiple round with the row count in both
#: dtypes, and so does float32 at 24, which rules out a panel of 8.
SWEEP_PANEL = 16


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
        below the last layer."""
        h = self.convs[index](block, h_src)
        if index < self.num_layers - 1:
            h = relu(h)
        return h


def _checked_rows(rows, num_rows: int) -> np.ndarray:
    """``rows`` as int64, each in ``[0, num_rows)`` (so an unbuffered
    ``np.take(mode="clip")`` gathers exactly ``table[rows]``)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
        raise IndexError(f"decoded rows must lie in [0, {num_rows})")
    return rows


def _decode_table(table) -> np.ndarray:
    """``table`` as the decode reads it: float32 as it is, any other
    dtype as float64."""
    table = np.asarray(table)
    if table.dtype != np.float32:
        table = table.astype(np.float64, copy=False)
    return table


def _padded(width: int) -> int:
    """``width`` rounded up to a multiple of :data:`SWEEP_PANEL`."""
    return -(-width // SWEEP_PANEL) * SWEEP_PANEL


def _tiled(row: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` copies of ``row``, stacked: a chunk-shaped elementwise
    operand.  numpy runs a pass against a broadcast row, or a scalar,
    as one short inner loop per row; against a chunk-shaped operand it
    is one loop, about twice as fast on a 512 x 64 chunk."""
    return np.repeat(row[None, :], rows, axis=0)


def _decode_weights(layers: List[Linear], dtype: np.dtype, rows: int):
    """The forward-only decode's operands in ``dtype`` for chunks of up
    to ``rows`` rows: ``(weight, bias)`` per hidden layer, then the
    output layer's weight column and bias.  Every hidden width is
    zero-padded up to a multiple of :data:`SWEEP_PANEL`: a padded unit
    sums zero products, stays 0 through ReLU and meets zero weights
    above, so padding changes the decoder's function nowhere, only
    which GEMM kernel rounds a row.

    A hidden bias is stored as ``b + 0.0`` (+0.0 for a layer without
    one): ``y + b`` is then never -0.0, so the ReLU's ``max(y + b, 0)``
    already has the bits ``relu`` gives, with no ``-0.0 -> +0.0`` pass.
    Hidden biases and the column come :func:`_tiled` to ``rows`` rows.
    """
    hidden = []
    fan_in = layers[0].in_features
    for layer in layers[:-1]:
        width = _padded(layer.out_features)
        weight = np.zeros((fan_in, width), dtype)
        weight[:layer.in_features, :layer.out_features] = layer.weight.data
        bias = np.zeros(width, dtype)
        if layer.bias is not None:
            bias[:layer.out_features] = layer.bias.data
            bias += 0.0
        hidden.append((weight, _tiled(bias, rows)))
        fan_in = width
    last = layers[-1]
    column = np.zeros(fan_in, dtype)
    column[:last.in_features] = last.weight.data[:, 0]
    bias = None if last.bias is None else last.bias.data.astype(dtype)
    return hidden, _tiled(column, rows), bias


class EdgePredictor(Module):
    """An edge scorer: ``forward`` records the tape for training, and
    :meth:`decode` / :meth:`sweep` are its forward-only serving path.

    Both serving methods run one routine, in the table's dtype (float32
    stays float32, anything else runs in float64): the Hadamard rows
    ``table[u] * table[v]`` in chunks of :data:`SWEEP_CHUNK` rows
    through preallocated buffers, each hidden layer one GEMM of two or
    more rows (bias and ReLU in place), and the output layer a
    row-wise product-sum.  A GEMM row's bits depend neither on the row
    count nor on the row's offset at the panel-padded widths, and a
    row-wise sum reads its own row alone, so every score is a pure
    function of ``(table, weights, u, v)``: a top-k score equals the
    pair score of the same ``(u, c)`` bit for bit, and a pair scores
    the same whatever else is decoded with it.  ``forward`` (the taped
    training path, one GEMV over the batch for the output layer) agrees
    to rounding.
    """

    def _decode_layers(self) -> List[Linear]:
        """The affine layers the decode runs; none for a dot product."""
        return []

    def decode(self, table: np.ndarray, u, v) -> np.ndarray:
        """Scores of the pairs ``(table[u[i]], table[v[i]])``."""
        table = _decode_table(table)
        u = _checked_rows(u, table.shape[0])
        v = _checked_rows(v, table.shape[0])
        if u.shape != v.shape:
            raise ValueError(f"u and v differ in shape: {u.shape} vs "
                             f"{v.shape}")
        other = np.empty((min(u.size, SWEEP_CHUNK), table.shape[1]),
                         table.dtype)

        def fill(x: np.ndarray, start: int, stop: int) -> None:
            np.take(table, u[start:stop], axis=0, out=x, mode="clip")
            x *= np.take(table, v[start:stop], axis=0, mode="clip",
                         out=other[:stop - start])

        return self._decode_rows(fill, u.size, table)

    def sweep(self, query: np.ndarray, table: np.ndarray,
              rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores of one ``query`` row against every ``table[rows]``
        (every table row when ``rows`` is ``None``): with ``query =
        table[q]``, the :meth:`decode` scores of the pairs ``(q,
        rows[i])``, bit for bit.  The whole table is scored from
        contiguous slices, with no gather, and ``rows`` picked from
        it."""
        table = _decode_table(table)
        if rows is not None:
            rows = _checked_rows(rows, table.shape[0])
        query = np.asarray(query, dtype=table.dtype)
        n = table.shape[0]
        query = _tiled(query, min(n, SWEEP_CHUNK))

        def fill(x: np.ndarray, start: int, stop: int) -> None:
            np.multiply(table[start:stop], query[:stop - start], out=x)

        scores = self._decode_rows(fill, n, table)
        return scores if rows is None else scores[rows]

    def _decode_rows(self, fill, n: int, table: np.ndarray) -> np.ndarray:
        """The routine :meth:`decode` and :meth:`sweep` share:
        ``fill(x, start, stop)`` writes Hadamard rows ``start:stop``
        into ``x``."""
        dtype = table.dtype
        cap = max(2, min(n, SWEEP_CHUNK))
        layers = self._decode_layers()
        hidden, column, bias = (_decode_weights(layers, dtype, cap)
                                if layers else ([], None, None))
        # Per hidden layer: weight, tiled bias, output buffer, ReLU zero.
        hidden = [(weight, b, np.empty_like(b), np.zeros(b.shape, dtype))
                  for weight, b in hidden]
        scores = np.empty(n, dtype)
        bounds = list(range(0, n, SWEEP_CHUNK)) + [n]
        prod = np.empty((cap, table.shape[1]), dtype)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            size = stop - start
            x = prod[:max(size, 2)]
            fill(x[:size], start, stop)
            if size == 1:   # a one-row GEMM is a GEMV: it rounds apart
                x[1] = x[0]
            rows = x.shape[0]
            for weight, b, buf, zero in hidden:
                y = buf[:rows]
                np.matmul(x, weight, out=y)
                y += b[:rows]
                np.maximum(y, zero[:rows], out=y)
                x = y
            if column is not None:
                x *= column[:rows]
            np.sum(x[:size], axis=-1, out=scores[start:stop])
        if bias is not None:
            scores += bias
        return scores


class DotPredictor(EdgePredictor):
    """Dot-product edge scorer: ``s_uv = <h_u, h_v>``."""

    def forward(self, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Edge scores as dot products of endpoint embeddings."""
        return (h_u * h_v).sum(axis=-1).reshape(-1)


class MLPPredictor(EdgePredictor):
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

    def _decode_layers(self) -> List[Linear]:
        return self.mlp.layers


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
                       num_heads=num_heads, rng=rng)
    if predictor == "mlp":
        head: Module = MLPPredictor(hidden_dim, num_layers=predictor_layers,
                                    rng=rng)
    elif predictor == "dot":
        head = DotPredictor()
    else:
        raise ValueError(f"unknown predictor {predictor!r}")
    return LinkPredictionModel(encoder, head)
