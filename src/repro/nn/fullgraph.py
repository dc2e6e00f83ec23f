"""Full-batch (transductive) GCN training on the whole graph.

The mini-batch pipeline mirrors what distributed training needs, but a
classic full-batch GCN — one sparse-matrix forward over the entire
graph per step — is the standard centralized reference for small and
medium graphs.  It exercises the autograd engine's sparse matmul path
and provides an independent cross-check of the sampled pipeline's
accuracy (see the full-graph example and tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..rng import ensure_rng
from ..eval.metrics import auc, hits_at_k
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit
from ..sampling.negative import PerSourceUniformNegativeSampler
from .loss import bce_with_logits
from .module import Linear, Module
from .models import MLPPredictor
from .optim import Adam
from .tensor import Tensor, gather, no_grad, relu, sparse_matmul


def normalized_adjacency(graph: Graph, add_self_loops: bool = True
                         ) -> sp.csr_matrix:
    """Symmetric GCN propagation matrix ``D^-1/2 (A + I) D^-1/2``."""
    adj = graph.adjacency(weighted=True)
    if add_self_loops:
        adj = (adj + sp.eye(graph.num_nodes, format="csr")).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d = sp.diags(inv_sqrt)
    return (d @ adj @ d).tocsr()


class FullGraphGCN(Module):
    """K-layer GCN evaluated on the full graph in one shot."""

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int = 2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = ensure_rng(rng)
        dims = [in_dim] + [hidden_dim] * num_layers
        self.layers = [Linear(dims[i], dims[i + 1], rng=rng)
                       for i in range(num_layers)]

    def forward(self, prop: sp.csr_matrix, features: np.ndarray) -> Tensor:
        """Propagate ``features`` through every GCN layer at once."""
        h = Tensor(features)
        for i, layer in enumerate(self.layers):
            h = layer(sparse_matmul(prop, h))
            if i < len(self.layers) - 1:
                h = relu(h)
        return h


class FullBatchLinkPredictor(Module):
    """Full-graph GCN encoder + MLP edge scorer."""

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int = 2,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.encoder = FullGraphGCN(in_dim, hidden_dim, num_layers, rng=rng)
        self.predictor = MLPPredictor(hidden_dim, rng=rng)

    def forward(self, prop: sp.csr_matrix, features: np.ndarray,
                pairs: np.ndarray) -> Tensor:
        """Scores (logits) for ``pairs`` from full-graph embeddings."""
        h = self.encoder(prop, features)
        h_u = gather(h, pairs[:, 0])
        h_v = gather(h, pairs[:, 1])
        return self.predictor(h_u, h_v)


def train_full_batch(
    split: EdgeSplit,
    hidden_dim: int = 64,
    num_layers: int = 2,
    epochs: int = 50,
    lr: float = 1e-2,
    hits_k: int = 50,
    seed: int = 0,
) -> Dict[str, object]:
    """Train a full-batch GCN link predictor; returns metrics + model.

    One gradient step per epoch on *all* training edges plus an equal
    number of per-source-uniform negatives, exactly the transductive
    recipe the GCN paper popularized.
    """
    graph = split.train_graph
    if graph.features is None:
        raise ValueError("training requires node features")
    rng = np.random.default_rng(seed)
    prop = normalized_adjacency(graph)
    model = FullBatchLinkPredictor(graph.feature_dim, hidden_dim,
                                   num_layers, seed=seed)
    optimizer = Adam(model.parameters(), lr=lr)
    negative_sampler = PerSourceUniformNegativeSampler(graph, rng=rng)
    positives = graph.edge_list()
    losses: List[float] = []

    for _ in range(epochs):
        negatives = negative_sampler.sample(positives[:, 0])
        pairs = np.concatenate([positives, negatives], axis=0)
        labels = np.concatenate([np.ones(positives.shape[0]),
                                 np.zeros(negatives.shape[0])])
        scores = model(prop, graph.features, pairs)
        loss = bce_with_logits(scores, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())

    model.eval()

    @no_grad()
    def score(pairs: np.ndarray) -> np.ndarray:
        return model(prop, graph.features,
                     np.asarray(pairs, dtype=np.int64)).data
    test_pos = score(split.test_pos)
    test_neg = score(split.test_neg)
    model.train()
    return {
        "model": model,
        "losses": losses,
        "test_hits": hits_at_k(test_pos, test_neg, k=hits_k),
        "test_auc": auc(test_pos, test_neg),
    }
