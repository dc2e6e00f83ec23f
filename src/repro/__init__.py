"""repro — reproduction of "Demystifying Distributed Training of Graph
Neural Networks for Link Prediction" (ICDCS 2025).

The package implements SpLPG and every system it depends on from
scratch on numpy: graph storage, METIS-style partitioning,
effective-resistance sparsification, a GNN autograd stack
(GCN/GraphSAGE/GAT/GATv2), mini-batch samplers, and a simulated
distributed runtime with byte-exact communication accounting and
pluggable execution backends (serial / thread / process).

Quickstart
----------
>>> import repro
>>> result = repro.run(framework="splpg", dataset="cora",
...                    workers=4, backend="process",
...                    scale="smoke")                  # doctest: +SKIP
>>> print(result.summary())                           # doctest: +SKIP

See :mod:`repro.api` for the full front door (including the chainable
:class:`~repro.api.Session`); the low-level ``build_trainer`` /
``run_framework`` live in :mod:`repro.core`.
"""

from . import api
from .api import Session, SessionStateError, resolve_config, run
from .core import (
    FRAMEWORK_NAMES,
    FRAMEWORKS,
    PAPER_LABELS,
    FrameworkSpec,
    SpLPG,
)
from .distributed import TrainConfig, TrainResult
from .eval import EvalResult, Evaluator, auc, hits_at_k
from .graph import (
    DATASET_NAMES,
    Graph,
    dataset_spec,
    load_dataset,
    split_edges,
)
from .partition import PartitionSpec, partition_graph
from .sparsify import sparsify_with_level, spielman_srivastava_sparsify

__version__ = "1.1.0"

__all__ = [
    "api",
    "run",
    "Session",
    "SessionStateError",
    "resolve_config",
    "FRAMEWORK_NAMES",
    "FRAMEWORKS",
    "PAPER_LABELS",
    "FrameworkSpec",
    "SpLPG",
    "TrainConfig",
    "TrainResult",
    "EvalResult",
    "Evaluator",
    "auc",
    "hits_at_k",
    "DATASET_NAMES",
    "Graph",
    "dataset_spec",
    "load_dataset",
    "split_edges",
    "PartitionSpec",
    "partition_graph",
    "sparsify_with_level",
    "spielman_srivastava_sparsify",
    "__version__",
]
