"""Communication accounting.

The paper's efficiency metric (Figures 4, 8, 9, 13, Table III) is the
total cumulative amount of graph data transferred from the master
server to all workers during one training epoch, in gigabytes.  The
:class:`CommMeter` charges every remote access a worker makes:

* **feature bytes** — one feature vector (``feature_dim * 4`` bytes,
  float32 on the wire) per remote node per mini-batch.  Nodes are
  deduplicated within a batch ("the features of the same node need to
  be transferred only once per batch", Section V-C) but not across
  batches, matching the paper's accounting.
* **structure bytes** — adjacency shipped for remote neighbor queries:
  16 bytes per edge (two int64 endpoints) plus 8 per weight on
  sparsified (weighted) subgraphs, plus 8 bytes per queried node id.
* **sync bytes** — gradient/model exchange for synchronization.  The
  paper's communication-cost plots measure *graph data* only, so sync
  traffic is tracked in a separate bucket.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional

import numpy as np

BYTES_PER_EDGE = 16
BYTES_PER_EDGE_WEIGHT = 8
BYTES_PER_NODE_ID = 8
FEATURE_ITEMSIZE = 4
GB = float(1024 ** 3)


def feature_nbytes(num_nodes: int, feature_dim: int) -> int:
    """Wire bytes for ``num_nodes`` feature vectors (float32)."""
    return int(num_nodes) * int(feature_dim) * FEATURE_ITEMSIZE


def structure_nbytes(num_edges: int, num_queried_nodes: int,
                     weighted: bool = False) -> int:
    """Wire bytes for a structure answer: edges + queried node ids.

    These formulas are the single source of truth — the
    :class:`CommMeter` charges with them and the
    :class:`~repro.lint.runtime.AuditedStore` sanitizer independently
    recomputes them to cross-check every store answer.
    """
    per_edge = BYTES_PER_EDGE + (BYTES_PER_EDGE_WEIGHT if weighted else 0)
    return (int(num_edges) * per_edge
            + int(num_queried_nodes) * BYTES_PER_NODE_ID)


@dataclass
class CommRecord:
    """Byte totals for one epoch."""

    feature_bytes: int = 0
    structure_bytes: int = 0
    sync_bytes: int = 0

    @property
    def graph_data_bytes(self) -> int:
        """What the paper plots: feature + structure transfer."""
        return self.feature_bytes + self.structure_bytes

    @property
    def total_bytes(self) -> int:
        """Graph data plus synchronization traffic."""
        return self.graph_data_bytes + self.sync_bytes

    def to_dict(self) -> Dict[str, int]:
        """Serializable snapshot of all three byte buckets."""
        return {
            "feature_bytes": self.feature_bytes,
            "structure_bytes": self.structure_bytes,
            "sync_bytes": self.sync_bytes,
        }

    def __iadd__(self, other: "CommRecord") -> "CommRecord":
        self.feature_bytes += other.feature_bytes
        self.structure_bytes += other.structure_bytes
        self.sync_bytes += other.sync_bytes
        return self


@dataclass
class CommMeter:
    """Cumulative communication ledger with per-epoch granularity.

    When a :class:`~repro.obs.observer.RunObserver` is attached via
    ``obs``, every charge is mirrored into the run's metric counters
    (``comm.feature_bytes``, ``comm.structure_bytes``,
    ``comm.sync_bytes``) with the exact same byte value — the
    ``RunReport`` totals therefore match the ledger bit for bit.
    """

    current: CommRecord = field(default_factory=CommRecord)
    epochs: List[CommRecord] = field(default_factory=list)
    obs: Optional[object] = field(default=None, repr=False, compare=False)
    #: Checkpoint key prefix (the trainer's meters: ``meter.NNNN``).
    name: str = field(default="meter", compare=False)

    # -- charging -------------------------------------------------------

    def charge_features(self, num_nodes: int, feature_dim: int) -> None:
        """Charge ``num_nodes`` remotely fetched feature vectors."""
        nbytes = feature_nbytes(num_nodes, feature_dim)
        self.current.feature_bytes += nbytes
        if self.obs is not None:
            self.obs.counter("comm.feature_bytes").inc(nbytes)

    def charge_structure(self, num_edges: int, num_queried_nodes: int,
                         weighted: bool = False) -> None:
        """Charge one remote structure answer (edges + queried ids)."""
        nbytes = structure_nbytes(num_edges, num_queried_nodes, weighted)
        self.current.structure_bytes += nbytes
        if self.obs is not None:
            self.obs.counter("comm.structure_bytes").inc(nbytes)

    def charge_sync(self, nbytes: int) -> None:
        """Charge one worker's share of a synchronization round."""
        self.current.sync_bytes += int(nbytes)
        if self.obs is not None:
            self.obs.counter("comm.sync_bytes").inc(int(nbytes))

    def absorb(self, record: CommRecord) -> None:
        """Merge byte totals measured elsewhere into this meter.

        The process execution backend charges a *child* copy of the
        meter inside the worker process and ships the per-batch delta
        back; the parent absorbs it here so the authoritative ledger
        (and its observer mirror) stays byte-identical to an
        in-process run.
        """
        if record.feature_bytes:
            self.current.feature_bytes += record.feature_bytes
            if self.obs is not None:
                self.obs.counter("comm.feature_bytes").inc(
                    record.feature_bytes)
        if record.structure_bytes:
            self.current.structure_bytes += record.structure_bytes
            if self.obs is not None:
                self.obs.counter("comm.structure_bytes").inc(
                    record.structure_bytes)
        if record.sync_bytes:
            self.current.sync_bytes += record.sync_bytes
            if self.obs is not None:
                self.obs.counter("comm.sync_bytes").inc(record.sync_bytes)

    # -- epoch bookkeeping ----------------------------------------------

    def end_epoch(self) -> CommRecord:
        """Close the current epoch's record and start a fresh one."""
        record = self.current
        self.epochs.append(record)
        self.current = CommRecord()
        return record

    # -- checkpointing ----------------------------------------------------

    def capture(self) -> tuple:
        """The ledger as ``<name>.epochs`` (one row per closed epoch)
        and ``<name>.current`` int64 arrays (no meta entries)."""
        rows = [astuple(record) for record in self.epochs]
        return {}, {
            f"{self.name}.epochs": np.array(rows, dtype=np.int64).reshape(
                len(rows), 3),
            f"{self.name}.current": np.array(astuple(self.current),
                                             dtype=np.int64)}

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back (the observer mirror is
        restored by the observer itself)."""
        epochs = arrays[f"{self.name}.epochs"]
        current = arrays[f"{self.name}.current"]
        self.epochs = [CommRecord(*row.tolist()) for row in epochs]
        self.current = CommRecord(*current.tolist())

    # -- summaries --------------------------------------------------------

    def total(self) -> CommRecord:
        """Sum of every closed epoch plus the open one."""
        total = CommRecord()
        for rec in self.epochs:
            total += rec
        total += self.current
        return total

    def graph_data_gb_per_epoch(self) -> List[float]:
        """Graph-data GB of each closed epoch, in order."""
        return [rec.graph_data_bytes / GB for rec in self.epochs]

    def mean_graph_data_gb(self) -> float:
        """Average graph-data GB per completed epoch (the paper's axis)."""
        if not self.epochs:
            return self.current.graph_data_bytes / GB
        return (sum(rec.graph_data_bytes for rec in self.epochs)
                / len(self.epochs) / GB)
