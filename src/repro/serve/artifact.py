"""Servable artifact: a trained model frozen for online serving.

Serving never runs the GNN encoder online.  At export time the full
final-layer embedding of every node is materialized with exact
full-neighbor computation (``fanouts = [-1] * K`` — deterministic, no
RNG draws) by :func:`~repro.eval.evaluator.materialize_embeddings`, in
one message-flow graph so each node's layer-``l`` row is computed
once, and split by shard ownership; online requests then reduce to
embedding lookups plus a decoder forward, which is what makes
micro-batched low-latency serving tractable.

The artifact is versioned and checksummed:

* ``model_version`` — sha256 over the trained model's parameters (see
  :func:`repro.nn.serialize.state_fingerprint`); ties every served
  score back to the exact weights that produced the embeddings.
* ``checksum`` — sha256 over the artifact payload itself; verified on
  load, so a corrupted or hand-edited servable fails loudly instead of
  serving wrong scores.

On disk the artifact is a single ``.npz`` written through
:mod:`repro.nn.serialize` (same codec as model checkpoints), schema
``serve_artifact/v1``.

This module is the *offline export* path and legitimately owns the
full graph; online serve handlers never touch raw graph state.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn.models import (
    DotPredictor,
    LinkPredictionModel,
    MLPPredictor,
)
from ..nn.module import Module
from ..checkpoint.io import atomic_save_state_dict
from ..eval.evaluator import eval_mode, materialize_embeddings
from ..nn.serialize import (
    load_state_dict,
    model_fingerprint,
    state_fingerprint,
)
from ..partition.partitioned import PartitionedGraph, owner_vector

#: On-disk schema identifier; bump on any layout change.
ARTIFACT_SCHEMA = "serve_artifact/v1"


@dataclass
class ServableArtifact:
    """A frozen, versioned, checksummed servable.

    Per-shard materialized node embeddings plus the decoder weights —
    everything a :class:`~repro.serve.cluster.ServingCluster` needs to
    answer pairwise and top-k requests without the training stack.
    """

    model_version: str
    embed_dim: int
    num_shards: int
    predictor_kind: str
    assignment: np.ndarray
    shard_nodes: List[np.ndarray]
    shard_embeddings: List[np.ndarray]
    predictor_state: Dict[str, np.ndarray]
    schema: str = ARTIFACT_SCHEMA
    #: :meth:`embedding_table` / :meth:`build_predictor`, built once and
    #: shared; not part of the payload, the checksum or equality.
    _table: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)
    _predictor: Optional[Module] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        """Total nodes covered by the artifact."""
        return int(self.assignment.size)

    # -- payload / integrity --------------------------------------------

    def _payload(self) -> Dict[str, np.ndarray]:
        """Flat array dict (everything except the checksum itself)."""
        payload: Dict[str, np.ndarray] = {
            "meta.schema": np.array(self.schema),
            "meta.model_version": np.array(self.model_version),
            "meta.predictor_kind": np.array(self.predictor_kind),
            "meta.embed_dim": np.array(self.embed_dim, dtype=np.int64),
            "meta.num_shards": np.array(self.num_shards, dtype=np.int64),
            "assignment": np.asarray(self.assignment, dtype=np.int64),
        }
        for part, (nodes, emb) in enumerate(
                zip(self.shard_nodes, self.shard_embeddings)):
            payload[f"shard.{part:04d}.nodes"] = np.asarray(
                nodes, dtype=np.int64)
            payload[f"shard.{part:04d}.embed"] = np.asarray(
                emb, dtype=np.float64)
        for key, value in self.predictor_state.items():
            payload[f"predictor.{key}"] = np.asarray(value)
        return payload

    def checksum(self) -> str:
        """Content hash of the artifact payload (hex sha256)."""
        return state_fingerprint(self._payload())

    # -- persistence ----------------------------------------------------

    def save(self, path) -> str:
        """Write the artifact (npz via :mod:`repro.nn.serialize`,
        crash-atomically via :mod:`repro.checkpoint.io`); returns the
        embedded checksum."""
        payload = self._payload()
        checksum = state_fingerprint(payload)
        payload["meta.checksum"] = np.array(checksum)
        atomic_save_state_dict(payload, path)
        return checksum

    @classmethod
    def load(cls, path) -> "ServableArtifact":
        """Read and *verify* an artifact written by :meth:`save`.

        Raises ``ValueError`` naming the file on an unreadable
        (truncated, corrupted, not an npz) file, a missing payload key,
        or a schema or checksum mismatch.
        """
        try:
            state = load_state_dict(path)
            stored_checksum = str(state.pop("meta.checksum", np.array("")))
            artifact = cls._from_payload(state)
        except KeyError as exc:
            raise ValueError(
                f"servable artifact {path} is missing payload key "
                f"{exc.args[0]!r}") from exc
        # A damaged zip member fails in whichever layer decodes it:
        # the archive, zlib, or numpy's header parser.
        except (ValueError, zipfile.BadZipFile, EOFError, zlib.error,
                NotImplementedError, RuntimeError) as exc:
            raise ValueError(
                f"servable artifact {path} is unreadable: {exc}") from exc
        if stored_checksum != state_fingerprint(state):
            raise ValueError(
                f"servable artifact {path} failed its checksum: the file "
                "was corrupted or edited after export")
        return artifact

    @classmethod
    def _from_payload(cls, state: Dict[str, np.ndarray]
                      ) -> "ServableArtifact":
        """Rebuild the dataclass from a flat payload dict."""
        schema = str(state["meta.schema"])
        if schema != ARTIFACT_SCHEMA:
            raise ValueError(
                f"unsupported servable schema {schema!r} "
                f"(expected {ARTIFACT_SCHEMA!r})")
        num_shards = int(state["meta.num_shards"])
        shard_nodes = [state[f"shard.{p:04d}.nodes"]
                       for p in range(num_shards)]
        shard_embeddings = [state[f"shard.{p:04d}.embed"]
                            for p in range(num_shards)]
        predictor_state = {
            key[len("predictor."):]: value
            for key, value in state.items() if key.startswith("predictor.")
        }
        return cls(
            model_version=str(state["meta.model_version"]),
            embed_dim=int(state["meta.embed_dim"]),
            num_shards=num_shards,
            predictor_kind=str(state["meta.predictor_kind"]),
            assignment=state["assignment"],
            shard_nodes=shard_nodes,
            shard_embeddings=shard_embeddings,
            predictor_state=predictor_state,
            schema=schema)

    # -- serving helpers -------------------------------------------------

    def embedding_table(self) -> np.ndarray:
        """The full ``(num_nodes, embed_dim)`` table, assembled from
        the per-shard blocks (every node is owned by exactly one
        shard, so the union covers the graph) on the first call.
        Read-only: every caller shares the one array."""
        if self._table is None:
            table = np.zeros((self.num_nodes, self.embed_dim),
                             dtype=np.float64)
            for nodes, emb in zip(self.shard_nodes,
                                  self.shard_embeddings):
                table[nodes] = emb
            table.flags.writeable = False
            self._table = table
        return self._table

    def build_predictor(self) -> Module:
        """The decoder module with the stored weights, in eval mode:
        built on the first call, then shared."""
        if self._predictor is None:
            self._predictor = self._decoder()
        return self._predictor

    def _decoder(self) -> Module:
        """Reconstruct the decoder module from the stored weights."""
        if self.predictor_kind == "dot":
            return DotPredictor().eval()
        if self.predictor_kind != "mlp":
            raise ValueError(
                f"unknown predictor kind {self.predictor_kind!r}")
        layer_ids = sorted({
            int(key.split(".")[2])
            for key in self.predictor_state
            if key.startswith("mlp.layers.")})
        num_layers = len(layer_ids)
        first_w = self.predictor_state["mlp.layers.0.weight"]
        hidden = (int(first_w.shape[1]) if num_layers > 1
                  else int(self.embed_dim))
        predictor = MLPPredictor(self.embed_dim, hidden_dim=hidden,
                                 num_layers=num_layers,
                                 rng=np.random.default_rng(0))
        predictor.load_state_dict(self.predictor_state)
        return predictor.eval()

    def describe(self) -> str:
        """One-paragraph human-readable artifact description."""
        shard_sizes = ", ".join(str(n.size) for n in self.shard_nodes)
        return (f"servable {self.schema} model={self.model_version[:12]} "
                f"dim={self.embed_dim} shards={self.num_shards} "
                f"nodes=[{shard_sizes}] predictor={self.predictor_kind}")


def predictor_kind_of(model: LinkPredictionModel) -> str:
    """The exportable decoder kind of ``model`` (``"mlp"``/``"dot"``)."""
    predictor = model.predictor
    if isinstance(predictor, DotPredictor):
        return "dot"
    if isinstance(predictor, MLPPredictor):
        return "mlp"
    raise ValueError(
        f"cannot export predictor {type(predictor).__name__}; "
        "expected MLPPredictor or DotPredictor")


def artifact_from_table(table: np.ndarray, model_version: str,
                        predictor_kind: str,
                        predictor_state: Dict[str, np.ndarray],
                        assignment: np.ndarray,
                        num_parts: int) -> ServableArtifact:
    """Shard a ready embedding table into a :class:`ServableArtifact`.

    The streaming path re-materializes tables incrementally and
    re-shards them after rebalances; this constructor is the shared
    tail of both that path and :func:`export_servable`.  A float64
    ``table`` becomes the artifact's :meth:`~ServableArtifact.
    embedding_table` as it is, made read-only (any other dtype is
    converted first); ``assignment`` must name an owner for each of
    its rows.
    """
    table = np.asarray(table, dtype=np.float64)
    assignment = owner_vector(assignment, num_parts, size=table.shape[0])
    shard_nodes = [np.flatnonzero(assignment == p)
                   for p in range(num_parts)]
    shard_embeddings = [table[nodes] for nodes in shard_nodes]
    artifact = ServableArtifact(
        model_version=model_version,
        embed_dim=int(table.shape[1]),
        num_shards=num_parts,
        predictor_kind=predictor_kind,
        assignment=assignment,
        shard_nodes=shard_nodes,
        shard_embeddings=shard_embeddings,
        predictor_state=predictor_state)
    table.flags.writeable = False
    artifact._table = table
    return artifact


def export_servable(model: LinkPredictionModel,
                    partitioned: PartitionedGraph) -> ServableArtifact:
    """Freeze a trained model into a :class:`ServableArtifact`.

    Embeds every node with exact full-neighbor computation on the
    master's full graph — the RNG-free, deterministic setting, so the
    same trained weights always export the same artifact — and splits
    the table by shard ownership.
    """
    kind = predictor_kind_of(model)
    with eval_mode(model):
        table = materialize_embeddings(model, partitioned.full)
    # Master ownership (node_owner == assignment for node-partitioned
    # layouts; the master replica under vertex cut) keys the shards.
    return artifact_from_table(
        table, model_fingerprint(model), kind,
        model.predictor.state_dict(), partitioned.node_owner,
        partitioned.num_parts)
