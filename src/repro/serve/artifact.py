"""Servable artifact: a trained model frozen for online serving.

Serving never runs the GNN encoder online.  At export time the full
final-layer embedding of every node is materialized with exact
full-neighbor computation (``fanouts = [-1] * K`` — deterministic, no
RNG draws) by :func:`~repro.eval.evaluator.materialize_embeddings`, in
one message-flow graph so each node's layer-``l`` row is computed
once; online requests then reduce to embedding lookups plus a decoder
forward, which is what makes micro-batched low-latency serving
tractable.  The artifact holds that table once, read-only and in
float32 (its decoder weights too), the dtype training computes in,
and the cluster serves that very array.

The artifact is versioned and checksummed:

* ``model_version`` — for an export, sha256 over the trained model's
  parameters (see :func:`repro.nn.serialize.state_fingerprint`), tying
  every served score back to the exact weights that produced the
  embeddings.  A streaming candidate hashes the weights ⊕ its table ⊕
  the graph it was embedded against instead (see
  :meth:`repro.stream.reembed.Reembedder.version`): the same weights
  re-embedded after a delta are a new version.
* ``checksum`` — sha256 over the artifact payload, whose per-shard
  blocks are cut from the served table when it runs: the bytes it
  covers are the bytes requests read.  Verified on load, so a
  corrupted or hand-edited servable fails loudly instead of serving
  wrong scores, and by the stream's rollout gate.

On disk the artifact is a single ``.npz`` written through
:mod:`repro.nn.serialize` (same codec as model checkpoints), schema
``serve_artifact/v1``.

This module is the *offline export* path and legitimately owns the
full graph; online serve handlers never touch raw graph state.
"""

from __future__ import annotations

import tokenize
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
from ..eval.evaluator import materialize_embeddings
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

    One read-only ``(num_nodes, embed_dim)`` embedding table (float32
    for an export; a float64 file from before loads as float64), the
    shard ownership ``assignment`` and the decoder weights in the
    table's dtype —
    everything a :class:`~repro.serve.cluster.ServingCluster` needs to
    answer pairwise and top-k requests without the training stack.
    The per-shard blocks of the payload are cut from the table when
    :meth:`checksum` or :meth:`save` runs, so the checksum covers
    exactly the bytes the cluster serves.  Build one with
    :func:`artifact_from_table` (or :meth:`load`).
    """

    model_version: str
    num_shards: int
    predictor_kind: str
    assignment: np.ndarray
    table: np.ndarray
    predictor_state: Dict[str, np.ndarray]
    #: :meth:`build_predictor`, built once and shared; not part of the
    #: payload, the checksum or equality.
    _predictor: Optional[Module] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        """Total nodes covered by the artifact."""
        return int(self.assignment.size)

    @property
    def embed_dim(self) -> int:
        """Width of an embedding row."""
        return int(self.table.shape[1])

    @property
    def shard_nodes(self) -> List[np.ndarray]:
        """Each shard's owned node ids, ascending."""
        return [np.flatnonzero(self.assignment == part)
                for part in range(self.num_shards)]

    # -- payload / integrity --------------------------------------------

    def _payload(self) -> Dict[str, np.ndarray]:
        """Flat array dict (everything except the checksum itself)."""
        payload: Dict[str, np.ndarray] = {
            "meta.schema": np.array(ARTIFACT_SCHEMA),
            "meta.model_version": np.array(self.model_version),
            "meta.predictor_kind": np.array(self.predictor_kind),
            "meta.embed_dim": np.array(self.embed_dim, dtype=np.int64),
            "meta.num_shards": np.array(self.num_shards, dtype=np.int64),
            "assignment": self.assignment,
        }
        for part, nodes in enumerate(self.shard_nodes):
            payload[f"shard.{part:04d}.nodes"] = nodes
            payload[f"shard.{part:04d}.embed"] = self.table[nodes]
        for key, value in self.predictor_state.items():
            payload[f"predictor.{key}"] = np.asarray(value)
        return payload

    def checksum(self) -> str:
        """Content hash of the artifact payload (hex sha256), cut from
        the served table as it is now."""
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
            intact = stored_checksum == state_fingerprint(state)
            artifact = _from_payload(state) if intact else None
        except KeyError as exc:
            raise ValueError(
                f"servable artifact {path} is missing payload key "
                f"{exc.args[0]!r}") from exc
        # A damaged zip member fails in whichever layer decodes it:
        # the archive, zlib (or bz2, when a flipped bit turns deflate's
        # method 8 into 12; it raises a bare OSError), or numpy's header
        # parser (whose fallback tokenizer raises its own error on a
        # mangled header).  A missing or unreadable file keeps its
        # OSError subclass.
        except (ValueError, IndexError, zipfile.BadZipFile, EOFError,
                zlib.error, NotImplementedError, RuntimeError, SyntaxError,
                tokenize.TokenError, OSError) as exc:
            if isinstance(exc, OSError) and type(exc) is not OSError:
                raise
            raise ValueError(
                f"servable artifact {path} is unreadable: {exc}") from exc
        if not intact:
            raise ValueError(
                f"servable artifact {path} failed its checksum: the file "
                "was corrupted or edited after export")
        return artifact

    # -- serving helpers -------------------------------------------------

    def embedding_table(self) -> np.ndarray:
        """The full ``(num_nodes, embed_dim)`` table the cluster serves:
        read-only, every caller shares the one array."""
        return self.table

    def build_predictor(self) -> Module:
        """The decoder module with the stored weights: built on the
        first call, then shared."""
        if self._predictor is None:
            self._predictor = self._decoder()
        return self._predictor

    def _decoder(self) -> Module:
        """Reconstruct the decoder module from the stored weights, in
        the table's dtype."""
        if self.predictor_kind == "dot":
            return DotPredictor()
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
        predictor.astype(self.table.dtype).load_state_dict(
            self.predictor_state)
        return predictor

    def describe(self) -> str:
        """One-paragraph human-readable artifact description."""
        shard_sizes = ", ".join(str(size) for size in np.bincount(
            self.assignment, minlength=self.num_shards))
        return (f"servable {ARTIFACT_SCHEMA} model={self.model_version[:12]} "
                f"dim={self.embed_dim} shards={self.num_shards} "
                f"nodes=[{shard_sizes}] predictor={self.predictor_kind}")


def _from_payload(state: Dict[str, np.ndarray]) -> ServableArtifact:
    """Rebuild an artifact, its table put back from the shard blocks."""
    schema = str(state["meta.schema"])
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"unsupported servable schema {schema!r} "
            f"(expected {ARTIFACT_SCHEMA!r})")
    num_shards = int(state["meta.num_shards"])
    assignment = state["assignment"]
    blocks = [state[f"shard.{part:04d}.embed"] for part in range(num_shards)]
    table = np.zeros((assignment.size, int(state["meta.embed_dim"])),
                     dtype=np.result_type(*blocks))
    for part, block in enumerate(blocks):
        nodes = state[f"shard.{part:04d}.nodes"]
        # Blocks are re-cut in this order on save: any other order
        # would load, then checksum differently from the file.
        if not np.array_equal(nodes, np.flatnonzero(assignment == part)):
            raise ValueError(f"shard.{part:04d}.nodes is not the "
                             f"ascending list of shard {part}'s nodes")
        table[nodes] = block
    predictor_state = {
        key[len("predictor."):]: value
        for key, value in state.items() if key.startswith("predictor.")
    }
    return artifact_from_table(
        table, str(state["meta.model_version"]),
        str(state["meta.predictor_kind"]), predictor_state, assignment,
        num_shards)


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
    """Build a :class:`ServableArtifact` around a ready embedding table.

    The one constructor: :func:`export_servable`, the streaming
    re-embedder, a stream resume and :meth:`ServableArtifact.load` all
    end here.  A float32 or float64 ``table`` becomes the artifact's
    table as it is, made read-only (any other dtype is converted to
    float32 first), and ``predictor_state`` is stored in the table's
    dtype; ``assignment`` must name an owner for each of its rows.
    """
    table = np.asarray(table)
    if table.dtype not in (np.float32, np.float64):
        table = table.astype(np.float32)
    assignment = owner_vector(assignment, num_parts, size=table.shape[0])
    table.flags.writeable = False
    return ServableArtifact(
        model_version=model_version, num_shards=num_parts,
        predictor_kind=predictor_kind, assignment=assignment,
        table=table, predictor_state={
            key: np.asarray(value, dtype=table.dtype)
            for key, value in predictor_state.items()})


def export_servable(model: LinkPredictionModel,
                    partitioned: PartitionedGraph) -> ServableArtifact:
    """Freeze a trained model into a :class:`ServableArtifact`.

    Embeds every node with exact full-neighbor computation on the
    master's full graph — the RNG-free, deterministic setting, so the
    same trained weights always export the same artifact — and serves
    the table and the decoder weights in float32.
    """
    kind = predictor_kind_of(model)
    table = materialize_embeddings(model, partitioned.full).astype(
        np.float32, copy=False)
    # Master ownership (node_owner == assignment for node-partitioned
    # layouts; the master replica under vertex cut) routes the shards.
    return artifact_from_table(
        table, model_fingerprint(model), kind,
        model.predictor.state_dict(), partitioned.node_owner,
        partitioned.num_parts)
