"""The durable checkpoint store: checksummed snapshots + manifest WAL.

On disk a checkpoint directory looks like::

    <dir>/manifest.json             the write-ahead manifest
    <dir>/snap-000003-000005.ckpt   one snapshot per completed write

A *write* is two atomic steps, in order: the snapshot file is written
durably (``tmp + fsync + rename`` via :mod:`repro.checkpoint.io`),
then the manifest is atomically rewritten with the new entry appended.
The manifest therefore only ever references snapshots that are fully
on disk — it records the last durably completed ``(epoch, round)``.

A *read* walks the manifest newest-first, verifying each snapshot's
size and sha256 against the recorded entry.  A torn or corrupted
newest snapshot (e.g. the driver died mid-write, or the file was
truncated afterwards) is skipped — the read rolls back to the previous
good entry.  Only when every entry fails does the store raise
:class:`~repro.checkpoint.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import CheckpointCorruptError, CheckpointNotFoundError
from .io import (
    atomic_write_bytes,
    atomic_write_json,
    serialize_state,
    deserialize_state,
    sha256_bytes,
)

#: Manifest schema identifier; bump on any layout change.
MANIFEST_SCHEMA = "repro_checkpoint_manifest/v1"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class CheckpointInfo:
    """One manifest entry: a durably completed snapshot."""

    epoch: int
    round: int
    file: str
    sha256: str
    nbytes: int

    def to_dict(self) -> Dict[str, object]:
        """JSON form, as stored in the manifest."""
        return {"epoch": self.epoch, "round": self.round,
                "file": self.file, "sha256": self.sha256,
                "nbytes": self.nbytes}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CheckpointInfo":
        """Rebuild from :meth:`to_dict` output."""
        return cls(epoch=int(d["epoch"]), round=int(d["round"]),
                   file=str(d["file"]), sha256=str(d["sha256"]),
                   nbytes=int(d["nbytes"]))


class CheckpointStore:
    """Atomic, checksummed snapshot storage under one directory.

    ``keep`` bounds the number of snapshots retained: after each write
    the oldest entries beyond the newest ``keep`` are dropped from the
    manifest and their files deleted.  At least two are always kept so
    a torn newest write can roll back.
    """

    def __init__(self, root: "os.PathLike[str] | str",
                 keep: int = 2) -> None:
        if keep < 2:
            raise ValueError("keep must be >= 2 (rollback needs a "
                             "previous snapshot)")
        self.root = os.fspath(root)
        self.keep = keep

    # -- paths ----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        """Location of the manifest WAL."""
        return os.path.join(self.root, MANIFEST_NAME)

    def _snapshot_name(self, epoch: int, rnd: int) -> str:
        """Deterministic snapshot filename for an ``(epoch, round)``."""
        return f"snap-{epoch:06d}-{rnd:06d}.ckpt"

    # -- manifest -------------------------------------------------------

    def _read_manifest(self) -> List[CheckpointInfo]:
        """Parse the manifest; typed errors for every failure mode."""
        if not os.path.isdir(self.root):
            raise CheckpointNotFoundError(
                f"checkpoint directory {self.root!r} does not exist; "
                "pass the directory a previous run checkpointed into "
                "(Session.checkpoint / TrainConfig.checkpoint_dir)")
        try:
            with open(self.manifest_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise CheckpointNotFoundError(
                f"{self.root!r} is not a repro checkpoint directory "
                f"(no {MANIFEST_NAME}); pass the directory a previous "
                "run checkpointed into") from None
        except OSError as exc:
            raise CheckpointCorruptError(
                f"cannot read {self.manifest_path!r}: {exc}") from exc
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError as exc:   # UnicodeDecodeError included
            raise CheckpointCorruptError(
                f"{self.manifest_path!r} is not valid JSON "
                f"({exc}); the manifest was corrupted") from exc
        if (not isinstance(doc, dict)
                or doc.get("schema") != MANIFEST_SCHEMA):
            raise CheckpointCorruptError(
                f"{self.manifest_path!r} has schema "
                f"{doc.get('schema') if isinstance(doc, dict) else None!r}"
                f", expected {MANIFEST_SCHEMA!r}")
        try:
            return [CheckpointInfo.from_dict(e) for e in doc["entries"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"{self.manifest_path!r} has a malformed entry list "
                f"({type(exc).__name__}: {exc})") from exc

    def _write_manifest(self, entries: List[CheckpointInfo]) -> None:
        """Atomically rewrite the manifest with ``entries``."""
        atomic_write_json(self.manifest_path, {
            "schema": MANIFEST_SCHEMA,
            "entries": [e.to_dict() for e in entries],
        })

    def entries(self) -> List[CheckpointInfo]:
        """All completed snapshots, oldest first."""
        return self._read_manifest()

    # -- write ----------------------------------------------------------

    def write(self, state: Dict[str, np.ndarray], epoch: int,
              rnd: int) -> CheckpointInfo:
        """Durably persist one snapshot and commit it to the manifest.

        The snapshot file lands (atomic + fsync) *before* the manifest
        references it; a crash between the two strands an unreferenced
        file, never a dangling manifest entry.  Returns the committed
        :class:`CheckpointInfo`.
        """
        os.makedirs(self.root, exist_ok=True)
        data = serialize_state(state)
        name = self._snapshot_name(epoch, rnd)
        atomic_write_bytes(os.path.join(self.root, name), data)
        info = CheckpointInfo(epoch=epoch, round=rnd, file=name,
                              sha256=sha256_bytes(data),
                              nbytes=len(data))
        try:
            entries = self._read_manifest()
        except CheckpointNotFoundError:
            entries = []
        entries = [e for e in entries if e.file != name]
        entries.append(info)
        dropped = entries[:-self.keep]
        entries = entries[-self.keep:]
        self._write_manifest(entries)
        for old in dropped:
            try:
                os.remove(os.path.join(self.root, old.file))
            except OSError:
                pass
        return info

    # -- read -----------------------------------------------------------

    def latest(self) -> Tuple[CheckpointInfo, Dict[str, np.ndarray], int]:
        """The newest *verifiable* snapshot.

        Walks the manifest newest-first, checking each snapshot's size
        and sha256; torn/corrupt entries are skipped (rollback).
        Returns ``(info, state, rolled_back)`` where ``rolled_back``
        counts the skipped newer entries.  Raises
        :class:`CheckpointNotFoundError` when the manifest records
        nothing, :class:`CheckpointCorruptError` when every recorded
        snapshot fails verification.
        """
        entries = self._read_manifest()
        if not entries:
            raise CheckpointNotFoundError(
                f"{self.root!r} has an empty manifest: no checkpoint "
                "completed before the run ended")
        rolled_back = 0
        for info in reversed(entries):
            path = os.path.join(self.root, info.file)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                rolled_back += 1
                continue
            if len(data) != info.nbytes or sha256_bytes(data) != info.sha256:
                rolled_back += 1
                continue
            try:
                state = deserialize_state(data)
            except (ValueError, OSError):
                rolled_back += 1
                continue
            return info, state, rolled_back
        raise CheckpointCorruptError(
            f"every snapshot recorded in {self.manifest_path!r} failed "
            "its checksum; the checkpoint directory is unrecoverable")
