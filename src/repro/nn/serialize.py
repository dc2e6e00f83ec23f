"""Model checkpointing.

Saves/loads a module's ``state_dict`` as a compressed ``.npz`` archive
so trained link predictors can be shipped between processes or kept
across sessions — the moral equivalent of ``torch.save``.

Both functions accept a filesystem path or a binary file-like object;
the fault-tolerance subsystem (:mod:`repro.faults`) checkpoints worker
state through in-memory buffers with this same codec, so every
mid-training checkpoint exercises the exact on-disk format.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Union, BinaryIO

import numpy as np

from .module import Module

_META_KEY = "__repro_format__"
_FORMAT_VERSION = "1"

PathOrFile = Union[str, "os.PathLike[str]", BinaryIO]


def save_state_dict(state: Dict[str, np.ndarray], path: PathOrFile) -> None:
    """Write a state dict to ``path`` (npz, compressed).

    ``path`` may be a filename or a writable binary file object.
    """
    payload = dict(state)
    payload[_META_KEY] = np.array(_FORMAT_VERSION)
    if hasattr(path, "write"):
        np.savez_compressed(path, **payload)
        return
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def load_state_dict(path: PathOrFile) -> Dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state_dict`.

    ``path`` may be a filename or a readable binary file object.
    """
    if not hasattr(path, "read") and not os.path.exists(path):
        raise FileNotFoundError(path)
    with np.load(path) as archive:
        keys = set(archive.files)
        if _META_KEY not in keys:
            raise ValueError(f"{path} is not a repro checkpoint")
        version = str(archive[_META_KEY])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r}")
        # Each access decodes a fresh array: nothing to copy.
        return {k: archive[k] for k in keys if k != _META_KEY}


def state_fingerprint(state: Dict[str, np.ndarray]) -> str:
    """Content hash of a state dict (hex sha256).

    Keys are hashed in sorted order together with each array's shape,
    dtype and raw bytes (read through the buffer protocol), so two
    models agree on a fingerprint exactly when their parameters are
    bit-identical.  This is the *model version* of the serving artifact
    and the stream's candidates: any parameter update changes the
    fingerprint and invalidates everything derived from the old
    weights.
    """
    digest = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(arr.shape).encode("ascii"))
        digest.update(str(arr.dtype).encode("ascii"))
        digest.update(arr)  # the buffer itself: no bytes copy
    return digest.hexdigest()


def model_fingerprint(model: Module) -> str:
    """Content hash of a module's current parameters (hex sha256)."""
    return state_fingerprint(model.state_dict())


def save_model(model: Module, path: str) -> None:
    """Checkpoint a module's parameters."""
    save_state_dict(model.state_dict(), path)


def load_model(model: Module, path: str) -> Module:
    """Load parameters into an architecture-compatible module.

    The module must already be built with matching shapes (the
    checkpoint stores no architecture metadata, like a plain
    ``state_dict`` file).
    """
    model.load_state_dict(load_state_dict(path))
    return model
