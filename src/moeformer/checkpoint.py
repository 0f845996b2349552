"""Binary checkpoints: magic, format version, training step, a config echo,
then one record per named tensor (name, rank, dims, raw little-endian
float32 data). Round trips are bit-exact: a tensor that float32 cannot hold
exactly is refused, not rounded."""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

MAGIC = b"MOEF"
FORMAT_VERSION = 1
MAX_RANK = 32  # the most axes numpy 1.x arrays can have


def save_checkpoint(params, path, config_text: str = "", step: int = 0) -> None:
    """Write named tensors; ``params`` is an iterable of (name, Tensor).

    A tensor whose values float32 cannot hold exactly is a CheckpointError
    naming it, raised before the file is opened."""
    items = []
    for name, tensor in params:
        data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
        with np.errstate(over="ignore"):
            stored = np.ascontiguousarray(data, dtype="<f4")
        if stored.dtype != data.dtype and not np.array_equal(stored, data, equal_nan=True):
            raise CheckpointError(
                f"{path}: tensor {name!r} ({data.dtype}) does not fit float32 exactly")
        items.append((name, stored))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", step))
        config_bytes = config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        fh.write(struct.pack("<I", len(items)))
        for name, data in items:
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated while reading {what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not valid UTF-8") from exc

    def unpack(self, fmt: str, what: str) -> int:
        """The one integer of the ``struct`` format ``fmt``, read next."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def load_checkpoint(path):
    """Read a checkpoint: (tensors dict[str, np.ndarray], config_text, step).

    A malformed record or a tensor holding NaN or inf is a CheckpointError
    naming the tensor."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version = r.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    step = r.unpack("<Q", "step")
    config_text = r.text(r.unpack("<I", "config length"), "config")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I", "tensor count")):
        name = r.text(r.unpack("<H", "name length"), "tensor name")
        rank = r.unpack("<B", f"rank of {name!r}")
        if rank > MAX_RANK:
            raise CheckpointError(f"{path}: rank {rank} of {name!r} exceeds {MAX_RANK}")
        shape = tuple(r.unpack("<I", f"dims of {name!r}") for _ in range(rank))
        raw = r.take(4 * math.prod(shape), f"data of {name!r}")
        data = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or inf")
        tensors[name] = data
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes")
    return tensors, config_text, step


def load_into(named_params, path):
    """Load a checkpoint into existing tensors with ``copy_into``; returns
    (config_text, step)."""
    tensors, config_text, step = load_checkpoint(path)
    copy_into(named_params, tensors, path)
    return config_text, step


def copy_into(named_params, tensors: dict[str, np.ndarray], path) -> None:
    """Copy the tensors read from checkpoint ``path`` into existing tensors,
    validating names and shapes.

    ``named_params`` is an iterable of (name, Tensor). Values are copied
    into each tensor's existing buffer (cast to its dtype), so views of it,
    such as an optimizer's flat parameter arena, see them. The first
    mismatching tensor is named in the error.
    """
    params = dict(named_params)
    if set(params) != set(tensors):
        missing = sorted(set(params) - set(tensors))
        extra = sorted(set(tensors) - set(params))
        detail = []
        if missing:
            detail.append(f"missing from file: {missing[0]!r}")
        if extra:
            detail.append(f"unexpected in file: {extra[0]!r}")
        raise CheckpointError(f"{path}: tensor names do not match ({'; '.join(detail)})")
    for name, tensor in params.items():
        if tensors[name].shape != tensor.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: file has "
                f"{tensors[name].shape}, model expects {tensor.shape}"
            )
    for name, tensor in params.items():
        tensor.data[...] = tensors[name]
