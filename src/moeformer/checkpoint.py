"""Binary checkpoints: magic, format version, training step, a config echo,
then one record per named tensor (name, rank, dims, raw little-endian
float32 data). Round trips are bit-exact for float32 models."""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

MAGIC = b"MOEF"
FORMAT_VERSION = 1


def save_checkpoint(params, path, config_text: str = "", step: int = 0) -> None:
    """Write named tensors; ``params`` is an iterable of (name, Tensor)."""
    items = list(params)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", step))
        config_bytes = config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        fh.write(struct.pack("<I", len(items)))
        for name, tensor in items:
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


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

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path):
    """Read a checkpoint: (tensors dict[str, np.ndarray], config_text, step)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    step = r.u64("step")
    config_text = r.text(r.u32("config length"), "config")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32("tensor count")):
        name = r.text(r.u16("name length"), "tensor name")
        rank = r.u8(f"rank of {name}")
        shape = tuple(r.u32(f"dims of {name}") for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        raw = r.take(4 * count, f"data of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes")
    return tensors, config_text, step


def load_into(named_params, path):
    """Load a checkpoint into existing tensors, validating names and shapes.

    ``named_params`` is an iterable of (name, Tensor). Returns (config_text,
    step). The first mismatching tensor is named in the error.
    """
    tensors, config_text, step = load_checkpoint(path)
    params = dict(named_params)
    if set(params) != set(tensors):
        missing = sorted(set(params) - set(tensors))
        extra = sorted(set(tensors) - set(params))
        detail = []
        if missing:
            detail.append(f"missing from file: {missing[0]}")
        if extra:
            detail.append(f"unexpected in file: {extra[0]}")
        raise CheckpointError(f"{path}: tensor names do not match ({'; '.join(detail)})")
    for name, tensor in params.items():
        if tensors[name].shape != tensor.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: file has "
                f"{tensors[name].shape}, model expects {tensor.shape}"
            )
    for name, tensor in params.items():
        tensor.data = tensors[name].astype(tensor.dtype)
    return config_text, step
