"""Portable binary container for model weights and solver state.

Byte layout (all integers little-endian uint32, all payloads
little-endian IEEE-754 single precision, row-major):

    magic   4 bytes          b"GVF1"
    version u32              currently 1
    n_meta  u32
    n_meta times:            key_len u32, key utf-8, val_len u32, val utf-8
    n_entries u32
    n_entries times:         name_len u32, name utf-8, ndim u32, dim u32 * ndim
    payloads                 n_entries blocks of prod(dims) * 4 bytes,
                             in entry-table order
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, InvalidInputError

MAGIC = b"GVF1"
VERSION = 1


class ModelContainer:
    def __init__(self, metadata: dict[str, str] | None = None):
        self.metadata: dict[str, str] = dict(metadata or {})
        self._entries: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray):
        if name in self._entries:
            raise InvalidInputError(f"duplicate entry name {name!r}")
        arr = np.ascontiguousarray(values, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"entry {name!r} contains non-finite values")
        self._entries[name] = arr

    def get(self, name: str) -> np.ndarray:
        if name not in self._entries:
            raise KeyError(name)
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelContainer):
            return NotImplemented
        if self.metadata != other.metadata or self.names() != other.names():
            return False
        return all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in ((self._entries[n], other._entries[n]) for n in self._entries)
        )


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: container truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        start = self.pos
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"{self.path}: string at byte {start} is not valid UTF-8") from None


def save_model(container: ModelContainer, path) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack("<I", len(container.metadata)))
    for key, val in container.metadata.items():
        parts.append(_pack_str(key))
        parts.append(_pack_str(str(val)))
    names = container.names()
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        arr = container.get(name)
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
    for name in names:
        arr = container.get(name)
        parts.append(arr.astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> ModelContainer:
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: not a model container (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise FormatError(
            f"{path}: unsupported container version {version} (this build reads version {VERSION})")
    container = ModelContainer()
    for _ in range(r.u32()):
        key = r.string()
        if key in container.metadata:
            raise FormatError(f"{path}: duplicate metadata key {key!r}")
        container.metadata[key] = r.string()
    shapes = []
    for _ in range(r.u32()):
        name = r.string()
        ndim = r.u32()
        dims = tuple(r.u32() for _ in range(ndim))
        shapes.append((name, dims))
    for name, dims in shapes:
        raw = r.take(4 * math.prod(dims))  # Python ints: huge dims cannot wrap
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if name in container._entries:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        container._entries[name] = arr
    if r.pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.pos} trailing bytes")
    return container
