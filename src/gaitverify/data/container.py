"""Portable binary file of a saved model: a (metadata, arrays) pair, string -> string
and name -> float32 array, both in order. ``save_model`` writes the pair and
``load_model`` returns it; what it must hold is for models.from_container to check:
an encoder's architecture is its tensors' shapes, and its metadata holds 'arch'
and free-form keys about how it was trained.

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


def save_model(path, metadata: dict[str, str], arrays: dict[str, np.ndarray]) -> None:
    """Write the pair, each array cast to float32; one with nan or inf (after the cast too)
    is an InvalidInputError naming it, and nothing is written."""
    tensors = {}
    for name, values in arrays.items():
        with np.errstate(over="ignore"):  # a value past float32's range becomes inf
            arr = np.asarray(values, dtype="<f4")
        if not np.isfinite(arr).all():
            raise InvalidInputError(f"tensor {name!r} holds non-finite values")
        tensors[name] = arr
    parts = [MAGIC, struct.pack("<II", VERSION, len(metadata))]
    for key, val in metadata.items():
        parts += [_pack_str(key), _pack_str(str(val))]
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        parts += [_pack_str(name), struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)]
    parts += [arr.tobytes() for arr in tensors.values()]
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The (metadata, arrays) pair of a file; a departure from the layout, a repeated key or
    name, or a nan or inf payload is a FormatError naming the file."""
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: not a model container (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise FormatError(
            f"{path}: unsupported container version {version} (this build reads version {VERSION})")
    metadata = {}
    for _ in range(r.u32()):
        key = r.string()
        if key in metadata:
            raise FormatError(f"{path}: duplicate metadata key {key!r}")
        metadata[key] = r.string()
    shapes = []
    for _ in range(r.u32()):
        name = r.string()
        ndim = r.u32()
        dims = tuple(r.u32() for _ in range(ndim))
        shapes.append((name, dims))
    arrays = {}
    for name, dims in shapes:
        raw = r.take(4 * math.prod(dims))  # Python ints: huge dims cannot wrap
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if name in arrays:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
        arrays[name] = arr
    if r.pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.pos} trailing bytes")
    return metadata, arrays
