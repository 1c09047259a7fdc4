"""Binary named-tensor container for checkpoints, scores and samples.

Layout (all integers little-endian):

    8 bytes   magic "SOFTPRN\\0"
    u32       format version (1)
    u32       tensor count
    per tensor:
        u16       name length
        bytes     UTF-8 name
        u8        dtype code (0 = float64)
        u8        rank
        rank*u64  dims
        payload   little-endian float64 values, row-major
    u64       FNV-1a checksum of all preceding bytes

Metadata (stage name, iteration, config hash, ...) rides along as one
reserved tensor named ``__meta__json`` holding the UTF-8 bytes of a JSON
object, one byte per float64 value.

Saving is atomic: the container is written to a temporary file in the target
directory and renamed over the target, so a reader sees either the previous
file or the complete new one, never a truncated write.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"SOFTPRN\x00"
VERSION = 1
_META_NAME = "__meta__json"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint file."""


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _encode_tensor(name: str, arr: np.ndarray) -> bytes:
    raw = name.encode("utf-8")
    # ascontiguousarray alone would promote 0-d arrays to 1-d
    arr = np.ascontiguousarray(arr, dtype="<f8").reshape(np.shape(arr))
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<BB", 0, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + dims + arr.tobytes()


def save_checkpoint(path, tensors: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    items = dict(tensors)
    if _META_NAME in items:
        raise CheckpointError(f"{_META_NAME!r} is a reserved tensor name")
    if meta is not None:
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        items[_META_NAME] = np.frombuffer(blob, dtype=np.uint8).astype(np.float64)
    body = MAGIC + struct.pack("<II", VERSION, len(items))
    for name in items:
        body += _encode_tensor(name, np.asarray(items[name]))
    body += struct.pack("<Q", _fnv1a(body))
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 16 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (stored,) = struct.unpack("<Q", data[-8:])
    if _fnv1a(data[:-8]) != stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    off = len(MAGIC)
    version, count = struct.unpack_from("<II", data, off)
    off += 8
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off : off + nlen].decode("utf-8")
        off += nlen
        dtype_code, rank = struct.unpack_from("<BB", data, off)
        off += 2
        if dtype_code != 0:
            raise CheckpointError(f"{path}: unknown dtype code {dtype_code}")
        dims = struct.unpack_from(f"<{rank}Q", data, off) if rank else ()
        off += 8 * rank
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(dims)
        off += 8 * n
        tensors[name] = arr.copy()
    meta: dict = {}
    if _META_NAME in tensors:
        blob = tensors.pop(_META_NAME)
        meta = json.loads(bytes(blob.astype(np.uint8)).decode("utf-8"))
    return tensors, meta
