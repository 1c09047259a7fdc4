"""Binary named-tensor container for checkpoints, scores and samples.

Layout, format version 2 (all integers little-endian):

    8 bytes   magic "SOFTPRN\\0"
    u32       format version (2)
    u32       tensor count
    per tensor:
        u16       name length
        bytes     UTF-8 name
        u8        dtype code (0 = float64, 1 = uint8)
        u8        rank
        rank*u64  dims
        payload   little-endian values, row-major
    u64       CRC-32 (zlib) of all preceding bytes, zero-extended

Metadata (stage name, iteration, config hash, ...) rides along as one
reserved uint8 tensor named ``__meta__json`` holding the UTF-8 bytes of a
JSON object. Other tensors are stored as float64. Only version 2 is read.

Saving is atomic: the container is written to a temporary file in the target
directory and renamed over the target, so a reader sees either the previous
file or the complete new one, never a truncated write.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"SOFTPRN\x00"
VERSION = 2
_META_NAME = "__meta__json"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("u1")}


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint file."""


def _encode_tensor(name: str, arr: np.ndarray, code: int = 0) -> list:
    raw = name.encode("utf-8")
    # ascontiguousarray alone would promote 0-d arrays to 1-d
    arr = np.ascontiguousarray(arr, dtype=_DTYPES[code]).reshape(np.shape(arr))
    head = struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw, code,
                       arr.ndim, *arr.shape)
    return [head, arr.tobytes()]


def save_checkpoint(path, tensors: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    if _META_NAME in tensors:
        raise CheckpointError(f"{_META_NAME!r} is a reserved tensor name")
    count = len(tensors) + (meta is not None)
    parts = [MAGIC, struct.pack("<II", VERSION, count)]
    for name, arr in tensors.items():
        parts += _encode_tensor(name, np.asarray(arr))
    if meta is not None:
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        parts += _encode_tensor(_META_NAME, np.frombuffer(blob, np.uint8), 1)
    body = b"".join(parts)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<Q", zlib.crc32(body)))
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
    # the version decides the checksum, so it is read first
    version, count = struct.unpack_from("<II", data, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (stored,) = struct.unpack_from("<Q", data, len(data) - 8)
    if zlib.crc32(memoryview(data)[:-8]) != stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    off = len(MAGIC) + 8
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", data, off)
            name = data[off + 2 : off + 2 + nlen].decode("utf-8")
            off += 2 + nlen
            code, rank = struct.unpack_from("<BB", data, off)
            if code not in _DTYPES:
                raise ValueError(f"unknown dtype code {code}")
            dims = struct.unpack_from(f"<{rank}Q", data, off + 2)
            off += 2 + 8 * rank
            n = int(np.prod(dims, dtype=np.int64))
            arr = np.frombuffer(data, _DTYPES[code], count=n, offset=off)
            off += arr.nbytes
            tensors[name] = arr.reshape(dims).copy()
        if off != len(data) - 8:
            raise ValueError(f"{len(data) - 8 - off} bytes after the last tensor")
        meta = {}
        if _META_NAME in tensors:
            meta = json.loads(tensors.pop(_META_NAME).tobytes().decode("utf-8"))
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed container: {exc}") from exc
    return tensors, meta
