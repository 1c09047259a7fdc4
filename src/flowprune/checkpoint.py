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

Each name appears once; a file that repeats one is malformed.

Metadata (stage name, iteration, config hash, ...) rides along as one
reserved uint8 tensor named ``__meta__json`` holding the UTF-8 bytes of a
JSON object. Other tensors are stored as float64, so a float32 tensor
(the model's and the optimizer's) is cast on save and loads back exactly.
Only version 2 is read.

Saving is atomic: the container is written to a temporary file in the target
directory and renamed over the target, so a reader sees either the previous
file or the complete new one, never a truncated write.

Both directions stream tensor by tensor; the file bytes are unchanged from
when the container was built whole in memory. Save writes each header and
payload straight to the file, folding it into a running CRC-32; it holds
one tensor's float64 copy at a time (none for a tensor that is already
C-ordered float64). Load reads the file twice: it checks the CRC-32 in
``_CHUNK``-byte reads, then reads each payload into the array it returns,
so it holds only those arrays. A payload that the dims claim but the file
does not hold before its trailer is rejected before it is allocated.
"""

from __future__ import annotations

import json
import math
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
# bytes per read of load's checksum pass
_CHUNK = 1 << 20


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint file."""


def _write_tensor(put, name: str, arr: np.ndarray, code: int = 0) -> None:
    raw = name.encode("utf-8")
    put(struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw, code,
                    arr.ndim, *arr.shape))
    # the payload is written from the buffer of a C-ordered copy in the
    # stored dtype, or of ``arr`` itself when it is one already; the copy is
    # freed on return
    put(np.ascontiguousarray(arr, dtype=_DTYPES[code]).reshape(-1)
        .view(np.uint8))


def save_checkpoint(path, tensors: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    if _META_NAME in tensors:
        raise CheckpointError(f"{_META_NAME!r} is a reserved tensor name")
    count = len(tensors) + (meta is not None)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            crc = 0

            def put(buf) -> None:
                nonlocal crc
                fh.write(buf)
                crc = zlib.crc32(buf, crc)

            put(MAGIC + struct.pack("<II", VERSION, count))
            for name, arr in tensors.items():
                _write_tensor(put, name, np.asarray(arr))
            if meta is not None:
                blob = json.dumps(meta, sort_keys=True).encode("utf-8")
                _write_tensor(put, _META_NAME, np.frombuffer(blob, np.uint8), 1)
            fh.write(struct.pack("<Q", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _crc32_of_next(fh, n: int) -> int:
    """CRC-32 of the next ``n`` bytes of ``fh`` (fewer at end of file), read
    into one buffer of at most ``_CHUNK`` bytes."""
    buf = memoryview(bytearray(min(n, _CHUNK)))
    crc = 0
    while n > 0:
        got = fh.readinto(buf[:min(n, _CHUNK)])
        if not got:
            break
        crc = zlib.crc32(buf[:got], crc)
        n -= got
    return crc


def _unpack(fmt: str, fh) -> tuple:
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 8)
        if size < len(MAGIC) + 16 or head[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        # the version decides the checksum, so it is read first
        version, count = struct.unpack_from("<II", head, len(MAGIC))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        end = size - 8
        fh.seek(0)
        crc = _crc32_of_next(fh, end)
        (stored,) = _unpack("<Q", fh)
        if crc != stored:
            raise CheckpointError(f"{path}: checksum mismatch")
        fh.seek(len(head))
        off = len(head)
        tensors: dict[str, np.ndarray] = {}
        try:
            for _ in range(count):
                (nlen,) = _unpack("<H", fh)
                name = fh.read(nlen).decode("utf-8")
                if name in tensors:
                    raise ValueError(f"tensor {name!r} appears twice")
                code, rank = _unpack("<BB", fh)
                if code not in _DTYPES:
                    raise ValueError(f"unknown dtype code {code}")
                dims = _unpack(f"<{rank}Q", fh)
                off += 4 + nlen + 8 * rank
                # Python ints: a product past int64 must not wrap
                nbytes = math.prod(dims) * _DTYPES[code].itemsize
                if nbytes > end - off:
                    raise ValueError(f"tensor {name!r} claims {nbytes} bytes, "
                                     f"{max(end - off, 0)} remain before the "
                                     f"trailer")
                arr = np.empty(dims, _DTYPES[code])
                got = fh.readinto(arr.reshape(-1).view(np.uint8))
                if got != nbytes:
                    raise ValueError(f"tensor {name!r} is cut short: {got} of "
                                     f"{nbytes} bytes")
                off += nbytes
                tensors[name] = arr
            if off != end:
                raise ValueError(f"{end - off} bytes after the last tensor")
            meta = {}
            if _META_NAME in tensors:
                meta = json.loads(tensors.pop(_META_NAME).tobytes()
                                  .decode("utf-8"))
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed container: {exc}") from exc
    return tensors, meta
