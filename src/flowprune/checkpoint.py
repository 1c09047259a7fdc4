"""Binary named-tensor container for checkpoints, scores and samples.

Layout, format version 3 (all integers little-endian):

    8 bytes   magic "SOFTPRN\\0"
    u32       format version (3)
    u32       tensor count
    per tensor:
        u16       name length
        bytes     UTF-8 name
        u8        dtype code (0 = float64, 1 = uint8, 2 = float32, 3 = int64)
        u8        rank
        rank*u64  dims
        payload   little-endian values, row-major
    u64       CRC-32 (zlib) of all preceding bytes, zero-extended

Each name appears once; a file that repeats one is malformed. Metadata
rides along as one reserved uint8 tensor, ``__meta__json``, holding the
UTF-8 bytes of a JSON object. Every other tensor keeps its own dtype; save
rejects a dtype without a code before it creates a file. Only version 3 is
read: re-running the stage that wrote a version-1 or version-2 file
rebuilds it, and ``pretrain`` retrains over a checkpoint it cannot read.

Saving is atomic: a temporary file in the target directory is renamed over
the target, so a reader sees the previous file or the whole new one. Save
streams each header and payload under a running CRC-32, copying only a
tensor that is not C-contiguous. Load checks the CRC-32 in ``_CHUNK``-byte
reads and walks the headers, rejecting a payload that the dims claim but
the file does not hold, before it allocates or writes any array.
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
VERSION = 3
_META_NAME = "__meta__json"
_DTYPES = dict(enumerate(map(np.dtype, ["<f8", "u1", "<f4", "<i8"])))
_CODES = {dtype: code for code, dtype in _DTYPES.items()}
# bytes per read of load's checksum pass
_CHUNK = 1 << 16


class CheckpointError(ValueError):
    """A checkpoint that is corrupt, unreadable, or unlike its arrays."""


def save_checkpoint(path, tensors: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    if _META_NAME in tensors:
        raise CheckpointError(f"{_META_NAME!r} is a reserved tensor name")
    items = {name: np.asarray(arr) for name, arr in tensors.items()}
    if meta is not None:
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        items[_META_NAME] = np.frombuffer(blob, np.uint8)
    codes = [_CODES.get(arr.dtype.newbyteorder("<")) for arr in items.values()]
    for name, arr, code in zip(items, items.values(), codes):
        if code is None:
            raise CheckpointError(f"tensor {name!r} has dtype {arr.dtype}, "
                                  f"which a checkpoint cannot hold")
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

            put(MAGIC + struct.pack("<II", VERSION, len(items)))
            for (name, arr), code in zip(items.items(), codes):
                raw = name.encode("utf-8")
                put(struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw,
                                code, arr.ndim, *arr.shape))
                put(np.ascontiguousarray(arr, dtype=_DTYPES[code])
                    .reshape(-1).view(np.uint8))
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
    while n > 0 and (got := fh.readinto(buf[:min(n, _CHUNK)])):
        crc = zlib.crc32(buf[:got], crc)
        n -= got
    return crc


def _unpack(fmt: str, fh) -> tuple:
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _read_into(fh, name: str, at: int, arr: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous ``arr`` from the payload at file offset ``at``."""
    fh.seek(at)
    got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != arr.nbytes:
        raise ValueError(f"tensor {name!r} is cut short: {got} of "
                         f"{arr.nbytes} bytes")
    return arr


def load_checkpoint(path, into: dict[str, np.ndarray] | None = None
                    ) -> tuple[dict[str, np.ndarray], dict]:
    """Read the checkpoint at ``path``; returns ``(tensors, meta)``. Without
    ``into``, ``tensors`` holds new float64 arrays. With ``into``, live arrays
    such as ``pipeline.model_tensors(model, opt)``, each payload is read into
    its array of that name and ``into`` is returned; file tensors it does not
    name are skipped, so ``into={}`` reads the metadata alone. Every name,
    shape, dtype and destination (writeable, C-contiguous) is checked first."""
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
        off = fh.seek(len(head))
        headers: dict[str, tuple] = {}  # name -> (dtype, dims, offset)
        try:
            for _ in range(count):
                (nlen,) = _unpack("<H", fh)
                name = fh.read(nlen).decode("utf-8")
                if name in headers:
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
                headers[name] = (_DTYPES[code], dims, off)
                off += nbytes
                fh.seek(off)
            if off != end:
                raise ValueError(f"{end - off} bytes after the last tensor")
            meta = {}
            if _META_NAME in headers:
                dtype, dims, at = headers.pop(_META_NAME)
                blob = _read_into(fh, _META_NAME, at, np.empty(dims, dtype))
                meta = json.loads(blob.tobytes().decode("utf-8"))
            if into is None:
                return {name: _read_into(fh, name, at, np.empty(dims, dtype))
                        .astype(np.float64, copy=False)
                        for name, (dtype, dims, at) in headers.items()}, meta
            for name, arr in into.items():
                if name not in headers:
                    raise CheckpointError(f"{path}: missing tensor {name!r}")
                dtype, dims, _ = headers[name]
                c, w = arr.flags.c_contiguous, arr.flags.writeable
                if (arr.dtype, arr.shape, c, w) != (dtype, dims, True, True):
                    raise CheckpointError(
                        f"{path}: tensor {name!r} is {dtype} {dims}, its "
                        f"destination {arr.dtype} {arr.shape} (C-contiguous "
                        f"{c}, writeable {w})")
            for name, arr in into.items():
                _read_into(fh, name, headers[name][2], arr)
            return into, meta
        except CheckpointError:
            raise
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed container: {exc}") from exc
