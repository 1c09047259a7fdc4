import builtins
import io
import json
import struct
import zlib

import numpy as np
import pytest

from flowprune.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from flowprune.seeding import make_rng


def fnv1a(data: bytes) -> int:
    """The 64-bit FNV-1a checksum that format version 1 used."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def v1_container(tensors: dict) -> bytes:
    """A format-version-1 file: float64 tensors, FNV-1a trailer."""
    body = MAGIC + struct.pack("<II", 1, len(tensors))
    for name, arr in tensors.items():
        raw, arr = name.encode("utf-8"), np.asarray(arr, dtype="<f8")
        body += struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw, 0,
                            arr.ndim, *arr.shape) + arr.tobytes()
    return body + struct.pack("<Q", fnv1a(body))


def twice_named_container() -> bytes:
    """A CRC-valid version-2 file that names ``w`` twice: zeros(2), then
    ones(3)."""
    items = [("w", np.zeros(2)), ("w", np.ones(3))]
    body = MAGIC + struct.pack("<II", 2, len(items))
    for name, arr in items:
        raw = name.encode("utf-8")
        body += struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw, 0,
                            arr.ndim, *arr.shape) + arr.astype("<f8").tobytes()
    return body + struct.pack("<Q", zlib.crc32(body))


def test_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(path, {})
    tensors, meta = load_checkpoint(path)
    assert tensors == {} and meta == {}


def test_roundtrip_bit_identical(tmp_path):
    rng = make_rng(0, "ckpt")
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b.mask": rng.uniform(size=(7,)),
        "scalar": np.array(3.25),
    }
    meta = {"stage": "pretrain", "iteration": 42, "config_hash": "abc123"}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, tensors, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == np.asarray(tensors[name]).shape
        assert loaded[name].tobytes() == np.asarray(tensors[name]).tobytes()


def test_payload_bytes_are_ieee754(tmp_path):
    path = tmp_path / "one.ckpt"
    save_checkpoint(path, {"w": np.array([[1.0]])})
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    version, count = struct.unpack_from("<II", raw, 8)
    assert (version, count) == (2, 1)
    nlen = struct.unpack_from("<H", raw, 16)[0]
    assert raw[18 : 18 + nlen] == b"w"
    dtype_code, rank = struct.unpack_from("<BB", raw, 18 + nlen)
    assert (dtype_code, rank) == (0, 2)
    dims = struct.unpack_from("<2Q", raw, 20 + nlen)
    assert dims == (1, 1)
    payload_off = 20 + nlen + 16
    assert raw[payload_off : payload_off + 8] == struct.pack("<d", 1.0)


def test_checksum_detects_corruption(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)})
    raw = bytearray(path.read_bytes())
    raw[-12] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_1_file_rejected(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(v1_container({"w": np.arange(3.0)}))
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(path)


def test_metadata_is_uint8_tensor_with_crc32_trailer(tmp_path):
    path = tmp_path / "meta.ckpt"
    meta = {"stage": "pretrain", "iteration": 3}
    save_checkpoint(path, {}, meta)
    raw = path.read_bytes()
    name = b"__meta__json"
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    assert struct.unpack_from("<IIH", raw, 8) == (2, 1, len(name))
    assert raw[18 : 18 + len(name)] == name
    off = 18 + len(name)
    assert struct.unpack_from("<BBQ", raw, off) == (1, 1, len(blob))
    assert raw[off + 10 : -8] == blob
    assert struct.unpack("<Q", raw[-8:])[0] == zlib.crc32(raw[:-8])


def test_any_flipped_byte_rejected(tmp_path):
    # header, tensor payload, metadata and trailer bytes alike
    path = tmp_path / "flip.ckpt"
    save_checkpoint(path, {"w": np.arange(2.0)}, {"stage": "x"})
    good = path.read_bytes()
    for pos in range(len(good)):
        raw = bytearray(good)
        raw[pos] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("count", [0, 2])
def test_tensor_count_mismatch_with_valid_checksum_rejected(tmp_path, count):
    path = tmp_path / "count.ckpt"
    save_checkpoint(path, {"w": np.arange(2.0)})
    body = bytearray(path.read_bytes()[:-8])
    body[12:16] = struct.pack("<I", count)  # the file holds one tensor
    path.write_bytes(bytes(body) + struct.pack("<Q", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="malformed container"):
        load_checkpoint(path)


def test_tensor_named_twice_rejected(tmp_path):
    path = tmp_path / "twice.ckpt"
    path.write_bytes(twice_named_container())
    with pytest.raises(CheckpointError,
                       match="malformed container: tensor 'w' appears twice"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_reserved_name_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "r.ckpt", {"__meta__json": np.zeros(1)})


def test_resume_bit_identical_next_loss(tmp_path):
    from flowprune.datasets import generate
    from flowprune.diffusion import (
        Adam,
        NoisePredictor,
        make_schedule,
        train,
    )
    from flowprune.pipeline import model_tensors, restore_model

    data = generate(256, 0)
    sched = make_schedule(50, 1e-3, 0.05)

    model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
    opt = Adam(model.params, 2e-4)
    train(model, sched, data, steps=7, opt=opt, seed=3, stage="resume",
          batch_size=16)
    save_checkpoint(tmp_path / "mid.ckpt", model_tensors(model, opt),
                    {"step": 7})
    # three steps: the first loss is taken before the restored Adam state
    # acts, the next two after it has
    ref_trace = train(model, sched, data, steps=3, opt=opt, seed=3,
                      stage="resume", start_step=7, batch_size=16,
                      log_interval=1)

    model2 = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
    opt2 = Adam(model2.params, 2e-4)
    tensors, meta = load_checkpoint(tmp_path / "mid.ckpt")
    restore_model(model2, tensors)
    opt2.load_state(tensors)
    assert meta["step"] == 7
    got_trace = train(model2, sched, data, steps=3, opt=opt2, seed=3,
                      stage="resume", start_step=7, batch_size=16,
                      log_interval=1)
    assert len(got_trace) == 3
    assert [np.float64(loss).tobytes() for _, loss in ref_trace] == [
        np.float64(loss).tobytes() for _, loss in got_trace]
    # at lr 2e-4 a restored state off by float32 rounding may leave three
    # losses equal, so the parameters and moments must match too
    assert [a.tobytes() for d in (model.params, opt.m, opt.v)
            for a in d.values()] == [a.tobytes() for d in (
                model2.params, opt2.m, opt2.v) for a in d.values()]


def test_resume_keeps_the_training_precision(tmp_path):
    """Checkpoints store float64; loading casts back into the float32
    parameters, masks and Adam moments, so the steps after a resume match
    uninterrupted training bit for bit."""
    from flowprune.datasets import generate
    from flowprune.diffusion import Adam, NoisePredictor, make_schedule, train
    from flowprune.pipeline import model_tensors, restore_model

    data = generate(256, 0)
    sched = make_schedule(50, 1e-3, 0.05)
    runs = []
    for resume in (False, True):
        model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4, seed=0)
        opt = Adam(model.params, 2e-3)
        train(model, sched, data, steps=4, opt=opt, seed=3, stage="prec",
              batch_size=16)
        if resume:
            save_checkpoint(tmp_path / "mid.ckpt", model_tensors(model, opt))
            model = NoisePredictor(dim=2, hidden=8, depth=2, temb_dim=4,
                                   seed=1)
            opt = Adam(model.params, 2e-3)
            tensors, _ = load_checkpoint(tmp_path / "mid.ckpt")
            restore_model(model, tensors)
            opt.load_state(tensors)
        for state in (model.params, model.masks, opt.m, opt.v):
            assert {a.dtype for a in state.values()} == {np.dtype(np.float32)}
        trace = train(model, sched, data, steps=3, opt=opt, seed=3,
                      stage="prec", start_step=4, batch_size=16,
                      log_interval=1)
        runs.append((trace, {n: a.tobytes() for n, a in model.params.items()}))
    assert runs[0] == runs[1]


class _FailingFile:
    """File stand-in that writes the first half of a buffer, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("simulated write failure")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0)}, {"stage": "old"})
    before = path.read_bytes()

    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingFile(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(path, {"a": np.arange(1000.0)}, {"stage": "new"})
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    tensors, meta = load_checkpoint(path)
    assert meta == {"stage": "old"}
