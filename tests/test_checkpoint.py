import builtins
import io
import itertools
import json
import math
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from flowprune import pipeline
from flowprune.checkpoint import (
    _CHUNK,
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


# the dtype code of each dtype a version-3 file holds
CODES = {np.dtype("<f8"): 0, np.dtype("u1"): 1, np.dtype("<f4"): 2,
         np.dtype("<i8"): 3}


def joined_container(items: list, version: int = 3) -> bytes:
    """A container built whole from ``(name, code, array)`` items: every
    header and payload joined with ``b"".join``, then the CRC-32 trailer."""
    parts = [MAGIC, struct.pack("<II", version, len(items))]
    for name, code, arr in items:
        raw = name.encode("utf-8")
        parts += [struct.pack(f"<H{len(raw)}sBB{arr.ndim}Q", len(raw), raw,
                              code, arr.ndim, *arr.shape), arr.tobytes()]
    body = b"".join(parts)
    return body + struct.pack("<Q", zlib.crc32(body))


def twice_named_container() -> bytes:
    """A CRC-valid version-3 file that names ``w`` twice: zeros(2), then
    ones(3)."""
    return joined_container([("w", 0, np.zeros(2)), ("w", 0, np.ones(3))])


def reference_container(tensors: dict, meta: dict | None = None,
                        version: int = 3) -> bytes:
    """The documented layout of ``version`` built whole. Version 3 keeps
    each tensor's dtype; version 2 stored every tensor as float64."""
    items = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8" if version == 2 else None)
        items.append((name, CODES[arr.dtype], arr))
    if meta is not None:
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        items.append(("__meta__json", 1, np.frombuffer(blob, np.uint8)))
    return joined_container(items, version)


def claiming_container(dims: tuple, payload: bytes) -> bytes:
    """A CRC-valid version-3 file with one float64 tensor ``w`` whose header
    claims ``dims`` and whose payload is ``payload``."""
    body = MAGIC + struct.pack("<II", 3, 1) + struct.pack(
        f"<H1sBB{len(dims)}Q", 1, b"w", 0, len(dims), *dims) + payload
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
    """Each dtype is stored as itself under its code, little-endian."""
    path = tmp_path / "one.ckpt"
    for dtype, code, fmt in ((np.float64, 0, "<d"), (np.uint8, 1, "<B"),
                             (np.float32, 2, "<f"), (np.int64, 3, "<q")):
        save_checkpoint(path, {"w": np.array([[1]], dtype)})
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        version, count = struct.unpack_from("<II", raw, 8)
        assert (version, count) == (3, 1)
        nlen = struct.unpack_from("<H", raw, 16)[0]
        assert raw[18 : 18 + nlen] == b"w"
        dtype_code, rank = struct.unpack_from("<BB", raw, 18 + nlen)
        assert (dtype_code, rank) == (code, 2)
        dims = struct.unpack_from("<2Q", raw, 20 + nlen)
        assert dims == (1, 1)
        payload_off = 20 + nlen + 16
        assert raw[payload_off:-8] == struct.pack(fmt, 1)


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
    # version 2: every tensor float64, CRC-32 trailer; valid but not read
    path.write_bytes(reference_container(
        {"w": np.arange(3, dtype=np.float32)}, {"stage": "pretrain"}, 2))
    for into in (None, {}, {"w": np.zeros(3, np.float32)}):
        with pytest.raises(CheckpointError, match="unsupported version 2"):
            load_checkpoint(path, into)


def test_metadata_is_uint8_tensor_with_crc32_trailer(tmp_path):
    path = tmp_path / "meta.ckpt"
    meta = {"stage": "pretrain", "iteration": 3}
    save_checkpoint(path, {}, meta)
    raw = path.read_bytes()
    name = b"__meta__json"
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    assert struct.unpack_from("<IIH", raw, 8) == (3, 1, len(name))
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
    from flowprune.pipeline import model_tensors

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
    live = model_tensors(model2, opt2)
    tensors, meta = load_checkpoint(tmp_path / "mid.ckpt", into=live)
    assert tensors is live and meta["step"] == 7
    # the same objects, so Adam's views of its flat vectors stay bound
    assert all(a is live[n] for n, a in model_tensors(model2, opt2).items())
    assert opt2.step_count == 7
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
    """Checkpoints store the float32 parameters, masks and Adam moments as
    float32, and a load reads them back into the live arrays, so the steps
    after a resume match uninterrupted training bit for bit."""
    from flowprune.datasets import generate
    from flowprune.diffusion import Adam, NoisePredictor, make_schedule, train
    from flowprune.pipeline import model_tensors

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
            load_checkpoint(tmp_path / "mid.ckpt",
                            into=model_tensors(model, opt))
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


def _tensor_kinds():
    rng = make_rng(0, "ckpt-kinds")
    return {
        "f32": rng.normal(size=(3, 5)).astype(np.float32),
        "f64": rng.normal(size=(4, 2)),
        "scalar": np.array(-2.5, np.float32),
        "empty": np.zeros((0, 3)),
        "transposed": rng.normal(size=(3, 4)).astype(np.float32).T,
        "i64": np.array([[-(2**40), 7, 0]], np.int64),
        "u8": np.arange(250, 256, dtype=np.uint8),
    }


@pytest.mark.parametrize("meta", [None, {"stage": "pretrain", "iteration": 7}])
@pytest.mark.parametrize("kind", [*_tensor_kinds(), "all"])
def test_streamed_bytes_match_the_joined_container(tmp_path, kind, meta):
    tensors = _tensor_kinds()
    if kind != "all":
        tensors = {kind: tensors[kind]}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, tensors, meta)
    assert path.read_bytes() == reference_container(tensors, meta)

    loaded, got_meta = load_checkpoint(path)
    assert got_meta == (meta or {})
    assert list(loaded) == list(tensors)
    for name, arr in loaded.items():
        want = np.asarray(tensors[name], dtype=np.float64)
        assert arr.dtype == np.float64 and arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()
        assert arr.flags.c_contiguous and arr.flags.aligned
        assert arr.flags.writeable
    for a, b in itertools.combinations(loaded.values(), 2):
        assert not np.shares_memory(a, b)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("direction", ["save", "load"])
def test_save_and_load_peaks_stay_near_one_tensor_and_the_payload(
        tmp_path, direction):
    """numpy reports array buffers to tracemalloc. Save copies no
    C-contiguous tensor; load holds the float64 tensors it returns, one
    tensor in its stored dtype and one checksum read buffer."""
    rng = make_rng(0, "ckpt-peak")
    tensors = {f"t{i}": rng.normal(size=(256, 256)).astype(np.float32)
               for i in range(16)}
    payload = sum(a.size for a in tensors.values()) * 8
    path = tmp_path / "big.ckpt"
    if direction == "save":
        assert _traced_peak(lambda: save_checkpoint(path, tensors)) \
            < tensors["t0"].nbytes
    else:
        save_checkpoint(path, tensors)
        assert _traced_peak(lambda: load_checkpoint(path)) \
            < payload + 1.25 * 2**20


def test_load_into_live_arrays_allocates_only_the_checksum_buffer(tmp_path):
    rng = make_rng(0, "ckpt-into")
    tensors = {f"t{i}": rng.normal(size=(256, 256)).astype(np.float32)
               for i in range(16)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, tensors, {"stage": "x"})
    live = {n: np.empty_like(a) for n, a in tensors.items()}
    assert _traced_peak(lambda: load_checkpoint(path, into=live)) \
        < _CHUNK + 16 * 2**10
    assert all(live[n].tobytes() == a.tobytes() for n, a in tensors.items())


DTYPES = ["float64", "float32", "int64", "uint8"]


@st.composite
def typed_tensors(draw) -> dict:
    names = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4,
                          unique=True))
    return {name: draw(arrays(st.sampled_from(DTYPES), array_shapes(
        min_dims=0, max_dims=3, min_side=0, max_side=4))) for name in names}


@settings(deadline=None)
@given(tensors=typed_tensors(),
       case=st.sampled_from(["missing", "shape", "dtype", "strided",
                             "read-only"]))
def test_typed_roundtrip_and_checked_load_into_live_arrays(
        tmp_path_factory, tensors, case):
    path = tmp_path_factory.getbasetemp() / "typed.ckpt"
    save_checkpoint(path, tensors, {"stage": "x"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"stage": "x"} and list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].tobytes() == arr.astype(np.float64).tobytes()

    # into: each payload lands in the array object given for its name, so
    # views of it (Adam's) stay bound; file tensors it does not name are
    # skipped
    name = max(tensors, key=lambda n: tensors[n].size)
    for names in (list(tensors), [name]):
        dest = {n: np.full_like(tensors[n], 7) for n in names}
        held = dict(dest)
        got, meta = load_checkpoint(path, into=dest)
        assert got is dest and meta == {"stage": "x"}
        for n in names:
            assert dest[n] is held[n]
            assert dest[n].tobytes() == tensors[n].tobytes()

    # one bad destination, named last, and no destination is written
    arr = tensors[name]
    bad = {n: np.full_like(a, 7) for n, a in tensors.items()}
    if case == "missing":
        name, bad["ghost"] = "ghost", np.zeros(1)
    elif case == "shape":
        bad[name] = np.full(arr.shape + (1,), 7, arr.dtype)
    elif case == "dtype":
        other = next(d for d in DTYPES if d != arr.dtype)
        bad[name] = np.full(arr.shape, 7, other)
    elif case == "strided":
        assume(arr.size > 1)
        bad[name] = np.full(arr.shape + (2,), 7, arr.dtype)[..., 0]
    else:
        bad[name].flags.writeable = False
    bad[name] = bad.pop(name)
    before = {n: a.tobytes() for n, a in bad.items()}
    with pytest.raises(CheckpointError, match=f"tensor '{name}'"):
        load_checkpoint(path, into=bad)
    assert {n: a.tobytes() for n, a in bad.items()} == before


@pytest.mark.parametrize("dtype", [bool, np.float16, np.int32, np.complex128])
def test_save_rejects_a_dtype_the_container_cannot_hold(tmp_path, monkeypatch,
                                                       dtype):
    def no_file(*args, **kwargs):
        raise AssertionError("the dtype check runs before the file exists")

    monkeypatch.setattr(tempfile, "mkstemp", no_file)
    tensors = {"ok": np.zeros(2, np.float32), "bad": np.zeros(3, dtype)}
    with pytest.raises(CheckpointError,
                       match=f"tensor 'bad' has dtype {np.dtype(dtype)}"):
        save_checkpoint(tmp_path / "x.ckpt", tensors)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def default_pretrain(tmp_path_factory):
    """A default-width pretrain checkpoint, Adam state included, where
    ``pipeline.pretrain`` would reuse it. Untrained: sizes and peaks do not
    depend on the values."""
    from flowprune.config import RunConfig
    from flowprune.diffusion import Adam

    cfg = RunConfig()
    run_dir = tmp_path_factory.mktemp("pretrain")
    model = pipeline.build_model(cfg, 0)
    opt = Adam(model.params, cfg.train_lr)
    path = pipeline.save_stage(
        run_dir, model, cfg, "pretrain", 0, cfg.pretrain_steps, opt,
        extra_meta={"pretrain_hash": cfg.pretrain_digest()})
    return cfg, run_dir, model, opt, path


def test_typed_checkpoints_take_half_their_float64_size(default_pretrain,
                                                        tmp_path):
    cfg, _, model, opt, pre = default_pretrain
    stage = pipeline.save_stage(tmp_path, model, cfg, "finetune", 0, 9)
    for path, state in ((pre, opt), (stage, None)):
        _, meta = load_checkpoint(path, into={})
        tensors = pipeline.model_tensors(model, state)
        v2 = reference_container(tensors, meta, version=2)
        assert Path(path).read_bytes() == reference_container(tensors, meta)
        assert len(Path(path).read_bytes()) <= 0.51 * len(v2)


def test_load_stage_model_peak_is_under_twice_the_model(default_pretrain):
    cfg, _, model, _, path = default_pretrain
    own = sum(a.nbytes for a in pipeline.model_tensors(model).values())
    assert own == 465416
    got = []
    peak = _traced_peak(
        lambda: got.append(pipeline.load_stage_model(cfg, 0, path)))
    assert peak < 2 * own
    assert {n: a.tobytes() for n, a in pipeline.model_tensors(got[0]).items()} \
        == {n: a.tobytes() for n, a in pipeline.model_tensors(model).items()}


def test_pretrain_reuse_reads_only_the_metadata(default_pretrain, monkeypatch):
    cfg, run_dir, _, _, path = default_pretrain
    monkeypatch.setattr(pipeline, "train", None)  # a retrain would fail
    got = []
    peak = _traced_peak(lambda: got.append(pipeline.pretrain(cfg, 0, run_dir)))
    assert got == [path]
    assert peak < _CHUNK + 16 * 2**10


class _ShortPayloadReads(io.BufferedReader):
    """Reader that fills each array it reads into but for its last byte."""

    def readinto(self, buf):
        if isinstance(buf, np.ndarray) and buf.nbytes > 0:
            buf = buf[:-1]
        return super().readinto(buf)


@pytest.mark.parametrize("case", ["past the trailer", "past int64",
                                  "short read"])
def test_oversized_or_short_payload_rejected_before_allocation(
        tmp_path, monkeypatch, case):
    path = tmp_path / "claim.ckpt"
    payload = np.arange(2.0).tobytes()
    dims = {"past the trailer": (1 << 24,),
            # int64 products wrap to 2, the length the payload holds
            "past int64": (2**63 + 1, 2),
            "short read": (2,)}[case]
    path.write_bytes(claiming_container(dims, payload))
    if case == "short read":
        real_open = builtins.open

        def short_open(file, mode="r", *args, **kwargs):
            if mode != "rb":
                return real_open(file, mode, *args, **kwargs)
            return _ShortPayloadReads(real_open(file, "rb", buffering=0))

        monkeypatch.setattr(builtins, "open", short_open)
        monkeypatch.setattr(io, "open", short_open)
        match = "malformed container: tensor 'w' is cut short: 15 of 16 bytes"
    else:
        match = (f"malformed container: tensor 'w' claims "
                 f"{8 * math.prod(dims)} bytes, 16 remain before the trailer")
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
