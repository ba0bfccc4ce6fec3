"""Tests for synthetic data generation and the binary tensor container."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamba_fusion import container
from mamba_fusion.datagen import (
    DEFAULT_SNR, ShapeSpec, export_labels_csv, generate, load, save,
)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_same_seed_gives_bitwise_identical_dataset():
    a = generate(16, seed=42)
    b = generate(16, seed=42)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.x_t, sb.x_t)
        assert np.array_equal(sa.x_v, sb.x_v)
        assert np.array_equal(sa.x_a, sb.x_a)
        assert sa.y == sb.y
    assert np.array_equal(a.unknown_text_vector, b.unknown_text_vector)


def test_different_seeds_differ():
    a = generate(4, seed=1)
    b = generate(4, seed=2)
    assert not np.array_equal(a.samples[0].x_t, b.samples[0].x_t)


def test_desk_preset_shapes():
    ds = generate(8, seed=0)
    s = ds.samples[0]
    assert s.x_t.shape == (16, 32)
    assert s.x_v.shape == (24, 16)
    assert s.x_a.shape == (32, 8)
    assert ds.unknown_text_vector.shape == (32,)


def test_labels_lie_in_requested_range():
    ds = generate(64, seed=7, label_range=(-1.0, 1.0))
    ys = np.array([s.y for s in ds.samples])
    assert np.all(ys >= -1.0) and np.all(ys <= 1.0)


def test_snr_ordering_text_cleanest():
    assert DEFAULT_SNR["t"] > DEFAULT_SNR["v"] > DEFAULT_SNR["a"]


def _least_squares_mae(xs, ys):
    feats = np.stack([x.reshape(-1) for x in xs])
    feats = np.hstack([feats, np.ones((len(xs), 1))])
    coef, *_ = np.linalg.lstsq(feats[:48], ys[:48], rcond=1e-6)
    pred = feats[48:] @ coef
    return float(np.mean(np.abs(pred - ys[48:])))


def test_text_regression_beats_audio_regression():
    # closed-form least squares on held-out samples: SNR ordering is real
    ds = generate(96, seed=3)
    ys = np.array([s.y for s in ds.samples])
    mae_t = _least_squares_mae([s.x_t for s in ds.samples], ys)
    mae_a = _least_squares_mae([s.x_a for s in ds.samples], ys)
    assert mae_t < mae_a
    # and both carry signal at all (beat the predict-the-mean baseline)
    assert mae_t < np.mean(np.abs(ys[48:] - ys[:48].mean()))


def test_splits_are_disjoint_and_exhaustive():
    ds = generate(40, seed=9)
    train, valid, test = (ds.split(k) for k in ("train", "valid", "test"))
    assert len(train) + len(valid) + len(test) == 40
    assert train == ds.samples[:len(train)]
    assert test == ds.samples[len(train) + len(valid):]
    with pytest.raises(ValueError, match="split"):
        ds.split("dev")


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate(0, seed=0)
    with pytest.raises(ValueError, match="shape"):
        generate(4, shapes=ShapeSpec(t_text=0))


# ---------------------------------------------------------------------------
# Container round-trips and failure modes
# ---------------------------------------------------------------------------

def test_tensor_round_trip_exact():
    rng = np.random.default_rng(0)
    for arr in (rng.standard_normal((3, 4)), rng.standard_normal(7),
                rng.standard_normal((2, 3, 4)).astype(np.float32)):
        buf = io.BytesIO()
        container.write_tensor(buf, arr)
        buf.seek(0)
        out = container.read_tensor(buf)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)


_GEN = np.random.default_rng(4)


@pytest.mark.parametrize("arr", [
    _GEN.standard_normal((3, 4)),
    _GEN.standard_normal((2, 3)).astype(np.float32),
    np.array(-2.5),
    np.zeros((0, 3)),
    _GEN.standard_normal((2, 3, 4)),
    _GEN.standard_normal((4, 5)).T,
], ids=["float64", "float32", "0-d", "zero-size", "3-d", "transposed"])
def test_tensor_bytes_are_header_then_c_order_payload(arr):
    buf = io.BytesIO()
    container.write_tensor(buf, arr)
    code = {np.float64: 1, np.float32: 2}[arr.dtype.type]
    assert buf.getvalue() == (
        struct.pack("<4sIII", b"MFTN", 1, code, arr.ndim)
        + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes())
    buf.seek(0)
    out = container.read_tensor(buf)
    assert (out.dtype, out.shape) == (arr.dtype, arr.shape)
    assert out.tobytes() == arr.tobytes()
    assert buf.read() == b""


def test_dataset_save_load_round_trip(tmp_path):
    ds = generate(6, seed=13)
    save(ds, tmp_path / "data")
    back = load(tmp_path / "data")
    assert len(back.samples) == 6
    for sa, sb in zip(ds.samples, back.samples):
        assert np.array_equal(sa.x_t, sb.x_t)
        assert np.array_equal(sa.x_a, sb.x_a)
        assert sa.y == sb.y
    assert np.array_equal(back.unknown_text_vector, ds.unknown_text_vector)
    assert back.split_sizes == ds.split_sizes
    assert back.label_low == ds.label_low
    assert back.snr == ds.snr


def test_corrupted_magic_raises_header_error(tmp_path):
    ds = generate(2, seed=1)
    save(ds, tmp_path / "data")
    blob = tmp_path / "data" / "tensors.bin"
    raw = bytearray(blob.read_bytes())
    raw[:4] = b"XXXX"
    blob.write_bytes(bytes(raw))
    with pytest.raises(container.HeaderError):
        load(tmp_path / "data")


def test_truncated_payload_raises_truncation_error(tmp_path):
    ds = generate(2, seed=1)
    save(ds, tmp_path / "data")
    blob = tmp_path / "data" / "tensors.bin"
    raw = blob.read_bytes()
    blob.write_bytes(raw[:-16])
    with pytest.raises(container.TruncatedPayloadError):
        load(tmp_path / "data")


def test_manifest_shape_mismatch_raises_shape_error(tmp_path):
    ds = generate(2, seed=1)
    save(ds, tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.txt"
    text = manifest.read_text().replace("16x32", "16x31")
    manifest.write_text(text)
    with pytest.raises(container.ManifestShapeError):
        load(tmp_path / "data")


@pytest.mark.parametrize("failing", ["write_tensor", "write_manifest"])
def test_failed_save_leaves_the_old_pair_byte_identical(
        tmp_path, monkeypatch, failing):
    d = tmp_path / "pair"
    container.save_named(d, [("w", np.zeros(3))], [("version", "old")])
    before = {p.name: p.read_bytes() for p in d.iterdir()}

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(container, failing, fail)
    with pytest.raises(OSError, match="disk full"):
        container.save_named(d, [("w", np.ones(3))], [("version", "new")])
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in d.iterdir()} == before
    manifest, named = container.load_named(d)
    assert manifest["version"] == "old"
    np.testing.assert_array_equal(dict(named)["w"], np.zeros(3))


@pytest.mark.parametrize("name,bad", [
    ("labels", np.nan), ("unknown_text_vector", np.inf),
    ("sample1.x_t", -np.inf), ("sample0.x_a", np.nan)])
def test_non_finite_tensor_raises_container_error(tmp_path, name, bad):
    save(generate(2, seed=1), tmp_path / "data")
    manifest, named = container.load_named(tmp_path / "data")
    extra = [(k, v) for k, v in manifest.items()
             if not k.startswith("tensor_")]
    dict(named)[name].reshape(-1)[-1] = bad
    container.save_named(tmp_path / "bad", named, extra)
    with pytest.raises(container.ContainerError, match=f"'{name}'"):
        load(tmp_path / "bad")


def test_unsupported_dtype_code_rejected():
    buf = io.BytesIO()
    buf.write(struct.pack("<4sIII", container.MAGIC, container.VERSION, 9, 1))
    buf.write(struct.pack("<Q", 1))
    buf.write(b"\x00" * 8)
    buf.seek(0)
    with pytest.raises(container.HeaderError):
        container.read_tensor(buf)


def test_future_version_rejected():
    buf = io.BytesIO()
    buf.write(struct.pack("<4sIII", container.MAGIC, 99, 1, 1))
    buf.write(struct.pack("<Q", 1))
    buf.write(b"\x00" * 8)
    buf.seek(0)
    with pytest.raises(container.HeaderError):
        container.read_tensor(buf)


def _records():
    """A (2, 3) float64, a (4,) float32 and an empty (0, 2) record."""
    buf = io.BytesIO()
    for arr in (np.arange(6.0).reshape(2, 3), np.ones(4, dtype=np.float32),
                np.zeros((0, 2))):
        container.write_tensor(buf, arr)
    return buf.getvalue()


_BLOB = _records()
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)


def _read_records(raw):
    """Read the three records; the arrays must fit in the bytes given."""
    buf = io.BytesIO(raw)
    arrays = [container.read_tensor(buf) for _ in range(3)]
    assert sum(a.nbytes for a in arrays) <= len(raw)
    return arrays


def test_fuzz_blob_reads_back():
    arrays = _read_records(_BLOB)
    assert [a.shape for a in arrays] == [(2, 3), (4,), (0, 2)]


@_FUZZ
@given(st.integers(0, len(_BLOB) - 1))
def test_truncated_container_always_raises_container_error(cut):
    with pytest.raises(container.ContainerError):
        _read_records(_BLOB[:cut])


@_FUZZ
@given(st.lists(st.integers(0, 8 * len(_BLOB) - 1), min_size=1, max_size=8))
def test_bit_flipped_container_reads_or_raises_container_error(bits):
    raw = bytearray(_BLOB)
    for bit in bits:
        raw[bit // 8] ^= 1 << (bit % 8)
    try:
        _read_records(bytes(raw))
    except container.ContainerError:
        pass


@_FUZZ
@given(st.lists(st.integers(0, 2**64 - 1), max_size=6))
def test_bad_extents_read_or_raise_container_error(extents):
    # the first record's rank and extents replaced, payload bytes kept
    header = struct.pack("<4sIII", container.MAGIC, container.VERSION, 1,
                         len(extents))
    raw = header + struct.pack(f"<{len(extents)}Q", *extents) + _BLOB[32:]
    try:
        _read_records(raw)
    except container.ContainerError:
        pass


def test_extents_overflowing_int64_raise_container_error():
    for extents in ((2**33, 2**33), (0, 2**62), (2**64 - 1,)):
        raw = struct.pack("<4sIII", container.MAGIC, container.VERSION, 1,
                          len(extents)) + struct.pack(
            f"<{len(extents)}Q", *extents) + b"\x00" * 64
        with pytest.raises(container.ContainerError):
            container.read_tensor(io.BytesIO(raw))


def test_labels_csv_export(tmp_path):
    ds = generate(3, seed=2)
    path = tmp_path / "labels.csv"
    export_labels_csv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,label"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == ds.samples[0].y
