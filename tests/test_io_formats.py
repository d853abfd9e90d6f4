import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from shm_fomo.errors import ConfigError, DataError, FormatError
from shm_fomo.io_formats import (
    DATASET_MAGIC,
    RECORDING_MAGIC,
    config_hash,
    load_dataset,
    load_manifest,
    load_recording,
    load_recording_binary,
    load_recording_csv,
    read_container,
    save_dataset,
    save_manifest,
    save_recording_binary,
    write_container,
)
from shm_fomo.mae_model import ModelConfig, build_model, save_model
from shm_fomo.signal_pipeline import RawRecording, SpectrogramWindow


def save_recording_csv(rec: RawRecording, path) -> None:
    """One sample per row: timestamp, accel_z, label (label blank if absent)."""
    with open(path, "w") as f:
        f.write("timestamp,accel_z,label\n")
        for i, x in enumerate(rec.samples):
            label = "" if rec.labels is None else str(int(rec.labels[i]))
            f.write(f"{i / rec.fs:.6f},{float(x)!r},{label}\n")


def test_recording_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=1000).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 3, size=1000)
    rec = RawRecording(samples=samples, fs=100, labels=labels)
    path = tmp_path / "rec.bin"
    save_recording_binary(rec, path)
    back = load_recording_binary(path)
    assert back.fs == 100
    assert np.array_equal(back.samples, samples)
    assert np.array_equal(back.labels, labels)


def test_recording_binary_without_labels(tmp_path):
    rec = RawRecording(samples=np.arange(10, dtype=np.float64))
    path = tmp_path / "rec.bin"
    save_recording_binary(rec, path)
    assert load_recording_binary(path).labels is None


def test_recording_binary_bad_magic(tmp_path):
    path = tmp_path / "rec.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        load_recording_binary(path)


def test_recording_binary_truncated(tmp_path):
    rec = RawRecording(samples=np.arange(100, dtype=np.float64))
    path = tmp_path / "rec.bin"
    save_recording_binary(rec, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_recording_binary(path)


def test_recording_binary_layout(tmp_path):
    """A recording is a container: float32 ``samples`` and ``labels``, ``fs`` in
    the metadata."""
    rec = RawRecording(samples=[0.5, -1.25, 3.0], fs=250, labels=[0, 2, 1])
    path = tmp_path / "rec.bin"
    save_recording_binary(rec, path)
    assert path.read_bytes()[:4] == RECORDING_MAGIC == b"SHMR"
    meta, tensors = read_container(path, RECORDING_MAGIC)
    assert meta == {"fs": 250}
    assert sorted(tensors) == ["labels", "samples"]
    assert tensors["samples"].tolist() == [0.5, -1.25, 3.0]
    assert tensors["labels"].tolist() == [0.0, 2.0, 1.0]
    assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}


def test_recording_binary_flipped_sample_byte(tmp_path):
    rec = RawRecording(samples=np.arange(100, dtype=np.float64))
    path = tmp_path / "rec.bin"
    save_recording_binary(rec, path)
    blob = bytearray(path.read_bytes())
    blob[-4 - 4 * 50] ^= 0x01   # a byte of sample 50
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_recording_binary(path)


def shm1_recording_bytes(samples, fs=100) -> bytes:
    """A recording in the flat, unchecked layout of earlier versions: magic
    SHM1, u32 fs, u64 count, u8 label flag, float32 samples."""
    samples = np.asarray(samples, "<f4")
    return b"SHM1" + struct.pack("<IQB", fs, samples.size, 0) + samples.tobytes()


def test_recording_binary_rejects_shm1_layout(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(shm1_recording_bytes(np.arange(100)))
    with pytest.raises(FormatError, match="bad magic"):
        load_recording_binary(path)


SAMPLES = np.arange(6, dtype=np.float32)


@pytest.mark.parametrize("meta, tensors, match", [
    ({"fs": 100}, {}, "samples"),
    ({"fs": 100}, {"samples": SAMPLES.reshape(2, 3)}, "samples"),
    ({"fs": 100}, {"samples": np.float32(1.0)}, "samples"),
    ({}, {"samples": SAMPLES}, "integer"),
    ({"fs": 100.0}, {"samples": SAMPLES}, "integer"),
    ({"fs": "100"}, {"samples": SAMPLES}, "integer"),
    ({"fs": True}, {"samples": SAMPLES}, "integer"),
    ({"fs": 100}, {"samples": SAMPLES, "extra": SAMPLES}, "unexpected"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 1.5, 2, 0, 0]}, "whole"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, np.nan, 2, 0, 0]}, "whole"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, np.inf, 2, 0, 0]}, "whole"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 1e20, 2, 0, 0]}, "whole"),
])
def test_recording_binary_rejects_malformed_contents(tmp_path, meta, tensors, match):
    path = tmp_path / "rec.bin"
    write_container(path, RECORDING_MAGIC, meta, tensors)
    with pytest.raises(FormatError, match=match):
        load_recording_binary(path)


@pytest.mark.parametrize("meta, tensors, error", [
    ({"fs": 0}, {"samples": SAMPLES}, ConfigError),
    ({"fs": 100}, {"samples": [0, 1, np.nan, 3, 4, 5]}, DataError),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 3, 2, 0, 0]}, DataError),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 2]}, DataError),
])
def test_recording_binary_keeps_recording_checks(tmp_path, meta, tensors, error):
    path = tmp_path / "rec.bin"
    write_container(path, RECORDING_MAGIC, meta, tensors)
    with pytest.raises(error):
        load_recording_binary(path)


@pytest.mark.parametrize("meta, tensors, match", [
    ({"fs": 0}, {"samples": SAMPLES}, "sampling rate"),
    ({"fs": 100}, {"samples": [0, 1, np.nan, 3, 4, 5]}, "non-finite"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 3, 2, 0, 0]}, "labels outside"),
    ({"fs": 100}, {"samples": SAMPLES, "labels": [0, 1, 2]}, "labels length"),
])
def test_load_recording_makes_recording_checks_format_errors(tmp_path, meta, tensors, match):
    path = tmp_path / "rec.bin"
    write_container(path, RECORDING_MAGIC, meta, tensors)
    with pytest.raises(FormatError, match=match):
        load_recording(path)


def test_load_recording_reads_csv_by_suffix(tmp_path):
    rec = RawRecording(samples=np.arange(5, dtype=np.float64), fs=50, labels=[0, 1, 2, 0, 0])
    path = tmp_path / "rec.csv"
    save_recording_csv(rec, path)
    back = load_recording(path)
    assert back.fs == 50
    assert np.array_equal(back.samples, rec.samples)
    assert np.array_equal(back.labels, rec.labels)
    path.write_text("timestamp,accel_z,label\n0.00,0.1,3\n0.01,0.2,0\n")
    with pytest.raises(FormatError, match="labels outside"):
        load_recording(path)


def test_recording_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rec = RawRecording(samples=rng.normal(size=50),
                       labels=rng.integers(0, 3, size=50))
    path = tmp_path / "rec.csv"
    save_recording_csv(rec, path)
    back = load_recording_csv(path)
    assert np.allclose(back.samples, rec.samples)
    assert np.array_equal(back.labels, rec.labels)


def test_recording_csv_without_labels(tmp_path):
    rec = RawRecording(samples=np.arange(5, dtype=np.float64))
    path = tmp_path / "rec.csv"
    save_recording_csv(rec, path)
    assert load_recording_csv(path).labels is None


@pytest.mark.parametrize("fs", [1, 50, 100, 1000])
def test_recording_csv_keeps_sampling_rate(tmp_path, fs):
    rec = RawRecording(samples=np.arange(120, dtype=np.float64), fs=fs)
    path = tmp_path / "rec.csv"
    save_recording_csv(rec, path)
    assert load_recording_csv(path).fs == fs


@pytest.mark.parametrize("times", [
    [0.0],                                  # one row
    [0.0, 0.0, 0.0],                        # no spacing
    [0.0, 0.02, 0.04, 0.07],                # uneven spacing
    [i / 100.5 for i in range(50)],         # evenly spaced, 100.5 Hz
])
def test_recording_csv_needs_integer_rate(tmp_path, times):
    path = tmp_path / "rec.csv"
    path.write_text("timestamp,accel_z,label\n"
                    + "".join(f"{t:.6f},1.0,\n" for t in times))
    with pytest.raises(FormatError):
        load_recording_csv(path)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    windows = [
        SpectrogramWindow(image=rng.normal(size=(100, 100)), target=1.5, tag="normal"),
        SpectrogramWindow(image=rng.normal(size=(100, 100)), target=None, tag="anomaly"),
        SpectrogramWindow(image=rng.normal(size=(100, 100)), target=0.0, tag=None),
    ]
    save_dataset(windows, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert len(back) == 3
    assert back[0].target == pytest.approx(1.5)
    assert back[1].target is None
    assert back[2].target == 0.0
    assert [w.tag for w in back] == ["normal", "anomaly", None]
    for orig, loaded in zip(windows, back):
        assert np.allclose(loaded.image, orig.image, atol=1e-6)
        assert np.array_equal(loaded.image, orig.image.astype(np.float32))


def test_dataset_rejects_wrong_record_size(tmp_path):
    path = tmp_path / "ds.shmd"
    window = SpectrogramWindow(image=np.zeros((100, 100), np.float32), tag="normal")
    save_dataset([window], path)
    path.write_bytes(path.read_bytes()[:17])
    with pytest.raises(FormatError):
        load_dataset(path)


def test_dataset_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    windows = [SpectrogramWindow(image=rng.normal(size=(100, 100)).astype(np.float32),
                                 target=target, tag=tag, start_index=start)
               for target, tag, start in ((None, "normal", 0), (0.1, "anomaly", 200),
                                          (2.5, None, 123456789))]
    path = tmp_path / "sub" / "dir" / "ds.shmd"   # parents are created
    save_dataset(windows, path)
    back = load_dataset(path)
    assert [w.image.dtype for w in back] == [np.float32] * 3
    assert all(w.image.tobytes() == orig.image.tobytes() for w, orig in zip(back, windows))
    assert back[0].image.base is back[2].image.base is not None   # rows of one array
    assert [w.target for w in back] == [None, float(np.float32(0.1)), 2.5]
    assert [w.tag for w in back] == ["normal", "anomaly", None]
    assert [w.start_index for w in back] == [0, 200, 123456789]


def test_dataset_empty(tmp_path):
    save_dataset([], tmp_path / "ds.shmd")
    assert load_dataset(tmp_path / "ds.shmd") == []


def test_dataset_rejects_wrong_image_shape(tmp_path):
    with pytest.raises(DataError):
        save_dataset([SpectrogramWindow(image=np.zeros((100,), np.float32))],
                     tmp_path / "ds.shmd")


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "ds.shmd"
    save_dataset([SpectrogramWindow(image=np.ones((100, 100), np.float32), target=1.0,
                                    tag="normal", start_index=7)] * 2, path)
    return path


def test_dataset_truncated(dataset_file):
    dataset_file.write_bytes(dataset_file.read_bytes()[:-100])
    with pytest.raises(FormatError):
        load_dataset(dataset_file)


def test_dataset_flipped_byte(dataset_file):
    blob = bytearray(dataset_file.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    dataset_file.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_dataset(dataset_file)


def test_dataset_rejects_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), path)
    with pytest.raises(FormatError, match="bad magic"):
        load_dataset(path)


def test_dataset_rejects_old_directory_format(tmp_path):
    d = tmp_path / "dataset"
    d.mkdir()
    (d / "win_000000.bin").write_bytes(b"\x00" * (100 * 100 * 4 + 5))
    with pytest.raises(OSError):
        load_dataset(d)


def _raw_dataset(path, n_images, targets, tags, starts):
    write_container(path, DATASET_MAGIC, {"tags": tags, "start_index": starts},
                    {"images": np.zeros((n_images, 100, 100), np.float32),
                     "targets": np.asarray(targets, np.float32)})


@pytest.mark.parametrize("n_images, targets, tags, starts, match", [
    (2, [1.0], [1], [0], "disagree"),
    (1, [1.0, 2.0], [1, 1], [0, 0], "disagree"),
    (1, [1.0], [1, 1], [0], "disagree"),
    (1, [1.0], [1], [], "disagree"),
    (1, [1.0], [3], [0], "unknown tag"),
    (1, [1.0], [1], [0.5], "integers"),
    (1, 1.0, [1], [0], "disagree"),
    (1, [1.0], 1, [0], "lacks"),
    (1, [1.0], [[1]], [0], "unknown tag"),
])
def test_dataset_rejects_inconsistent_contents(tmp_path, n_images, targets, tags,
                                               starts, match):
    _raw_dataset(tmp_path / "ds.shmd", n_images, targets, tags, starts)
    with pytest.raises(FormatError, match=match):
        load_dataset(tmp_path / "ds.shmd")


def test_container_bytes_pinned(tmp_path):
    """The container's bytes on disk, pinned by hash; 0-d, empty and strided
    tensors included."""
    tensors = {"b": np.arange(6, dtype=np.float32).reshape(2, 3),
               "a": np.float32(-1.5) * np.ones((), np.float32),
               "empty": np.zeros((0, 4), np.float32),
               "strided": np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]}
    path = tmp_path / "h.bin"
    write_container(path, b"TEST", {"kind": "pin", "n": 3}, tensors)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "2118ed61f4e3958a13468a095f638eb03cecf7a0c331314e8856043e83b690b8")


@pytest.mark.parametrize("row", ["0.01,x,", "0.01,0.5,heavy", "zero,0.5,"])
def test_recording_csv_non_numeric_cell(tmp_path, row):
    path = tmp_path / "r.csv"
    path.write_text(f"timestamp,accel_z,label\n0.00,0.1,\n{row}\n0.02,0.3,\n")
    with pytest.raises(FormatError, match="row 3"):
        load_recording_csv(path)


@pytest.mark.parametrize("text, row", [
    (b"timestamp,accel_z,label\n0.00,0.1,\n0.01,\xff,\n0.02,0.3,\n", 3),
    (b"\xfftimestamp,accel_z,label\n0.00,0.1,\n0.01,0.2,\n", 1),   # before any row decodes
])
def test_recording_csv_non_utf8_row(tmp_path, text, row):
    path = tmp_path / "r.csv"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=f"row {row}: .*utf-8"):
        load_recording_csv(path)


def test_recording_csv_row_without_a_sample(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("timestamp,accel_z,label\n0.00,0.1,\n0.01\n0.02,0.3,\n")
    with pytest.raises(FormatError, match="row 3"):
        load_recording_csv(path)


def test_container_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {"a": rng.normal(size=(4, 5)).astype(np.float32),
               "b.c": rng.normal(size=(7,)).astype(np.float32)}
    meta = {"kind": "test", "value": 3}
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", meta, tensors)
    meta2, tensors2 = read_container(path, b"TEST")
    assert meta2 == meta
    assert set(tensors2) == set(tensors)
    for k in tensors:
        assert np.array_equal(tensors2[k], tensors[k])
        assert tensors2[k].dtype == np.float32


def test_container_wrong_magic(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", {}, {"x": np.zeros(3, np.float32)})
    with pytest.raises(FormatError):
        read_container(path, b"OTHR")


def test_container_detects_tampering(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", {}, {"x": np.ones(8, np.float32)})
    blob = bytearray(path.read_bytes())
    blob[-12] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_container(path, b"TEST")


def test_container_detects_truncation(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", {}, {"x": np.ones(8, np.float32)})
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(FormatError):
        read_container(path, b"TEST")


def test_container_metadata_must_be_a_json_object(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", [1, 2], {})
    with pytest.raises(FormatError, match="JSON object"):
        read_container(path, b"TEST")
    body = struct.pack("<II", 1, 1) + b"{" + struct.pack("<I", 0)
    path.write_bytes(b"TEST" + body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError, match="not valid JSON"):
        read_container(path, b"TEST")


def signed_container(path, magic, meta_blob, tensor_head, payload=b""):
    """A container of one tensor, written by hand with a valid CRC."""
    body = (struct.pack("<II", 1, len(meta_blob)) + meta_blob + struct.pack("<I", 1)
            + tensor_head + payload)
    path.write_bytes(magic + body + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("meta_blob, name, rank, match", [
    pytest.param(b"\xff", b"w", 0, "not valid JSON", id="meta-not-utf8"),
    pytest.param(b"[" * 100_000, b"w", 0, "not valid JSON", id="meta-nested-past-the-limit"),
    pytest.param(b"{}", b"\xff", 0, "tensor header", id="name-not-utf8"),
    pytest.param(b"{}", b"w", 65, "tensor header", id="past-numpy-max-rank"),
])
def test_container_header_must_be_readable(tmp_path, meta_blob, name, rank, match):
    path = tmp_path / "box.bin"
    signed_container(path, b"TEST", meta_blob,
                     struct.pack(f"<H{len(name)}sB{rank}I", len(name), name, rank, *[1] * rank),
                     b"\0" * 4)
    with pytest.raises(FormatError, match=match):
        read_container(path, b"TEST")


def test_container_shape_past_the_file_rejected(tmp_path):
    # (65536,) * 4 is 2**64 elements: an int64 product wraps to 0 and once let
    # this shape through to a failing reshape
    path = tmp_path / "box.bin"
    signed_container(path, b"TEST", b"{}",
                     struct.pack("<H", 1) + b"w" + struct.pack("<B4I", 4, *(65536,) * 4))
    with pytest.raises(FormatError, match="truncated"):
        read_container(path, b"TEST")


def test_container_load_holds_each_tensor_once(tmp_path):
    tensor = np.arange(2 * 2 ** 20, dtype=np.float32)   # 8 MB
    path = tmp_path / "big.bin"
    write_container(path, b"TEST", {"n": 1}, {"x": tensor})
    tracemalloc.start()
    try:
        _, tensors = read_container(path, b"TEST")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(tensors["x"], tensor)
    assert peak <= 1.1 * tensor.nbytes


def test_container_magic_must_be_4_bytes(tmp_path):
    with pytest.raises(FormatError):
        write_container(tmp_path / "box.bin", b"TOOLONG", {}, {})


# a file per example under one tmp_path; each example overwrites it
CONTAINER_SETTINGS = settings(max_examples=40, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])
# multi-byte characters exercise the UTF-8 length fields
names = st.text(alphabet="ab.é☃\U0001d11e", max_size=6)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 53, 2 ** 53), names)
containers = st.tuples(
    st.dictionaries(names, json_scalars, max_size=4),
    st.dictionaries(names,
                    arrays(np.float32, array_shapes(min_dims=0, max_dims=3, max_side=4),
                           elements=st.floats(width=32)),
                    max_size=3))


def container_bytes(path, meta, tensors) -> bytes:
    write_container(path, b"TEST", meta, tensors)
    return path.read_bytes()


@CONTAINER_SETTINGS
@given(box=containers)
def test_container_round_trip_property(tmp_path, box):
    meta, tensors = box
    path = tmp_path / "box.bin"
    write_container(path, b"TEST", meta, tensors)
    meta2, tensors2 = read_container(path, b"TEST")
    assert meta2 == meta
    assert set(tensors2) == set(tensors)
    for name, arr in tensors.items():
        assert tensors2[name].shape == arr.shape
        assert tensors2[name].tobytes() == arr.tobytes()   # NaN payloads too


@CONTAINER_SETTINGS
@given(box=containers, data=st.data())
def test_container_any_truncation_rejected(tmp_path, box, data):
    path = tmp_path / "box.bin"
    blob = container_bytes(path, *box)
    cut = data.draw(st.integers(0, len(blob) - 1))
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError):
        read_container(path, b"TEST")


@CONTAINER_SETTINGS
@given(box=containers, data=st.data())
def test_container_any_bit_flip_rejected(tmp_path, box, data):
    path = tmp_path / "box.bin"
    blob = bytearray(container_bytes(path, *box))
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_container(path, b"TEST")


def test_manifest_round_trip(tmp_path):
    entries = [{"file": "a.bin", "state": "normal", "seed": 1, "config_hash": "ff"}]
    save_manifest(tmp_path / "m.json", entries)
    assert load_manifest(tmp_path / "m.json") == entries


def test_manifest_entry_without_state_is_untagged(tmp_path):
    entries = [{"file": "a.bin"}, {"file": "b.bin", "state": "traffic"}]
    save_manifest(tmp_path / "m.json", entries)
    assert load_manifest(tmp_path / "m.json") == entries


def test_config_hash_stable_and_sensitive():
    from shm_fomo.trainer import TrainPlan

    a = TrainPlan(epochs=10, warmup_epochs=5)
    b = TrainPlan(epochs=10, warmup_epochs=5)
    c = TrainPlan(epochs=11, warmup_epochs=5)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
