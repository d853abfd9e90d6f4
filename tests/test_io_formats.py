import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from shm_fomo.errors import FormatError
from shm_fomo.io_formats import (
    config_hash,
    load_dataset,
    load_manifest,
    load_recording_binary,
    load_recording_csv,
    read_container,
    save_dataset,
    save_manifest,
    save_recording_binary,
    save_recording_csv,
    write_container,
)
from shm_fomo.signal_pipeline import RawRecording, SpectrogramWindow


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


def test_dataset_rejects_wrong_record_size(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "win_000000.bin").write_bytes(b"\x00" * 17)
    with pytest.raises(FormatError):
        load_dataset(d)


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


def test_config_hash_stable_and_sensitive():
    from shm_fomo.trainer import TrainPlan

    a = TrainPlan(epochs=10, warmup_epochs=5)
    b = TrainPlan(epochs=10, warmup_epochs=5)
    c = TrainPlan(epochs=11, warmup_epochs=5)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
