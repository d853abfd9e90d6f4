"""On-disk formats: raw recordings, spectrogram datasets, named-tensor containers.

Everything is little-endian and fixed-layout so the files round-trip
bit-exactly and can be produced or consumed by non-Python tooling.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import FormatError
from .signal_pipeline import RawRecording, SpectrogramWindow, SPEC_SIZE

RECORDING_MAGIC = b"SHM1"
CSV_TIME_TOL = 0.01      # largest timestamp misfit a CSV may have, in sample periods

_TAG_TO_U8 = {None: 0, "normal": 1, "anomaly": 2}
_U8_TO_TAG = {v: k for k, v in _TAG_TO_U8.items()}

# one dataset record: f32 image (100x100 row-major) + f32 target + u8 tag
RECORD_BYTES = SPEC_SIZE * SPEC_SIZE * 4 + 4 + 1


# ---------------------------------------------------------------------------
# raw recordings


def save_recording_binary(rec: RawRecording, path) -> None:
    """Write the flat binary recording format (magic SHM1)."""
    has_labels = rec.labels is not None
    with open(path, "wb") as f:
        f.write(RECORDING_MAGIC)
        f.write(struct.pack("<IQB", rec.fs, len(rec), int(has_labels)))
        f.write(np.asarray(rec.samples, dtype="<f4").tobytes())
        if has_labels:
            f.write(np.asarray(rec.labels, dtype=np.uint8).tobytes())


def load_recording_binary(path) -> RawRecording:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != RECORDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {RECORDING_MAGIC!r}")
        header = f.read(13)
        if len(header) != 13:
            raise FormatError(f"{path}: truncated header")
        fs, count, has_labels = struct.unpack("<IQB", header)
        raw = f.read(count * 4)
        if len(raw) != count * 4:
            raise FormatError(f"{path}: truncated sample block")
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        labels = None
        if has_labels:
            raw = f.read(count)
            if len(raw) != count:
                raise FormatError(f"{path}: truncated label block")
            labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return RawRecording(samples=samples, fs=fs, labels=labels)


def save_recording_csv(rec: RawRecording, path) -> None:
    """Write one sample per row: timestamp, accel_z, label (label blank if absent)."""
    with open(path, "w") as f:
        f.write("timestamp,accel_z,label\n")
        for i, x in enumerate(rec.samples):
            label = "" if rec.labels is None else str(int(rec.labels[i]))
            f.write(f"{i / rec.fs:.6f},{float(x)!r},{label}\n")


def load_recording_csv(path) -> RawRecording:
    """Read the CSV format; the sampling rate comes from the timestamps."""
    times, samples, labels = [], [], []
    any_label = False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("timestamp"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise FormatError(f"{path}: malformed row {line!r}")
            times.append(float(parts[0]))
            samples.append(float(parts[1]))
            if len(parts) > 2 and parts[2] != "":
                labels.append(int(parts[2]))
                any_label = True
            else:
                labels.append(0)
    return RawRecording(
        samples=np.asarray(samples),
        fs=_sampling_rate(path, np.asarray(times)),
        labels=np.asarray(labels) if any_label else None,
    )


def _sampling_rate(path, times: np.ndarray) -> int:
    """The integer rate whose evenly spaced grid fits every one of ``times``
    to within CSV_TIME_TOL sample periods."""
    if times.size < 2:
        raise FormatError(f"{path}: need two rows to infer the sampling rate")
    span = times[-1] - times[0]
    fs = round((times.size - 1) / span) if span > 0 else 0
    if fs >= 1:
        misfit = np.max(np.abs(times - times[0] - np.arange(times.size) / fs)) * fs
        if misfit <= CSV_TIME_TOL:
            return fs
    raise FormatError(f"{path}: timestamps give no positive integer sampling rate")


# ---------------------------------------------------------------------------
# spectrogram datasets


def save_dataset(windows, directory) -> None:
    """Write one fixed-size binary record per window into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, w in enumerate(windows):
        target = np.float32(np.nan if w.target is None else w.target)
        with open(directory / f"win_{i:06d}.bin", "wb") as f:
            f.write(np.ascontiguousarray(w.image, dtype="<f4").tobytes())
            f.write(struct.pack("<f", target))
            f.write(struct.pack("<B", _TAG_TO_U8[w.tag]))


def load_dataset(directory) -> list[SpectrogramWindow]:
    directory = Path(directory)
    out = []
    for path in sorted(directory.glob("win_*.bin")):
        blob = path.read_bytes()
        if len(blob) != RECORD_BYTES:
            raise FormatError(f"{path}: expected {RECORD_BYTES} bytes, got {len(blob)}")
        image = np.frombuffer(blob[:SPEC_SIZE * SPEC_SIZE * 4], dtype="<f4")
        image = image.reshape(SPEC_SIZE, SPEC_SIZE).astype(np.float64)
        (target,) = struct.unpack("<f", blob[-5:-1])
        tag = _U8_TO_TAG.get(blob[-1])
        if tag is None and blob[-1] != 0:
            raise FormatError(f"{path}: unknown tag byte {blob[-1]}")
        out.append(SpectrogramWindow(
            image=image,
            target=None if np.isnan(target) else float(target),
            tag=tag,
        ))
    return out


# ---------------------------------------------------------------------------
# named-tensor container (model checkpoints, PCA models)

CONTAINER_VERSION = 1


def write_container(path, magic: bytes, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write magic + version + JSON metadata + named f32 tensors + CRC32.

    Tensor payloads are little-endian float32; the trailing CRC covers
    everything after the magic so tampering is detectable on load.
    """
    if len(magic) != 4:
        raise FormatError(f"magic must be 4 bytes, got {magic!r}")
    body = bytearray()
    body += struct.pack("<I", CONTAINER_VERSION)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body += struct.pack("<I", len(meta_blob)) + meta_blob
    body += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f4")   # tobytes() is C order
        name_b = name.encode("utf-8")
        body += struct.pack("<H", len(name_b)) + name_b
        body += struct.pack("<B", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.tobytes()
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as f:
        f.write(magic)
        f.write(body)
        f.write(struct.pack("<I", crc))


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise FormatError(f"{path}: file too short")
    if blob[:4] != magic:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
    body, crc_stored = blob[4:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc_stored:
        raise FormatError(f"{path}: checksum mismatch (corrupted file)")

    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise FormatError(f"{path}: truncated at offset {off}")
        chunk = body[off:off + n]
        off += n
        return chunk

    (version,) = struct.unpack("<I", take(4))
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(take(meta_len).decode("utf-8"))
    (n_tensors,) = struct.unpack("<I", take(4))
    tensors = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(size * 4), dtype="<f4").reshape(shape)
        tensors[name] = data.copy()
    if off != len(body):
        raise FormatError(f"{path}: {len(body) - off} trailing bytes in container")
    return meta, tensors


def save_manifest(path, entries: list[dict]) -> None:
    with open(path, "w") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(path) -> list[dict]:
    with open(path) as f:
        return json.load(f)


def config_hash(obj) -> str:
    """Stable short hash of a config-like object (dataclass, dict, or scalar tree)."""
    import dataclasses
    import hashlib

    def normalize(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return {f.name: normalize(getattr(x, f.name)) for f in dataclasses.fields(x)}
        if isinstance(x, dict):
            return {str(k): normalize(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [normalize(v) for v in x]
        if isinstance(x, (np.floating, np.integer)):
            return x.item()
        if isinstance(x, Path):
            return str(x)
        return x

    blob = json.dumps(normalize(obj), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
