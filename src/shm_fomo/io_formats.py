"""On-disk formats: raw recordings, spectrogram datasets, named-tensor containers.

Every binary artifact is one named-tensor container (``write_container`` /
``read_container``): a 4-byte magic, a version, JSON metadata, named
little-endian float32 tensors and a CRC32, so files round-trip bit-exactly,
corruption is detected on load, and non-Python tooling can read them. The
magic names the kind: ``SHMR`` a recording, ``SHMD`` a dataset, ``MAEC`` a
model checkpoint (``mae_model.CHECKPOINT_MAGIC``). A container loads in one
bounded pass: each tensor is read once, into its own array, after its length
is checked against the file size, and the CRC is checked before anything is
returned.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .signal_pipeline import RawRecording, SpectrogramWindow, SPEC_SIZE

RECORDING_MAGIC = b"SHMR"
CSV_TIME_TOL = 0.01      # largest timestamp misfit a CSV may have, in sample periods
MANIFEST_STATES = ("normal", "damaged", "traffic")

_TAG_TO_U8 = {None: 0, "normal": 1, "anomaly": 2}
_U8_TO_TAG = {v: k for k, v in _TAG_TO_U8.items()}


# ---------------------------------------------------------------------------
# raw recordings


def save_recording_binary(rec: RawRecording, path) -> None:
    """Write a recording as one container file (magic SHMR): tensor
    ``samples`` (n,) as float32, tensor ``labels`` (n,) as float32 values 0, 1
    or 2 when the recording is labelled, and metadata ``fs``."""
    tensors = {"samples": rec.samples}
    if rec.labels is not None:
        tensors["labels"] = rec.labels
    write_container(path, RECORDING_MAGIC, {"fs": int(rec.fs)}, tensors)


def load_recording_binary(path) -> RawRecording:
    """The recording of a ``save_recording_binary`` file; a file that breaks
    that layout, or holds a label that is not a whole number, is a
    FormatError."""
    meta, tensors = read_container(path, RECORDING_MAGIC)
    samples, labels = tensors.pop("samples", None), tensors.pop("labels", None)
    fs = meta.get("fs")
    if samples is None or samples.ndim != 1:
        raise FormatError(f"{path}: recording needs a 1-D 'samples' tensor")
    if type(fs) is not int:
        raise FormatError(f"{path}: sampling rate {fs!r} is not an integer")
    if tensors:
        raise FormatError(f"{path}: unexpected tensors {sorted(tensors)} in a recording")
    if labels is not None:
        with np.errstate(invalid="ignore"):   # NaN, inf, huge: garbage that fails below
            codes = labels.astype(np.int64)
        if not np.array_equal(codes, labels):
            raise FormatError(f"{path}: labels must be whole numbers")
        labels = codes
    return RawRecording(samples=samples, fs=fs, labels=labels)


def load_recording(path) -> RawRecording:
    """The recording in a ``.csv`` file or a binary container; contents that
    RawRecording rejects (``fs = 0``, a label of 3) are a FormatError."""
    try:
        if Path(path).suffix == ".csv":
            return load_recording_csv(path)
        return load_recording_binary(path)
    except (ConfigError, DataError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_recording_csv(path) -> RawRecording:
    """Read the CSV format; the sampling rate comes from the timestamps."""
    times, samples, labels = [], [], []
    any_label = False
    with open(path, "rb") as f:
        for row, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("timestamp"):
                    continue
                parts = line.split(",")
                if len(parts) < 2:
                    raise ValueError("needs a timestamp and a sample")
                times.append(float(parts[0]))
                samples.append(float(parts[1]))
                has_label = len(parts) > 2 and parts[2] != ""
                labels.append(int(parts[2]) if has_label else 0)
            except ValueError as exc:
                raise FormatError(f"{path}: row {row}: {raw.strip()!r}: {exc}") from exc
            any_label = any_label or has_label
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
# named-tensor container (recordings, datasets, model checkpoints)

CONTAINER_VERSION = 1


def write_container(path, magic: bytes, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write magic + version + JSON metadata + named f32 tensors + CRC32.

    Tensor payloads are little-endian float32; the trailing CRC covers
    everything after the magic so tampering is detectable on load. Each
    tensor's bytes go straight from its array to the file.
    """
    if len(magic) != 4:
        raise FormatError(f"magic must be 4 bytes, got {magic!r}")
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    crc = 0
    with open(path, "wb") as f:

        def put(chunk) -> None:
            nonlocal crc
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)

        f.write(magic)
        put(struct.pack("<II", CONTAINER_VERSION, len(meta_blob)) + meta_blob
            + struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f4")
            name_b = name.encode("utf-8")
            put(struct.pack("<H", len(name_b)) + name_b
                + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            put(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))   # C order
        f.write(struct.pack("<I", crc))


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and tensors of a ``write_container`` file, in one bounded
    pass; a file that breaks the layout or fails its CRC32 is a FormatError."""
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4   # where the CRC starts
        head = f.read(4)
        if head != magic:
            raise FormatError(f"{path}: bad magic {head!r}, expected {magic!r}")
        off, crc = 4, 0

        def take(n: int, alloc=bytearray):
            nonlocal off, crc
            # the size check comes first, so nothing past the file is allocated
            if off + n > end or f.readinto(buf := alloc(n)) != n:
                raise FormatError(f"{path}: truncated at offset {off}")
            off += n
            crc = zlib.crc32(buf, crc)
            return buf

        (version, meta_len) = struct.unpack("<II", take(8))
        if version != CONTAINER_VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        try:
            meta = json.loads(str(take(meta_len), "utf-8"))
        except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
            raise FormatError(f"{path}: metadata is not valid JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata is not a JSON object")
        (n_tensors,) = struct.unpack("<I", take(4))
        tensors = {}
        for _ in range(n_tensors):
            try:   # a name that is not UTF-8, or more dimensions than numpy allows
                (name_len,) = struct.unpack("<H", take(2))
                name = str(take(name_len), "utf-8")
                (rank,) = struct.unpack("<B", take(1))
                shape = struct.unpack(f"<{rank}I", take(4 * rank))
                tensors[name] = take(4 * math.prod(shape), lambda n: np.empty(shape, "<f4"))
            except ValueError as exc:
                raise FormatError(f"{path}: malformed tensor header ({exc})") from exc
        if off != end:
            raise FormatError(f"{path}: {end - off} trailing bytes in container")
        if f.read(4) != struct.pack("<I", crc):
            raise FormatError(f"{path}: checksum mismatch (corrupted file)")
    return meta, tensors


# ---------------------------------------------------------------------------
# spectrogram datasets

DATASET_MAGIC = b"SHMD"


def save_dataset(windows, path) -> None:
    """Write a dataset as one container file (magic SHMD), creating its parent
    directories: tensors ``images`` (n, 100, 100) and ``targets`` (n,, NaN for
    no target), metadata ``tags`` (u8 codes) and ``start_index``."""
    path = Path(path)
    images = np.empty((len(windows), SPEC_SIZE, SPEC_SIZE), dtype=np.float32)
    for i, w in enumerate(windows):
        if np.shape(w.image) != images.shape[1:]:
            raise DataError(f"window {i}: image shape {np.shape(w.image)}, "
                            f"expected {images.shape[1:]}")
        images[i] = w.image
    targets = np.array([np.nan if w.target is None else w.target for w in windows],
                       dtype=np.float32)
    meta = {"tags": [_TAG_TO_U8[w.tag] for w in windows],
            "start_index": [int(w.start_index) for w in windows]}
    path.parent.mkdir(parents=True, exist_ok=True)
    write_container(path, DATASET_MAGIC, meta, {"images": images, "targets": targets})


def load_dataset(path) -> list[SpectrogramWindow]:
    """The windows of a ``save_dataset`` file; their float32 images are rows of
    one array."""
    meta, tensors = read_container(path, DATASET_MAGIC)
    images, targets = tensors.get("images"), tensors.get("targets")
    tags, starts = meta.get("tags"), meta.get("start_index")
    if (images is None or targets is None
            or not isinstance(tags, list) or not isinstance(starts, list)):
        raise FormatError(f"{path}: dataset lacks images, targets, tags or start_index")
    n = len(tags)
    if (images.shape != (n, SPEC_SIZE, SPEC_SIZE) or targets.shape != (n,)
            or len(starts) != n):
        raise FormatError(f"{path}: images {images.shape}, targets {targets.shape}, "
                          f"{n} tags and {len(starts)} start indices disagree")
    unknown = [code for code in tags if type(code) is not int or code not in _U8_TO_TAG]
    if unknown:
        raise FormatError(f"{path}: unknown tag codes {unknown[:5]}")
    if not all(type(s) is int for s in starts):
        raise FormatError(f"{path}: start indices must be integers")
    return [SpectrogramWindow(image=image, target=None if np.isnan(t) else float(t),
                              tag=_U8_TO_TAG[code], start_index=start)
            for image, t, code, start in zip(images, targets, tags, starts)]


def save_manifest(path, entries: list[dict]) -> None:
    with open(path, "w") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(path) -> list[dict]:
    """Entries of a recording manifest: a JSON list of objects, each with a
    string ``file`` and, optionally, a ``state`` from MANIFEST_STATES (an
    entry without one is untagged). Anything else is a FormatError."""
    with open(path) as f:
        try:
            entries = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(entries, list):
        raise FormatError(f"{path}: a manifest is a list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise FormatError(f"{path}: entry {i} is not an object with a string 'file'")
        if "state" in entry and entry["state"] not in MANIFEST_STATES:
            raise FormatError(f"{path}: entry {i} has state {entry['state']!r}; "
                              f"known: {', '.join(MANIFEST_STATES)}")
    return entries


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
