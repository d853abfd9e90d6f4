"""Raw acceleration recordings -> normalized, energy-filtered spectrogram windows.

The pipeline is: slice the z-axis signal into fixed windows, drop windows whose
mean-square (de-meaned) energy falls below a threshold, standardize each kept
window, convert it to a 100x100 log-magnitude spectrogram image, and attach the
scalar traffic target computed from per-sample vehicle labels when available.
All functions are pure and deterministic.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError

logger = logging.getLogger(__name__)

SPEC_SIZE = 100          # spectrogram is SPEC_SIZE time frames x SPEC_SIZE frequency bins
STFT_NFFT = 198          # one-sided rfft of 198 samples -> exactly 100 bins
NORM_EPS = 1e-8          # guard for zero-variance windows
# Periodic Hann window built the way scipy.signal.get_window("hann", N) builds
# it (cosine over linspace(-pi, pi, N + 1), last point dropped), so the bits
# match without importing scipy.signal, which dominated package import time.
HANN_TAPER = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, STFT_NFFT + 1))[:-1]
HANN_TAPER.setflags(write=False)

TAG_NORMAL = "normal"
TAG_ANOMALY = "anomaly"

VEHICLE_CLASS_TO_LABEL = {"light": 1, "heavy": 2}


@dataclass
class RawRecording:
    """Uniformly sampled z-axis acceleration, optionally with per-sample labels.

    Labels take values in {0, 1, 2}: 0 = no vehicle, 1 = light vehicle,
    2 = heavy vehicle, aligned one-to-one with ``samples``; any other value is
    rejected here, whether or not a kept window covers it. Samples must be
    finite: a NaN would otherwise pass as a low-energy window.
    """

    samples: np.ndarray
    fs: int = 100
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        bad = ~np.isfinite(self.samples)
        if bad.any():
            raise DataError(f"non-finite samples at {np.flatnonzero(bad)[:5]}")
        if self.fs <= 0:
            raise ConfigError(f"sampling rate must be positive, got {self.fs}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.samples.shape:
                raise DataError(
                    f"labels length {self.labels.shape} does not match "
                    f"samples length {self.samples.shape}"
                )
            bad = (self.labels < 0) | (self.labels > 2)
            if bad.any():
                raise DataError(f"labels outside {{0,1,2}} at {np.flatnonzero(bad)[:5]}")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Windowing and filtering settings for one use case.

    ``vehicle_class`` selects which label value feeds the regression target:
    "light" counts label 1, "heavy" counts label 2, "any" counts any nonzero.
    """

    window_s: float = 5.0
    stride_s: float = 2.0
    energy_threshold: float = 3.125e-5
    vehicle_class: str = "any"

    def __post_init__(self):
        if not 0.0 < self.stride_s <= self.window_s < math.inf:
            raise ConfigError(
                f"need finite window_s >= stride_s > 0, got {self.window_s}/{self.stride_s}"
            )
        if not 0.0 <= self.energy_threshold < math.inf:
            raise ConfigError(f"energy_threshold must be >= 0 and finite, "
                              f"got {self.energy_threshold}")
        if self.vehicle_class not in ("light", "heavy", "any"):
            raise ConfigError(f"unknown vehicle_class {self.vehicle_class!r}")


# Built-in defaults for the two window lengths (5 s and 60 s).
UC1_PIPELINE = PipelineConfig(window_s=5.0, stride_s=2.0, energy_threshold=3.125e-5)
UC2_PIPELINE = PipelineConfig(window_s=60.0, stride_s=2.0, energy_threshold=1.25e-6)


@dataclass
class TimeWindow:
    """One fixed-length slice of a recording plus its pre-normalization energy."""

    values: np.ndarray
    start_index: int
    raw_energy: float


@dataclass
class SpectrogramWindow:
    """Model input: a standardized 100x100 time-frequency image.

    ``build_dataset`` and ``load_dataset`` give float32 images, the precision
    the model and the dataset file keep. ``target`` is the scalar traffic
    value (vehicles per window, possibly fractional); ``tag`` is
    "normal"/"anomaly" for detection datasets.
    """

    image: np.ndarray
    target: Optional[float] = None
    tag: Optional[str] = None
    start_index: int = 0


def window_energy(values: np.ndarray) -> float:
    """Mean squared de-meaned amplitude: (1/T) * sum((x - mean(x))^2)."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.mean((values - values.mean()) ** 2))


def make_windows(rec: RawRecording, cfg: PipelineConfig) -> list[TimeWindow]:
    """Slice a recording into overlapping windows of fs*window_s samples.

    Windows start at offsets 0, fs*stride_s, 2*fs*stride_s, ...; trailing
    partial windows are dropped.
    """
    n = len(rec)
    if n == 0:
        raise EmptyInputError("cannot window an empty recording")
    win = int(round(rec.fs * cfg.window_s))
    hop = int(round(rec.fs * cfg.stride_s))
    if n < win:
        return []
    count = (n - win) // hop + 1
    out = []
    for i in range(count):
        start = i * hop
        values = rec.samples[start:start + win]
        out.append(TimeWindow(values=values, start_index=start,
                              raw_energy=window_energy(values)))
    return out


def energy_keep(w: TimeWindow, th: float) -> bool:
    """True iff the window's pre-normalization energy reaches the threshold."""
    return w.raw_energy >= th


def normalize(w: TimeWindow) -> TimeWindow:
    """Standardize to zero mean / unit standard deviation.

    Zero-variance windows map to all zeros through the epsilon guard; the
    energy filter removes them in practice.
    """
    x = np.asarray(w.values)
    values = _standardize(x.astype(np.result_type(x, 1.0)))
    return TimeWindow(values=values, start_index=w.start_index, raw_energy=w.raw_energy)


def _standardize(x: np.ndarray) -> np.ndarray:
    """(x - mean) / (std + NORM_EPS), computed in place in ``x``, bit-identical
    to that formula with ``np.std``: the mean is taken once, and the deviation
    is the root of the centred array's mean square, as ``np.std`` computes it."""
    n = x.size
    x -= np.add.reduce(x, axis=None) / n
    std = float(np.sqrt(np.add.reduce(x * x, axis=None) / n))
    x /= std + NORM_EPS
    return x


@functools.lru_cache(maxsize=8)
def _frame_index(t: int) -> np.ndarray:
    """Sample indices of the SPEC_SIZE frames of a t-sample window."""
    hop = (t - STFT_NFFT) // (SPEC_SIZE - 1)
    if hop < 1:
        raise ConfigError(
            f"window of {t} samples is too short for {SPEC_SIZE} spectrogram frames "
            f"(needs at least {STFT_NFFT + SPEC_SIZE - 1})"
        )
    index = np.arange(SPEC_SIZE)[:, None] * hop + np.arange(STFT_NFFT)[None, :]
    index.setflags(write=False)
    return index


def spectrogram(w: TimeWindow) -> np.ndarray:
    """100x100 standardized log-magnitude spectrogram of a normalized window.

    Rows are time frames, columns frequency bins. Frames are Hann-windowed
    slices of 198 samples with hop floor((T-198)/99); log(1+|rfft|) is taken
    per cell and the whole image standardized to zero mean / unit std.
    """
    values = np.asarray(w.values, dtype=np.float64)
    frames = values[_frame_index(values.shape[0])]
    frames *= HANN_TAPER
    img = np.abs(np.fft.rfft(frames, axis=1))
    np.log1p(img, out=img)
    return _standardize(img)


def compute_target(labels: np.ndarray, k) -> float:
    """Scalar traffic target: count of samples labeled with class k, over 10.

    ``k`` is 1 (light), 2 (heavy), or "any" for any nonzero label. Fractional
    values occur when a window boundary cuts a 10-sample label group.
    """
    labels = np.asarray(labels)
    bad = ~np.isin(labels, (0, 1, 2))
    if bad.any():
        raise DataError(f"labels outside {{0,1,2}} at {np.flatnonzero(bad)[:5]}")
    if k == "any":
        count = int(np.count_nonzero(labels))
    elif k in (1, 2):
        count = int(np.count_nonzero(labels == k))
    else:
        raise ConfigError(f"class selector must be 1, 2 or 'any', got {k!r}")
    return count / 10.0


@dataclass
class DatasetBuildResult:
    """Output of build_dataset: the kept windows and the number of candidate
    windows they were kept from."""

    windows: list[SpectrogramWindow] = field(default_factory=list)
    n_candidates: int = 0


def kept_windows(rec: RawRecording, cfg: PipelineConfig) -> tuple[int, list, Optional[list]]:
    """(candidate count, the windows the energy filter keeps, their targets or
    None for an unlabeled recording). A target is compute_target's value, counted
    on one selection mask, since RawRecording has checked the labels."""
    candidates = make_windows(rec, cfg)
    kept = [w for w in candidates if energy_keep(w, cfg.energy_threshold)]
    targets = None
    if rec.labels is not None:
        k = VEHICLE_CLASS_TO_LABEL.get(cfg.vehicle_class, "any")
        sel = rec.labels != 0 if k == "any" else rec.labels == k
        targets = [int(np.count_nonzero(sel[w.start_index:w.start_index + len(w.values)])) / 10.0
                   for w in kept]
    return len(candidates), kept, targets


def build_dataset(
    recs: Sequence[RawRecording],
    cfg: PipelineConfig,
    tags: Optional[Sequence[Optional[str]]] = None,
) -> DatasetBuildResult:
    """Window, energy-filter, normalize, and spectrogram a set of recordings;
    each image is rounded to float32.

    ``tags`` optionally assigns one "normal"/"anomaly" tag per recording to all
    of its windows. Temporal order is preserved within each recording; the
    returned result also counts the candidate windows, so the energy filter
    dropped ``n_candidates - len(windows)``.
    """
    if tags is not None and len(tags) != len(recs):
        raise DataError("tags must align one-to-one with recordings")
    fs = {rec.fs for rec in recs}
    if len(fs) > 1:
        raise DataError(f"recordings mix sampling rates {sorted(fs)}")

    result = DatasetBuildResult()
    for r, rec in enumerate(recs):
        tag = tags[r] if tags is not None else None
        n_candidates, kept, targets = kept_windows(rec, cfg)
        result.n_candidates += n_candidates
        for i, w in enumerate(kept):
            result.windows.append(SpectrogramWindow(
                image=spectrogram(normalize(w)).astype(np.float32),
                target=None if targets is None else targets[i],
                tag=tag, start_index=w.start_index))
    if result.n_candidates and not result.windows:
        logger.warning("energy filter dropped all %d candidate windows", result.n_candidates)
    return result


def chronological_split(items: Sequence, train_frac: float) -> tuple[list, list]:
    """Split a temporally ordered sequence into leading train / trailing test."""
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0,1), got {train_frac}")
    n_train = int(len(items) * train_frac)
    return list(items[:n_train]), list(items[n_train:])
