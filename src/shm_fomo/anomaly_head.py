"""Reconstruction errors -> anomaly verdicts.

Covers threshold calibration against a normal-only calibration day, causal
median smoothing over consecutive window errors, strict-threshold
classification, and the detection metrics. Calibration and smoothing reject
a NaN error with a library error; smoothing ranks +-inf like any other value.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

FILTER_LENGTHS = (1, 15, 30, 60, 120, 240)


@dataclass(frozen=True)
class ThresholdConfig:
    """Calibration settings; the threshold grid steps by step_fraction of
    its initial value."""

    step_fraction: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.step_fraction < math.inf:
            raise ConfigError(f"step_fraction must be positive and finite, "
                              f"got {self.step_fraction}")


def calibrate_threshold(train_errors: Sequence[float],
                        calibration_day_errors: Sequence[float],
                        cfg: ThresholdConfig = ThresholdConfig()) -> float:
    """Smallest grid threshold with 100% specificity on the calibration day.

    The grid is init + k * step for k = 0, 1, ..., with init = mean(train
    errors) + std(calibration-day errors) and step = init * step_fraction;
    the threshold is its least value at or above every calibration error.
    A grid that never gets there (step <= 0, NaN errors, or a step count
    past float range) raises DataError.
    """
    train_errors = np.asarray(train_errors, dtype=np.float64)
    calib = np.asarray(calibration_day_errors, dtype=np.float64)
    if train_errors.size == 0 or calib.size == 0:
        raise DataError("calibration needs non-empty error sets")
    init = float(train_errors.mean() + calib.std())
    top = float(calib.max())
    if top <= init:
        return init
    step = init * cfg.step_fraction
    span = (top - init) / step if step > 0 else math.inf
    if not math.isfinite(span):
        raise DataError(
            f"no 100%-specificity threshold on the grid (init {init:.4g}, "
            f"step {step:.4g}, max calibration error {top:.4g})")
    # the quotient is rounded, so its ceiling may miss the least k by one
    k = math.ceil(span)
    if init + k * step < top:
        k += 1
    elif init + (k - 1) * step >= top:
        k -= 1
    return init + k * step


def median_smooth(errors: Sequence[float], L: int) -> np.ndarray:
    """Causal median over the trailing L entries; prefixes use partial windows.

    Even-length windows take the lower of the two middle values, so the output
    is always one of the input values. Output aligns 1:1 with the input. The
    trailing window is kept sorted, where a NaN has no place: it raises DataError.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise DataError("cannot smooth an empty series")
    if L < 1:
        raise ConfigError(f"filter length must be >= 1, got {L}")
    nan = np.isnan(errors)
    if nan.any():
        raise DataError(f"cannot smooth NaN errors, at {np.flatnonzero(nan)[:5]}")
    if L == 1:   # each window is its own value
        return errors.copy()
    values = errors.tolist()
    window, out = [], []
    for value in values[:L]:   # the window grows to L values
        bisect.insort(window, value)
        out.append(window[(len(window) - 1) // 2])
    for oldest, value in zip(values, values[L:]):   # then slides
        del window[bisect.bisect_left(window, oldest)]
        bisect.insort(window, value)
        out.append(window[(L - 1) // 2])
    return np.array(out, dtype=np.float64)


def classify(smoothed: Sequence[float], threshold: float) -> np.ndarray:
    """Anomaly iff smoothed error strictly exceeds the threshold."""
    if not np.isfinite(threshold):
        raise ConfigError("threshold must be finite")
    return np.asarray(smoothed, dtype=np.float64) > threshold


@dataclass
class AdMetrics:
    accuracy: float
    sensitivity: float
    specificity: float


def ad_metrics(verdicts: Sequence[bool], truth: Sequence[bool]) -> AdMetrics:
    """Accuracy, sensitivity TP/(TP+FN), specificity TN/(TN+FP).

    Metrics with a zero denominator come back as NaN rather than raising.
    """
    verdicts = np.asarray(verdicts, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if verdicts.shape != truth.shape:
        raise DataError(f"length mismatch {verdicts.shape} vs {truth.shape}")
    if verdicts.size == 0:
        raise DataError("no verdicts to score")
    tp = int(np.count_nonzero(verdicts & truth))
    tn = int(np.count_nonzero(~verdicts & ~truth))
    fp = int(np.count_nonzero(verdicts & ~truth))
    fn = int(np.count_nonzero(~verdicts & truth))
    sens = tp / (tp + fn) if tp + fn else float("nan")
    spec = tn / (tn + fp) if tn + fp else float("nan")
    acc = (tp + tn) / verdicts.size
    return AdMetrics(accuracy=acc, sensitivity=sens, specificity=spec)


def write_decisions_csv(path, errors: Sequence[float], threshold: float, L: int,
                        truth: Sequence[bool], start_index: Sequence[int]) -> None:
    """One row per window: its raw error, the error median-smoothed over L
    windows, the verdict against ``threshold``, the truth and ``start_index``
    (the window's first sample in its recording)."""
    errors = np.asarray(errors, dtype=np.float64)
    smoothed = median_smooth(errors, L)
    verdicts = classify(smoothed, threshold)
    with open(path, "w") as f:
        f.write("window_index,raw_error,smoothed_error,verdict,truth,start_index\n")
        for i in range(errors.size):
            f.write(f"{i},{float(errors[i])!r},{float(smoothed[i])!r},"
                    f"{int(verdicts[i])},{int(bool(truth[i]))},{int(start_index[i])}\n")
