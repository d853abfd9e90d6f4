"""Deterministic synthetic bridge-vibration benchmark.

Ambient recordings are damped modal sinusoids re-excited at random epochs in
Gaussian noise; the "damaged" state multiplies every modal frequency by a
fixed shift, leaving amplitudes and the noise stream untouched (same seed,
same randomness). Traffic recordings add decaying vehicle pulses whose class
is written into 10-sample label groups, so the regression target of the
processing pipeline matches the generator's own bookkeeping exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .signal_pipeline import RawRecording

FS = 100


@dataclass(frozen=True)
class BridgeConfig:
    """Structural model: modal frequencies, decay, excitation, noise."""

    modal_freqs: tuple = (8.4, 13.6, 21.3)
    modal_amps: tuple = (1.0, 0.7, 0.45)
    damping: tuple = (0.9, 1.2, 1.6)
    noise_std: float = 0.05
    anomaly_shift: float = 0.93
    excite_rate: float = 0.4      # re-excitation events per second per mode
    amp_sigma: float = 0.7        # lognormal spread of per-event amplitude

    def __post_init__(self):
        if not (len(self.modal_freqs) == len(self.modal_amps) == len(self.damping)):
            raise ConfigError("modal_freqs, modal_amps, damping must align")
        for f in self.modal_freqs:
            if not 0 < f < FS / 2:
                raise ConfigError(f"modal frequency {f} outside (0, {FS / 2})")
        for d in self.damping:
            if not 0 < d < math.inf:
                raise ConfigError(f"damping {d} must be positive and finite")
        for name in ("noise_std", "excite_rate", "amp_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0 < self.anomaly_shift <= 1:
            raise ConfigError("anomaly_shift must be in (0, 1]")


@dataclass(frozen=True)
class TrafficConfig:
    """Vehicle stream: Poisson arrival rates (per minute) and pulse shapes."""

    arrival_rate_light: float = 6.0
    arrival_rate_heavy: float = 2.0
    pulse_amp_light: float = 1.5
    pulse_amp_heavy: float = 3.5
    pulse_dur_s: float = 3.0

    def __post_init__(self):
        for rate in (self.arrival_rate_light, self.arrival_rate_heavy):
            if not 0 <= rate < math.inf:
                raise ConfigError(f"arrival rates must be >= 0 and finite, got {rate}")
        if not -math.inf < self.pulse_amp_light < self.pulse_amp_heavy < math.inf:
            raise ConfigError("pulse amplitudes must be finite, heavy above light")
        if not 0 < self.pulse_dur_s < math.inf:
            raise ConfigError("pulse_dur_s must be positive and finite")


def _poisson_times(rng: np.random.Generator, rate_per_s: float,
                   duration_s: float) -> np.ndarray:
    """Arrival times of a Poisson process via exponential inter-arrival gaps."""
    if rate_per_s <= 0:
        return np.empty(0)
    # draw a safely sized batch, then trim to the horizon
    n_max = max(16, int(rate_per_s * duration_s * 2 + 10 * np.sqrt(rate_per_s * duration_s + 1)))
    gaps = rng.exponential(1.0 / rate_per_s, size=n_max)
    times = np.cumsum(gaps)
    return times[times < duration_s]


def _add_decaying_tone(signal: np.ndarray, start_s: float, amp: float,
                       freq: float, decay: float, phase: float) -> None:
    """Add amp * exp(-decay t) * sin(2 pi freq t + phase) from start_s onward."""
    n = signal.shape[0]
    i0 = int(np.ceil(start_s * FS))
    if i0 >= n:
        return
    horizon = min(n - i0, int(np.ceil((12.0 / decay) * FS)))
    t = np.arange(horizon) / FS + (i0 / FS - start_s)
    signal[i0:i0 + horizon] += amp * np.exp(-decay * t) * np.sin(
        2 * np.pi * freq * t + phase)


def gen_ambient(cfg: BridgeConfig, duration_s: float, damaged: bool = False,
                *, seed: int) -> RawRecording:
    """Ambient vibration of the healthy or damaged structure.

    The damaged state only rescales modal frequencies: excitation epochs,
    phases, amplitudes, and the additive noise stream are drawn identically
    for both states under the same seed.
    """
    if not 1 <= duration_s < math.inf:
        raise ConfigError(f"duration must be at least 1 s and finite, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * FS))
    signal = np.zeros(n)
    shift = cfg.anomaly_shift if damaged else 1.0
    for freq, amp, decay in zip(cfg.modal_freqs, cfg.modal_amps, cfg.damping):
        times = _poisson_times(rng, cfg.excite_rate, duration_s)
        phases = rng.uniform(0, 2 * np.pi, size=times.size)
        scales = rng.lognormal(0.0, cfg.amp_sigma, size=times.size)
        for t0, phase, scale in zip(times, phases, scales):
            _add_decaying_tone(signal, t0, amp * scale, freq * shift, decay, phase)
    signal += rng.normal(0.0, cfg.noise_std, size=n)
    return RawRecording(samples=signal, fs=FS)


def write_vehicle_label(labels: np.ndarray, arrival_s: float, cls: int,
                        pulse_dur_s: float) -> None:
    """Mark a vehicle: round(pulse_dur_s) consecutive 10-sample groups get its
    class value starting at the arrival group; overlaps keep the heavier class."""
    n = labels.shape[0]
    g0 = int(arrival_s * FS) // 10
    for g in range(g0, g0 + max(1, int(round(pulse_dur_s)))):
        sl = slice(g * 10, min((g + 1) * 10, n))
        if sl.start >= n:
            break
        labels[sl] = np.maximum(labels[sl], cls)


def gen_traffic(bridge: BridgeConfig, traffic: TrafficConfig,
                duration_s: float, *, seed: int) -> RawRecording:
    """Ambient signal plus vehicle passages with per-sample class labels.

    Each vehicle adds a decaying multi-mode pulse and writes its class value
    (1 light, 2 heavy) into round(pulse_dur_s) consecutive 10-sample label
    groups starting at its arrival group; overlaps resolve to the heavier
    class.
    """
    if not 60 <= duration_s < math.inf:
        raise ConfigError(f"traffic needs a finite duration of at least 60 s, got {duration_s}")
    rng = np.random.default_rng([seed, 1])
    ambient = gen_ambient(bridge, duration_s, damaged=False,
                          seed=int(np.random.default_rng([seed, 2]).integers(2 ** 63)))
    signal = ambient.samples.copy()
    n = signal.shape[0]
    labels = np.zeros(n, dtype=np.int64)

    for cls, rate, amp in ((1, traffic.arrival_rate_light, traffic.pulse_amp_light),
                           (2, traffic.arrival_rate_heavy, traffic.pulse_amp_heavy)):
        times = _poisson_times(rng, rate / 60.0, duration_s)
        for t0 in times:
            scale = rng.lognormal(0.0, 0.25)
            decay = 3.0 / traffic.pulse_dur_s
            for freq, mamp in zip(bridge.modal_freqs, bridge.modal_amps):
                phase = rng.uniform(0, 2 * np.pi)
                _add_decaying_tone(signal, t0, amp * scale * mamp, freq, decay, phase)
            write_vehicle_label(labels, t0, cls, traffic.pulse_dur_s)
    return RawRecording(samples=signal, fs=FS, labels=labels)
