import numpy as np
import pytest

from shm_fomo.errors import ConfigError
from shm_fomo.signal_pipeline import (
    STFT_NFFT,
    PipelineConfig,
    TimeWindow,
    compute_target,
    make_windows,
    normalize,
    spectrogram,
    window_energy,
)
from shm_fomo.synth_bench import (
    FS,
    BridgeConfig,
    TrafficConfig,
    gen_ambient,
    gen_traffic,
    write_vehicle_label,
)


def freq_bin_of(freq_hz: float, fs: int) -> int:
    """Spectrogram column index nearest a physical frequency."""
    return int(round(freq_hz * STFT_NFFT / fs))


def count_labels(labels, lo, hi, k):
    """Plain-loop label counter over [lo, hi), in the generator's units
    (10-sample groups): the oracle for compute_target."""
    count = 0
    for i in range(lo, hi):
        if labels[i] == k:
            count += 1
    return count / 10.0


class TestGenAmbient:
    def test_same_seed_bit_identical(self):
        cfg = BridgeConfig()
        a = gen_ambient(cfg, 30, seed=5)
        b = gen_ambient(cfg, 30, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_damaged_shares_noise_stream(self):
        # with zero modal amplitudes the recording is pure noise, which must be
        # identical for the two structural states under one seed
        cfg = BridgeConfig(modal_amps=(0.0, 0.0, 0.0))
        normal = gen_ambient(cfg, 20, damaged=False, seed=3)
        damaged = gen_ambient(cfg, 20, damaged=True, seed=3)
        assert np.array_equal(normal.samples, damaged.samples)

    def test_single_mode_spectral_peak(self):
        cfg = BridgeConfig(modal_freqs=(10.0,), modal_amps=(1.0,),
                           damping=(0.6,), noise_std=0.0)
        rec = gen_ambient(cfg, 60, seed=7)
        w = normalize(make_windows(rec, PipelineConfig(window_s=5, stride_s=5,
                                                       energy_threshold=0.0))[2])
        img = spectrogram(w)
        peak = np.bincount(img.argmax(axis=1)).argmax()
        assert peak == freq_bin_of(10.0, FS)

    def test_damaged_peak_shift_matches_dft_oracle(self):
        cfg = BridgeConfig(modal_freqs=(14.0,), modal_amps=(1.0,),
                           damping=(0.5,), noise_std=0.0, anomaly_shift=0.93,
                           excite_rate=1.0)
        pipe = PipelineConfig(window_s=5, stride_s=5, energy_threshold=0.0)
        bins = {}
        for damaged in (False, True):
            rec = gen_ambient(cfg, 60, damaged=damaged, seed=11)
            img = spectrogram(normalize(make_windows(rec, pipe)[3]))
            bins[damaged] = int(np.bincount(img.argmax(axis=1)).argmax())
        assert bins[False] == freq_bin_of(14.0, FS)
        assert bins[True] == freq_bin_of(14.0 * 0.93, FS)
        assert bins[True] < bins[False]

    def test_duration_validation(self):
        with pytest.raises(ConfigError):
            gen_ambient(BridgeConfig(), 0.5, seed=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BridgeConfig(modal_freqs=(60.0,), modal_amps=(1.0,), damping=(1.0,))
        with pytest.raises(ConfigError):
            BridgeConfig(anomaly_shift=0.0)


class TestVehicleLabels:
    def test_three_second_vehicle_target(self):
        labels = np.zeros(2000, dtype=np.int64)
        write_vehicle_label(labels, arrival_s=7.03, cls=1, pulse_dur_s=3.0)
        # 3 groups of 10 samples from group 70
        assert np.count_nonzero(labels) == 30
        assert compute_target(labels[600:1100], 1) == 3.0

    def test_window_boundary_fraction(self):
        labels = np.zeros(2000, dtype=np.int64)
        write_vehicle_label(labels, arrival_s=7.0, cls=2, pulse_dur_s=1.0)
        # labels occupy samples 700..709; window ending mid-group sees 5
        assert compute_target(labels[205:705], 2) == 0.5

    def test_heavy_wins_overlap(self):
        labels = np.zeros(500, dtype=np.int64)
        write_vehicle_label(labels, arrival_s=1.0, cls=1, pulse_dur_s=2.0)
        write_vehicle_label(labels, arrival_s=1.0, cls=2, pulse_dur_s=1.0)
        assert labels[100:110].tolist() == [2] * 10
        assert labels[110:120].tolist() == [1] * 10


class TestGenTraffic:
    def test_zero_rates_no_labels(self):
        cfg = TrafficConfig(arrival_rate_light=0.0, arrival_rate_heavy=0.0,
                            pulse_amp_light=1.0, pulse_amp_heavy=2.0)
        rec = gen_traffic(BridgeConfig(), cfg, 60, seed=1)
        assert not rec.labels.any()
        pipe = PipelineConfig(window_s=60, stride_s=60, energy_threshold=0.0)
        for w in make_windows(rec, pipe):
            sl = rec.labels[w.start_index:w.start_index + len(w.values)]
            assert compute_target(sl, "any") == 0.0

    def test_label_groups_multiple_of_10(self):
        rec = gen_traffic(BridgeConfig(), TrafficConfig(), 120, seed=2)
        changes = np.flatnonzero(np.diff(rec.labels) != 0) + 1
        assert (changes % 10 == 0).all()

    def test_deterministic(self):
        a = gen_traffic(BridgeConfig(), TrafficConfig(), 90, seed=3)
        b = gen_traffic(BridgeConfig(), TrafficConfig(), 90, seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_pipeline_target_equals_generator_bookkeeping(self):
        rec = gen_traffic(BridgeConfig(), TrafficConfig(), 180, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lo = int(rng.integers(0, len(rec) - 500))
            hi = lo + 500
            for k in (1, 2):
                assert compute_target(rec.labels[lo:hi], k) == \
                    count_labels(rec.labels, lo, hi, k)

    def test_vehicle_windows_have_higher_energy(self):
        # paired comparison across 100 seeds; overwhelming majority expected
        bridge = BridgeConfig(noise_std=0.05)
        traffic = TrafficConfig(arrival_rate_light=6, arrival_rate_heavy=2,
                                pulse_amp_light=1.5, pulse_amp_heavy=3.5)
        assert traffic.pulse_amp_light >= 5 * bridge.noise_std
        wins = 0
        pipe = PipelineConfig(window_s=5, stride_s=5, energy_threshold=0.0)
        for seed in range(100):
            rec = gen_traffic(bridge, traffic, 60, seed=seed)
            veh, amb = [], []
            for w in make_windows(rec, pipe):
                sl = rec.labels[w.start_index:w.start_index + 500]
                (veh if sl.any() else amb).append(w.raw_energy)
            if veh and amb and np.mean(veh) > np.mean(amb):
                wins += 1
        # one-sided binomial: P(wins >= 65 | p=0.5) < 0.01
        assert wins >= 65

    def test_min_duration(self):
        with pytest.raises(ConfigError):
            gen_traffic(BridgeConfig(), TrafficConfig(), 30, seed=0)

    def test_amplitude_ordering_enforced(self):
        with pytest.raises(ConfigError):
            TrafficConfig(pulse_amp_light=2.0, pulse_amp_heavy=1.0)

    def test_finite_energy(self):
        rec = gen_traffic(BridgeConfig(), TrafficConfig(), 120, seed=5)
        assert np.isfinite(rec.samples).all()
        assert np.isfinite(window_energy(rec.samples))
