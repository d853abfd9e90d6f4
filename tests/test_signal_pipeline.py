import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import get_window

from shm_fomo.errors import ConfigError, DataError
from shm_fomo.signal_pipeline import (
    HANN_TAPER,
    NORM_EPS,
    STFT_NFFT,
    UC1_PIPELINE,
    UC2_PIPELINE,
    PipelineConfig,
    RawRecording,
    TimeWindow,
    build_dataset,
    chronological_split,
    compute_target,
    energy_keep,
    kept_windows,
    make_windows,
    normalize,
    spectrogram,
    targets_of,
    window_energy,
)


def freq_bin_of(freq_hz: float, fs: int) -> int:
    """Spectrogram column index nearest a physical frequency."""
    return int(round(freq_hz * STFT_NFFT / fs))


def rec_of(n, fs=100, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    return RawRecording(samples=rng.normal(size=n), fs=fs, labels=labels)


class TestRawRecording:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.random.default_rng(0).normal(size=2000)
        samples[1234] = bad
        with pytest.raises(DataError, match="non-finite"):
            RawRecording(samples=samples)

    @pytest.mark.parametrize("at", [100, 950])
    def test_label_outside_kept_windows_rejected(self, at):
        # index 100 lies only in the first window, which the energy filter
        # drops; index 950 only in the trailing partial window
        samples = np.random.default_rng(1).normal(size=1000)
        samples[:500] *= 1e-4
        labels = np.zeros(1000, dtype=int)
        cfg = PipelineConfig(window_s=5, stride_s=2)
        result = build_dataset([RawRecording(samples=samples, labels=labels)], cfg)
        assert result.n_candidates - len(result.windows) == 1
        assert [w.start_index for w in result.windows] == [200, 400]
        labels[at] = 3
        with pytest.raises(DataError, match="labels outside"):
            build_dataset([RawRecording(samples=samples, labels=labels)], cfg)


@pytest.mark.parametrize("kwargs", [
    {"energy_threshold": float("nan")}, {"energy_threshold": -1.0},
    {"energy_threshold": float("inf")},
    {"window_s": float("nan")}, {"stride_s": float("nan")}, {"window_s": float("inf")},
    {"stride_s": 0.0}, {"window_s": 1.0, "stride_s": 2.0},
    {"vehicle_class": "bus"},
])
def test_out_of_contract_pipeline_rejected(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs)


class TestMakeWindows:
    def test_count_and_offsets(self):
        windows = make_windows(rec_of(900), PipelineConfig(window_s=5, stride_s=2))
        assert [w.start_index for w in windows] == [0, 200, 400]
        assert all(len(w.values) == 500 for w in windows)

    def test_signal_shorter_than_window(self):
        assert make_windows(rec_of(400), PipelineConfig(window_s=5, stride_s=2)) == []

    def test_uc1_config_window_length(self):
        windows = make_windows(rec_of(600), UC1_PIPELINE)
        assert len(windows[0].values) == 500

    def test_empty_recording(self):
        with pytest.raises(DataError, match="cannot window an empty recording"):
            make_windows(RawRecording(samples=np.empty(0)), UC1_PIPELINE)

    def test_shift_consistency_exact(self):
        rec = rec_of(3000, seed=3)
        cfg = PipelineConfig(window_s=4, stride_s=1.5)
        hop = int(100 * 1.5)
        for i, w in enumerate(make_windows(rec, cfg)):
            assert np.array_equal(w.values, rec.samples[i * hop:i * hop + 400])

    def test_trailing_partial_dropped(self):
        # 999 samples: window 5 s stride 2 s -> starts 0,200,400 fit; 600 would
        # end at 1100 > 999
        windows = make_windows(rec_of(999), PipelineConfig(window_s=5, stride_s=2))
        assert len(windows) == 3

    def test_stride_under_one_sample_rejected(self):
        # PipelineConfig accepts 0.004 s, but at 100 Hz it rounds to no samples
        with pytest.raises(ConfigError, match=r"stride_s 0\.004 .* 100 Hz"):
            make_windows(rec_of(900), PipelineConfig(window_s=5, stride_s=0.004))


class TestEnergy:
    def test_all_zero_window(self):
        w = TimeWindow(values=np.zeros(500), start_index=0)
        assert not energy_keep(w, 1e-9)

    def test_alternating_window_closed_form(self):
        a = 0.02
        values = np.tile([a, -a], 250)
        assert window_energy(values) == pytest.approx(a * a, rel=1e-12)
        w = TimeWindow(values=values, start_index=0)
        assert energy_keep(w, a * a)          # boundary inclusive
        assert not energy_keep(w, a * a * 1.0001)

    def test_default_thresholds(self):
        assert UC1_PIPELINE.energy_threshold == pytest.approx(3.125e-5)
        assert UC2_PIPELINE.energy_threshold == pytest.approx(1.25e-6)

    def test_energy_is_pre_normalization(self):
        # a faint window is dropped, though normalize would lift its energy to ~1
        rec = RawRecording(samples=1e-4 * np.random.default_rng(1).normal(size=900))
        (w, *_) = make_windows(rec, UC1_PIPELINE)
        assert not energy_keep(w, UC1_PIPELINE.energy_threshold)
        assert energy_keep(normalize(w), UC1_PIPELINE.energy_threshold)
        n_candidates, kept, _ = kept_windows(rec, UC1_PIPELINE)
        assert n_candidates == 3 and kept == []

    def test_filter_commutes_with_indexing(self):
        windows = make_windows(rec_of(5000, seed=5), UC1_PIPELINE)
        th = np.median([window_energy(w.values) for w in windows])
        filtered_then_indexed = [w for w in windows if energy_keep(w, th)][3:6]
        keep = [energy_keep(w, th) for w in windows]
        indexed_then_filtered = [w for w, k in zip(windows, keep) if k][3:6]
        assert filtered_then_indexed == indexed_then_filtered


class TestNormalize:
    def test_output_standardized(self):
        w = make_windows(rec_of(600, seed=2), UC1_PIPELINE)[0]
        out = normalize(w).values
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6

    def test_idempotent(self):
        w = make_windows(rec_of(600, seed=2), UC1_PIPELINE)[0]
        once = normalize(w)
        twice = normalize(once)
        assert np.allclose(once.values, twice.values, atol=1e-6)

    def test_constant_window_maps_to_zero(self):
        w = TimeWindow(values=np.full(500, 7.0), start_index=0)
        assert np.array_equal(normalize(w).values, np.zeros(500))

    def test_two_level_window_closed_form(self):
        w = TimeWindow(values=np.tile([1.0, 3.0], 250), start_index=0)
        out = normalize(w).values
        assert np.allclose(out, np.tile([-1.0, 1.0], 250), atol=1e-7)


def _dft_magnitudes(frame):
    """Direct DFT oracle: |sum x_t e^{-2pi i k t / N}| for one-sided bins."""
    n = frame.shape[0]
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return np.abs(basis @ frame)


class TestSpectrogram:
    @pytest.mark.parametrize("t_len", [500, 6000])
    def test_shape_100x100(self, t_len):
        w = TimeWindow(values=np.random.default_rng(0).normal(size=t_len),
                       start_index=0)
        assert spectrogram(w).shape == (100, 100)

    def test_standardized(self):
        w = TimeWindow(values=np.random.default_rng(1).normal(size=500),
                       start_index=0)
        img = spectrogram(w)
        assert abs(img.mean()) < 1e-9
        assert abs(img.std() - 1.0) < 1e-6
        assert np.isfinite(img).all()

    def test_deterministic_bit_identical(self):
        w = TimeWindow(values=np.random.default_rng(2).normal(size=500),
                       start_index=0)
        assert np.array_equal(spectrogram(w), spectrogram(w))

    @pytest.mark.parametrize("f0", [5.0, 10.0, 23.0])
    def test_sinusoid_peak_bin_matches_dft_oracle(self, f0):
        fs = 100
        t = np.arange(500) / fs
        w = normalize(TimeWindow(values=np.sin(2 * np.pi * f0 * t),
                                 start_index=0))
        img = spectrogram(w)
        peak_bins = img.argmax(axis=1)
        assert (peak_bins == peak_bins[0]).all()
        assert peak_bins[0] == freq_bin_of(f0, fs)
        # oracle: direct DFT of the first Hann-tapered frame
        frame = w.values[:198] * get_window("hann", 198)
        assert int(_dft_magnitudes(frame).argmax()) == peak_bins[0]

    def test_white_noise_spreads_power(self):
        # no frequency column may hold >10% of total pre-log power
        for seed in range(100):
            values = np.random.default_rng(seed).normal(size=500)
            w = normalize(TimeWindow(values=values, start_index=0))
            frames = np.lib.stride_tricks.sliding_window_view(w.values, 198)[::3][:100]
            power = np.abs(np.fft.rfft(frames * get_window("hann", 198), axis=1)) ** 2
            shares = power.sum(axis=0) / power.sum()
            assert shares.max() < 0.10

    def test_taper_is_scipy_hann_bit_for_bit(self):
        assert HANN_TAPER.dtype == np.float64
        assert np.array_equal(HANN_TAPER, get_window("hann", 198))
        assert not HANN_TAPER.flags.writeable
        with pytest.raises(ValueError):
            HANN_TAPER[0] = 1.0

    def test_too_short_raises(self):
        w = TimeWindow(values=np.zeros(250), start_index=0)
        with pytest.raises(ConfigError):
            spectrogram(w)

    @pytest.mark.parametrize("t_len", [297, 500, 6000])
    def test_equals_per_call_formula_bit_for_bit(self, t_len):
        # the cached taper and frame index give the uncached result exactly,
        # on the call that fills the cache and on the one that reuses it
        values = np.random.default_rng(t_len).normal(size=t_len)
        hop = (t_len - 198) // 99
        frames = values[np.arange(100)[:, None] * hop + np.arange(198)[None, :]]
        mag = np.abs(np.fft.rfft(frames * get_window("hann", 198), axis=1))
        img = np.log1p(mag)
        expected = (img - img.mean()) / (img.std() + 1e-8)
        w = TimeWindow(values=values, start_index=0)
        for _ in range(2):
            assert np.array_equal(spectrogram(w), expected)


def ref_normalize(x):
    return (x - x.mean()) / (float(np.std(x)) + NORM_EPS)


def ref_spectrogram(values):
    hop = (len(values) - 198) // 99
    frames = values[np.arange(100)[:, None] * hop + np.arange(198)[None, :]]
    img = np.log1p(np.abs(np.fft.rfft(frames * HANN_TAPER, axis=1)))
    return (img - img.mean()) / (img.std() + NORM_EPS)


class TestStandardizeMatchesStdFormulas:
    """normalize and spectrogram take the mean once and the deviation from
    the centred array; the plain formulas with np.std give the same bits."""

    @staticmethod
    def check(values):
        before = values.copy()
        w = TimeWindow(values=values, start_index=3)
        normed = normalize(w)
        assert normed.values.dtype == values.dtype
        assert np.array_equal(normed.values, ref_normalize(values))
        assert np.array_equal(spectrogram(w), ref_spectrogram(values))
        assert np.array_equal(spectrogram(normed), ref_spectrogram(ref_normalize(values)))
        assert np.array_equal(values, before)

    @settings(max_examples=40, deadline=None)
    @given(t_len=st.sampled_from([500, 6000]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
           offset=st.sampled_from([0.0, 1.0, -7.5]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_random_windows(self, t_len, seed, scale, offset, dtype):
        rng = np.random.default_rng(seed)
        self.check((scale * (offset + rng.normal(size=t_len))).astype(dtype))

    @pytest.mark.parametrize("t_len", [500, 6000])
    @pytest.mark.parametrize("level", [0.0, 7.0, -1e-3])
    def test_constant_window(self, t_len, level):
        self.check(np.full(t_len, level))


class TestComputeTarget:
    def test_direct_count(self):
        labels = np.zeros(500, dtype=int)
        labels[100:130] = 1
        assert compute_target(labels, 1) == 3.0

    def test_all_zero_labels(self):
        labels = np.zeros(200, dtype=int)
        for k in (1, 2, "any"):
            assert compute_target(labels, k) == 0.0

    def test_fractional_boundary(self):
        labels = np.zeros(500, dtype=int)
        labels[:5] = 2
        assert compute_target(labels, 2) == 0.5

    def test_any_counts_nonzero(self):
        labels = np.array([0, 1, 2, 1, 0, 2])
        assert compute_target(labels, "any") == 0.4

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            compute_target(np.array([0, 1, 3]), 1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            labels = rng.integers(0, 3, size=rng.integers(1, 50))
            for k in (1, 2):
                expected = sum(1 for v in labels if v == k) / 10.0
                assert compute_target(labels, k) == expected


class TestKeptWindows:
    @staticmethod
    def quiet_gaps_rec(labels=None):
        # 9000 samples, silent in two stretches, so the filter drops some windows
        rng = np.random.default_rng(11)
        samples = rng.normal(size=9000)
        samples[1500:3200] *= 1e-4
        samples[6000:7000] = 0.0
        return RawRecording(samples=samples, labels=labels)

    CFG = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-3)

    def test_candidates_and_kept_equal_the_filter(self):
        rec = self.quiet_gaps_rec()
        n_candidates, kept, targets = kept_windows(rec, self.CFG)
        candidates = make_windows(rec, self.CFG)
        assert n_candidates == len(candidates) == 43
        want = [w for w in candidates if energy_keep(w, self.CFG.energy_threshold)]
        assert 0 < len(kept) == len(want) < n_candidates
        for w, tw in zip(kept, want):
            assert w.start_index == tw.start_index
            assert np.array_equal(w.values, tw.values)
        assert targets is None

    @pytest.mark.parametrize("vehicle_class,k", [("light", 1), ("heavy", 2), ("any", "any")])
    def test_targets_equal_compute_target_per_window(self, vehicle_class, k):
        labels = np.random.default_rng(12).integers(0, 3, size=9000)
        cfg = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-3,
                             vehicle_class=vehicle_class)
        _, kept, targets = kept_windows(self.quiet_gaps_rec(labels), cfg)
        assert len(targets) == len(kept) > 0
        for w, target in zip(kept, targets):
            want = compute_target(labels[w.start_index:w.start_index + 500], k)
            assert type(target) is float and target == want


class TestBuildDataset:
    def test_split_arithmetic(self):
        rec = rec_of(8000, seed=4)
        result = build_dataset([rec], UC1_PIPELINE)
        train, test = chronological_split(result.windows, 0.7)
        assert len(train) == int(len(result.windows) * 0.7)
        assert len(train) + len(test) == len(result.windows)

    def test_all_below_threshold(self):
        cfg = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e9)
        result = build_dataset([rec_of(2000, seed=6)], cfg)
        assert result.windows == []
        assert result.n_candidates > 0

    def test_uc2_candidate_count_oracle(self):
        # count formula: floor((N - T) / hop) + 1
        n, t, hop = 186_000, 6000, 200
        cfg = PipelineConfig(window_s=60, stride_s=2, energy_threshold=1e9)
        result = build_dataset([rec_of(n, seed=7)], cfg)
        assert result.n_candidates == (n - t) // hop + 1 == 901

    def test_targets_and_tags(self):
        labels = np.zeros(900, dtype=int)
        labels[200:260] = 1
        rec = RawRecording(samples=np.random.default_rng(8).normal(size=900),
                           labels=labels)
        cfg = PipelineConfig(window_s=5, stride_s=2, energy_threshold=0.0,
                             vehicle_class="light")
        result = build_dataset([rec], cfg, tags=["normal"])
        assert [w.target for w in result.windows] == [6.0, 6.0, 0.0]
        assert all(w.tag == "normal" for w in result.windows)

    @pytest.mark.parametrize("vehicle_class,k", [("light", 1), ("heavy", 2), ("any", "any")])
    def test_targets_equal_compute_target_per_window(self, vehicle_class, k):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, size=9000)
        rec = RawRecording(samples=rng.normal(size=9000), labels=labels)
        cfg = PipelineConfig(window_s=60, stride_s=2, energy_threshold=0.0,
                             vehicle_class=vehicle_class)
        result = build_dataset([rec], cfg)
        assert len(result.windows) == 16
        for w in result.windows:
            want = compute_target(labels[w.start_index:w.start_index + 6000], k)
            assert type(w.target) is float and w.target == want

    def test_images_are_float32_spectrograms(self):
        rec = rec_of(2000, seed=9)
        result = build_dataset([rec], UC1_PIPELINE)
        kept = [w for w in make_windows(rec, UC1_PIPELINE)
                if energy_keep(w, UC1_PIPELINE.energy_threshold)]
        assert len(result.windows) == len(kept) > 0
        for w, tw in zip(result.windows, kept):
            assert w.image.dtype == np.float32
            assert np.array_equal(w.image, spectrogram(normalize(tw)).astype(np.float32))
            assert w.start_index == tw.start_index

    def test_mixed_sampling_rates_rejected(self):
        with pytest.raises(DataError):
            build_dataset([rec_of(900, fs=100), rec_of(900, fs=50)], UC1_PIPELINE)

    def test_misaligned_tags_rejected(self):
        with pytest.raises(DataError, match="one-to-one"):
            build_dataset([rec_of(900), rec_of(900, seed=1)], UC1_PIPELINE, tags=["normal"])

    @pytest.mark.parametrize("tag", ["damaged", "Normal", "traffic", 1])
    def test_unknown_tag_rejected(self, tag):
        # "damaged" is the manifest's state, not a window tag: saving a
        # dataset of such windows failed with a bare KeyError
        with pytest.raises(DataError, match="unknown tag"):
            build_dataset([rec_of(900), rec_of(900, seed=1)], UC1_PIPELINE,
                          tags=[None, tag])


def test_targets_of():
    labels = np.zeros(900, dtype=int)
    labels[200:260] = 1
    rec = RawRecording(samples=np.random.default_rng(8).normal(size=900), labels=labels)
    cfg = PipelineConfig(window_s=5, stride_s=2, energy_threshold=0.0)
    windows = build_dataset([rec], cfg).windows
    y = targets_of(windows)
    assert y.dtype == np.float64 and y.tolist() == [6.0, 6.0, 0.0]
    unlabelled = build_dataset([rec_of(900)], cfg).windows
    with pytest.raises(DataError, match="window 1 has no regression target"):
        targets_of(windows[:1] + unlabelled)
