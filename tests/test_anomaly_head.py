import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shm_fomo.anomaly_head import (
    AdMetrics,
    ThresholdConfig,
    ad_metrics,
    calibrate_threshold,
    classify,
    median_smooth,
    write_decisions_csv,
)
from shm_fomo.errors import CalibrationError, ConfigError, DataError, EmptyInputError


def loop_threshold(train_errors, calibration_day_errors, step_fraction=0.01,
                   max_steps=10_000):
    """The search calibrate_threshold's closed form replaces: from init, add
    init * step_fraction until every calibration error is at or below the
    threshold. Returns (threshold, steps); the running sum rounds once per
    step, so its bits may differ from init + steps * step."""
    train = np.asarray(train_errors, dtype=np.float64)
    calib = np.asarray(calibration_day_errors, dtype=np.float64)
    init = float(train.mean() + calib.std())
    top = float(calib.max())
    threshold = init
    for steps in range(max_steps):
        if top <= threshold:
            return threshold, steps
        threshold += init * step_fraction
    raise CalibrationError(f"no threshold within {max_steps} steps")


def grid_steps(threshold, train_errors, calibration_day_errors, step_fraction=0.01):
    """k of a threshold init + k * step, as perfbench's observer derives it."""
    init = float(np.mean(train_errors) + np.std(calibration_day_errors))
    return round((threshold - init) / (init * step_fraction))


def oracle_median_smooth(errors, L):
    """Sort-based causal-median oracle (lower middle element)."""
    out = []
    for i in range(len(errors)):
        window = sorted(errors[max(0, i - L + 1):i + 1])
        out.append(window[(len(window) - 1) // 2])
    return np.array(out)


class TestCalibrateThreshold:
    def test_returns_init_when_calibration_below(self):
        train = [1.0, 1.0, 1.0]
        calib = [0.5, 0.5, 0.5]  # std 0 -> init = 1.0
        assert calibrate_threshold(train, calib) == pytest.approx(1.0)

    def test_threshold_covers_max_calibration_error(self):
        rng = np.random.default_rng(0)
        train = rng.uniform(0.5, 1.5, size=50)
        calib = rng.uniform(0.5, 3.0, size=50)
        thr = calibrate_threshold(train, calib)
        assert thr >= calib.max()

    def test_hand_simulated_loop(self):
        # init = mean(train)=1.0 (+ zero-variance calibration std adds nothing
        # only if calib constant); build calib with std 0 via constant then
        # patch: use train mean 1.0, calib [1.034, 1.034, ...] has std 0
        train = [1.0]
        calib = [1.034]
        thr = calibrate_threshold(train, calib, ThresholdConfig(step_fraction=0.01))
        assert thr == pytest.approx(1.04, abs=1e-9)

    def test_minimum_grid_value_vs_exhaustive_search(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            train = rng.uniform(0.2, 1.0, size=30)
            calib = rng.uniform(0.2, 2.0, size=30)
            cfg = ThresholdConfig(step_fraction=0.02)
            thr = calibrate_threshold(train, calib, cfg)
            init = train.mean() + calib.std()
            step = init * cfg.step_fraction
            grid = init + step * np.arange(10_000)
            ok = grid >= calib.max()
            expected = grid[np.argmax(ok)]
            assert thr == pytest.approx(expected, rel=1e-12)

    def test_unreachable_grid_raises(self):
        for train, calib, step_fraction in [
                ([-1.0], [0.5, 0.5], 0.01),     # init -1 + 0: the grid steps down
                ([0.0], [1.0], 0.01),           # init 0, so the step is 0
                ([1.0], [1.0, np.nan], 0.01),   # NaN init and maximum
                ([1.0], [2.0e300], 1e-300)]:    # more steps than a float counts
            with pytest.raises(CalibrationError):
                calibrate_threshold(train, calib, ThresholdConfig(step_fraction=step_fraction))

    @settings(max_examples=300, deadline=None)
    @given(train=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20),
           calib=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=20),
           step_fraction=st.floats(0.005, 0.5))
    @example(train=[0.1], calib=[2.0], step_fraction=0.25)   # a tie the loop misses
    def test_closed_form_matches_loop(self, train, calib, step_fraction):
        thr = calibrate_threshold(train, calib, ThresholdConfig(step_fraction=step_fraction))
        expected, loop_k = loop_threshold(train, calib, step_fraction, max_steps=50_000)
        k = grid_steps(thr, train, calib, step_fraction)
        if k == loop_k:
            assert thr == pytest.approx(expected, rel=1e-12, abs=0.0)
            return
        # The loop's running sum drifts by a rounding per step, so where the
        # maximum calibration error sits on a grid point to within that
        # drift, the loop may cross it one step late or early. The closed
        # form is then still the least grid value at or above the maximum.
        init = float(np.mean(train) + np.std(calib))
        step = init * step_fraction
        top = max(calib)
        assert abs(k - loop_k) == 1
        drift = 4 * np.finfo(np.float64).eps * (loop_k + 1) * top
        assert abs(init + min(k, loop_k) * step - top) <= drift
        assert init + (k - 1) * step < top <= thr == init + k * step

    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            calibrate_threshold([], [1.0])

    @pytest.mark.parametrize("kwargs", [{"step_fraction": 0.0}, {"step_fraction": -0.01},
                                        {"step_fraction": float("nan")},
                                        {"step_fraction": float("inf")}])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ThresholdConfig(**kwargs)


def brute_force_median_smooth(errors, L):
    """Lower median by counting: the least trailing-window value that at least
    half the window (rounded up) does not exceed."""
    out = []
    for i in range(len(errors)):
        window = errors[max(0, i - L + 1):i + 1]
        need = (len(window) + 1) // 2
        out.append(min(v for v in window if sum(u <= v for u in window) >= need))
    return np.array(out)


class TestMedianSmooth:
    @settings(max_examples=60, deadline=None)
    @given(series=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
           L=st.integers(1, 45))
    def test_matches_brute_force_property(self, series, L):
        assert np.array_equal(median_smooth(series, L),
                              brute_force_median_smooth(series, L))

    def test_constant_series_unchanged(self):
        series = np.full(50, 2.5)
        for L in (1, 15, 30):
            assert np.array_equal(median_smooth(series, L), series)

    def test_length_one_identity(self):
        series = np.random.default_rng(2).normal(size=40)
        assert np.array_equal(median_smooth(series, 1), series)

    def test_spike_suppressed(self):
        assert np.array_equal(median_smooth([0, 0, 9, 0, 0], 3), np.zeros(5))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            series = rng.normal(size=rng.integers(1, 80))
            L = int(rng.integers(1, 12))
            assert np.array_equal(median_smooth(series, L),
                                  oracle_median_smooth(series, L))

    def test_output_aligns_with_input(self):
        series = np.arange(10.0)
        assert median_smooth(series, 4).shape == series.shape

    def test_even_length_takes_lower_middle(self):
        assert median_smooth([1.0, 2.0], 2)[1] == 1.0

    def test_monotone_in_input(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=30)
            b = a + rng.uniform(0, 1, size=30)
            for L in (3, 8):
                assert (median_smooth(b, L) >= median_smooth(a, L)).all()

    def test_empty_series(self):
        with pytest.raises(EmptyInputError):
            median_smooth([], 3)

    def test_bad_filter_length_rejected(self):
        with pytest.raises(ConfigError):
            median_smooth([1.0, 2.0], 0)


class TestClassify:
    def test_equal_to_threshold_is_normal(self):
        smoothed = np.full(10, 0.7)
        assert not classify(smoothed, 0.7).any()

    def test_threshold_below_min_flags_all(self):
        smoothed = np.array([0.2, 0.5, 0.9])
        assert classify(smoothed, 0.1).all()

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        smoothed = rng.normal(size=200)
        thr = float(np.median(smoothed))
        expected = np.array([v > thr for v in smoothed])
        assert np.array_equal(classify(smoothed, thr), expected)

    def test_nonfinite_threshold_rejected(self):
        with pytest.raises(ConfigError):
            classify(np.zeros(3), float("inf"))


class TestAdMetrics:
    def test_perfect_classifier(self):
        truth = np.array([True, False, True, False])
        m = ad_metrics(truth, truth)
        assert (m.accuracy, m.sensitivity, m.specificity) == (1.0, 1.0, 1.0)

    def test_all_normal_predictions_on_balanced_truth(self):
        truth = np.array([True] * 10 + [False] * 10)
        verdicts = np.zeros(20, dtype=bool)
        m = ad_metrics(verdicts, truth)
        assert m.specificity == 1.0
        assert m.sensitivity == 0.0
        assert m.accuracy == 0.5

    def test_counting_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            verdicts = rng.random(n) < 0.5
            truth = rng.random(n) < 0.5
            m = ad_metrics(verdicts, truth)
            tp = sum(1 for v, t in zip(verdicts, truth) if v and t)
            tn = sum(1 for v, t in zip(verdicts, truth) if not v and not t)
            fp = sum(1 for v, t in zip(verdicts, truth) if v and not t)
            fn = sum(1 for v, t in zip(verdicts, truth) if not v and t)
            assert m.accuracy == (tp + tn) / n
            if tp + fn:
                assert m.sensitivity == tp / (tp + fn)
            else:
                assert np.isnan(m.sensitivity)
            if tn + fp:
                assert m.specificity == tn / (tn + fp)
            else:
                assert np.isnan(m.specificity)

    def test_degenerate_truth_flags_nan(self):
        m = ad_metrics(np.array([True, False]), np.array([True, True]))
        assert np.isnan(m.specificity)
        assert m.sensitivity == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ad_metrics(np.array([True]), np.array([True, False]))


class TestMedianVoteEquivalence:
    def test_odd_L_median_threshold_equals_majority_vote(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            series = rng.normal(size=int(rng.integers(5, 60)))
            thr = float(rng.normal())
            for L in (3, 5, 15):
                via_median = classify(median_smooth(series, L), thr)
                votes = classify(series, thr)
                via_vote = np.array([
                    votes[max(0, i - L + 1):i + 1].sum() * 2
                    > len(votes[max(0, i - L + 1):i + 1])
                    for i in range(len(series))
                ])
                assert np.array_equal(via_median, via_vote), (L, thr)


def test_decisions_export(tmp_path):
    errors = [0.1, 0.2, 5.0, 0.1]
    path = tmp_path / "dec.csv"
    write_decisions_csv(path, errors, threshold=1.0, L=1,
                        truth=[False, False, True, False], start_index=[0, 200, 400, 600])
    lines = path.read_text().strip().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["0", "0", "1", "0"]
    assert lines[0] == "window_index,raw_error,smoothed_error,verdict,truth,start_index"
    assert len(lines) == 5
    assert lines[3].startswith("2,5.0,5.0,1,1")
    assert [line.split(",")[-1] for line in lines[1:]] == ["0", "200", "400", "600"]
