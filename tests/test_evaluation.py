import numpy as np
import pytest

from shm_fomo.errors import DataError
from shm_fomo.evaluation import (
    MetricsReport,
    evaluate_anomaly_detection,
    format_report_table,
    regression_metrics,
    write_predictions_csv,
    write_report_csv,
)


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (y_true, y_pred) columns of a ``write_predictions_csv`` file."""
    y_true, y_pred = [], []
    with open(path) as f:
        next(f)
        for line in f:
            _, t, p = line.strip().split(",")
            y_true.append(float(t))
            y_pred.append(float(p))
    return np.asarray(y_true), np.asarray(y_pred)


def brute_force_metrics(y_pred, y_true):
    n = len(y_pred)
    mse = sum((p - t) ** 2 for p, t in zip(y_pred, y_true)) / n
    mae = sum(abs(p - t) for p, t in zip(y_pred, y_true)) / n
    mean_t = sum(y_true) / n
    ss_tot = sum((t - mean_t) ** 2 for t in y_true)
    ss_res = sum((p - t) ** 2 for p, t in zip(y_pred, y_true))
    r2 = 1 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return mse, mae, r2, 100 * mse / mean_t, 100 * mae / mean_t


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        r = regression_metrics(y, y)
        assert (r.mse, r.mae, r.r2) == (0.0, 0.0, 1.0)
        assert (r.mse_pct, r.mae_pct) == (0.0, 0.0)

    def test_mean_prediction_gives_r2_zero(self):
        y_true = np.array([1.0, 2.0, 3.0, 6.0])
        y_pred = np.full(4, y_true.mean())
        assert regression_metrics(y_pred, y_true).r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic_example(self):
        r = regression_metrics([1.0, 2.0, 3.0], [1.0, 1.0, 3.0])
        assert r.mse == pytest.approx(1 / 3, rel=1e-12)
        assert r.mae == pytest.approx(1 / 3, rel=1e-12)
        assert r.mse_pct == pytest.approx(100 * (1 / 3) / (5 / 3), rel=1e-12)
        assert r.mae_pct == pytest.approx(100 * (1 / 3) / (5 / 3), rel=1e-12)
        assert r.r2 == pytest.approx(0.625, rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y_pred = rng.normal(size=n) + 2
            y_true = rng.normal(size=n) + 2
            r = regression_metrics(y_pred, y_true)
            mse, mae, r2, mse_pct, mae_pct = brute_force_metrics(y_pred, y_true)
            assert r.mse == pytest.approx(mse, rel=1e-10)
            assert r.mae == pytest.approx(mae, rel=1e-10)
            assert r.r2 == pytest.approx(r2, rel=1e-10)
            assert r.mse_pct == pytest.approx(mse_pct, rel=1e-10)
            assert r.mae_pct == pytest.approx(mae_pct, rel=1e-10)

    def test_zero_mean_truth_flags_percentages(self):
        r = regression_metrics([0.5, 0.5], [-1.0, 1.0])
        assert np.isnan(r.mse_pct) and np.isnan(r.mae_pct)

    @pytest.mark.parametrize("y_pred", [[0.01, -0.008, 0.002], [-1.0, -2.0, -0.5]],
                             ids=["near-zero", "negative"])
    def test_percentages_are_relative_to_the_mean_target(self, y_pred):
        # over the mean prediction, MAE% reads 299,900 and -443
        y_true = [3.0, 4.0, 5.0]
        r = regression_metrics(y_pred, y_true)
        assert r.mse_pct == pytest.approx(100 * r.mse / 4.0, rel=1e-12)
        assert r.mae_pct == pytest.approx(100 * r.mae / 4.0, rel=1e-12)
        assert 0 < r.mae_pct < 200

    def test_constant_truth_flags_r2(self):
        r = regression_metrics([1.0, 2.0], [3.0, 3.0])
        assert np.isnan(r.r2)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            regression_metrics([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DataError, match="no predictions to score"):
            regression_metrics([], [])


class TestReports:
    def test_predictions_round_trip_and_regeneration(self, tmp_path):
        rng = np.random.default_rng(1)
        y_true = rng.normal(size=30)
        y_pred = rng.normal(size=30)
        path = tmp_path / "pred.csv"
        write_predictions_csv(path, y_true, y_pred)
        t2, p2 = read_predictions_csv(path)
        assert np.array_equal(t2, y_true)
        assert np.array_equal(p2, y_pred)
        r1 = regression_metrics(y_pred, y_true)
        r2 = regression_metrics(p2, t2)
        assert ((r1.mse, r1.mae, r1.r2, r1.mse_pct, r1.mae_pct)
                == (r2.mse, r2.mae, r2.r2, r2.mse_pct, r2.mae_pct))

    def test_report_csv_and_table(self, tmp_path):
        r = regression_metrics([1.0, 2.0], [1.5, 2.5])
        r.task_id, r.model_id = "tle", "mae"
        write_report_csv(tmp_path / "r.csv", [r])
        text = (tmp_path / "r.csv").read_text()
        assert text.startswith("task_id,model_id,n_samples,MSE")
        assert "tle,mae,2," in text
        table = format_report_table([r])
        assert "tle" in table and "mae" in table

    def test_table_values_never_touch(self):
        # 123456.0 is 11 characters at .4f in a 10-wide column
        r = MetricsReport(task_id="tle", model_id="mae", n_samples=120,
                          mse=123456.0, mae=300.0, r2=-9.194,
                          mse_pct=-1192923.99, mae_pct=-40283.0)
        header, row = format_report_table([r]).splitlines()
        assert len(header.split()) == len(row.split()) == 8
        assert row.split()[3:6] == ["123456.0000", "300.0000", "-9.194"]

    def test_ad_report_rows_per_filter(self, tmp_path):
        errors = np.array([0.1, 0.2, 0.9, 1.5])
        truth = np.array([False, False, True, True])
        per_filter = evaluate_anomaly_detection(errors, truth, 0.5,
                                                filter_lengths=(1, 3))
        assert per_filter[1].accuracy == 1.0
        report = MetricsReport(task_id="ad", model_id="m", n_samples=4,
                               ad_by_filter=per_filter)
        write_report_csv(tmp_path / "ad.csv", [report])
        lines = (tmp_path / "ad.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per filter length
