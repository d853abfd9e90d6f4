import numpy as np
import pytest

from shm_fomo import trainer
from shm_fomo.errors import DataError, EmptyInputError
from shm_fomo.evaluation import (
    MetricsReport,
    ablation_protocol,
    evaluate_anomaly_detection,
    format_report_table,
    regression_metrics,
    write_predictions_csv,
    write_report_csv,
)
from shm_fomo.io_formats import config_hash
from shm_fomo.mae_model import ModelConfig
from shm_fomo.signal_pipeline import SpectrogramWindow
from shm_fomo.trainer import TrainPlan, pretrain_plan


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
    mean_p = sum(y_pred) / n
    return mse, mae, r2, 100 * mse / mean_p, 100 * mae / mean_p


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
        assert r.mse_pct == pytest.approx(100 * (1 / 3) / 2, rel=1e-12)
        assert r.mae_pct == pytest.approx(100 * (1 / 3) / 2, rel=1e-12)
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

    def test_zero_mean_prediction_flags_percentages(self):
        r = regression_metrics([-1.0, 1.0], [0.5, 0.5])
        assert np.isnan(r.mse_pct) and np.isnan(r.mae_pct)

    def test_constant_truth_flags_r2(self):
        r = regression_metrics([1.0, 2.0], [3.0, 3.0])
        assert np.isnan(r.r2)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            regression_metrics([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
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


def tiny_windows(n, seed, with_targets=True):
    rng = np.random.default_rng(seed)
    return [SpectrogramWindow(image=rng.normal(size=(100, 100)),
                              target=float(rng.uniform(0, 3)) if with_targets else None)
            for _ in range(n)]


class TestAblation:
    def test_three_regimes_and_identical_finetune_hash(self, monkeypatch):
        cfg = ModelConfig(e_dim=24, d_dim=16)
        pre = pretrain_plan(epochs=1, warmup_epochs=0, batch_size=8, seed=0)
        ft = TrainPlan(base_lr=1e-4, epochs=1,
                       warmup_epochs=0, batch_size=4, seed=0)
        finetune_tle = trainer.finetune_tle
        plans = []

        def recording_finetune(model, windows, plan):
            plans.append(plan)
            return finetune_tle(model, windows, plan)

        monkeypatch.setattr(trainer, "finetune_tle", recording_finetune)
        results = ablation_protocol(
            cfg, tiny_windows(8, 0), tiny_windows(8, 1), tiny_windows(8, 2),
            tiny_windows(6, 3), pre, ft, seed=5)
        assert set(results) == {"no_pretrain", "pretrain_uc", "pretrain_all"}
        assert len(plans) == 3
        hashes = {config_hash(plan) for plan in plans}
        assert len(hashes) == 1
        assert hashes == {config_hash(ft)}
        for r in results.values():
            assert r.error is None
            assert r.report.n_samples == 6

    def test_regime_failure_is_contained(self):
        cfg = ModelConfig(e_dim=24, d_dim=16)
        pre = pretrain_plan(epochs=1, warmup_epochs=0, batch_size=8, seed=0)
        ft = TrainPlan(base_lr=1e-4, epochs=1,
                       warmup_epochs=0, batch_size=4, seed=0)
        # fine-tune windows without targets break every regime's fine-tune,
        # but pretraining-only regimes still record the failure and continue
        results = ablation_protocol(
            cfg, tiny_windows(8, 0), tiny_windows(8, 1),
            tiny_windows(8, 2, with_targets=False), tiny_windows(6, 3),
            pre, ft, seed=5)
        assert all(r.error is not None for r in results.values())
        assert set(results) == {"no_pretrain", "pretrain_uc", "pretrain_all"}
