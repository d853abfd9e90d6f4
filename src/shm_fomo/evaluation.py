"""Regression metrics, report assembly, and the pretraining ablation protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import mae_model, trainer
from .anomaly_head import FILTER_LENGTHS, AdMetrics, ad_metrics, classify, median_smooth
from .errors import DataError, EmptyInputError
from .mae_model import ModelConfig
from .trainer import TrainPlan

ABLATION_REGIMES = ("no_pretrain", "pretrain_uc", "pretrain_all")


@dataclass
class MetricsReport:
    """Aggregated metrics for one (task, model) pair."""

    task_id: str = ""
    model_id: str = ""
    n_samples: int = 0
    mse: float = float("nan")
    mae: float = float("nan")
    r2: float = float("nan")
    mse_pct: float = float("nan")
    mae_pct: float = float("nan")
    ad_by_filter: dict[int, AdMetrics] = field(default_factory=dict)


def regression_metrics(y_pred: Sequence[float], y_true: Sequence[float]) -> MetricsReport:
    """MSE, MAE, R^2, and the percentage variants.

    Percentage metrics divide by the mean predicted value. Undefined
    quantities (constant truth for R^2, zero mean for percentages) come back
    as NaN.
    """
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_pred.shape != y_true.shape:
        raise DataError(f"length mismatch {y_pred.shape} vs {y_true.shape}")
    if y_pred.size == 0:
        raise EmptyInputError("no predictions to score")
    err = y_pred - y_true
    mse = float(np.mean(err ** 2))
    mae = float(np.mean(np.abs(err)))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    r2 = 1.0 - float(np.sum(err ** 2)) / ss_tot if ss_tot > 0 else float("nan")
    denom = float(y_pred.mean())
    if denom != 0.0:
        mse_pct = 100.0 * mse / denom
        mae_pct = 100.0 * mae / denom
    else:
        mse_pct = mae_pct = float("nan")
    return MetricsReport(n_samples=y_pred.size, mse=mse, mae=mae, r2=r2,
                         mse_pct=mse_pct, mae_pct=mae_pct)


def evaluate_anomaly_detection(test_errors: Sequence[float],
                               truth: Sequence[bool], threshold: float,
                               filter_lengths: Sequence[int] = FILTER_LENGTHS,
                               ) -> dict[int, AdMetrics]:
    """Detection metrics for each median filter length on one error series."""
    out = {}
    for L in filter_lengths:
        verdicts = classify(median_smooth(test_errors, L), threshold)
        out[L] = ad_metrics(verdicts, truth)
    return out


def write_predictions_csv(path, y_true, y_pred) -> None:
    with open(path, "w") as f:
        f.write("index,y_true,y_pred\n")
        for i, (t, p) in enumerate(zip(y_true, y_pred)):
            f.write(f"{i},{float(t)!r},{float(p)!r}\n")


def write_report_csv(path, reports: Sequence[MetricsReport]) -> None:
    with open(path, "w") as f:
        f.write("task_id,model_id,n_samples,MSE,MAE,R2,MSE_pct,MAE_pct,"
                "filter_len,accuracy,sensitivity,specificity\n")
        for r in reports:
            base = (f"{r.task_id},{r.model_id},{r.n_samples},"
                    f"{r.mse!r},{r.mae!r},{r.r2!r},{r.mse_pct!r},{r.mae_pct!r}")
            if r.ad_by_filter:
                for L, m in sorted(r.ad_by_filter.items()):
                    f.write(f"{base},{L},{m.accuracy!r},{m.sensitivity!r},"
                            f"{m.specificity!r}\n")
            else:
                f.write(f"{base},,,,\n")


def format_report_table(reports: Sequence[MetricsReport]) -> str:
    """Human-readable fixed-width table of regression metrics."""
    lines = [f"{'task':<14}{'model':<18}{'n':>6}{'MSE':>10}{'MAE':>10}"
             f"{'R2':>8}{'MSE%':>10}{'MAE%':>10}"]
    for r in reports:
        lines.append(f"{r.task_id:<14}{r.model_id:<18}{r.n_samples:>6}"
                     f"{r.mse:>10.4f}{r.mae:>10.4f}{r.r2:>8.3f}"
                     f"{r.mse_pct:>10.2f}{r.mae_pct:>10.2f}")
    return "\n".join(lines)


@dataclass
class AblationResult:
    report: MetricsReport
    error: Optional[str] = None


def ablation_protocol(model_cfg: ModelConfig, pretrain_all_windows,
                      task_train_windows, task_finetune_windows,
                      task_test_windows, pretrain_plan: TrainPlan,
                      finetune_plan: TrainPlan, seed: int,
                      ) -> dict[str, AblationResult]:
    """Compare fine-tuning after no / task-only / combined pretraining.

    Each of ABLATION_REGIMES uses the identical fine-tune plan and seeds; they
    differ only in what (if anything) the encoder saw during self-supervised
    pretraining.
    ``task_finetune_windows`` is the labeled fine-tune split (possibly shrunk),
    ``task_train_windows`` the task's own unlabeled training pool. A failing
    regime is recorded and the others still run.
    """
    results: dict[str, AblationResult] = {}
    y_true = np.array([w.target for w in task_test_windows], dtype=np.float64)
    test_images = [w.image for w in task_test_windows]

    for regime in ABLATION_REGIMES:
        try:
            model = mae_model.build_model(model_cfg, seed=seed)
            if regime == "pretrain_uc":
                trainer.pretrain(model, task_train_windows, pretrain_plan)
            elif regime == "pretrain_all":
                trainer.pretrain(model, pretrain_all_windows, pretrain_plan)
            student = mae_model.attach_regression_head(model, seed=seed + 1)
            trainer.finetune_tle(student, task_finetune_windows, finetune_plan)
            y_pred = mae_model.regress_predictions(student, test_images)
            report = regression_metrics(y_pred, y_true)
            report.task_id = "tle_synth"
            report.model_id = regime
            results[regime] = AblationResult(report=report)
        except Exception as exc:  # a failed regime must not sink the others
            results[regime] = AblationResult(
                report=MetricsReport(model_id=regime),
                error=f"{type(exc).__name__}: {exc}")
    return results
