"""Training phases: self-supervised pretraining, detection and regression
fine-tuning, and distillation from a frozen teacher.

All phases share one AdamW loop with linear-warmup half-cosine scheduling,
global-norm gradient clipping at 1.0, and per-epoch shuffling seeded from
(plan.seed, epoch) so runs are bit-reproducible. Each batch is stacked from
its windows' images as it is drawn, so training holds no copy of the dataset.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import mae_model
from .errors import ConfigError, DataError
from .mae_model import MaeModel
from .signal_pipeline import require_normal, targets_of

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
CLIP_NORM = 1.0
LOG_EVERY = 50           # epochs between progress log lines


@dataclass(frozen=True)
class TrainPlan:
    """Optimizer and schedule settings for one training phase."""

    base_lr: float = 2.5e-4
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int = 128
    warmup_epochs: int = 100
    mask_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, "
                              f"got {self.epochs}/{self.batch_size}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError("need 0 <= warmup_epochs <= epochs")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def pretrain_plan(**overrides) -> TrainPlan:
    """Pretraining defaults, which are TrainPlan's own."""
    return TrainPlan(**overrides)


def finetune_ad_plan(**overrides) -> TrainPlan:
    """Detection fine-tune defaults: lr 2.5e-3, 400 epochs, batch 64."""
    base = dict(base_lr=2.5e-3, weight_decay=0.05,
                epochs=400, batch_size=64, warmup_epochs=0)
    base.update(overrides)
    return TrainPlan(**base)


def finetune_tle_plan(**overrides) -> TrainPlan:
    """Regression and distilled fine-tune defaults: lr 2.5e-6, 500 epochs, batch 8."""
    base = dict(base_lr=2.5e-6, weight_decay=0.05,
                epochs=500, batch_size=8, warmup_epochs=0)
    base.update(overrides)
    return TrainPlan(**base)


@dataclass(frozen=True)
class KDConfig:
    """Loss mix for distilled fine-tuning: the distillation term weighs
    alpha_kd and the task term the rest, 1 - alpha_kd."""

    alpha_kd: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha_kd <= 1.0:
            raise ConfigError(f"alpha_kd must lie in [0, 1], got {self.alpha_kd}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss: float
    seconds: float


@dataclass
class TrainLog:
    """Per-epoch training records plus the raw per-step loss trajectory."""

    records: list[EpochRecord] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("epoch,lr,loss,seconds\n")
            for r in self.records:
                f.write(f"{r.epoch},{float(r.lr)!r},{float(r.loss)!r},"
                        f"{r.seconds:.3f}\n")

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss


def lr_at(plan: TrainPlan, epoch: int) -> float:
    """Linear ramp 0 -> base_lr over warmup, then half-cosine decay to ~0."""
    if not 0 <= epoch < plan.epochs:
        raise ConfigError(f"epoch {epoch} outside [0,{plan.epochs})")
    if epoch < plan.warmup_epochs:
        return plan.base_lr * epoch / plan.warmup_epochs
    t = (epoch - plan.warmup_epochs) / (plan.epochs - plan.warmup_epochs)
    return float(plan.base_lr * 0.5 * (1.0 + np.cos(np.pi * t)))


def clip_gradients(grads: dict) -> dict:
    """Scale all gradients by CLIP_NORM/||g|| when the global L2 norm exceeds it.

    Each gradient is scaled in float64 and rounded back to its own dtype, one
    tensor at a time, so the scaled set takes no more memory than the input.
    """
    sq = 0.0
    for g in grads.values():
        s = float(np.dot(g.reshape(-1), g.reshape(-1)))
        if not np.isfinite(s):
            raise DataError("non-finite gradient encountered")
        sq += s
    norm = np.sqrt(sq)
    if norm <= CLIP_NORM:
        return grads
    scale = CLIP_NORM / norm
    return {k: np.multiply(g, scale, dtype=np.float64).astype(g.dtype, copy=False)
            for k, g in grads.items()}


class AdamW:
    """Decoupled-weight-decay Adam; decay applies to 2-D weight matrices only."""

    def __init__(self, params: dict, weight_decay: float):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.weight_decay = weight_decay

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for k, p in params.items():
            g = grads[k].astype(p.dtype, copy=False)
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay and p.ndim == 2:
                update = update + self.weight_decay * p
            p -= lr * update


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch])


def _run_loop(model: MaeModel, windows: Sequence, plan: TrainPlan,
              step_fn: Callable[[np.ndarray, np.ndarray, np.random.Generator],
                                tuple[float, dict]]) -> TrainLog:
    if len(windows) == 0:
        raise DataError("no training windows")
    opt = AdamW(model.params, plan.weight_decay)
    log = TrainLog()
    for epoch in range(plan.epochs):
        t0 = time.perf_counter()
        rng = _epoch_rng(plan.seed, epoch)
        order = rng.permutation(len(windows))
        lr = lr_at(plan, epoch)
        first = len(log.step_losses)
        for start in range(0, len(windows), plan.batch_size):
            idx = order[start:start + plan.batch_size]
            loss, grads = step_fn(np.stack([windows[i].image for i in idx]), idx, rng)
            if not np.isfinite(loss):
                raise DataError(
                    f"non-finite loss at epoch {epoch}, step {len(log.step_losses) - first}")
            grads = clip_gradients(grads)
            opt.step(model.params, grads, lr)
            log.step_losses.append(loss)
        rec = EpochRecord(epoch=epoch, lr=lr, loss=float(np.mean(log.step_losses[first:])),
                          seconds=time.perf_counter() - t0)
        log.records.append(rec)
        if epoch % LOG_EVERY == 0 or epoch == plan.epochs - 1:
            logger.info("epoch %d/%d lr %.3g loss %.5g",
                        epoch, plan.epochs, lr, rec.loss)
    return log


def pretrain(model: MaeModel, windows: Sequence, plan: TrainPlan) -> TrainLog:
    """Self-supervised masked-reconstruction training; labels are ignored.

    Every step draws a fresh mask per sample at the model's mask ratio,
    computes the masked-patch MSE, clips the global gradient norm, and applies
    AdamW. The plan must name the same ratio: scoring masks at the model's.
    """
    if not model.has_decoder:
        raise ConfigError("pretraining needs the full encoder-decoder model")
    if plan.mask_ratio != model.config.mask_ratio:
        raise ConfigError(f"plan mask_ratio {plan.mask_ratio} differs from the "
                          f"model's {model.config.mask_ratio}")

    def step(images, idx, rng):
        masked, visible = mae_model.sample_mask_batch(plan.mask_ratio, len(idx), rng)
        loss, cache = mae_model.pretrain_forward_batch(model, images, masked, visible)
        del images   # not held through backward
        return loss, mae_model.pretrain_backward(model, cache)

    return _run_loop(model, windows, plan, step)


def finetune_ad(model: MaeModel, normal_windows: Sequence, plan: TrainPlan) -> TrainLog:
    """Continue masked-reconstruction training on normal-state data only."""
    require_normal([w.tag for w in normal_windows], "detection fine-tuning")
    return pretrain(model, normal_windows, plan)


def _regression_loop(model: MaeModel, windows, plan: TrainPlan,
                     loss: Callable) -> TrainLog:
    """Regression fine-tuning on the images of ``windows``.

    ``loss(yhat, idx)`` gives (loss, dloss/dyhat) for the predictions of the
    batch of window indices ``idx``.
    """
    if not model.has_reg_head:
        raise ConfigError("attach_regression_head before regression fine-tuning")

    def step(images, idx, rng):
        yhat, cache = mae_model.regress_forward_batch(model, images)
        del images   # not held through backward
        value, dyhat = loss(yhat.astype(np.float64), idx)
        return value, mae_model.regress_backward(model, cache, dyhat)

    return _run_loop(model, windows, plan, step)


def mse_loss(yhat: np.ndarray, y: np.ndarray):
    diff = yhat - y
    return float(np.mean(diff ** 2)), 2.0 * diff / len(y)


def finetune_tle(model: MaeModel, labeled_windows: Sequence, plan: TrainPlan) -> TrainLog:
    """Supervised regression fine-tuning with squared-error loss."""
    y = targets_of(labeled_windows)
    return _regression_loop(model, labeled_windows, plan,
                            lambda yhat, idx: mse_loss(yhat, y[idx]))


def kd_loss(y_s: np.ndarray, y_t: np.ndarray, y_true: np.ndarray, kd: KDConfig):
    """Distillation objective: (1 - alpha_kd) * MAE(y_s, y_true) + alpha_kd * RMSE(y_s, y_t).

    Returns (loss, dloss/dy_s).
    """
    n = len(y_s)
    alpha_task = 1.0 - kd.alpha_kd
    task = float(np.mean(np.abs(y_s - y_true)))
    rmse = float(np.sqrt(np.mean((y_s - y_t) ** 2)))
    loss = alpha_task * task + kd.alpha_kd * rmse
    grad = alpha_task * np.sign(y_s - y_true) / n
    if kd.alpha_kd != 0.0 and rmse > 0.0:
        grad = grad + kd.alpha_kd * (y_s - y_t) / (n * rmse)
    return loss, grad


def finetune_kd(student: MaeModel, teacher: MaeModel, labeled_windows,
                plan: TrainPlan, kd: KDConfig) -> TrainLog:
    """Distilled fine-tuning: the frozen teacher's predictions steer the student.

    Gradients flow only to the student; the teacher runs in inference mode.
    With alpha_kd = 0 the teacher is unused and the loop degenerates to plain
    absolute-error fine-tuning.
    """
    if kd.alpha_kd != 0.0 and not teacher.has_reg_head:
        raise ConfigError("teacher has no regression head")
    y = targets_of(labeled_windows)
    if kd.alpha_kd != 0.0:
        y_t = mae_model.regress_predictions(teacher, labeled_windows).astype(np.float64)
    else:
        y_t = np.zeros(len(y))
    return _regression_loop(student, labeled_windows, plan,
                            lambda yhat, idx: kd_loss(yhat, y_t[idx], y[idx], kd))
