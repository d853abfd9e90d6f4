import subprocess
import sys

import numpy as np
import pytest

from shm_fomo import cli
from shm_fomo.errors import ConfigError, DataError, DivergenceError
from shm_fomo.mae_model import ModelConfig, attach_regression_head, build_model
from shm_fomo.signal_pipeline import SpectrogramWindow
from shm_fomo.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLIP_NORM,
    AdamW,
    KDConfig,
    TrainPlan,
    _regression_loop,
    _run_loop,
    clip_gradients,
    finetune_ad,
    finetune_ad_plan,
    finetune_kd,
    finetune_tle,
    finetune_tle_plan,
    kd_loss,
    lr_at,
    pretrain,
    pretrain_plan,
)

TINY = ModelConfig(e_dim=24, d_dim=16)


def mae_loss(yhat, y):
    """Plain absolute-error loss and its gradient: what distillation with
    alpha_kd = 0 must reproduce step for step."""
    diff = yhat - y
    return float(np.mean(np.abs(diff))), np.sign(diff) / len(y)


def synth_windows(n, seed=0, targets=False, tag=None):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(SpectrogramWindow(
            image=rng.normal(size=(100, 100)),
            target=float(rng.uniform(0, 5)) if targets else None,
            tag=tag))
    return out


class TestSchedule:
    def test_epoch_zero_is_zero(self):
        assert lr_at(pretrain_plan(), 0) == 0.0

    def test_warmup_boundary_reaches_base_lr(self):
        plan = pretrain_plan()
        assert lr_at(plan, 100) == pytest.approx(2.5e-4, abs=0.0)

    def test_closed_form_everywhere(self):
        plan = TrainPlan(base_lr=3e-3, epochs=50,
                         warmup_epochs=10, batch_size=4)
        for epoch in range(50):
            if epoch < 10:
                expected = 3e-3 * epoch / 10
            else:
                expected = 3e-3 * 0.5 * (1 + np.cos(np.pi * (epoch - 10) / 40))
            assert abs(lr_at(plan, epoch) - expected) <= 1e-12

    def test_final_epoch_near_zero(self):
        plan = pretrain_plan()
        expected = 2.5e-4 * 0.5 * (1 + np.cos(np.pi * 99 / 100))
        assert lr_at(plan, 199) == pytest.approx(expected, rel=1e-12)

    def test_continuous_and_nonincreasing_after_warmup(self):
        plan = TrainPlan(base_lr=1e-3, epochs=40, warmup_epochs=8)
        values = [lr_at(plan, e) for e in range(40)]
        assert values[7] <= values[8] == plan.base_lr
        after = values[8:]
        assert all(a >= b for a, b in zip(after, after[1:]))

    def test_all_warmup_plan_only_ramps(self):
        plan = TrainPlan(base_lr=1e-3, epochs=5, warmup_epochs=5)
        assert [lr_at(plan, e) for e in range(5)] == [1e-3 * e / 5 for e in range(5)]

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at(pretrain_plan(), 200)
        with pytest.raises(ConfigError):
            lr_at(pretrain_plan(), -1)


class TestClip:
    def test_identity_below_norm(self):
        grads = {"a": np.array([0.3, 0.4])}
        assert clip_gradients(grads) is grads

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([6.0, 8.0])}  # norm 10
        clipped = clip_gradients(grads)
        assert np.allclose(clipped["a"], [0.6, 0.8])
        assert np.linalg.norm(clipped["a"]) == pytest.approx(1.0, rel=1e-12)

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=20) * 50}
        clipped = clip_gradients(grads)
        a, b = grads["a"], clipped["a"]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(cos - 1.0) < 1e-12

    def test_global_norm_across_tensors(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(4, 4.0)}  # global norm 10
        clipped = clip_gradients(grads)
        total = np.sqrt(sum(float(g @ g) for g in clipped.values()))
        assert total == pytest.approx(CLIP_NORM, rel=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(DivergenceError):
            clip_gradients({"a": np.array([np.nan, 1.0])})

    def test_keeps_each_dtype(self):
        # scaled in float64 and rounded once: a float64 copy of every
        # float32 gradient would double the gradient memory
        rng = np.random.default_rng(1)
        grads = {"w": (rng.normal(size=(30, 20)) * 5).astype(np.float32),
                 "b": (rng.normal(size=20) * 5).astype(np.float32),
                 "d": rng.normal(size=7) * 5}
        scale = CLIP_NORM / np.sqrt(sum(float(g.ravel() @ g.ravel())
                                        for g in grads.values()))
        clipped = clip_gradients(grads)
        for k, g in grads.items():
            assert clipped[k].dtype == g.dtype
            assert np.array_equal(clipped[k], (g.astype(np.float64) * scale).astype(g.dtype))


class TestAdamW:
    def test_single_step_matches_hand_oracle(self):
        rng = np.random.default_rng(1)
        params = {f"p{i}": rng.normal(size=(3, 2)) for i in range(5)}
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        originals = {k: v.copy() for k, v in params.items()}
        opt = AdamW(params, weight_decay=0.0)
        lr = 1e-2
        opt.step(params, grads, lr)
        for k in params:
            g = grads[k]
            m = (1 - ADAM_BETA1) * g
            v = (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1)
            vhat = v / (1 - ADAM_BETA2)
            expected = originals[k] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            assert np.allclose(params[k], expected, atol=1e-14), k

    def test_decoupled_decay_on_matrices_only(self):
        params = {"w": np.full((2, 2), 1.0), "b": np.full(2, 1.0)}
        grads = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
        opt = AdamW(params, weight_decay=0.1)
        opt.step(params, grads, lr=0.5)
        assert np.allclose(params["w"], 1.0 - 0.5 * 0.1 * 1.0)
        assert np.allclose(params["b"], 1.0)  # bias not decayed

    def test_two_steps_bias_correction(self):
        params = {"w": np.array([[1.0]])}
        g1, g2 = np.array([[0.3]]), np.array([[-0.2]])
        opt = AdamW(params, weight_decay=0.0)
        opt.step(params, {"w": g1}, lr=0.1)
        m = (1 - ADAM_BETA1) * g1
        v = (1 - ADAM_BETA2) * g1 ** 2
        expected = 1.0 - 0.1 * (m / (1 - ADAM_BETA1)) / (
            np.sqrt(v / (1 - ADAM_BETA2)) + ADAM_EPS)
        assert np.allclose(params["w"], expected)
        opt.step(params, {"w": g2}, lr=0.1)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g2
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g2 ** 2
        expected = expected - 0.1 * (m / (1 - ADAM_BETA1 ** 2)) / (
            np.sqrt(v / (1 - ADAM_BETA2 ** 2)) + ADAM_EPS)
        assert np.allclose(params["w"], expected)


class TestKdLoss:
    def test_zero_when_all_equal(self):
        y = np.array([1.0, 2.0, 3.0])
        loss, grad = kd_loss(y, y, y, KDConfig())
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_single_sample_closed_form(self):
        loss, _ = kd_loss(np.array([2.0]), np.array([2.0]), np.array([0.0]),
                          KDConfig())
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_batch(self):
        y_s = np.array([1.0, 3.0])
        y_t = np.array([2.0, 1.0])
        y_true = np.array([0.0, 3.0])
        loss, _ = kd_loss(y_s, y_t, y_true, KDConfig())
        expected = 0.5 * 0.5 + 0.5 * np.sqrt(2.5)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_alpha_kd_zero_equals_mae(self):
        rng = np.random.default_rng(2)
        y_s, y_t, y_true = rng.normal(size=(3, 16))
        loss_kd, grad_kd = kd_loss(y_s, y_t, y_true, KDConfig(alpha_kd=0.0))
        loss_mae, grad_mae = mae_loss(y_s, y_true)
        assert loss_kd == loss_mae
        assert np.array_equal(grad_kd, grad_mae)

    def test_weights_must_sum_to_one(self):
        # the task term takes what the distillation term leaves
        y_s, y_t, y_true = np.array([1.0, 3.0]), np.array([2.0, 1.0]), np.array([0.0, 3.0])
        loss, _ = kd_loss(y_s, y_t, y_true, KDConfig(alpha_kd=0.25))
        assert loss == pytest.approx(0.75 * 0.5 + 0.25 * np.sqrt(2.5), abs=1e-12)
        for alpha_kd in (-0.5, 1.5, float("nan")):
            with pytest.raises(ConfigError):
                KDConfig(alpha_kd=alpha_kd)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        y_s, y_t, y_true = rng.normal(size=(3, 8))
        _, grad = kd_loss(y_s, y_t, y_true, KDConfig())
        h = 1e-7
        for i in range(8):
            up, down = y_s.copy(), y_s.copy()
            up[i] += h
            down[i] -= h
            fd = (kd_loss(up, y_t, y_true, KDConfig())[0]
                  - kd_loss(down, y_t, y_true, KDConfig())[0]) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-9)


KD_RSS_SCRIPT = """
import resource
import numpy as np
from shm_fomo import mae_model, trainer
from shm_fomo.signal_pipeline import SpectrogramWindow

def head(cfg, seed):
    return mae_model.attach_regression_head(mae_model.build_model(cfg, seed=seed),
                                            seed=seed + 1)

teacher = head(mae_model.ModelConfig(e_dim=96, d_dim=64), 0)
student = head(mae_model.ModelConfig(e_dim=24, d_dim=16), 2)
rng = np.random.default_rng(0)
windows = [SpectrogramWindow(image=rng.normal(size=(100, 100)).astype(np.float32),
                             target=1.0) for _ in range(256)]
plan = trainer.TrainPlan(base_lr=1e-4, epochs=1,
                         warmup_epochs=0, batch_size=8, seed=0)
mae_model.regress_forward_batch(teacher, windows[0].image[None])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
trainer.finetune_kd(student, teacher, windows, plan, trainer.KDConfig())
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


class TestPhases:
    def test_pretrain_reproducible_first_10_steps(self):
        windows = synth_windows(24, seed=4)
        plan = pretrain_plan(epochs=3, warmup_epochs=1, batch_size=8, seed=11)
        logs = []
        for _ in range(2):
            model = build_model(TINY, seed=7)
            logs.append(pretrain(model, windows, plan))
        assert logs[0].step_losses[:10] == logs[1].step_losses[:10]

    def test_pretrain_requires_decoder(self):
        model = attach_regression_head(build_model(TINY, seed=0), seed=1)
        with pytest.raises(ConfigError):
            pretrain(model, synth_windows(8), pretrain_plan(epochs=1,
                                                            warmup_epochs=0))

    def test_finetune_ad_rejects_anomalies(self):
        model = build_model(TINY, seed=0)
        windows = synth_windows(4, tag="normal") + synth_windows(1, tag="anomaly")
        with pytest.raises(DataError):
            finetune_ad(model, windows, pretrain_plan(epochs=1, warmup_epochs=0))

    def test_finetune_ad_keeps_architecture(self):
        model = build_model(TINY, seed=0)
        before = model.n_params()
        plan = TrainPlan(base_lr=1e-3, epochs=2,
                         warmup_epochs=0, batch_size=4, seed=0)
        finetune_ad(model, synth_windows(8, tag="normal"), plan)
        assert model.n_params() == before

    def test_finetune_tle_requires_targets(self):
        model = attach_regression_head(build_model(TINY, seed=0), seed=1)
        plan = TrainPlan(base_lr=1e-4, epochs=1,
                         warmup_epochs=0, batch_size=4, seed=0)
        with pytest.raises(DataError):
            finetune_tle(model, synth_windows(8, targets=False), plan)

    def test_kd_alpha_zero_matches_plain_mae_stepwise(self):
        windows = synth_windows(16, seed=5, targets=True)
        plan = TrainPlan(base_lr=1e-4, epochs=3,
                         warmup_epochs=0, batch_size=4, seed=3)
        student_a = attach_regression_head(build_model(TINY, seed=9), seed=10)
        unused_teacher = build_model(TINY, seed=11)   # no head: alpha_kd = 0 never runs it
        log_a = finetune_kd(student_a, unused_teacher, windows, plan, KDConfig(alpha_kd=0.0))
        student_b = attach_regression_head(build_model(TINY, seed=9), seed=10)
        log_b = _regression_loop(student_b, windows, plan,
                                 lambda images, y: lambda yhat, idx: mae_loss(yhat, y[idx]))
        assert log_a.step_losses == log_b.step_losses
        for k in student_a.params:
            assert np.array_equal(student_a.params[k], student_b.params[k])

    def test_kd_teacher_frozen_and_required(self):
        windows = synth_windows(8, seed=6, targets=True)
        plan = TrainPlan(base_lr=1e-4, epochs=1,
                         warmup_epochs=0, batch_size=4, seed=0)
        student = attach_regression_head(build_model(TINY, seed=1), seed=2)
        teacher_base = build_model(TINY, seed=3)
        with pytest.raises(ConfigError):
            finetune_kd(student, teacher_base, windows, plan, KDConfig())
        teacher = attach_regression_head(teacher_base, seed=4)
        frozen = {k: v.copy() for k, v in teacher.params.items()}
        finetune_kd(student, teacher, windows, plan, KDConfig())
        for k, v in teacher.params.items():
            assert np.array_equal(v, frozen[k])

    def test_kd_teacher_pass_bounded_memory(self):
        """The teacher scores the labeled set in chunks without backward
        caches: one whole-set pass of a 96/64 teacher grew peak RSS by
        about 740 MB on 256 windows."""
        proc = subprocess.run([sys.executable, "-c", KD_RSS_SCRIPT],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 100.0

    def test_divergence_aborts(self):
        model = build_model(TINY, seed=0)
        plan = pretrain_plan(epochs=1, warmup_epochs=0, batch_size=4)

        def bad_step(idx, rng):
            return float("nan"), {k: np.zeros_like(v)
                                  for k, v in model.params.items()}

        with pytest.raises(DivergenceError):
            _run_loop(model, 4, plan, bad_step)

    def test_loss_decreases_over_spans(self):
        # epoch-mean loss after 50 more epochs never increases (tiny corpus)
        windows = synth_windows(16, seed=8)
        model = build_model(TINY, seed=2)
        plan = pretrain_plan(epochs=55, warmup_epochs=5, batch_size=16,
                             base_lr=1e-3, seed=1)
        log = pretrain(model, windows, plan)
        losses = [r.loss for r in log.records]
        for e in range(len(losses) - 50):
            assert losses[e + 50] <= losses[e]


@pytest.mark.parametrize("kwargs", [
    {"base_lr": float("nan")}, {"base_lr": float("inf")}, {"base_lr": 0.0},
    {"weight_decay": float("nan")}, {"weight_decay": -0.1},
    {"batch_size": 0}, {"batch_size": -2},
    {"epochs": 0, "warmup_epochs": 0}, {"warmup_epochs": 201},
    {"seed": -1},
])
def test_out_of_contract_plan_rejected(kwargs):
    with pytest.raises(ConfigError):
        TrainPlan(**kwargs)


def test_pretrain_plan_must_match_model_mask_ratio():
    model = build_model(TINY, seed=0)
    plan = pretrain_plan(epochs=1, warmup_epochs=0, batch_size=4, mask_ratio=0.5)
    with pytest.raises(ConfigError, match="mask_ratio"):
        pretrain(model, synth_windows(4), plan)


def plan_from_file(path, plan_factory):
    """The plan ``cli`` builds from the ``[train]`` section of a config file."""
    return cli._train_plan(cli.load_config(path), plan_factory, seed=0)


class TestPlanParsing:
    def test_load_key_value_file(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text(
            "# fine-tune settings\n[train]\nbase_lr = 2.5e-6\n"
            "epochs = 500\nbatch_size = 8\nwarmup_epochs = 0\nseed = 42\n")
        plan = plan_from_file(path, finetune_tle_plan)
        assert plan.weight_decay == 0.05
        assert plan.base_lr == 2.5e-6
        assert plan.epochs == 500 and plan.batch_size == 8 and plan.seed == 42

    def test_partial_file_keeps_phase_defaults(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[train]\nepochs = 300\n")
        plan = plan_from_file(path, finetune_tle_plan)
        assert (plan.base_lr, plan.batch_size, plan.warmup_epochs) == (2.5e-6, 8, 0)
        assert plan.epochs == 300

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[train]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError):
            plan_from_file(path, pretrain_plan)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[train]\nbase_lr 0.1\n")
        with pytest.raises(ConfigError):
            plan_from_file(path, pretrain_plan)

    def test_phase_defaults(self):
        assert pretrain_plan().base_lr == 2.5e-4
        assert pretrain_plan().epochs == 200
        assert pretrain_plan().batch_size == 128
        assert pretrain_plan().warmup_epochs == 100
        ad = finetune_ad_plan()
        assert (ad.base_lr, ad.epochs, ad.batch_size) == (2.5e-3, 400, 64)
        assert ad.weight_decay == 0.05
        tle = finetune_tle_plan()
        assert (tle.base_lr, tle.epochs, tle.batch_size) == (2.5e-6, 500, 8)

    def test_mask_ratio_default(self):
        assert pretrain_plan().mask_ratio == 0.8
