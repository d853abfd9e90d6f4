import builtins
import configparser
import io
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from shm_fomo import baselines, cli, mae_model, trainer
from shm_fomo.anomaly_head import FILTER_LENGTHS
from shm_fomo.errors import ConfigError, DataError
from shm_fomo.io_formats import (RECORDING_MAGIC, config_hash, load_dataset, load_manifest,
                                 load_recording, read_container, save_dataset, save_manifest,
                                 save_recording_binary, write_container)
from shm_fomo.mae_model import ModelConfig, attach_regression_head, build_model, save_model
from shm_fomo.signal_pipeline import PipelineConfig, build_dataset
from shm_fomo.synth_bench import BridgeConfig, TrafficConfig, gen_ambient, gen_traffic


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (y_true, y_pred) columns of a ``predictions.csv``."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return (np.array([float(r[1]) for r in rows]),
            np.array([float(r[2]) for r in rows]))


def run_cli(argv, out_dir):
    return cli.run(argv + ["--out", str(out_dir)])


def only_run_dir(out_dir, command):
    matches = [p for p in out_dir.iterdir() if p.name.startswith(command)]
    assert len(matches) == 1, matches
    return matches[0]


AMBIENT_CFG = """
[experiment]
seed = 7

[synth]
state = normal
duration_s = 90
count = 2
noise_std = 0.05

[pipeline]
window_s = 5
stride_s = 2
energy_threshold = 1e-8
"""


def test_full_recipe(tiny_record):
    """The seeded recipe's tiny run (tools/recipe.py, the repo's one run of the
    CLI from synth-gen to the baselines) leaves in each stage directory what
    the stage promises to write, including what its record does not hash."""
    stages = json.loads(tiny_record.read_text())["seconds"]
    run_dirs = {stage: next((tiny_record.parent / stage).iterdir()) for stage in stages}
    for run_dir in run_dirs.values():
        assert (run_dir / "config.ini").is_file()
        info = json.loads((run_dir / "run.json").read_text())
        assert info["blas_threads"] == cli.blas_threads()
    normal = load_manifest(run_dirs["synth-gen-normal"] / "manifest.json")
    assert {entry["state"] for entry in normal} == {"normal"}
    data = {name: load_dataset(run_dirs[f"preprocess-{name}"] / "dataset.shmd")
            for name in ("ad-train", "ad-test", "tle-train", "tle-test")}
    assert len(data["ad-train"]) == (3300 - 500) // 200 + 1   # a 33-s recording
    assert {w.tag for w in data["ad-train"]} == {"normal"}
    assert {w.tag for w in data["ad-test"]} == {"normal", "anomaly"}
    assert all(w.target is not None for w in data["tle-train"] + data["tle-test"])

    def lines(stage, name):
        return (run_dirs[stage] / name).read_text().splitlines()

    regimes = ("no_pretrain", "pretrain_uc", "pretrain_all")   # the ablation's
    for stage in ("pretrain", "finetune-ad", "finetune-tle", "pretrain-student", "distill",
                  "pretrain-uc", "pretrain-all", *(f"finetune-tle-{r}" for r in regimes)):
        assert lines(stage, "trainlog.csv")[0] == "epoch,lr,loss,seconds"
    # each TLE model and baseline scores the tle-test windows
    for stage in ("eval-tle", "eval-tle-student", "baseline-knn-tle", "baseline-linreg-tle",
                  *(f"eval-tle-{r}" for r in regimes)):
        predictions = lines(stage, "predictions.csv")
        assert predictions[0] == "index,y_true,y_pred"
        assert len(predictions) == 1 + len(data["tle-test"])
    decisions = lines("eval-ad", "decisions.csv")
    assert decisions[0].startswith("window_index,")
    assert len(decisions) == 1 + len(data["ad-test"])


@pytest.mark.parametrize("state", ["normal", "damaged", "traffic"])
def test_synth_state_picks_the_generator(tmp_path, state):
    cfg = tmp_path / "gen.ini"
    cfg.write_text(f"[synth]\nstate = {state}\nduration_s = 60\ncount = 2\n")
    out = tmp_path / "runs"
    assert run_cli(["synth-gen", "--config", str(cfg)], out) == 0
    gen_dir = only_run_dir(out, "synth-gen")
    entries = load_manifest(gen_dir / "manifest.json")
    assert [(e["state"], e["file"]) for e in entries] == [
        (state, f"rec_{state}_000.bin"), (state, f"rec_{state}_001.bin")]
    assert entries[1]["seed"] == entries[0]["seed"] + 1
    for entry in entries:
        got = load_recording(gen_dir / entry["file"])
        if state == "traffic":
            want = gen_traffic(BridgeConfig(), TrafficConfig(), 60.0, seed=entry["seed"])
            assert np.array_equal(got.labels, want.labels.astype(np.float32))
        else:
            want = gen_ambient(BridgeConfig(), 60.0, damaged=state == "damaged",
                               seed=entry["seed"])
            assert got.labels is None
        assert np.array_equal(got.samples, want.samples.astype(np.float32))


def test_synth_traffic_section_sets_the_generator(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[synth]\nstate = traffic\nduration_s = 60\n[traffic]\narrival_rate_light = 8\n")
    out = tmp_path / "runs"
    assert run_cli(["synth-gen", "--config", str(cfg)], out) == 0
    gen_dir = only_run_dir(out, "synth-gen")
    (entry,) = load_manifest(gen_dir / "manifest.json")
    want = gen_traffic(BridgeConfig(), TrafficConfig(arrival_rate_light=8), 60.0,
                       seed=entry["seed"])
    got = load_recording(gen_dir / entry["file"])
    assert np.array_equal(got.samples, want.samples.astype(np.float32))
    assert np.array_equal(got.labels, want.labels.astype(np.float32))


def test_preprocess_of_one_recording_file(tmp_path):
    rec = gen_ambient(BridgeConfig(), 30, seed=3)
    path = tmp_path / "r.bin"
    save_recording_binary(rec, path)
    cfg = tmp_path / "c.ini"
    cfg.write_text(AD_PIPELINE + f"[paths]\ninput = {path}\n")
    out = tmp_path / "runs"
    assert run_cli(["preprocess", "--config", str(cfg)], out) == 0
    windows = load_dataset(only_run_dir(out, "preprocess") / "dataset.shmd")
    want = build_dataset([load_recording(path)],
                         PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)).windows
    assert len(windows) == len(want) == (3000 - 500) // 200 + 1
    for got, w in zip(windows, want):
        assert got.tag is None and got.target is None
        assert got.start_index == w.start_index
        assert np.array_equal(got.image, w.image)


@pytest.mark.parametrize("head", [False, True], ids=["pretrained", "regression-head"])
def test_describe(tmp_path, capsys, head):
    model = build_model(ModelConfig(e_dim=48, d_dim=32), seed=0)
    if head:   # a TLE checkpoint: the encoder and its head, no decoder
        model = attach_regression_head(model, seed=1)
    ckpt = tmp_path / "m.ckpt"
    save_model(model, ckpt, provenance="deadbeef")
    assert cli.run(["describe", str(ckpt)]) == 0
    text = capsys.readouterr().out
    assert "encoder 48, decoder 32" in text
    assert f"decoder present   {not head}" in text
    assert f"regression head   {head}" in text
    assert str(model.n_params()) in text
    assert "deadbeef" in text
    size = int([l for l in text.splitlines() if "file size" in l][0].split()[2])
    assert size < 0.7e6


def exit_code_of(argv):
    proc = subprocess.run([sys.executable, "-m", "shm_fomo.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_cli_import_loads_no_scipy_module():
    # each subcommand is its own process; scipy.signal alone took ~1.6 s of
    # start-up to build one taper (scipy.stats, .interpolate and .optimize
    # came with it), and scipy.special ~0.2 s and ~20 MB for GELU's erf
    code = ("import sys, shm_fomo.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, monkeypatch, capsys):
        assert main_exit_code(["pretrain", "--out", str(tmp_path)], monkeypatch) == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_flag(self, monkeypatch):
        assert main_exit_code(["pretrain", "--bogus", "x"], monkeypatch) == 2

    def test_threads_flag_removed(self, monkeypatch, capsys):
        code = main_exit_code(["pretrain", "--config", "c.ini", "--threads", "1"], monkeypatch)
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    def test_ablation_command_removed(self, monkeypatch, capsys):
        # the ablation's regimes are pretrain, finetune-tle and eval-tle runs
        assert main_exit_code(["ablation", "--config", "c.ini"], monkeypatch) == 2
        assert "invalid choice: 'ablation'" in capsys.readouterr().err

    def test_distill_command_removed(self, tmp_path, monkeypatch, capsys):
        # distillation is finetune-tle with [paths] teacher
        cfg = tmp_path / "c.ini"
        cfg.write_text("[kd]\nalpha_kd = 0.5\n" + KD_PATHS)
        out = tmp_path / "runs"
        assert main_exit_code(["distill", "--config", str(cfg), "--out", str(out)],
                              monkeypatch) == 2
        assert "invalid choice: 'distill'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_removed(self, monkeypatch, capsys):
        # [experiment] seed alone sets the seed, so the config hash names it
        code = main_exit_code(["pretrain", "--config", "c.ini", "--seed", "5"], monkeypatch)
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("not an ini file [[[")
        code = main_exit_code(["pretrain", "--config", str(bad),
                               "--out", str(tmp_path / "runs")], monkeypatch)
        assert code == 3
        assert "config" in capsys.readouterr().err.lower()

    def test_nonexistent_config(self, tmp_path, monkeypatch):
        code = main_exit_code(["pretrain", "--config", str(tmp_path / "no.ini"),
                               "--out", str(tmp_path / "runs")], monkeypatch)
        assert code == 3

    def test_missing_checkpoint(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[paths]\ncheckpoint = /nonexistent.ckpt\n")
        code, err = exit_code_of(["describe", "/nonexistent.ckpt"])
        assert code == 4
        assert err.startswith("input error:") and "/nonexistent.ckpt" in err

    def test_unknown_config_key_in_process(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nwidth = 3\n[paths]\ndataset = x\n")
        with pytest.raises(ConfigError):
            cli.run(["pretrain", "--config", str(cfg), "--out", str(tmp_path)])


def test_seed_derivation_stable():
    a = cli.derive_seed(7, "trainer")
    b = cli.derive_seed(7, "trainer")
    c = cli.derive_seed(7, "mae_model")
    d = cli.derive_seed(8, "trainer")
    assert a == b
    assert len({a, c, d}) == 3


def test_out_root_is_runs_whatever_the_environment(tmp_path, monkeypatch):
    # SHM_FOMO_OUT was a second way to set the output root
    monkeypatch.setenv("SHM_FOMO_OUT", str(tmp_path / "env_runs"))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "gen.ini"
    cfg.write_text(AMBIENT_CFG.replace("duration_s = 90", "duration_s = 10")
                   .replace("count = 2", "count = 1"))
    assert cli.run(["synth-gen", "--config", str(cfg)]) == 0
    only_run_dir(tmp_path / "runs", "synth-gen")
    assert not (tmp_path / "env_runs").exists()


def _config(text):
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    return cfg


PHASE_DEFAULTS = {   # (base_lr, weight_decay, batch_size, warmup_epochs)
    "pretrain": (2.5e-4, 0.0, 128, 100),
    "finetune_ad": (2.5e-3, 0.05, 64, 0),
    "finetune_tle": (2.5e-6, 0.05, 8, 0),
    "finetune_kd": (2.5e-6, 0.05, 8, 0),
}
# the plan factory each phase's subcommand lays its section over;
# finetune-tle with a teacher distils with the regression defaults
PHASE_PLANS = {"pretrain": trainer.pretrain_plan, "finetune_ad": trainer.finetune_ad_plan,
               "finetune_tle": trainer.finetune_tle_plan,
               "finetune_kd": trainer.finetune_tle_plan}


class TestPartialPlanSections:
    """A section that sets some plan keys keeps its phase's other defaults."""

    @pytest.mark.parametrize("phase", sorted(PHASE_DEFAULTS))
    def test_train_section_overrides_phase_defaults(self, phase):
        plan = cli._train_plan(_config("[train]\nepochs = 300\n"), PHASE_PLANS[phase],
                               seed=7)
        assert plan.epochs == 300
        assert plan.seed == cli.derive_seed(7, "trainer")
        assert (plan.base_lr, plan.weight_decay, plan.batch_size,
                plan.warmup_epochs) == PHASE_DEFAULTS[phase]

    def test_commented_section_sets_each_key_it_names(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("# fine-tune settings\n[train]\nbase_lr = 2.5e-6\n"
                        "epochs = 500\nbatch_size = 8\nwarmup_epochs = 0\n")
        plan = cli._train_plan(cli.load_config(path)[0], trainer.finetune_tle_plan, seed=0)
        assert plan.weight_decay == 0.05
        assert plan.base_lr == 2.5e-6
        assert plan.epochs == 500 and plan.batch_size == 8 and plan.warmup_epochs == 0

    def test_section_naming_another_phase_rejected(self):
        # the subcommand picks the phase; ``phase`` is no plan key
        with pytest.raises(ConfigError, match="phase"):
            cli._train_plan(_config("[train]\nphase = pretrain\n"),
                            trainer.finetune_tle_plan, seed=7)


class TestTypedValues:
    """An int field takes only an integer literal."""

    def test_fractional_model_int_rejected(self, tmp_path):
        # main() maps ConfigError to exit code 3
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\ne_dim = 2.5\nd_dim = 16\n"
                       "[paths]\ndataset = x\n")
        with pytest.raises(ConfigError, match="e_dim"):
            cli.run(["pretrain", "--config", str(cfg), "--out", str(tmp_path)])

    def test_fractional_plan_int_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            cli.build_from_section(trainer.TrainPlan, {"epochs": "2.5"})


def main_exit_code(argv, monkeypatch):
    """Exit code of ``cli.main`` run in this process."""
    monkeypatch.setattr(sys, "argv", ["shm-fomo", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


PCA_PATHS = "[paths]\ntrain_manifest = x\ncalibration_manifest = x\ntest_manifest = x\n"
# a teacher makes finetune-tle read [kd], before any of these paths
KD_PATHS = "[paths]\ndataset = x\ncheckpoint = x\nteacher = x\n"


@pytest.mark.parametrize("command, text", [
    ("synth-gen", "[synth]\nduration_s = ten\n"),
    ("synth-gen", "[synth]\ncount = 2.5\n"),
    ("synth-gen", "[synth]\nseed = 12345\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = 60\n[traffic]\nseed = 999\n"),
    ("baseline", "[baseline]\ncf = x\n" + PCA_PATHS),
    ("baseline", "[baseline]\nmodel = pca\n" + PCA_PATHS),
    ("synth-gen", "[experiment]\nseed = x1\n"),
    ("synth-gen", "[experiment]\nsed = 1\n"),
    ("pretrain", "[train]\nmask_ratio = 0.5\n[paths]\ndataset = x\n"),
    ("pretrain", "[train]\nseed = 3\n[paths]\ndataset = x\n"),
    ("pretrain", "[model]\ne_dim = 24\nd_dim = 32\n[paths]\ndataset = x\n"),
    ("pretrain", "[train]\nphase = pretrain\n[paths]\ndataset = x\n"),
    ("finetune-tle", "[kd]\nalpha_kd = 1.5\n" + KD_PATHS),
    ("finetune-tle", "[kd]\nalpha_kd = -0.5\n" + KD_PATHS),
    ("finetune-tle", "[kd]\nalpha_task = 0.5\n" + KD_PATHS),
    ("synth-gen", "[synht]\nduration_s = 10\n"),
    ("synth-gen", "[synth]\nduration_s = 10\n[Synth]\ncount = 2\n"),
    ("synth-gen", "[synth]\nduration_s = 10\ncount = -2\n"),
    ("synth-gen", "[synth]\ncount = 0\nstate = bogus\n"),
    ("pretrain", "[train]\nbase_lr = nan\n[paths]\ndataset = x\n"),
    ("pretrain", "[train]\nbatch_size = 0\n[paths]\ndataset = x\n"),
    ("preprocess", "[pipeline]\nenergy_threshold = nan\n[paths]\ninput = x\n"),
    ("eval-ad", "[threshold]\nstep_fraction = nan\n[paths]\ntrain_dataset = x\n"
                "calibration_dataset = x\ntest_dataset = x\ncheckpoint = x\n"),
    ("synth-gen", "[synth]\nduration_s = nan\n"),
    ("synth-gen", "[synth]\nduration_s = inf\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = nan\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = inf\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nexcite_rate = nan\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nexcite_rate = -1\n"),
    ("synth-gen", "[synth]\nduration_s = 10\namp_sigma = -1\n"),
    ("synth-gen", "[synth]\nduration_s = 10\namp_sigma = inf\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nnoise_std = nan\n"),
    ("synth-gen", "[synth]\nduration_s = 10\ndamping = 0, 1.2, 1.6\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nmodal_amps = nan, 0.7, 0.45\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = 60\n[traffic]\n"
                  "arrival_rate_light = nan\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = 60\n[traffic]\n"
                  "pulse_amp_heavy = nan\n"),
    ("synth-gen", "[synth]\nstate = traffic\nduration_s = 60\n[traffic]\n"
                  "pulse_dur_s = inf\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nstate = maybe\n"),
    # the two keys that ``state`` replaced
    ("synth-gen", "[synth]\nduration_s = 10\nkind = ambient\n"),
    ("synth-gen", "[synth]\nduration_s = 10\ndamaged = true\n"),
    ("pretrain", "[model]\ne_dim = 24\nd_dim = 16\n[paths]\ndatset = x\n"),
    ("baseline", "[baseline]\nmode = svm-tle\n" + PCA_PATHS),
    # the ablation's plan section, gone with it
    ("finetune-tle", "[finetune]\nepochs = 1\n[paths]\ndataset = x\ncheckpoint = x\n"),
    # no checkpoint, and no [model] to start from
    ("finetune-tle", "[train]\nepochs = 1\n[paths]\ndataset = x\n"),
])
def test_bad_section_exits_3(tmp_path, monkeypatch, capsys, command, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    code = main_exit_code([command, "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def _non_utf8_config(cfg, monkeypatch):
    cfg.write_bytes(b"[synth]\nduration_s = 10\n# Br\xfccke\n")


def _directory_config(cfg, monkeypatch):
    cfg.mkdir()


def _refused_config(cfg, monkeypatch):
    # root may open any file, so the refusal is made in-process
    cfg.write_text("[synth]\nduration_s = 10\n")
    real_open = io.open

    def refusing_open(file, *args, **kwargs):
        if str(file) == str(cfg):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", refusing_open)
    monkeypatch.setattr(builtins, "open", refusing_open)


@pytest.mark.parametrize("spoil", [_non_utf8_config, _directory_config, _refused_config],
                         ids=["non-utf8", "directory", "permission-denied"])
def test_unreadable_config_is_one_config_error_line(tmp_path, monkeypatch, capsys, spoil):
    cfg = tmp_path / "c.ini"
    spoil(cfg, monkeypatch)
    out = tmp_path / "runs"
    code = main_exit_code(["synth-gen", "--config", str(cfg), "--out", str(out)], monkeypatch)
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert not out.exists() or not any(out.iterdir())


def test_run_dir_keeps_the_config_text_it_parsed(tmp_path, monkeypatch):
    cfg = tmp_path / "c.ini"
    text = "# Brücke, ten seconds\n[synth]\nduration_s = 10\n"
    cfg.write_text(text, encoding="utf-8")
    real_load_config = cli.load_config

    def load_then_edit(path):
        loaded = real_load_config(path)
        cfg.write_text("[synth]\nduration_s = 20\n")   # edited after the run read it
        return loaded
    monkeypatch.setattr(cli, "load_config", load_then_edit)
    assert run_cli(["synth-gen", "--config", str(cfg)], tmp_path / "runs") == 0
    run_dir = only_run_dir(tmp_path / "runs", "synth-gen")
    assert (run_dir / "config.ini").read_bytes() == text.encode("utf-8")


def test_run_dir_name_is_claimed_by_mkdir(tmp_path, monkeypatch):
    # ``exists`` answering False stands for a run that takes the name after the look
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    (tmp_path / "pretrain-20260101-000000-abcdef01").mkdir()
    monkeypatch.setattr(cli.Path, "exists", lambda self: False)
    run_dir = cli.make_run_dir(tmp_path, "pretrain", "abcdef0123")
    assert run_dir == tmp_path / "pretrain-20260101-000000-abcdef01-1"
    assert run_dir.is_dir()


def test_run_dir_under_a_dangling_link_fails(tmp_path):
    root = tmp_path / "runs"
    root.symlink_to(tmp_path / "nowhere")
    with pytest.raises(FileExistsError):
        cli.make_run_dir(root, "pretrain", "abcdef0123")


@pytest.mark.parametrize("ignored", ["[model]\ne_dim = 24\n", "[kd]\nalpha_kd = 0.5\n",
                                     "[paths]\ndataset = x\n"])
def test_known_section_a_subcommand_ignores_is_accepted(tmp_path, ignored):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[synth]\nduration_s = 10\n" + ignored)
    assert run_cli(["synth-gen", "--config", str(cfg)], tmp_path / "runs") == 0


def test_old_dataset_directory_exits_4(tmp_path, monkeypatch, capsys):
    old = tmp_path / "dataset"
    old.mkdir()
    (old / "win_000000.bin").write_bytes(b"\x00" * (100 * 100 * 4 + 5))
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[model]\ne_dim = 24\nd_dim = 16\n[paths]\ndataset = {old}\n")
    code = main_exit_code(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 4
    assert capsys.readouterr().err.startswith("input error:")


def test_non_numeric_csv_cell_exits_4(tmp_path, monkeypatch, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("timestamp,accel_z,label\n0.00,0.1,\n0.01,x,\n0.02,0.3,\n")
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ninput = {csv}\n")
    code = main_exit_code(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 4
    assert "row 3" in capsys.readouterr().err


def test_stride_under_one_sample_exits_3(tmp_path, monkeypatch, capsys):
    rec = tmp_path / "r.bin"
    save_recording_binary(gen_ambient(BridgeConfig(), 10, seed=1), rec)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[pipeline]\nwindow_s = 5\nstride_s = 0.004\n[paths]\ninput = {rec}\n")
    out = tmp_path / "runs"
    code = main_exit_code(["preprocess", "--config", str(cfg), "--out", str(out)],
                          monkeypatch)
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert list(out.iterdir()) == []


def _flip_a_sample_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01   # inside the last tensor, the samples of an unlabelled file
    path.write_bytes(bytes(blob))


def _write_shm1(path):
    samples = np.asarray(gen_ambient(BridgeConfig(), 10, seed=1).samples, "<f4")
    path.write_bytes(b"SHM1" + struct.pack("<IQB", 100, samples.size, 0) + samples.tobytes())


@pytest.mark.parametrize("spoil, message", [(_flip_a_sample_byte, "checksum"),
                                            (_write_shm1, "bad magic")])
def test_corrupt_or_old_recording_exits_4(tmp_path, monkeypatch, capsys, spoil, message):
    rec = tmp_path / "r.bin"
    save_recording_binary(gen_ambient(BridgeConfig(), 10, seed=1), rec)
    spoil(rec)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ninput = {rec}\n")
    code = main_exit_code(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("input error:") and message in err


def _huge_shape_checkpoint(tmp_path):
    """A checkpoint with a valid CRC whose one tensor claims shape (65536,) * 4."""
    body = (struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1) + b"w"
            + struct.pack("<B4I", 4, *(65536,) * 4))
    path = tmp_path / "huge.ckpt"
    path.write_bytes(mae_model.CHECKPOINT_MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    return ["describe", str(path)]


def _preprocess(tmp_path, input_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ninput = {input_path}\n")
    return ["preprocess", "--config", str(cfg), "--out", str(tmp_path / "runs")]


def _manifest_directory(tmp_path):
    (tmp_path / "m").mkdir()
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[baseline]\nmode = knn-tle\n[paths]\ntrain_manifest = {tmp_path / 'm'}\n"
                   f"test_manifest = {tmp_path / 'm'}\n")
    return ["baseline", "--config", str(cfg), "--out", str(tmp_path / "runs")]


def _non_utf8_csv(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_bytes(b"timestamp,accel_z,label\n0.00,0.1,\n0.01,0.2\xff,\n0.02,0.3,\n")
    return _preprocess(tmp_path, csv)


def _binary_recording(meta, labels=None):
    def argv(tmp_path):
        tensors = {"samples": np.ones(1000, np.float32)}
        if labels is not None:
            tensors["labels"] = np.full(1000, labels, np.float32)
        write_container(tmp_path / "r.bin", RECORDING_MAGIC, meta, tensors)
        return _preprocess(tmp_path, tmp_path / "r.bin")
    return argv


def _version_2_checkpoint(tmp_path):
    """A checkpoint with a valid CRC whose container version is 2."""
    path = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), path)
    blob = path.read_bytes()
    body = struct.pack("<I", 2) + blob[8:-4]
    path.write_bytes(blob[:4] + body + struct.pack("<I", zlib.crc32(body)))
    return ["describe", str(path)]


def _empty_dataset(tmp_path):
    save_dataset([], tmp_path / "d.shmd")
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[model]\ne_dim = 24\nd_dim = 16\n[paths]\ndataset = {tmp_path / 'd.shmd'}\n")
    return ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "runs")]


@pytest.mark.parametrize("bad_input", [
    _manifest_directory, _non_utf8_csv, _binary_recording({"fs": 0}),
    _binary_recording({"fs": 100}, labels=3), _huge_shape_checkpoint,
    _version_2_checkpoint, _empty_dataset,
], ids=["directory-manifest", "non-utf8-csv", "fs-0", "label-3", "huge-shape-checkpoint",
        "version-2-checkpoint", "empty-dataset"])
def test_bad_input_file_is_one_input_error_line(tmp_path, monkeypatch, capsys, bad_input):
    code = main_exit_code(bad_input(tmp_path), monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["n_blocks", "patch_size", "mlp_ratio", "e_heads", "d_heads"])
def test_architecture_is_no_model_key(tmp_path, monkeypatch, capsys, key):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[model]\ne_dim = 24\nd_dim = 16\n{key} = 2\n[paths]\ndataset = x\n")
    code = main_exit_code(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 3
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("e_heads", 6), ("n_blocks", 2)])
def test_checkpoint_off_its_family_member_exits_4(tmp_path, monkeypatch, capsys, key, value):
    # same tensor shapes, so without the header check it would load and compute
    # with the member's own architecture instead
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    meta, tensors = read_container(ckpt, mae_model.CHECKPOINT_MAGIC)
    write_container(ckpt, mae_model.CHECKPOINT_MAGIC, {**meta, key: value}, tensors)
    code = main_exit_code(["describe", str(ckpt)], monkeypatch)
    out, err = capsys.readouterr()
    assert code == 4
    assert err.startswith("input error:") and f"{key} = {value}" in err
    assert out == ""


def test_describe_reads_the_checkpoint_once(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt, provenance="cafe")
    calls = []
    real = mae_model.read_container

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mae_model, "read_container", spy)
    assert cli.run(["describe", str(ckpt)]) == 0
    assert len(calls) == 1
    assert "provenance        'cafe'" in capsys.readouterr().out


@pytest.mark.parametrize("command, text, code", [
    ("preprocess", "[paths]\ninput = {empty}\n", 4),
    ("pretrain", "[model]\ne_dim = 24\nd_dim = 16\n[paths]\ndataset = {empty}/d.shmd\n", 4),
    ("synth-gen", "[synth]\nstate = bogus\n", 3),
])
def test_failed_run_leaves_no_run_directory(tmp_path, monkeypatch, command, text, code):
    # each fails inside its handler, after the run directory is made
    (tmp_path / "empty").mkdir()
    cfg = tmp_path / "c.ini"
    cfg.write_text(text.format(empty=tmp_path / "empty"))
    out = tmp_path / "runs"
    assert main_exit_code([command, "--config", str(cfg), "--out", str(out)],
                          monkeypatch) == code
    assert out.is_dir() and list(out.iterdir()) == []


def test_describe_takes_no_seed_or_out(tmp_path, monkeypatch):
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    for extra in (["--out", str(tmp_path / "d")], ["--seed", "5"]):
        assert main_exit_code(["describe", str(ckpt), *extra], monkeypatch) == 2
    assert not (tmp_path / "d").exists()


def test_eval_ad_decisions_carry_start_index(tmp_path):
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    recs = [gen_ambient(BridgeConfig(), 30, seed=5),
            gen_ambient(BridgeConfig(), 20, damaged=True, seed=6)]
    windows = build_dataset(recs, pipe, tags=["normal", "anomaly"]).windows
    dataset, normal = tmp_path / "test.shmd", tmp_path / "normal.shmd"
    save_dataset(windows, dataset)
    save_dataset([w for w in windows if w.tag == "normal"], normal)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ntrain_dataset = {normal}\ncalibration_dataset = {normal}\n"
                   f"test_dataset = {dataset}\ncheckpoint = {ckpt}\n")
    out = tmp_path / "runs"
    assert run_cli(["eval-ad", "--config", str(cfg)], out) == 0
    lines = (only_run_dir(out, "eval-ad") / "decisions.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("start_index")
    starts = [int(line.split(",")[col]) for line in lines[1:]]
    assert starts == [w.start_index for w in windows]
    assert starts[:3] == [0, 200, 400] and starts.count(0) == 2   # two recordings


@pytest.mark.parametrize("role", ["train_dataset", "calibration_dataset"])
def test_eval_ad_rejects_anomalous_calibration_windows(tmp_path, monkeypatch, capsys, role):
    # a threshold set from damaged windows let eval-ad exit 0
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    recs = [gen_ambient(BridgeConfig(), 20, seed=5),
            gen_ambient(BridgeConfig(), 20, damaged=True, seed=6)]
    windows = build_dataset(recs, pipe, tags=["normal", "anomaly"]).windows
    mixed, normal = tmp_path / "mixed.shmd", tmp_path / "normal.shmd"
    save_dataset(windows, mixed)
    save_dataset([w for w in windows if w.tag == "normal"], normal)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    paths = {"train_dataset": normal, "calibration_dataset": normal,
             "test_dataset": mixed, "checkpoint": ckpt, role: mixed}
    cfg = tmp_path / "c.ini"
    cfg.write_text("[paths]\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()))
    monkeypatch.setattr(mae_model, "reconstruction_errors", _never_called)
    out = tmp_path / "runs"
    assert main_exit_code(["eval-ad", "--config", str(cfg), "--out", str(out)],
                          monkeypatch) == 1
    err = capsys.readouterr().err
    first = (2000 - 500) // 200 + 1
    assert err.splitlines() == [f"error: window {first} is tagged anomalous; threshold "
                                f"calibration on {mixed} uses normal data only"]
    assert list(out.iterdir()) == []


def _write_recordings(directory, recs):
    """Binary recordings plus a manifest; ``recs`` maps file stem to (state, rec)."""
    directory.mkdir()
    entries = []
    for stem, (state, rec) in recs.items():
        save_recording_binary(rec, directory / f"{stem}.bin")
        entries.append({"file": f"{stem}.bin", "state": state})
    save_manifest(directory / "manifest.json", entries)
    return directory / "manifest.json"


def _report_rows(run_dir):
    return [line.split(",") for line in (run_dir / "report.csv").read_text().splitlines()[1:]]


@pytest.fixture(scope="module")
def traffic_data(tmp_path_factory):
    """A labelled traffic recording with its manifest and its 60-s window dataset."""
    root = tmp_path_factory.mktemp("traffic")
    rec = gen_traffic(BridgeConfig(), TrafficConfig(), 180, seed=4)
    manifest = _write_recordings(root / "recs", {"t": ("traffic", rec)})
    pipe = PipelineConfig(window_s=60, stride_s=5, energy_threshold=1e-9)
    save_dataset(build_dataset([rec], pipe).windows, root / "dataset.shmd")
    return manifest, root / "dataset.shmd"


AD_PIPELINE = "[pipeline]\nwindow_s = 5\nstride_s = 2\nenergy_threshold = 1e-8\n"


def test_pretrain_masks_at_model_ratio(tmp_path, monkeypatch):
    rec = gen_ambient(BridgeConfig(), 30, seed=1)
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    save_dataset(build_dataset([rec], pipe).windows, tmp_path / "dataset.shmd")
    ratios = []
    real = mae_model.sample_mask_batch

    def spy(mask_ratio, batch, rng):
        ratios.append(mask_ratio)
        return real(mask_ratio, batch, rng)

    monkeypatch.setattr(mae_model, "sample_mask_batch", spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\ne_dim = 24\nd_dim = 16\nmask_ratio = 0.5\n"
                   "[train]\nepochs = 1\nwarmup_epochs = 0\nbatch_size = 8\n"
                   f"[paths]\ndataset = {tmp_path / 'dataset.shmd'}\n")
    out = tmp_path / "runs"
    assert run_cli(["pretrain", "--config", str(cfg)], out) == 0
    assert ratios and set(ratios) == {0.5}
    ckpt = only_run_dir(out, "pretrain") / "checkpoint.ckpt"
    assert mae_model.load_model(ckpt).config.mask_ratio == 0.5


def test_mask_ratio_leaving_no_visible_patch_exits_3(tmp_path, monkeypatch, capsys):
    # 0.996 rounds to all 100 patches masked, which left the encoder no token
    rec = gen_ambient(BridgeConfig(), 30, seed=1)
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    save_dataset(build_dataset([rec], pipe).windows, tmp_path / "dataset.shmd")
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\ne_dim = 24\nd_dim = 16\nmask_ratio = 0.996\n"
                   "[train]\nepochs = 1\nwarmup_epochs = 0\nbatch_size = 8\n"
                   f"[paths]\ndataset = {tmp_path / 'dataset.shmd'}\n")
    out = tmp_path / "runs"
    code = main_exit_code(["pretrain", "--config", str(cfg), "--out", str(out)],
                          monkeypatch)
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert list(out.iterdir()) == []


def _ambient_dataset(tmp_path):
    """A dataset of unlabelled, untagged ambient windows."""
    path = tmp_path / "ambient.shmd"
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    save_dataset(build_dataset([gen_ambient(BridgeConfig(), 30, seed=1)], pipe).windows, path)
    return path


def test_finetune_tle_without_checkpoint_starts_where_pretrain_starts(tmp_path, traffic_data,
                                                                      monkeypatch):
    # so under one seed the ablation's fresh and pretrained starts share their
    # initial weights and head seed, and differ only in the pretraining pool
    starts = {}

    def spy(name, real):
        def record(model, windows, plan):
            starts[name] = {key: value.copy() for key, value in model.params.items()}
            return real(model, windows, plan)
        return record

    monkeypatch.setattr(trainer, "pretrain", spy("pretrain", trainer.pretrain))
    monkeypatch.setattr(trainer, "finetune_tle", spy("finetune-tle", trainer.finetune_tle))
    cfg = tmp_path / "c.ini"
    cfg.write_text("[experiment]\nseed = 5\n[model]\ne_dim = 24\nd_dim = 16\n"
                   "[train]\nepochs = 1\nwarmup_epochs = 0\nbatch_size = 8\n"
                   f"[paths]\ndataset = {traffic_data[1]}\n")
    for command in ("pretrain", "finetune-tle"):
        assert run_cli([command, "--config", str(cfg)], tmp_path / "runs") == 0
    fresh = build_model(ModelConfig(e_dim=24, d_dim=16), seed=cli.derive_seed(5, "mae_model"))
    want = attach_regression_head(fresh, seed=cli.derive_seed(5, "reg_head")).params
    for name, params in (("pretrain", fresh.params), ("finetune-tle", want)):
        assert starts[name].keys() == params.keys()
        assert all(np.array_equal(starts[name][key], params[key]) for key in params)


def test_finetune_tle_from_a_checkpoint_ignores_the_model_section(tmp_path, traffic_data,
                                                                   monkeypatch):
    base = build_model(ModelConfig(e_dim=24, d_dim=16), seed=3)
    save_model(base, tmp_path / "m.ckpt")
    starts = []
    real = trainer.finetune_tle

    def spy(model, windows, plan):
        starts.append({key: value.copy() for key, value in model.params.items()})
        return real(model, windows, plan)

    monkeypatch.setattr(trainer, "finetune_tle", spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\ne_dim = 48\nd_dim = 32\n[train]\nepochs = 1\nbatch_size = 8\n"
                   f"[paths]\ndataset = {traffic_data[1]}\ncheckpoint = {tmp_path / 'm.ckpt'}\n")
    assert run_cli(["finetune-tle", "--config", str(cfg)], tmp_path / "runs") == 0
    want = attach_regression_head(base, seed=cli.derive_seed(0, "reg_head")).params
    (start,) = starts
    assert start.keys() == want.keys()
    assert all(np.array_equal(start[key], want[key]) for key in want)


def test_finetune_tle_with_a_teacher_is_finetune_kd(tmp_path, traffic_data):
    base = build_model(ModelConfig(e_dim=24, d_dim=16), seed=3)
    teacher = attach_regression_head(build_model(ModelConfig(e_dim=48, d_dim=32), seed=4),
                                     seed=5)
    save_model(base, tmp_path / "student.ckpt")
    save_model(teacher, tmp_path / "teacher.ckpt")
    cfg = tmp_path / "c.ini"
    cfg.write_text("[experiment]\nseed = 6\n[train]\nepochs = 2\nbatch_size = 8\n"
                   "[kd]\nalpha_kd = 0.25\n"
                   f"[paths]\ndataset = {traffic_data[1]}\n"
                   f"checkpoint = {tmp_path / 'student.ckpt'}\n"
                   f"teacher = {tmp_path / 'teacher.ckpt'}\n")
    out = tmp_path / "runs"
    assert run_cli(["finetune-tle", "--config", str(cfg)], out) == 0
    got = mae_model.load_model(only_run_dir(out, "finetune-tle") / "checkpoint.ckpt")
    student = attach_regression_head(base, seed=cli.derive_seed(6, "reg_head"))
    plan = trainer.finetune_tle_plan(epochs=2, batch_size=8,
                                     seed=cli.derive_seed(6, "trainer"))
    trainer.finetune_kd(student, teacher, load_dataset(traffic_data[1]), plan,
                        trainer.KDConfig(alpha_kd=0.25))
    assert got.params.keys() == student.params.keys()
    assert all(np.array_equal(got.params[key], student.params[key]) for key in got.params)
    assert got.provenance == config_hash({"plan": plan, "note": "distill"})


def _eval_tle_without_targets(tmp_path, data):
    ckpt = tmp_path / "m.ckpt"
    save_model(attach_regression_head(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0),
                                      seed=1), ckpt)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ntest_dataset = {_ambient_dataset(tmp_path)}\n"
                   f"checkpoint = {ckpt}\n")
    return ["eval-tle", "--config", str(cfg)], "window 0 has no regression target"


def _eval_ad_without_tags(tmp_path, data):
    _, dataset = data
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ntrain_dataset = {dataset}\ncalibration_dataset = {dataset}\n"
                   f"test_dataset = {dataset}\ncheckpoint = {ckpt}\n")
    return ["eval-ad", "--config", str(cfg)], "test window 0 has no normal/anomaly tag"


def _knn_tle_on_ambient(tmp_path, data):
    manifest, _ = data
    test = _write_recordings(tmp_path / "ambient", {
        "a": ("normal", gen_ambient(BridgeConfig(), 30, seed=1))})
    cfg = tmp_path / "c.ini"
    cfg.write_text("[baseline]\nmode = knn-tle\n" + TLE_PIPELINE
                   + f"[paths]\ntrain_manifest = {manifest}\ntest_manifest = {test}\n")
    return ["baseline", "--config", str(cfg)], f"{test}: a.bin has no labels"


@pytest.mark.parametrize("command", [_eval_tle_without_targets, _eval_ad_without_tags,
                                     _knn_tle_on_ambient],
                         ids=["eval-tle", "eval-ad", "knn-tle"])
def test_test_set_without_labels_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                   traffic_data, command):
    # scored as NaN metrics, or every window as normal, these exited 0;
    # knn-tle exited 3, as if the config were at fault
    argv, message = command(tmp_path, traffic_data)
    out = tmp_path / "runs"
    assert main_exit_code(argv + ["--out", str(out)], monkeypatch) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err
    assert list(out.iterdir()) == []


def test_baseline_knn_tle(tmp_path, traffic_data):
    manifest, _ = traffic_data
    cfg = tmp_path / "c.ini"
    cfg.write_text("[baseline]\nmode = knn-tle\nk = 3\n"
                   "[pipeline]\nwindow_s = 60\nstride_s = 5\nenergy_threshold = 1e-9\n"
                   f"[paths]\ntrain_manifest = {manifest}\ntest_manifest = {manifest}\n")
    out = tmp_path / "runs"
    assert run_cli(["baseline", "--config", str(cfg)], out) == 0
    (row,) = _report_rows(only_run_dir(out, "baseline"))
    assert row[:3] == ["tle_synth", "knn_k3", "25"]


TLE_PIPELINE = "[pipeline]\nwindow_s = 60\nstride_s = 5\nenergy_threshold = 1e-9\n"


def _preprocessed(tmp_path, manifest, pipeline):
    """The windows ``preprocess`` keeps from ``manifest`` under ``pipeline``."""
    cfg = tmp_path / "pre.ini"
    cfg.write_text(pipeline + f"[paths]\ninput = {manifest}\n")
    out = tmp_path / "pre_runs"
    assert run_cli(["preprocess", "--config", str(cfg)], out) == 0
    return load_dataset(only_run_dir(out, "preprocess") / "dataset.shmd")


def test_baseline_linreg_tle_targets_are_preprocess_targets(tmp_path, traffic_data):
    manifest, _ = traffic_data
    cfg = tmp_path / "c.ini"
    cfg.write_text("[baseline]\nmode = linreg-tle\n" + TLE_PIPELINE
                   + f"[paths]\ntrain_manifest = {manifest}\ntest_manifest = {manifest}\n")
    out = tmp_path / "runs"
    assert run_cli(["baseline", "--config", str(cfg)], out) == 0
    run_dir = only_run_dir(out, "baseline")
    (row,) = _report_rows(run_dir)
    assert row[:3] == ["tle_synth", "linreg", "25"]
    y_true, _ = read_predictions_csv(run_dir / "predictions.csv")
    assert y_true.tolist() == [w.target for w in _preprocessed(tmp_path, manifest,
                                                               TLE_PIPELINE)]


def _pca_config(tmp_path, test_manifest):
    train = _write_recordings(tmp_path / "train", {
        "n": ("normal", gen_ambient(BridgeConfig(), 60, seed=1))})
    cfg = tmp_path / "c.ini"
    cfg.write_text("[baseline]\nmode = pca-ad\ncf = 50\n" + AD_PIPELINE
                   + f"[paths]\ntrain_manifest = {train}\ncalibration_manifest = {train}\n"
                   f"test_manifest = {test_manifest}\n")
    return cfg


def test_baseline_pca_ad(tmp_path):
    test = _write_recordings(tmp_path / "test", {
        "n": ("normal", gen_ambient(BridgeConfig(), 30, seed=2)),
        "d": ("damaged", gen_ambient(BridgeConfig(), 30, damaged=True, seed=2))})
    out = tmp_path / "runs"
    assert run_cli(["baseline", "--config", str(_pca_config(tmp_path, test))], out) == 0
    rows = _report_rows(only_run_dir(out, "baseline"))
    assert [(r[1], r[2], int(r[8])) for r in rows] == [("pca_cf50", "26", L)
                                                       for L in FILTER_LENGTHS]


def test_baseline_pca_ad_scores_the_windows_preprocess_keeps(tmp_path):
    # each recording is silent for 15 s, so the energy filter drops windows
    recs = {}
    for stem, state, damaged, seed in (("d", "damaged", True, 3), ("n", "normal", False, 4)):
        rec = gen_ambient(BridgeConfig(), 40, damaged=damaged, seed=seed)
        rec.samples[1000:2500] = 0.0
        recs[stem] = (state, rec)
    test = _write_recordings(tmp_path / "test", recs)
    kept = _preprocessed(tmp_path, test, AD_PIPELINE)
    assert 0 < len(kept) < 2 * ((4000 - 500) // 200 + 1)
    cfg = _pca_config(tmp_path, test)
    text = cfg.read_text()
    for form in (test, test.parent):   # a manifest, and the directory holding it
        cfg.write_text(text.replace(f"test_manifest = {test}", f"test_manifest = {form}"))
        out = tmp_path / f"runs-{form.name}"
        assert run_cli(["baseline", "--config", str(cfg)], out) == 0
        rows = _report_rows(only_run_dir(out, "baseline"))
        assert {r[2] for r in rows} == {str(len(kept))}


@pytest.mark.parametrize("text", [
    "[{\"file\": \"a.bin\",",                       # not JSON
    pytest.param("[" * 100_000, id="nested-past-the-parser-limit"),
    "{\"file\": \"a.bin\"}",                        # not a list
    "[\"a.bin\"]",                                   # entry not an object
    "[{\"state\": \"normal\"}]",                    # entry without a file
    "[{\"file\": \"a.bin\", \"state\": \"Damaged\"}]",  # unknown state
    "[{\"file\": \"a.bin\", \"state\": [\"normal\"]}]",  # unhashable state
])
def test_malformed_manifest_exits_4(tmp_path, monkeypatch, capsys, text):
    rec_dir = tmp_path / "recs"
    rec_dir.mkdir()
    save_recording_binary(gen_ambient(BridgeConfig(), 10, seed=1), rec_dir / "a.bin")
    (rec_dir / "manifest.json").write_text(text)
    cfg = tmp_path / "c.ini"
    cfg.write_text(AD_PIPELINE + f"[paths]\ninput = {rec_dir}\n")
    code = main_exit_code(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 4
    assert capsys.readouterr().err.startswith("input error:")


def _normal_and_damaged(tmp_path):
    return _write_recordings(tmp_path / "test", {
        "n": ("normal", gen_ambient(BridgeConfig(), 30, seed=2)),
        "d": ("damaged", gen_ambient(BridgeConfig(), 30, damaged=True, seed=2))})


def _never_called(*args, **kwargs):
    raise AssertionError("work ran before the config was checked")


def test_bad_threshold_exits_3_before_scoring(tmp_path, monkeypatch):
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    dataset = tmp_path / "d.shmd"
    save_dataset(build_dataset([gen_ambient(BridgeConfig(), 20, seed=5)], pipe).windows,
                 dataset)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    monkeypatch.setattr(mae_model, "reconstruction_errors", _never_called)
    monkeypatch.setattr(baselines, "pca_errors", _never_called)
    bad = "[threshold]\nstep_fraction = 0\n"
    eval_cfg = tmp_path / "ad.ini"
    eval_cfg.write_text(bad + f"[paths]\ntrain_dataset = {dataset}\n"
                        f"calibration_dataset = {dataset}\ntest_dataset = {dataset}\n"
                        f"checkpoint = {ckpt}\n")
    pca_cfg = _pca_config(tmp_path, _normal_and_damaged(tmp_path))
    pca_cfg.write_text(pca_cfg.read_text() + bad)
    for command, cfg in (("eval-ad", eval_cfg), ("baseline", pca_cfg)):
        assert main_exit_code([command, "--config", str(cfg),
                               "--out", str(tmp_path / "runs")], monkeypatch) == 3


@pytest.mark.parametrize("mode, setting", [("knn-tle", "k = -3"), ("knn-tle", "k = 0"),
                                           ("pca-ad", "cf = 0")])
def test_baseline_argument_out_of_range_exits_3(tmp_path, monkeypatch, traffic_data,
                                                mode, setting):
    monkeypatch.setattr(cli, "load_recording", _never_called)   # checked before any read
    if mode == "pca-ad":
        cfg = _pca_config(tmp_path, _normal_and_damaged(tmp_path))
        cfg.write_text(cfg.read_text().replace("cf = 50", setting))
    else:
        manifest, _ = traffic_data
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[baseline]\nmode = {mode}\n{setting}\n" + TLE_PIPELINE
                       + f"[paths]\ntrain_manifest = {manifest}\ntest_manifest = {manifest}\n")
    code = main_exit_code(["baseline", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 3


def test_baseline_pca_ad_needs_both_states(tmp_path):
    test = _write_recordings(tmp_path / "test", {
        "n": ("normal", gen_ambient(BridgeConfig(), 30, seed=2))})
    with pytest.raises(DataError, match=r"manifest\.json.*'anomaly'"):
        run_cli(["baseline", "--config", str(_pca_config(tmp_path, test))], tmp_path / "runs")


@pytest.mark.parametrize("mode", ["knn-tle", "linreg-tle"])
def test_tle_baseline_with_no_kept_window_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                            traffic_data, mode):
    manifest, _ = traffic_data
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[baseline]\nmode = {mode}\n"
                   "[pipeline]\nwindow_s = 60\nstride_s = 5\nenergy_threshold = 1e9\n"
                   f"[paths]\ntrain_manifest = {manifest}\ntest_manifest = {manifest}\n")
    code = main_exit_code(["baseline", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {manifest}: no kept windows"]
    assert "Traceback" not in err


@pytest.mark.parametrize("drop_all", [False, True], ids=["empty-manifest", "filter-drops-all"])
def test_preprocess_keeping_no_window_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                        drop_all):
    # each wrote a dataset of 0 windows and exited 0; pretrain on it exited 4
    recs = {"n": ("normal", gen_ambient(BridgeConfig(), 30, seed=1))} if drop_all else {}
    manifest = _write_recordings(tmp_path / "recs", recs)
    cfg = tmp_path / "c.ini"
    pipeline = AD_PIPELINE.replace("1e-8", "1e9") if drop_all else AD_PIPELINE
    cfg.write_text(pipeline + f"[paths]\ninput = {manifest}\n")
    out = tmp_path / "runs"
    code = main_exit_code(["preprocess", "--config", str(cfg), "--out", str(out)], monkeypatch)
    assert code == 1
    assert capsys.readouterr().err == f"error: {manifest}: no kept windows\n"
    assert list(out.iterdir()) == []


def test_preprocess_keeping_no_window_prints_only_its_error_line(tmp_path):
    # the energy filter's warning reached stderr through logging's fallback
    # handler as a second, bare line
    manifest = _write_recordings(tmp_path / "recs", {
        "n": ("normal", gen_ambient(BridgeConfig(), 30, seed=1))})
    cfg = tmp_path / "c.ini"
    cfg.write_text(AD_PIPELINE.replace("1e-8", "1e9") + f"[paths]\ninput = {manifest}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "shm_fomo.cli", "preprocess", "--config",
                           str(cfg), "--out", str(tmp_path / "runs")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {manifest}: no kept windows\n"


def test_baseline_pca_ad_truth_in_manifest_order(tmp_path, monkeypatch):
    # eval-ad smooths the test windows in the order preprocess keeps them, so
    # pca-ad must score them in that order too, not grouped by state
    test = _write_recordings(tmp_path / "test", {
        "n1": ("normal", gen_ambient(BridgeConfig(), 20, seed=2)),
        "d": ("damaged", gen_ambient(BridgeConfig(), 20, damaged=True, seed=3)),
        "n2": ("normal", gen_ambient(BridgeConfig(), 20, seed=4))})
    truths = []
    real = cli._detection_report

    def spy(run_dir, cfg, model_id, train_err, calib_err, test_err, truth):
        truths.append(np.asarray(truth, dtype=bool))
        return real(run_dir, cfg, model_id, train_err, calib_err, test_err, truth)

    monkeypatch.setattr(cli, "_detection_report", spy)
    out = tmp_path / "runs"
    assert run_cli(["baseline", "--config", str(_pca_config(tmp_path, test))], out) == 0
    dataset, normal = tmp_path / "test.shmd", tmp_path / "normal.shmd"
    windows = _preprocessed(tmp_path, test, AD_PIPELINE)
    save_dataset(windows, dataset)
    save_dataset([w for w in windows if w.tag == "normal"], normal)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    cfg = tmp_path / "ad.ini"
    cfg.write_text(f"[paths]\ntrain_dataset = {normal}\ncalibration_dataset = {normal}\n"
                   f"test_dataset = {dataset}\ncheckpoint = {ckpt}\n")
    assert run_cli(["eval-ad", "--config", str(cfg)], out) == 0
    lines = (only_run_dir(out, "eval-ad") / "decisions.csv").read_text().splitlines()
    col = lines[0].split(",").index("truth")
    decided = np.array([line.split(",")[col] == "1" for line in lines[1:]])
    pca_truth, mae_truth = truths
    n = (2000 - 500) // 200 + 1
    assert decided.tolist() == [False] * n + [True] * n + [False] * n
    assert np.array_equal(pca_truth, decided) and np.array_equal(mae_truth, decided)


N_30S = (3000 - 500) // 200 + 1   # AD_PIPELINE windows of a 30-s recording


def _ad_detectors(tmp_path, train, calib, test):
    """The config of pca-ad on the manifests ``train``, ``calib`` and
    ``test`` and of eval-ad on the datasets ``preprocess`` makes of them, by
    command, and the dataset of each manifest."""
    datasets = {}
    for manifest in (train, calib, test):
        if manifest not in datasets:
            datasets[manifest] = manifest.parent / "dataset.shmd"
            save_dataset(_preprocessed(manifest.parent, manifest, AD_PIPELINE),
                         datasets[manifest])
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    pca = tmp_path / "pca.ini"
    pca.write_text("[baseline]\nmode = pca-ad\ncf = 50\n" + AD_PIPELINE
                   + f"[paths]\ntrain_manifest = {train}\ncalibration_manifest = {calib}\n"
                   f"test_manifest = {test}\n")
    ad = tmp_path / "ad.ini"
    ad.write_text(f"[paths]\ntrain_dataset = {datasets[train]}\n"
                  f"calibration_dataset = {datasets[calib]}\n"
                  f"test_dataset = {datasets[test]}\ncheckpoint = {ckpt}\n")
    return {"baseline": pca, "eval-ad": ad}, datasets


@pytest.mark.parametrize("case", ["normal-only", "damaged-only", "traffic-entry",
                                  "damaged-train", "damaged-calibration"])
def test_detectors_refuse_the_same_sets(tmp_path, monkeypatch, capsys, case):
    # eval-ad scored a one-class test set to NaN sensitivity or specificity
    # with exit 0; pca-ad dropped damaged training and calibration entries,
    # and traffic test entries, unread
    recs = {"normal": gen_ambient(BridgeConfig(), 30, seed=2),
            "damaged": gen_ambient(BridgeConfig(), 30, damaged=True, seed=2),
            "traffic": gen_traffic(BridgeConfig(), TrafficConfig(), 60, seed=3)}

    def manifest(name, *states):
        return _write_recordings(tmp_path / name, {s[0]: (s, recs[s]) for s in states})

    normal = manifest("normal", "normal")
    two = manifest("two", "normal", "damaged")
    calibrating = (f"window {N_30S} is tagged anomalous; threshold calibration on {{}} "
                   "uses normal data only")
    train, calib, test, bad, message = {
        "normal-only": (normal, normal, normal, 2,
                        "{}: the test set holds no window tagged 'anomaly'"),
        "damaged-only": (normal, normal, manifest("d", "damaged"), 2,
                         "{}: the test set holds no window tagged 'normal'"),
        "traffic-entry": (normal, normal, manifest("nt", "normal", "traffic"), 2,
                          f"{{}}: test window {N_30S} has no normal/anomaly tag"),
        "damaged-train": (two, normal, two, 0, calibrating),
        "damaged-calibration": (normal, two, two, 1, calibrating),
    }[case]
    configs, datasets = _ad_detectors(tmp_path, train, calib, test)
    scored = []
    real = mae_model.reconstruction_errors

    def spy(model, windows, base_seed=0):
        scored.append(len(windows))
        return real(model, windows, base_seed)

    monkeypatch.setattr(mae_model, "reconstruction_errors", spy)
    for command, cfg in configs.items():
        out = tmp_path / f"runs-{command}"
        assert main_exit_code([command, "--config", str(cfg), "--out", str(out)],
                              monkeypatch) == 1
        path = (train, calib, test)[bad]
        if command == "eval-ad":
            path = datasets[path]
        assert capsys.readouterr().err == f"error: {message.format(path)}\n"
        assert list(out.iterdir()) == []
    # eval-ad scores the training and calibration sets before it loads the
    # test set, and does not score a test set it refuses
    assert scored == ([] if bad < 2 else [N_30S, N_30S])
