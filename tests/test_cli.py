import configparser
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from shm_fomo import baselines, cli, mae_model, trainer
from shm_fomo.anomaly_head import FILTER_LENGTHS
from shm_fomo.errors import ConfigError, DataError
from shm_fomo.io_formats import (RECORDING_MAGIC, load_dataset, load_manifest, save_dataset,
                                 save_manifest, save_recording_binary, write_container)
from shm_fomo.mae_model import ModelConfig, build_model, save_model
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
kind = ambient
duration_s = 90
count = 2
noise_std = 0.05

[pipeline]
window_s = 5
stride_s = 2
energy_threshold = 1e-8
"""

TRAIN_CFG = """
[experiment]
seed = 7

[model]
e_dim = 24
d_dim = 16

[train]
base_lr = 1e-3
epochs = 2
warmup_epochs = 1
batch_size = 16
seed = 3

[paths]
dataset = {dataset}
"""


def test_full_recipe(tmp_path):
    out = tmp_path / "runs"
    cfg_gen = tmp_path / "gen.ini"
    cfg_gen.write_text(AMBIENT_CFG)
    assert run_cli(["synth-gen", "--config", str(cfg_gen)], out) == 0
    gen_dir = only_run_dir(out, "synth-gen")
    manifest = load_manifest(gen_dir / "manifest.json")
    assert len(manifest) == 2
    assert all(e["state"] == "normal" for e in manifest)

    cfg_pre = tmp_path / "pre.ini"
    cfg_pre.write_text(AMBIENT_CFG + f"\n[paths]\ninput = {gen_dir}\n")
    assert run_cli(["preprocess", "--config", str(cfg_pre)], out) == 0
    pre_dir = only_run_dir(out, "preprocess")
    dataset = pre_dir / "dataset.shmd"
    windows = load_dataset(dataset)
    assert len(windows) == 2 * ((9000 - 500) // 200 + 1)
    assert all(w.tag == "normal" for w in windows)

    cfg_train = tmp_path / "train.ini"
    cfg_train.write_text(TRAIN_CFG.format(dataset=dataset))
    assert run_cli(["pretrain", "--config", str(cfg_train)], out) == 0
    pt_dir = only_run_dir(out, "pretrain")
    ckpt = pt_dir / "checkpoint.ckpt"
    assert ckpt.is_file()
    assert (pt_dir / "trainlog.csv").read_text().startswith("epoch,lr,loss,seconds\n")
    assert (pt_dir / "run.json").is_file()
    assert (pt_dir / "config.ini").is_file()

    cfg_ft = tmp_path / "ft.ini"
    cfg_ft.write_text(TRAIN_CFG.format(dataset=dataset)
                      + f"checkpoint = {ckpt}\n")
    assert run_cli(["finetune-ad", "--config", str(cfg_ft)], out) == 0
    ft_dir = only_run_dir(out, "finetune-ad")
    ft_ckpt = ft_dir / "checkpoint.ckpt"

    cfg_eval = tmp_path / "eval.ini"
    cfg_eval.write_text(f"""
[experiment]
seed = 7

[paths]
train_dataset = {dataset}
calibration_dataset = {dataset}
test_dataset = {dataset}
checkpoint = {ft_ckpt}
""")
    assert run_cli(["eval-ad", "--config", str(cfg_eval)], out) == 0
    ev_dir = only_run_dir(out, "eval-ad")
    assert (ev_dir / "report.csv").is_file()
    assert (ev_dir / "decisions.csv").read_text().startswith("window_index")


def test_traffic_gen_and_tle(tmp_path):
    out = tmp_path / "runs"
    cfg_gen = tmp_path / "gen.ini"
    cfg_gen.write_text("""
[experiment]
seed = 9

[synth]
kind = traffic
duration_s = 180

[traffic]
arrival_rate_light = 8
arrival_rate_heavy = 2

[pipeline]
window_s = 60
stride_s = 5
energy_threshold = 1e-9
vehicle_class = any
""")
    assert run_cli(["synth-gen", "--config", str(cfg_gen)], out) == 0
    gen_dir = only_run_dir(out, "synth-gen")

    cfg_pre = tmp_path / "pre.ini"
    cfg_pre.write_text(cfg_gen.read_text() + f"\n[paths]\ninput = {gen_dir}\n")
    assert run_cli(["preprocess", "--config", str(cfg_pre)], out) == 0
    dataset = only_run_dir(out, "preprocess") / "dataset.shmd"
    windows = load_dataset(dataset)
    assert all(w.target is not None for w in windows)

    cfg_train = tmp_path / "train.ini"
    cfg_train.write_text(TRAIN_CFG.format(dataset=dataset))
    assert run_cli(["pretrain", "--config", str(cfg_train)], out) == 0
    ckpt = only_run_dir(out, "pretrain") / "checkpoint.ckpt"

    cfg_ft = tmp_path / "ft.ini"
    cfg_ft.write_text(TRAIN_CFG.format(dataset=dataset) + f"checkpoint = {ckpt}\n")
    assert run_cli(["finetune-tle", "--config", str(cfg_ft)], out) == 0
    tle_ckpt = only_run_dir(out, "finetune-tle") / "checkpoint.ckpt"

    cfg_eval = tmp_path / "eval.ini"
    cfg_eval.write_text(f"[paths]\ntest_dataset = {dataset}\ncheckpoint = {tle_ckpt}\n")
    assert run_cli(["eval-tle", "--config", str(cfg_eval)], out) == 0
    ev_dir = only_run_dir(out, "eval-tle")
    assert (ev_dir / "predictions.csv").read_text().startswith("index,y_true,y_pred")

    cfg_kd = tmp_path / "kd.ini"
    cfg_kd.write_text(TRAIN_CFG.format(dataset=dataset)
                      + f"checkpoint = {ckpt}\nteacher = {tle_ckpt}\n"
                      + "\n[kd]\nalpha_kd = 0.5\n")
    assert run_cli(["distill", "--config", str(cfg_kd)], out) == 0

    cfg_base = tmp_path / "base.ini"
    cfg_base.write_text(cfg_gen.read_text() + f"""
[baseline]
mode = linreg-tle

[paths]
train_manifest = {gen_dir}/manifest.json
test_manifest = {gen_dir}/manifest.json
""")
    assert run_cli(["baseline", "--config", str(cfg_base)], out) == 0


def test_describe(tmp_path, capsys):
    model = build_model(ModelConfig(e_dim=48, d_dim=32), seed=0)
    ckpt = tmp_path / "m.ckpt"
    save_model(model, ckpt, provenance="deadbeef")
    assert cli.run(["describe", str(ckpt)]) == 0
    text = capsys.readouterr().out
    assert "encoder 48, decoder 32" in text
    assert str(model.n_params()) in text
    assert "deadbeef" in text
    size = int([l for l in text.splitlines() if "file size" in l][0].split()[2])
    assert size < 0.7e6


def exit_code_of(argv):
    proc = subprocess.run([sys.executable, "-m", "shm_fomo.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_cli_import_loads_no_scipy_subpackage_but_special():
    # each subcommand is its own process; scipy.signal alone took ~1.6 s of
    # start-up to build one taper (scipy.stats, .interpolate and .optimize
    # came with it)
    code = ("import sys, shm_fomo.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.count('.') == 1 and m.startswith('scipy.') "
            "and not m.startswith('scipy._'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) - {"scipy.version"} == {"scipy.special"}


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        code, err = exit_code_of(["pretrain", "--out", str(tmp_path)])
        assert code == 2
        assert "--config" in err

    def test_unknown_flag(self, tmp_path):
        code, _ = exit_code_of(["pretrain", "--bogus", "x"])
        assert code == 2

    def test_threads_flag_removed(self, tmp_path):
        code, err = exit_code_of(["pretrain", "--config", "c.ini", "--threads", "1"])
        assert code == 2
        assert "--threads" in err

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("not an ini file [[[")
        code, err = exit_code_of(["pretrain", "--config", str(bad),
                                  "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "config" in err.lower()

    def test_nonexistent_config(self, tmp_path):
        code, _ = exit_code_of(["pretrain", "--config", str(tmp_path / "no.ini"),
                                "--out", str(tmp_path / "runs")])
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


def test_env_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "env_runs"))
    cfg = tmp_path / "gen.ini"
    cfg.write_text(AMBIENT_CFG.replace("duration_s = 90", "duration_s = 10")
                   .replace("count = 2", "count = 1"))
    assert cli.run(["synth-gen", "--config", str(cfg)]) == 0
    assert any((tmp_path / "env_runs").iterdir())


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
# the plan factory each phase's subcommand lays its section over; distill
# fine-tunes with the regression defaults
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

    def test_ablation_finetune_section(self):
        cfg = _config("[finetune]\nepochs = 300\nseed = 4\n")
        plan = cli._train_plan(cfg, trainer.finetune_tle_plan, seed=7, name="finetune")
        assert (plan.epochs, plan.seed) == (300, 4)
        assert (plan.base_lr, plan.weight_decay, plan.batch_size,
                plan.warmup_epochs) == PHASE_DEFAULTS["finetune_tle"]

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
        cfg.write_text("[model]\ne_dim = 24\nd_dim = 16\nn_blocks = 2.5\n"
                       "[paths]\ndataset = x\n")
        with pytest.raises(ConfigError, match="n_blocks"):
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
KD_PATHS = "[paths]\ndataset = x\ncheckpoint = x\nteacher = x\n"


@pytest.mark.parametrize("command, text", [
    ("synth-gen", "[synth]\nduration_s = ten\n"),
    ("synth-gen", "[synth]\ncount = 2.5\n"),
    ("synth-gen", "[synth]\nseed = 12345\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = 60\n[traffic]\nseed = 999\n"),
    ("baseline", "[baseline]\ncf = x\n" + PCA_PATHS),
    ("baseline", "[baseline]\nmodel = pca\n" + PCA_PATHS),
    ("synth-gen", "[experiment]\nseed = x1\n"),
    ("synth-gen", "[experiment]\nsed = 1\n"),
    ("pretrain", "[train]\nmask_ratio = 0.5\n[paths]\ndataset = x\n"),
    ("pretrain", "[train]\nphase = pretrain\n[paths]\ndataset = x\n"),
    ("distill", "[kd]\nalpha_kd = 1.5\n" + KD_PATHS),
    ("distill", "[kd]\nalpha_kd = -0.5\n" + KD_PATHS),
    ("distill", "[kd]\nalpha_task = 0.5\n" + KD_PATHS),
    ("synth-gen", "[synht]\nduration_s = 10\n"),
    ("synth-gen", "[synth]\nduration_s = 10\n[Synth]\ncount = 2\n"),
    ("synth-gen", "[synth]\nduration_s = 10\ncount = -2\n"),
    ("synth-gen", "[synth]\ncount = 0\nkind = bogus\n"),
    ("pretrain", "[train]\nbase_lr = nan\n[paths]\ndataset = x\n"),
    ("pretrain", "[train]\nbatch_size = 0\n[paths]\ndataset = x\n"),
    ("preprocess", "[pipeline]\nenergy_threshold = nan\n[paths]\ninput = x\n"),
    ("eval-ad", "[threshold]\nstep_fraction = nan\n[paths]\ntrain_dataset = x\n"
                "calibration_dataset = x\ntest_dataset = x\ncheckpoint = x\n"),
    ("synth-gen", "[synth]\nduration_s = nan\n"),
    ("synth-gen", "[synth]\nduration_s = inf\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = nan\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = inf\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nexcite_rate = nan\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nexcite_rate = -1\n"),
    ("synth-gen", "[synth]\nduration_s = 10\namp_sigma = -1\n"),
    ("synth-gen", "[synth]\nduration_s = 10\namp_sigma = inf\n"),
    ("synth-gen", "[synth]\nduration_s = 10\nnoise_std = nan\n"),
    ("synth-gen", "[synth]\nduration_s = 10\ndamping = 0, 1.2, 1.6\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = 60\n[traffic]\n"
                  "arrival_rate_light = nan\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = 60\n[traffic]\n"
                  "pulse_amp_heavy = nan\n"),
    ("synth-gen", "[synth]\nkind = traffic\nduration_s = 60\n[traffic]\n"
                  "pulse_dur_s = inf\n"),
])
def test_bad_section_exits_3(tmp_path, monkeypatch, command, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    code = main_exit_code([command, "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch)
    assert code == 3


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


@pytest.mark.parametrize("bad_input", [
    _manifest_directory, _non_utf8_csv, _binary_recording({"fs": 0}),
    _binary_recording({"fs": 100}, labels=3), _huge_shape_checkpoint,
], ids=["directory-manifest", "non-utf8-csv", "fs-0", "label-3", "huge-shape-checkpoint"])
def test_bad_input_file_is_one_input_error_line(tmp_path, monkeypatch, capsys, bad_input):
    code = main_exit_code(bad_input(tmp_path), monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("input error:")
    assert "Traceback" not in err


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
    dataset = tmp_path / "test.shmd"
    save_dataset(windows, dataset)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ntrain_dataset = {dataset}\ncalibration_dataset = {dataset}\n"
                   f"test_dataset = {dataset}\ncheckpoint = {ckpt}\n")
    out = tmp_path / "runs"
    assert run_cli(["eval-ad", "--config", str(cfg)], out) == 0
    lines = (only_run_dir(out, "eval-ad") / "decisions.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("start_index")
    starts = [int(line.split(",")[col]) for line in lines[1:]]
    assert starts == [w.start_index for w in windows]
    assert starts[:3] == [0, 200, 400] and starts.count(0) == 2   # two recordings


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

    def spy(num_patches, mask_ratio, batch, rng):
        ratios.append(mask_ratio)
        return real(num_patches, mask_ratio, batch, rng)

    monkeypatch.setattr(mae_model, "sample_mask_batch", spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\ne_dim = 24\nd_dim = 16\nmask_ratio = 0.5\n"
                   "[train]\nepochs = 1\nwarmup_epochs = 0\nbatch_size = 8\n"
                   f"[paths]\ndataset = {tmp_path / 'dataset.shmd'}\n")
    out = tmp_path / "runs"
    assert run_cli(["pretrain", "--config", str(cfg)], out) == 0
    assert ratios and set(ratios) == {0.5}
    ckpt = only_run_dir(out, "pretrain") / "checkpoint.ckpt"
    assert mae_model.load_meta(ckpt)["mask_ratio"] == 0.5


def _ablation_config(tmp_path, dataset, finetune_dataset=None):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\ne_dim = 24\nd_dim = 16\n"
                   "[train]\nepochs = 1\nwarmup_epochs = 0\nbatch_size = 8\n"
                   "[finetune]\nepochs = 1\nbatch_size = 8\n[paths]\n"
                   + "".join(f"{key} = {dataset}\n" for key in (
                       "pretrain_all_dataset", "task_dataset", "test_dataset"))
                   + f"finetune_dataset = {finetune_dataset or dataset}\n")
    return cfg


def test_ablation(tmp_path, traffic_data):
    _, dataset = traffic_data
    out = tmp_path / "runs"
    assert run_cli(["ablation", "--config", str(_ablation_config(tmp_path, dataset))],
                   out) == 0
    rows = _report_rows(only_run_dir(out, "ablation"))
    assert [r[:3] for r in rows] == [["tle_synth", regime, "25"] for regime in
                                     ("no_pretrain", "pretrain_uc", "pretrain_all")]


def test_ablation_exits_1_when_regimes_fail(tmp_path, traffic_data, monkeypatch, capsys):
    # a fine-tune split without targets fails every regime
    _, dataset = traffic_data
    no_targets = tmp_path / "ambient.shmd"
    pipe = PipelineConfig(window_s=5, stride_s=2, energy_threshold=1e-8)
    save_dataset(build_dataset([gen_ambient(BridgeConfig(), 30, seed=1)], pipe).windows,
                 no_targets)
    cfg = _ablation_config(tmp_path, dataset, finetune_dataset=no_targets)
    assert main_exit_code(["ablation", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          monkeypatch) == 1
    assert capsys.readouterr().out.count("FAILED") == 3
    assert _report_rows(only_run_dir(tmp_path / "runs", "ablation")) == []


def test_ablation_reports_the_regimes_that_succeed(tmp_path, traffic_data, monkeypatch):
    _, dataset = traffic_data

    def no_pretraining(*args):
        raise DataError("pretraining unavailable")

    monkeypatch.setattr(trainer, "pretrain", no_pretraining)
    out = tmp_path / "runs"
    assert run_cli(["ablation", "--config", str(_ablation_config(tmp_path, dataset))],
                   out) == 1
    rows = _report_rows(only_run_dir(out, "ablation"))
    assert [r[:3] for r in rows] == [["tle_synth", "no_pretrain", "25"]]


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
    out = tmp_path / "runs"
    assert run_cli(["baseline", "--config", str(_pca_config(tmp_path, test))], out) == 0
    kept = _preprocessed(tmp_path, test, AD_PIPELINE)
    assert 0 < len(kept) < 2 * ((4000 - 500) // 200 + 1)
    rows = _report_rows(only_run_dir(out, "baseline"))
    assert {r[2] for r in rows} == {str(len(kept))}


@pytest.mark.parametrize("text", [
    "[{\"file\": \"a.bin\",",                       # not JSON
    pytest.param("[" * 100_000, id="nested-past-the-parser-limit"),
    "{\"file\": \"a.bin\"}",                        # not a list
    "[\"a.bin\"]",                                   # entry not an object
    "[{\"state\": \"normal\"}]",                    # entry without a file
    "[{\"file\": \"a.bin\", \"state\": \"Damaged\"}]",  # unknown state
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
    with pytest.raises(DataError, match=r"manifest\.json.*'damaged'"):
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
    dataset = tmp_path / "test.shmd"
    save_dataset(_preprocessed(tmp_path, test, AD_PIPELINE), dataset)
    ckpt = tmp_path / "m.ckpt"
    save_model(build_model(ModelConfig(e_dim=24, d_dim=16), seed=0), ckpt)
    cfg = tmp_path / "ad.ini"
    cfg.write_text(f"[paths]\ntrain_dataset = {dataset}\ncalibration_dataset = {dataset}\n"
                   f"test_dataset = {dataset}\ncheckpoint = {ckpt}\n")
    assert run_cli(["eval-ad", "--config", str(cfg)], out) == 0
    lines = (only_run_dir(out, "eval-ad") / "decisions.csv").read_text().splitlines()
    col = lines[0].split(",").index("truth")
    decided = np.array([line.split(",")[col] == "1" for line in lines[1:]])
    pca_truth, mae_truth = truths
    n = (2000 - 500) // 200 + 1
    assert decided.tolist() == [False] * n + [True] * n + [False] * n
    assert np.array_equal(pca_truth, decided) and np.array_equal(mae_truth, decided)
