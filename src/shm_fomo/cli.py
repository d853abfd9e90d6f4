"""Command-line entry point tying the pipeline stages together.

Each subcommand reads an INI-style config whose sections mirror the library's
dataclasses, runs one stage, and writes its artifacts plus the resolved
config, seeds, and hashes into a fresh per-run directory so results can be
reproduced exactly.

Sections and the keys they take (every value is typed like its default; an
unknown key or a value of the wrong type is a config error):

- ``[experiment]``: ``seed`` (default 0), the one source of the run's seed,
  so the config text alone decides it and its hash names the run directory.
- ``[synth]``: ``state`` (normal | damaged | traffic), ``duration_s``,
  ``count``, plus the fields of ``synth_bench.BridgeConfig``.
- ``[traffic]``: ``synth_bench.TrafficConfig``.
- ``[pipeline]``: ``signal_pipeline.PipelineConfig``.
- ``[model]``: ``mae_model.ModelConfig``: ``e_dim`` and ``d_dim``, a pair of
  ``mae_model.SIZE_FAMILY``, and ``mask_ratio``, which alone sets the ratio
  pretraining masks at; ``finetune-ad`` takes it from the checkpoint.
  ``pretrain`` builds this model, and so does ``finetune-tle`` when
  ``[paths]`` names no checkpoint, from the same seed.
- ``[train]``: ``trainer.TrainPlan`` without ``mask_ratio`` or ``seed``, laid
  over the defaults of the subcommand's phase. The model sets the mask
  ratio, ``[experiment]`` the seed.
- ``[kd]``: ``alpha_kd`` (``trainer.KDConfig``), in [0, 1], the weight of
  the distillation term; ``finetune-tle`` reads it when ``[paths]`` names a
  ``teacher``, whose predictions it then distils into the model it tunes.
- ``[threshold]``: ``step_fraction`` (``anomaly_head.ThresholdConfig``).
- ``[baseline]``: ``mode`` (pca-ad | knn-tle | linreg-tle), ``cf`` and ``k``
  (each >= 1), all checked before any recording is read.
- ``[paths]``: the input, dataset, checkpoint and teacher paths each
  subcommand names. ``preprocess``'s ``input`` and the baselines'
  ``*_manifest`` keys take the same three forms: a directory holding
  ``manifest.json``, a manifest, or one recording file. Manifest entries are
  read in order, each tagged by its state; a lone recording is untagged.

A section outside this list is a config error; a listed section that the
subcommand does not read is ignored, so one file can serve several
subcommands. A dataset is one file: ``preprocess`` writes
``<run>/dataset.shmd``, and the ``*dataset`` paths name such a file. Each run
directory goes under ``--out`` (default ``./runs``).

Exit codes: 0 success; 1 one ``error:`` line for a library error on readable
files, such as recordings of which the energy filter keeps no window (so
``preprocess`` writes no empty dataset), a test set without targets or tags,
a detection test set (of eval-ad or pca-ad) that lacks normal or anomalous
windows, a training or calibration set of either holding a window tagged
anomalous (a ``damaged`` manifest entry, for pca-ad), a calibration that
cannot reach its grid or a diverged run; 2 a usage error; 3 a ``config
error:`` for a config file that cannot be read, decoded as UTF-8 or parsed,
or that holds a bad section, key or value, such as ``[synth] state =
broken``, or lacks one that the subcommand needs; 4
one ``input error:`` line for any ``OSError`` or ``FormatError``: an input
file (checkpoint, dataset, manifest, recording) that is missing, a directory
or malformed, and an ``OSError`` while writing the run directory. Neither the
config nor the inputs get pre-checks.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, baselines, evaluation, mae_model, synth_bench, trainer
from .anomaly_head import ThresholdConfig, calibrate_threshold, write_decisions_csv
from .errors import ConfigError, DataError, FormatError, ShmFomoError
from .io_formats import (MANIFEST_STATES, config_hash, load_dataset, load_manifest,
                         load_recording, save_dataset, save_manifest, save_recording_binary)
from .mae_model import ModelConfig
from .signal_pipeline import (TAG_ANOMALY, TAG_NORMAL, PipelineConfig, build_dataset,
                              kept_windows, normalize, require_normal, targets_of)
from .synth_bench import BridgeConfig, TrafficConfig
from .trainer import KDConfig, TrainPlan

DATASET_FILE = "dataset.shmd"
SECTIONS = ("experiment", "synth", "traffic", "pipeline", "model", "train", "kd",
            "threshold", "baseline", "paths")

# keys of the sections that configure the CLI itself, with their defaults
EXPERIMENT_OPTIONS = {"seed": 0}
SYNTH_OPTIONS = {"state": "normal", "duration_s": 600.0, "count": 1}
BASELINE_OPTIONS = {"mode": "pca-ad", "cf": 32, "k": 7}


def derive_seed(global_seed: int, module_name: str) -> int:
    """Module seed = stable hash of (global seed, module name)."""
    digest = hashlib.sha256(f"{global_seed}:{module_name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> tuple[configparser.ConfigParser, str]:
    """The parsed config and its text, read once as UTF-8; a file that cannot
    be read, decoded or parsed is a ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text(encoding="utf-8")
        parser.read_string(text, source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = [name for name in parser.sections() if name not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section(s) {unknown} in {path}; "
                          f"known: {', '.join(SECTIONS)}")
    return parser, text


def _coerce(raw: str, typ):
    if typ is tuple:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    return typ(raw)


def typed_values(values: dict, defaults: dict, owner: str) -> dict:
    """Each string in ``values`` coerced to the type of its key's entry in
    ``defaults``; a key not in ``defaults`` or a bad value is a ConfigError."""
    out = {}
    for key, raw in values.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} for {owner}")
        try:
            out[key] = _coerce(raw, type(defaults[key]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return out


def options(values: dict, defaults: dict, owner: str) -> dict:
    """``defaults`` with the typed ``values`` laid over them."""
    return {**defaults, **typed_values(values, defaults, owner)}


def build_from_section(cls, section: dict, factory=None):
    """Instantiate a config dataclass from a string-valued mapping, each value
    coerced to the type of its field's default. ``factory`` (default ``cls``)
    receives the coerced keys, so it can lay them over its own defaults."""
    kwargs = typed_values(section, {f.name: f.default for f in dataclasses.fields(cls)},
                          cls.__name__)
    try:
        return (factory or cls)(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build {cls.__name__}: {exc}") from exc


def section(cfg: configparser.ConfigParser, name: str) -> dict:
    return dict(cfg[name]) if cfg.has_section(name) else {}


def paths_of(cfg: configparser.ConfigParser, *keys) -> list[Path]:
    sec = section(cfg, "paths")
    for key in keys:
        if key not in sec:
            raise ConfigError(f"[paths] section needs {key!r}")
    return [Path(sec[key]) for key in keys]


def make_run_dir(root: Path, command: str, cfg_hash: str) -> Path:
    """A new directory under ``root``, named for the command, the time and the
    config hash, with a ``-k`` suffix when that name is taken. ``mkdir`` itself
    claims the name, so two runs started in the same second never share it."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"{command}-{stamp}-{cfg_hash[:8]}"
    root.mkdir(parents=True, exist_ok=True)
    run_dir, k = base, 0
    while True:
        try:
            run_dir.mkdir()
            return run_dir
        except FileExistsError:
            k += 1
            run_dir = Path(f"{base}-{k}")


def blas_threads() -> int | None:
    """OpenBLAS's thread count in force, asked of the library numpy loaded;
    None where there is no such library or call."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def write_run_info(run_dir: Path, command: str, cfg_path, cfg_text: str, cfg_sha: str,
                   seed: int) -> None:
    info = {
        "command": command,
        "config": str(cfg_path),
        "config_sha": cfg_sha,
        "seed": seed,
        "version": __version__,
        "blas_threads": blas_threads(),
    }
    (run_dir / "run.json").write_text(json.dumps(info, indent=2) + "\n")
    (run_dir / "config.ini").write_text(cfg_text, encoding="utf-8")


def _recordings(path: Path):
    """(file name, recording, tag) of each recording ``path`` names, read one
    at a time: the entries of a manifest, or of a directory's
    ``manifest.json``, in order and tagged by their state; or one recording
    file, untagged."""
    manifest = path / "manifest.json" if path.is_dir() else path
    if manifest.suffix != ".json":
        yield path.name, load_recording(path), None
        return
    for entry in load_manifest(manifest):
        yield (entry["file"], load_recording(manifest.parent / entry["file"]),
               MANIFEST_STATES.get(entry.get("state")))


def _load_dataset(path: Path):
    windows = load_dataset(path)
    if not windows:
        raise FormatError(f"{path}: dataset holds no windows")
    return windows


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_gen(args, cfg, run_dir: Path) -> int:
    seed = derive_seed(args.seed, "synth_bench")
    synth = section(cfg, "synth")
    opts = options({k: synth.pop(k) for k in SYNTH_OPTIONS if k in synth},
                   SYNTH_OPTIONS, "[synth]")
    state, duration, count = opts["state"], opts["duration_s"], opts["count"]
    if state not in MANIFEST_STATES:
        raise ConfigError(f"unknown [synth] state {state!r}; "
                          f"known: {', '.join(MANIFEST_STATES)}")
    if count < 1:
        raise ConfigError(f"[synth] count must be >= 1, got {count}")
    bridge = build_from_section(BridgeConfig, synth)
    if state == "traffic":
        traffic = build_from_section(TrafficConfig, section(cfg, "traffic"))
    entries = []
    for i in range(count):
        rec_seed = seed + i
        if state == "traffic":
            rec = synth_bench.gen_traffic(bridge, traffic, duration, seed=rec_seed)
        else:
            rec = synth_bench.gen_ambient(bridge, duration, damaged=state == "damaged",
                                          seed=rec_seed)
        name = f"rec_{state}_{i:03d}.bin"
        save_recording_binary(rec, run_dir / name)
        entries.append({"file": name, "state": state, "seed": rec_seed,
                        "config_hash": config_hash(bridge)})
    save_manifest(run_dir / "manifest.json", entries)
    print(f"wrote {count} recording(s) + manifest to {run_dir}")
    return 0


def cmd_preprocess(args, cfg, run_dir: Path) -> int:
    pipe = build_from_section(PipelineConfig, section(cfg, "pipeline"))
    (input_path,) = paths_of(cfg, "input")
    recs, tags = [], []
    for _, rec, tag in _recordings(input_path):
        recs.append(rec)
        tags.append(tag)
    result = build_dataset(recs, pipe, tags=tags)
    if not result.windows:
        raise DataError(f"{input_path}: no kept windows")
    out_path = run_dir / DATASET_FILE
    save_dataset(result.windows, out_path)
    dropped = result.n_candidates - len(result.windows)
    summary = {"windows": len(result.windows), "candidates": result.n_candidates,
               "dropped_by_energy_filter": dropped}
    (run_dir / "preprocess.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"kept {len(result.windows)}/{result.n_candidates} windows "
          f"({dropped} dropped); dataset at {out_path}")
    return 0


def _train_plan(cfg, plan_factory, seed: int, mask_ratio: float | None = None):
    """``[train]``'s keys laid over the defaults of ``plan_factory`` (a
    ``trainer.*_plan`` function). The model sets ``mask_ratio`` and the
    experiment the seed, so the section may set neither.
    """
    values = section(cfg, "train")
    for key, owner in (("mask_ratio", "the model"), ("seed", "the experiment")):
        if key in values:
            raise ConfigError(f"[train] cannot set {key!r}: {owner} sets it")
    values["seed"] = str(derive_seed(seed, "trainer"))
    plan = build_from_section(TrainPlan, values, plan_factory)
    return plan if mask_ratio is None else dataclasses.replace(plan, mask_ratio=mask_ratio)


def _fresh_model(model_cfg: ModelConfig, seed: int):
    """An untrained model, its weights drawn from the experiment's seed."""
    return mae_model.build_model(model_cfg, seed=derive_seed(seed, "mae_model"))


def cmd_pretrain(args, cfg, run_dir: Path) -> int:
    model_cfg = build_from_section(ModelConfig, section(cfg, "model"))
    plan = _train_plan(cfg, trainer.pretrain_plan, args.seed, mask_ratio=model_cfg.mask_ratio)
    (data_path,) = paths_of(cfg, "dataset")
    windows = _load_dataset(data_path)
    model = _fresh_model(model_cfg, args.seed)
    log = trainer.pretrain(model, windows, plan)
    _save_training_outputs(model, log, run_dir, plan, cfg_note="pretrain")
    return 0


def _save_training_outputs(model, log, run_dir: Path, plan, cfg_note: str) -> None:
    ckpt = run_dir / "checkpoint.ckpt"
    provenance = config_hash({"plan": plan, "note": cfg_note})
    mae_model.save_model(model, ckpt, provenance=provenance)
    log.write_csv(run_dir / "trainlog.csv")
    print(f"{cfg_note}: final loss {log.final_loss:.6g}; checkpoint at {ckpt}")


def cmd_finetune_ad(args, cfg, run_dir: Path) -> int:
    (data_path, ckpt_in) = paths_of(cfg, "dataset", "checkpoint")
    model = mae_model.load_model(ckpt_in)
    windows = _load_dataset(data_path)
    plan = _train_plan(cfg, trainer.finetune_ad_plan, args.seed,
                      mask_ratio=model.config.mask_ratio)
    log = trainer.finetune_ad(model, windows, plan)
    _save_training_outputs(model, log, run_dir, plan, cfg_note="finetune-ad")
    return 0


def cmd_finetune_tle(args, cfg, run_dir: Path) -> int:
    """Fine-tune the checkpoint's encoder or, without ``[paths] checkpoint``,
    a fresh ``[model]`` that starts where ``pretrain`` starts. With ``[paths]
    teacher``, distil that model's predictions into it, weighed by ``[kd]``."""
    (data_path,) = paths_of(cfg, "dataset")
    plan = _train_plan(cfg, trainer.finetune_tle_plan, args.seed)
    paths = section(cfg, "paths")
    kd = build_from_section(KDConfig, section(cfg, "kd")) if "teacher" in paths else None
    if "checkpoint" in paths:
        model = mae_model.load_model(paths["checkpoint"])
    elif cfg.has_section("model"):
        model = _fresh_model(build_from_section(ModelConfig, section(cfg, "model")), args.seed)
    else:
        raise ConfigError("finetune-tle needs [paths] checkpoint or a [model] section")
    teacher = None if kd is None else mae_model.load_model(paths["teacher"])
    windows = _load_dataset(data_path)
    student = mae_model.attach_regression_head(model, seed=derive_seed(args.seed, "reg_head"))
    if teacher is None:
        log, note = trainer.finetune_tle(student, windows, plan), "finetune-tle"
    else:
        log, note = trainer.finetune_kd(student, teacher, windows, plan, kd), "distill"
    _save_training_outputs(student, log, run_dir, plan, cfg_note=note)
    return 0


def cmd_eval_ad(args, cfg, run_dir: Path) -> int:
    (train_path, calib_path, test_path, ckpt) = paths_of(
        cfg, "train_dataset", "calibration_dataset", "test_dataset", "checkpoint")
    thr_cfg = build_from_section(ThresholdConfig, section(cfg, "threshold"))
    model = mae_model.load_model(ckpt)
    eval_seed = derive_seed(args.seed, "eval_ad")
    train_windows, calib_windows = (_load_dataset(path) for path in (train_path, calib_path))
    require_normal([w.tag for w in train_windows], f"threshold calibration on {train_path}")
    require_normal([w.tag for w in calib_windows], f"threshold calibration on {calib_path}")
    train_err = mae_model.reconstruction_errors(model, train_windows, base_seed=eval_seed)
    calib_err = mae_model.reconstruction_errors(model, calib_windows, base_seed=eval_seed)
    del train_windows, calib_windows   # not held while the test set is scored
    test_windows = _load_dataset(test_path)
    truth = _test_truth([w.tag for w in test_windows], test_path)
    test_err = mae_model.reconstruction_errors(model, test_windows, base_seed=eval_seed)
    threshold = _detection_report(run_dir, thr_cfg, "mae", train_err, calib_err, test_err,
                                  truth)
    write_decisions_csv(run_dir / "decisions.csv", test_err, threshold, 15,
                        truth, [w.start_index for w in test_windows])
    return 0


def _test_truth(tags, source) -> np.ndarray:
    """Whether each test window is anomalous. A window without a tag, or a
    test set without both tags, is a DataError: one class alone leaves
    sensitivity or specificity undefined."""
    for i, tag in enumerate(tags):
        if tag is None:
            raise DataError(f"{source}: test window {i} has no {TAG_NORMAL}/{TAG_ANOMALY} tag")
    for tag in (TAG_NORMAL, TAG_ANOMALY):
        if tag not in tags:
            raise DataError(f"{source}: the test set holds no window tagged {tag!r}")
    return np.array([tag == TAG_ANOMALY for tag in tags])


def _detection_report(run_dir: Path, thr_cfg: ThresholdConfig, model_id: str,
                      train_err, calib_err, test_err, truth) -> float:
    """Calibrate on the training and calibration errors, score the test errors
    at every filter length, write ``report.csv``, print it, return the threshold."""
    threshold = calibrate_threshold(train_err, calib_err, thr_cfg)
    per_filter = evaluation.evaluate_anomaly_detection(test_err, truth, threshold)
    report = evaluation.MetricsReport(task_id="ad_synth", model_id=model_id,
                                      n_samples=len(test_err), ad_by_filter=per_filter)
    evaluation.write_report_csv(run_dir / "report.csv", [report])
    print(f"{model_id} threshold {threshold:.6g}")
    for L, m in sorted(per_filter.items()):
        print(f"{model_id} L={L:<4d} accuracy {m.accuracy:.4f}  "
              f"sensitivity {m.sensitivity:.4f}  specificity {m.specificity:.4f}")
    return threshold


def cmd_eval_tle(args, cfg, run_dir: Path) -> int:
    (test_path, ckpt) = paths_of(cfg, "test_dataset", "checkpoint")
    model = mae_model.load_model(ckpt)
    windows = _load_dataset(test_path)
    y_true = targets_of(windows)
    y_pred = mae_model.regress_predictions(model, windows)
    _regression_report(run_dir, "mae", y_true, y_pred)
    return 0


def _regression_report(run_dir: Path, model_id: str, y_true, y_pred) -> None:
    """Write a TLE model's ``predictions.csv`` and ``report.csv``; print the table."""
    report = evaluation.regression_metrics(y_pred, y_true)
    report.task_id, report.model_id = "tle_synth", model_id
    evaluation.write_predictions_csv(run_dir / "predictions.csv", y_true, y_pred)
    evaluation.write_report_csv(run_dir / "report.csv", [report])
    print(evaluation.format_report_table([report]))


def _window_rows(path: Path, pipe: PipelineConfig, features: bool = False):
    """One row per time window ``preprocess`` keeps from the recordings at
    ``path``, stacked in the order it keeps them, the tag of each window and
    the traffic targets: the normalized values (for PCA), or the statistical
    features (for the TLE baselines), whose recordings must be labelled."""
    rows, tags, targets = [], [], []
    for name, rec, tag in _recordings(path):
        if features and rec.labels is None:
            raise DataError(f"{path}: {name} has no labels; cannot build targets")
        _, kept, rec_targets = kept_windows(rec, pipe)
        rows.extend(baselines.extract_features(w.values) if features else normalize(w).values
                    for w in kept)
        tags.extend([tag] * len(kept))
        targets.extend(rec_targets or ())
    if not rows:
        raise DataError(f"{path}: no kept windows")
    return np.stack(rows), tags, np.asarray(targets)


def cmd_baseline(args, cfg, run_dir: Path) -> int:
    opts = options(section(cfg, "baseline"), BASELINE_OPTIONS, "[baseline]")
    mode, cf, k = opts["mode"], opts["cf"], opts["k"]
    if mode not in ("pca-ad", "knn-tle", "linreg-tle"):
        raise ConfigError(f"unknown baseline mode {mode!r}")
    if cf < 1 or k < 1:
        raise ConfigError(f"[baseline] cf and k must be >= 1, got cf = {cf}, k = {k}")
    pipe = build_from_section(PipelineConfig, section(cfg, "pipeline"))
    if mode == "pca-ad":
        (train_m, calib_m, test_m) = paths_of(
            cfg, "train_manifest", "calibration_manifest", "test_manifest")
        thr_cfg = build_from_section(ThresholdConfig, section(cfg, "threshold"))
        train, train_tags, _ = _window_rows(train_m, pipe)
        require_normal(train_tags, f"threshold calibration on {train_m}")
        calib, calib_tags, _ = _window_rows(calib_m, pipe)
        require_normal(calib_tags, f"threshold calibration on {calib_m}")
        test, test_tags, _ = _window_rows(test_m, pipe)
        truth = _test_truth(test_tags, test_m)
        model = baselines.pca_fit(train, cf=cf)
        test_err = baselines.pca_errors(model, test)
        _detection_report(run_dir, thr_cfg, f"pca_cf{cf}", baselines.pca_errors(model, train),
                          baselines.pca_errors(model, calib), test_err, truth)
        return 0
    (train_m, test_m) = paths_of(cfg, "train_manifest", "test_manifest")
    x_train, _, y_train = _window_rows(train_m, pipe, features=True)
    x_test, _, y_test = _window_rows(test_m, pipe, features=True)
    if mode == "knn-tle":
        y_pred = np.array([baselines.knn_predict(x_train, y_train, q, k=k) for q in x_test])
        model_id = f"knn_k{k}"
    else:
        lin = baselines.linreg_fit(x_train, y_train)
        y_pred = baselines.linreg_predict(lin, x_test)
        model_id = "linreg"
    _regression_report(run_dir, model_id, y_test, y_pred)
    return 0


def cmd_describe(args) -> int:
    path = Path(args.checkpoint)
    model = mae_model.load_model(path)
    cfg_m = model.config
    print(f"checkpoint        {path}")
    print(f"embedding dims    encoder {cfg_m.e_dim}, decoder {cfg_m.d_dim}")
    print(f"blocks/heads      {mae_model.N_BLOCKS} blocks; {cfg_m.e_heads}/{cfg_m.d_heads} heads")
    print(f"patch/mask        {mae_model.PATCH_SIZE}px patches, mask ratio {cfg_m.mask_ratio}")
    print(f"decoder present   {model.has_decoder}")
    print(f"regression head   {model.has_reg_head}")
    print(f"trainable params  {model.n_params()}")
    print(f"file size         {path.stat().st_size} bytes "
          f"({path.stat().st_size / 1e6:.3f} MB)")
    print(f"provenance        {model.provenance!r}")
    return 0


COMMANDS = {
    "synth-gen": (cmd_synth_gen, True),
    "preprocess": (cmd_preprocess, True),
    "pretrain": (cmd_pretrain, True),
    "finetune-ad": (cmd_finetune_ad, True),
    "finetune-tle": (cmd_finetune_tle, True),
    "eval-ad": (cmd_eval_ad, True),
    "eval-tle": (cmd_eval_tle, True),
    "baseline": (cmd_baseline, True),
    "describe": (cmd_describe, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shm-fomo",
        description="Masked-autoencoder pipeline for vibration-based "
                    "structural health monitoring.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in COMMANDS.items():
        p = sub.add_parser(name)
        if name == "describe":
            p.add_argument("checkpoint", help="checkpoint file to inspect")
        if needs_config:
            p.add_argument("--config", required=True, help="INI config file")
            p.add_argument("--out", default="runs", help="output root (default ./runs)")
    return parser


def run(argv) -> int:
    """Parse ``argv``, read the config once and run the subcommand. Handlers
    find ``[experiment] seed`` in ``args.seed``; ``describe`` reads no
    config and gets ``args`` alone. A run that raises removes its run
    directory and re-raises; one that returns non-zero keeps it."""
    args = build_parser().parse_args(argv)
    handler, needs_config = COMMANDS[args.command]
    if not needs_config:
        return handler(args)
    cfg, cfg_text = load_config(args.config)
    args.seed = options(section(cfg, "experiment"), EXPERIMENT_OPTIONS, "[experiment]")["seed"]
    cfg_sha = config_hash({s: dict(cfg[s]) for s in cfg.sections()})
    run_dir = make_run_dir(Path(args.out), args.command, cfg_sha)
    try:
        write_run_info(run_dir, args.command, args.config, cfg_text, cfg_sha, args.seed)
        return handler(args, cfg, run_dir)
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 3
    except (OSError, FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = 4
    except ShmFomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
