"""Command-line entry point tying the pipeline stages together.

Each subcommand reads an INI-style config whose sections mirror the library's
dataclasses, runs one stage, and writes its artifacts plus the resolved
config, seeds, and hashes into a fresh per-run directory so results can be
reproduced exactly.

Sections and the keys they take (every value is typed like its default; an
unknown key or a value of the wrong type is a config error):

- ``[experiment]``: ``seed`` (default 0; ``--seed`` overrides it).
- ``[synth]``: ``kind`` (ambient | traffic), ``duration_s``, ``damaged``,
  ``count``, plus the fields of ``synth_bench.BridgeConfig``.
- ``[traffic]``: ``synth_bench.TrafficConfig``.
- ``[pipeline]``: ``signal_pipeline.PipelineConfig``.
- ``[model]``: ``mae_model.ModelConfig``: ``e_dim`` and ``d_dim``, a pair of
  ``mae_model.SIZE_FAMILY``, and ``mask_ratio``, which alone sets the ratio
  pretraining masks at; ``finetune-ad`` takes it from the checkpoint.
- ``[train]``, and the ablation's ``[finetune]``: ``trainer.TrainPlan``
  without ``mask_ratio``, laid over the defaults of the subcommand's phase.
  The model sets the mask ratio.
- ``[kd]``: ``alpha_kd`` (``trainer.KDConfig``), in [0, 1].
- ``[threshold]``: ``step_fraction`` (``anomaly_head.ThresholdConfig``).
- ``[baseline]``: ``mode`` (pca-ad | knn-tle | linreg-tle), ``cf`` and ``k``
  (each >= 1), all checked before any recording is read.
- ``[paths]``: the input, dataset and checkpoint paths each subcommand names.

A section outside this list is a config error; a listed section that the
subcommand does not read is ignored, so one file can serve several
subcommands. A dataset is one file: ``preprocess`` writes
``<run>/dataset.shmd``, and the ``*dataset`` paths name such a file.

Exit codes: 0 success, 2 usage error, 3 malformed config, 4 one ``input
error:`` line for any ``OSError`` or ``FormatError``: an input file (checkpoint,
dataset, manifest, recording) that is missing, a directory or malformed, and
an ``OSError`` while writing the run directory. Inputs get no pre-checks.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, baselines, evaluation, mae_model, synth_bench, trainer
from .anomaly_head import ThresholdConfig, calibrate_threshold, write_decisions_csv
from .errors import ConfigError, DataError, FormatError, ShmFomoError
from .io_formats import (config_hash, load_dataset, load_manifest, load_recording,
                         save_dataset, save_manifest, save_recording_binary)
from .mae_model import ModelConfig
from .signal_pipeline import (TAG_ANOMALY, TAG_NORMAL, PipelineConfig,
                              build_dataset, kept_windows, normalize)
from .synth_bench import BridgeConfig, TrafficConfig
from .trainer import KDConfig, TrainPlan

ENV_OUT = "SHM_FOMO_OUT"
DATASET_FILE = "dataset.shmd"
SECTIONS = ("experiment", "synth", "traffic", "pipeline", "model", "train", "finetune",
            "kd", "threshold", "baseline", "paths")

# keys of the sections that configure the CLI itself, with their defaults
EXPERIMENT_OPTIONS = {"seed": 0}
SYNTH_OPTIONS = {"kind": "ambient", "duration_s": 600.0, "damaged": False, "count": 1}
BASELINE_OPTIONS = {"mode": "pca-ad", "cf": 32, "k": 7}


def derive_seed(global_seed: int, module_name: str) -> int:
    """Module seed = stable hash of (global seed, module name)."""
    digest = hashlib.sha256(f"{global_seed}:{module_name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> configparser.ConfigParser:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    unknown = [name for name in parser.sections() if name not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section(s) {unknown} in {path}; "
                          f"known: {', '.join(SECTIONS)}")
    return parser


def _coerce(raw: str, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
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
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"{command}-{stamp}-{cfg_hash[:8]}"
    run_dir = base
    k = 1
    while run_dir.exists():
        run_dir = Path(f"{base}-{k}")
        k += 1
    run_dir.mkdir(parents=True)
    return run_dir


def write_run_info(run_dir: Path, command: str, cfg_path, cfg_sha: str,
                   seed: int) -> None:
    info = {
        "command": command,
        "config": str(cfg_path),
        "config_sha": cfg_sha,
        "seed": seed,
        "version": __version__,
    }
    (run_dir / "run.json").write_text(json.dumps(info, indent=2) + "\n")
    (run_dir / "config.ini").write_text(Path(cfg_path).read_text())


def _global_seed(args, cfg) -> int:
    exp = options(section(cfg, "experiment"), EXPERIMENT_OPTIONS, "[experiment]")
    return exp["seed"] if args.seed is None else args.seed


def _manifest_recordings(manifest_path: Path, states=None):
    """(entry, recording) per manifest entry; with ``states``, others go unread."""
    for entry in load_manifest(manifest_path):
        if states is None or entry.get("state") in states:
            yield entry, load_recording(manifest_path.parent / entry["file"])


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
    kind, duration, damaged, count = (opts["kind"], opts["duration_s"],
                                      opts["damaged"], opts["count"])
    if kind not in ("ambient", "traffic"):
        raise ConfigError(f"unknown synth kind {kind!r}")
    if count < 1:
        raise ConfigError(f"[synth] count must be >= 1, got {count}")
    bridge = build_from_section(BridgeConfig, synth)
    if kind == "traffic":
        traffic = build_from_section(TrafficConfig, section(cfg, "traffic"))
    entries = []
    for i in range(count):
        rec_seed = seed + i
        if kind == "ambient":
            rec = synth_bench.gen_ambient(bridge, duration, damaged=damaged,
                                          seed=rec_seed)
            state = "damaged" if damaged else "normal"
        else:
            rec = synth_bench.gen_traffic(bridge, traffic, duration, seed=rec_seed)
            state = "traffic"
        name = f"rec_{state}_{i:03d}.bin"
        save_recording_binary(rec, run_dir / name)
        entries.append({"file": name, "state": state, "seed": rec_seed,
                        "config_hash": config_hash(bridge)})
    save_manifest(run_dir / "manifest.json", entries)
    print(f"wrote {count} recording(s) + manifest to {run_dir}")
    return 0


_STATE_TO_TAG = {"normal": TAG_NORMAL, "damaged": TAG_ANOMALY, "traffic": None}


def cmd_preprocess(args, cfg, run_dir: Path) -> int:
    pipe = build_from_section(PipelineConfig, section(cfg, "pipeline"))
    (input_path,) = paths_of(cfg, "input")
    if input_path.is_dir():
        input_path = input_path / "manifest.json"
    recs, tags = [], []
    if input_path.suffix == ".json":
        for entry, rec in _manifest_recordings(input_path):
            recs.append(rec)
            tags.append(_STATE_TO_TAG.get(entry.get("state")))
    else:
        recs.append(load_recording(input_path))
        tags.append(None)
    result = build_dataset(recs, pipe, tags=tags)
    out_path = run_dir / DATASET_FILE
    save_dataset(result.windows, out_path)
    dropped = result.n_candidates - len(result.windows)
    summary = {"windows": len(result.windows), "candidates": result.n_candidates,
               "dropped_by_energy_filter": dropped}
    (run_dir / "preprocess.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"kept {len(result.windows)}/{result.n_candidates} windows "
          f"({dropped} dropped); dataset at {out_path}")
    return 0


def _train_plan(cfg, plan_factory, seed: int, name: str = "train",
                mask_ratio: float | None = None):
    """Section ``name``'s keys laid over the defaults of ``plan_factory``
    (a ``trainer.*_plan`` function).

    A masking phase takes ``mask_ratio`` from its model, so the section may
    not set it.
    """
    values = section(cfg, name)
    if "mask_ratio" in values:
        raise ConfigError(f"[{name}] cannot set 'mask_ratio': the model sets it")
    values.setdefault("seed", str(derive_seed(seed, "trainer")))
    plan = build_from_section(TrainPlan, values, plan_factory)
    return plan if mask_ratio is None else dataclasses.replace(plan, mask_ratio=mask_ratio)


def cmd_pretrain(args, cfg, run_dir: Path) -> int:
    model_cfg = build_from_section(ModelConfig, section(cfg, "model"))
    plan = _train_plan(cfg, trainer.pretrain_plan, args.seed, mask_ratio=model_cfg.mask_ratio)
    (data_path,) = paths_of(cfg, "dataset")
    windows = _load_dataset(data_path)
    model = mae_model.build_model(model_cfg, seed=derive_seed(args.seed, "mae_model"))
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
    (data_path, ckpt_in) = paths_of(cfg, "dataset", "checkpoint")
    model = mae_model.load_model(ckpt_in)
    windows = _load_dataset(data_path)
    plan = _train_plan(cfg, trainer.finetune_tle_plan, args.seed)
    student = mae_model.attach_regression_head(model, seed=derive_seed(args.seed, "reg_head"))
    log = trainer.finetune_tle(student, windows, plan)
    _save_training_outputs(student, log, run_dir, plan, cfg_note="finetune-tle")
    return 0


def cmd_distill(args, cfg, run_dir: Path) -> int:
    (data_path, ckpt_in, teacher_path) = paths_of(cfg, "dataset", "checkpoint", "teacher")
    plan = _train_plan(cfg, trainer.finetune_tle_plan, args.seed)
    kd = build_from_section(KDConfig, section(cfg, "kd"))
    student_base = mae_model.load_model(ckpt_in)
    teacher = mae_model.load_model(teacher_path)
    windows = _load_dataset(data_path)
    student = mae_model.attach_regression_head(student_base,
                                               seed=derive_seed(args.seed, "reg_head"))
    log = trainer.finetune_kd(student, teacher, windows, plan, kd)
    _save_training_outputs(student, log, run_dir, plan, cfg_note="distill")
    return 0


def cmd_eval_ad(args, cfg, run_dir: Path) -> int:
    (train_path, calib_path, test_path, ckpt) = paths_of(
        cfg, "train_dataset", "calibration_dataset", "test_dataset", "checkpoint")
    thr_cfg = build_from_section(ThresholdConfig, section(cfg, "threshold"))
    model = mae_model.load_model(ckpt)
    eval_seed = derive_seed(args.seed, "eval_ad")
    train_err = mae_model.reconstruction_errors(model, _load_dataset(train_path),
                                                base_seed=eval_seed)
    calib_err = mae_model.reconstruction_errors(model, _load_dataset(calib_path),
                                                base_seed=eval_seed)
    test_windows = _load_dataset(test_path)
    test_err = mae_model.reconstruction_errors(model, test_windows, base_seed=eval_seed)
    truth = np.array([w.tag == TAG_ANOMALY for w in test_windows])
    threshold = _detection_report(run_dir, thr_cfg, "mae", train_err, calib_err, test_err,
                                  truth)
    write_decisions_csv(run_dir / "decisions.csv", test_err, threshold, 15,
                        truth, [w.start_index for w in test_windows])
    return 0


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
    y_true = np.array([w.target for w in windows], dtype=np.float64)
    y_pred = mae_model.regress_predictions(model, [w.image for w in windows])
    _regression_report(run_dir, "mae", y_true, y_pred)
    return 0


def _regression_report(run_dir: Path, model_id: str, y_true, y_pred) -> None:
    """Write a TLE model's ``predictions.csv`` and ``report.csv``; print the table."""
    report = evaluation.regression_metrics(y_pred, y_true)
    report.task_id, report.model_id = "tle_synth", model_id
    evaluation.write_predictions_csv(run_dir / "predictions.csv", y_true, y_pred)
    evaluation.write_report_csv(run_dir / "report.csv", [report])
    print(evaluation.format_report_table([report]))


def cmd_ablation(args, cfg, run_dir: Path) -> int:
    (all_path, task_path, ft_path, test_path) = paths_of(
        cfg, "pretrain_all_dataset", "task_dataset", "finetune_dataset", "test_dataset")
    model_cfg = build_from_section(ModelConfig, section(cfg, "model"))
    pre_plan = _train_plan(cfg, trainer.pretrain_plan, args.seed,
                          mask_ratio=model_cfg.mask_ratio)
    ft_plan = _train_plan(cfg, trainer.finetune_tle_plan, args.seed, name="finetune")
    results = evaluation.ablation_protocol(
        model_cfg, _load_dataset(all_path), _load_dataset(task_path),
        _load_dataset(ft_path), _load_dataset(test_path),
        pre_plan, ft_plan, seed=derive_seed(args.seed, "ablation"))
    reports = []
    for regime, res in results.items():
        if res.error:
            print(f"{regime}: FAILED ({res.error})")
        else:
            reports.append(res.report)
            print(f"{regime}: MAE% {res.report.mae_pct:.2f}  R2 {res.report.r2:.3f}")
    evaluation.write_report_csv(run_dir / "report.csv", reports)
    return 0 if len(reports) == len(results) else 1


def _feature_targets(manifest_path: Path, pipe: PipelineConfig):
    """Per-window statistical features of raw windows, with traffic targets."""
    feats, targets = [], []
    for entry, rec in _manifest_recordings(manifest_path):
        if rec.labels is None:
            raise ConfigError(f"{entry['file']} has no labels; cannot build targets")
        _, kept, rec_targets = kept_windows(rec, pipe)
        feats.extend(baselines.extract_features(w.values) for w in kept)
        targets.extend(rec_targets)
    if not feats:
        raise DataError(f"{manifest_path}: no kept windows")
    return np.stack(feats), np.asarray(targets)


def _raw_normalized_windows(manifest_path: Path, pipe: PipelineConfig, *states):
    """Time-window vectors (normalized, energy-filtered) of the entries of
    ``states``, in manifest order as ``preprocess`` keeps them, and the state
    of each window."""
    vecs, window_states = [], []
    for entry, rec in _manifest_recordings(manifest_path, states):
        _, kept, _ = kept_windows(rec, pipe)
        vecs.extend(normalize(w).values for w in kept)
        window_states.extend([entry["state"]] * len(kept))
    for state in states:
        if state not in window_states:
            raise DataError(f"{manifest_path}: no kept windows of state {state!r}")
    return np.stack(vecs), np.array(window_states)


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
        train, _ = _raw_normalized_windows(train_m, pipe, "normal")
        calib, _ = _raw_normalized_windows(calib_m, pipe, "normal")
        test, test_states = _raw_normalized_windows(test_m, pipe, "normal", "damaged")
        model = baselines.pca_fit(train, cf=cf)
        test_err = baselines.pca_errors(model, test)
        truth = test_states == "damaged"
        _detection_report(run_dir, thr_cfg, f"pca_cf{cf}", baselines.pca_errors(model, train),
                          baselines.pca_errors(model, calib), test_err, truth)
        return 0
    (train_m, test_m) = paths_of(cfg, "train_manifest", "test_manifest")
    x_train, y_train = _feature_targets(train_m, pipe)
    x_test, y_test = _feature_targets(test_m, pipe)
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
    "distill": (cmd_distill, True),
    "eval-ad": (cmd_eval_ad, True),
    "eval-tle": (cmd_eval_tle, True),
    "ablation": (cmd_ablation, True),
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
            p.add_argument("--seed", type=int, default=None, help="global seed override")
            p.add_argument("--out", default=None,
                           help=f"output root (default ${ENV_OUT} or ./runs)")
    return parser


def run(argv) -> int:
    """Parse ``argv``, read the config once and run the subcommand. Handlers
    find the resolved global seed in ``args.seed``; ``describe`` reads no
    config and gets ``args`` alone. A run that raises removes its run
    directory and re-raises; one that returns non-zero keeps it."""
    args = build_parser().parse_args(argv)
    handler, needs_config = COMMANDS[args.command]
    if not needs_config:
        return handler(args)
    cfg = load_config(args.config)
    args.seed = _global_seed(args, cfg)
    cfg_sha = config_hash({s: dict(cfg[s]) for s in cfg.sections()})
    out_root = Path(args.out or os.environ.get(ENV_OUT, "runs"))
    run_dir = make_run_dir(out_root, args.command, cfg_sha)
    try:
        write_run_info(run_dir, args.command, args.config, cfg_sha, args.seed)
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
