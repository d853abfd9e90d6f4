"""A fixed, seeded run of every CLI stage on synthetic data, recorded so that
two trees can be compared file by file.

    PYTHONPATH=src python tools/recipe.py OUT_DIR [--tiny]
    PYTHONPATH=src python tools/recipe.py --compare A.json B.json

The recipe calls ``shm_fomo.cli.run`` in this process, on whichever
``shm_fomo`` the import path finds, so ``PYTHONPATH=<tree>/src`` runs this
script against another checkout. Every seed sits in a config's
``[experiment]`` section, and the inputs pass the CLI's rules: normal-only
training and calibration sets and a two-class test set. Pretraining's last
batch holds a number of windows that is not a multiple of 8. The stages,
each one CLI run:

- ``synth-gen`` of normal, damaged and traffic recordings, and
  ``preprocess`` of the six manifests built from them;
- AD: ``pretrain`` (48/32), ``finetune-ad``, ``eval-ad`` and
  ``baseline-pca-ad``;
- TLE: ``finetune-tle`` and ``eval-tle`` of the pretrained model, and
  ``pretrain-student`` (24/16), ``distill`` (``finetune-tle`` of the
  student with the fine-tuned model as its teacher) and ``eval-tle-student``;
- the pretraining ablation at 24/16, in three regimes: ``no_pretrain``
  fine-tunes a fresh model, ``pretrain_uc`` and ``pretrain_all`` fine-tune
  ``pretrain-uc`` (the TLE training set) and ``pretrain-all`` (that set
  pooled with a normal recording). Each regime runs ``finetune-tle-<regime>``
  and ``eval-tle-<regime>``; all three draw the same initial weights and head;
- ``baseline-knn-tle`` and ``baseline-linreg-tle``.

The default run took 34.9 s on 2 vCPUs at one OpenBLAS thread; ``--tiny``
runs the same stages on shorter recordings for one epoch each.

OUT_DIR gets one directory per stage, the input manifests, and
``recipe.json``:

- ``artifacts``: the sha256 of every file a stage wrote, keyed
  ``<stage>/<file>``. ``trainlog.csv`` is hashed without its ``seconds``
  column; ``run.json`` and ``config.ini``, which name paths, are left out.
- ``reports``: the rows of each stage's ``report.csv``.
- ``seconds``: each stage's wall time.
- ``blas``: numpy's BLAS library, its version and the thread count in force
  (null where the library has no call that reports it).
- ``package``: the directory of the ``shm_fomo`` that ran.

``--compare`` prints the files that differ and the report values that moved,
and exits 1 when any file differs. A seeded run gives one set of bytes per
BLAS thread count, so it warns when the two records ran at different counts;
run both at ``OPENBLAS_NUM_THREADS=1`` to compare like with like.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from shm_fomo import cli
from shm_fomo.io_formats import save_manifest

RECORD = "recipe.json"
AD_PIPELINE = "[pipeline]\nwindow_s = 5\nstride_s = 2\nenergy_threshold = 1e-8\n"
TLE_PIPELINE = "[pipeline]\nwindow_s = 20\nstride_s = 4\nenergy_threshold = 1e-9\n"
# recording lengths in seconds, batch size and epochs per training stage; at
# 100 Hz a 210-s (33-s) AD recording gives 103 (15) windows, so each AD epoch
# at batch 16 (8) ends on a batch of 7, a size whose weight gradients have
# differed between 1 and 2 OpenBLAS threads
SIZES = {
    "default": {"ad_s": 210, "traffic_s": 240, "batch": 16, "pretrain": 30,
                "finetune_ad": 15, "finetune_tle": 30, "ablation": 8},
    "tiny": {"ad_s": 33, "traffic_s": 60, "batch": 8, "pretrain": 1,
             "finetune_ad": 1, "finetune_tle": 1, "ablation": 1},
}
SEED = "[experiment]\nseed = {}\n"


def paths(**keys) -> str:
    return "[paths]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())


def plan(epochs: int, batch: int, pretraining: bool = False) -> str:
    """A plan section; pretraining also sets lr 1e-3 and one warm-up epoch,
    since the phase's defaults warm up for 100."""
    text = f"[train]\nepochs = {epochs}\nbatch_size = {batch}\n"
    return text + ("base_lr = 1e-3\nwarmup_epochs = 1\n" if pretraining else "")


class Recipe:
    """Runs stages into ``out``, each in its own output root, and records
    their times."""

    def __init__(self, out: Path):
        self.out = out
        self.seconds: dict[str, float] = {}

    def run(self, stage: str, command: str, config: str) -> Path:
        """The run directory of ``command`` run on ``config`` as ``stage``."""
        cfg = self.out / "configs" / f"{stage}.ini"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(config)
        print(f"== {stage}", flush=True)
        start = time.perf_counter()
        code = cli.run([command, "--config", str(cfg), "--out", str(self.out / stage)])
        self.seconds[stage] = round(time.perf_counter() - start, 3)
        if code != 0:
            raise SystemExit(f"recipe: stage {stage} exited {code}")
        (run_dir,) = (self.out / stage).iterdir()
        return run_dir

    def manifest(self, name: str, entries: list[tuple[Path, str]]) -> Path:
        """A manifest of (recording, state) entries, by absolute path."""
        path = self.out / "inputs" / name / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        save_manifest(path, [{"file": str(rec), "state": state} for rec, state in entries])
        return path


def run_recipe(out: Path, s: dict) -> dict:
    """Every stage, run into ``out`` at the sizes ``s`` (one of SIZES); each
    stage's seconds."""
    r = Recipe(out)
    synth = "[synth]\nstate = {}\nduration_s = {}\ncount = {}\n"
    normal = r.run("synth-gen-normal", "synth-gen",
                   SEED.format(1) + synth.format("normal", s["ad_s"], 3))
    damaged = r.run("synth-gen-damaged", "synth-gen",
                    SEED.format(2) + synth.format("damaged", s["ad_s"], 1))
    traffic = r.run("synth-gen-traffic", "synth-gen",
                    SEED.format(3) + synth.format("traffic", s["traffic_s"], 2))
    manifests = {
        "ad-train": r.manifest("ad-train", [(normal / "rec_normal_000.bin", "normal")]),
        "ad-calib": r.manifest("ad-calib", [(normal / "rec_normal_001.bin", "normal")]),
        "ad-test": r.manifest("ad-test", [(normal / "rec_normal_002.bin", "normal"),
                                          (damaged / "rec_damaged_000.bin", "damaged")]),
        "tle-train": r.manifest("tle-train", [(traffic / "rec_traffic_000.bin", "traffic")]),
        "tle-test": r.manifest("tle-test", [(traffic / "rec_traffic_001.bin", "traffic")]),
        "tle-pool": r.manifest("tle-pool", [(traffic / "rec_traffic_000.bin", "traffic"),
                                            (normal / "rec_normal_000.bin", "normal")]),
    }
    data = {}
    for name, manifest in manifests.items():
        pipeline = AD_PIPELINE if name.startswith("ad-") else TLE_PIPELINE
        run_dir = r.run(f"preprocess-{name}", "preprocess",
                        SEED.format(7) + pipeline + paths(input=manifest.parent))
        data[name] = run_dir / cli.DATASET_FILE

    seed, batch = SEED.format(7), s["batch"]
    big = "[model]\ne_dim = 48\nd_dim = 32\n"
    small = "[model]\ne_dim = 24\nd_dim = 16\n"
    pretrained = r.run("pretrain", "pretrain",
                       seed + big + plan(s["pretrain"], batch, pretraining=True)
                       + paths(dataset=data["ad-train"])) / "checkpoint.ckpt"
    detector = r.run("finetune-ad", "finetune-ad", seed + plan(s["finetune_ad"], batch)
                     + paths(dataset=data["ad-train"], checkpoint=pretrained)
                     ) / "checkpoint.ckpt"
    r.run("eval-ad", "eval-ad", seed + paths(
        train_dataset=data["ad-train"], calibration_dataset=data["ad-calib"],
        test_dataset=data["ad-test"], checkpoint=detector))
    r.run("baseline-pca-ad", "baseline", seed + "[baseline]\nmode = pca-ad\ncf = 32\n"
          + AD_PIPELINE + paths(train_manifest=manifests["ad-train"],
                                calibration_manifest=manifests["ad-calib"],
                                test_manifest=manifests["ad-test"]))
    teacher = r.run("finetune-tle", "finetune-tle", seed + plan(s["finetune_tle"], 8)
                    + paths(dataset=data["tle-train"], checkpoint=pretrained)
                    ) / "checkpoint.ckpt"
    r.run("eval-tle", "eval-tle", seed + paths(test_dataset=data["tle-test"],
                                               checkpoint=teacher))
    student_base = r.run("pretrain-student", "pretrain",
                         seed + small + plan(s["pretrain"], batch, pretraining=True)
                         + paths(dataset=data["tle-train"])) / "checkpoint.ckpt"
    student = r.run("distill", "finetune-tle", seed + plan(s["finetune_tle"], 8)
                    + "[kd]\nalpha_kd = 0.5\n"
                    + paths(dataset=data["tle-train"], checkpoint=student_base,
                            teacher=teacher)) / "checkpoint.ckpt"
    r.run("eval-tle-student", "eval-tle", seed + paths(test_dataset=data["tle-test"],
                                                       checkpoint=student))
    # the ablation: one fresh start and two pretrained ones, which share their
    # initial weights and head seed and differ only in the pretraining pool
    starts = {"no_pretrain": {}}
    for regime, pool in (("pretrain_uc", "tle-train"), ("pretrain_all", "tle-pool")):
        stage = "pretrain-" + regime.removeprefix("pretrain_")
        starts[regime] = {"checkpoint": r.run(
            stage, "pretrain", seed + small + plan(s["ablation"], batch, pretraining=True)
            + paths(dataset=data[pool])) / "checkpoint.ckpt"}
    for regime, start in starts.items():
        model = r.run(f"finetune-tle-{regime}", "finetune-tle",
                      seed + small + plan(s["ablation"], 8)
                      + paths(dataset=data["tle-train"], **start)) / "checkpoint.ckpt"
        r.run(f"eval-tle-{regime}", "eval-tle",
              seed + paths(test_dataset=data["tle-test"], checkpoint=model))
    for mode in ("knn-tle", "linreg-tle"):
        r.run(f"baseline-{mode}", "baseline", seed + f"[baseline]\nmode = {mode}\n"
              + TLE_PIPELINE + paths(train_manifest=manifests["tle-train"],
                                     test_manifest=manifests["tle-test"]))
    return r.seconds


def artifact_hash(path: Path) -> str:
    """sha256 of the file; of a trainlog, without its ``seconds`` column."""
    if path.name != "trainlog.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    kept = "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())
    return hashlib.sha256(kept.encode()).hexdigest()


def read_report(path: Path) -> list[dict]:
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def record(out: Path, seconds: dict) -> dict:
    artifacts, reports = {}, {}
    for stage in seconds:
        (run_dir,) = (out / stage).iterdir()
        for path in sorted(run_dir.iterdir()):
            if path.name not in ("run.json", "config.ini"):
                artifacts[f"{stage}/{path.name}"] = artifact_hash(path)
        if (run_dir / "report.csv").exists():
            reports[stage] = read_report(run_dir / "report.csv")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"artifacts": artifacts, "reports": reports, "seconds": seconds,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": cli.blas_threads()},
            "package": str(Path(cli.__file__).parent)}


def quality_deltas(a: dict, b: dict) -> list[str]:
    """One line per ``report.csv`` cell that differs between the reports
    ``a`` and ``b``, rows matched by stage, model and filter length."""
    lines = []
    for stage in sorted(set(a) | set(b)):
        rows_a, rows_b = ({(r["model_id"], r["filter_len"]): r for r in report.get(stage, [])}
                          for report in (a, b))
        for key in sorted(set(rows_a) | set(rows_b)):
            where = f"{stage} {key[0]} L={key[1] or '-'}"
            if key not in rows_a or key not in rows_b:
                lines.append(f"{where}: only in {'A' if key in rows_a else 'B'}")
                continue
            for column, va in rows_a[key].items():
                vb = rows_b[key][column]
                if va != vb:
                    try:
                        delta = f" ({float(vb) - float(va):+.4g})"
                    except ValueError:
                        delta = ""
                    lines.append(f"{where} {column}: {va} -> {vb}{delta}")
    return lines


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for name, rec, path in (("A", a, path_a), ("B", b, path_b)):
        blas = rec["blas"]
        print(f"{name}: {path} ({blas['name']} {blas['version']}, "
              f"BLAS threads {blas['threads']}, {sum(rec['seconds'].values()):.1f} s)")
    if a["blas"]["threads"] != b["blas"]["threads"]:
        print(f"warning: the records ran at {a['blas']['threads']} and "
              f"{b['blas']['threads']} BLAS threads; their bytes need not agree",
              file=sys.stderr)
    arts_a, arts_b = a["artifacts"], b["artifacts"]
    differ = sorted(k for k in set(arts_a) & set(arts_b) if arts_a[k] != arts_b[k])
    only_a, only_b = sorted(set(arts_a) - set(arts_b)), sorted(set(arts_b) - set(arts_a))
    print(f"files: {len(set(arts_a) | set(arts_b))} compared, {len(differ)} differ, "
          f"{len(only_a)} only in A, {len(only_b)} only in B")
    for label, keys in (("differs", differ), ("only in A", only_a), ("only in B", only_b)):
        for key in keys:
            print(f"  {label}: {key}")
    deltas = quality_deltas(a["reports"], b["reports"])
    print(f"quality deltas: {len(deltas) or 'none'}")
    for line in deltas:
        print(f"  {line}")
    return 1 if differ or only_a or only_b else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to run the recipe in")
    parser.add_argument("--tiny", action="store_true", help="short recordings, one epoch")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two recipe.json records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT_DIR, or --compare A B")
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    seconds = run_recipe(out, SIZES["tiny" if args.tiny else "default"])
    rec = record(out, seconds)
    (out / RECORD).write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / RECORD}: {len(rec['artifacts'])} artifacts, "
          f"{sum(seconds.values()):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
