"""The benchmark's workloads. ``run.py`` starts this file once per workload,
in a fresh process with the BLAS thread count fixed:

    python3 perfbench/workloads.py --workload finetune --seed 1 --seconds 45 \
        --trace 0 --result perfbench/_work/result.json

A run sets up ``setup_reps`` times (generation, preprocessing, model init and
a warm-up call) and reports the median, then repeats identical rounds of the
timed work until ``--seconds`` have passed and at least ``MIN_ROUNDS`` ran.
Rounds run with Python's cyclic garbage collector paused, after a full
collection. Throughput is the items of all rounds over the seconds of all
rounds. Single-window latency is summarised per round (median and tail) and
reported as the mean over rounds. Both are averages over the whole run: on a
machine whose speed drifts for seconds at a time they follow the share of
time spent slow, where a median over rounds would jump between the fast and
the slow speed. In ``monitor`` the stream is scored in slices between the
stages of the bulk pass, so its latencies sample the whole round. Every round
starts from the same initial model, so its quality figures must repeat bit
for bit. The seed only chooses the synthetic recordings; model, plan and
evaluation seeds are fixed constants.

With ``--trace 1`` the second round and the last set-up run with every listed
``shm_fomo`` function wrapped (see ``layers.py``); the other rounds run
unwrapped and give the tracing overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from shm_fomo import (anomaly_head, baselines, evaluation, io_formats,  # noqa: E402
                      mae_model, signal_pipeline, synth_bench, trainer)

import layers  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

# Fixed seeds of the program under test; only the recordings follow --seed.
MODEL_SEED = 0
HEAD_SEED = 1
PLAN_SEED = 0
EVAL_SEED = 12345

# float32 against float64 agreement: float32 rounding is 6e-8, measured
# disagreement on these models is below 3e-7, so 1e-5 leaves headroom
# without hiding a wrong cast or a changed formula.
F64_RTOL = 1e-5
F64_SAMPLE = 8

SMOOTH_L = 15
UC1 = signal_pipeline.UC1_PIPELINE
UC2 = signal_pipeline.UC2_PIPELINE
BRIDGE = synth_bench.BridgeConfig()
# Dense traffic keeps the held-out span's vehicle count, which dominates the
# regression error of a briefly trained head, steady across seeds.
RUSH_HOUR = synth_bench.TrafficConfig(arrival_rate_light=45.0, arrival_rate_heavy=15.0)
MONITOR_TRAIN_FRAC = 0.25
MONITOR_LR = 1e-2
FT_DIMS = (96, 64)
FT_BATCH = 8
FT_EPOCHS = 2
FT_LR = 2.5e-3
MIN_ROUNDS = 3
MAX_ROUNDS_S = 100.0


@dataclass(frozen=True)
class Sizes:
    setup_reps: int = 3
    # finetune: length of the traffic recording, stride over training windows
    ft_duration_s: float = 2000.0
    ft_train_stride: int = 8
    # monitor: 24/16 detector; window counts per recorded day
    mon_normal: int = 512      # a quarter, 128 windows, trains the detector
    mon_damaged: int = 400
    mon_calib: int = 150
    mon_traffic: int = 150
    mon_stream: int = 250
    mon_epochs: int = 6


FULL = Sizes()
# small enough for the smoke tests; same code paths as FULL
TINY = Sizes(setup_reps=2, ft_duration_s=150.0, ft_train_stride=1, mon_normal=64,
             mon_damaged=24, mon_calib=16, mon_traffic=20, mon_stream=20, mon_epochs=2)


def uc1_duration(n_windows: int) -> float:
    """Seconds of recording that give n_windows 5-s windows at a 2-s stride."""
    return UC1.stride_s * (n_windows - 1) + UC1.window_s


def uc2_duration(n_windows: int) -> float:
    return UC2.stride_s * (n_windows - 1) + UC2.window_s


def input_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1, np.uint64)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def small_model_config() -> mae_model.ModelConfig:
    return mae_model.ModelConfig(e_dim=24, d_dim=16, mask_ratio=0.8)


def phase(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def kept_windows(rec, cfg) -> list:
    return [w for w in signal_pipeline.make_windows(rec, cfg)
            if signal_pipeline.energy_keep(w, cfg.energy_threshold)]


def roc_auc(negatives: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUC; tied scores count one half."""
    scores = np.concatenate([negatives, positives])
    ranks = np.empty(len(scores))
    ranks[np.argsort(scores, kind="stable")] = np.arange(1, len(scores) + 1)
    _, group, size = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.bincount(group, weights=ranks) / size)[group]   # ties share the mean rank
    n0, n1 = len(negatives), len(positives)
    return float((ranks[n0:].sum() - n1 * (n1 + 1) / 2) / (n0 * n1))


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Ledger:
    """Attempted and failed operations: training steps, scored windows,
    predictions and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 50:
            self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def values(self, what: str, values) -> None:
        """One operation per value; a non-finite value is a failed one."""
        values = np.asarray(values, dtype=np.float64)
        self.attempted += values.size
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            self._fail(f"{bad} non-finite {what}", bad)

    def training(self, what: str, log) -> None:
        self.values(f"{what} step losses", log.step_losses)
        self.check(f"{what} final-epoch loss below first-epoch loss",
                   log.final_loss < log.records[0].loss)

    def lost(self, what: str, n: int) -> None:
        """Operations that did not run because an earlier one raised."""
        self.attempted += n
        self._fail(f"{n} operations lost: {what}", n)


@dataclass
class RoundResult:
    wall_s: float
    items: int          # images trained or windows taken through the bulk pass
    items_s: float      # seconds those items took
    latencies_s: list[float]
    quality: dict[str, float]
    details: dict = field(default_factory=dict)


@contextlib.contextmanager
def gc_paused():
    """Full collection first, then no collector pauses inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def score_one_at_a_time(score, items, tracer, name) -> tuple[list, list, float]:
    """Score items one call each; returns values, per-call seconds, total."""
    values, lat = [], []
    t_phase = time.perf_counter()
    with phase(tracer, name):
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            values.append(score(i, item))
            lat.append(time.perf_counter() - t0)
    return values, lat, time.perf_counter() - t_phase


def f64_agreement(ledger: Ledger, what: str, f32_values, f64_values) -> float:
    a = np.asarray(f32_values, dtype=np.float64)
    b = np.asarray(f64_values, dtype=np.float64)
    rel = float(np.max(np.abs(a - b) / np.abs(b)))
    ledger.check(f"{what} float32 within rtol {F64_RTOL} of float64 (worst {rel:.3g})",
                 rel <= F64_RTOL)
    return rel


# ---------------------------------------------------------------------------
# workloads


class Finetune:
    """Traffic-load fine-tuning of the 96/64 encoder with its regression head,
    then held-out predictions one window at a time."""

    timed_phases = ("bench.train", "bench.heldout")
    rate_name = "train_images_per_s"

    def setup(self, seed: int, sizes: Sizes, ledger: Ledger) -> dict:
        (rec_seed,) = input_seeds(seed, 1)
        rec = synth_bench.gen_traffic(BRIDGE, RUSH_HOUR, sizes.ft_duration_s, seed=rec_seed)
        windows = signal_pipeline.build_dataset([rec], UC2).windows
        train_all, test = signal_pipeline.chronological_split(windows, 0.8)
        # neighbouring 60-s windows overlap by 58 s; a stride keeps the whole
        # training span at a fraction of the images. Whole batches only: the
        # epoch loss is a mean over steps, and a one-window last batch would
        # weigh that window's error like eight others.
        train = train_all[::sizes.ft_train_stride]
        train = train[:len(train) - len(train) % FT_BATCH]
        e_dim, d_dim = FT_DIMS
        base = mae_model.build_model(mae_model.ModelConfig(e_dim=e_dim, d_dim=d_dim),
                                     seed=MODEL_SEED)
        model = mae_model.attach_regression_head(base, seed=HEAD_SEED)
        plan = trainer.finetune_tle_plan(epochs=FT_EPOCHS, base_lr=FT_LR,
                                         batch_size=FT_BATCH, seed=PLAN_SEED)
        images = np.stack([w.image for w in train[:plan.batch_size]]).astype(model.dtype)
        yhat, cache = mae_model.regress_forward_batch(model, images)
        mae_model.regress_backward(model, cache, np.ones_like(yhat, dtype=np.float64))
        mae_model.forward_regress(model, test[0].image)
        return {"model": model, "plan": plan, "train": train, "test": test,
                "targets": np.array([w.target for w in test]),
                "fingerprint": fingerprint(*[w.image for w in windows])}

    @staticmethod
    def round_ops(sizes: Sizes) -> int:
        """Training steps, predictions and checks of one round, roughly."""
        windows = int((sizes.ft_duration_s - UC2.window_s) / UC2.stride_s) + 1
        train = -(-int(windows * 0.8) // sizes.ft_train_stride)
        return train // FT_BATCH * FT_EPOCHS + 1 + windows - int(windows * 0.8)

    def round(self, st: dict, ledger: Ledger, tracer: Optional[Tracer]) -> RoundResult:
        st.pop("trained", None)   # the previous round's model goes before this one's
        student = st["model"].copy()
        t0 = time.perf_counter()
        with phase(tracer, "bench.train"):
            log = trainer.finetune_tle(student, st["train"], st["plan"])
        train_s = time.perf_counter() - t0
        ledger.training("finetune", log)
        preds, lat, heldout_s = score_one_at_a_time(
            lambda i, w: mae_model.forward_regress(student, w.image),
            st["test"], tracer, "bench.heldout")
        ledger.values("held-out predictions", preds)
        tle_mae = evaluation.regression_metrics(preds, st["targets"]).mae
        st["trained"] = student
        images = st["plan"].epochs * len(st["train"])
        return RoundResult(
            wall_s=train_s + heldout_s, items=images, items_s=train_s, latencies_s=lat,
            quality={"finetune_loss": log.final_loss,
                     "first_epoch_loss": log.records[0].loss,
                     "tle_mae": tle_mae, "heldout_error": tle_mae})

    def final_checks(self, st: dict, ledger: Ledger) -> dict:
        model = st["trained"]
        m64 = model.astype(np.float64)
        sample = st["test"][:F64_SAMPLE]
        p32 = [mae_model.forward_regress(model, w.image) for w in sample]
        p64 = [mae_model.forward_regress(m64, w.image) for w in sample]
        return {"f64_rel_prediction": f64_agreement(ledger, "TLE predictions", p32, p64)}


@dataclass
class Stream:
    """One pass over the arriving windows, scored a slice at a time."""
    next: int
    errors: list[float] = field(default_factory=list)
    verdicts: list[bool] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)


class Monitor:
    """Anomaly monitoring with a detector pretrained and calibrated in
    set-up: a bulk pass over four recorded days and, in slices between its
    stages, windows scored one at a time as they arrive."""

    timed_phases = ("bench.bulk", "bench.stream")
    rate_name = "bulk_windows_per_s"
    # stages of the bulk generator; one stream slice follows each
    BULK_STAGES = 7

    def setup(self, seed: int, sizes: Sizes, ledger: Ledger) -> dict:
        s_normal, s_damaged, s_calib, s_traffic = input_seeds(seed, 4)
        recs = {
            "normal": synth_bench.gen_ambient(BRIDGE, uc1_duration(sizes.mon_normal),
                                              seed=s_normal),
            "damaged": synth_bench.gen_ambient(BRIDGE, uc1_duration(sizes.mon_damaged),
                                               damaged=True, seed=s_damaged),
            "calibration": synth_bench.gen_ambient(BRIDGE, uc1_duration(sizes.mon_calib),
                                                   seed=s_calib),
            "traffic": synth_bench.gen_traffic(BRIDGE, synth_bench.TrafficConfig(),
                                               uc2_duration(sizes.mon_traffic),
                                               seed=s_traffic),
        }
        normal = signal_pipeline.build_dataset([recs["normal"]], UC1).windows
        calibration = signal_pipeline.build_dataset([recs["calibration"]], UC1).windows
        train, _ = signal_pipeline.chronological_split(normal, MONITOR_TRAIN_FRAC)
        detector = mae_model.build_model(small_model_config(), seed=MODEL_SEED)
        plan = trainer.pretrain_plan(epochs=sizes.mon_epochs, warmup_epochs=0,
                                     base_lr=MONITOR_LR, batch_size=128,
                                     mask_ratio=0.8, seed=PLAN_SEED)
        log = trainer.pretrain(detector, train, plan)
        ledger.training("detector pretrain", log)
        # the stream's verdicts need a threshold before the first window
        threshold = anomaly_head.calibrate_threshold(
            mae_model.reconstruction_errors(detector, train, EVAL_SEED),
            mae_model.reconstruction_errors(detector, calibration, EVAL_SEED))
        regressor = mae_model.attach_regression_head(detector, seed=HEAD_SEED)

        # raw windows in arrival order; index i matches test window i of the
        # bulk pass (normal test part, then the damaged day)
        raw = {name: kept_windows(recs[name], UC1) for name in ("normal", "damaged")}
        n_train = len(train)
        arriving = raw["normal"][n_train:] + raw["damaged"]
        start = max(0, len(raw["normal"]) - n_train - sizes.mon_stream // 2)
        st = {"recs": recs, "detector": detector, "regressor": regressor,
              "threshold": threshold, "n_train": n_train, "arriving": arriving,
              "stream_start": start, "stream_n": min(sizes.mon_stream, len(arriving) - start),
              "detector_loss": log.final_loss,
              "fingerprint": fingerprint(*[w.image for w in normal],
                                         *[p for p in detector.params.values()],
                                         np.float64(threshold))}
        self.stream(st, Stream(start), min(16, st["stream_n"]), tracer=None)
        return st

    @staticmethod
    def round_ops(sizes: Sizes) -> int:
        """Scored windows, predictions and checks of one round, roughly."""
        return (sizes.mon_normal + sizes.mon_damaged + sizes.mon_calib
                + sizes.mon_traffic + sizes.mon_stream + 7)

    def stream(self, st: dict, stream: Stream, count: int,
               tracer: Optional[Tracer]) -> None:
        """The next ``count`` windows one at a time: normalize, spectrogram,
        batch-1 reconstruction error, trailing median, verdict."""
        with phase(tracer, "bench.stream"):
            for i in range(stream.next, stream.next + count):
                t0 = time.perf_counter()
                image = signal_pipeline.spectrogram(
                    signal_pipeline.normalize(st["arriving"][i]))
                stream.errors.append(mae_model.reconstruction_error(
                    st["detector"], image, EVAL_SEED ^ i))
                smoothed = anomaly_head.median_smooth(stream.errors[-SMOOTH_L:], SMOOTH_L)[-1]
                stream.verdicts.append(bool(anomaly_head.classify([smoothed],
                                                                  st["threshold"])[0]))
                stream.latencies_s.append(time.perf_counter() - t0)
        stream.next += count

    def bulk(self, st: dict, ledger: Ledger, workdir: Path):
        """The bulk pass as a generator of ``BULK_STAGES`` stages: it yields
        None between stages and, as its last value, what the checks need."""
        recs = st["recs"]
        built = {
            "normal": signal_pipeline.build_dataset(
                [recs["normal"]], UC1, tags=[signal_pipeline.TAG_NORMAL]),
            "damaged": signal_pipeline.build_dataset(
                [recs["damaged"]], UC1, tags=[signal_pipeline.TAG_ANOMALY]),
            "calibration": signal_pipeline.build_dataset(
                [recs["calibration"]], UC1, tags=[signal_pipeline.TAG_NORMAL]),
            "traffic": signal_pipeline.build_dataset([recs["traffic"]], UC2),
        }
        yield None
        loaded = {}
        for name, result in built.items():
            io_formats.save_dataset(result.windows, workdir / name)
            loaded[name] = io_formats.load_dataset(workdir / name)
            ledger.check(f"{name} dataset save/load round trip",
                         round_trip_equal(result.windows, loaded[name]))
        yield None

        detector = st["detector"]
        train, normal_test = signal_pipeline.chronological_split(
            loaded["normal"], MONITOR_TRAIN_FRAC)
        test = normal_test + loaded["damaged"]
        truth = np.array([w.tag == signal_pipeline.TAG_ANOMALY for w in test])
        train_err = mae_model.reconstruction_errors(detector, train, EVAL_SEED)
        calib_err = mae_model.reconstruction_errors(detector, loaded["calibration"], EVAL_SEED)
        yield None
        test_err = mae_model.reconstruction_errors(detector, test, EVAL_SEED)
        for what, errs in (("train", train_err), ("calibration", calib_err), ("test", test_err)):
            ledger.values(f"{what} reconstruction errors", errs)
        yield None
        threshold = anomaly_head.calibrate_threshold(train_err, calib_err)
        ledger.check("bulk threshold equals set-up threshold bit for bit",
                     threshold == st["threshold"])
        per_filter = evaluation.evaluate_anomaly_detection(test_err, truth, threshold)
        smoothed = anomaly_head.median_smooth(test_err, SMOOTH_L)
        auc = roc_auc(smoothed[~truth], smoothed[truth])
        yield None
        preds = [mae_model.forward_regress(st["regressor"], w.image)
                 for w in loaded["traffic"]]
        ledger.values("traffic predictions", preds)
        yield None
        base = self.baselines(st, ledger)
        yield {"n_windows": sum(len(r.windows) for r in built.values()),
               "test_err": test_err, "threshold": threshold, "truth": truth,
               "auc": auc, "per_filter": per_filter, "baselines": base}

    def baselines(self, st: dict, ledger: Ledger) -> dict:
        """PCA detection on normalized time windows; k-NN and linear
        regression on per-window features of the traffic day."""
        recs = st["recs"]
        raw = {name: kept_windows(recs[name], UC1)
               for name in ("normal", "damaged", "calibration")}

        def vectors(ws):
            return np.stack([signal_pipeline.normalize(w).values for w in ws])

        n_train = st["n_train"]
        train = vectors(raw["normal"][:n_train])
        pca = baselines.pca_fit(train)
        threshold = anomaly_head.calibrate_threshold(
            baselines.pca_errors(pca, train),
            baselines.pca_errors(pca, vectors(raw["calibration"])))
        test = raw["normal"][n_train:] + raw["damaged"]
        truth = np.arange(len(test)) >= len(raw["normal"]) - n_train
        pca_err = baselines.pca_errors(pca, vectors(test))
        ledger.values("PCA detection scores", pca_err)
        pca_filter = evaluation.evaluate_anomaly_detection(pca_err, truth, threshold)

        traffic = recs["traffic"]
        windows = kept_windows(traffic, UC2)
        feats = np.stack([baselines.extract_features(w.values) for w in windows])
        targets = np.array([signal_pipeline.compute_target(
            traffic.labels[w.start_index:w.start_index + len(w.values)], "any")
            for w in windows])
        n_fit = int(len(windows) * 0.8)
        lin = baselines.linreg_fit(feats[:n_fit], targets[:n_fit])
        y_lin = baselines.linreg_predict(lin, feats[n_fit:])
        y_knn = [baselines.knn_predict(feats[:n_fit], targets[:n_fit], q, k=7)
                 for q in feats[n_fit:]]
        ledger.values("linear-regression predictions", y_lin)
        ledger.values("k-NN predictions", y_knn)
        return {
            "pca_accuracy_L15": pca_filter[SMOOTH_L].accuracy,
            "linreg_mae": evaluation.regression_metrics(y_lin, targets[n_fit:]).mae,
            "knn_mae": evaluation.regression_metrics(y_knn, targets[n_fit:]).mae,
        }

    def round(self, st: dict, ledger: Ledger, tracer: Optional[Tracer]) -> RoundResult:
        workdir = st["workdir"] / f"round-{os.getpid()}"
        first, count = st["stream_start"], st["stream_n"]
        slices = [len(a) for a in np.array_split(np.arange(count), self.BULK_STAGES)]
        stream = Stream(first)
        stages = self.bulk(st, ledger, workdir)
        bulk_s = 0.0
        t_round = time.perf_counter()
        try:
            for n in slices:
                t0 = time.perf_counter()
                with phase(tracer, "bench.bulk"):
                    out = next(stages)
                bulk_s += time.perf_counter() - t0
                self.stream(st, stream, n, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wall_s = time.perf_counter() - t_round
        errors, verdicts = stream.errors, stream.verdicts
        ledger.values("streamed reconstruction errors", errors)
        bulk_err = out["test_err"][first:first + count]
        ledger.check("streamed errors equal bulk errors bit for bit",
                     np.array_equal(np.asarray(errors), bulk_err))
        expected = anomaly_head.classify(anomaly_head.median_smooth(bulk_err, SMOOTH_L),
                                         out["threshold"])
        ledger.check("streamed verdicts equal bulk verdicts",
                     np.array_equal(np.asarray(verdicts), expected))
        m15 = out["per_filter"][SMOOTH_L]
        normal_err = out["test_err"][~out["truth"]]
        return RoundResult(
            wall_s=wall_s, items=out["n_windows"], items_s=bulk_s,
            latencies_s=stream.latencies_s,
            quality={"ad_auc": out["auc"], "threshold": out["threshold"],
                     "heldout_error": float(np.mean(normal_err)),
                     "detector_loss": st["detector_loss"]},
            details={"bulk_windows": out["n_windows"], "stream_windows": count,
                     "accuracy_L15": m15.accuracy, "sensitivity_L15": m15.sensitivity,
                     "specificity_L15": m15.specificity, **out["baselines"]})

    def final_checks(self, st: dict, ledger: Ledger) -> dict:
        sample = st["arriving"][:F64_SAMPLE]
        images = [signal_pipeline.spectrogram(signal_pipeline.normalize(w)) for w in sample]
        det, reg = st["detector"], st["regressor"]
        det64, reg64 = det.astype(np.float64), reg.astype(np.float64)
        e32 = [mae_model.reconstruction_error(det, im, EVAL_SEED ^ i) for i, im in enumerate(images)]
        e64 = [mae_model.reconstruction_error(det64, im, EVAL_SEED ^ i) for i, im in enumerate(images)]
        p32 = [mae_model.forward_regress(reg, im) for im in images]
        p64 = [mae_model.forward_regress(reg64, im) for im in images]
        return {"f64_rel_reconstruction": f64_agreement(ledger, "reconstruction errors", e32, e64),
                "f64_rel_prediction": f64_agreement(ledger, "traffic predictions", p32, p64)}


def round_trip_equal(saved, loaded) -> bool:
    """Images come back as their float32 values; targets as float32; tags as is."""
    if len(saved) != len(loaded):
        return False
    for a, b in zip(saved, loaded):
        if not np.array_equal(a.image.astype(np.float32), b.image.astype(np.float32)):
            return False
        if a.tag != b.tag:
            return False
        if (a.target is None) != (b.target is None):
            return False
        if a.target is not None and np.float32(a.target) != np.float32(b.target):
            return False
    return True


WORKLOADS = {"finetune": Finetune, "monitor": Monitor}


# ---------------------------------------------------------------------------
# one run


def latency_stats(samples_s: list[float]) -> dict:
    """Median and tail of one round's single-window latencies, in ms. The
    tail is the highest percentile with at least ten samples beyond it; the
    number of samples per round is fixed, so the percentile is too."""
    x = np.sort(np.asarray(samples_s) * 1e3)
    k = max(0, len(x) - 11)
    return {"p50_ms": float(np.median(x)), "tail_ms": float(x[k]),
            "tail_percentile": 100.0 * (k + 1) / len(x), "n": len(x)}


def mean_of(values) -> Optional[float]:
    return statistics.fmean(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, workdir: Path) -> dict:
    wl = WORKLOADS[name]()
    ledger = Ledger()
    tracer = Tracer() if trace else None
    setup_s, prints = [], []
    st = None
    for rep in range(sizes.setup_reps):
        traced = trace and rep == sizes.setup_reps - 1
        st = None   # one set-up's state at a time in the RSS high-water mark
        gc.collect()
        patches = layers.install(tracer) if traced else None
        t0 = time.perf_counter()
        try:
            with phase(tracer if traced else None, "bench.setup"):
                st = wl.setup(seed, sizes, ledger)
        except Exception:  # nothing can run; count the planned rounds as lost
            traceback.print_exc()
            ledger.lost("set-up raised", MIN_ROUNDS * wl.round_ops(sizes))
            return {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "attempted": ledger.attempted,
                    "failed": ledger.failed, "failures": ledger.failures,
                    "metrics": {}, "details": {}}
        finally:
            if patches is not None:
                patches.restore()
        setup_s.append(time.perf_counter() - t0)
        prints.append(st["fingerprint"])
    ledger.check("set-up repeats bit for bit", len(set(prints)) == 1)
    st["workdir"] = workdir

    rounds: list[RoundResult] = []
    traced_round: Optional[RoundResult] = None
    first_quality = None
    t_start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t_start
        enough = (len(rounds) >= MIN_ROUNDS
                  and (not trace or traced_round is not None)) or ledger.failed
        if (elapsed >= seconds and enough) or elapsed >= MAX_ROUNDS_S:
            break
        traced = trace and k == 1
        patches = layers.install(tracer) if traced else None
        try:
            with gc_paused(), phase(tracer if traced else None, "bench.round"):
                result = wl.round(st, ledger, tracer if traced else None)
        except Exception:  # a failing round is counted, the run goes on
            traceback.print_exc()
            ledger.lost(f"round {k} raised", wl.round_ops(sizes))
            result = None
        finally:
            if patches is not None:
                patches.restore()
        k += 1
        if result is None:
            continue
        if first_quality is None:
            first_quality = result.quality
        else:
            ledger.check(f"round {k - 1} quality equals round 0 bit for bit"
                         + (" (traced)" if traced else ""),
                         result.quality == first_quality)
        if traced:
            traced_round = result
        else:
            rounds.append(result)

    checks = wl.final_checks(st, ledger) if rounds else {}
    lat = [latency_stats(r.latencies_s) for r in rounds]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "import_s": IMPORT_S,
        "setup_reps_s": setup_s,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        wl.rate_name: [r.items / r.items_s for r in rounds],
        "latency_p50_ms": [x["p50_ms"] for x in lat],
        "latency_tail_ms": [x["tail_ms"] for x in lat],
        "latency_n_per_round": lat[0]["n"] if lat else 0,
        "latency_tail_percentile": lat[0]["tail_percentile"] if lat else None,
        "quality": first_quality,
        **(rounds[0].details if rounds else {}),
        **checks,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
    }
    if trace:
        walls = [r.wall_s for r in rounds]
        metrics = layers.per_layer_metrics(tracer, wl.timed_phases)
        ledger.check("calibrate_threshold step counts reproduce their thresholds",
                     tracer.counters.get(layers.CALIBRATE_UNEXPLAINED, 0) == 0)
        metrics["trace.overhead.frac"] = (
            traced_round.wall_s / statistics.median(walls) - 1.0
            if traced_round is not None and walls else None)
        details["traced_quality_equal"] = (traced_round is not None
                                           and traced_round.quality == first_quality)
        details["spans"] = len(tracer.spans)
        tracer.save(workdir / f"spans-{name}.npz")
    else:
        metrics = {
            "setup_s": IMPORT_S + statistics.median(setup_s),
            "throughput": (sum(r.items for r in rounds) / sum(r.items_s for r in rounds)
                           if rounds else None),
            "latency_p50_ms": mean_of([x["p50_ms"] for x in lat]),
            "latency_tail_ms": mean_of([x["tail_ms"] for x in lat]),
            "peak_rss_mb": peak_rss_mb,
            "heldout_error": first_quality["heldout_error"] if first_quality else None,
        }
    details["peak_rss_mb"] = peak_rss_mb
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": ledger.attempted, "failed": ledger.failed,
            "failures": ledger.failures, "metrics": metrics, "details": details}


# ---------------------------------------------------------------------------
# environment


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "shm_fomo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    sizes = FULL if args.size == "full" else TINY
    workdir = args.result.parent
    workdir.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          sizes, workdir)
    result["environment"] = environment(args.seed)
    args.result.write_text(json.dumps(result, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
