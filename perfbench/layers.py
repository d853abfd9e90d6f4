"""The layers the traced run times: which ``shm_fomo`` functions are wrapped,
what each wrapper counts besides time, and the per-layer metrics built from
the spans.

Each function is wrapped under every name it is looked up by: module globals
(``nn_core`` internals call each other through them), names imported into
other modules (``evaluation`` imports ``median_smooth`` by name) and class
attributes (``trainer.AdamW.step``). ``cli`` only wires modules together and
is not timed.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import numpy as np

from tracer import Patches, Tracer, self_times

MODULES = {
    "nn_core": ("linear_fwd", "linear_bwd", "layernorm_fwd", "layernorm_bwd",
                "gelu_fwd", "gelu_bwd", "softmax_last", "softmax_bwd",
                "attention_fwd", "attention_bwd", "block_fwd", "block_bwd",
                "stack_fwd", "stack_bwd"),
    "mae_model": ("patchify", "sample_mask", "sample_mask_batch",
                  "pretrain_forward_batch", "pretrain_backward",
                  "regress_forward_batch", "regress_backward",
                  "reconstruction_error", "forward_regress"),
    "trainer": ("pretrain", "finetune_tle", "_run_loop", "clip_gradients",
                "AdamW.step"),
    "signal_pipeline": ("build_dataset", "make_windows", "energy_keep",
                        "normalize", "spectrogram"),
    "io_formats": ("save_dataset", "load_dataset"),
    "anomaly_head": ("calibrate_threshold", "median_smooth", "classify",
                     "ad_metrics"),
    "evaluation": ("evaluate_anomaly_detection", "regression_metrics"),
    "baselines": ("pca_fit", "pca_errors", "extract_features", "knn_predict",
                  "linreg_fit", "linreg_predict"),
    "synth_bench": ("gen_ambient", "gen_traffic"),
}


# ---------------------------------------------------------------------------
# quantities computed from a call's arguments and result


def _rows(x: np.ndarray) -> int:
    return x.size // x.shape[-1]


def _linear_fwd_flop(args, result) -> float:
    x, w = args[0], args[1]
    return 2.0 * _rows(x) * w.shape[0] * w.shape[1]


def _linear_bwd_flop(args, result) -> float:
    x, w = args[1], args[2]   # dx = dy @ w.T and dw = x.T @ dy
    return 4.0 * _rows(x) * w.shape[0] * w.shape[1]


def _attention_fwd_flop(args, result) -> float:
    b, n, d = args[0].shape   # q @ k.T and attn @ v; projections count as linear
    return 4.0 * b * n * n * d


def _attention_bwd_flop(args, result) -> float:
    b, n, d = args[1][0].shape   # cache[0] is the block input x
    return 8.0 * b * n * n * d


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def _bytes_moved(args, result) -> float:
    """Compulsory traffic: every array read plus every new array written."""
    inputs = list(_arrays(args))
    seen = {id(a) for a in inputs}
    written = [a for a in _arrays(result) if id(a) not in seen]
    return float(sum(a.nbytes for a in inputs) + sum(a.nbytes for a in written))


def _dataset_files(directory) -> tuple[int, int]:
    files = sorted(Path(directory).glob("win_*.bin"))
    return len(files), sum(f.stat().st_size for f in files)


def _observe_energy_keep(tracer, args, kwargs, kept):
    tracer.add("signal_pipeline.energy_keep.kept", float(bool(kept)))


def _observe_save_dataset(tracer, args, kwargs, result):
    n, size = _dataset_files(args[1])
    tracer.add("io_formats.save_dataset.files", n)
    tracer.add("io_formats.save_dataset.bytes", size)


def _observe_load_dataset(tracer, args, kwargs, result):
    n, size = _dataset_files(args[0])
    tracer.add("io_formats.load_dataset.files", n)
    tracer.add("io_formats.load_dataset.bytes", size)


CALIBRATE_UNEXPLAINED = "anomaly_head.calibrate_threshold.unexplained"


def _observe_calibrate(tracer, args, kwargs, threshold):
    """Steps the threshold search took. The search starts at mean(train) +
    std(calibration) and adds init * step_fraction per step, so the count
    follows from the returned threshold. A call whose threshold that
    derivation does not reproduce is counted under CALIBRATE_UNEXPLAINED,
    which the run reports as a failed check."""
    anomaly_head = importlib.import_module("shm_fomo.anomaly_head")
    call = inspect.signature(anomaly_head.calibrate_threshold).bind(*args, **kwargs)
    call.apply_defaults()
    train = np.asarray(call.arguments["train_errors"], dtype=np.float64)
    calib = np.asarray(call.arguments["calibration_day_errors"], dtype=np.float64)
    init = float(train.mean() + calib.std())
    step = init * call.arguments["cfg"].step_fraction
    steps = round((threshold - init) / step)
    # repeated addition rounds once per step
    tolerance = 4 * np.finfo(np.float64).eps * (steps + 1) * abs(threshold)
    if steps < 0 or abs(init + steps * step - threshold) > tolerance:
        tracer.add(CALIBRATE_UNEXPLAINED, 1)
    tracer.add("anomaly_head.calibrate_threshold.steps", steps)


def _counter(key: str, quantity, scale: float):
    def observe(tracer, args, kwargs, result):
        tracer.add(key, quantity(args, result) * scale)
    return observe


OBSERVERS = {
    "nn_core.linear_fwd": _counter("nn_core.linear_fwd.gflop", _linear_fwd_flop, 1e-9),
    "nn_core.linear_bwd": _counter("nn_core.linear_bwd.gflop", _linear_bwd_flop, 1e-9),
    "nn_core.attention_fwd": _counter("nn_core.attention_fwd.gflop", _attention_fwd_flop, 1e-9),
    "nn_core.attention_bwd": _counter("nn_core.attention_bwd.gflop", _attention_bwd_flop, 1e-9),
    **{f"nn_core.{fn}": _counter(f"nn_core.{fn}.mb", _bytes_moved, 1e-6)
       for fn in ("layernorm_fwd", "layernorm_bwd", "gelu_fwd", "gelu_bwd",
                  "softmax_last", "softmax_bwd")},
    "signal_pipeline.energy_keep": _observe_energy_keep,
    "io_formats.save_dataset": _observe_save_dataset,
    "io_formats.load_dataset": _observe_load_dataset,
    "anomaly_head.calibrate_threshold": _observe_calibrate,
}

# counters reported as they are, with their units; energy_keep.kept becomes a
# fraction and is listed separately
COUNTER_UNITS = {
    "nn_core.linear_fwd.gflop": "GFLOP", "nn_core.linear_bwd.gflop": "GFLOP",
    "nn_core.attention_fwd.gflop": "GFLOP", "nn_core.attention_bwd.gflop": "GFLOP",
    **{f"nn_core.{fn}.mb": "MB" for fn in ("layernorm_fwd", "layernorm_bwd", "gelu_fwd",
                                           "gelu_bwd", "softmax_last", "softmax_bwd")},
    "io_formats.save_dataset.files": "count", "io_formats.save_dataset.bytes": "bytes",
    "io_formats.load_dataset.files": "count", "io_formats.load_dataset.bytes": "bytes",
    "anomaly_head.calibrate_threshold.steps": "count",
}


def qualified_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in MODULES.items() for fn in fns]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in qualified_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTER_UNITS)
    units["signal_pipeline.energy_keep.kept_frac"] = "fraction"
    for mod in MODULES:
        units[f"{mod}.total.self_s"] = "s"
    units["trace.overhead.frac"] = "fraction"
    units["trace.coverage.frac"] = "fraction"
    return units


# ---------------------------------------------------------------------------
# installing the wrappers


def install(tracer: Tracer) -> Patches:
    """Wrap every listed function under every name it is looked up by."""
    patches = Patches()
    namespaces = [importlib.import_module("shm_fomo")]
    namespaces += [importlib.import_module(f"shm_fomo.{m}") for m in MODULES]
    for mod_name, fns in MODULES.items():
        module = importlib.import_module(f"shm_fomo.{mod_name}")
        for fn in fns:
            owner, attr = module, fn
            if "." in fn:
                cls_name, attr = fn.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, attr)
            key = f"{mod_name}.{fn}"
            wrapped = tracer.wrap(key, original, OBSERVERS.get(key))
            patches.set(owner, attr, wrapped)
            if owner is not module:
                continue
            for ns in namespaces:
                for alias, value in list(vars(ns).items()):
                    if value is original:
                        patches.set(ns, alias, wrapped)
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run


def per_layer_metrics(tracer: Tracer, timed_phases: tuple[str, ...]) -> dict[str, float]:
    """Self time, calls and counters of every listed function, summed over
    all recorded spans, plus the share of the ``timed_phases`` benchmark spans
    that wrapped calls cover."""
    self_s, total_s, calls = self_times(tracer.span_array(), len(tracer.names))
    ids = {name: i for i, name in enumerate(tracer.names)}
    out: dict[str, float] = {}
    for name in qualified_names():
        i = ids.get(name)
        out[f"{name}.self_s"] = float(self_s[i]) if i is not None else 0.0
        out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
    for key in COUNTER_UNITS:
        out[key] = tracer.counters.get(key, 0)
    n_keep = out["signal_pipeline.energy_keep.calls"]
    kept = tracer.counters.get("signal_pipeline.energy_keep.kept", 0.0)
    out["signal_pipeline.energy_keep.kept_frac"] = kept / n_keep if n_keep else 0.0
    for mod, fns in MODULES.items():
        out[f"{mod}.total.self_s"] = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)

    phases = [ids[p] for p in timed_phases if p in ids]
    phase_total = float(total_s[phases].sum())
    phase_self = float(self_s[phases].sum())
    out["trace.coverage.frac"] = 1.0 - phase_self / phase_total if phase_total else 0.0
    return out
