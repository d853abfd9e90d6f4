"""Benchmark of the shm_fomo pipeline: one command, one workload per process.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Each named workload (``finetune``,
``monitor``; a comma-separated list or ``all`` runs several)
runs in its own child process with every BLAS/OpenMP thread variable set to
at most two threads. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from a run with
the shm_fomo functions wrapped. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; when
several workloads run, each prints its own such line, in order. Full results,
and the spans of traced runs, are written under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finetune", "monitor")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_THREADS = 2
CHILD_TIMEOUT_S = 170


def thread_env() -> dict[str, str]:
    threads = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    return {var: threads for var in THREAD_VARS}


def warm_up() -> None:
    """Import the workloads once in a throwaway process, so that every
    workload's import time sees compiled bytecode and a warm file cache, on
    the first run in a fresh checkout as on later ones."""
    env = {**os.environ, **thread_env()}
    try:
        subprocess.run([sys.executable, "-c", "import workloads"], cwd=HERE, env=env,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass   # the workload process reports what went wrong


def run_child(name: str, args) -> dict:
    """Run one workload in a fresh interpreter; returns its result record,
    or a record of one failed operation when the child produced none."""
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    result_path = workdir / f"result-{name}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path),
           "--size", args.size]
    env = {**os.environ, **thread_env()}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    if code == 0 and result_path.is_file():
        return json.loads(result_path.read_text())
    print(f"perfbench: workload {name} ended with code {code} and no result",
          file=sys.stderr)
    return {"workload": name, "attempted": 1, "failed": 1,
            "failures": [f"workload process ended with code {code}"],
            "metrics": {}, "details": {}, "environment": {}}


def report(result: dict, spec: dict, trace: int) -> dict:
    """Print the human-readable block and return the contract line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    name = result["workload"]
    print(f"environment {name}: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"details {name}: {json.dumps(result['details'], sort_keys=True, default=str)}")
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:9s} {m['name']:48s} {shown:>12s} {m['unit']:8s} "
              f"({m['better']} is better)")
    for what in result["failures"]:
        print(f"  FAILED: {what}")
    failed = result["failed"] + len(missing)
    attempted = max(1, result["attempted"] + len(missing))
    print(f"  {name}: {failed} of {attempted} operations failed "
          f"(error rate {failed / attempted:.4g})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="one of %s, a comma-separated list, or 'all'" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes, not for measurement")
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {', '.join(unknown)}")
    if not (ROOT / "src" / "shm_fomo" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'shm_fomo'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    warm_up()

    lines = [report(run_child(name, args), spec, args.trace) for name in names]
    for line in lines[:-1]:
        print(json.dumps(line))
    print(json.dumps(lines[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
