"""Sweep benchmark for riszf: serial and two-worker sweep time, per workload.

    python3 perfbench/run.py --workload default_sweep --seed 1 --seconds 55 --trace 0

Every measurement runs in a fresh interpreter (perfbench/worker.py) with
PYTHONPATH pointing at this checkout's src/. The BLAS thread variables
are removed from the workers' environment, so the program runs as a user
runs it, BLAS helper threads included. See perfbench/README.md for the
workloads, the metrics and the gates.

--trace 0 prints the end-to-end metrics; --trace 1 adds a traced serial
sweep and a wrapper-coverage self-test and prints the per-layer metrics.
The bounded times are corrected to a reference CPU speed measured inside
each worker (worker.SpeedProbe); the raw times are printed beside them.
The last line of standard output is one JSON object. The exit code is 0
only when every correctness gate passed.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

# Why each workload is here: see README.md. Trial counts size one serial
# sweep at a few seconds on 2 cores.
WORKLOADS = {
    "default_sweep": {"trials": "10"},
    "ris_side_csi": {
        "schemes": "bs_ris_zf",
        "phase_rules": "optimal,random",
        "sweep_m": "128,256",
        "sweep_n": "8",
        "csi_tau": "0.0,0.1,0.3",
        "trials": "40",
    },
}
# Both schemes, every rule, a skipped point and a CSI-error slice, in about a second.
SELFTEST_GRID = {
    "sweep_m": "8,16",
    "sweep_n": "1,2",
    "csi_tau": "0.0,0.2",
    "trials": "2",
}
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OUTPUT_FILES = ("summary.csv", "trials.csv", "plotdata_bs_ue_zf.csv", "plotdata_bs_ris_zf.csv")
SETUP_SAMPLES = 5
MIN_SERIAL = 5
REF_SIGMAS = 7.0  # reference gate: allowed distance in standard errors
HARD_LIMIT_S = 170.0  # whole run, so it ends inside 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    """The caller's environment minus BLAS thread settings, riszf from src/."""
    env = dict(os.environ)
    cleared = sorted(v for v in BLAS_VARS if v in env)
    for v in cleared:
        del env[v]
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, cleared


class Runner:
    """Starts workers, each in its own process group, under one deadline."""

    def __init__(self, env, workdir, deadline):
        self.env = env
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def call(self, config, threads=0, trace=False):
        self.count += 1
        tag = self.workdir / f"w{self.count:03d}"
        req = {
            "config": config,
            "threads": threads,
            "out": str(tag),
            "result": str(tag) + ".json",
            "spans": str(tag) + ".spans.jsonl" if trace else None,
        }
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
            cwd=ROOT, env=self.env, start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("a worker ran past the time limit")
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
        with open(req["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        if not Path(res["riszf_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported riszf from {res['riszf_file']}, not from src/")
        res["out"] = tag
        return res


def read_outputs(out_dir):
    return {f: (out_dir / f).read_bytes() for f in OUTPUT_FILES if (out_dir / f).exists()}


def reference_problems(summary_path, ref_path):
    """Row set, statuses and notes must match the reference exactly; each
    ok row's mean sum rate must lie within REF_SIGMAS standard errors of
    the reference mean. The run's standard error is floored at what the
    reference's spread predicts for the run's trial count, so a row whose
    few trials happen to agree closely does not fail by chance."""
    with open(summary_path, newline="") as fh:
        run_rows = list(csv.DictReader(fh))
    with open(ref_path, newline="") as fh:
        ref_rows = list(csv.DictReader(fh))
    key = ("scheme", "phase_rule", "M", "N", "csi_tau")
    if [tuple(r[k] for k in key) for r in run_rows] != [tuple(r[k] for k in key) for r in ref_rows]:
        return ["summary.csv rows differ from the reference row set"]
    problems = []
    for r, ref in zip(run_rows, ref_rows):
        where = "/".join(r[k] for k in key)
        if r["status"] != ref["status"] or r["note"] != ref["note"]:
            problems.append(f"{where}: status {r['status']!r} ({r['note']}) vs "
                            f"reference {ref['status']!r} ({ref['note']})")
            continue
        if r["status"] != "ok":
            continue
        n, n_ref = int(r["trials"]), int(ref["trials"])
        se_ref = float(ref["stderr_sum_rate"])
        se = max(float(r["stderr_sum_rate"]), se_ref * math.sqrt(n_ref / n))
        diff = abs(float(r["mean_sum_rate"]) - float(ref["mean_sum_rate"]))
        if diff > REF_SIGMAS * math.hypot(se, se_ref):
            problems.append(f"{where}: mean sum rate {r['mean_sum_rate']} is {diff:.4g} "
                            f"from the reference {ref['mean_sum_rate']}")
    return problems


def measure(workload, seed, seconds, trace, runner, cleared):
    """All sweeps of one run. Returns the bounded end-to-end metrics, the
    two-worker figures, the per-layer metrics (traced runs), the gate
    failures and an info record with the trial counts."""
    config = dict(WORKLOADS[workload], master_seed=str(seed))
    start = time.monotonic()
    setups = [runner.call(config) for _ in range(SETUP_SAMPLES)]
    problems = []
    layers = {}
    traced = None
    if trace:
        test = runner.call(dict(SELFTEST_GRID, master_seed=str(seed)), threads=1, trace=True)
        problems += [f"self-test: {m}" for m in test["trace_problems"]]
        if test["failed"]:
            problems.append(f"self-test: {test['failed']} trials failed")
        traced = runner.call(config, threads=1, trace=True)
        problems += [f"traced sweep: {m}" for m in traced["trace_problems"]]
        layers = traced["layers"]

    # One two-worker sweep per run feeds the determinism gate. Its wall
    # time swings 2-10x between identical runs on 2 cores, so it carries no
    # bound and gets no repeats; the rest of the time goes to serial sweeps,
    # whose median is the bounded sweep_s.
    two = runner.call(config, threads=2)
    expected = read_outputs(two["out"])
    serial = []
    last_s = 0.0
    while len(serial) < MIN_SERIAL or time.monotonic() + last_s <= start + seconds:
        t0 = time.monotonic()
        serial.append(runner.call(config, threads=1))
        last_s = time.monotonic() - t0
    for res in serial + ([traced] if traced else []):
        if read_outputs(res["out"]) != expected:
            kind = "traced" if res is traced else "serial"
            problems.append(f"a {kind} sweep's outputs differ from the two-worker sweep's")
        shutil.rmtree(res["out"])
    problems += reference_problems(two["out"] / "summary.csv", REFERENCE / f"{workload}.csv")

    runs = serial + [two]
    workers = setups + runs
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    med = statistics.median
    # Bounded times are at the reference CPU speed: each raw time divided
    # by the speed factor its worker's probe measured over the same span
    # (worker.SpeedProbe). The raw medians are reported beside them.
    metrics = {
        "setup_s": med((r["import_s"] + r["build_configs_s"]) / r["setup_speed"] for r in workers),
        "sweep_s": med(r["sweep_s"] / r["sweep_speed"] for r in serial),
        "sweep_cpu_s": med(r["cpu_s"] / r["sweep_speed"] for r in serial),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "ok_trial_frac": (attempted - failed) / attempted,
    }
    raw = {
        "setup.raw_s": med(r["import_s"] + r["build_configs_s"] for r in workers),
        "harness.sweep_raw_s": med(r["sweep_s"] for r in serial),
        "harness.sweep_cpu_raw_s": med(r["cpu_s"] for r in serial),
        "probe.speed_factor": med(r["sweep_speed"] for r in serial),
        "probe.setup_speed_factor": med(r["setup_speed"] for r in workers),
    }
    t2 = {"sweep_t2_s": two["sweep_s"], "sweep_t2_cpu_s": two["cpu_s"]}
    if trace:
        layers.update(raw)
        layers.update({
            "harness.sweep_t2_s": t2["sweep_t2_s"],
            "harness.sweep_t2_cpu_s": t2["sweep_t2_cpu_s"],
            "harness.parallel_speedup": raw["harness.sweep_raw_s"] / t2["sweep_t2_s"],
            "harness.cpu_per_wall": raw["harness.sweep_cpu_raw_s"] / raw["harness.sweep_raw_s"],
            "setup.import_s": med(r["import_s"] / r["setup_speed"] for r in workers),
            "setup.build_configs_s": med(r["build_configs_s"] / r["setup_speed"] for r in workers),
            "trace.overhead_frac":
                traced["sweep_s"] / traced["sweep_speed"] / metrics["sweep_s"] - 1.0,
        })
    info = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "serial_sweeps_raw_s": [round(r["sweep_s"], 4) for r in serial],
        "serial_speed_factors": [round(r["sweep_speed"], 4) for r in serial],
        "raw": raw,
        "setup_samples": len(workers),
        "summary_sha256": hashlib.sha256(expected["summary.csv"]).hexdigest(),
        "env": dict(runs[0]["env"], blas_vars_cleared=cleared),
    }
    return metrics, t2, layers, problems, info


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last == "gflop_per_s":
        return "GFLOP/s"
    if last.endswith("_mb"):
        return "MB"
    if last == "s" or last.endswith("_s") or last in ("p50", "max"):
        return "s"
    if last.startswith("iters"):
        return "iterations"
    if last in ("calls", "spans") or last.endswith("_errors"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master_seed of the sweep")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riszf" / "__init__.py").is_file():
        print(f"perfbench: no riszf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, cleared = child_env()
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(env, workdir, time.monotonic() + HARD_LIMIT_S)
    try:
        e2e, t2, layers, problems, info = measure(
            args.workload, args.seed, args.seconds, args.trace == 1, runner, cleared
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    shown = layers if args.trace else e2e
    for name, value in shown.items():
        print(f"{name:40s} {value:14.6g} {unit_of(name)}")
    for name, value in t2.items():
        print(f"# unbounded {name:30s} {value:14.6g} {unit_of(name)}")
    if args.trace:
        for name, value in e2e.items():
            print(f"# untraced {name:31s} {value:14.6g} {unit_of(name)}")
    print("info: " + json.dumps(info))
    for p in problems:
        print(f"FAILED GATE: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
