"""Sweep runner: grid enumeration, determinism, failure accounting, CSV."""

import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import riszf.beamform as beamform
import riszf.harness as harness
from riszf.beamform import RankDeficiencyError
from riszf.channel import derive_seed
from riszf.harness import (
    PLOTDATA_CSV_HEADER,
    STATUS_FLAGGED,
    STATUS_OK,
    STATUS_SKIPPED,
    SUMMARY_CSV_HEADER,
    TRIAL_CSV_HEADER,
    SpawnStream,
    SweepSummary,
    TrialResult,
    emit_outputs,
    enumerate_grid,
    run_point,
    run_sweep,
)
from riszf.sysconfig import build_configs
from support import count_calls


def _configs(extra=None):
    kv = {
        "sweep_m": "16,32",
        "sweep_n": "1,4",
        "trials": "2",
    }
    kv.update(extra or {})
    return build_configs(kv)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_grid_enumeration_order_and_shared_dims():
    _, _, run = _configs()
    points = enumerate_grid(run)
    assert len(points) == 2 * 3 * 2 * 2
    assert [p.index for p in points] == list(range(len(points)))
    # schemes and rules reuse the dims index so channel draws pair up
    by_dims = {}
    for p in points:
        by_dims.setdefault(p.dims_index, set()).add((p.M, p.N, p.tau))
    assert all(len(v) == 1 for v in by_dims.values())
    assert len(by_dims) == 4
    assert points[0].scheme == "bs_ue_zf"
    assert points[-1].scheme == "bs_ris_zf"


def test_repeat_run_is_byte_identical(tmp_path):
    cfg, ch, run = _configs()
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_outputs(run_sweep(run, cfg, ch), str(a))
    emit_outputs(run_sweep(run, cfg, ch), str(b))
    for name in ("summary.csv", "trials.csv", "plotdata_bs_ue_zf.csv"):
        assert _digest(a / name) == _digest(b / name)


def test_parallel_matches_serial(tmp_path):
    cfg, ch, run = _configs()
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    emit_outputs(run_sweep(replace(run, threads=1), cfg, ch), str(serial))
    emit_outputs(run_sweep(replace(run, threads=3), cfg, ch), str(parallel))
    for name in ("summary.csv", "trials.csv"):
        assert _digest(serial / name) == _digest(parallel / name)


def test_channel_draws_pair_across_schemes_and_rules():
    cfg, ch, run = _configs({"sweep_m": "32", "sweep_n": "1"})
    summary = run_sweep(run, cfg, ch)
    seeds = {}
    for t in summary.trials:
        seeds.setdefault((t.M, t.N, t.csi_tau, t.trial), set()).add(t.seed)
    assert seeds
    assert all(len(s) == 1 for s in seeds.values())


def test_spawn_stream_numbers_are_the_contract():
    # renumbering a stream draws statistically identical channels, so only
    # this pin and the golden hashes would see it
    assert {s.name: s.value for s in SpawnStream} == {
        "DRAW": 0, "CSI_ERROR": 1, "RANDOM_PHASES": 2, "ALTERNATING_INIT": 3,
    }


def _trial_streams(point):
    """The streams each trial of `point` keys, in the order it keys them."""
    streams = [("spawn_rng", SpawnStream.DRAW), ("derive_seed", SpawnStream.DRAW),
               ("derive_seed", SpawnStream.CSI_ERROR)]
    if point.phase_rule == "random":
        streams.append(("derive_seed", SpawnStream.RANDOM_PHASES))
    elif point.phase_rule == "optimal" and point.scheme == "bs_ue_zf":
        streams.append(("derive_seed", SpawnStream.ALTERNATING_INIT))
    return streams


def test_every_trial_keys_the_streams_the_map_states(tmp_path, monkeypatch):
    # seeds are SeedSequence words, which no BLAS build moves, so this pins
    # the spawn-key map on every platform the golden hashes skip
    cfg, ch, run = _configs({"csi_tau": "0.0,0.2", "master_seed": "5"})
    calls = count_calls(monkeypatch, harness, "run_point", record=lambda p, *_: p)
    for name in ("spawn_rng", "derive_seed"):
        count_calls(monkeypatch, harness, name, calls, lambda *a, name=name: (name, a))
    summary = run_sweep(run, cfg, ch)
    emit_outputs(summary, str(tmp_path))

    points = enumerate_grid(run)
    assert calls[0] == points[0]
    seen = {}
    for c in calls:
        if isinstance(c, harness.GridPoint):
            keys = seen.setdefault(c, [])
        else:
            keys.append(c)
    expected = {}
    for p, s in zip(points, summary.points):
        trials = 0 if s.status == STATUS_SKIPPED else run.trials
        expected[p] = [(name, (run.master_seed, p.dims_index, t, stream))
                       for t in range(trials) for name, stream in _trial_streams(p)]
    assert seen == expected
    # the grid reaches every stream
    assert {key[-1] for keys in seen.values() for _, key in keys} == set(SpawnStream)

    dims = {(p.M, p.N, p.tau): p.dims_index for p in points}
    rows = (tmp_path / "trials.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert len(rows) - 1 == len(summary.trials) > 0
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        d = dims[(int(row["M"]), int(row["N"]), float(row["csi_tau"]))]
        assert int(row["seed"]) == derive_seed(run.master_seed, d, int(row["trial"]),
                                               SpawnStream.DRAW)


def test_infeasible_point_is_skipped_with_reason_not_zeros(tmp_path):
    cfg, ch, run = _configs({"sweep_m": "16", "sweep_n": "4", "schemes": "bs_ris_zf"})
    summary = run_sweep(run, cfg, ch)
    assert all(p.status == STATUS_SKIPPED for p in summary.points)
    assert all("M > N*K+U_d" in p.note for p in summary.points)
    assert all(p.trials == 0 for p in summary.points)
    assert len(summary.trials) == 0
    paths = emit_outputs(summary, str(tmp_path))
    text = (tmp_path / "summary.csv").read_text()
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 3
    # means stay empty rather than reading as 0.0
    assert all(",skipped,0,0,,,,," in r for r in rows)
    plot = (tmp_path / "plotdata_bs_ris_zf.csv").read_text().strip().split("\n")
    assert plot == [PLOTDATA_CSV_HEADER]
    assert str(tmp_path / "trials.csv") in paths


def test_more_ues_than_elements_on_a_ris_is_skipped_not_flagged():
    # RIS k's L_k cascaded rows span at most N dimensions; unchecked, every
    # N=2 trial of the optimal and random rules failed as rank deficient
    cfg, ch, run = build_configs(
        {"k": "3", "l": "2,1,3", "schemes": "bs_ue_zf",
         "sweep_m": "16,64", "sweep_n": "2,4", "trials": "10"}
    )
    summary = run_sweep(run, cfg, ch)
    assert len(summary.points) == 12
    assert not summary.flagged
    for p in summary.points:
        if p.N == 2:
            assert (p.status, p.trials, p.failures) == (STATUS_SKIPPED, 0, 0)
            assert p.note.startswith("ues_per_ris_within_n: requires L_k <= N = 2")
        elif p.phase_rule == "asymptotic":
            assert p.status == STATUS_SKIPPED
            assert p.note == "asymptotic phase rule needs one UE per RIS"
        else:
            assert (p.status, p.trials, p.failures) == (STATUS_OK, 10, 0)
    assert {t.N for t in summary.trials} == {4}


def test_failure_accounting_and_flag_threshold(monkeypatch):
    cfg, ch, run = _configs(
        {"sweep_m": "16", "sweep_n": "4", "schemes": "bs_ue_zf",
         "phase_rules": "random", "trials": "10"}
    )
    points = enumerate_grid(run)
    assert len(points) == 1
    real = harness.bs_ue_zf_precoder

    def fail_every(period):
        calls = {"n": 0}

        def patched(chs, phases):
            i = calls["n"]
            calls["n"] += 1
            if i % period == 0:
                raise RankDeficiencyError("forced", cond=float("inf"), shape=(6, 16))
            return real(chs, phases)

        return patched

    # exactly 20% failures stays unflagged (the flag needs a strict excess)
    monkeypatch.setattr(harness, "bs_ue_zf_precoder", fail_every(5))
    summary, results = run_point(points[0], cfg, ch, run)
    assert summary.status == STATUS_OK
    assert summary.failures == 2
    assert summary.trials == 8
    assert len(results) == 8
    assert np.isfinite(summary.mean_sum_rate)
    # failed trials leave no holes in the trial numbering of survivors
    assert [r.trial for r in results] == [1, 2, 3, 4, 6, 7, 8, 9]

    monkeypatch.setattr(harness, "bs_ue_zf_precoder", fail_every(2))
    summary, results = run_point(points[0], cfg, ch, run)
    assert summary.status == STATUS_FLAGGED
    assert summary.failures == 5
    assert "5 of 10 trials failed" in summary.note
    assert SweepSummary(points=(summary,), trials=tuple(results)).flagged


def test_mean_rate_nonincreasing_in_estimation_error():
    cfg, ch, run = _configs(
        {"sweep_m": "16", "sweep_n": "4", "schemes": "bs_ue_zf",
         "phase_rules": "random", "trials": "200", "csi_tau": "0.0,0.2"}
    )
    summary = run_sweep(run, cfg, ch)
    means = {p.tau: p.mean_sum_rate for p in summary.points}
    assert means[0.0] > means[0.2]


def test_analytic_curve_matches_optimal_empirical():
    cfg, ch, run = _configs(
        {"sweep_m": "40", "sweep_n": "4", "schemes": "bs_ris_zf",
         "phase_rules": "optimal", "trials": "5"}
    )
    summary = run_sweep(run, cfg, ch)
    p = summary.points[0]
    assert p.status == STATUS_OK
    # RIS-side nulling pins the per-UE gain, so the closed-form ceiling is
    # attained per realization, not just on average
    assert p.analytic_sum_rate == pytest.approx(p.mean_sum_rate, rel=1e-9)
    assert p.analytic_stderr == pytest.approx(p.stderr_sum_rate, rel=1e-6)


def test_analytic_curve_absent_when_power_is_normalized():
    cfg, ch, run = _configs(
        {"sweep_m": "40", "sweep_n": "4", "schemes": "bs_ris_zf",
         "phase_rules": "optimal", "trials": "2",
         "power_mode": "sum_power_normalized"}
    )
    summary = run_sweep(run, cfg, ch)
    assert np.isnan(summary.points[0].analytic_sum_rate)


def test_trial_records_carry_context():
    cfg, ch, run = _configs({"sweep_m": "32", "sweep_n": "4", "csi_tau": "0.1"})
    summary = run_sweep(run, cfg, ch)
    t = summary.trials[0]
    assert t.scheme == "bs_ue_zf"
    assert (t.M, t.N, t.K, t.U_d) == (32, 4, 4, 2)
    assert t.csi_tau == 0.1
    assert t.trial == 0
    assert t.rank_q2 > 0
    rules = {t.phase_rule for t in summary.trials}
    assert rules == {"optimal", "asymptotic", "random"}
    # estimated-channel nulling leaks on the true channels
    assert all(t.nulling_residual > 1e-6 for t in summary.trials)


@pytest.mark.parametrize("tau, per_trial", [("0.0", 1), ("0.1,0.3", 2)])
def test_ris_side_trial_factors_each_draw_once(tau, per_trial, monkeypatch):
    # the ris_side_csi grid: rank_q2 and both precoder builds of the
    # optimal rule read one Gram matrix and one solve per draw, the true
    # draw's and, when tau > 0, the estimated draw's; nothing inverts, and
    # every solve goes through the solve seam
    factors = count_calls(monkeypatch, beamform.GramFactor, "__init__")
    solves = count_calls(monkeypatch, beamform, "solve")
    numpy_solves = count_calls(monkeypatch, np.linalg, "solve")
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    cfg, ch, run = build_configs({
        "schemes": "bs_ris_zf", "phase_rules": "optimal,random", "sweep_m": "128,256",
        "sweep_n": "8", "csi_tau": tau, "trials": "3",
    })
    summary = run_sweep(run, cfg, ch)
    assert all(p.status == STATUS_OK and p.failures == 0 for p in summary.points)
    assert len(factors) == len(solves) == per_trial * len(summary.trials) > 0
    assert numpy_solves == inverses == []


def test_ue_side_trial_factors_once_per_right_inverse_and_rank(monkeypatch):
    # the default grid's UE-side points: every precoder build and every
    # rank_q2 builds one Gram factor, and every factor makes one solve,
    # through the solve seam
    factors = count_calls(monkeypatch, beamform.GramFactor, "__init__")
    solves = count_calls(monkeypatch, beamform, "solve")
    numpy_solves = count_calls(monkeypatch, np.linalg, "solve")
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    right_inverses = count_calls(monkeypatch, beamform, "right_inverse_apply")
    ranks = count_calls(monkeypatch, harness, "rank_q2")
    cfg, ch, run = build_configs({"schemes": "bs_ue_zf", "trials": "1"})
    summary = run_sweep(run, cfg, ch)
    assert len(ranks) == len(summary.trials) > 0
    assert len(solves) == len(factors) == len(right_inverses) + len(ranks)
    assert numpy_solves == inverses == []


def test_emit_headers_and_row_counts(tmp_path):
    cfg, ch, run = _configs({"sweep_m": "16,32", "sweep_n": "1",
                             "schemes": "bs_ue_zf", "phase_rules": "random"})
    summary = run_sweep(run, cfg, ch)
    emit_outputs(summary, str(tmp_path))
    s_lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert s_lines[0] == SUMMARY_CSV_HEADER
    assert len(s_lines) == 1 + 2
    t_lines = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert t_lines[0] == TRIAL_CSV_HEADER
    assert len(t_lines) == 1 + 2 * 2
    p_lines = (tmp_path / "plotdata_bs_ue_zf.csv").read_text().strip().split("\n")
    assert p_lines[0] == PLOTDATA_CSV_HEADER
    assert len(p_lines) == 1 + 2
    assert not (tmp_path / "plotdata_bs_ris_zf.csv").exists()


def test_trials_csv_reports_phase_solver_convergence(tmp_path):
    cfg, ch, run = _configs({"sweep_m": "32", "sweep_n": "4"})
    emit_outputs(run_sweep(run, cfg, ch), str(tmp_path))
    lines = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert lines[0].endswith(",seed,phase_iterations,phase_converged,fixed_point_residual")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    residuals = {}
    for r in rows:
        key = (r["scheme"], r["phase_rule"])
        iters, residual = int(r["phase_iterations"]), float(r["fixed_point_residual"])
        converged = r["phase_converged"]
        residuals.setdefault(key, []).append(residual)
        if key == ("bs_ue_zf", "asymptotic"):
            assert 1 <= iters < 500 and residual <= 1e-8 and converged == "1"
        elif key == ("bs_ue_zf", "optimal"):
            # the alternating optimizer stops on a phase change below 1e-6
            assert 1 <= iters <= 20
            assert converged == ("1" if residual < 1e-6 else "0")
        else:
            assert (iters, converged, residual) == (0, "1", 0.0)
    assert len(residuals) == 6
    # the iterative rules write their own residuals, not placeholders
    assert max(residuals["bs_ue_zf", "asymptotic"]) > 0.0
    assert max(residuals["bs_ue_zf", "optimal"]) > 0.0


def test_emit_deletes_plot_data_of_a_scheme_the_run_lacks(tmp_path):
    # a later run into the same directory leaves no curve of an earlier one
    cfg, ch, run = _configs({"sweep_m": "32", "sweep_n": "1", "phase_rules": "random",
                             "trials": "1"})
    summary = run_sweep(run, cfg, ch)
    emit_outputs(summary, str(tmp_path))
    assert (tmp_path / "plotdata_bs_ris_zf.csv").exists()
    ue_only = SweepSummary(points=summary.points[:1], trials=summary.trials[:1])
    written = emit_outputs(ue_only, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in written) == [
        "plotdata_bs_ue_zf.csv", "summary.csv", "trials.csv"]


def test_emit_empty_summary_writes_header_only(tmp_path):
    emit_outputs(SweepSummary(points=(), trials=()), str(tmp_path))
    assert (tmp_path / "summary.csv").read_text() == SUMMARY_CSV_HEADER + "\n"
    assert (tmp_path / "trials.csv").read_text() == TRIAL_CSV_HEADER + "\n"


def test_trials_csv_columns_are_trial_result_fields():
    assert TRIAL_CSV_HEADER.split(",") == [f.name for f in fields(TrialResult)]


def test_summary_csv_columns_pair_with_point_summary_fields():
    # derived from the fields, and pinned to the columns summary.csv has always had
    assert SUMMARY_CSV_HEADER == (
        "scheme,phase_rule,M,N,csi_tau,status,trials,failures,"
        "mean_sum_rate,stderr_sum_rate,analytic_sum_rate,analytic_stderr,note"
    )


def test_every_csv_cell_follows_one_rule():
    cells = [True, np.bool_(False), np.int64(3), 7, np.float64(0.1), 2.5e-07, math.nan,
             "a,b\nc"]
    assert [harness._csv_cell(v) for v in cells] == ["1", "0", "3", "7", "0.1", "2.5e-07", "",
                                                     "a;b c"]


def test_single_trial_point_writes_no_standard_error(tmp_path):
    cfg, ch, run = _configs({"sweep_m": "32", "sweep_n": "1", "schemes": "bs_ris_zf",
                             "phase_rules": "optimal", "trials": "1"})
    summary = run_sweep(run, cfg, ch)
    (p,) = summary.points
    assert p.trials == 1
    assert math.isnan(p.stderr_sum_rate) and math.isnan(p.analytic_stderr)
    emit_outputs(summary, str(tmp_path))
    header, line = (tmp_path / "summary.csv").read_text().strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    assert row["stderr_sum_rate"] == row["analytic_stderr"] == ""
    assert float(row["mean_sum_rate"]) == p.mean_sum_rate
    plot = (tmp_path / "plotdata_bs_ris_zf.csv").read_text().strip().split("\n")[1:]
    assert [r.rsplit(",", 1)[1] for r in plot] == ["", ""]


def test_runconfig_with_no_schemes_yields_empty_grid():
    run = replace(build_configs({})[2], schemes=())
    assert enumerate_grid(run) == []


def _blas_threads():
    get_threads = harness._openblas_thread_controls()[0]
    return get_threads()


def _os_threads_settled(want):
    """This process's OS threads once they number `want`, or after 2 s;
    None where no /proc/self/task counts them. A joined thread's entry
    can outlast pthread_join by a moment."""
    if not os.path.isdir("/proc/self/task"):
        return None
    deadline = time.monotonic() + 2.0
    while (n := len(os.listdir("/proc/self/task"))) != want and time.monotonic() < deadline:
        time.sleep(0.001)
    return n


def _threads_in_worker(args):
    # stands in for harness._run_point_star inside the pool's workers
    return (_blas_threads(), _os_threads_settled(1)), []


def _no_helper_shutdown_check():
    """Why OS threads cannot show the helper shutdown here, or None."""
    controls = harness._openblas_thread_controls()
    if controls is None or controls[2] is None:
        return "numpy's BLAS exports no blas_thread_shutdown_ here"
    if not os.path.isdir("/proc/self/task"):
        return "no /proc/self/task to count OS threads"
    return None


@pytest.fixture
def openblas_at_two_threads():
    """numpy's bundled OpenBLAS set to 2 threads; the count is restored after."""
    controls = harness._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy bundles no OpenBLAS here; run_sweep leaves "
                    "other BLAS builds alone")
    get_threads, set_threads, *_ = controls
    saved = get_threads()
    set_threads(2)
    assert _blas_threads() == 2
    yield
    set_threads(saved)


def test_serial_sweep_runs_on_one_blas_thread_and_restores_the_count(
    openblas_at_two_threads, monkeypatch
):
    seen = []
    real = harness.run_point

    def recording(*args):
        seen.append(_blas_threads())
        return real(*args)

    monkeypatch.setattr(harness, "run_point", recording)
    cfg, ch, run = _configs({"sweep_m": "16", "sweep_n": "1"})
    summary = run_sweep(run, cfg, ch)
    assert len(seen) == len(summary.points) == 6
    assert all(s == 1 for s in seen)
    assert _blas_threads() == 2


def test_serial_sweep_restores_blas_threads_when_a_point_raises(
    openblas_at_two_threads, monkeypatch
):
    def failing(*args):
        raise RuntimeError("forced point failure")

    monkeypatch.setattr(harness, "run_point", failing)
    cfg, ch, run = _configs({"sweep_m": "16", "sweep_n": "1"})
    with pytest.raises(RuntimeError, match="forced point failure"):
        run_sweep(run, cfg, ch)
    assert _blas_threads() == 2


def test_pool_workers_run_on_one_blas_thread(openblas_at_two_threads, monkeypatch):
    # workers start from a parent at 2 threads, so only the pool's
    # initializer can bring them to 1; its helper shutdown also leaves
    # each worker one OS thread
    monkeypatch.setattr(harness, "_run_point_star", _threads_in_worker)
    cfg, ch, run = _configs({"sweep_m": "16", "sweep_n": "1"})
    summary = run_sweep(replace(run, threads=2), cfg, ch)
    blas_threads, os_threads = zip(*summary.points)
    assert blas_threads == (1,) * 6
    if _no_helper_shutdown_check() is None:
        assert os_threads == (1,) * 6
    assert _blas_threads() == 2


_THREADS_AROUND_PIN = """
import os, sys, time
tasks = lambda: len(os.listdir("/proc/self/task"))
before_numpy = tasks()
import numpy as np
import riszf.harness as harness
if sys.argv[1] == "set_threads":
    # a build that does not export blas_cpu_number
    controls = harness._openblas_thread_controls()
    harness._openblas_thread_controls = lambda: (*controls[:3], None)
get_threads = harness._openblas_thread_controls()[0]
loaded, saved = tasks(), get_threads()
restore = harness._pin_one_blas_thread()
# a joined thread's entry can outlast pthread_join by a moment
deadline = time.monotonic() + 2.0
while tasks() != before_numpy and time.monotonic() < deadline:
    time.sleep(0.001)
pinned, pinned_count = tasks(), get_threads()
restore()
restored, restored_count = tasks(), get_threads()
a = np.linspace(-1.0, 1.0, 600 * 600).reshape(600, 600)
product_holds = int(np.array_equal(a @ a, np.dot(a, a)))
print(before_numpy, loaded, saved, pinned, pinned_count, restored, restored_count,
      product_holds, tasks())
"""


@pytest.mark.parametrize(
    "env, route",
    [(None, "blas_cpu_number"), ("1", "blas_cpu_number"), (None, "set_threads"), ("1", "set_threads")],
    ids=["env_unset", "env_one_thread", "env_unset-set_threads", "env_one_thread-set_threads"],
)
def test_pin_stops_the_helper_threads_numpy_started_and_restore_gives_the_count_back(
    env, route
):
    if reason := _no_helper_shutdown_check():
        pytest.skip(reason)
    if route == "blas_cpu_number" and harness._openblas_thread_controls()[3] is None:
        pytest.skip("numpy's BLAS exports no blas_cpu_number here")
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if env is not None:
        environ["OPENBLAS_NUM_THREADS"] = env
    src = os.path.dirname(os.path.dirname(harness.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AROUND_PIN, route],
        env={**environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    (before_numpy, loaded, saved, pinned, pinned_count, restored, restored_count,
     product_holds, after_product) = map(int, proc.stdout.split())
    # loading numpy at a count above 1 starts helpers the pin has to stop
    assert (loaded > before_numpy) == (saved > 1)
    assert (pinned, pinned_count) == (before_numpy, 1)
    assert restored_count == saved
    # writing blas_cpu_number leaves the helpers stopped; set_num_threads
    # starts them at once
    assert restored == (pinned if route == "blas_cpu_number" else loaded)
    # the next threaded product runs, correct, and starts them again
    assert product_holds == 1
    assert after_product == loaded


_FAULTS_AFTER_PIN = """
import resource
import numpy as np
import riszf.beamform as beamform
import riszf.harness as harness
harness._pin_one_blas_thread()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    # three 256 KiB temporaries at once, as in an M=256 trial
    a, b, c = (np.ones(1 << 14, dtype=complex) for _ in range(3))
    del a, b, c
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_pinned_process_reuses_heap_for_large_temporaries():
    # without the allocator warm-up the loop takes about 16k minor faults:
    # each round's freed temporaries are trimmed from the heap and faulted in again
    src = os.path.dirname(os.path.dirname(harness.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_AFTER_PIN],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(proc.stdout) < 1000


def test_importing_the_cli_loads_no_process_pool(modules_after_import):
    # a serial sweep never starts the pool, so nothing loads its modules
    loaded = [
        m
        for m in modules_after_import
        if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"
    ]
    assert loaded == []


def test_importing_the_cli_loads_no_numpy_random(modules_after_import):
    # numpy.random loads at a sweep's first draw, so the commands that draw
    # nothing (validate, complexity) never pay for it; a module-level use
    # of np.random in riszf would load it at import
    assert [m for m in modules_after_import if m.startswith("numpy.random")] == []
