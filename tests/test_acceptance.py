"""End-to-end acceptance suite.

Each criterion prints exactly one pass/fail line with its measured
numbers. Statistical criteria run at an operating point whose link and
noise scales are unity, which keeps SINRs in a plotted-figure range and
keeps near-machine-precision identity checks meaningful; absolute scales
are otherwise free parameters of the model.
"""

import time
from dataclasses import replace

import numpy as np

from riszf.beamform import (
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    gamma_matrix,
    stack_bs_ris,
    stack_bs_ue,
)
from riszf.channel import complex_normal, spawn_rng
from riszf.harness import emit_outputs, run_sweep
from riszf.metrics import complexity_counts, rank_diagnostics, sinr_bs_ris_zf
from riszf.phaseopt import (
    asymptotic_phase_config_bs_ue_zf,
    optimal_phases_bs_ris_zf,
    quadratic_form_objective,
    random_phases,
)
from riszf.schedule import ProbeTable, ScheduleParams, schedule
from riszf.sysconfig import build_configs, default_configs
from support import UNIT_SCALE, draw

NULLING_TOL = 1e-9
GRID_REL_TOL = 1e-3
GAP_CEILING = 0.05
TRACKING_REL_TOL = 0.02
ANALYTIC_SE_FACTOR = 2.0
CI_Z = 1.96

UNIT_NOISE = {
    "noise_variance_blocked": "1.0",
    "noise_variance_direct": "1.0",
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_ue_side_nulling():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        chs = draw({"sweep_m": "32", "sweep_n": "4"}, seed=100 + i)
        phases = random_phases(chs.cfg, seed=1100 + i)
        W = bs_ue_zf_precoder(chs, phases)
        E = stack_bs_ue(chs, phases) @ W - np.eye(6)
        worst = max(worst, float(np.abs(E).max()))
    dt = time.time() - t0
    ok = worst < NULLING_TOL and dt < 10.0
    _report(1, "ue-side nulling", ok,
            f"max residual {worst:.2e} over 100 instances, {dt:.1f}s")


def test_criterion_02_ris_side_constraints():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        chs = draw({"sweep_m": "40", "sweep_n": "4"}, seed=200 + i)
        W = bs_ris_zf_precoder(chs)
        cfg = chs.cfg
        target = gamma_matrix(cfg.N, cfg.K, cfg.U_d)
        E = stack_bs_ris(chs) @ W - target
        worst = max(worst, float(np.abs(E).max()))
    dt = time.time() - t0
    ok = worst < NULLING_TOL and dt < 20.0
    _report(2, "ris-side constraints", ok,
            f"max residual {worst:.2e} over 100 instances, {dt:.1f}s")


def test_criterion_03_phase_grid_oracle():
    t0 = time.time()
    kv = {"sweep_m": "8", "sweep_n": "2", "k": "1", "u_d": "1"}
    deg = np.deg2rad(np.arange(360))
    worst_closed = 0.0
    worst_fixed = 0.0
    for s in range(20):
        chs = draw(kv, seed=300 + s)
        cfg = chs.cfg
        sigma2 = cfg.noise_variance_blocked[0]

        W = bs_ris_zf_precoder(chs)
        align = chs.h_block(0).conj() * (chs.H[0].conj().T @ W[:, 0])
        gain = np.abs(
            np.add.outer(np.exp(1j * deg) * align[0], np.exp(1j * deg) * align[1])
        ) ** 2
        grid_best = float(gain.max()) / sigma2
        closed = sinr_bs_ris_zf(chs, optimal_phases_bs_ris_zf(chs), 0)
        worst_closed = max(worst_closed, abs(closed - grid_best) / grid_best)

        h, R = chs.h_block(0), chs.R
        phases = asymptotic_phase_config_bs_ue_zf(chs)[0][0]
        val = quadratic_form_objective(h, R, phases)
        y1 = np.exp(-1j * deg) * h[0]
        y2 = np.exp(-1j * deg) * h[1]
        cross = 2.0 * np.real(R[0, 1] * np.multiply.outer(y1.conj(), y2))
        obj_grid = (
            R[0, 0] * abs(h[0]) ** 2 + R[1, 1] * abs(h[1]) ** 2 + cross
        )
        grid_obj = float(obj_grid.max())
        worst_fixed = max(worst_fixed, abs(val - grid_obj) / grid_obj)
    dt = time.time() - t0
    ok = worst_closed < GRID_REL_TOL and worst_fixed < GRID_REL_TOL and dt < 60.0
    _report(3, "phase rules vs 1-degree grid", ok,
            f"closed-form off by {worst_closed:.1e}, fixed point by "
            f"{worst_fixed:.1e}, {dt:.1f}s")


def test_criterion_04_random_phases_catch_up_without_correlation():
    t0 = time.time()
    kv = dict(UNIT_SCALE)
    kv.update(UNIT_NOISE)
    kv.update({
        "sweep_m": "16,256",
        "sweep_n": "4",
        "schemes": "bs_ue_zf",
        "phase_rules": "optimal,random",
        "trials": "300",
        "correlation_model": "iid",
        "power_mode": "sum_power_normalized",
    })
    cfg, ch, run = build_configs(kv)
    summary = run_sweep(run, cfg, ch)
    means = {(p.phase_rule, p.M): p.mean_sum_rate for p in summary.points}
    gap16 = (means[("optimal", 16)] - means[("random", 16)]) / means[("optimal", 16)]
    gap256 = (means[("optimal", 256)] - means[("random", 256)]) / means[("optimal", 256)]
    dt = time.time() - t0
    ok = gap256 < gap16 and gap256 < GAP_CEILING and dt < 180.0
    _report(4, "iid rate gap shrinks with antennas", ok,
            f"gap {gap16:.2%} at M=16 vs {gap256:.2%} at M=256, {dt:.1f}s")


def test_criterion_05_asymptotic_tracking():
    t0 = time.time()
    kv = {
        "sweep_m": "40,64,256",
        "sweep_n": "4",
        "schemes": "bs_ris_zf",
        "phase_rules": "optimal,asymptotic",
        "trials": "300",
    }
    cfg, ch, run = build_configs(kv)
    summary = run_sweep(run, cfg, ch)
    by = {(p.phase_rule, p.M): p for p in summary.points}
    rel40 = abs(by[("asymptotic", 40)].mean_sum_rate
                - by[("optimal", 40)].mean_sum_rate) / by[("optimal", 40)].mean_sum_rate
    rel64 = abs(by[("asymptotic", 64)].mean_sum_rate
                - by[("optimal", 64)].mean_sum_rate) / by[("optimal", 64)].mean_sum_rate
    p256 = by[("optimal", 256)]
    analytic_gap = abs(p256.analytic_sum_rate - p256.mean_sum_rate)
    se_bound = ANALYTIC_SE_FACTOR * p256.stderr_sum_rate
    dt = time.time() - t0
    ok = (rel40 < TRACKING_REL_TOL and rel64 < TRACKING_REL_TOL
          and analytic_gap <= se_bound and dt < 180.0)
    _report(5, "asymptotic phases track optimal", ok,
            f"rel gap {rel40:.1e} (M=40), {rel64:.1e} (M=64); analytic curve "
            f"off by {analytic_gap:.1e} vs 2SE={se_bound:.1e}, {dt:.1f}s")


def test_criterion_06_rate_grows_with_elements():
    t0 = time.time()
    kv = dict(UNIT_SCALE)
    kv.update(UNIT_NOISE)
    kv.update({
        "sweep_m": "128",
        "sweep_n": "1,4,8",
        "schemes": "bs_ue_zf",
        "phase_rules": "optimal",
        "trials": "300",
        "power_mode": "sum_power_normalized",
    })
    cfg, ch, run = build_configs(kv)
    summary = run_sweep(run, cfg, ch)
    stats = {p.N: (p.mean_sum_rate, p.stderr_sum_rate) for p in summary.points}
    ordered = all(
        stats[a][0] + CI_Z * stats[a][1] < stats[b][0] - CI_Z * stats[b][1]
        for a, b in ((1, 4), (4, 8))
    )
    dt = time.time() - t0
    ok = ordered and dt < 180.0
    _report(6, "rate grows with elements", ok,
            "means " + ", ".join(f"N={n}: {stats[n][0]:.2f}" for n in (1, 4, 8))
            + f", disjoint 95% intervals={ordered}, {dt:.1f}s")


def test_criterion_07_complexity_orders():
    ok = True
    for (K, U_b, U_d) in ((4, 4, 2), (3, 5, 1), (2, 2, 4)):
        for N in (1, 3, 8):
            counts = [complexity_counts(M, N, K, U_b, U_d) for M in range(4, 40, 4)]
            for j in (0, 1):
                seq = [c[j] for c in counts]
                d2 = [seq[i + 2] - 2 * seq[i + 1] + seq[i] for i in range(len(seq) - 2)]
                ok = ok and all(v == 0 for v in d2)
        for M in (16, 64):
            ue = [complexity_counts(M, N, K, U_b, U_d)[0] for N in range(1, 12)]
            d3 = [ue[i + 3] - 3 * ue[i + 2] + 3 * ue[i + 1] - ue[i]
                  for i in range(len(ue) - 3)]
            d2 = [ue[i + 2] - 2 * ue[i + 1] + ue[i] for i in range(len(ue) - 2)]
            ok = ok and all(v == 0 for v in d3) and d2[0] > 0 and len(set(d2)) == 1
            ris = [complexity_counts(M, N, K, U_b, U_d)[1] for N in range(1, 12)]
            d4 = [ris[i + 4] - 4 * ris[i + 3] + 6 * ris[i + 2] - 4 * ris[i + 1] + ris[i]
                  for i in range(len(ris) - 4)]
            d3r = [ris[i + 3] - 3 * ris[i + 2] + 3 * ris[i + 1] - ris[i]
                   for i in range(len(ris) - 3)]
            ok = ok and all(v == 0 for v in d4) and d3r[0] > 0 and len(set(d3r)) == 1
    _report(7, "complexity polynomial orders", ok,
            "linear in M both schemes; quadratic/cubic in N, integer-exact")


def test_criterion_08_stack_rank_bound():
    t0 = time.time()
    base = draw({"sweep_m": "32", "sweep_n": "4", "k": "3"}, seed=800, unit=False)
    N, K, M = base.cfg.N, base.cfg.K, base.cfg.M
    violations = 0
    slack = 0
    for i in range(200):
        rng = spawn_rng(801, i)
        ranks = [int(r) for r in rng.integers(1, N + 1, size=K)]
        H = np.empty_like(base.H)
        for k, r in enumerate(ranks):
            D = complex_normal(rng, (N, r)) @ complex_normal(rng, (r, N))
            H[k] = complex_normal(rng, (M, N)) @ D
        chs = replace(base, H=H)
        rank, bound, holds = rank_diagnostics(chs, corr_ranks=ranks)
        violations += 0 if holds else 1
        slack += bound - rank
    dt = time.time() - t0
    ok = violations == 0 and dt < 30.0
    _report(8, "stacked-rank bound", ok,
            f"{violations} violations in 200 instances "
            f"(mean slack {slack / 200:.2f}), {dt:.1f}s")


def test_criterion_09_scheduling_traces():
    ok = True
    t = ProbeTable(powers=np.array(
        [[0.1, 0.3, 0.9], [0.2, 0.1, 0.4], [0.6, 0.2, 0.3]]))
    out = schedule(t, ScheduleParams(U_max=2, p_min=0.5))
    ok = ok and out.scheduled == (2, 0) and out.assignment == {2: 0, 0: 2}
    out = schedule(t, ScheduleParams(U_max=3, p_min=1.0))
    ok = ok and out.scheduled == () and out.assignment == {}
    out = schedule(t, ScheduleParams(U_max=9, p_min=0.0))
    ok = ok and sorted(out.scheduled) == [0, 1, 2]

    rng = np.random.default_rng(9)
    for _ in range(20):
        table = ProbeTable(powers=rng.uniform(size=(4, 6)))
        prev = None
        for p_min in np.linspace(1.0, 0.0, 9):
            cur = set(schedule(table, ScheduleParams(4, float(p_min))).scheduled)
            ok = ok and (prev is None or prev <= cur)
            prev = cur
        prev = None
        for u_max in range(1, 8):
            cur = set(schedule(table, ScheduleParams(u_max, 0.3)).scheduled)
            ok = ok and (prev is None or prev <= cur)
            prev = cur
    _report(9, "scheduling traces", ok,
            "3 worked examples plus threshold/cap monotonicity over 20 tables")


def test_criterion_10_sweep_determinism(tmp_path):
    t0 = time.time()
    cfg, ch, run = default_configs()
    texts = []
    for threads, sub in ((1, "a"), (2, "b")):
        out = tmp_path / sub
        summary = run_sweep(replace(run, threads=threads), cfg, ch)
        emit_outputs(summary, str(out))
        texts.append((out / "summary.csv").read_bytes())
    dt = time.time() - t0
    ok = texts[0] == texts[1] and dt < 300.0
    _report(10, "sweep determinism across thread counts", ok,
            f"summary.csv byte-identical={texts[0] == texts[1]}, {dt:.1f}s")
