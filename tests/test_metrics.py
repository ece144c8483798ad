"""SINR evaluation, rates, complexity counts, and rank diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

import riszf.beamform as beamform
import riszf.metrics as metrics
from riszf.beamform import (
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    normalize_power,
    stack_bs_ris,
)
from riszf.channel import (
    apply_estimation_error,
    complex_normal,
    sample_channels,
    spawn_rng,
)
from riszf.metrics import (
    RANK_SV_THRESHOLD,
    TRIAL_CSV_HEADER,
    TrialResult,
    complexity_counts,
    effective_matrix,
    nulling_residual,
    rank_diagnostics,
    rank_q2,
    sinr_bs_ris_zf,
    sinr_exact,
    sum_rate,
    trial_csv_row,
)
from riszf.phaseopt import optimal_phases_bs_ris_zf, random_phases
from riszf.sysconfig import build_configs

_LAMBDA = 299_792_458.0 / 1.8e9
UNIT_SCALE = {
    "attenuation_mu_lambda2_db": "0.0",
    "element_area": str(_LAMBDA * _LAMBDA),
    "ris_ue_link_variance": "1.0",
    "direct_link_variance": "1.0",
}


def _draw(overrides, seed=0, unit=True):
    kv = dict(UNIT_SCALE) if unit else {}
    kv.update(overrides)
    cfg, ch, _ = build_configs(kv)
    return sample_channels(cfg, ch, spawn_rng(seed, 0))


def test_bs_ue_zf_sinr_is_inverse_noise():
    chs = _draw({"m": "32", "n": "4", "k": "4", "u_d": "2", "noise_variance_blocked": "0.5", "noise_variance_direct": "0.25"})
    phases = random_phases(chs.cfg, seed=3)
    W = bs_ue_zf_precoder(chs, phases)
    sb, sd = sinr_exact(chs, phases, W, chs.cfg)
    np.testing.assert_allclose(sb, 2.0, rtol=1e-9)
    np.testing.assert_allclose(sd, 4.0, rtol=1e-9)


def test_bs_ue_zf_sinr_at_physical_scales_near_inverse_noise():
    # the ~90 dB scale spread leaves float64 interference crumbs under the
    # direct UEs; they stay a small fraction of the noise floor
    chs = _draw({"m": "32"}, unit=False)
    phases = random_phases(chs.cfg, seed=3)
    W = bs_ue_zf_precoder(chs, phases)
    sb, sd = sinr_exact(chs, phases, W, chs.cfg)
    target = 1.0 / chs.cfg.noise_variance_blocked[0]
    np.testing.assert_allclose(np.concatenate([sb, sd]), target, rtol=0.2)


def test_zero_precoder_gives_zero_sinr():
    chs = _draw({"m": "16", "n": "2", "k": "2", "u_d": "1"})
    W = np.zeros((16, 3), dtype=complex)
    sb, sd = sinr_exact(chs, np.zeros((2, 2)), W, chs.cfg)
    assert np.all(sb == 0) and np.all(sd == 0)


def test_single_ue_no_interference_matches_direct_formula():
    chs = _draw({"m": "8", "n": "2", "k": "1", "u_d": "0", "noise_variance_blocked": "2.0"})
    phases = np.zeros((1, 2))
    rng = spawn_rng(7)
    w = complex_normal(rng, (8, 1))
    sb, sd = sinr_exact(chs, phases, w, chs.cfg)
    row = effective_matrix(chs, phases, w)
    assert sd.size == 0
    assert sb[0] == pytest.approx(abs(row[0, 0]) ** 2 / 2.0, rel=1e-12)


def test_sinr_scales_with_beta_under_normalization():
    kv = {"m": "24", "n": "2", "k": "2", "u_d": "1", "power_mode": "sum_power_normalized", "noise_variance_blocked": "1e-3", "noise_variance_direct": "1e-3"}
    chs = _draw(kv)
    phases = random_phases(chs.cfg, seed=1)
    W = bs_ue_zf_precoder(chs, phases)
    W2, beta = normalize_power(W, chs.cfg)
    sb, sd = sinr_exact(chs, phases, W2, chs.cfg)
    np.testing.assert_allclose(
        np.concatenate([sb, sd]), beta**2 / 1e-3, rtol=1e-9
    )


def test_ris_zf_sinr_consistency_between_routes():
    kv = {"m": "24", "n": "4", "k": "2", "u_d": "2", "noise_variance_blocked": "1.0", "noise_variance_direct": "1.0"}
    chs = _draw(kv, seed=5)
    phases = optimal_phases_bs_ris_zf(chs)
    W = bs_ris_zf_precoder(chs)
    sb, _ = sinr_exact(chs, phases, W, chs.cfg)
    for k in range(chs.cfg.K):
        closed = sinr_bs_ris_zf(chs, phases, k, 1.0)
        assert closed == pytest.approx(sb[k], rel=1e-8)


def test_ris_zf_sinr_consistency_at_physical_scales():
    chs = _draw({"m": "40"}, seed=6, unit=False)
    phases = optimal_phases_bs_ris_zf(chs)
    W = bs_ris_zf_precoder(chs)
    sb, _ = sinr_exact(chs, phases, W, chs.cfg)
    for k in range(chs.cfg.K):
        closed = sinr_bs_ris_zf(chs, phases, k, chs.cfg.noise_variance_blocked[k])
        assert closed == pytest.approx(sb[k], rel=1e-6)


def test_ris_zf_sinr_invariant_to_global_phase_rotation():
    chs = _draw({"m": "24", "n": "4", "k": "2", "u_d": "1"}, seed=9)
    phases = optimal_phases_bs_ris_zf(chs)
    base = sinr_bs_ris_zf(chs, phases, 0, 1.0)
    rotated = phases.copy()
    rotated[0] += 1.234
    assert sinr_bs_ris_zf(chs, rotated, 0, 1.0) == pytest.approx(base, rel=1e-12)


def test_sum_rate_exact_values():
    assert sum_rate([1.0]) == pytest.approx(1.0, rel=1e-15)
    assert sum_rate([0.0, 0.0]) == 0.0
    assert sum_rate([3.0, 7.0]) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        sum_rate([-0.1])
    # monotone in each entry
    assert sum_rate([2.0, 5.0]) < sum_rate([2.0, 5.5])


def test_nulling_residual_perfect_vs_estimated_csi():
    kv = {"m": "24", "n": "2", "k": "2", "u_d": "1"}
    chs = _draw(kv, seed=12)
    phases = random_phases(chs.cfg, seed=2)
    W = bs_ue_zf_precoder(chs, phases)
    assert nulling_residual(chs, phases, W, chs.cfg) < 1e-10
    noisy = apply_estimation_error(chs, 0.2, seed=77)
    W_hat = bs_ue_zf_precoder(noisy, phases)
    # precoder nulls the estimated channels; true leakage is visible
    assert nulling_residual(chs, phases, W_hat, chs.cfg) > 1e-3


def test_complexity_formula_values_and_orders():
    ue, ris = complexity_counts(M=1, N=1, K=1, U_b=1, U_d=0)
    assert ue == 7
    assert ris == 7
    # exact second difference in M vanishes for both schemes
    for N in (1, 4, 8):
        c = [complexity_counts(M, N, 4, 4, 2) for M in (8, 16, 24, 32)]
        for j in (0, 1):
            d2 = c[2][j] - 2 * c[1][j] + c[0][j]
            d2b = c[3][j] - 2 * c[2][j] + c[1][j]
            assert d2 == 0 and d2b == 0
    # UE-side: quadratic in N (third difference zero, second positive)
    cu = [complexity_counts(64, N, 4, 4, 2)[0] for N in (1, 2, 3, 4, 5)]
    d3 = [cu[i + 3] - 3 * cu[i + 2] + 3 * cu[i + 1] - cu[i] for i in range(2)]
    assert d3 == [0, 0]
    assert cu[2] - 2 * cu[1] + cu[0] > 0
    # RIS-side: cubic in N (fourth difference zero, third positive)
    cr = [complexity_counts(64, N, 4, 4, 2)[1] for N in (1, 2, 3, 4, 5)]
    d4 = cr[4] - 4 * cr[3] + 6 * cr[2] - 4 * cr[1] + cr[0]
    d3r = cr[3] - 3 * cr[2] + 3 * cr[1] - cr[0]
    assert d4 == 0
    assert d3r > 0


def test_complexity_monotone_and_d_token_audit():
    base = complexity_counts(32, 4, 4, 4, 2)
    for bump in (
        complexity_counts(33, 4, 4, 4, 2),
        complexity_counts(32, 5, 4, 4, 2),
        complexity_counts(32, 4, 5, 4, 2),
        complexity_counts(32, 4, 4, 5, 2),
        complexity_counts(32, 4, 4, 4, 3),
    ):
        assert bump[0] >= base[0] and bump[1] > base[1] - 1
    # the ambiguous token only perturbs one quadratic term
    default = complexity_counts(32, 4, 4, 4, 2)[1]
    audited = complexity_counts(32, 4, 4, 4, 2, d_token=0)[1]
    s2 = 4 * 4 + 2
    assert default - audited == 4 * 2 * s2**2


def test_rank_diagnostics_full_and_deficient(svd_calls):
    chs = _draw({"m": "32", "n": "4", "k": "2", "u_d": "2"}, seed=2)
    rank, bound, holds = rank_diagnostics(chs, corr_ranks=[4, 4])
    assert (rank, bound, holds) == (10, 10, True)

    # force rank-1 BS-RIS blocks through an all-ones correlation root
    S1 = np.ones((4, 4)) / 2.0
    rng = spawn_rng(3)
    H = np.empty_like(chs.H)
    for k in range(2):
        H[k] = complex_normal(rng, (32, 4)) @ S1
    low = replace(chs, H=H, C=np.ones((4, 4)), sqrt_C=S1)
    rank, bound, holds = rank_diagnostics(low, corr_ranks=[1, 1])
    assert bound == 4
    assert holds
    assert rank == 4
    svd_calls.clear()
    assert rank_q2(low) == 4
    assert svd_calls == [(10, 32)]  # the bound cannot decide a rank-deficient stack


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts np.linalg.svd calls, which rank_q2 makes only when its bound declines."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _svd_rank(chs):
    """The SVD count rank_q2 reports when its bound declines."""
    sv = np.linalg.svd(stack_bs_ris(chs), compute_uv=False)
    return int(np.count_nonzero(sv > RANK_SV_THRESHOLD * sv[0]))


@pytest.mark.parametrize("scipy_route", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("m", [4, 6, 8, 18, 34, 64, 256])
def test_rank_q2_bound_matches_svd_count(m, n, scipy_route, svd_calls, monkeypatch):
    # K=4, U_d=2 stacks 4n+2 rows: fewer than, as many as (6, 18, 34) and
    # more than the m columns; physical link scales spread the row norms
    if scipy_route:  # the factor as it runs when numpy bundles no OpenBLAS
        monkeypatch.setattr(beamform, "numpy_openblas", lambda: None)
    for seed in (0, 1):
        chs = _draw({"m": str(m), "n": str(n)}, seed=seed, unit=False)
        rank = rank_q2(chs)
        assert svd_calls == []  # the bound decided
        assert rank == _svd_rank(chs) == min(stack_bs_ris(chs).shape)
        svd_calls.clear()


@pytest.mark.parametrize("m, n", [(18, 1), (18, 2), (34, 8), (8, 8)])
def test_rank_q2_near_rank_deficient_correlation_falls_back_to_svd(m, n, svd_calls):
    # elements 1 um apart are almost fully correlated: at n=1 the row norms
    # spread by about 1e9, so the bound exceeds RANK_BOUND_LIMIT (by less
    # than 10x); at n=2 the Gram bound exceeds COND_BOUND_LIMIT, and at
    # n=8 the factor fails. Each time the SVD counts
    chs = _draw({"m": str(m), "n": str(n), "element_spacing": "1e-6"}, unit=False)
    rank = rank_q2(chs)
    assert svd_calls == [stack_bs_ris(chs).shape]
    assert rank == _svd_rank(chs)



@pytest.mark.parametrize("scipy_route", [False, True])
@pytest.mark.parametrize("rows, m", [(3, 8), (6, 6), (10, 64), (34, 256), (40, 8)])
def test_rank_q2_nearly_dependent_stack_falls_back_to_svd(
    rows, m, scipy_route, svd_calls, monkeypatch
):
    # the last row (the last column when rows > m) is the first plus 1e-13
    # times a random one: σmin/σmax is about 1e-13, so the SVD drops it. The
    # computed Gram matrix has λmin at the rounding floor and its factor
    # often succeeds; forming it squares the ratio past what a double can
    # resolve, so its bound is not trusted and the SVD decides
    if scipy_route:
        monkeypatch.setattr(beamform, "numpy_openblas", lambda: None)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        Q = complex_normal(rng, (rows, m))
        if rows <= m:
            Q[-1] = Q[0] + 1e-13 * complex_normal(rng, m)
        else:
            Q[:, -1] = Q[:, 0] + 1e-13 * complex_normal(rng, rows)
        monkeypatch.setattr(metrics, "stack_bs_ris", lambda chs, Q=Q: Q)
        sv = np.linalg.svd(Q, compute_uv=False)
        svd_calls.clear()
        assert rank_q2(None) == np.count_nonzero(sv > RANK_SV_THRESHOLD * sv[0])
        assert svd_calls == [Q.shape]

def test_rank_diagnostics_single_identity_block():
    chs = _draw({"m": "16", "n": "4", "k": "1", "u_d": "0", "correlation_model": "iid"}, seed=4)
    rank, bound, holds = rank_diagnostics(chs, corr_ranks=[4])
    assert (rank, bound, holds) == (4, 4, True)


def test_trial_csv_schema():
    assert TRIAL_CSV_HEADER == (
        "trial,scheme,phase_rule,M,N,K,U_d,csi_tau,"
        "sinr_min,sinr_max,sum_rate,nulling_residual,rank_q2,seed,"
        "phase_iterations,phase_converged,fixed_point_residual"
    )
    t = TrialResult(
        sinr_blocked=np.array([2.0, 3.0]),
        sinr_direct=np.array([1.0]),
        sum_rate=4.584962500721156,
        nulling_residual=0.0,
        fixed_point_residual=2.5e-07,
        phase_iterations=6,
        phase_converged=False,
        rank_q2=10,
        seed=42,
        trial=7,
        scheme="bs_ue_zf",
        phase_rule="optimal",
        M=32,
        N=4,
        K=2,
        U_d=1,
        csi_tau=0.0,
    )
    row = trial_csv_row(t)
    fields = row.split(",")
    assert len(fields) == len(TRIAL_CSV_HEADER.split(","))
    assert fields[0] == "7"
    assert fields[1] == "bs_ue_zf"
    assert fields[8] == "1.0"  # sinr_min
    assert fields[9] == "3.0"  # sinr_max
    assert fields[12] == "10"
    assert fields[13] == "42"
    assert fields[14:] == ["6", "0", "2.5e-07"]
