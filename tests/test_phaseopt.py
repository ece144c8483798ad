"""Phase rules: closed forms, the alternating optimizer, fixed points,
and the brute-force grid oracles.
"""

import math

import numpy as np
import pytest

import riszf.beamform as beamform
import riszf.phaseopt as phaseopt
from riszf.beamform import bs_ris_zf_precoder, bs_ue_zf_precoder
from riszf.channel import complex_normal, correlation_matrix, sample_channels, spawn_rng
from riszf.harness import TRIAL_CSV_HEADER, enumerate_grid, run_point, run_sweep, trial_csv_row
from riszf.phaseopt import (
    FIXED_POINT_TOL,
    UndefinedPhaseError,
    _fixed_point_rows,
    _gradient_hessian,
    asymptotic_phase_config_bs_ue_zf,
    asymptotic_phases_and_sinr_bs_ris_zf,
    optimal_phases_bs_ris_zf,
    optimal_phases_bs_ue_zf,
    quadratic_form_objective,
    random_phases,
    wrap_phase,
)
from riszf.sysconfig import build_configs
from support import UNIT_SCALE, count_calls, draw


def test_wrap_phase_range_and_values():
    assert wrap_phase(np.pi) == pytest.approx(-np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(-np.pi)
    assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    grid = wrap_phase(np.linspace(-10.0, 10.0, 1001))
    assert np.all(grid >= -np.pi) and np.all(grid < np.pi)


def test_random_phases_deterministic_uniform():
    cfg, _, _ = build_configs({"k": "100", "sweep_n": "100", "sweep_m": "256", "l": ",".join(["1"] * 100)})
    a = random_phases(cfg, seed=5)
    b = random_phases(cfg, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 100)
    assert np.all(a >= -np.pi) and np.all(a < np.pi)
    # uniform moments on 10^4 samples
    assert abs(np.mean(a)) < 0.05 * np.pi
    assert np.var(a) == pytest.approx(np.pi**2 / 3, rel=0.05)


def test_single_ue_update_matches_closed_form_angle():
    chs = draw({"sweep_m": "16", "sweep_n": "4", "k": "2", "u_d": "1"}, seed=3)
    init = random_phases(chs.cfg, seed=8)
    # one sweep against the frozen precoder built from the init phases
    phases, _ = optimal_phases_bs_ue_zf(chs, init=init, tol=0.0, max_iter=1)
    W = bs_ue_zf_precoder(chs, init)
    for k in range(chs.cfg.K):
        t = (chs.H[k].conj().T @ W)[:, chs.cfg.blocked_index(k, 0)]
        expected = wrap_phase(-np.angle(chs.h_block(k).conj() * t))
        np.testing.assert_allclose(phases[k], expected, atol=1e-12)


def _dominant_eigenvector(A):
    """The top eigenvector of the Hermitian A from eigh, its first entry
    above 1e-12 in magnitude rotated to real positive."""
    v = np.linalg.eigh(A)[1][:, -1]
    lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
    return v * (lead.conjugate() / abs(lead))


def test_multi_ue_eigenvector_matches_dense_decomposition():
    # with two UEs on one RIS the update takes the dominant eigenvector of
    # sum qq^H; check it against the top eigenpair, up to the common
    # rotation, and check the rotation: the first entry's phase is zero
    chs = draw({"sweep_m": "16", "sweep_n": "4", "k": "1", "l": "2", "u_d": "1"}, seed=6)
    init = np.zeros((1, 4))
    phases, _ = optimal_phases_bs_ue_zf(chs, init=init, tol=0.0, max_iter=1)
    W = bs_ue_zf_precoder(chs, init)
    T = chs.H[0].conj().T @ W
    A = np.zeros((4, 4), dtype=np.complex128)
    for ell in range(2):
        q = chs.h_b[ell].conj() * T[:, ell]
        A += np.outer(q, q.conj())
    w, V = np.linalg.eigh(A)
    expected = wrap_phase(-np.angle(V[:, -1]))
    delta = wrap_phase(phases[0] - expected)
    assert np.max(np.abs(wrap_phase(delta - delta[0]))) < 1e-6
    v = _dominant_eigenvector(A)
    assert np.real(v.conj() @ A @ v) == pytest.approx(w[-1], rel=1e-12)
    assert abs(phases[0, 0]) < 1e-15


def _reference_phase_update(chs, W):
    """The RIS-by-RIS phase update, kept as the reference for the stacked
    one: one T = H_k^H W per RIS, closed-form angle for a single UE,
    dominant eigenvector of sum q q^H otherwise."""
    cfg = chs.cfg
    new = np.empty((cfg.K, cfg.N))
    for k in range(cfg.K):
        T = chs.H[k].conj().T @ W
        if cfg.L[k] == 1:
            u = cfg.blocked_index(k, 0)
            new[k] = wrap_phase(-np.angle(chs.h_b[u].conj() * T[:, u]))
        else:
            A = np.zeros((cfg.N, cfg.N), dtype=np.complex128)
            for ell in range(cfg.L[k]):
                u = cfg.blocked_index(k, ell)
                q = chs.h_b[u].conj() * T[:, u]
                A += np.outer(q, q.conj())
            new[k] = wrap_phase(-np.angle(_dominant_eigenvector(A)))
    return new


@pytest.mark.parametrize("k,l", [("4", "1,1,1,1"), ("3", "2,1,3")])
def test_one_update_step_matches_ris_by_ris_reference(k, l):
    for seed in range(3):
        chs = draw({"sweep_m": "32", "sweep_n": "4", "k": k, "l": l, "u_d": "2"}, seed=seed)
        init = random_phases(chs.cfg, seed=seed + 10)
        phases, diag = optimal_phases_bs_ue_zf(chs, init=init, tol=0.0, max_iter=1)
        assert diag.iterations == 1
        expected = _reference_phase_update(chs, bs_ue_zf_precoder(chs, init))
        assert np.array_equal(phases, wrap_phase(expected))


def test_single_element_ris_degenerate():
    chs = draw({"sweep_m": "8", "sweep_n": "1", "k": "2", "u_d": "0"}, seed=2)
    phases, diag = optimal_phases_bs_ue_zf(chs, random_phases(chs.cfg, 0), max_iter=5)
    assert np.all(np.isfinite(phases))
    assert np.all(phases >= -np.pi) and np.all(phases < np.pi)
    # the objective cannot depend on a single element's phase
    t = np.array(diag.objective_trace)
    np.testing.assert_allclose(t, t[0], rtol=1e-9)


def _grid_gain(chs, step_deg=1.0):
    """Exhaustive (phi_1, phi_2) search of the normalized array gain
    P/||W||^2 for a single-RIS, single-UE, no-direct-UE scenario, where it
    reduces to P * ||cascaded row||^2."""
    angles = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    p1, p2 = np.meshgrid(angles, angles, indexing="ij")
    V = np.exp(1j * np.stack([p1.ravel(), p2.ravel()], axis=1))
    rows = (chs.h_b[0].conj() * V) @ chs.H[0].conj().T
    gains = np.sum(np.abs(rows) ** 2, axis=1)
    return chs.cfg.total_power * float(np.max(gains))


def test_alternating_optimizer_reaches_grid_optimum():
    for seed in (0, 1, 2):
        chs = draw({"sweep_m": "8", "sweep_n": "2", "k": "1", "u_d": "0"}, seed=seed)
        _, diag = optimal_phases_bs_ue_zf(chs, random_phases(chs.cfg, seed), max_iter=30)
        best = _grid_gain(chs)
        assert diag.objective_trace[-1] >= best * (1.0 - 1e-3), (
            f"seed {seed}: optimizer {diag.objective_trace[-1]:.6e} "
            f"below grid {best:.6e}"
        )
        assert diag.converged


def test_objective_trace_monotone_for_single_ue():
    # with one UE the sweep is an exact majorize-maximize step, so the
    # monitored gain must never decrease
    chs = draw({"sweep_m": "8", "sweep_n": "4", "k": "1", "u_d": "0"}, seed=11)
    _, diag = optimal_phases_bs_ue_zf(chs, random_phases(chs.cfg, 1), max_iter=25)
    t = np.array(diag.objective_trace)
    assert np.all(np.diff(t) >= -1e-12 * t[0])


def _one_row(h, R):
    """The solver on one RIS: (phases, residual, iterations) of row 0."""
    phases, residual, iterations = _fixed_point_rows(h[None], R, FIXED_POINT_TOL)
    return phases[0], float(residual[0]), int(iterations[0])


def test_fixed_point_identity_correlation_returns_zeros():
    # with R = I every point is fixed, so the zero start comes back unchanged
    h = complex_normal(spawn_rng(14), (4,))
    phases, residual, iterations = _one_row(h, np.eye(4))
    np.testing.assert_array_equal(phases, np.zeros(4))
    assert residual == 0.0
    assert iterations == 0


def test_fixed_point_real_positive_channel():
    h = np.array([1.0, 2.0, 0.5, 1.5], dtype=complex)
    R = np.array(
        [
            [1.0, 0.3, 0.1, 0.0],
            [0.3, 1.0, 0.3, 0.1],
            [0.1, 0.3, 1.0, 0.3],
            [0.0, 0.1, 0.3, 1.0],
        ]
    )
    phases, residual, _ = _one_row(h, R)
    np.testing.assert_allclose(phases, np.zeros(4), atol=1e-12)
    assert residual == 0.0


def test_fixed_point_beats_grid_on_quadratic_form():
    R = np.array([[1.0, 0.6366], [0.6366, 1.0]])
    rng = spawn_rng(99)
    for trial in range(5):
        h = complex_normal(rng, (2,))
        phases, residual, _ = _one_row(h, R)
        assert residual <= 1e-8
        achieved = quadratic_form_objective(h, R, phases)
        angles = np.deg2rad(np.arange(0.0, 360.0, 0.5))
        p1, p2 = np.meshgrid(angles, angles, indexing="ij")
        Y = h * np.exp(-1j * np.stack([p1.ravel(), p2.ravel()], axis=1))
        vals = np.real(np.einsum("pi,il,pl->p", Y.conj(), R, Y))
        assert achieved >= float(np.max(vals)) * (1.0 - 1e-3)


def _reference_fixed_point(h, R, tol=1e-8, max_iter=500, damping=0.5):
    """The one-RIS damped iteration, without the Newton finish, kept as
    the reference the solver must match or beat."""
    phases = np.zeros(h.shape[0])

    def rhs(phi):
        return wrap_phase(-np.angle(h.conj() * (R @ (np.exp(-1j * phi) * h))))

    iterations = 0
    for _ in range(max_iter):
        target = rhs(phases)
        residual = float(np.max(np.abs(wrap_phase(target - phases))))
        if residual <= tol:
            return phases, residual, iterations
        phases = wrap_phase(phases + damping * wrap_phase(target - phases))
        iterations += 1
    return phases, float(np.max(np.abs(wrap_phase(rhs(phases) - phases)))), iterations


@pytest.mark.parametrize("N", [4, 8])
def test_asymptotic_config_matches_per_ris_reference(N):
    ref_capped = 0
    for seed in range(6):
        chs = draw({"sweep_m": "8", "sweep_n": str(N), "k": "4", "u_d": "1"}, seed=seed)
        phases, art = asymptotic_phase_config_bs_ue_zf(chs)
        worst, most = 0.0, 0
        for k in range(4):
            h = chs.h_block(k)
            ref, _, ref_iters = _reference_fixed_point(h, chs.R)
            one, res, iters = _one_row(h, chs.R)
            assert res <= 1e-8 and iters < 500
            ref_objective = quadratic_form_objective(h, chs.R, ref)
            assert quadratic_form_objective(h, chs.R, one) >= ref_objective * (1.0 - 1e-12)
            # each row of the batched solve gets the bits of a one-row solve
            assert np.array_equal(phases[k], one)
            worst, most = max(worst, res), max(most, iters)
            ref_capped += ref_iters == 500
        assert (art.fixed_point_residual, art.iterations, art.converged) == (worst, most, True)
    if N == 8:
        # the damped iteration alone stops some of these rows at the cap,
        # where the solver (iters < 500 above) stops none
        assert ref_capped > 0


@pytest.mark.parametrize("N", [4, 8])
def test_gradient_and_hessian_match_finite_differences(N):
    _, ch, _ = build_configs({**UNIT_SCALE, "sweep_n": str(N)})
    R = correlation_matrix(N, ch.element_spacing, ch.wavelength)
    rng = spawn_rng(7, N)
    h = complex_normal(rng, (N,))
    phi = rng.uniform(-np.pi, np.pi, N)
    y = np.exp(-1j * phi) * h
    g, H = _gradient_hessian(y[None], (R @ y)[None], R)

    def f(p):
        return quadratic_form_objective(h, R, p)

    e = 1e-4
    E = e * np.eye(N)
    g_fd = np.array([(f(phi + E[i]) - f(phi - E[i])) / (2 * e) for i in range(N)])
    H_fd = np.array(
        [
            [
                (f(phi + E[i] + E[j]) - f(phi + E[i] - E[j])
                 - f(phi - E[i] + E[j]) + f(phi - E[i] - E[j])) / (4 * e * e)
                for j in range(N)
            ]
            for i in range(N)
        ]
    )
    assert np.linalg.norm(g[0] - g_fd) <= 1e-6 * np.linalg.norm(g_fd)
    assert np.linalg.norm(H[0] - H_fd) <= 1e-6 * np.linalg.norm(H_fd)


def test_newton_finish_converges_where_damped_iteration_caps():
    chs = draw({"sweep_m": "8", "sweep_n": "8", "k": "4", "u_d": "1"}, seed=2)
    h = chs.h_block(0)
    ref, ref_res, ref_iters = _reference_fixed_point(h, chs.R)
    assert ref_iters == 500 and ref_res > 1e-8
    phases, res, iters = _one_row(h, chs.R)
    assert res <= 1e-8 and iters < 500
    assert quadratic_form_objective(h, chs.R, phases) >= quadratic_form_objective(h, chs.R, ref)


def test_asymptotic_config_zero_channel_entry_names_ris_and_element():
    chs = draw({"sweep_m": "8", "sweep_n": "4", "k": "4", "u_d": "1"}, seed=4)
    chs.h_b[2][3] = 0.0
    with pytest.raises(UndefinedPhaseError) as exc:
        asymptotic_phase_config_bs_ue_zf(chs)
    assert (exc.value.ris, exc.value.element) == (2, 3)


def test_identity_correlation_makes_objective_flat():
    rng = spawn_rng(41)
    h = complex_normal(rng, (6,))
    base = quadratic_form_objective(h, np.eye(6), np.zeros(6))
    for _ in range(100):
        phi = rng.uniform(-np.pi, np.pi, 6)
        val = quadratic_form_objective(h, np.eye(6), phi)
        assert abs(val - base) <= 1e-12 * abs(base)


def test_fixed_point_scale_and_rotation_invariance():
    rng = spawn_rng(55)
    h = complex_normal(rng, (4,))
    R = np.eye(4) * 0.5 + 0.5 * np.ones((4, 4)) / 2
    base, _, _ = _one_row(h, R)
    scaled, _, _ = _one_row(3.7 * h, R)
    np.testing.assert_allclose(scaled, base, atol=1e-12)
    # the channel enters the update once conjugated and once plain, so a
    # common rotation cancels: the fixed point is rotation invariant
    rotated, _, _ = _one_row(np.exp(1j * 0.8) * h, R)
    np.testing.assert_allclose(rotated, base, atol=1e-10)


def test_closed_form_rotation_covariance():
    # in the closed forms the alignment partner is fixed data, so rotating
    # the UE channel by e^{j theta} shifts every phase by theta
    chs = draw({"sweep_m": "24", "sweep_n": "4", "k": "2", "u_d": "1"}, seed=33)
    base = optimal_phases_bs_ris_zf(chs)[0]
    theta = 0.8
    chs.h_b[0] *= np.exp(1j * theta)
    shifted = optimal_phases_bs_ris_zf(chs)[0]
    np.testing.assert_allclose(wrap_phase(shifted - base), theta, atol=1e-10)
    # same covariance for the asymptotic rule
    rng = spawn_rng(56)
    h = complex_normal(rng, (4,))
    p0, _ = asymptotic_phases_and_sinr_bs_ris_zf(h, np.eye(4), 1.0, 0)
    p1, _ = asymptotic_phases_and_sinr_bs_ris_zf(np.exp(1j * theta) * h, np.eye(4), 1.0, 0)
    np.testing.assert_allclose(wrap_phase(p1 - p0), theta, atol=1e-10)


def test_bs_ris_zf_closed_form_alignment_property():
    chs = draw({"sweep_m": "24", "sweep_n": "4", "k": "2", "u_d": "2"}, seed=17)
    phases = optimal_phases_bs_ris_zf(chs)
    W = bs_ris_zf_precoder(chs)
    for k in range(chs.cfg.K):
        a = chs.H[k].conj().T @ W[:, k]
        s = chs.h_block(k).conj() * np.exp(1j * phases[k]) * a
        # every summand rotated onto the nonnegative real axis
        assert np.max(np.abs(s.imag)) < 1e-10
        assert np.all(s.real >= 0)
        # numerator collapses to the squared sum of magnitudes
        num = abs(np.sum(s)) ** 2
        assert num == pytest.approx(float(np.sum(np.abs(s))) ** 2, rel=1e-10)


def test_bs_ris_zf_asymptotic_gain_vector_and_sinr():
    rng = spawn_rng(23)
    B = complex_normal(rng, (4, 4))
    R = (B @ B.conj().T).real + 4 * np.eye(4)  # random PD symmetric
    h = complex_normal(rng, (4,))
    phases, sinr = asymptotic_phases_and_sinr_bs_ris_zf(h, R, sigma2_k=2.0, k=0)
    np.testing.assert_allclose(phases, wrap_phase(np.angle(h)), atol=1e-8)
    assert sinr == pytest.approx(float(np.sum(np.abs(h))) ** 2 / 2.0, rel=1e-10)


def test_bs_ris_zf_asymptotic_two_element_example():
    h = np.array([1.0 + 0j, 1.0 + 0j])
    phases, sinr = asymptotic_phases_and_sinr_bs_ris_zf(h, np.eye(2), sigma2_k=1.0, k=0)
    assert sinr == pytest.approx(4.0, rel=1e-12)
    np.testing.assert_allclose(phases, np.zeros(2), atol=1e-12)


def test_bs_ris_zf_asymptotic_singular_correlation_names_matrix():
    h = np.ones(3, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="correlation matrix"):
        asymptotic_phases_and_sinr_bs_ris_zf(h, np.ones((3, 3)), sigma2_k=1.0, k=0)
    # the cached condition check follows the content of R, not the object
    R = np.eye(3)
    asymptotic_phases_and_sinr_bs_ris_zf(h, R, sigma2_k=1.0, k=0)
    R[:] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="correlation matrix"):
        asymptotic_phases_and_sinr_bs_ris_zf(h, R, sigma2_k=1.0, k=0)


@pytest.mark.parametrize("N", [4, 8])
def test_bs_ris_zf_asymptotic_matches_literal_gain_vector(N):
    # reference: the literal gain vector f = R (R^{-1} 1) on the sinc
    # correlation the sweep uses, aligned and summed element by element
    _, ch, _ = build_configs({**UNIT_SCALE, "sweep_n": str(N)})
    R = correlation_matrix(N, ch.element_spacing, ch.wavelength)
    rng = spawn_rng(61, N)
    for _ in range(5):
        h = complex_normal(rng, (N,))
        f = R @ np.linalg.solve(R, np.ones(N))
        ref_phases = wrap_phase(-np.angle(h.conj() * f))
        ref_sinr = float(np.sum(np.abs(f) * np.abs(h))) ** 2 / 0.7
        phases, sinr = asymptotic_phases_and_sinr_bs_ris_zf(h, R, sigma2_k=0.7, k=0)
        np.testing.assert_allclose(wrap_phase(phases - ref_phases), 0.0, atol=1e-12)
        assert sinr == pytest.approx(ref_sinr, rel=1e-12)


def test_bs_ris_zf_asymptotic_zero_channel_entry_names_element():
    h = np.array([1.0, 0.0, 1j])
    with pytest.raises(UndefinedPhaseError) as exc:
        asymptotic_phases_and_sinr_bs_ris_zf(h, np.eye(3), sigma2_k=1.0, k=2)
    assert exc.value.ris == 2
    assert exc.value.element == 1


def _reference_closed_form_bs_ris_zf(chs):
    """The RIS-by-RIS closed form the stacked product replaces: one
    a = H_k^H w_k per RIS, raising for the first zero product."""
    W = bs_ris_zf_precoder(chs)
    phases = np.empty((chs.cfg.K, chs.cfg.N))
    for k in range(chs.cfg.K):
        q = chs.h_block(k).conj() * (chs.H[k].conj().T @ W[:, k])
        zeros = np.flatnonzero(np.abs(q) == 0.0)
        if zeros.size:
            raise UndefinedPhaseError(k, int(zeros[0]), "alignment product")
        phases[k] = wrap_phase(-np.angle(q))
    return phases


@pytest.mark.parametrize("m, n", [("8", "1"), ("64", "4"), ("256", "8")])
def test_stacked_closed_form_matches_ris_by_ris_reference(m, n):
    for seed in range(4):
        chs = draw({"sweep_m": m, "sweep_n": n, "k": "4", "u_d": "2"}, seed=seed)
        assert np.array_equal(optimal_phases_bs_ris_zf(chs), _reference_closed_form_bs_ris_zf(chs))
    # zeroed entries on two RISs: both routes name the lower RIS, then
    # its lower element, with the same message
    chs.h_b[3][0] = 0.0
    chs.h_b[1][-1] = 0.0
    if n != "1":
        chs.h_b[1][0] = 0.0
    raised = []
    for rule in (optimal_phases_bs_ris_zf, _reference_closed_form_bs_ris_zf):
        with pytest.raises(UndefinedPhaseError) as exc:
            rule(chs)
        raised.append((exc.value.ris, exc.value.element, str(exc.value)))
    assert raised[0] == raised[1] == (1, 0, raised[0][2])


@pytest.mark.parametrize("power_mode", ["paper_literal", "sum_power_normalized"])
def test_bs_ris_zf_closed_form_is_the_asymptotic_rule(power_mode):
    # gamma_matrix asks for unit gain on every element, so a = H_k^H w_k
    # is all ones up to round-off and the closed form is angle(h): the
    # optimal and asymptotic BS-RIS-ZF rules give the same phases
    for m in (16, 64, 256):
        for n in (1, 4, 8):
            if 4 * n + 2 > m:
                continue  # infeasible: more stacked rows than antennas
            cfg, ch, _ = build_configs({"sweep_m": str(m), "sweep_n": str(n), "power_mode": power_mode})
            for seed in range(5):
                chs = sample_channels(cfg, ch, spawn_rng(seed, m, n))
                phases = optimal_phases_bs_ris_zf(chs)
                for k in range(cfg.K):
                    want, _ = asymptotic_phases_and_sinr_bs_ris_zf(chs.h_block(k), chs.R, 1.0, k)
                    assert np.abs(wrap_phase(phases[k] - want)).max() < 1e-13


def test_zero_channel_entry_is_an_error_not_a_phase():
    chs = draw({"sweep_m": "24", "sweep_n": "4", "k": "2", "u_d": "1"}, seed=19)
    chs.h_b[1][2] = 0.0
    with pytest.raises(UndefinedPhaseError) as exc:
        optimal_phases_bs_ris_zf(chs)
    assert exc.value.ris == 1
    assert exc.value.element == 2


def test_asymptotic_config_requires_single_ue_per_ris():
    chs = draw({"sweep_m": "24", "sweep_n": "2", "k": "2", "l": "2,1", "u_d": "0"}, seed=1)
    with pytest.raises(ValueError, match="one UE per RIS"):
        asymptotic_phase_config_bs_ue_zf(chs)


def test_asymptotic_config_reports_residual_and_iterations():
    chs = draw({"sweep_m": "32", "sweep_n": "4", "k": "3", "u_d": "1"}, seed=29)
    phases, art = asymptotic_phase_config_bs_ue_zf(chs)
    assert art.fixed_point_residual <= 1e-8
    assert art.iterations >= 1  # sinc correlation is not a no-op
    # certificate: one more update stays within tolerance
    R = chs.R
    for k in range(chs.cfg.K):
        h = chs.h_block(k)
        c = h.conj() * (R @ (np.exp(-1j * phases[k]) * h))
        again = wrap_phase(-np.angle(c))
        assert np.max(np.abs(wrap_phase(again - phases[k]))) <= 1e-8


def test_fixed_point_stopped_at_its_cap_reports_not_converged(monkeypatch):
    # two updates from zeros leave every row short of the tolerance on a
    # default draw: the residual is that of one more update, not the
    # last one taken, and the sweep writes the trial as not converged
    monkeypatch.setattr(phaseopt, "FIXED_POINT_MAX_ITER", 2)
    chs = draw({"sweep_m": "64", "sweep_n": "8"}, unit=False)
    phases, art = asymptotic_phase_config_bs_ue_zf(chs)
    assert (art.iterations, art.converged) == (2, False)
    c = chs.h_b.conj() * (chs.R @ (np.exp(-1j * phases) * chs.h_b).T).T
    again = np.abs(wrap_phase(-np.angle(c) - phases)).max()
    assert art.fixed_point_residual == pytest.approx(again, rel=1e-12)

    cfg, ch, run = build_configs({"sweep_m": "64", "sweep_n": "8", "schemes": "bs_ue_zf",
                                  "phase_rules": "asymptotic", "trials": "2"})
    summary, results = run_point(enumerate_grid(run)[0], cfg, ch, run)
    assert (summary.trials, summary.failures) == (2, 0)
    columns = TRIAL_CSV_HEADER.split(",")
    for r in results:
        row = dict(zip(columns, trial_csv_row(r).split(",")))
        assert (row["phase_iterations"], row["phase_converged"]) == ("2", "0")


def test_alternating_update_zero_alignment_names_ris_and_element():
    chs = draw({"sweep_m": "64", "sweep_n": "8"}, unit=False)
    chs.h_b[2, 5] = 0.0
    with pytest.raises(UndefinedPhaseError) as exc:
        optimal_phases_bs_ue_zf(chs, random_phases(chs.cfg, 1))
    assert (exc.value.ris, exc.value.element) == (2, 5)


def test_eigh_seam_is_numpy_eigh_bit_for_bit():
    # a stacked real batch, as the Newton step hands it, and one complex
    # Hermitian matrix, as the multi-UE phase update does
    rng = spawn_rng(31)
    X = rng.standard_normal((5, 8, 8))
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for A in (X + X.transpose(0, 2, 1), Z @ Z.conj().T):
        (w, V), (w_np, V_np) = beamform.eigh(A), np.linalg.eigh(A)
        assert w.dtype == np.float64 and V.dtype == A.dtype
        assert np.array_equal(w, w_np) and np.array_equal(V, V_np)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        beamform.eigh(np.full((3, 3), np.nan))


@pytest.mark.parametrize("overrides", [{}, {"k": "3", "l": "2,1,3", "sweep_n": "2,4"}],
                         ids=["selftest", "multi_ue"])
def test_sweep_calls_the_seams_not_numpy_solve_or_eigh(selftest_grid, overrides, monkeypatch):
    # the benchmark's self-test grid (and a variant with several UEs per
    # RIS) sweeps with np.linalg.solve and np.linalg.eigh raising, to the
    # same summary; the first sweep fills the cached matrix_sqrt_psd,
    # which keeps its public eigh
    cfg, ch, run = build_configs({**selftest_grid, **overrides})
    want = run_sweep(run, cfg, ch)
    assert not any(p.failures for p in want.points)
    calls = count_calls(monkeypatch, beamform, "solve")
    count_calls(monkeypatch, phaseopt, "eigh", calls)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep called numpy's public solve or eigh")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert run_sweep(run, cfg, ch) == want
    assert {"solve", "eigh"} <= set(calls)
