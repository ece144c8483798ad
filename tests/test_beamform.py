"""Zero-forcing construction: exact nulling, targets, rank, power scaling."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import riszf.beamform as beamform
import riszf.metrics as metrics
from riszf.beamform import (
    GramFactor,
    RankDeficiencyError,
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    gamma_matrix,
    normalize_power,
    right_inverse_apply,
    stack_bs_ris,
    stack_bs_ue,
)
from riszf.channel import spawn_rng
from riszf.metrics import rank_q2
from riszf.phaseopt import _phase_update_bs_ue_zf
from riszf.sysconfig import build_configs
from support import count_calls, draw

# the draw most tests here start from, at unit link scales unless unit=False
SMALL = {"m": "32", "n": "4", "k": "3", "u_d": "2"}


def test_cascaded_rows_against_direct_formula():
    chs = draw(SMALL)
    rng = spawn_rng(1)
    phases = rng.uniform(0.0, 2 * np.pi, size=(chs.cfg.K, chs.cfg.N))
    rows = stack_bs_ue(chs, phases)[: chs.cfg.U_b]
    # row for blocked UE (k) must equal h^H diag(e^{j phi}) H^H elementwise
    for k in range(chs.cfg.K):
        Phi = np.diag(np.exp(1j * phases[k]))
        expected = chs.h_b[k].conj() @ Phi @ chs.H[k].conj().T
        np.testing.assert_allclose(rows[chs.cfg.blocked_index(k, 0)], expected, rtol=1e-12)
    # equivalently the conjugate of H Phi^H h
    g = chs.H[0] @ np.diag(np.exp(-1j * phases[0])) @ chs.h_b[0]
    np.testing.assert_allclose(rows[0], g.conj(), rtol=1e-12)


def _reference_cascaded_rows(chs, phases):
    """The UE-by-UE vector-matrix products the stacked rows replace."""
    cfg = chs.cfg
    rows = np.empty((cfg.U_b, cfg.M), dtype=np.complex128)
    for k in range(cfg.K):
        for ell in range(cfg.L[k]):
            u = cfg.blocked_index(k, ell)
            rows[u] = (chs.h_b[u].conj() * np.exp(1j * phases[k])) @ chs.H[k].conj().T
    return rows


@pytest.mark.parametrize("m", ["8", "256"])
def test_cascaded_rows_mixed_ues_per_ris(m):
    chs = draw({**SMALL, "m": m, "k": "3", "l": "2,1,3"}, seed=5)
    phases = spawn_rng(2).uniform(-np.pi, np.pi, size=(3, chs.cfg.N))
    rows = stack_bs_ue(chs, phases)[: chs.cfg.U_b]
    assert rows.shape == (6, int(m))
    assert np.array_equal(rows, _reference_cascaded_rows(chs, phases))
    for k in range(3):
        Phi = np.diag(np.exp(1j * phases[k]))
        for ell in range(chs.cfg.L[k]):
            u = chs.cfg.blocked_index(k, ell)
            expected = chs.h_b[u].conj() @ Phi @ chs.H[k].conj().T
            np.testing.assert_allclose(rows[u], expected, rtol=1e-12)


def test_right_inverse_matches_pinv():
    chs = draw(SMALL)
    phases = np.zeros((chs.cfg.K, chs.cfg.N))
    Q = stack_bs_ue(chs, phases)
    W = right_inverse_apply(Q)
    # independent route: SVD pseudo-inverse
    P = np.linalg.pinv(Q)
    assert np.linalg.norm(W - P) / np.linalg.norm(P) < 1e-9


def _reference_right_inverse(Q, targets=None, solve=np.linalg.solve):
    """The right inverse written out: equilibrated rows, their Gram matrix
    and one `solve`, numpy's by default; the conditioning check is left
    out."""
    inv = 1.0 / np.linalg.norm(Q, axis=1)
    Qs = Q * inv[:, None]
    A = Qs @ Qs.conj().T
    if targets is None:
        targets = np.eye(Q.shape[0])
    return Qs.conj().T @ solve(A, targets * inv[:, None])


def _cholesky_solve(A, b):
    """scipy's cho_factor/cho_solve: the accuracy reference for the solve."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)


RIGHT_INVERSE_SHAPES = [(6, 16), (6, 64), (34, 256), (1, 8)]


def _random_stack(shape, *key, span=None):
    """A random complex stack and 3 real target columns, drawn under
    `key`. Its first row is 1e-4 times weaker, as cascaded rows are
    against direct ones; with `span`, every row is scaled by 10**u
    instead, u uniform in ±span."""
    rng = spawn_rng(4, *shape, *key)
    Q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if span is None:
        Q[0] *= 1e-4
    else:
        Q *= 10.0 ** rng.uniform(-span, span, size=(shape[0], 1))
    return Q, rng.standard_normal((shape[0], 3))


def _zf_residual(Q, W, targets):
    """max |Q W - T| / max |T|, with T the identity for no targets."""
    T = np.eye(Q.shape[0]) if targets is None else targets
    return np.abs(Q @ W - T).max() / np.abs(T).max()


@pytest.mark.parametrize("shape", RIGHT_INVERSE_SHAPES)
def test_right_inverse_agrees_with_pinv_and_nulls_as_well_as_cholesky(shape):
    # the SVD pseudo-inverse agrees to 1e-9 relative (measured: at most
    # 6e-12 over 200 stacks per shape); and over 40 stacks, with unit-scale
    # rows and with row norms spread over 1e±8, the median zero-forcing
    # residual is at most 1.5 times the Cholesky route's (measured: at most
    # 1.14 times)
    Q, targets = _random_stack(shape)
    for t in (None, targets):
        W = right_inverse_apply(GramFactor(Q, t))
        P = np.linalg.pinv(Q) @ (np.eye(shape[0]) if t is None else t)
        assert np.linalg.norm(W - P) / np.linalg.norm(P) < 1e-9
    for span in (None, 8.0):
        ours, cholesky = [], []
        for seed in range(40):
            Q, targets = _random_stack(shape, seed, span=span)
            for t in (None, targets):
                ours.append(_zf_residual(Q, right_inverse_apply(GramFactor(Q, t)), t))
                cholesky.append(_zf_residual(Q, _reference_right_inverse(Q, t, _cholesky_solve), t))
        assert np.median(ours) <= 1.5 * np.median(cholesky)
        if span is None:
            assert max(ours) < 1e-10


def test_importing_riszf_loads_no_scipy(modules_after_import):
    assert [m for m in modules_after_import if m.split(".")[0] == "scipy"] == []


def test_right_inverse_bit_identical_on_both_stacks():
    chs = draw(SMALL, unit=False)
    phases = spawn_rng(2).uniform(-np.pi, np.pi, size=(chs.cfg.K, chs.cfg.N))
    Q = stack_bs_ue(chs, phases)
    assert np.array_equal(right_inverse_apply(Q), _reference_right_inverse(Q))
    Q2 = stack_bs_ris(chs)
    G = gamma_matrix(chs.cfg.N, chs.cfg.K, chs.cfg.U_d)
    assert np.array_equal(right_inverse_apply(GramFactor(Q2, G)), _reference_right_inverse(Q2, G))


def test_right_inverse_rejects_non_finite_input():
    rng = spawn_rng(9)
    Q = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    targets = np.ones((4, 2))
    targets[1, 1] = np.inf
    with pytest.raises(ValueError):
        right_inverse_apply(GramFactor(Q, targets))
    Q[2, 3] = np.nan
    with pytest.raises(ValueError):
        right_inverse_apply(Q)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of np.linalg.eigvalsh calls, which run only when the bound declines."""
    return count_calls(monkeypatch, np.linalg, "eigvalsh", record=np.shape)


def _near_parallel_stack(theta):
    """6 x 16 rows whose last row is the first plus theta times a random
    row: the equilibrated Gram condition grows as 1/theta^2."""
    rng = spawn_rng(11, 6)
    Q = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    Q[-1] = Q[0] + theta * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    return Q, rng.standard_normal((6, 3))


def _gram_cond(Q):
    """The eigenvalue ratio the eigvalsh check reports."""
    Qs = Q * (1.0 / np.linalg.norm(Q, axis=1))[:, None]
    w = np.linalg.eigvalsh(Qs @ Qs.conj().T)
    return float(w[-1] / w[0])


@pytest.mark.parametrize("with_targets", [False, True])
@pytest.mark.parametrize("lapack_route", ["bundled", "scipy"], indirect=True)
def test_well_conditioned_gram_skips_eigvalsh(lapack_route, eigvalsh_calls, with_targets):
    Q, targets = _random_stack((6, 16))
    W = right_inverse_apply(GramFactor(Q, targets if with_targets else None))
    assert eigvalsh_calls == []
    assert np.array_equal(W, _reference_right_inverse(Q, targets if with_targets else None))


@pytest.mark.parametrize("with_targets", [False, True])
@pytest.mark.parametrize("lapack_route", ["bundled", "scipy"], indirect=True)
def test_bound_declines_below_cond_limit_and_eigvalsh_accepts(
    lapack_route, eigvalsh_calls, with_targets
):
    # the bound (about 5e11 here, 3 times the ratio) is above COND_BOUND_LIMIT,
    # so eigvalsh decides, and it accepts a ratio under COND_LIMIT
    Q, targets = _near_parallel_stack(5e-6)
    assert 1e11 < _gram_cond(Q) < beamform.COND_LIMIT
    eigvalsh_calls.clear()
    t = targets if with_targets else None
    W = right_inverse_apply(GramFactor(Q, t))
    assert eigvalsh_calls == [(6, 6)]
    assert np.array_equal(W, _reference_right_inverse(Q, t))


@pytest.mark.parametrize("theta", [1e-6, 1e-7])
@pytest.mark.parametrize("with_targets", [False, True])
def test_ill_conditioned_gram_raises_with_eigvalsh_cond(lapack_route, with_targets, theta):
    Q, targets = _near_parallel_stack(theta)
    cond = _gram_cond(Q)
    assert cond > beamform.COND_LIMIT
    with pytest.raises(RankDeficiencyError) as exc:
        right_inverse_apply(GramFactor(Q, targets if with_targets else None))
    assert exc.value.cond == cond
    assert exc.value.shape == (6, 16)


def test_singular_gram_raises_rank_deficiency(lapack_route):
    # more rows than columns: the solve fails or the bound declines, and
    # eigvalsh rejects the Gram matrix as before
    Q, _ = _random_stack((5, 4))
    with pytest.raises(RankDeficiencyError) as exc:
        right_inverse_apply(Q)
    assert exc.value.shape == (5, 4)
    assert exc.value.cond > beamform.COND_LIMIT


def test_zero_row_raises_rank_deficiency(lapack_route):
    Q, targets = _random_stack((4, 16))
    Q[2] = 0.0
    for t in (None, targets):
        with pytest.raises(RankDeficiencyError) as exc:
            right_inverse_apply(GramFactor(Q, t))
        assert exc.value.cond == float("inf")
        assert exc.value.shape == (4, 16)


def test_right_inverse_of_a_real_stack(lapack_route):
    # a real stack takes numpy's real solve and gives a real right inverse
    Q = spawn_rng(12).standard_normal((4, 9))
    for t in (None, np.ones((4, 2))):
        W = right_inverse_apply(GramFactor(Q, t))
        assert W.dtype == np.float64
        want = np.linalg.pinv(Q) @ (np.eye(4) if t is None else t)
        np.testing.assert_allclose(W, want, atol=1e-12)


def _solved_inverse(Q):
    """A^{-1} of the equilibrated Gram matrix of Q, written out as the
    factor takes it: the solve of diag(inv), times diag(norms)."""
    norms = np.linalg.norm(Q, axis=1)
    Qs = Q * (1.0 / norms)[:, None]
    A = Qs @ Qs.conj().T
    return A, np.linalg.solve(A, np.diag(1.0 / norms)) * norms


def test_gram_cond_bound_holds_and_is_tight_within_rows_squared():
    for shape in [(1, 8), (6, 16), (6, 64), (34, 256)]:
        Q, targets = _random_stack(shape)
        A, inverse = _solved_inverse(Q)
        w = np.linalg.eigvalsh(A)
        bound = beamform.gram_cond_bound(A, inverse)
        # the bound reads the factor's one solve, with or without a target
        assert bound == GramFactor(Q).bound == GramFactor(Q, targets).bound
        assert w[-1] / w[0] <= bound <= shape[0] ** 2 * w[-1] / w[0] * (1 + 1e-9)


def test_gram_bound_is_inf_where_it_cannot_be_trusted(lapack_route):
    # an exactly zero pivot: the solve raises and the factor keeps its error
    singular = GramFactor(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert singular.x is None and singular.bound == np.inf
    assert isinstance(singular.error, np.linalg.LinAlgError)
    # the solve succeeds, but the ratio is above COND_BOUND_LIMIT
    Q, targets = _near_parallel_stack(5e-6)
    assert beamform.COND_BOUND_LIMIT < _gram_cond(Q) < beamform.COND_LIMIT
    A, inverse = _solved_inverse(Q)
    assert np.isfinite(inverse).all()
    assert beamform.gram_cond_bound(A, inverse) == np.inf
    assert GramFactor(Q).bound == GramFactor(Q, targets).bound == np.inf
    assert GramFactor(Q, targets).x is not None
    assert beamform.gram_cond_bound(A, np.full_like(A, np.nan)) == np.inf
    # a non-finite Gram matrix or target has no bound, and no solve is tried
    targets[0, 0] = np.nan
    assert isinstance(GramFactor(Q, targets).error, ValueError)
    Q[1, 2] = np.nan
    gram = GramFactor(Q)
    assert not gram.finite and gram.bound == np.inf


def test_ris_side_right_inverse_bound_decides_at_benchmark_shapes(
    lapack_route, eigvalsh_calls
):
    # the stacks of the ris_side_csi workload: N=8, K=4, U_d=2 gives 34 rows
    for m in ("128", "256"):
        for seed in range(3):
            chs = draw({"m": m, "n": "8", "k": "4", "u_d": "2"}, seed=seed, unit=False)
            Q2 = stack_bs_ris(chs)
            assert Q2.shape == (34, int(m))
            G = gamma_matrix(8, 4, 2)
            eigvalsh_calls.clear()
            W = right_inverse_apply(GramFactor(Q2, G))
            assert eigvalsh_calls == []
            assert np.array_equal(W, _reference_right_inverse(Q2, G))


def _reference_sv_ratio_bound(Q):
    """The rows-side rank bound of the raw stack Q, from its own Gram
    matrix and solve."""
    d = np.linalg.norm(Q, axis=1)
    return float(d.max() / d.min() * np.sqrt(beamform.gram_cond_bound(*_solved_inverse(Q))))


@pytest.mark.parametrize("m", ["64", "256"])
def test_cached_ris_side_factor_matches_a_fresh_one(lapack_route, eigvalsh_calls, m):
    # rank_q2 and repeated precoder builds read the draw's one factor and
    # give the bits of a right inverse and a bound built from the raw stack
    for seed in range(3):
        chs = draw({"m": m, "n": "8", "k": "4", "u_d": "2"}, seed=seed, unit=False)
        fresh = replace(chs)  # the same draw, with no per-draw values yet
        Q2 = stack_bs_ris(fresh)
        G = gamma_matrix(8, 4, 2)
        want = right_inverse_apply(GramFactor(Q2, G))
        assert np.array_equal(want, _reference_right_inverse(Q2, G))
        assert rank_q2(chs) == min(Q2.shape)
        for _ in range(2):
            assert np.array_equal(bs_ris_zf_precoder(chs), want)
        assert eigvalsh_calls == []
        bound = metrics._sv_ratio_bound(chs.ris_gram)
        assert bound == metrics._sv_ratio_bound(GramFactor(Q2)) == _reference_sv_ratio_bound(Q2)
        assert bound <= metrics.RANK_BOUND_LIMIT


_numpy_solve = np.linalg.solve


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("rhs", ["identity", "real_targets", "complex_targets"])
def test_solve_seam_is_numpy_solve_bit_for_bit(kind, rhs):
    # the gufunc behind np.linalg.solve, its signature picked from both
    # dtypes: real targets against a complex A solve in complex, a real
    # A and b stay real
    for rows, seed in ((1, 0), (6, 1), (18, 2), (34, 3)):
        rng = spawn_rng(13, rows, seed)
        Q = rng.standard_normal((rows, 2 * rows))
        if kind == "complex":
            Q = Q + 1j * rng.standard_normal(Q.shape)
        A = Q @ Q.conj().T
        b = {"identity": np.diag(1.0 + rng.uniform(size=rows)),
             "real_targets": rng.standard_normal((rows, 3)),
             "complex_targets": rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3)),
             }[rhs]
        got, want = beamform.solve(A, b), _numpy_solve(A, b)
        assert got.dtype == want.dtype == np.result_type(A, b)
        assert np.array_equal(got, want)


def test_solve_seam_raises_on_a_singular_matrix():
    for A in (np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros((3, 3), dtype=np.complex128)):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            beamform.solve(A, np.eye(A.shape[0]))


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the solves and inverses made: "solve" for the solve seam
    `beamform.solve`, "np.linalg.solve" and "inv" for numpy's public ones."""
    calls = count_calls(monkeypatch, beamform, "solve")
    count_calls(monkeypatch, np.linalg, "solve", calls, record=lambda *_: "np.linalg.solve")
    count_calls(monkeypatch, np.linalg, "inv", calls)
    return calls


@pytest.mark.parametrize("n", ["4", "8"])
@pytest.mark.parametrize("m", ["64", "128", "256"])
def test_ris_side_draw_makes_one_solve(linalg_calls, m, n):
    # rank_q2 and repeated precoder builds of a draw cost one solve and no
    # inverse, and the factor's x is a separate solve of its target alone,
    # bit for bit: the extra diag(inv) columns change no bit of it
    G = gamma_matrix(int(n), 4, 2)
    for seed in range(40):
        chs = draw({"m": m, "n": n, "k": "4", "u_d": "2"}, seed=seed, unit=False)
        linalg_calls.clear()
        for _ in range(2):
            assert rank_q2(chs) == 4 * int(n) + 2
            bs_ris_zf_precoder(chs)
        assert linalg_calls == ["solve"]
        gram = chs.ris_gram
        assert gram.targets is G
        assert np.array_equal(gram.x, _numpy_solve(gram.A, G * gram.inv[:, None]))


@pytest.mark.parametrize("shape", RIGHT_INVERSE_SHAPES)
def test_ue_side_factor_makes_one_solve(linalg_calls, shape):
    for seed in range(40):
        Q, targets = _random_stack(shape, seed)
        for t in (None, targets):
            linalg_calls.clear()
            gram = GramFactor(Q, t)
            W = right_inverse_apply(gram)
            assert gram.bound < np.inf
            assert linalg_calls == ["solve"]
            b = np.diag(gram.inv) if t is None else t * gram.inv[:, None]
            assert np.array_equal(gram.x, _numpy_solve(gram.A, b))
            assert np.array_equal(W, right_inverse_apply(Q if t is None else GramFactor(Q, t)))


def test_held_factor_carries_its_target():
    Q, targets = _random_stack((6, 16))
    gram = GramFactor(Q, targets).read_only()
    assert not gram.x.flags.writeable
    assert np.array_equal(right_inverse_apply(gram), right_inverse_apply(GramFactor(Q, targets)))


def _raised(fn):
    """(type, message, cond, shape) of the exception `fn` raises."""
    with pytest.raises(Exception) as exc:
        fn()
    e = exc.value
    return type(e), str(e), getattr(e, "cond", None), getattr(e, "shape", None)


@pytest.mark.parametrize("fault, error", [
    ("zero_row", RankDeficiencyError),
    # eigvalsh checks the NaN Gram matrix first and does not converge
    ("non_finite_channel", np.linalg.LinAlgError),
    ("non_finite_target", ValueError),
    ("not_positive_definite", RankDeficiencyError),
    ("ill_conditioned", RankDeficiencyError),
])
def test_factored_stack_raises_as_the_raw_stack(lapack_route, eigvalsh_calls, fault, error):
    # a GramFactor handed in, the draw's factor and the raw stack toward
    # the identity give the same exception after the same eigvalsh checks
    m = "9" if fault == "not_positive_definite" else "64"  # 10 rows
    chs = draw({**SMALL, "m": m, "n": "4", "k": "2", "l": "1,1"}, seed=3)
    H, h_d = chs.H.copy(), chs.h_d.copy()
    G = np.array(gamma_matrix(4, 2, 2))
    if fault == "zero_row":
        h_d[1] = 0.0
    elif fault == "non_finite_channel":
        H[1, 5, 2] = np.nan
    elif fault == "non_finite_target":
        G[3, 0] = np.inf
    elif fault == "ill_conditioned":
        h_d[1] = h_d[0] + 1e-7 * spawn_rng(5).standard_normal(h_d.shape[1])
    bad = replace(chs, H=H, h_d=h_d)
    want = _raised(lambda: right_inverse_apply(GramFactor(stack_bs_ris(bad), G)))
    assert want[0] is error
    checks = eigvalsh_calls.copy()
    if fault != "non_finite_target":  # the precoder's target is gamma_matrix
        for build in (lambda: bs_ris_zf_precoder(bad),
                      lambda: right_inverse_apply(stack_bs_ris(bad))):
            eigvalsh_calls.clear()
            assert _raised(build) == want
            assert eigvalsh_calls == checks


@pytest.mark.parametrize("with_targets", [False, True])
def test_failed_solve_raises_after_eigvalsh_accepts(eigvalsh_calls, with_targets, monkeypatch):
    # a solve that raises leaves the bound inf: eigvalsh runs first and
    # accepts this well-conditioned stack, then the solve's error is raised
    Q, targets = _random_stack((6, 16))

    def failing(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(beamform, "solve", failing)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        right_inverse_apply(GramFactor(Q, targets if with_targets else None))
    assert eigvalsh_calls == [(6, 6)]


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
@pytest.mark.parametrize("m", ["8", "256"])
def test_preallocated_stacks_bit_identical_to_vstack(m, L):
    chs = draw({**SMALL, "m": m, "k": str(len(L.split(","))), "l": L}, seed=6)
    phases = spawn_rng(3).uniform(-np.pi, np.pi, size=(chs.cfg.K, chs.cfg.N))
    want_ue = np.vstack([_reference_cascaded_rows(chs, phases), chs.h_d.conj()])
    want_ris = np.vstack([chs.H[k].conj().T for k in range(chs.cfg.K)] + [chs.h_d.conj()])
    assert np.array_equal(stack_bs_ue(chs, phases), want_ue)
    assert np.array_equal(stack_bs_ris(chs), want_ris)


def test_bs_ue_zf_nulls_exactly():
    chs = draw(SMALL, seed=4)
    rng = spawn_rng(2)
    phases = rng.uniform(0.0, 2 * np.pi, size=(chs.cfg.K, chs.cfg.N))
    W = bs_ue_zf_precoder(chs, phases)
    U = chs.cfg.U_b + chs.cfg.U_d
    assert W.shape == (chs.cfg.M, U)
    E = stack_bs_ue(chs, phases) @ W
    np.testing.assert_allclose(E, np.eye(U), atol=1e-10)


def test_bs_ue_zf_nulling_depth_at_physical_scales():
    chs = draw(SMALL, seed=4, unit=False)
    phases = np.zeros((chs.cfg.K, chs.cfg.N))
    Q = stack_bs_ue(chs, phases)
    W = bs_ue_zf_precoder(chs, phases)
    E = Q @ W
    U = chs.cfg.U_b + chs.cfg.U_d
    # absolute residual bottoms out at the float64 product floor
    assert np.max(np.abs(E - np.eye(U))) < 1e-6
    # relative to the raw (un-nulled) coupling, suppression is complete
    depth = np.abs(E - np.eye(U)) / np.outer(
        np.linalg.norm(Q, axis=1), np.linalg.norm(W, axis=0)
    )
    assert np.max(depth) < 1e-9


def test_bs_ue_zf_feasibility_boundary():
    # M exactly U_b + U_d still inverts; fewer antennas must raise
    chs = draw({**SMALL, "m": "5"})
    phases = np.zeros((chs.cfg.K, chs.cfg.N))
    W = bs_ue_zf_precoder(chs, phases)
    E = stack_bs_ue(chs, phases) @ W
    np.testing.assert_allclose(E, np.eye(5), atol=1e-8)
    chs_bad = draw({**SMALL, "m": "4"})
    with pytest.raises(RankDeficiencyError) as exc:
        bs_ue_zf_precoder(chs_bad, np.zeros((chs_bad.cfg.K, chs_bad.cfg.N)))
    assert exc.value.shape == (5, 4)
    assert exc.value.cond > 1e12 or exc.value.cond == float("inf")


def test_gamma_matrix_layout():
    G = gamma_matrix(N=3, K=2, U_d=2)
    assert G.shape == (8, 4)
    np.testing.assert_array_equal(G[:, 0], [1, 1, 1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(G[:, 1], [0, 0, 0, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(G[:, 2], [0, 0, 0, 0, 0, 0, 1, 0])
    np.testing.assert_array_equal(G[:, 3], [0, 0, 0, 0, 0, 0, 0, 1])
    # every row touches exactly one stream
    assert np.all(G.sum(axis=1) == 1)


def test_bs_ris_zf_hits_gamma_exactly():
    chs = draw({**SMALL, "m": "24", "k": "2", "l": "1,1"}, seed=9)
    W = bs_ris_zf_precoder(chs)
    cfg = chs.cfg
    assert W.shape == (cfg.M, cfg.K + cfg.U_d)
    E = stack_bs_ris(chs) @ W
    np.testing.assert_allclose(E, gamma_matrix(cfg.N, cfg.K, cfg.U_d), atol=1e-9)
    # consequence: toward its own RIS every element responds with unit gain
    a = chs.H[0].conj().T @ W[:, 0]
    np.testing.assert_allclose(a, np.ones(cfg.N), atol=1e-9)
    # and the other RIS is dark
    b = chs.H[1].conj().T @ W[:, 0]
    np.testing.assert_allclose(b, np.zeros(cfg.N), atol=1e-9)


def test_bs_ris_zf_antenna_shortfall_raises():
    # fewer antennas than stacked rows: 10 rows cannot be inverted in C^9
    chs = draw({**SMALL, "m": "9", "n": "4", "k": "2", "l": "1,1"})
    with pytest.raises(RankDeficiencyError):
        bs_ris_zf_precoder(chs)
    chs_ok = draw({**SMALL, "m": "11", "n": "4", "k": "2", "l": "1,1"})
    W = bs_ris_zf_precoder(chs_ok)
    E = stack_bs_ris(chs_ok) @ W
    np.testing.assert_allclose(E, gamma_matrix(4, 2, 2), atol=1e-8)


def test_normalize_power_modes():
    cfg, _, _ = build_configs({"power_mode": "sum_power_normalized", "total_power": "2.0"})
    W = np.array([[1.0 + 0j, 0.0], [0.0, 2.0]])
    W2, beta = normalize_power(W, cfg)
    assert np.sum(np.abs(W2) ** 2) == pytest.approx(2.0, rel=1e-12)
    assert beta == pytest.approx(np.sqrt(2.0 / 5.0), rel=1e-12)
    cfg_lit, _, _ = build_configs({})
    W3, beta3 = normalize_power(W, cfg_lit)
    assert beta3 == 1.0
    assert W3 is W


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
def test_in_place_edit_of_h_b_reaches_rows_and_phase_update(L):
    chs = draw({**SMALL, "m": "16", "k": str(len(L.split(","))), "l": L}, seed=8)
    phases = spawn_rng(4).uniform(-np.pi, np.pi, size=(chs.cfg.K, chs.cfg.N))
    W = bs_ue_zf_precoder(chs, phases)
    rows = stack_bs_ue(chs, phases)[: chs.cfg.U_b]
    update = _phase_update_bs_ue_zf(chs, W)
    operand = chs.HH_first  # built by the update above, from H alone
    chs.h_b[-1] *= np.exp(0.7j * np.arange(1, chs.cfg.N + 1))  # edits the draw itself
    fresh = replace(chs, h_b=chs.h_b.copy())  # a new set, with no per-draw arrays yet
    edited_rows = stack_bs_ue(chs, phases)[: chs.cfg.U_b]
    assert np.array_equal(edited_rows, _reference_cascaded_rows(chs, phases))
    assert np.array_equal(edited_rows[:-1], rows[:-1])
    assert not np.array_equal(edited_rows[-1], rows[-1])
    edited_update = _phase_update_bs_ue_zf(chs, W)
    assert np.array_equal(edited_update, _phase_update_bs_ue_zf(fresh, W))
    assert not np.array_equal(edited_update[-1], update[-1])
    assert chs.HH_first is operand


def test_gram_factor_nan_row_is_not_finite_and_zero_row_raises_first():
    Q = spawn_rng(5).standard_normal((4, 16)) + 1j * spawn_rng(6).standard_normal((4, 16))
    Q[1, 3] = np.nan
    gram = GramFactor(Q)
    # a NaN row counts as nonzero, so the factor is formed and found not finite
    assert gram.inv is not None and gram.finite is False
    assert gram.x is None and isinstance(gram.error, ValueError)
    Q[2] = 0.0
    assert GramFactor(Q).inv is None
    with pytest.raises(RankDeficiencyError, match="all-zero row"):
        right_inverse_apply(Q)
