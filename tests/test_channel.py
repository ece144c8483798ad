"""Geometry, correlation, channel statistics, and seed discipline."""

import math
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from riszf.beamform import GramFactor, gamma_matrix, stack_bs_ris
from riszf.channel import (
    apply_estimation_error,
    complex_normal,
    correlation_matrix,
    default_grid_cols,
    derive_seed,
    element_positions,
    matrix_sqrt_psd,
    sample_channels,
    spawn_rng,
)
from riszf.harness import SpawnStream
from riszf.sysconfig import build_configs

SINC_HALF = 2.0 / math.pi  # sin(pi/2) / (pi/2)


def test_default_grid_cols_squarest_divisor():
    assert default_grid_cols(1) == 1
    assert default_grid_cols(4) == 2
    assert default_grid_cols(8) == 2
    assert default_grid_cols(9) == 3
    assert default_grid_cols(12) == 3
    assert default_grid_cols(7) == 1  # prime: falls back to a line


def test_element_positions_row_major():
    d = 0.25
    pos = element_positions(4, d, grid_cols=2)
    expected = d * np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    np.testing.assert_allclose(pos, expected)
    with pytest.raises(ValueError):
        element_positions(6, d, grid_cols=4)


def test_sinc_correlation_quarter_wavelength_neighbors():
    lam = 0.1666
    C = correlation_matrix(4, lam / 4, lam, model="sinc", grid_cols=2)
    assert C.shape == (4, 4)
    np.testing.assert_allclose(np.diag(C), 1.0)
    np.testing.assert_allclose(C, C.T)
    # horizontal and vertical neighbors sit at x = 2*(lam/4)/lam = 1/2
    assert C[0, 1] == pytest.approx(SINC_HALF, rel=1e-15)
    assert C[0, 2] == pytest.approx(SINC_HALF, rel=1e-15)
    # diagonal pair: x = sqrt(2)/2
    assert C[0, 3] == pytest.approx(np.sinc(math.sqrt(2) / 2), rel=1e-15)


def test_sinc_correlation_identity_only_on_a_line():
    lam = 0.1666
    # collinear elements one wavelength apart: all arguments are even integers
    C_line = correlation_matrix(4, lam, lam, model="sinc", grid_cols=1)
    np.testing.assert_allclose(C_line, np.eye(4), atol=1e-15)
    # a 2x2 grid at the same spacing is NOT uncorrelated: the diagonal
    # pair sits at x = 2*sqrt(2), which is not a zero of the sinc
    C_grid = correlation_matrix(4, lam, lam, model="sinc", grid_cols=2)
    assert abs(C_grid[0, 3]) > 1e-3
    # the explicit iid switch ignores geometry entirely
    C_iid = correlation_matrix(4, lam, lam, model="iid", grid_cols=2)
    np.testing.assert_allclose(C_iid, np.eye(4))


def test_matrix_sqrt_psd_squares_back():
    lam = 0.1666
    C = correlation_matrix(9, lam / 4, lam, model="sinc")
    S = matrix_sqrt_psd(C)
    np.testing.assert_allclose(S @ S, C, atol=1e-12)
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    # eigenvalue clipping keeps the result finite for a singular input
    ones = np.ones((3, 3))
    S1 = matrix_sqrt_psd(ones)
    np.testing.assert_allclose(S1 @ S1, ones, atol=1e-12)


def test_complex_normal_moments():
    rng = spawn_rng(123)
    x = complex_normal(rng, (20000,), variance=3.0)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(3.0, rel=0.05)
    assert abs(np.mean(x)) < 0.05
    # circular symmetry: pseudo-variance vanishes (3 sigma at this sample size)
    assert abs(np.mean(x**2)) < 0.09


def test_complex_normal_int_shape_is_a_one_tuple():
    for variance in (1.0, 3.0):
        a = complex_normal(spawn_rng(5), 7, variance=variance)
        b = complex_normal(spawn_rng(5), (7,), variance=variance)
        assert a.shape == (7,) and np.array_equal(a, b)


def test_spawn_rng_reproducible_and_streams_independent():
    a1 = spawn_rng(7, 1, 2).standard_normal(4)
    a2 = spawn_rng(7, 1, 2).standard_normal(4)
    b = spawn_rng(7, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def _philox_states_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        _philox_states_equal(a[k], b[k]) if isinstance(a[k], dict)
        else np.array_equal(a[k], b[k]) for k in a
    )


def test_derive_seed_is_the_first_uint64_state_word_and_philox_key():
    # derive_seed joins generate_state(2)'s two uint32 words; that must be
    # generate_state(1, np.uint64)'s word, which is also the first key word
    # of the Philox generator spawn_rng builds for the same key. Both build
    # the SeedSequence from one entropy array, which must be the one numpy
    # assembles from (master, spawn_key): masters of one to seven uint32
    # words (numpy pads fewer than four with zeros when a key follows, and
    # five or more not at all), key elements of one to three words, and
    # the harness's SpawnStream members as key elements
    draw = np.random.default_rng(2)
    masters = (0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 11, 2**70 + 3,
               2**96 + 1, 2**128, 2**128 + 2**64 + 9, 2**200 + 17)
    keys = [()] + [tuple(draw.integers(0, 2**31, size=draw.integers(1, 5)).tolist())
                   for _ in range(299)]
    keys += [(2**32,), (0, 2**32 - 1, 2**32 + 7), (2**64 + 5, 3), (2**95, 1, 2**33)]
    keys += [(d, t, stream) for d, t in ((0, 0), (3, 9)) for stream in SpawnStream]
    for i, key in enumerate(keys):
        m = masters[i % len(masters)]
        ss = np.random.SeedSequence(m, spawn_key=key)
        want = int(ss.generate_state(1, np.uint64)[0])
        assert derive_seed(m, *key) == want, (m, key)
        state = spawn_rng(m, *key).bit_generator.state
        assert int(state["state"]["key"][0]) == want
        assert _philox_states_equal(state, np.random.Philox(ss).state), (m, key)


@pytest.mark.parametrize("master, key", [(-1, ()), (-1, (0,)), (2**70, (-1,)), (0, (1, 2, -3))])
def test_seeding_rejects_negative_integers_as_numpy_does(master, key):
    with pytest.raises(ValueError):
        np.random.SeedSequence(master, spawn_key=key)
    with pytest.raises(ValueError):
        derive_seed(master, *key)
    with pytest.raises(ValueError):
        spawn_rng(master, *key)


def _mean_gram(seed: int, trials: int, cfg, ch):
    """Monte Carlo E{H_1^H H_1}, E{h h^H}, E{|h_d|^2}."""
    N = cfg.N
    gram = np.zeros((N, N), dtype=np.complex128)
    outer = np.zeros((N, N), dtype=np.complex128)
    d_power = 0.0
    n_b = 0
    for t in range(trials):
        chs = sample_channels(cfg, ch, spawn_rng(seed, t))
        gram += chs.H[0].conj().T @ chs.H[0]
        for i in range(cfg.U_b):
            outer += np.outer(chs.h_b[i], chs.h_b[i].conj())
            n_b += 1
        d_power += np.mean(np.abs(chs.h_d) ** 2)
    return gram / trials, outer / n_b, d_power / trials


def test_sample_channels_second_order_statistics():
    cfg, ch, _ = build_configs({"sweep_m": "32", "sweep_n": "4", "k": "2", "u_d": "2"})
    gram, outer, d_power = _mean_gram(seed=11, trials=400, cfg=cfg, ch=ch)
    C = correlation_matrix(
        cfg.N, ch.element_spacing, ch.wavelength, ch.correlation_model, ch.grid_cols
    )
    target_gram = cfg.M * ch.ris_element_scale * C
    err = np.linalg.norm(gram - target_gram) / np.linalg.norm(target_gram)
    assert err < 0.05, f"relative Gram error {err:.3f}"

    target_outer = ch.ris_ue_link_variance * C
    err_b = np.linalg.norm(outer - target_outer) / np.linalg.norm(target_outer)
    assert err_b < 0.10, f"relative blocked-link error {err_b:.3f}"

    assert d_power == pytest.approx(ch.direct_link_variance, rel=0.05)


def test_sample_channels_iid_switch_gives_flat_variance():
    cfg, ch, _ = build_configs(
        {"sweep_m": "16", "sweep_n": "4", "k": "1", "u_d": "1", "correlation_model": "iid"}
    )
    gram, _, _ = _mean_gram(seed=3, trials=400, cfg=cfg, ch=ch)
    target = cfg.M * ch.ris_element_scale * np.eye(cfg.N)
    err = np.linalg.norm(gram - target) / np.linalg.norm(target)
    assert err < 0.05


def test_sample_channels_shapes_and_determinism():
    cfg, ch, _ = build_configs({"sweep_m": "64", "sweep_n": "4"})
    chs1 = sample_channels(cfg, ch, spawn_rng(42, 0))
    chs2 = sample_channels(cfg, ch, spawn_rng(42, 0))
    assert chs1.H.shape == (cfg.K, cfg.M, cfg.N)
    assert chs1.h_b.shape == (cfg.U_b, cfg.N)
    assert chs1.h_d.shape == (cfg.U_d, cfg.M)
    np.testing.assert_array_equal(chs1.H, chs2.H)
    np.testing.assert_array_equal(chs1.h_b, chs2.h_b)
    np.testing.assert_array_equal(chs1.h_d, chs2.h_d)
    assert chs1.h_block(1, 0) is not None
    np.testing.assert_array_equal(chs1.h_block(1), chs1.h_b[1])


def test_estimation_error_zero_tau_is_identity():
    cfg, ch, _ = build_configs({"sweep_m": "64", "sweep_n": "4"})
    chs = sample_channels(cfg, ch, spawn_rng(5, 0))
    assert apply_estimation_error(chs, 0.0, seed=99) is chs


@pytest.mark.parametrize("tau", [1.0, -0.1])
def test_estimation_error_fraction_outside_unit_interval_raises(tau):
    # RunConfig rejects such a csi_tau first; the function checks its own argument
    cfg, ch, _ = build_configs({"sweep_m": "64", "sweep_n": "4"})
    chs = sample_channels(cfg, ch, spawn_rng(5, 0))
    with pytest.raises(ValueError, match=rf"fraction {tau} outside \[0, 1\)"):
        apply_estimation_error(chs, tau, seed=99)


def test_estimation_error_energy_and_statistics():
    cfg, ch, _ = build_configs({"sweep_m": "24", "sweep_n": "4", "k": "2", "u_d": "2"})
    tau = 0.36
    expected_ratio = 2.0 * (1.0 - math.sqrt(1.0 - tau))
    num = 0.0
    den = 0.0
    outer = np.zeros((cfg.N, cfg.N), dtype=np.complex128)
    trials = 300
    for t in range(trials):
        chs = sample_channels(cfg, ch, spawn_rng(21, t))
        noisy = apply_estimation_error(chs, tau, seed=derive_seed(22, t))
        num += np.sum(np.abs(noisy.H - chs.H) ** 2)
        num += np.sum(np.abs(noisy.h_b - chs.h_b) ** 2)
        num += np.sum(np.abs(noisy.h_d - chs.h_d) ** 2)
        den += np.sum(np.abs(chs.H) ** 2)
        den += np.sum(np.abs(chs.h_b) ** 2)
        den += np.sum(np.abs(chs.h_d) ** 2)
        for i in range(cfg.U_b):
            outer += np.outer(noisy.h_b[i], noisy.h_b[i].conj())
    assert num / den == pytest.approx(expected_ratio, rel=0.05)
    # the perturbed links keep the nominal second-order statistics
    C = correlation_matrix(
        cfg.N, ch.element_spacing, ch.wavelength, ch.correlation_model, ch.grid_cols
    )
    target = ch.ris_ue_link_variance * C
    mean_outer = outer / (trials * cfg.U_b)
    err = np.linalg.norm(mean_outer - target) / np.linalg.norm(target)
    assert err < 0.10


def test_estimation_error_deterministic_in_seed():
    cfg, ch, _ = build_configs({"sweep_m": "64", "sweep_n": "4"})
    chs = sample_channels(cfg, ch, spawn_rng(8, 0))
    a = apply_estimation_error(chs, 0.2, seed=1234)
    b = apply_estimation_error(chs, 0.2, seed=1234)
    c = apply_estimation_error(chs, 0.2, seed=1235)
    np.testing.assert_array_equal(a.H, b.H)
    np.testing.assert_array_equal(a.h_d, b.h_d)
    assert not np.allclose(a.H, c.H)


def _reference_sample_channels(cfg, ch, rng):
    """The per-RIS and per-UE draw loops the stacked draws replaced."""
    M, N, K = cfg.M, cfg.N, cfg.K
    C = correlation_matrix(
        N, ch.element_spacing, ch.wavelength, ch.correlation_model, ch.grid_cols
    )
    sqrt_C = matrix_sqrt_psd(C)
    D = math.sqrt(ch.ris_element_scale) * sqrt_C
    H = np.empty((K, M, N), dtype=np.complex128)
    for k in range(K):
        H[k] = complex_normal(rng, (M, N)) @ D
    h_b = np.empty((cfg.U_b, N), dtype=np.complex128)
    scale_b = math.sqrt(ch.ris_ue_link_variance)
    for k in range(K):
        for ell in range(cfg.L[k]):
            z = complex_normal(rng, (N,))
            h_b[cfg.blocked_index(k, ell)] = scale_b * (sqrt_C @ z)
    h_d = complex_normal(rng, (cfg.U_d, M), variance=ch.direct_link_variance)
    return H, h_b, h_d


def _reference_apply_estimation_error(chs, tau, seed):
    cfg, ch = chs.cfg, chs.ch
    rng = spawn_rng(seed)
    keep, mix = math.sqrt(1.0 - tau), math.sqrt(tau)
    D = math.sqrt(ch.ris_element_scale) * chs.sqrt_C
    H = np.empty_like(chs.H)
    for k in range(cfg.K):
        H[k] = keep * chs.H[k] + mix * (complex_normal(rng, (cfg.M, cfg.N)) @ D)
    h_b = np.empty_like(chs.h_b)
    scale_b = math.sqrt(ch.ris_ue_link_variance)
    for i in range(cfg.U_b):
        e = scale_b * (chs.sqrt_C @ complex_normal(rng, (cfg.N,)))
        h_b[i] = keep * chs.h_b[i] + mix * e
    e_d = complex_normal(rng, chs.h_d.shape, variance=ch.direct_link_variance)
    return H, h_b, keep * chs.h_d + mix * e_d


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
@pytest.mark.parametrize("N", [1, 2, 4, 8, 9, 16])
def test_stacked_draws_bit_identical_to_per_block_loops(N, L):
    for M in (8, 16, 32, 64, 128, 256):
        kv = {"sweep_m": str(M), "sweep_n": str(N), "k": str(len(L.split(","))), "l": L, "u_d": "2"}
        cfg, ch, _ = build_configs(kv)
        chs = sample_channels(cfg, ch, spawn_rng(3, M, N))
        ref = _reference_sample_channels(cfg, ch, spawn_rng(3, M, N))
        for got, want in zip((chs.H, chs.h_b, chs.h_d), ref):
            assert np.array_equal(got, want), (M, N, L)
        assert apply_estimation_error(chs, 0.0, seed=17) is chs
        noisy = apply_estimation_error(chs, 0.3, seed=17)
        ref = _reference_apply_estimation_error(chs, 0.3, seed=17)
        for got, want in zip((noisy.H, noisy.h_b, noisy.h_d), ref):
            assert np.array_equal(got, want), (M, N, L)


@pytest.mark.parametrize("kv", [
    {"l": "1,1,1,1", "u_d": "2"},
    {"k": "3", "l": "2,1,3", "u_d": "0"},
    {"k": "3", "l": "2,1,3", "u_d": "2", "direct_link_variance": "3.0",
     "ris_ue_link_variance": "2.0"},
    {"l": "1,1,1,1", "u_d": "0", "ris_ue_link_variance": "4.0"},
])
def test_estimation_error_is_a_second_draw_by_the_same_recipe(kv):
    # e is the draw sample_channels makes on the error seed's stream
    cfg, ch, _ = build_configs({"sweep_m": "32", "sweep_n": "4", **kv})
    chs = sample_channels(cfg, ch, spawn_rng(9, 2, 5))
    errors = sample_channels(cfg, ch, spawn_rng(41))
    true_links = [a.copy() for a in (chs.H, chs.h_b, chs.h_d)]
    for tau in (0.1, 0.3):
        keep, mix = math.sqrt(1.0 - tau), math.sqrt(tau)
        noisy = apply_estimation_error(chs, tau, seed=41)
        for name in ("H", "h_b", "h_d"):
            x, e = getattr(chs, name), getattr(errors, name)
            assert np.array_equal(getattr(noisy, name), keep * x + mix * e), (name, tau)
        assert noisy.C is chs.C and noisy.sqrt_C is chs.sqrt_C
    # the estimate is mixed into the error's memory, never into the true links
    for got, want in zip((chs.H, chs.h_b, chs.h_d), true_links):
        assert np.array_equal(got, want)


def test_correlation_and_root_are_cached_read_only():
    lam = 0.1666
    C = correlation_matrix(8, lam / 4, lam, "sinc", None)
    assert correlation_matrix(8, lam / 4, lam, "sinc", None) is C
    S = matrix_sqrt_psd(C)
    for arr in (C, S, correlation_matrix(4, lam, lam, "iid", None)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    # every argument is part of the key
    for other in (
        correlation_matrix(9, lam / 4, lam, "sinc", None),
        correlation_matrix(8, lam / 2, lam, "sinc", None),
        correlation_matrix(8, lam / 4, lam / 2, "sinc", None),
        correlation_matrix(8, lam / 4, lam, "iid", None),
        correlation_matrix(8, lam / 4, lam, "sinc", 1),
    ):
        assert other.shape != C.shape or not np.array_equal(other, C)
    # the root is keyed on content, not on the array object
    assert matrix_sqrt_psd(np.array(C)) is S
    edited = np.array(C)
    edited[0, 1] = edited[1, 0] = 0.5
    S_edited = matrix_sqrt_psd(edited)
    assert S_edited is not S
    np.testing.assert_allclose(S_edited @ S_edited, edited, atol=1e-12)


def test_draws_share_the_cached_correlation():
    cfg, ch, _ = build_configs({"sweep_m": "8", "sweep_n": "4"})
    a = sample_channels(cfg, ch, spawn_rng(1, 0))
    b = sample_channels(cfg, ch, spawn_rng(1, 1))
    assert a.C is b.C and a.sqrt_C is b.sqrt_C


GRAM_ARRAYS = ("norms", "inv", "QsH", "A")


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
def test_per_draw_arrays_are_read_only_and_exact(L):
    # the RIS-side stack has 18 rows at L=1,1,1,1, more than M, so its
    # Gram matrix is singular and its bound inf; at L=2,1,3 it has 14 and
    # the bound is finite
    cfg, ch, _ = build_configs({"sweep_m": "16", "sweep_n": "4", "k": str(len(L.split(","))), "l": L})
    ris = np.repeat(np.arange(cfg.K), cfg.L)
    # many draws in a row: a freed draw's memory, and so its id, is reused,
    # and every draw must still see its own arrays
    for seed in range(12):
        chs = sample_channels(cfg, ch, spawn_rng(seed, 0))
        # built afresh, not read from chs
        gram = GramFactor(stack_bs_ris(chs), gamma_matrix(cfg.N, cfg.K, cfg.U_d))
        assert chs.ris_gram is chs.ris_gram
        assert chs.ris_gram.bound == gram.bound
        assert (gram.bound == np.inf) == (L == "1,1,1,1")
        for name, want in (
            ("H_conj_blocked", chs.H.conj()[ris]),
            ("R", ch.ris_element_scale * chs.C),
            *((f"ris_gram.{a}", getattr(gram, a)) for a in GRAM_ARRAYS),
        ):
            got = attrgetter(name)(chs)
            assert got is attrgetter(name)(chs)  # computed once per draw
            assert not got.flags.writeable
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, seed)
            with pytest.raises(ValueError):
                got.flat[0] = 0.0
        # the draw's one solve toward gamma_matrix, kept read-only
        if L == "2,1,3":
            assert not chs.ris_gram.x.flags.writeable
            assert np.array_equal(chs.ris_gram.x, gram.x)


def test_replaced_draw_gets_fresh_per_draw_arrays():
    cfg, ch, _ = build_configs({"sweep_m": "16", "sweep_n": "4", "k": "3", "l": "2,1,3"})
    chs = sample_channels(cfg, ch, spawn_rng(3, 0))
    before = chs.H_conj_blocked
    gram = chs.ris_gram
    noisy = apply_estimation_error(chs, 0.3, seed=11)
    copy = replace(chs, H=2.0 * chs.H)
    for other in (noisy, copy):
        assert np.array_equal(other.H_conj_blocked, other.H.conj()[[0, 0, 1, 2, 2, 2]])
        assert not np.array_equal(other.H_conj_blocked, before)
        assert np.array_equal(other.ris_gram.norms, GramFactor(stack_bs_ris(other)).norms)
        assert not np.array_equal(other.ris_gram.norms, gram.norms)
    assert chs.H_conj_blocked is before
    assert chs.ris_gram is gram


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
def test_first_ue_operand_is_a_read_only_transpose_of_the_stack(L):
    cfg, ch, _ = build_configs({"sweep_m": "16", "sweep_n": "4", "k": str(len(L.split(","))), "l": L})
    for seed in range(6):
        chs = sample_channels(cfg, ch, spawn_rng(seed, 0))
        got = chs.HH_first
        want = chs.H_conj_blocked[cfg.first_blocked].transpose(0, 2, 1)
        assert got is chs.HH_first  # computed once per draw
        # the same bits in the same layout, so every product over it is too
        assert (got.shape, got.strides, got.dtype) == (want.shape, want.strides, want.dtype)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 0.0
        # a view of the stack when every RIS serves one UE, a gathered copy otherwise
        assert np.shares_memory(got, chs.H_conj_blocked) == (L == "1,1,1,1")


@pytest.mark.parametrize("L", ["1,1,1,1", "2,1,3"])
def test_replaced_draw_builds_its_own_first_ue_operand(L):
    cfg, ch, _ = build_configs({"sweep_m": "16", "sweep_n": "4", "k": str(len(L.split(","))), "l": L})
    chs = sample_channels(cfg, ch, spawn_rng(3, 0))
    before = chs.HH_first
    for other in (replace(chs, H=2.0 * chs.H), apply_estimation_error(chs, 0.3, seed=11)):
        assert np.array_equal(other.HH_first, other.H.conj().transpose(0, 2, 1))
        assert not np.array_equal(other.HH_first, before)
        assert not np.shares_memory(other.HH_first, before)
    assert chs.HH_first is before
