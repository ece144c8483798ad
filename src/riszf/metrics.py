"""Per-trial evaluation: SINRs, Shannon rates, nulling residuals, rank
diagnostics, and the closed-form multiplication counts of both schemes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from riszf.beamform import (
    bs_ris_zf_precoder,
    cholesky_cond_bound,
    stack_bs_ris,
    stack_bs_ue,
    vector_norms,
)
from riszf.channel import ChannelSet, read_only
from riszf.sysconfig import SystemConfig

RANK_SV_THRESHOLD = 1e-10  # relative to the largest singular value
# Largest `_sv_ratio_bound` that skips the SVD, a factor 10 inside the
# threshold for the rounding of the SVD itself.
RANK_BOUND_LIMIT = 0.1 / RANK_SV_THRESHOLD


@dataclass
class TrialResult:
    """Everything measured in one Monte Carlo trial.

    Per-UE arrays are RIS-major for blocked UEs. Context fields (trial
    index, scheme, rule, dimensions) are stamped by the sweep runner. The
    phase rule's solver fills phase_iterations, phase_converged and
    fixed_point_residual; rules without an iteration give 0, True, 0.0.
    """

    sinr_blocked: np.ndarray
    sinr_direct: np.ndarray
    sum_rate: float
    nulling_residual: float
    fixed_point_residual: float
    phase_iterations: int
    phase_converged: bool
    rank_q2: int
    seed: int
    trial: int = -1
    scheme: str = ""
    phase_rule: str = ""
    M: int = 0
    N: int = 0
    K: int = 0
    U_d: int = 0
    csi_tau: float = 0.0


TRIAL_CSV_HEADER = (
    "trial,scheme,phase_rule,M,N,K,U_d,csi_tau,"
    "sinr_min,sinr_max,sum_rate,nulling_residual,rank_q2,seed,"
    "phase_iterations,phase_converged,fixed_point_residual"
)


def trial_csv_row(t: TrialResult) -> str:
    sinrs = np.concatenate([t.sinr_blocked, t.sinr_direct])
    return ",".join(
        [
            str(t.trial),
            t.scheme,
            t.phase_rule,
            str(t.M),
            str(t.N),
            str(t.K),
            str(t.U_d),
            repr(float(t.csi_tau)),
            repr(float(np.min(sinrs))),
            repr(float(np.max(sinrs))),
            repr(float(t.sum_rate)),
            repr(float(t.nulling_residual)),
            str(t.rank_q2),
            str(t.seed),
            str(t.phase_iterations),
            str(int(t.phase_converged)),
            repr(float(t.fixed_point_residual)),
        ]
    )


def effective_matrix(
    chs: ChannelSet, phases: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """((U_b + U_d) x streams) received-gain matrix: every UE's channel row
    (cascaded for blocked UEs, direct otherwise) times every precoder
    column. Entry (u, j) is the complex gain of stream j at UE u."""
    return stack_bs_ue(chs, phases) @ W


@functools.lru_cache(maxsize=64)
def _desired_columns(cfg: SystemConfig, n_streams: int) -> np.ndarray:
    """Stream carried to each UE, in UE row order (blocked then direct).

    With one stream per UE the map is the identity. With one stream per
    RIS (RIS-side nulling; only defined for a single UE per RIS) blocked
    UE (k, 0) listens to stream k and direct UE u to stream K + u.
    Cached per (config, stream count); the returned array is read-only.
    """
    n_ue = cfg.U_b + cfg.U_d
    if n_streams == n_ue:
        return read_only(np.arange(n_ue))
    if n_streams == cfg.K + cfg.U_d and all(l == 1 for l in cfg.L):
        return read_only(np.concatenate([np.arange(cfg.K), cfg.K + np.arange(cfg.U_d)]))
    raise ValueError(
        f"cannot map {n_streams} streams onto U_b={cfg.U_b}, U_d={cfg.U_d}, "
        f"K={cfg.K}, L={list(cfg.L)}"
    )


@functools.lru_cache(maxsize=64)
def _noise_variances(cfg: SystemConfig) -> np.ndarray:
    """Every UE's noise variance in UE row order, cached per config;
    the returned array is read-only."""
    return read_only(np.concatenate([cfg.noise_variance_blocked, cfg.noise_variance_direct]))


def sinr_exact(
    chs: ChannelSet, phases: np.ndarray, W: np.ndarray, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-UE SINRs with the provided (possibly rescaled) precoder.

    Desired power over the summed power of every other stream plus that
    UE's noise variance. Works for either scheme's column layout and any
    phase configuration, which makes it the common ground for cross-scheme
    and imperfect-CSI comparisons.
    """
    E = effective_matrix(chs, phases, W)
    desired = _desired_columns(cfg, W.shape[1])
    power = np.abs(E) ** 2
    sig = power[np.arange(power.shape[0]), desired]
    interference = power.sum(axis=1) - sig
    sinr = sig / (interference + _noise_variances(cfg))
    return sinr[: cfg.U_b], sinr[cfg.U_b :]


def nulling_residual(
    chs: ChannelSet, phases: np.ndarray, W: np.ndarray, cfg: SystemConfig
) -> float:
    """Largest leaked cross-stream gain |E_{u,j}|, j not the UE's stream.

    Zero for exact interference nulling; grows with CSI error since the
    precoder then nulls the estimated channels, not the true ones.
    """
    E = effective_matrix(chs, phases, W)
    desired = _desired_columns(cfg, W.shape[1])
    leak = np.abs(E)
    leak[np.arange(leak.shape[0]), desired] = 0.0
    return float(leak.max())


def sinr_bs_ris_zf(
    chs: ChannelSet, phases: np.ndarray, k: int, sigma2_k: float
) -> float:
    """Blocked-UE SINR under RIS-side nulling, from the scheme's own
    closed form: the per-element responses are pinned by the precoder, so
    the SINR is the coherently summed reflection divided by noise."""
    W = bs_ris_zf_precoder(chs)
    a = chs.H[k].conj().T @ W[:, k]
    gain = np.sum(np.exp(1j * phases[k]) * chs.h_block(k).conj() * a)
    return float(np.abs(gain) ** 2 / sigma2_k)


def sum_rate(sinrs: np.ndarray) -> float:
    """Shannon sum rate, bits/s/Hz: sum of log2(1 + SINR)."""
    s = np.asarray(sinrs, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINRs must be nonnegative")
    return float(np.sum(np.log2(1.0 + s)))


def rank_q2(chs: ChannelSet) -> int:
    """Numerical rank of the RIS-side stack: its singular values above
    RANK_SV_THRESHOLD times the largest.

    The stack is min(rows, M) singular values wide. When the bound on its
    σmax/σmin (`_sv_ratio_bound`, from the Gram matrix's inverse) is at
    most RANK_BOUND_LIMIT, the SVD would count every one of them, so that
    width is returned without it; every case the bound cannot settle runs
    the SVD.
    """
    Q = stack_bs_ris(chs)
    if _sv_ratio_bound(Q) <= RANK_BOUND_LIMIT:
        return min(Q.shape)
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_SV_THRESHOLD * sv[0]))


def _sv_ratio_bound(Q: np.ndarray) -> float:
    """Upper bound on σmax/σmin of Q (σmin the min(rows, M)-th singular
    value), or inf when it cannot be formed or trusted.

    The shorter side is equilibrated, Q = D Qs with D the diagonal of its
    norms (row norms when rows <= M, column norms otherwise); then
    σmax/σmin <= (max D / min D) sqrt(λmax/λmin) of the Gram matrix A of
    Qs, and `cholesky_cond_bound` bounds that ratio where it can be
    trusted and gives inf elsewhere. Forming A squares the ratio: a nearly
    rank-deficient Q has a computed A with λmin at the rounding floor,
    about eps·tr(A), and a Gram bound near rows²/eps when the factor
    succeeds at all. That is past the trusted range, so the SVD decides.
    """
    rows_side = Q.shape[0] <= Q.shape[1]
    d = vector_norms(Q, axis=1 if rows_side else 0)
    if d.size == 0 or not (d.min() > 0.0 and d.max() < np.inf):
        return np.inf
    # scaled by the reciprocals: a complex-by-real division costs about
    # three times the product, and only the bound's last bits differ
    if rows_side:
        Qs = Q * (1.0 / d)[:, None]
        A = Qs @ Qs.conj().T
    else:
        Qs = Q * (1.0 / d)
        A = Qs.conj().T @ Qs
    return float(d.max() / d.min() * np.sqrt(cholesky_cond_bound(A)))


def rank_diagnostics(
    chs: ChannelSet, corr_ranks: list[int]
) -> tuple[int, int, bool]:
    """Measured rank of the RIS-side stack against its structural ceiling.

    Each BS-RIS block factors through its N x N correlation root, so the
    stack's rank cannot exceed the summed correlation ranks plus one
    dimension per direct UE. Returns (rank, bound, bound holds).
    """
    cfg = chs.cfg
    if len(corr_ranks) != cfg.K:
        raise ValueError(f"expected {cfg.K} correlation ranks, got {len(corr_ranks)}")
    rank = rank_q2(chs)
    bound = int(sum(corr_ranks)) + cfg.U_d
    return rank, bound, rank <= bound


def complexity_counts(
    M: int, N: int, K: int, U_b: int, U_d: int, d_token: int | None = None
) -> tuple[int, int]:
    """Multiplication counts of one beamforming-plus-phase-design pass.

    Exact integer evaluation of the published operation counts. Both are
    linear in M; the UE-side count is quadratic in N and the RIS-side one
    cubic. One term of the RIS-side formula contains a bare symbol "d" of
    unclear origin; it is read as U_d unless `d_token` supplies another
    value for audit.
    """
    if min(M, N, K, U_b) < 1 or U_d < 0:
        raise ValueError("dimensions must be positive (U_d nonnegative)")
    s1 = U_b + U_d
    ue = U_b * (s1**3 + 2 * M * s1**2 + M * N * s1 + M * N**2 + M * N + 1)
    d = U_d if d_token is None else d_token
    s2 = N * U_b + U_d
    ris = U_b * (s2**3 + (2 * M + U_b + K + d) * s2**2 + M * N * s2 + 1)
    return ue, ris
