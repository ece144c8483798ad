"""Per-trial evaluation: SINRs, Shannon rates, nulling residuals, rank
diagnostics, and the closed-form multiplication counts of both schemes.
"""

from __future__ import annotations

import numpy as np

from riszf.beamform import (
    GramFactor,
    bs_ris_zf_precoder,
    stack_bs_ris,
    stack_bs_ue,
)
from riszf.channel import ChannelSet
from riszf.sysconfig import SystemConfig

RANK_SV_THRESHOLD = 1e-10  # relative to the largest singular value
# Largest `_sv_ratio_bound` that skips the SVD, a factor 10 inside the
# threshold for the rounding of the SVD itself.
RANK_BOUND_LIMIT = 0.1 / RANK_SV_THRESHOLD


def effective_matrix(
    chs: ChannelSet, phases: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """((U_b + U_d) x streams) received-gain matrix: every UE's channel row
    (cascaded for blocked UEs, direct otherwise) times every precoder
    column. Entry (u, j) is the complex gain of stream j at UE u."""
    return stack_bs_ue(chs, phases) @ W


def _check_streams(cfg: SystemConfig, W: np.ndarray) -> None:
    """Raise ValueError unless W has one column per UE. Either scheme's
    precoder does: the RIS-side one has K + U_d columns and serves one UE
    per RIS, so K = U_b. Column u is then the stream of UE row u."""
    if W.shape[1] != cfg.U_b + cfg.U_d:
        raise ValueError(
            f"cannot map {W.shape[1]} streams onto U_b={cfg.U_b}, U_d={cfg.U_d}, "
            f"K={cfg.K}, L={list(cfg.L)}"
        )


def sinr_exact(
    chs: ChannelSet, phases: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-UE SINRs with the provided (possibly rescaled) precoder.

    Desired power over the summed power of every other stream plus that
    UE's noise variance, both read from the draw's own config. Works for
    either scheme's column layout and any phase configuration, which makes
    it the common ground for cross-scheme and imperfect-CSI comparisons.
    """
    cfg = chs.cfg
    _check_streams(cfg, W)
    E = effective_matrix(chs, phases, W)
    power = np.abs(E) ** 2
    sig = power.diagonal()
    interference = power.sum(axis=1) - sig
    sinr = sig / (interference + cfg.noise_variances)
    return sinr[: cfg.U_b], sinr[cfg.U_b :]


def nulling_residual(chs: ChannelSet, phases: np.ndarray, W: np.ndarray) -> float:
    """Largest leaked cross-stream gain |E_{u,j}|, j not the UE's stream.

    Zero for exact interference nulling; grows with CSI error since the
    precoder then nulls the estimated channels, not the true ones.
    """
    _check_streams(chs.cfg, W)
    leak = np.abs(effective_matrix(chs, phases, W))
    np.fill_diagonal(leak, 0.0)
    return float(leak.max())


def sinr_bs_ris_zf(chs: ChannelSet, phases: np.ndarray, k: int) -> float:
    """Blocked-UE SINR under RIS-side nulling, from the scheme's own
    closed form: the per-element responses are pinned by the precoder, so
    the SINR is the coherently summed reflection divided by UE k's noise
    variance."""
    W = bs_ris_zf_precoder(chs)
    a = chs.H[k].conj().T @ W[:, k]
    gain = np.sum(np.exp(1j * phases[k]) * chs.h_block(k).conj() * a)
    return float(np.abs(gain) ** 2 / chs.cfg.noise_variance_blocked[k])


def sum_rate(sinrs: np.ndarray) -> float:
    """Shannon sum rate, bits/s/Hz: sum of log2(1 + SINR)."""
    s = np.asarray(sinrs, dtype=float)
    if np.count_nonzero(s < 0):
        raise ValueError("SINRs must be nonnegative")
    return float(np.sum(np.log2(1.0 + s)))


def rank_q2(chs: ChannelSet) -> int:
    """Numerical rank of the RIS-side stack (`stack_rank`). When the stack
    has no more rows than columns, its bound reads the draw's factor
    (`ChannelSet.ris_gram`), which the RIS-side precoders share, and the
    stack itself is built only for the SVD."""
    cfg = chs.cfg
    rows = cfg.N * cfg.K + cfg.U_d
    if rows > cfg.M:
        return stack_rank(stack_bs_ris(chs))
    if _sv_ratio_bound(chs.ris_gram) <= RANK_BOUND_LIMIT:
        return rows
    return _svd_rank(stack_bs_ris(chs))


def stack_rank(Q: np.ndarray) -> int:
    """Numerical rank of the stack Q: its singular values above
    RANK_SV_THRESHOLD times the largest.

    The stack is min(rows, M) singular values wide. When the bound on its
    σmax/σmin (`_sv_ratio_bound` of its shorter side: the rows, or the
    rows of Q^H, which has the same singular values) is at most
    RANK_BOUND_LIMIT, the SVD would count every one of them, so that
    width is returned without it; every case the bound cannot settle runs
    the SVD.
    """
    shorter = Q if Q.shape[0] <= Q.shape[1] else Q.conj().T
    if _sv_ratio_bound(GramFactor(shorter)) <= RANK_BOUND_LIMIT:
        return min(Q.shape)
    return _svd_rank(Q)


def _svd_rank(Q: np.ndarray) -> int:
    """The singular values of Q above RANK_SV_THRESHOLD times the largest."""
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_SV_THRESHOLD * sv[0]))


def _sv_ratio_bound(gram: GramFactor) -> float:
    """Upper bound on σmax/σmin of a stack with no more rows than columns
    (σmin the rows-th singular value) from its `GramFactor`, or inf when
    it cannot be formed or trusted.

    With D the diagonal of the row norms and A the Gram matrix of the
    equilibrated rows, σmax/σmin <= (max D / min D) sqrt(λmax/λmin of A),
    and `GramFactor.bound` bounds that ratio where it can be trusted and
    gives inf elsewhere. The norms must be at least one, all positive and
    finite. Forming A squares the ratio: a nearly rank-deficient stack has
    a computed A with λmin at the rounding floor, about eps·tr(A), and a
    Gram bound near rows²/eps when the solve succeeds at all. That is past
    the trusted range, so the SVD decides.
    """
    d = gram.norms
    if not (d.size > 0 and d.min() > 0.0 and d.max() < np.inf):
        return np.inf
    return float(d.max() / d.min() * np.sqrt(gram.bound))


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


def complexity_counts(M: int, N: int, K: int, U_b: int, U_d: int) -> tuple[int, int]:
    """Multiplication counts of one beamforming-plus-phase-design pass.

    Exact integer evaluation of the published operation counts. Both are
    linear in M; the UE-side count is quadratic in N and the RIS-side one
    cubic. One term of the RIS-side formula contains a bare symbol "d" of
    unclear origin; it is read as U_d.
    """
    if min(M, N, K, U_b) < 1 or U_d < 0:
        raise ValueError("dimensions must be positive (U_d nonnegative)")
    s1 = U_b + U_d
    ue = U_b * (s1**3 + 2 * M * s1**2 + M * N * s1 + M * N**2 + M * N + 1)
    s2 = N * U_b + U_d
    ris = U_b * (s2**3 + (2 * M + U_b + K + U_d) * s2**2 + M * N * s2 + 1)
    return ue, ris
