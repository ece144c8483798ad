"""Zero-forcing precoders for the two nulling strategies.

Both strategies right-invert a stacked channel matrix:

* UE-side nulling stacks one cascaded row per blocked UE (its RIS channel
  propagated through the current phase configuration) plus the direct rows,
  and inverts toward an identity target, so each UE hears only its stream.
* RIS-side nulling stacks every BS-RIS column and the direct rows, and
  inverts toward a block target that points one beam per RIS with equal
  weight on all of that RIS's elements while nulling every other element.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from riszf.channel import ChannelSet
from riszf.sysconfig import SystemConfig

# Largest eigenvalue ratio accepted for a Gram or correlation matrix.
COND_LIMIT = 1e12


class RankDeficiencyError(RuntimeError):
    """Stacked channel matrix is numerically rank deficient.

    Carries the measured condition number and the matrix shape so batch
    callers can log which operating point collapsed.
    """

    def __init__(self, message: str, cond: float, shape: tuple[int, int]):
        super().__init__(message)
        self.cond = cond
        self.shape = shape


def cascaded_rows(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """(U_b, M) effective rows h^H Phi H^H for every blocked UE.

    `phases` has shape (K, N); UEs served by the same RIS share its
    phase configuration. Row u is conj(H_k) x_u with x_u = conj(h_u)
    e^{j phi_k}, taken for every UE in one stacked product, which is
    bit-identical to the per-UE vector-matrix product.
    """
    cfg = chs.cfg
    ris = np.repeat(np.arange(cfg.K), cfg.L)  # RIS serving each blocked UE
    x = chs.h_b.conj() * np.exp(1j * phases)[ris]
    return (chs.H.conj()[ris] @ x[:, :, None])[:, :, 0]


def stack_bs_ue(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """((U_b + U_d) x M) stacked rows: cascaded blocked UEs, then direct."""
    return np.vstack([cascaded_rows(chs, phases), chs.h_d.conj()])


def stack_bs_ris(chs: ChannelSet) -> np.ndarray:
    """((N K + U_d) x M) stacked rows: every RIS element row, then direct."""
    blocks = [chs.H[k].conj().T for k in range(chs.cfg.K)]
    blocks.append(chs.h_d.conj())
    return np.vstack(blocks)


def gamma_matrix(N: int, K: int, U_d: int) -> np.ndarray:
    """((N K + U_d) x (K + U_d)) per-stream target response.

    Column k asks for unit gain on all N elements of RIS k and zero
    everywhere else; the trailing columns pass the direct UEs through.
    """
    G = np.zeros((N * K + U_d, K + U_d))
    for k in range(K):
        G[k * N : (k + 1) * N, k] = 1.0
    G[N * K :, K:] = np.eye(U_d)
    return G


def right_inverse_apply(
    Q: np.ndarray,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Q^H (Q Q^H)^{-1} targets, via a Cholesky solve of the Gram matrix.

    Rows are equilibrated to unit norm before forming the Gram matrix:
    cascaded rows are tens of dB weaker than direct ones, which would push
    the raw Gram past float64 otherwise. Scaling rows does not change the
    result because the solution is the unique one whose columns lie in the
    row space of Q, and that space is scale invariant.

    Raises RankDeficiencyError, for the batch layer to record, when the
    equilibrated Gram matrix is singular or its condition number exceeds
    COND_LIMIT. The factorization and solve call LAPACK's potrf/potrs
    directly, as `scipy.linalg.cho_factor`/`cho_solve` would, with the
    same checks: a non-finite Gram matrix or right-hand side raises
    ValueError, a factorization that fails raises LinAlgError.
    """
    rows = Q.shape[0]
    norms = np.linalg.norm(Q, axis=1)
    if np.any(norms == 0.0):
        raise RankDeficiencyError(
            f"stacked channel of shape {Q.shape} has an all-zero row",
            cond=math.inf,
            shape=tuple(Q.shape),
        )
    inv = 1.0 / norms
    Qs = Q * inv[:, None]
    A = Qs @ Qs.conj().T
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0.0 or w[-1] / w[0] > COND_LIMIT:
        cond = math.inf if w[0] <= 0.0 else float(w[-1] / w[0])
        raise RankDeficiencyError(
            f"Gram matrix of the {Q.shape} stacked channel is ill conditioned "
            f"(cond={cond:.3e}); the scheme is infeasible at these dimensions "
            "or the channel draw is degenerate",
            cond=cond,
            shape=tuple(Q.shape),
        )
    if targets is None:
        targets = np.eye(rows)
    b = targets * inv[:, None]
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (A,))
    c, info = potrf(A, lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c, b))
    x, info = potrs(c, b, lower=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return Qs.conj().T @ x


def bs_ue_zf_precoder(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """(M x (U_b + U_d)) precoder with one column per UE; the stacked rows
    times this precoder equal the identity."""
    return right_inverse_apply(stack_bs_ue(chs, phases))


def bs_ris_zf_precoder(chs: ChannelSet) -> np.ndarray:
    """(M x (K + U_d)) precoder with one column per RIS plus one per direct
    UE; independent of the RIS phases."""
    cfg = chs.cfg
    Q2 = stack_bs_ris(chs)
    return right_inverse_apply(Q2, gamma_matrix(cfg.N, cfg.K, cfg.U_d))


def normalize_power(
    W: np.ndarray, cfg: SystemConfig
) -> tuple[np.ndarray, float]:
    """Apply the configured power convention; returns (scaled W, beta).

    "paper_literal" keeps the right inverse as built (beta = 1), which pins
    unit gain at each receiver and lets transmit power float. The
    normalized mode rescales so the summed column power equals the budget.
    """
    if cfg.power_mode == "paper_literal":
        return W, 1.0
    fro2 = float(np.sum(np.abs(W) ** 2))
    if fro2 == 0.0:
        raise ValueError("cannot normalize an all-zero precoder")
    beta = math.sqrt(cfg.total_power / fro2)
    return beta * W, beta

