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

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from riszf.channel import ChannelSet, read_only
from riszf.sysconfig import SystemConfig

# Largest eigenvalue ratio accepted for a Gram or correlation matrix.
COND_LIMIT = 1e12
# Largest `gram_cond_bound` that skips the eigvalsh check. A factor 10
# inside COND_LIMIT covers eigvalsh's own rounding; at this ratio the
# rounding of the Gram matrix and its inverse, about eps·tr(A), is about
# 1e-5 of λmin, so the bound computed from them still bounds the ratio.
COND_BOUND_LIMIT = COND_LIMIT / 10


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _unconverged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, b) bit for bit, for float64 or complex128 A and
    2-D b: numpy's own LAPACK gufunc under the error state it sets,
    without the argument handling that costs as much as a small solve."""
    complex_ = A.dtype.kind == "c" or b.dtype.kind == "c"
    return _umath_linalg.solve(A, b, signature="DD->D" if complex_ else "dd->d")


@np.errstate(call=_unconverged, invalid="call", over="ignore", divide="ignore", under="ignore")
def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(A) bit for bit, as (w, V), for a float64 or
    complex128 matrix or stack of them, run as `solve` runs its gufunc."""
    return _umath_linalg.eigh_lo(A, signature="D->dD" if A.dtype.kind == "c" else "d->dd")


class RankDeficiencyError(RuntimeError):
    """Stacked channel matrix is numerically rank deficient.

    Carries the measured condition number and the matrix shape so batch
    callers can log which operating point collapsed.
    """

    def __init__(self, message: str, cond: float, shape: tuple[int, int]):
        super().__init__(message)
        self.cond = cond
        self.shape = shape


def stack_bs_ue(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """((U_b + U_d) x M) stacked rows: cascaded blocked UEs, then direct.

    `phases` has shape (K, N); UEs served by the same RIS share its
    phase configuration. Cascaded row u is conj(H_k) x_u with x_u =
    conj(h_u) e^{j phi_k}, taken for every UE in one stacked product
    written straight into the stack, which is bit-identical to the
    per-UE vector-matrix product. The conj(H_k) of each UE is gathered
    once per draw (`ChannelSet.H_conj_blocked`).
    """
    cfg = chs.cfg
    Q = np.empty((cfg.U_b + cfg.U_d, cfg.M), dtype=np.complex128)
    x = chs.h_b.conj() * np.exp(1j * phases)[cfg.gathers[0]]
    np.matmul(chs.H_conj_blocked, x[:, :, None], out=Q[: cfg.U_b, :, None])
    np.conjugate(chs.h_d, out=Q[cfg.U_b :])
    return Q


def stack_bs_ris(chs: ChannelSet) -> np.ndarray:
    """((N K + U_d) x M) stacked rows: every RIS element row, then direct.

    Rows k N .. (k+1) N - 1 are H_k^H, written through a (K, N, M) view.
    """
    cfg = chs.cfg
    NK = cfg.N * cfg.K
    Q = np.empty((NK + cfg.U_d, cfg.M), dtype=np.complex128)
    np.conjugate(chs.H.transpose(0, 2, 1), out=Q[:NK].reshape(cfg.K, cfg.N, cfg.M))
    np.conjugate(chs.h_d, out=Q[NK:])
    return Q


@functools.lru_cache(maxsize=32)
def gamma_matrix(N: int, K: int, U_d: int) -> np.ndarray:
    """((N K + U_d) x (K + U_d)) per-stream target response.

    Column k asks for unit gain on all N elements of RIS k and zero
    everywhere else; the trailing columns pass the direct UEs through.
    Cached per (N, K, U_d); the returned array is read-only and shared.
    """
    G = np.zeros((N * K + U_d, K + U_d))
    for k in range(K):
        G[k * N : (k + 1) * N, k] = 1.0
    G[N * K :, K:] = np.eye(U_d)
    return read_only(G)


class GramFactor:
    """Equilibrated Gram matrix of a stacked channel Q and its one solve
    toward `targets` (None for the identity), built in the operation
    order of `right_inverse_apply`, which reads it.

    Rows are scaled to unit norm, Qs = diag(inv) Q with inv = 1/norms, and
    A = Qs Qs^H; an all-zero row stops before the scaling, with `inv`
    None. One `solve` takes one array of right-hand sides: diag(inv),
    behind targets·diag(inv) for a target; `x` is the target's columns. The
    diag(inv) columns times diag(norms) are A^{-1}, and `bound` is its
    `gram_cond_bound`. When A or the target is not finite (ValueError) or
    the solve raises (LinAlgError), `x` is None, `bound` inf and `error`
    that exception, for `right_inverse_apply` to raise in its order.

    `ChannelSet.ris_gram` holds one per draw for the RIS-side stack and
    `gamma_matrix`, so its precoders and `rank_q2` share one solve.
    """

    def __init__(self, Q: np.ndarray, targets: np.ndarray | None = None):
        self.shape = Q.shape
        self.targets = targets
        # np.linalg.norm(Q, axis=1) bit for bit, without its argument handling
        self.norms = np.sqrt(np.add.reduce((Q.conj() * Q).real, axis=1))
        self.inv = self.QsH = self.A = None
        self.finite = False
        if np.count_nonzero(self.norms) == self.norms.size:
            self.inv = 1.0 / self.norms
            Qs = Q * self.inv[:, None]
            self.QsH = Qs.conj().T
            self.A = Qs @ self.QsH
            self.finite = bool(np.count_nonzero(np.isfinite(self.A)) == self.A.size)
        self.x, self.bound, self.error = self._solve()

    def _solve(self) -> tuple[np.ndarray | None, float, Exception | None]:
        """(x, bound, error); see the class docstring."""
        # inv is finite whenever A is: an infinite inv makes the row of Qs,
        # and so A, infinite or NaN
        if not (self.finite and (self.targets is None or np.isfinite(self.targets).all())):
            return None, math.inf, ValueError("array must not contain infs or NaNs")
        rows = self.shape[0]
        lead = 0 if self.targets is None else self.targets.shape[1]
        dtype = self.inv.dtype if self.targets is None else np.result_type(self.targets, self.inv)
        b = np.zeros((rows, lead + rows), dtype=dtype)
        if self.targets is not None:
            np.multiply(self.targets, self.inv[:, None], out=b[:, :lead])
        # the identity target scaled by inv: element (i, lead + i) of b
        b.reshape(-1)[lead :: lead + rows + 1] = self.inv
        try:
            solved = solve(self.A, b)
        except np.linalg.LinAlgError as e:
            return None, math.inf, e
        x = solved if self.targets is None else solved[:, :lead]
        return x, gram_cond_bound(self.A, solved[:, -rows:] * self.norms), None

    def read_only(self) -> GramFactor:
        """This factor with its arrays, `x` included, marked read-only: the
        form a draw holds it in."""
        for a in (self.norms, self.inv, self.QsH, self.A, self.x):
            if a is not None:
                a.flags.writeable = False
        return self


def right_inverse_apply(Q: np.ndarray | GramFactor) -> np.ndarray:
    """Q^H (Q Q^H)^{-1} targets, via `solve` on the Gram matrix.

    `Q` is the stacked rows, toward the identity, or their `GramFactor`,
    which carries its own target and its solve and is then not built
    again. Rows are equilibrated to unit norm before forming the Gram
    matrix: cascaded rows are tens of dB weaker than direct ones, which
    would push the raw Gram past float64 otherwise. Scaling rows does not
    change the result because the solution is the unique one whose
    columns lie in the row space of Q, and that space is scale invariant.
    The solve is LU with partial pivoting on A itself, not an explicit
    inverse times the targets, which is not backward stable.

    Raises RankDeficiencyError, for the batch layer to record, when a row
    is all zero, or when the equilibrated Gram matrix is singular or its
    eigenvalue ratio (by `eigvalsh`) exceeds COND_LIMIT. The solve runs
    first, and when `gram_cond_bound` of its A^{-1} settles the ratio,
    `eigvalsh` would accept and is skipped; every case the bound cannot
    settle (a large bound, a failed solve, a non-finite input) runs the
    `eigvalsh` check. After that check, a non-finite Gram matrix or
    target raises ValueError, and a solve that failed raises its
    LinAlgError.
    """
    gram = Q if isinstance(Q, GramFactor) else GramFactor(Q)
    if gram.inv is None:
        raise RankDeficiencyError(
            f"stacked channel of shape {gram.shape} has an all-zero row",
            cond=math.inf,
            shape=gram.shape,
        )
    if math.isinf(gram.bound):
        _check_gram_condition(gram.A, gram.shape)
    if gram.error is not None:
        raise gram.error
    return gram.QsH @ gram.x


def _check_gram_condition(A: np.ndarray, shape: tuple[int, int]) -> None:
    """The exact test: RankDeficiencyError unless eigvalsh finds A positive
    definite with eigenvalue ratio at most COND_LIMIT."""
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0.0 or w[-1] / w[0] > COND_LIMIT:
        cond = math.inf if w[0] <= 0.0 else float(w[-1] / w[0])
        raise RankDeficiencyError(
            f"Gram matrix of the {shape} stacked channel is ill conditioned "
            f"(cond={cond:.3e}); the scheme is infeasible at these dimensions "
            "or the channel draw is degenerate",
            cond=cond,
            shape=tuple(shape),
        )


def gram_cond_bound(A: np.ndarray, inverse: np.ndarray) -> float:
    """Upper bound on λmax/λmin of the Gram matrix A, given its inverse:
    tr(A)·||A^{-1}||_F (Higham 2002, ch. 10), or inf when that exceeds
    COND_BOUND_LIMIT or is NaN.

    λmax <= tr(A) and 1/λmin = ||A^{-1}||_2 <= ||A^{-1}||_F, so the bound
    is within a factor of rows^2 of the true ratio. It holds in exact
    arithmetic for a positive definite A; A and its computed inverse carry
    rounding of about eps·tr(A), so in floating point it bounds the ratio
    only where that is small against λmin, as it is up to COND_BOUND_LIMIT.

    No factorization certifies that A is positive definite, and none is
    needed. A computed Gram matrix is within about eps·tr(A) of a positive
    semidefinite one, so its eigenvalues lie within about eps·tr(A) of
    [0, inf). A bound at most COND_BOUND_LIMIT = 1e11 keeps every
    eigenvalue at least 1/||A^{-1}||_F >= tr(A)/1e11 away from zero, far
    beyond that rounding, so every eigenvalue is positive.
    """
    f = inverse.ravel().view(np.float64)  # the real and imaginary parts
    bound = float(A.trace().real * math.sqrt(f.dot(f)))  # tr(A)·||A^{-1}||_F
    return bound if bound <= COND_BOUND_LIMIT else math.inf


def bs_ue_zf_precoder(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """(M x (U_b + U_d)) precoder with one column per UE; the stacked rows
    times this precoder equal the identity."""
    return right_inverse_apply(stack_bs_ue(chs, phases))


def bs_ris_zf_precoder(chs: ChannelSet) -> np.ndarray:
    """(M x (K + U_d)) precoder with one column per RIS plus one per direct
    UE; independent of the RIS phases. It right-inverts the draw's
    factored RIS-side stack toward `gamma_matrix` (`ChannelSet.ris_gram`),
    so every build for one draw shares one solve."""
    return right_inverse_apply(chs.ris_gram)


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

