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

import ctypes
import functools
import glob
import math
import os

import numpy as np

from riszf.channel import ChannelSet, read_only, ris_of_blocked_ue
from riszf.sysconfig import SystemConfig

# Largest eigenvalue ratio accepted for a Gram or correlation matrix.
COND_LIMIT = 1e12
# Largest `gram_cond_bound` that skips the eigvalsh check. A factor 10
# inside COND_LIMIT covers eigvalsh's own rounding; at this ratio the
# rounding of the Gram matrix and its inverse, about eps·tr(A), is about
# 1e-5 of λmin, so the bound computed from them still bounds the ratio.
COND_BOUND_LIMIT = COND_LIMIT / 10


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
    bit-identical to the per-UE vector-matrix product. The conj(H_k) of
    each UE is gathered once per draw (`ChannelSet.H_conj_blocked`).
    """
    x = chs.h_b.conj() * np.exp(1j * phases)[ris_of_blocked_ue(chs.cfg.L)]
    return (chs.H_conj_blocked @ x[:, :, None])[:, :, 0]


def stack_bs_ue(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """((U_b + U_d) x M) stacked rows: cascaded blocked UEs, then direct."""
    cfg = chs.cfg
    Q = np.empty((cfg.U_b + cfg.U_d, cfg.M), dtype=np.complex128)
    Q[: cfg.U_b] = cascaded_rows(chs, phases)
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
    """Equilibrated Gram factorization of a stacked channel Q, built in
    the operation order of `right_inverse_apply`, which reads it.

    Rows are scaled to unit norm, Qs = diag(inv) Q with inv = 1/norms, and
    A = Qs Qs^H is factored by `cholesky_upper` into `c`. Each step runs
    only when the one before it can: an all-zero row stops before the
    scaling, a non-finite A before the factor. `bound` is
    `gram_cond_bound` of A, with A^{-1} from one more solve on the factor,
    computed on first access; it is inf when the factor or that solve
    fails or A is not finite.

    `ChannelSet.ris_gram` holds one per draw for the RIS-side stack, so
    its precoders and `rank_q2` share a factor. Only what those callers
    read is kept: `norms`, `inv`, `QsH` = Qs^H, `A` and `c`.
    """

    def __init__(self, Q: np.ndarray):
        self.shape = Q.shape
        self.norms = vector_norms(Q, axis=1)
        self.inv = self.QsH = self.A = self.c = None
        self.finite = False
        self.potrf_info = 0
        if not self.norms.all():
            return
        self.inv = 1.0 / self.norms
        Qs = Q * self.inv[:, None]
        self.QsH = Qs.conj().T
        self.A = Qs @ self.QsH
        self.finite = bool(np.isfinite(self.A).all())
        if self.finite:
            self.c, self.potrf_info = cholesky_upper(self.A)

    def read_only(self) -> GramFactor:
        """This factor with its arrays marked read-only: the form a draw
        holds it in."""
        for a in (self.norms, self.inv, self.QsH, self.A, self.c):
            if a is not None:
                a.flags.writeable = False
        return self

    @functools.cached_property
    def bound(self) -> float:
        """`gram_cond_bound` of A, or inf when it cannot be formed."""
        if not self.finite or self.potrf_info != 0:
            return math.inf
        return _solved_cond_bound(self.A, self.c)


def right_inverse_apply(
    Q: np.ndarray | GramFactor,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Q^H (Q Q^H)^{-1} targets, via a Cholesky solve of the Gram matrix.

    `Q` is the stacked rows, or their `GramFactor`, which is then not
    built again. Rows are equilibrated to unit norm before forming the
    Gram matrix: cascaded rows are tens of dB weaker than direct ones,
    which would push the raw Gram past float64 otherwise. Scaling rows
    does not change the result because the solution is the unique one
    whose columns lie in the row space of Q, and that space is scale
    invariant.

    Raises RankDeficiencyError, for the batch layer to record, when the
    equilibrated Gram matrix is singular or its eigenvalue ratio (by
    `eigvalsh`) exceeds COND_LIMIT. The Cholesky factor is computed first,
    and when `gram_cond_bound` settles the ratio, `eigvalsh` would accept
    and is skipped; every case the bound cannot settle (a large bound, a
    failed factor or solve, a non-finite input) runs the `eigvalsh` check.
    An identity target's solve, of diag(inv), yields A^{-1} = x diag(norms)
    for the bound; any other target reads the factor's own `bound`.
    The factorization and solve call LAPACK's potrf/potrs directly, as
    `scipy.linalg.cho_factor`/`cho_solve` would, with the same checks: a
    non-finite Gram matrix or right-hand side raises ValueError, a
    factorization that fails raises LinAlgError. They run in numpy's
    bundled OpenBLAS (`numpy_openblas`), so scipy is not imported; without
    that build they go through scipy's wrappers.
    """
    gram = Q if isinstance(Q, GramFactor) else GramFactor(Q)
    if not gram.norms.all():
        raise RankDeficiencyError(
            f"stacked channel of shape {gram.shape} has an all-zero row",
            cond=math.inf,
            shape=gram.shape,
        )
    identity_target = targets is None
    # the identity target scaled by inv, eye(rows) * inv[:, None] bit for bit
    b = np.diag(gram.inv) if identity_target else targets * gram.inv[:, None]
    # an identity target's b = diag(inv) is finite whenever A is: an
    # infinite inv makes the row of Qs, and so A, infinite or NaN
    finite = gram.finite and (identity_target or np.isfinite(b).all())
    bound = math.inf
    if finite and gram.potrf_info == 0:
        x, potrs_info = cholesky_solve(gram.c, b)
        if not identity_target:
            bound = gram.bound
        elif potrs_info == 0:
            bound = gram_cond_bound(gram.A, x * gram.norms)
    if math.isinf(bound):
        _check_gram_condition(gram.A, gram.shape)
    if not finite:
        raise ValueError("array must not contain infs or NaNs")
    if gram.potrf_info > 0:
        raise np.linalg.LinAlgError(
            f"{gram.potrf_info}-th leading minor of the array is not positive definite"
        )
    if potrs_info != 0:
        raise ValueError(f"illegal value in argument {-potrs_info} of LAPACK potrs")
    return gram.QsH @ x


def vector_norms(Q: np.ndarray, axis: int) -> np.ndarray:
    """np.linalg.norm(Q, axis=axis) of a float or complex Q, bit for bit:
    its own formula, without its argument handling."""
    return np.sqrt(np.add.reduce((Q.conj() * Q).real, axis=axis))


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
    """Upper bound on λmax/λmin of the positive definite A, given its
    inverse: tr(A)·||A^{-1}||_F (Higham 2002, ch. 10), or inf when that
    exceeds COND_BOUND_LIMIT or is NaN.

    λmax <= tr(A) and 1/λmin = ||A^{-1}||_2 <= ||A^{-1}||_F, so the bound
    is within a factor of rows^2 of the true ratio. It holds in exact
    arithmetic; A and its computed inverse carry rounding of about
    eps·tr(A), so in floating point it bounds the ratio only where that is
    small against λmin, as it is up to COND_BOUND_LIMIT.
    """
    bound = float(A.trace().real * np.linalg.norm(inverse))
    return bound if bound <= COND_BOUND_LIMIT else math.inf


def cholesky_cond_bound(A: np.ndarray) -> float:
    """`gram_cond_bound` of the Hermitian A, with A^{-1} from one potrs on
    its Cholesky factor and an identity right-hand side; inf when potrf or
    potrs fails."""
    c, info = cholesky_upper(A)
    return _solved_cond_bound(A, c) if info == 0 else math.inf


def _solved_cond_bound(A: np.ndarray, c: np.ndarray) -> float:
    """`gram_cond_bound` of A given its factor c, with A^{-1} from one
    potrs with an identity right-hand side; inf when that solve fails."""
    inverse, info = cholesky_solve(c, np.eye(A.shape[0]))
    return gram_cond_bound(A, inverse) if info == 0 else math.inf


# Fortran's hidden length argument of a one-character option.
_CHAR_LEN = ctypes.c_size_t(1)

# ILP64 LAPACK signatures: option characters, int64 sizes and info, a
# complex matrix as bytes, and one hidden length per option character.
_OPT, _INT, _MAT = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_char)
_LAPACK_ARGS = {
    "potrf": [_OPT, _INT, _MAT, _INT, _INT, ctypes.c_size_t],
    "potrs": [_OPT, _INT, _INT, _MAT, _INT, _MAT, _INT, _INT, ctypes.c_size_t],
}


@functools.cache
def numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles (ILP64, `scipy_*64_` symbols),
    with the zpotrf and zpotrs that `cholesky_upper` and `cholesky_solve`
    call, or None when numpy is built against another BLAS.

    numpy has already loaded the library, so this is the handle numpy uses.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        routines = {name: getattr(lib, f"scipy_z{name}_64_", None) for name in _LAPACK_ARGS}
        if all(routines.values()):
            for name, routine in routines.items():
                routine.argtypes, routine.restype = _LAPACK_ARGS[name], None
            return lib
    return None


def _fortran_ptr(a: np.ndarray):
    """Pointer to the Fortran-ordered `a`, for LAPACK to read and write.
    `a.T` is the C-contiguous view of the same memory that `from_buffer`
    needs; the caller keeps `a` referenced while LAPACK runs. A read-only
    `a`, which LAPACK only reads (a held `GramFactor`'s factor), goes
    through `ndarray.ctypes`: `from_buffer`, about four times faster,
    takes only writable memory."""
    if not a.flags.writeable:
        return a.ctypes.data_as(_MAT)
    return ctypes.byref(ctypes.c_char.from_buffer(a.T))


def cholesky_upper(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(c, info) from LAPACK zpotrf on the upper triangle of A: U in the
    upper triangle of c, the strict lower triangle left as A's; info > 0
    when A is not positive definite.

    The operand is the Fortran-ordered copy scipy's f2py wrappers make,
    so the factor has the bits of `scipy.linalg.cho_factor`.
    """
    lib = numpy_openblas()
    if lib is None:
        import scipy.linalg

        potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (A,))
        return potrf(A, lower=False, clean=False)
    c = np.array(A, dtype=np.complex128, order="F")
    n = ctypes.byref(ctypes.c_int64(c.shape[0]))
    info = ctypes.c_int64()
    lib.scipy_zpotrf_64_(b"U", n, _fortran_ptr(c), n, ctypes.byref(info), _CHAR_LEN)
    return c, info.value


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(A^{-1} b, info) from LAPACK zpotrs with the factor of
    `cholesky_upper`, as `scipy.linalg.cho_solve` computes it."""
    lib = numpy_openblas()
    if lib is None:
        import scipy.linalg

        potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c, b))
        return potrs(c, b, lower=False)
    x = np.array(b, dtype=np.complex128, order="F")
    n = ctypes.byref(ctypes.c_int64(x.shape[0]))
    nrhs = ctypes.byref(ctypes.c_int64(x.shape[1]))
    info = ctypes.c_int64()
    lib.scipy_zpotrs_64_(b"U", n, nrhs, _fortran_ptr(c), n, _fortran_ptr(x), n,
                         ctypes.byref(info), _CHAR_LEN)
    return x, info.value


def bs_ue_zf_precoder(chs: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """(M x (U_b + U_d)) precoder with one column per UE; the stacked rows
    times this precoder equal the identity."""
    return right_inverse_apply(stack_bs_ue(chs, phases))


def bs_ris_zf_precoder(chs: ChannelSet) -> np.ndarray:
    """(M x (K + U_d)) precoder with one column per RIS plus one per direct
    UE; independent of the RIS phases. It right-inverts the draw's
    factored RIS-side stack (`ChannelSet.ris_gram`), so every build for
    one draw shares a factor."""
    cfg = chs.cfg
    return right_inverse_apply(chs.ris_gram, gamma_matrix(cfg.N, cfg.K, cfg.U_d))


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

