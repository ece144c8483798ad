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
    ValueError, a factorization that fails raises LinAlgError. They run
    in numpy's bundled OpenBLAS (`numpy_openblas`), so scipy is not
    imported; without that build they go through scipy's wrappers.
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
    lib = numpy_openblas()
    if lib is None:
        x, potrf_info, potrs_info = _cho_solve_scipy(A, b)
    else:
        x, potrf_info, potrs_info = _cho_solve_openblas(lib, A, b)
    if potrf_info > 0:
        raise np.linalg.LinAlgError(
            f"{potrf_info}-th leading minor of the array is not positive definite"
        )
    if potrs_info != 0:
        raise ValueError(f"illegal value in argument {-potrs_info} of LAPACK potrs")
    return Qs.conj().T @ x


@functools.cache
def numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles (ILP64, `scipy_*64_` symbols),
    or None when numpy is built against another BLAS.

    numpy has already loaded the library, so this is the handle numpy uses.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_zpotrf_64_") and hasattr(lib, "scipy_zpotrs_64_"):
            lib.scipy_zpotrf_64_.restype = lib.scipy_zpotrs_64_.restype = None
            return lib
    return None


# Fortran's hidden length argument of the one-character `uplo`.
_UPLO_LEN = ctypes.c_size_t(1)


def _cho_solve_openblas(lib: ctypes.CDLL, A: np.ndarray, b: np.ndarray):
    """(A^{-1} b, potrf info, potrs info) from LAPACK zpotrf/zpotrs on the
    upper triangle, called through ctypes; potrs is skipped when potrf fails.

    The operands are Fortran-ordered copies made the way scipy's f2py
    wrappers make them, so the result has the bits of scipy's potrf/potrs.
    `c` and `x` stay referenced while LAPACK writes to them; their
    transposes are the C-contiguous views of the same memory that
    `from_buffer` needs.
    """
    c = np.array(A, order="F")
    x = np.array(b, dtype=np.complex128, order="F")
    n = ctypes.byref(ctypes.c_int64(x.shape[0]))
    nrhs = ctypes.byref(ctypes.c_int64(x.shape[1]))
    c_ptr = ctypes.byref(ctypes.c_char.from_buffer(c.T))
    x_ptr = ctypes.byref(ctypes.c_char.from_buffer(x.T))
    info = ctypes.c_int64()
    lib.scipy_zpotrf_64_(b"U", n, c_ptr, n, ctypes.byref(info), _UPLO_LEN)
    potrf_info = info.value
    if potrf_info > 0:
        return None, potrf_info, 0
    lib.scipy_zpotrs_64_(b"U", n, nrhs, c_ptr, n, x_ptr, n, ctypes.byref(info), _UPLO_LEN)
    return x, potrf_info, info.value


def _cho_solve_scipy(A: np.ndarray, b: np.ndarray):
    """`_cho_solve_openblas` through scipy's LAPACK wrappers, for a numpy
    without a bundled OpenBLAS."""
    import scipy.linalg

    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (A,))
    c, potrf_info = potrf(A, lower=False, clean=False)
    if potrf_info > 0:
        return None, potrf_info, 0
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c, b))
    x, potrs_info = potrs(c, b, lower=False)
    return x, potrf_info, potrs_info


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

