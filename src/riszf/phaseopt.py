"""Phase-shift design rules for the RIS elements.

Four rules are implemented, each returning a (K, N) array of angles in
[-pi, pi), one row per RIS:

* alternating eigenvector optimization for UE-side nulling, which reduces
  to a closed form when each RIS serves one UE;
* the asymptotic fixed point for that scheme (valid as M grows, needs only
  the RIS-side channel and its correlation);
* the closed form for RIS-side nulling plus its asymptotic variant with
  the analytic SINR ceiling;
* seeded uniform random phases as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from riszf.beamform import COND_LIMIT, bs_ris_zf_precoder, bs_ue_zf_precoder, eigh
from riszf.channel import ChannelSet, content_cache, spawn_rng
from riszf.sysconfig import SystemConfig

TWO_PI = 2.0 * np.pi


class UndefinedPhaseError(ValueError):
    """An angle argument came out exactly zero, so the phase is undefined.

    Raised instead of silently emitting an arbitrary angle; identifies the
    RIS and element."""

    def __init__(self, ris: int, element: int, context: str):
        super().__init__(
            f"phase of RIS {ris}, element {element} is undefined: "
            f"zero-magnitude {context}"
        )
        self.ris = ris
        self.element = element


@dataclass(frozen=True)
class AsymptoticArtifacts:
    """Fixed-point diagnostics of the UE-side asymptotic rule: the worst
    final residual and the most iterations over the RISs of one trial,
    and whether every RIS met the tolerance.
    """

    fixed_point_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class OptimizeDiagnostics:
    """Trace of the alternating optimization.

    objective_trace[i] is the power-normalized gain P/||W||_F^2 of the
    precoder built from the phases entering iteration i; the final entry
    is evaluated at the returned phases.
    """

    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    final_phase_change: float


def wrap_phase(phi: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into [-pi, pi): (phi + pi) % 2pi - pi, an array's in
    place in the one new array of the sum."""
    out = np.add(phi, np.pi)
    if not isinstance(out, np.ndarray):
        return out % TWO_PI - np.pi
    np.remainder(out, TWO_PI, out=out)
    return np.subtract(out, np.pi, out=out)


def wrapped_angle(z: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """wrap_phase(sign * np.angle(z)) of a complex array, bit for bit:
    np.angle is arctan2 of the parts, without its argument handling."""
    return wrap_phase(sign * np.arctan2(z.imag, z.real))


def random_phases(cfg: SystemConfig, seed: int) -> np.ndarray:
    """I.i.d. uniform (K, N) phases on [-pi, pi), deterministic per seed."""
    return spawn_rng(seed).uniform(-np.pi, np.pi, size=(cfg.K, cfg.N))


def _phase_update_bs_ue_zf(chs: ChannelSet, W: np.ndarray) -> np.ndarray:
    """One sweep of per-RIS phase updates against a frozen precoder.

    T_k = H_k^H W for every RIS comes from one stacked product over the
    draw's `HH_first`, and the alignment vector q of every blocked UE
    from one gather; RISs serving one UE take -angle(q) directly, the
    others the dominant eigenvector of sum q q^H from `beamform.eigh`,
    its first nonzero entry rotated to real positive. Stacking is
    bit-identical to the per-RIS products, so the phases are too. A zero
    entry raises for the lowest RIS, then the lowest element, as a
    RIS-by-RIS sweep would.
    """
    cfg = chs.cfg
    _, first, ues = cfg.gathers  # first is first_blocked whenever some L_k != 1
    T = chs.HH_first @ W  # (K, N, U)
    Q = chs.h_b.conj() * T[cfg.ris_of_blocked_ue, :, ues]  # (U_b, N)
    aligned = Q[first]
    for k in (k for k, count in enumerate(cfg.L) if count != 1):
        A = np.zeros((cfg.N, cfg.N), dtype=np.complex128)
        for q in Q[first[k] : first[k] + cfg.L[k]]:
            A += np.outer(q, q.conj())
        v = eigh(A)[1][:, -1]
        # the global phase: the first nonzero entry rotated to real positive
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        aligned[k] = v * (lead.conjugate() / abs(lead))
    if np.count_nonzero(aligned) < aligned.size:
        k, i = (int(v) for v in np.argwhere(np.abs(aligned) == 0.0)[0])
        raise UndefinedPhaseError(
            k, i, "alignment product" if cfg.L[k] == 1 else "eigenvector entry"
        )
    return wrapped_angle(aligned, -1.0)


def optimal_phases_bs_ue_zf(
    chs: ChannelSet,
    init: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 20,
) -> tuple[np.ndarray, OptimizeDiagnostics]:
    """Alternating phase optimization under UE-side nulling, from the
    (K, N) start phases `init`.

    The per-UE alignment vector q depends on the precoder, which depends
    on the phases being chosen, so the scheme alternates: freeze the
    precoder built from the current phases, update every RIS (dominant
    eigenvector of sum q q^H, entries projected to unit modulus; exactly
    the closed-form angle when the RIS serves a single UE), rebuild, and
    repeat until the largest wrapped phase change drops below `tol`.

    The monitored objective is the power-normalized array gain
    P/||W||_F^2, where better-aligned phases shrink the blocked UEs'
    precoder columns. Non-convergence within `max_iter` sweeps is reported
    in the diagnostics, not raised.
    """
    cfg = chs.cfg
    phases = np.array(init, dtype=float)
    trace: list[float] = []
    converged = False
    change = math.inf
    iterations = 0
    for _ in range(max_iter):
        W = bs_ue_zf_precoder(chs, phases)
        trace.append(cfg.total_power / float((np.abs(W) ** 2).sum()))
        new = _phase_update_bs_ue_zf(chs, W)
        change = float(np.abs(wrap_phase(new - phases)).max())
        phases = new
        iterations += 1
        if change < tol:
            converged = True
            break
    W = bs_ue_zf_precoder(chs, phases)
    trace.append(cfg.total_power / float((np.abs(W) ** 2).sum()))

    return (
        wrap_phase(phases),
        OptimizeDiagnostics(
            objective_trace=tuple(trace),
            iterations=iterations,
            converged=converged,
            final_phase_change=change,
        ),
    )


NEWTON_RESIDUAL = 0.1  # a row below this residual takes Newton steps
FIXED_POINT_DAMPING = 0.5  # share of the way to the update a damped step moves
FIXED_POINT_MAX_ITER = 500  # updates per row before the fixed point stops
FIXED_POINT_TOL = 1e-8  # residual at or below which a row has converged


def _delta_to_target(
    phi: np.ndarray, h: np.ndarray, R: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """wrap(target - phi) per row, target being one undamped update
    -angle(conj(h) * (R y)) with y = e^{-j phi} h; R y is the stacked
    product, bit-identical to R @ y row by row. Returns (delta, y, R y)."""
    y = np.exp(-1j * phi) * h
    Ry = (R @ y[:, :, None])[:, :, 0]
    c = h.conj() * Ry
    if np.count_nonzero(c) < c.size:
        row, element = (int(v) for v in np.argwhere(np.abs(c) == 0.0)[0])
        raise UndefinedPhaseError(int(rows[row]), element, "fixed-point argument")
    return wrap_phase(wrapped_angle(c, -1.0) - phi), y, Ry


def _gradient_hessian(
    y: np.ndarray, Ry: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (rows, N) and Hessian (rows, N, N) in phi of
    f = y^H R y, the `quadratic_form_objective`, per row of
    y = e^{-j phi} h, with Ry = R y. With s = conj(y) * (R y):
    g = -2 Im s and H = 2 Re(diag(conj y) R diag y) - 2 diag(Re s)."""
    y_conj = y.conj()
    s = y_conj * Ry
    H = 2.0 * (y_conj[:, :, None] * R * y[:, None, :]).real
    diag = np.arange(y.shape[1])
    H[:, diag, diag] -= 2.0 * s.real
    return -2.0 * s.imag, H


def _newton_step(y: np.ndarray, Ry: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Saddle-free Newton ascent step of f = y^H R y on the phase torus,
    per row of y = e^{-j phi} h, with Ry = R y.

    H 1 = 0 (a common phase leaves f unchanged), so A = c 1 1^T - H with
    c = |tr H| / N lifts that null direction without touching the
    gradient, which is orthogonal to it. The step inverts A with each
    eigenvalue replaced by its magnitude (floored at 1e-9 of the
    largest), so near a maximum it is the Newton step and elsewhere it
    still climbs. One stacked `beamform.eigh` covers all rows; each row
    gets the bits it would get alone.
    """
    g, H = _gradient_hessian(y, Ry, R)
    c = np.abs(H.trace(axis1=1, axis2=2)) / y.shape[1]
    w, V = eigh(np.subtract(c[:, None, None], H, out=H))
    mag = np.abs(w)
    inv = 1.0 / np.maximum(mag, 1e-9 * mag.max(axis=1, keepdims=True))
    Vt_g = (V.transpose(0, 2, 1) @ g[:, :, None])[:, :, 0]
    return (V @ (inv * Vt_g)[:, :, None])[:, :, 0]


def _fixed_point_rows(
    h: np.ndarray, R: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed point of every row of `h` at once: damped iteration from
    zero phases, finished by Newton steps.

    h : (K, N) RIS-side channels, one row per RIS, all sharing the (N, N)
    correlation R. A row whose residual (the max wrapped distance to one
    undamped update) is at least NEWTON_RESIDUAL moves
    FIXED_POINT_DAMPING of the way to the update; below it the row
    takes a `_newton_step`, which converges quadratically where the
    damped update creeps along nearly flat directions. A row stops when `residual <= tol` holds before an
    update, or after FIXED_POINT_MAX_ITER updates with the residual of
    one more update. A stopped row leaves the active set `rows`, so later
    iterations compute only the rows still running, and every row gets
    the bits it would get solved alone. A zero fixed-point argument
    raises for the lowest active row that has one, as that row's RIS.
    Returns (phases (K, N), residual (K,), iterations (K,)).
    """
    phases = np.zeros(h.shape)
    residual = np.empty(h.shape[0])
    iterations = np.full(h.shape[0], FIXED_POINT_MAX_ITER)
    rows = np.arange(h.shape[0])  # active rows; phi and h hold their data
    phi = phases.copy()
    for it in range(FIXED_POINT_MAX_ITER):
        delta, y, Ry = _delta_to_target(phi, h, R, rows)
        res = np.abs(delta).max(axis=1)
        done = res <= tol
        if np.count_nonzero(done):
            phases[rows[done]] = phi[done]
            residual[rows[done]] = res[done]
            iterations[rows[done]] = it
            keep = ~done
            rows, phi, h, delta, res, y, Ry = (
                a[keep] for a in (rows, phi, h, delta, res, y, Ry)
            )
            if not rows.size:
                return phases, residual, iterations
        # wrapped interpolation toward the update keeps angle steps small
        # and prevents the undamped iteration's 2-cycles
        newton = res < NEWTON_RESIDUAL
        n_newton = np.count_nonzero(newton)
        step = _newton_step(y, Ry, R) if n_newton == newton.size else FIXED_POINT_DAMPING * delta
        if 0 < n_newton < newton.size:
            step[newton] = _newton_step(y[newton], Ry[newton], R)
        phi = wrap_phase(phi + step)
    phases[rows] = phi
    residual[rows] = np.abs(_delta_to_target(phi, h, R, rows)[0]).max(axis=1)
    return phases, residual, iterations


def asymptotic_phase_config_bs_ue_zf(
    chs: ChannelSet, tol: float = FIXED_POINT_TOL
) -> tuple[np.ndarray, AsymptoticArtifacts]:
    """Large-M phases phi_i = -angle(h_i^* sum_l R_il e^{-j phi_l} h_l)
    for every RIS, solved as one (K, N) block of rows; requires one UE
    per RIS, so row k of h_b is RIS k's UE."""
    cfg = chs.cfg
    if any(l != 1 for l in cfg.L):
        raise ValueError(
            "the asymptotic phase rule is defined for one UE per RIS, "
            f"got L={list(cfg.L)}"
        )
    phases, residual, iterations = _fixed_point_rows(chs.h_b, chs.R, tol)
    worst = float(residual.max())
    return (
        phases,
        AsymptoticArtifacts(
            fixed_point_residual=worst,
            iterations=int(iterations.max()),
            converged=worst <= tol,
        ),
    )


def quadratic_form_objective(h: np.ndarray, R: np.ndarray, phases: np.ndarray) -> float:
    """h^H Phi R Phi^H h - the large-M figure of merit the fixed point
    maximizes. Real by Hermitian symmetry."""
    y = np.exp(-1j * phases) * h
    return float(np.real(y.conj() @ (R @ y)))


def optimal_phases_bs_ris_zf(chs: ChannelSet) -> np.ndarray:
    """Closed-form phases under RIS-side nulling (one UE per RIS).

    Aligns every element's cascaded contribution: the precoder fixes the
    per-element response a = H_k^H w_k, and phi_{k,i} = -angle(h_i^* a_i)
    turns the sum into one of nonnegative terms. Under `gamma_matrix`'s
    unit element gains a is all ones up to round-off, so these are the
    asymptotic phases angle(h). A zero product raises for the lowest RIS,
    then the lowest element.
    """
    cfg = chs.cfg
    if any(l != 1 for l in cfg.L):
        raise ValueError(
            f"RIS-side nulling serves one UE per RIS, got L={list(cfg.L)}"
        )
    W = bs_ris_zf_precoder(chs)
    # a_k = H_k^H w_k of every RIS in one stacked product: with one UE per
    # RIS, row k of H_conj_blocked is conj(H_k)
    a = (W[:, : cfg.K].T[:, None, :] @ chs.H_conj_blocked)[:, 0, :]
    q = chs.h_b.conj() * a
    if np.count_nonzero(q) < q.size:
        k, i = (int(v) for v in np.argwhere(np.abs(q) == 0.0)[0])
        raise UndefinedPhaseError(k, i, "alignment product")
    return wrapped_angle(q, -1.0)


@content_cache
def _eigenvalue_range(R: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of the Hermitian R, cached on its
    content: every RIS of every trial at a grid point checks the same R."""
    w = np.linalg.eigvalsh(R)
    return float(w[0]), float(w[-1])


def asymptotic_phases_and_sinr_bs_ris_zf(
    h_k1: np.ndarray, R: np.ndarray, sigma2_k: float, k: int
) -> tuple[np.ndarray, float]:
    """Large-M phases and SINR ceiling of RIS k under RIS-side nulling.

    The asymptotic gain vector f_k = R (R^{-1} 1) is the all-ones vector
    for any invertible correlation R, so each element simply cancels the
    UE channel's own angle and sinr_star = (sum_i |h_i|)^2 / sigma2.
    Raises LinAlgError when R is singular or its condition number exceeds
    COND_LIMIT, and UndefinedPhaseError on a zero channel entry. Returns
    (phases, sinr_star).
    """
    w_min, w_max = _eigenvalue_range(R)
    if w_min <= 0.0 or w_max / w_min > COND_LIMIT:
        raise np.linalg.LinAlgError(
            "correlation matrix is singular or near singular "
            f"(eigenvalue range [{w_min:.3e}, {w_max:.3e}])"
        )
    mag = np.abs(h_k1)
    if np.count_nonzero(mag) < mag.size:
        raise UndefinedPhaseError(k, int(np.flatnonzero(mag == 0.0)[0]), "UE channel entry")
    phases = wrapped_angle(h_k1)
    sinr_star = float(mag.sum()) ** 2 / sigma2_k
    return phases, sinr_star
