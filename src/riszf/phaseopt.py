"""Phase-shift design rules for the RIS elements.

Four rules are implemented, all returning angles in [-pi, pi):

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

from riszf.beamform import COND_LIMIT, bs_ris_zf_precoder, bs_ue_zf_precoder
from riszf.channel import ChannelSet, spawn_rng
from riszf.sysconfig import SystemConfig

PHASE_ORIGINS = ("optimal", "closed_form", "asymptotic", "random")


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
class PhaseConfig:
    """Per-RIS phase vectors, (K, N), each entry in [-pi, pi)."""

    phases: np.ndarray
    origin: str

    def __post_init__(self):
        if self.origin not in PHASE_ORIGINS:
            raise ValueError(f"unknown phase origin {self.origin!r}")

    def reflect_diag(self, k: int) -> np.ndarray:
        """Diagonal of the reflect matrix of RIS k: e^{j phi_k}."""
        return np.exp(1j * self.phases[k])


@dataclass(frozen=True)
class AsymptoticArtifacts:
    """Fixed-point diagnostics of the UE-side asymptotic rule: the worst
    final residual and the most iterations over the RISs of one trial.
    """

    fixed_point_residual: float
    iterations: int


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
    """Wrap angles into [-pi, pi)."""
    return (np.asarray(phi) + np.pi) % (2.0 * np.pi) - np.pi


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max wrapped angular distance between two phase arrays."""
    return float(np.max(np.abs(wrap_phase(np.asarray(a) - np.asarray(b)))))


def principal_eigenvector(
    A: np.ndarray, tol: float = 1e-10, max_iter: int = 1000
) -> np.ndarray:
    """Dominant eigenvector of a Hermitian PSD matrix by power iteration.

    Deterministic all-ones start; converged when the iterate moves less
    than `tol` (vector change, not the Rayleigh quotient, whose error is
    only the square root of the vector error). The global phase is fixed
    by rotating the first nonzero entry to be real positive.
    """
    n = A.shape[0]
    v = np.ones(n, dtype=np.complex128) / math.sqrt(n)
    for _ in range(max_iter):
        w = A @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break
        w = w / norm
        step = float(np.linalg.norm(w - v))
        v = w
        if step <= tol:
            break
    for i in range(n):
        if abs(v[i]) > 1e-12:
            v = v * (v[i].conjugate() / abs(v[i]))
            break
    return v


def random_phases(cfg: SystemConfig, seed: int) -> PhaseConfig:
    """I.i.d. uniform phases on [-pi, pi), deterministic per seed."""
    rng = spawn_rng(seed)
    return PhaseConfig(
        phases=rng.uniform(-np.pi, np.pi, size=(cfg.K, cfg.N)),
        origin="random",
    )


def _phase_update_bs_ue_zf(chs: ChannelSet, W: np.ndarray) -> np.ndarray:
    """One sweep of per-RIS phase updates against a frozen precoder."""
    cfg = chs.cfg
    new = np.empty((cfg.K, cfg.N))
    for k in range(cfg.K):
        T = chs.H[k].conj().T @ W
        if cfg.L[k] == 1:
            u = cfg.blocked_index(k, 0)
            q = chs.h_b[u].conj() * T[:, u]
            zeros = np.flatnonzero(np.abs(q) == 0.0)
            if zeros.size:
                raise UndefinedPhaseError(k, int(zeros[0]), "alignment product")
            new[k] = wrap_phase(-np.angle(q))
        else:
            A = np.zeros((cfg.N, cfg.N), dtype=np.complex128)
            for ell in range(cfg.L[k]):
                u = cfg.blocked_index(k, ell)
                q = chs.h_b[u].conj() * T[:, u]
                A += np.outer(q, q.conj())
            v = principal_eigenvector(A)
            zeros = np.flatnonzero(np.abs(v) == 0.0)
            if zeros.size:
                raise UndefinedPhaseError(k, int(zeros[0]), "eigenvector entry")
            new[k] = wrap_phase(-np.angle(v))
    return new


def optimal_phases_bs_ue_zf(
    chs: ChannelSet,
    init: PhaseConfig | np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int = 20,
    init_seed: int = 0,
) -> tuple[PhaseConfig, OptimizeDiagnostics]:
    """Alternating phase optimization under UE-side nulling.

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
    if init is None:
        phases = random_phases(cfg, init_seed).phases.copy()
    elif isinstance(init, PhaseConfig):
        phases = init.phases.copy()
    else:
        phases = np.array(init, dtype=float)

    trace: list[float] = []
    converged = False
    change = math.inf
    iterations = 0
    for _ in range(max_iter):
        W = bs_ue_zf_precoder(chs, phases)
        trace.append(cfg.total_power / float(np.sum(np.abs(W) ** 2)))
        new = _phase_update_bs_ue_zf(chs, W)
        change = phase_distance(new, phases)
        phases = new
        iterations += 1
        if change < tol:
            converged = True
            break
    W = bs_ue_zf_precoder(chs, phases)
    trace.append(cfg.total_power / float(np.sum(np.abs(W) ** 2)))

    return (
        PhaseConfig(phases=wrap_phase(phases), origin="optimal"),
        OptimizeDiagnostics(
            objective_trace=tuple(trace),
            iterations=iterations,
            converged=converged,
            final_phase_change=change,
        ),
    )


def asymptotic_phases_bs_ue_zf(
    h_k1: np.ndarray,
    R_k: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
    damping: float = 0.5,
    ris_index: int = 0,
) -> tuple[np.ndarray, float, int]:
    """Large-M optimal phases for one RIS serving a single UE.

    Solves phi_i = -angle(h_i^* sum_l R_il e^{-j phi_l} h_l) by damped
    iteration from `init` (zeros by default). When R is diagonal every
    point is already fixed, so the init comes back unchanged with zero
    residual. Returns (phases, residual, iterations), where the residual
    is the max wrapped distance between the phases and one more update;
    a residual above `tol` means the iteration cap was hit.
    """
    N = h_k1.shape[0]
    phases = np.zeros(N) if init is None else wrap_phase(np.array(init, dtype=float))

    def rhs(phi: np.ndarray) -> np.ndarray:
        c = h_k1.conj() * (R_k @ (np.exp(-1j * phi) * h_k1))
        zeros = np.flatnonzero(np.abs(c) == 0.0)
        if zeros.size:
            raise UndefinedPhaseError(ris_index, int(zeros[0]), "fixed-point argument")
        return wrap_phase(-np.angle(c))

    residual = math.inf
    iterations = 0
    for _ in range(max_iter):
        target = rhs(phases)
        residual = phase_distance(target, phases)
        if residual <= tol:
            return phases, residual, iterations
        # wrapped interpolation toward the update keeps angle steps small
        # and prevents the undamped iteration's 2-cycles
        phases = wrap_phase(phases + damping * wrap_phase(target - phases))
        iterations += 1
    residual = phase_distance(rhs(phases), phases)
    return phases, residual, iterations


def asymptotic_phase_config_bs_ue_zf(
    chs: ChannelSet, tol: float = 1e-8
) -> tuple[PhaseConfig, AsymptoticArtifacts]:
    """Fixed-point phases for every RIS; requires one UE per RIS."""
    cfg = chs.cfg
    if any(l != 1 for l in cfg.L):
        raise ValueError(
            "the asymptotic phase rule is defined for one UE per RIS, "
            f"got L={list(cfg.L)}"
        )
    phases = np.empty((cfg.K, cfg.N))
    worst = 0.0
    most = 0
    for k in range(cfg.K):
        phases[k], res, iters = asymptotic_phases_bs_ue_zf(
            chs.h_block(k), chs.R, tol=tol, ris_index=k
        )
        worst = max(worst, res)
        most = max(most, iters)
    return (
        PhaseConfig(phases=phases, origin="asymptotic"),
        AsymptoticArtifacts(fixed_point_residual=worst, iterations=most),
    )


def quadratic_form_objective(h: np.ndarray, R: np.ndarray, phases: np.ndarray) -> float:
    """h^H Phi R Phi^H h - the large-M figure of merit the fixed point
    maximizes. Real by Hermitian symmetry."""
    y = np.exp(-1j * phases) * h
    return float(np.real(y.conj() @ (R @ y)))


def optimal_phases_bs_ris_zf(chs: ChannelSet) -> PhaseConfig:
    """Closed-form phases under RIS-side nulling (one UE per RIS).

    Aligns every element's cascaded contribution: the precoder fixes the
    per-element response a = H_k^H w_k, and phi_{k,i} = -angle(h_i^* a_i)
    turns the sum into one of nonnegative terms.
    """
    cfg = chs.cfg
    if any(l != 1 for l in cfg.L):
        raise ValueError(
            f"RIS-side nulling serves one UE per RIS, got L={list(cfg.L)}"
        )
    W = bs_ris_zf_precoder(chs)
    phases = np.empty((cfg.K, cfg.N))
    for k in range(cfg.K):
        a = chs.H[k].conj().T @ W[:, k]
        q = chs.h_block(k).conj() * a
        zeros = np.flatnonzero(np.abs(q) == 0.0)
        if zeros.size:
            raise UndefinedPhaseError(k, int(zeros[0]), "alignment product")
        phases[k] = wrap_phase(-np.angle(q))
    return PhaseConfig(phases=phases, origin="closed_form")


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
    w = np.linalg.eigvalsh(R)
    if w[0] <= 0.0 or w[-1] / w[0] > COND_LIMIT:
        raise np.linalg.LinAlgError(
            "correlation matrix is singular or near singular "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    mag = np.abs(h_k1)
    zeros = np.flatnonzero(mag == 0.0)
    if zeros.size:
        raise UndefinedPhaseError(k, int(zeros[0]), "UE channel entry")
    phases = wrap_phase(np.angle(h_k1))
    sinr_star = float(np.sum(mag)) ** 2 / sigma2_k
    return phases, sinr_star
