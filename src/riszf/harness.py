"""Batch sweep runner: seeded Monte Carlo trials over a config grid.

A grid point is one (scheme, phase rule, M, N, tau) combination. Channel
draws are keyed by the (M, N, tau) slice and the trial index only, so
every scheme and phase rule sees the same realizations and curve
comparisons are paired. Spawn-key layout under the master seed, fixed as
a reproducibility contract:

    (dims_index, trial, 0) -> channel draw
    (dims_index, trial, 1) -> estimation error draw
    (dims_index, trial, 2) -> random phase rule
    (dims_index, trial, 3) -> alternating-optimization starting point,
                              drawn here and passed to the solver as `init`

Results merge deterministically by grid-point position, so serial and
parallel runs emit byte-identical files.

Every sweep process runs numpy's bundled OpenBLAS on one thread, so the
process pool (`threads`) is the sweep's only parallelism. The sweep's BLAS
and LAPACK calls all go through that build; scipy's bundled build is
pinned too only when numpy has none and the right inverse falls back to
scipy. Each sweep process also warms up the allocator (see
`_pin_one_blas_thread`).
"""

import ctypes
import glob
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .beamform import (
    RankDeficiencyError,
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    normalize_power,
    numpy_openblas,
)
from .channel import apply_estimation_error, derive_seed, sample_channels, spawn_rng
from .metrics import (
    TRIAL_CSV_HEADER,
    TrialResult,
    nulling_residual,
    rank_q2,
    sinr_exact,
    sum_rate,
    trial_csv_row,
)
from .phaseopt import (
    UndefinedPhaseError,
    asymptotic_phase_config_bs_ue_zf,
    asymptotic_phases_and_sinr_bs_ris_zf,
    optimal_phases_bs_ris_zf,
    optimal_phases_bs_ue_zf,
    random_phases,
)
from .sysconfig import (
    BS_RIS_ZF,
    BS_UE_ZF,
    ChannelModelConfig,
    RunConfig,
    SystemConfig,
    validate_config,
    with_dimensions,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_FLAGGED = 3

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FLAGGED = "flagged"

FAILURE_FLAG_FRACTION = 0.2

SUMMARY_CSV_HEADER = (
    "scheme,phase_rule,M,N,csi_tau,status,trials,failures,"
    "mean_sum_rate,stderr_sum_rate,analytic_sum_rate,analytic_stderr,note"
)
PLOTDATA_CSV_HEADER = "curve,M,mean_rate,stderr"


@dataclass(frozen=True)
class GridPoint:
    index: int
    dims_index: int
    scheme: str
    phase_rule: str
    M: int
    N: int
    tau: float


@dataclass(frozen=True)
class PointSummary:
    scheme: str
    phase_rule: str
    M: int
    N: int
    tau: float
    status: str
    trials: int
    failures: int
    mean_sum_rate: float
    stderr_sum_rate: float
    analytic_sum_rate: float
    analytic_stderr: float
    note: str = ""


@dataclass(frozen=True)
class SweepSummary:
    points: tuple
    trials: tuple

    @property
    def flagged(self) -> bool:
        return any(p.status == STATUS_FLAGGED for p in self.points)


def enumerate_grid(run: RunConfig) -> list[GridPoint]:
    """Fixed enumeration order: schemes, then rules, then (M, N, tau)."""
    dims = list(product(run.sweep_M, run.sweep_N, run.csi_tau))
    points = []
    for scheme, rule in product(run.schemes, run.phase_rules):
        for d, (M, N, tau) in enumerate(dims):
            points.append(
                GridPoint(
                    index=len(points),
                    dims_index=d,
                    scheme=scheme,
                    phase_rule=rule,
                    M=M,
                    N=N,
                    tau=tau,
                )
            )
    return points


def _design_phases(
    point: GridPoint,
    chs_hat,
    master_seed: int,
    trial: int,
) -> tuple[np.ndarray, int, bool, float]:
    """Phase shifts for one trial from the (possibly estimated) channels,
    with the solver's iterations, whether it met its tolerance, and its
    final residual: the fixed point's worst row residual, the alternating
    optimizer's last phase change, and (0, True, 0.0) for the closed
    forms and random phases."""
    cfg = chs_hat.cfg
    if point.phase_rule == "random":
        seed = derive_seed(master_seed, point.dims_index, trial, 2)
        return random_phases(cfg, seed), 0, True, 0.0
    if point.phase_rule == "optimal":
        if point.scheme == BS_UE_ZF:
            init = random_phases(cfg, derive_seed(master_seed, point.dims_index, trial, 3))
            phases, diag = optimal_phases_bs_ue_zf(chs_hat, init)
            return phases, diag.iterations, diag.converged, diag.final_phase_change
        return optimal_phases_bs_ris_zf(chs_hat), 0, True, 0.0
    if point.phase_rule == "asymptotic":
        if point.scheme == BS_UE_ZF:
            phases, art = asymptotic_phase_config_bs_ue_zf(chs_hat)
            return phases, art.iterations, art.converged, art.fixed_point_residual
        phases = np.empty((cfg.K, cfg.N))
        for k in range(cfg.K):
            phases[k], _ = asymptotic_phases_and_sinr_bs_ris_zf(
                chs_hat.h_block(k), chs_hat.R, cfg.noise_variance_blocked[k], k
            )
        return phases, 0, True, 0.0
    raise ValueError(f"unknown phase rule {point.phase_rule!r}")


def _analytic_sum_rate(chs, cfg: SystemConfig) -> float:
    """Large-M sum rate: blocked UEs at their SINR ceilings, direct UEs
    at the interference-free 1/sigma^2 the RIS-side nulling guarantees."""
    total = 0.0
    for k in range(cfg.K):
        _, sinr_star = asymptotic_phases_and_sinr_bs_ris_zf(
            chs.h_block(k), chs.R, cfg.noise_variance_blocked[k], k
        )
        total += math.log2(1.0 + sinr_star)
    for u in range(cfg.U_d):
        total += math.log2(1.0 + 1.0 / cfg.noise_variance_direct[u])
    return total


def _point_skip_note(cfg: SystemConfig, ch: ChannelModelConfig, point: GridPoint):
    report = validate_config(cfg, ch, point.scheme)
    if not report.ok:
        return "; ".join(f"{c.name}: {c.detail}" for c in report.failures)
    if point.phase_rule == "asymptotic" and any(l != 1 for l in cfg.L):
        return "asymptotic phase rule needs one UE per RIS"
    return None


def run_point(
    point: GridPoint,
    cfg: SystemConfig,
    ch: ChannelModelConfig,
    run: RunConfig,
) -> tuple[PointSummary, list[TrialResult]]:
    """All trials for one grid point; failures recorded, never averaged.
    A point `_point_skip_note` rejects runs no trials and keeps the note."""
    cfg_point = with_dimensions(cfg, point.M, point.N)
    note = _point_skip_note(cfg_point, ch, point)
    want_analytic = (
        point.scheme == BS_RIS_ZF and cfg_point.power_mode == "paper_literal"
    )
    results: list[TrialResult] = []
    analytic_vals: list[float] = []
    failures = 0
    for t in range(run.trials if note is None else 0):
        rng = spawn_rng(run.master_seed, point.dims_index, t, 0)
        seed_tag = derive_seed(run.master_seed, point.dims_index, t, 0)
        chs = sample_channels(cfg_point, ch, rng)
        try:
            chs_hat = apply_estimation_error(
                chs, point.tau, derive_seed(run.master_seed, point.dims_index, t, 1)
            )
            phases, iters, converged, residual = _design_phases(
                point, chs_hat, run.master_seed, t
            )
            if point.scheme == BS_UE_ZF:
                W = bs_ue_zf_precoder(chs_hat, phases)
            else:
                W = bs_ris_zf_precoder(chs_hat)
            W, _ = normalize_power(W, cfg_point)
            sb, sd = sinr_exact(chs, phases, W, cfg_point)
            if want_analytic:
                analytic_vals.append(_analytic_sum_rate(chs, cfg_point))
        except (RankDeficiencyError, UndefinedPhaseError, np.linalg.LinAlgError):
            failures += 1
            continue
        results.append(
            TrialResult(
                sinr_blocked=sb,
                sinr_direct=sd,
                sum_rate=sum_rate(np.concatenate([sb, sd])),
                nulling_residual=nulling_residual(chs, phases, W, cfg_point),
                fixed_point_residual=residual,
                phase_iterations=iters,
                phase_converged=converged,
                rank_q2=rank_q2(chs),
                seed=seed_tag,
                trial=t,
                scheme=point.scheme,
                phase_rule=point.phase_rule,
                M=point.M,
                N=point.N,
                K=cfg_point.K,
                U_d=cfg_point.U_d,
                csi_tau=point.tau,
            )
        )

    if note is not None:
        status = STATUS_SKIPPED
    elif failures > FAILURE_FLAG_FRACTION * run.trials:
        status, note = STATUS_FLAGGED, f"{failures} of {run.trials} trials failed"
    else:
        status, note = STATUS_OK, ""
    mean, stderr = _mean_stderr([r.sum_rate for r in results])
    a_mean, a_stderr = _mean_stderr(analytic_vals)
    return (
        PointSummary(
            scheme=point.scheme,
            phase_rule=point.phase_rule,
            M=point.M,
            N=point.N,
            tau=point.tau,
            status=status,
            trials=len(results),
            failures=failures,
            mean_sum_rate=mean,
            stderr_sum_rate=stderr,
            analytic_sum_rate=a_mean,
            analytic_stderr=a_stderr,
            note=note,
        ),
        results,
    )


def _mean_stderr(values) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _run_point_star(args):
    return run_point(*args)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of the bundled OpenBLAS the sweep
    calls: numpy's (`beamform.numpy_openblas`), or scipy's when numpy has
    none and the right inverse falls back to scipy; empty for any other
    BLAS (system OpenBLAS, MKL).

    Their helper threads slow down the sweep's small matrices (Gram
    matrices of at most tens of rows) and oversubscribe the pool's cores.
    """
    lib = numpy_openblas()
    if lib is not None:
        libs = [(lib, "64_")]
    else:
        import scipy.linalg  # loads scipy's OpenBLAS, which the fallback uses

        libdir = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
        libs = [(ctypes.CDLL(path), "")  # already loaded: the handle scipy uses
                for path in glob.glob(os.path.join(libdir, "libscipy_openblas-*.so"))]
    controls = []
    for lib, suffix in libs:
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get_threads is None or set_threads is None:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        controls.append((get_threads, set_threads))
    return controls


# Size of the allocation that raises glibc's dynamic mmap threshold.
_ALLOCATOR_WARMUP_BYTES = 8 << 20


def _pin_one_blas_thread() -> list[tuple]:
    """Set every bundled OpenBLAS build to one thread; returns the
    (set, previous count) pairs that undo it. Also the pool's initializer.

    It also allocates and frees one untouched 8 MiB block. glibc then
    raises its mmap threshold to 8 MiB and its trim threshold to 16 MiB,
    so the sweep's temporaries of 128 KiB and up (M=256 stacks) reuse heap
    memory instead of being mapped, faulted in and unmapped on every
    allocation.
    """
    np.empty(_ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)
    restore = []
    for get_threads, set_threads in _openblas_thread_controls():
        restore.append((set_threads, get_threads()))
        set_threads(1)
    return restore


def run_sweep(
    run: RunConfig, cfg: SystemConfig, ch: ChannelModelConfig
) -> SweepSummary:
    """Execute the whole grid; identical output for any thread count."""
    points = enumerate_grid(run)
    tasks = [(p, cfg, ch, run) for p in points]
    if run.threads > 1:
        # imported here: the pool loads multiprocessing, logging and socket,
        # which a serial sweep and `import riszf` do not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=run.threads,
                                 initializer=_pin_one_blas_thread) as pool:
            outcomes = list(pool.map(_run_point_star, tasks))
    else:
        restore = _pin_one_blas_thread()
        try:
            outcomes = [run_point(*t) for t in tasks]
        finally:
            for set_threads, n in restore:
                set_threads(n)
    summaries = tuple(s for s, _ in outcomes)
    trials = tuple(r for _, rs in outcomes for r in rs)
    return SweepSummary(points=summaries, trials=trials)


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def _summary_row(p: PointSummary) -> str:
    note = p.note.replace(",", ";").replace("\n", " ")
    return ",".join(
        [
            p.scheme,
            p.phase_rule,
            str(p.M),
            str(p.N),
            repr(float(p.tau)),
            p.status,
            str(p.trials),
            str(p.failures),
            _fmt(p.mean_sum_rate),
            _fmt(p.stderr_sum_rate),
            _fmt(p.analytic_sum_rate),
            _fmt(p.analytic_stderr),
            note,
        ]
    )


def _curve_label(rule: str, N: int, tau: float) -> str:
    return f"{rule}_N{N}_tau{float(tau)!r}"


def _plotdata_lines(points, scheme: str) -> list[str]:
    lines = [PLOTDATA_CSV_HEADER]
    rows = [p for p in points if p.scheme == scheme and p.trials > 0]
    for p in rows:
        lines.append(
            ",".join(
                [
                    _curve_label(p.phase_rule, p.N, p.tau),
                    str(p.M),
                    _fmt(p.mean_sum_rate),
                    _fmt(p.stderr_sum_rate),
                ]
            )
        )
    seen = set()
    for p in rows:
        key = (p.M, p.N, p.tau)
        if key in seen or math.isnan(p.analytic_sum_rate):
            continue
        seen.add(key)
        lines.append(
            ",".join(
                [
                    _curve_label("analytic", p.N, p.tau),
                    str(p.M),
                    _fmt(p.analytic_sum_rate),
                    _fmt(p.analytic_stderr),
                ]
            )
        )
    return lines


def emit_outputs(summary: SweepSummary, out_dir: str) -> list[str]:
    """Write summary.csv, trials.csv, and per-scheme plot data files."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "summary.csv")
    lines = [SUMMARY_CSV_HEADER] + [_summary_row(p) for p in summary.points]
    _write_lines(path, lines)
    written.append(path)

    path = os.path.join(out_dir, "trials.csv")
    lines = [TRIAL_CSV_HEADER] + [trial_csv_row(t) for t in summary.trials]
    _write_lines(path, lines)
    written.append(path)

    for scheme in (BS_UE_ZF, BS_RIS_ZF):
        if not any(p.scheme == scheme for p in summary.points):
            continue
        path = os.path.join(out_dir, f"plotdata_{scheme}.csv")
        _write_lines(path, _plotdata_lines(summary.points, scheme))
        written.append(path)
    return written


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
