"""Batch sweep runner: seeded Monte Carlo trials over a config grid.

A grid point is one (scheme, phase rule, M, N, tau) combination. Channel
draws are keyed by the (M, N, tau) slice and the trial index only, so
every scheme and phase rule sees the same realizations and curve
comparisons are paired. Every per-trial stream is keyed
(master_seed, dims_index, trial, stream), with `stream` a `SpawnStream`;
that map is a reproducibility contract.

Results merge deterministically by grid-point position, so serial and
parallel runs emit byte-identical files.

Every CSV cell the sweep writes follows one rule (`_csv_cell`), and a
summary.csv or trials.csv row is a `PointSummary`'s or `TrialResult`'s
fields in declaration order.

Every sweep process runs numpy's bundled OpenBLAS on one thread with its
helper threads stopped, so the process pool (`threads`) is the sweep's
only parallelism and a sweep process is one OS thread. The sweep's BLAS
and LAPACK calls all go through numpy, and so through that build. Each
sweep process also warms up the allocator (see `_pin_one_blas_thread`).
"""

import ctypes
import functools
import glob
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import product

import numpy as np

from .beamform import (
    RankDeficiencyError,
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    normalize_power,
)
from .channel import apply_estimation_error, derive_seed, sample_channels, spawn_rng
from .metrics import nulling_residual, rank_q2, sinr_exact, sum_rate
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

PLOTDATA_CSV_HEADER = "curve,M,mean_rate,stderr"


class SpawnStream(IntEnum):
    """The last spawn key of a trial's streams, (master_seed, dims_index,
    trial, stream); the draw's seed tag is `derive_seed` of its key."""

    DRAW = 0  # channel draw
    CSI_ERROR = 1  # estimation error draw
    RANDOM_PHASES = 2  # random phase rule
    ALTERNATING_INIT = 3  # alternating optimizer's starting point (`init`)


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


# a summary.csv row is a `PointSummary`'s fields in order, `tau` written as csi_tau
SUMMARY_CSV_HEADER = ",".join(
    "csi_tau" if f.name == "tau" else f.name for f in fields(PointSummary)
)


@dataclass
class TrialResult:
    """Everything measured in one Monte Carlo trial, one trials.csv row:
    the fields are its columns, in order.

    The SINR extremes run over every UE, blocked and direct. The phase
    rule's solver fills phase_iterations, phase_converged and
    fixed_point_residual; rules without an iteration give 0, True, 0.0.
    """

    trial: int
    scheme: str
    phase_rule: str
    M: int
    N: int
    K: int
    U_d: int
    csi_tau: float
    sinr_min: float
    sinr_max: float
    sum_rate: float
    nulling_residual: float
    rank_q2: int
    seed: int
    phase_iterations: int
    phase_converged: bool
    fixed_point_residual: float


TRIAL_CSV_HEADER = ",".join(f.name for f in fields(TrialResult))


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
        seed = derive_seed(master_seed, point.dims_index, trial, SpawnStream.RANDOM_PHASES)
        return random_phases(cfg, seed), 0, True, 0.0
    if point.phase_rule == "optimal":
        if point.scheme == BS_UE_ZF:
            seed = derive_seed(master_seed, point.dims_index, trial, SpawnStream.ALTERNATING_INIT)
            init = random_phases(cfg, seed)
            phases, diag = optimal_phases_bs_ue_zf(chs_hat, init)
            return phases, diag.iterations, diag.converged, diag.final_phase_change
        return optimal_phases_bs_ris_zf(chs_hat), 0, True, 0.0
    if point.phase_rule == "asymptotic":
        if point.scheme == BS_UE_ZF:
            phases, art = asymptotic_phase_config_bs_ue_zf(chs_hat)
            return phases, art.iterations, art.converged, art.fixed_point_residual
        return _asymptotic_ris_side(chs_hat)[0], 0, True, 0.0
    raise ValueError(f"unknown phase rule {point.phase_rule!r}")


def _asymptotic_ris_side(chs) -> tuple[np.ndarray, list[float]]:
    """Large-M RIS-side nulling of every RIS in turn: the (K, N) phases
    and the K SINR ceilings."""
    cfg = chs.cfg
    phases = np.empty((cfg.K, cfg.N))
    ceilings = []
    for k in range(cfg.K):
        phases[k], sinr_star = asymptotic_phases_and_sinr_bs_ris_zf(
            chs.h_block(k), chs.R, cfg.noise_variance_blocked[k], k
        )
        ceilings.append(sinr_star)
    return phases, ceilings


def _analytic_sum_rate(chs) -> float:
    """Large-M sum rate: blocked UEs at their SINR ceilings, direct UEs
    at the interference-free 1/sigma^2 the RIS-side nulling guarantees."""
    cfg = chs.cfg
    total = 0.0
    for sinr_star in _asymptotic_ris_side(chs)[1]:
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
        rng = spawn_rng(run.master_seed, point.dims_index, t, SpawnStream.DRAW)
        seed_tag = derive_seed(run.master_seed, point.dims_index, t, SpawnStream.DRAW)
        chs = sample_channels(cfg_point, ch, rng)
        try:
            chs_hat = apply_estimation_error(
                chs,
                point.tau,
                derive_seed(run.master_seed, point.dims_index, t, SpawnStream.CSI_ERROR),
            )
            phases, iters, converged, residual = _design_phases(
                point, chs_hat, run.master_seed, t
            )
            if point.scheme == BS_UE_ZF:
                W = bs_ue_zf_precoder(chs_hat, phases)
            else:
                W = bs_ris_zf_precoder(chs_hat)
            W, _ = normalize_power(W, cfg_point)
            sinrs = np.concatenate(sinr_exact(chs, phases, W))
            if want_analytic:
                analytic_vals.append(_analytic_sum_rate(chs))
        except (RankDeficiencyError, UndefinedPhaseError, np.linalg.LinAlgError):
            failures += 1
            continue
        results.append(
            TrialResult(
                trial=t,
                scheme=point.scheme,
                phase_rule=point.phase_rule,
                M=point.M,
                N=point.N,
                K=cfg_point.K,
                U_d=cfg_point.U_d,
                csi_tau=point.tau,
                sinr_min=float(sinrs.min()),
                sinr_max=float(sinrs.max()),
                sum_rate=sum_rate(sinrs),
                nulling_residual=nulling_residual(chs, phases, W),
                rank_q2=rank_q2(chs),
                seed=seed_tag,
                phase_iterations=iters,
                phase_converged=converged,
                fixed_point_residual=residual,
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
    """Mean and standard error of `values`, NaN where undefined: both
    for no value, the standard error for one."""
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, math.nan
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _run_point_star(args):
    return run_point(*args)


@functools.cache
def numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles (ILP64, `scipy_*64_` symbols),
    or None when numpy is built against another BLAS.

    numpy has already loaded the library, so this is the handle numpy uses.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    return ctypes.CDLL(paths[0]) if paths else None


def _openblas_thread_controls() -> tuple | None:
    """(get, set, shutdown, cpu_number) thread controls of numpy's bundled
    OpenBLAS (`numpy_openblas`), which every BLAS and LAPACK call of the
    sweep runs in; None for any other BLAS (system OpenBLAS, MKL).
    shutdown is None for a build that does not export
    `blas_thread_shutdown_`, and cpu_number (its `blas_cpu_number`, the
    count `get` reads, as a ctypes int) None for one that does not export
    that.

    Its helper threads slow down the sweep's small matrices (Gram
    matrices of at most tens of rows) and oversubscribe the pool's cores.
    Setting the count to 1 keeps them out of every call, but the helper
    started when numpy loads stays alive and busy-waits about 0.13 s of
    CPU; shutdown stops it. Every `set` starts stopped helpers again, and
    they then spin again; writing cpu_number does not, and OpenBLAS starts
    them at its next threaded call.
    """
    lib = numpy_openblas()
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:
        return None
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    if shutdown is not None:
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    try:
        cpu_number = ctypes.c_int.in_dll(lib, "blas_cpu_number")
    except ValueError:
        cpu_number = None
    return get_threads, set_threads, shutdown, cpu_number


# Size of the allocation that raises glibc's dynamic mmap threshold.
_ALLOCATOR_WARMUP_BYTES = 8 << 20


def _pin_one_blas_thread() -> Callable[[], None]:
    """Set numpy's bundled OpenBLAS to one thread and stop its helper
    threads; returns the call that restores the previous count. The
    restore writes the count into `blas_cpu_number`, so the helpers stay
    stopped until the next threaded BLAS call starts them; a build without
    that symbol restores through `set_num_threads`, which starts them at
    once. Also the pool's initializer, so each worker runs on one OS
    thread.

    No other Python thread may be inside OpenBLAS until the count is
    restored: stopping the helpers under its threaded call is unsafe.

    It also allocates and frees one untouched 8 MiB block. glibc then
    raises its mmap threshold to 8 MiB and its trim threshold to 16 MiB,
    so the sweep's temporaries of 128 KiB and up (M=256 stacks) reuse heap
    memory instead of being mapped, faulted in and unmapped on every
    allocation.
    """
    np.empty(_ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)
    controls = _openblas_thread_controls()
    if controls is None:
        return lambda: None
    get_threads, set_threads, shutdown, cpu_number = controls
    saved = get_threads()
    set_threads(1)
    if shutdown is not None:
        shutdown()
    if cpu_number is None:
        return functools.partial(set_threads, saved)
    return functools.partial(setattr, cpu_number, "value", saved)


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
            restore()
    summaries = tuple(s for s, _ in outcomes)
    trials = tuple(r for _, rs in outcomes for r in rs)
    return SweepSummary(points=summaries, trials=trials)


def _csv_cell(v) -> str:
    """The one rule for every cell of every CSV: text with `,` as `;` and
    newlines as spaces, booleans as 0/1, integers as digits, and floats as
    their round-trip repr, with NaN (undefined) as an empty cell."""
    if isinstance(v, str):
        return v.replace(",", ";").replace("\n", " ")
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(v)
    return "" if math.isnan(v) else repr(float(v))


def _csv_row(values) -> str:
    return ",".join(_csv_cell(v) for v in values)


def trial_csv_row(t: TrialResult) -> str:
    return _csv_row(vars(t).values())


def _curve_label(rule: str, N: int, tau: float) -> str:
    return f"{rule}_N{N}_tau{_csv_cell(tau)}"


def _plotdata_lines(points, scheme: str) -> list[str]:
    lines = [PLOTDATA_CSV_HEADER]
    rows = [p for p in points if p.scheme == scheme and p.trials > 0]
    for p in rows:
        lines.append(
            _csv_row(
                (_curve_label(p.phase_rule, p.N, p.tau), p.M, p.mean_sum_rate, p.stderr_sum_rate)
            )
        )
    seen = set()
    for p in rows:
        key = (p.M, p.N, p.tau)
        if key in seen or math.isnan(p.analytic_sum_rate):
            continue
        seen.add(key)
        lines.append(
            _csv_row(
                (_curve_label("analytic", p.N, p.tau), p.M, p.analytic_sum_rate, p.analytic_stderr)
            )
        )
    return lines


def emit_outputs(summary: SweepSummary, out_dir: str) -> list[str]:
    """Write summary.csv, trials.csv, and per-scheme plot data files; a
    plot data file of a scheme the sweep has no point of is deleted, so
    none is left from an earlier run into `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "summary.csv": [SUMMARY_CSV_HEADER] + [_csv_row(vars(p).values()) for p in summary.points],
        "trials.csv": [TRIAL_CSV_HEADER] + [trial_csv_row(t) for t in summary.trials],
    }
    for scheme in (BS_UE_ZF, BS_RIS_ZF):
        name = f"plotdata_{scheme}.csv"
        if any(p.scheme == scheme for p in summary.points):
            files[name] = _plotdata_lines(summary.points, scheme)
        elif os.path.exists(path := os.path.join(out_dir, name)):
            os.remove(path)
    written = [os.path.join(out_dir, name) for name in files]
    for path, lines in zip(written, files.values()):
        _write_lines(path, lines)
    return written


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
