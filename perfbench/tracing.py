"""Span tracing of a riszf sweep, installed from outside the program.

`install` replaces each traced riszf function, in every riszf module
namespace that holds it, by a wrapper that records a span: name, start,
end, parent span, and the (grid point, trial) the call belongs to. The
harness imports names with ``from .x import y``, so patching only the
defining module would miss the calls that matter; the coverage check in
`count_mismatches` catches any alias that is still missed.

Spans stay in memory and are written out once, when the run ends.
"""

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

# span name -> the riszf functions it wraps (module, function)
TARGETS = {
    "harness.run_sweep": [("riszf.harness", "run_sweep")],
    "harness.run_point": [("riszf.harness", "run_point")],
    "harness.emit_outputs": [("riszf.harness", "emit_outputs")],
    "sysconfig.point_config": [
        ("riszf.sysconfig", "validate_config"),
        ("riszf.sysconfig", "with_dimensions"),
    ],
    "channel.sample": [("riszf.channel", "sample_channels")],
    "channel.corr_sqrt": [
        ("riszf.channel", "correlation_matrix"),
        ("riszf.channel", "matrix_sqrt_psd"),
    ],
    "channel.csi_error": [("riszf.channel", "apply_estimation_error")],
    "channel.seed": [("riszf.channel", "spawn_rng"), ("riszf.channel", "derive_seed")],
    "phaseopt.fixed_point": [("riszf.phaseopt", "asymptotic_phase_config_bs_ue_zf")],
    "phaseopt.alternating": [("riszf.phaseopt", "optimal_phases_bs_ue_zf")],
    "phaseopt.asymptotic_ris": [
        ("riszf.phaseopt", "asymptotic_phases_and_sinr_bs_ris_zf")
    ],
    "phaseopt.closed_form_ris": [("riszf.phaseopt", "optimal_phases_bs_ris_zf")],
    "phaseopt.random": [("riszf.phaseopt", "random_phases")],
    "beamform.ue_precoder": [("riszf.beamform", "bs_ue_zf_precoder")],
    "beamform.ris_precoder": [("riszf.beamform", "bs_ris_zf_precoder")],
    "beamform.right_inverse": [("riszf.beamform", "right_inverse_apply")],
    "metrics.sinr": [("riszf.metrics", "sinr_exact")],
    "metrics.residual": [("riszf.metrics", "nulling_residual")],
    "metrics.effective_matrix": [("riszf.metrics", "effective_matrix")],
    "metrics.rank_q2": [("riszf.metrics", "rank_q2")],
}

LAYERS = ("phaseopt", "beamform", "channel", "metrics", "sysconfig", "harness")
ROOT = "harness.sweep"


class Tracer:
    """In-memory span recorder; one per traced sweep."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, point, trial, info]
        self.errors = {}
        self._stack = []
        self.point = None
        self.trial = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.point, self.trial, None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count_error(self, exc):
        # an exception passes through several wrappers; count it once
        if not getattr(exc, "_perfbench_counted", False):
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            exc._perfbench_counted = True

    def records(self):
        keys = ("name", "start", "end", "parent", "point", "trial", "info")
        return [dict(zip(keys, s)) for s in self.spans]


def _arg(fn, name, args, kwargs):
    """Value of parameter `name` in a call of `fn`, defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _right_inverse_flops(Q, targets=None, *_, **__):
    """Real flops of one right inverse, computed from the shapes: Gram
    matrix, eigvalsh, Cholesky, triangular solves and the final product
    (complex multiply-add = 8 real flops)."""
    r, m = Q.shape
    c = r if targets is None else targets.shape[1]
    return 8 * m * r * r + 16 * r**3 / 3 + 4 * r**3 / 3 + 8 * r * r * c + 8 * m * r * c


def _tau(chs, tau, *_, **__):
    return tau


def _make_wrapper(tracer, name, fn):
    seed_fn = name == "channel.seed"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if seed_fn and len(args) == 4:
            # the harness keys every per-trial stream (master, slice, trial, k);
            # the trial index marks the start of that trial's spans
            tracer.trial = args[2]
        if name == "channel.csi_error" and _tau(*args, **kwargs) == 0.0:
            return fn(*args, **kwargs)  # no redraw at tau 0
        if name == "harness.run_point":
            tracer.point, tracer.trial = args[0].index, None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.count_error(exc)
            raise
        finally:
            tracer.close(sid)
            if name == "harness.run_point":
                tracer.point = tracer.trial = None
        if name == "phaseopt.fixed_point":
            art = result[1]
            tol = _arg(fn, "tol", args, kwargs)
            tracer.spans[sid][6] = {
                "iters": art.iterations,
                "converged": art.fixed_point_residual <= tol,
            }
        elif name == "phaseopt.alternating":
            diag = result[1]
            tracer.spans[sid][6] = {
                "iters": diag.iterations, "converged": diag.converged,
            }
        elif name == "beamform.right_inverse":
            tracer.spans[sid][6] = {"flops": _right_inverse_flops(*args, **kwargs)}
        return result

    return wrapper


def install(tracer):
    """Patch every riszf namespace that holds a traced function."""
    modules = [m for n, m in sys.modules.items() if n == "riszf" or n.startswith("riszf.")]
    for name, funcs in TARGETS.items():
        for mod_name, fn_name in funcs:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = _make_wrapper(tracer, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def expected_counts(points, K, paper_literal, alternating_spans):
    """Call counts each span name must show, derived from the grid.

    `points` are the sweep's PointSummary rows. Counts that depend on the
    alternating optimizer's iterations take them from its own spans.
    """
    n = {}

    def add(key, value):
        n[key] = n.get(key, 0) + value

    add("harness.run_sweep", 1)
    add("harness.emit_outputs", 1)
    add("harness.run_point", len(points))
    add("sysconfig.point_config", 2 * len(points))
    for p in points:
        if p.status == "skipped":
            continue
        tried, ok = p.trials + p.failures, p.trials
        ue = p.scheme == "bs_ue_zf"
        add("channel.sample", tried)
        add("channel.corr_sqrt", 2 * tried)
        seeds = 3  # channel stream, its seed tag, the CSI-error seed
        if p.tau > 0.0:
            add("channel.csi_error", tried)
            seeds += 1
        if p.phase_rule == "random" or (ue and p.phase_rule == "optimal"):
            add("phaseopt.random", tried)
            seeds += 2
        add("channel.seed", seeds * tried)
        if ue:
            add("beamform.ue_precoder", tried)
            if p.phase_rule == "optimal":
                add("phaseopt.alternating", tried)
            elif p.phase_rule == "asymptotic":
                add("phaseopt.fixed_point", tried)
        else:
            add("beamform.ris_precoder", tried)
            if p.phase_rule == "optimal":
                add("phaseopt.closed_form_ris", tried)
                add("beamform.ris_precoder", tried)
            elif p.phase_rule == "asymptotic":
                add("phaseopt.asymptotic_ris", K * tried)
            if paper_literal:
                add("phaseopt.asymptotic_ris", K * ok)
        add("metrics.sinr", ok)
        add("metrics.residual", ok)
        add("metrics.rank_q2", ok)
        add("metrics.effective_matrix", 2 * ok)
    # a call that raised has no iteration count; failures then show as a mismatch
    add("beamform.ue_precoder", sum(s["info"]["iters"] + 1 for s in alternating_spans if s["info"]))
    add("beamform.right_inverse", n.get("beamform.ue_precoder", 0) + n.get("beamform.ris_precoder", 0))
    return n


def count_mismatches(spans, points, K, paper_literal):
    """Messages for every span name whose call count is off the grid's."""
    names = _by_name(spans)
    want = expected_counts(points, K, paper_literal, names.get("phaseopt.alternating", []))
    bad = []
    for key in sorted(set(want) | set(TARGETS)):
        got = len(names.get(key, []))
        if got != want.get(key, 0):
            bad.append(f"{key}: traced {got} calls, grid implies {want.get(key, 0)}")
    return bad


def layer_metrics(spans, errors, dims_of_point, successful_trials):
    """Per-layer metrics of one traced sweep.

    `errors` counts exceptions by type name, `dims_of_point` maps a grid
    point index to its (M, N, tau) slice index.
    """
    own = self_times(spans)
    names = _by_name(spans)
    busy, self_s = {}, {}
    for s, t in zip(spans, own):
        busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + t
    root = names[ROOT][0]
    sweep = root["end"] - root["start"]

    m = {}
    for name in TARGETS:
        if name.startswith("harness."):
            continue
        m[f"{name}.calls"] = len(names.get(name, []))
        m[f"{name}.s"] = busy.get(name, 0.0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    for key in ("fixed_point", "alternating"):
        info = [s["info"] for s in names.get(f"phaseopt.{key}", []) if s["info"]]
        m[f"phaseopt.{key}.iters_mean"] = (
            statistics.fmean(i["iters"] for i in info) if info else 0.0
        )
        m[f"phaseopt.{key}.unconverged_frac"] = (
            sum(not i["converged"] for i in info) / len(info) if info else 0.0
        )
    m["phaseopt.fixed_point.iters_max"] = max(
        (s["info"]["iters"] for s in names.get("phaseopt.fixed_point", []) if s["info"]),
        default=0,
    )
    flops = sum(s["info"]["flops"] for s in names.get("beamform.right_inverse", []) if s["info"])
    ri_s = busy.get("beamform.right_inverse", 0.0)
    m["beamform.right_inverse.gflop_per_s"] = flops / ri_s / 1e9 if ri_s else 0.0

    slice_trials = {(dims_of_point[s["point"]], s["trial"]) for s in names.get("channel.sample", [])}
    m["channel.draws_per_slice_trial"] = (
        len(names.get("channel.sample", [])) / len(slice_trials) if slice_trials else 0.0
    )
    m["metrics.effective_matrix.per_trial"] = (
        len(names.get("metrics.effective_matrix", [])) / successful_trials
        if successful_trials else 0.0
    )

    point_times = _point_times(spans)
    m["harness.point_s.p50"] = statistics.median(point_times) if point_times else 0.0
    m["harness.point_s.max"] = max(point_times, default=0.0)
    m["harness.max_point_share"] = m["harness.point_s.max"] / sweep
    m["harness.emit_s"] = busy.get("harness.emit_outputs", 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer_self[s["name"].split(".")[0]] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_share"] = t / sweep
    m["harness.self_s"] = layer_self["harness"]
    m["phaseopt.undefined_phase_errors"] = errors.get("UndefinedPhaseError", 0)
    m["beamform.rank_deficiency_errors"] = errors.get("RankDeficiencyError", 0)
    m["trace.sweep_s"] = sweep
    m["trace.spans"] = len(spans)

    # True by construction: every span's time is its self time plus its
    # children's, and all spans sit under the one root, so the layer self
    # times add up to the traced sweep time. Not a check of the program.
    assert abs(sum(layer_self.values()) - sweep) <= 1e-6 * sweep
    return m


def _point_times(spans):
    """Durations of the grid points that ran trials (not skipped)."""
    sampled = {s["point"] for s in spans if s["name"] == "channel.sample"}
    return [s["end"] - s["start"] for s in spans
            if s["name"] == "harness.run_point" and s["point"] in sampled]
