"""One measured riszf process: set-up, then at most one sweep.

run.py starts this script in a fresh interpreter for every measurement,
so each one pays the same imports and no state carries over:

    python3 perfbench/worker.py '<request json>'

The request holds the riszf config keys, the thread count (0 for a
set-up-only sample), the output directory, whether to trace, and where
to write the result JSON.

A speed probe runs during set-up and during serial sweeps; see
SpeedProbe.
"""

import contextlib
import dataclasses
import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 1500
# Time of one probe loop at full speed on the reference machine (2-vCPU
# x86-64 VM, Python 3.11); a speed factor of 1.0 means as fast as there.
PROBE_REF_S = 0.25e-3


def _probe_loop():
    """Fixed interpreter-bound work: float arithmetic and dict stores."""
    d = {}
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += (i * 1.0001 + acc) % 7.0
        d[i & 255] = acc
    return acc


class SpeedProbe:
    """Measures how fast this CPU runs while the measured code runs.

    On a shared virtual machine the same code runs up to 1.6x slower for
    stretches of a second or more, and for minutes at a time when the host
    is busy. Every PROBE_INTERVAL_S of wall time a SIGALRM handler times
    one fixed _probe_loop inside this process, in between the program's
    own bytecodes, so the samples see the same slow-downs as the program.
    The loop is timed in thread CPU time, so time the main thread spends
    waiting (for the GIL, or for a core taken by the program's own
    threads) does not count as a slow CPU. stop() returns the speed
    factor, the mean sample over PROBE_REF_S: dividing a raw time by it
    gives the time at the reference speed. The probe costs about 1% of
    the measured time; it does not touch the program's state.
    """

    def __init__(self):
        self.samples = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        _probe_loop()
        self.samples.append(time.thread_time() - t0)

    def start(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # the region was shorter than one interval
            self._tick(signal.SIGALRM, None)
        return statistics.fmean(self.samples) / PROBE_REF_S


def main() -> int:
    req = json.loads(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import riszf
    from riszf import harness, sysconfig

    t1 = time.perf_counter()
    cfg, ch, run = sysconfig.build_configs(req["config"])
    t2 = time.perf_counter()
    out = {
        "import_s": t1 - t0,
        "build_configs_s": t2 - t1,
        "setup_speed": probe.stop(),
        "riszf_file": riszf.__file__,
    }
    if req["threads"]:
        run = dataclasses.replace(run, threads=req["threads"], output_dir=req["out"])
        # The two-worker sweep's work runs in pool processes the probe cannot
        # see, so only serial sweeps are probed.
        # The two-worker sweep's work runs in pool processes the probe cannot
        # see, so only serial sweeps are probed.
        out.update(_sweep(harness, run, cfg, ch, req.get("spans"), probe if run.threads == 1 else None))
        out["env"] = _environment()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _sweep(harness, run, cfg, ch, spans_path, probe):
    """Time run_sweep plus emit_outputs; trace it when spans_path is set,
    probe the CPU speed over it when probe is given."""
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    region = tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext()

    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    if probe:
        probe.start()
    wall0 = time.perf_counter()
    with region:
        summary = harness.run_sweep(run, cfg, ch)
        harness.emit_outputs(summary, run.output_dir)
    wall = time.perf_counter() - wall0
    speed = probe.stop() if probe else None
    cpu = time.process_time() - cpu0
    # pool workers are joined inside run_sweep, so their CPU is in RUSAGE_CHILDREN
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu += (kids.ru_utime + kids.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids.ru_maxrss)

    live = [p for p in summary.points if p.status != harness.STATUS_SKIPPED]
    res = {
        "sweep_s": wall,
        "cpu_s": cpu,
        "sweep_speed": speed,
        "rss_mb": rss_kb / 1024.0,
        "attempted": sum(p.trials + p.failures for p in live),
        "failed": sum(p.failures for p in live),
    }
    if tracer:
        spans = tracer.records()
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        dims = {p.index: p.dims_index for p in harness.enumerate_grid(run)}
        res["layers"] = tracing.layer_metrics(
            spans, tracer.errors, dims, sum(p.trials for p in live)
        )
        res["trace_problems"] = tracing.count_mismatches(
            spans, summary.points, cfg.K, cfg.power_mode == "paper_literal"
        )
    return res


def _openblas(pkg):
    """Config string and thread count of the OpenBLAS a package bundles."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
    found = []
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)  # already loaded: same handle the package uses
        info = {"lib": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
                break
        found.append(info)
    return found or "no bundled OpenBLAS found"


def _environment():
    import multiprocessing
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(numpy),
        "scipy_blas": _openblas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
    }


if __name__ == "__main__":
    sys.exit(main())
