"""Command line entry points for sweeps, config checks, and cost tables."""

import argparse
import os
import sys

from .harness import (
    EXIT_CONFIG_ERROR,
    EXIT_FLAGGED,
    EXIT_OK,
    STATUS_OK,
    _point_skip_note,
    emit_outputs,
    enumerate_grid,
    run_sweep,
)
from .metrics import complexity_counts
from .sysconfig import ConfigError, build_configs, parse_set_items, read_config, with_dimensions


def _load_kv(
    path: str | None, sets: list[str], flags: tuple[tuple[str, str], ...] = ()
) -> dict[str, str]:
    """The config file's keys, if any, with the `--set` and flag keys over
    them; `flags` holds (flag, ``key=value``) items."""
    kv = {} if path is None else read_config(path)
    kv.update(parse_set_items(sets, flags))
    return kv


def _parse_dim_list(text: str) -> list[int]:
    """Accept `a..b`, `a..b..step`, or a comma list of integers."""
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad range {text!r}; expected a..b or a..b..step")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ConfigError(f"bad range {text!r}; bounds must be integers")
        if step < 1 or hi < lo:
            raise ConfigError(f"bad range {text!r}; need lo <= hi and step >= 1")
        return list(range(lo, hi + 1, step))
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad list {text!r}; expected comma-separated integers")
    if not values:
        raise ConfigError(f"bad list {text!r}; no values")
    return values


def _cmd_run(args) -> int:
    # the flags override config keys, pass the same range checks, and
    # clash with a `--set` of their key
    flags = (("--out", "output_dir", args.out), ("--seed", "master_seed", args.seed),
             ("--trials", "trials", args.trials), ("--threads", "threads", args.threads))
    kv = _load_kv(args.config, args.set or [],
                  tuple((flag, f"{key}={value}") for flag, key, value in flags if value is not None))
    cfg, ch, run_cfg = build_configs(kv)
    # an output directory that cannot be made is a config error here, not
    # after the sweep, named as given rather than as the parent that failed
    try:
        os.makedirs(run_cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(OSError(exc.errno, exc.strerror, run_cfg.output_dir))) from exc

    summary = run_sweep(run_cfg, cfg, ch)
    written = emit_outputs(summary, run_cfg.output_dir)
    for path in written:
        print(f"wrote {path}")
    for p in summary.points:
        if p.status != STATUS_OK:
            print(f"{p.status}: {p.scheme}/{p.phase_rule} M={p.M} N={p.N} "
                  f"tau={p.tau} ({p.note})")
    return EXIT_FLAGGED if summary.flagged else EXIT_OK


def _cmd_validate(args) -> int:
    kv = _load_kv(args.config, args.set or [])
    cfg, ch, run_cfg = build_configs(kv)
    # the grid points `run` would skip, with their summary.csv note; tau
    # decides no skip, so each (scheme, rule, M, N) is judged once
    points = {(p.scheme, p.phase_rule, p.M, p.N): p for p in enumerate_grid(run_cfg)}
    runnable = dict.fromkeys(run_cfg.schemes, 0)
    for (scheme, rule, M, N), point in points.items():
        note = _point_skip_note(with_dimensions(cfg, M, N), ch, point)
        if note is None:
            runnable[scheme] += 1
        else:
            print(f"skip: {scheme}/{rule} M={M} N={N} ({note})")
    per_scheme = len(points) // len(runnable)
    for scheme, count in runnable.items():
        print(f"scheme {scheme}: {count} of {per_scheme} points run")
    return EXIT_CONFIG_ERROR if 0 in runnable.values() else EXIT_OK


def _cmd_complexity(args) -> int:
    Ms = _parse_dim_list(args.M)
    Ns = _parse_dim_list(args.N)
    # checked before the header, so a bad dimension prints no partial table
    minimums = (("--M", Ms, 1), ("--N", Ns, 1), ("--K", [args.K], 1),
                ("--U_b", [args.U_b], 1), ("--U_d", [args.U_d], 0))
    for flag, values, minimum in minimums:
        low = min(values)
        if low < minimum:
            raise ConfigError(f"{flag} must be >= {minimum}, got {low}")
    # the configs' rule (SystemConfig): every RIS serves at least one UE
    if args.U_b < args.K:
        raise ConfigError(f"--U_b must be >= --K={args.K}, got {args.U_b}")
    print("M,N,count_bs_ue_zf,count_bs_ris_zf")
    for M in Ms:
        for N in Ns:
            ue, ris = complexity_counts(M, N, args.K, args.U_b, args.U_d)
            print(f"{M},{N},{ue},{ris}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riszf",
        description="Monte Carlo sweeps for RIS-assisted zero-forcing downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured sweep")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="master seed")
    p_run.add_argument("--trials", type=int, help="trials per grid point")
    p_run.add_argument("--threads", type=int, help="parallel worker count")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="list the grid points run would skip")
    p_val.add_argument("--config", help="key=value config file")
    p_val.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    p_val.set_defaults(func=_cmd_validate)

    p_cx = sub.add_parser("complexity", help="print multiplication counts as CSV")
    p_cx.add_argument("--M", required=True,
                      help="antenna counts: a..b, a..b..step, or comma list")
    p_cx.add_argument("--N", required=True,
                      help="element counts: a..b, a..b..step, or comma list")
    p_cx.add_argument("--K", type=int, default=4, help="number of RISs")
    p_cx.add_argument("--U_b", type=int, default=4, help="blocked UE count")
    p_cx.add_argument("--U_d", type=int, default=2, help="direct UE count")
    p_cx.set_defaults(func=_cmd_complexity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:
        # the reader stopped early: send the rest of the output to devnull,
        # so the exit-time flush cannot raise again (Python `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
