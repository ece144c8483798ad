"""Command line behavior: subcommands, overrides, exit codes."""

import os
import re
import subprocess
import sys

import pytest

import riszf.cli as cli
import riszf.harness as harness
from riszf.beamform import RankDeficiencyError
from riszf.cli import main
from riszf.metrics import complexity_counts

FAST = ["--set", "sweep_m=16", "--set", "sweep_n=1",
        "--set", "schemes=bs_ue_zf", "--set", "phase_rules=random"]


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--trials", "2", "--set", "sweep_m=64", "--set", "sweep_n=4",
                 "--out", str(out)]) == 0
    assert "summary.csv" in capsys.readouterr().out
    for name in ("summary.csv", "trials.csv", "plotdata_bs_ue_zf.csv", "plotdata_bs_ris_zf.csv"):
        assert (out / name).stat().st_size > 0, name
    rows = (out / "summary.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 3  # both schemes under the three rules


def test_run_reads_config_file_and_set_overrides_it(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep_m = 16,32\nsweep_n = 1\nschemes = bs_ue_zf\n"
                   "phase_rules = random\ntrials = 2\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--set", "sweep_m=16",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 1
    assert rows[0].startswith("bs_ue_zf,random,16,1,")


def test_run_repeated_sweep_values_write_each_point_once(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "--set", "csi_tau=0.1,0.1", "--set", "sweep_m=16,16",
                 "--set", "sweep_n=2,2", "--set", "trials=2", "--out", str(out)])
    assert code == 0
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    keys = [tuple(r.split(",")[:5]) for r in rows]
    assert len(keys) == len(set(keys)) == 6  # 2 schemes x 3 rules, once each
    trials = (out / "trials.csv").read_text().strip().split("\n")[1:]
    assert len(trials) == 6 * 2
    for plot in out.glob("plotdata_*.csv"):
        points = [tuple(r.split(",")[:2]) for r in plot.read_text().strip().split("\n")[1:]]
        assert len(points) == len(set(points))  # one (curve, M) point each


def test_run_seed_changes_results(tmp_path):
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"s{seed}"
        assert main(["run", *FAST, "--trials", "2", "--seed", seed,
                     "--out", str(out)]) == 0
        outs.append((out / "summary.csv").read_text())
    assert outs[0] != outs[1]


def test_run_reports_skipped_points(tmp_path, capsys):
    code = main(["run", "--set", "sweep_m=16", "--set", "sweep_n=4",
                 "--set", "schemes=bs_ris_zf", "--set", "phase_rules=optimal",
                 "--trials", "1", "--out", str(tmp_path / "o")])
    assert code == 0
    assert "skipped: bs_ris_zf/optimal M=16 N=4" in capsys.readouterr().out


def test_run_flagged_failures_exit_three(tmp_path, monkeypatch):
    def always_raise(chs, phases):
        raise RankDeficiencyError("forced", cond=float("inf"), shape=(6, 16))

    monkeypatch.setattr(harness, "bs_ue_zf_precoder", always_raise)
    code = main(["run", *FAST, "--trials", "2", "--out", str(tmp_path / "o")])
    assert code == 3


def _row(name, argv, code, error="", cfg=None):
    return pytest.param(argv, cfg, code, error, id=name)


def _derived(key, what):
    return f"key '{key}': gives {what}, which must be positive and finite"


# The CLI's exit-code contract: (argv, config-file bytes, exit code, the
# config error that is the whole of stderr, none for exit 0). "{cfg}" is
# a file holding the bytes (no file when they are None) and "{out}" an
# output directory no row may make.
EXIT_CODES = [
    _row("unknown_key", ["run", "--set", "no_such_key=1"], 2, "--set:1: unknown key 'no_such_key'"),
    _row("unknown_key_position", ["validate", "--set", "m=32", "--set", "bogus=1"], 2,
         "--set:2: unknown key 'bogus'"),
    # csi_tau is the CSI-error knob; the old key is rejected, not ignored
    _row("removed_estimation_error_fraction",
         ["run", *FAST, "--trials", "1", "--set", "estimation_error_fraction=0.5", "--out", "{out}"],
         2, "--set:5: unknown key 'estimation_error_fraction'"),
    _row("malformed_set", ["run", "--set", "malformed"], 2, "--set:1: expected key=value, got 'malformed'"),
    _row("missing_config_file", ["run", "--config", "{cfg}"], 2,
         "cannot read config file '{cfg}': [Errno 2] No such file or directory: '{cfg}'"),
    _row("config_not_utf8", ["validate", "--config", "{cfg}"], 2,
         "config file '{cfg}' is not UTF-8: undecodable byte at offset 6", cfg=b"m=8\nn=\xff\xfe4\n"),
    _row("config_not_utf8_at_start", ["validate", "--config", "{cfg}"], 2,
         "config file '{cfg}' is not UTF-8: undecodable byte at offset 0", cfg=b"\xff\xfem=8\n"),
    _row("zero_trials", ["run", *FAST, "--trials", "0"], 2, "key 'trials': 0 below minimum 1"),
    _row("zero_threads", ["run", *FAST, "--threads", "0"], 2, "key 'threads': 0 below minimum 1"),
    _row("negative_seed_flag", ["run", *FAST, "--trials", "1", "--seed", "-1", "--out", "{out}"], 2,
         "key 'master_seed': -1 below minimum 0"),
    _row("negative_seed_set",
         ["run", *FAST, "--trials", "1", "--set", "master_seed=-3", "--out", "{out}"], 2,
         "key 'master_seed': -3 below minimum 0"),
    _row("out_under_a_regular_file",
         ["run", "--trials", "2", "--set", "sweep_m=64", "--set", "sweep_n=4", "--out", "{cfg}/out"],
         2, "[Errno 20] Not a directory: '{cfg}/out'", cfg=b""),
    # a key set twice, in one file, by --set or by --set and a run flag
    _row("repeated_config_key_run", ["run", "--config", "{cfg}", "--out", "{out}"], 2,
         "{cfg}:3: key 'trials' repeated (first set on line 1)",
         cfg=b"trials = 2\nsweep_m = 16\ntrials = 3\n"),
    _row("repeated_config_key_validate", ["validate", "--config", "{cfg}"], 2,
         "{cfg}:3: key 'trials' repeated (first set on line 1)",
         cfg=b"trials = 2\nsweep_m = 16\ntrials = 3\n"),
    _row("repeated_config_key_adjacent", ["run", "--config", "{cfg}", "--out", "{out}"], 2,
         "{cfg}:2: key 'trials' repeated (first set on line 1)", cfg=b"trials = 2\ntrials = 3\n"),
    # --set after --config still overrides a key the file sets once
    _row("set_overrides_config_key", ["validate", "--config", "{cfg}", "--set", "trials=3"], 0,
         cfg=b"trials = 2\nsweep_m = 16\n"),
    # keys are lower-cased before the check, so TRIALS repeats trials
    _row("repeated_set_key_run",
         ["run", "--out", "{out}", "--set", "trials=2", "--set", "m=32", "--set", "TRIALS=3"], 2,
         "--set:3: key 'trials' repeated (first set by --set 1)"),
    _row("repeated_set_key_validate",
         ["validate", "--set", "trials=2", "--set", "m=32", "--set", "TRIALS=3"], 2,
         "--set:3: key 'trials' repeated (first set by --set 1)"),
    _row("repeated_set_key_adjacent", ["validate", "--set", "trials=2", "--set", "trials=3"], 2,
         "--set:2: key 'trials' repeated (first set by --set 1)"),
    _row("repeated_set_dimension", ["validate", "--set", "m=8", "--set", "m=64"], 2,
         "--set:2: key 'm' repeated (first set by --set 1)"),
    _row("trials_flag_clashes_with_set",
         ["run", "--set", "trials=2", "--trials", "3", "--out", "{out}"], 2,
         "--trials: key 'trials' repeated (first set by --set 1)"),
    _row("seed_flag_clashes_with_set",
         ["run", "--set", "m=32", "--set", "master_seed=4", "--seed", "4", "--out", "{out}"], 2,
         "--seed: key 'master_seed' repeated (first set by --set 2)"),
    _row("out_flag_clashes_with_set", ["run", "--set", "output_dir={out}", "--out", "{out}"], 2,
         "--out: key 'output_dir' repeated (first set by --set 1)"),
    # keys the configured scenario never reads
    _row("total_power_under_paper_literal", ["validate", "--set", "total_power=2"], 2,
         "key 'total_power': has no effect under power_mode=paper_literal"),
    _row("grid_cols_under_iid",
         ["validate", "--set", "correlation_model=iid", "--set", "grid_cols=2"], 2,
         "key 'grid_cols': has no effect under correlation_model=iid"),
    _row("spacing_under_iid_with_area",
         ["validate", "--set", "correlation_model=iid", "--set", "element_spacing=0.05",
          "--set", "element_area=0.01"], 2,
         "key 'element_spacing': has no effect under correlation_model=iid when element_area is set"),
    _row("direct_link_variance_without_direct_ues",
         ["validate", "--set", "u_d=0", "--set", "direct_link_variance=2.0"], 2,
         "key 'direct_link_variance': has no effect under u_d=0"),
    _row("total_power_under_sum_power",
         ["validate", "--set", "power_mode=sum_power_normalized", "--set", "total_power=2"], 0),
    # a number that is not finite: a config error, not a traceback or NaN rates
    _row("carrier_frequency_inf", ["validate", "--set", "carrier_frequency=inf"], 2,
         "key 'carrier_frequency': expected a finite number, got 'inf'"),
    _row("total_power_inf",
         ["validate", "--set", "power_mode=sum_power_normalized", "--set", "total_power=inf"], 2,
         "key 'total_power': expected a finite number, got 'inf'"),
    # finite numbers whose derived values overflow or underflow to 0 (the
    # wavelength, the element area, mu * A, the noise variance): a config
    # error naming the key that was set, not a traceback or a derived key
    _row("carrier_frequency_1e200", ["validate", "--set", "carrier_frequency=1e200"], 2,
         _derived("carrier_frequency", "element_area = 0.0")),
    _row("carrier_frequency_1e-300", ["validate", "--set", "carrier_frequency=1e-300"], 2,
         _derived("carrier_frequency", "element_spacing = inf")),
    _row("element_spacing_1e200", ["validate", "--set", "element_spacing=1e200"], 2,
         _derived("element_spacing", "element_area = inf")),
    _row("attenuation_4000", ["validate", "--set", "attenuation_mu_lambda2_db=4000"], 2,
         _derived("attenuation_mu_lambda2_db", "mu * element_area = inf")),
    _row("attenuation_-4000", ["validate", "--set", "attenuation_mu_lambda2_db=-4000"], 2,
         _derived("attenuation_mu_lambda2_db", "mu * element_area = 0.0")),
    _row("noise_psd_4000", ["validate", "--set", "noise_psd_dbm_hz=4000"], 2,
         _derived("noise_psd_dbm_hz", "noise variance = inf")),
    _row("noise_psd_-4000", ["validate", "--set", "noise_psd_dbm_hz=-4000"], 2,
         _derived("noise_psd_dbm_hz", "noise variance = 0.0")),
    _row("integer_key_not_an_integer", ["validate", "--set", "m=abc"], 2,
         "key 'm': expected integer, got 'abc'"),
    # the complexity command's dimension lists and ranges
    _row("range_with_four_parts", ["complexity", "--M", "8..16..4..2", "--N", "4"], 2,
         "bad range '8..16..4..2'; expected a..b or a..b..step"),
    _row("range_bounds_not_integers", ["complexity", "--M", "a..b", "--N", "4"], 2,
         "bad range 'a..b'; bounds must be integers"),
    _row("list_without_values", ["complexity", "--M", ",", "--N", "4"], 2, "bad list ','; no values"),
    _row("complexity_table",
         ["complexity", "--M", "8..16..8", "--N", "1,4", "--K", "4", "--U_b", "4", "--U_d", "2"], 0),
]


@pytest.mark.parametrize("argv, cfg_bytes, code, error", EXIT_CODES)
def test_exit_code_and_stderr(argv, cfg_bytes, code, error, tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_point", no_trial)
    # the default output_dir is relative: a row that made it would make it here
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "row.cfg"
    if cfg_bytes is not None:
        cfg.write_bytes(cfg_bytes)
    paths = {"cfg": str(cfg), "out": str(tmp_path / "o")}
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr().err == (f"config error: {error.format(**paths)}\n" if error else "")
    assert [p.name for p in tmp_path.iterdir()] == ([] if cfg_bytes is None else [cfg.name])


def test_run_flag_overrides_a_config_file_key(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep_m = 16\nsweep_n = 1\nschemes = bs_ue_zf\n"
                   "phase_rules = random\ntrials = 3\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
    assert len((out / "trials.csv").read_text().strip().split("\n")) == 2


def test_set_value_keeps_its_hash(tmp_path):
    # '#' starts a comment in a config file only
    assert main(["run", *FAST, "--trials", "1", "--set", f"output_dir={tmp_path}/a#b"]) == 0
    assert (tmp_path / "a#b" / "summary.csv").exists()


def test_unreadable_config_and_uncreatable_output_dir_name_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["validate", "--config", str(missing)]) == 2
    assert f"config error: cannot read config file {str(missing)!r}" in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "a" / "o"  # makedirs stops at the missing parent
    assert main(["run", *FAST, "--trials", "1", "--out", str(out)]) == 2
    assert f"Not a directory: {str(out)!r}" in capsys.readouterr().err


def test_write_failure_after_the_sweep_is_not_a_config_error(tmp_path, monkeypatch):
    def failing_emit(summary, output_dir):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_outputs", failing_emit)
    with pytest.raises(OSError, match="No space left"):
        main(["run", *FAST, "--trials", "1", "--out", str(tmp_path / "o")])


def test_unwritable_output_dir_exits_two_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output directory was made")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", *FAST, "--trials", "1", "--out", str(blocker / "o")]) == 2
    assert "config error: [Errno 20] Not a directory" in capsys.readouterr().err


def test_validate_good_and_bad_configs(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("m = 32\nn = 4\n")
    assert main(["validate", "--config", str(good)]) == 0
    out = capsys.readouterr().out
    assert "# scheme bs_ue_zf" in out
    assert "# scheme bs_ris_zf" in out
    assert "[FAIL]" not in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("m = 4\n")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_validate_more_ues_than_elements_on_a_ris_exits_two(tmp_path, capsys):
    cfg = tmp_path / "multi.cfg"
    cfg.write_text("k = 3\nl = 2,1,3\nn = 2\nschemes = bs_ue_zf\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "[FAIL] ues_per_ris_within_n" in capsys.readouterr().out


def test_validate_takes_set_without_config(capsys):
    # like `run`, every key has a default, so --set alone is a config
    assert main(["validate", "--set", "n=4"]) == 0
    out = capsys.readouterr().out
    assert "# scheme bs_ue_zf" in out and "[FAIL]" not in out
    assert main(["validate", "--set", "k=3", "--set", "l=2,1,3", "--set", "n=2",
                 "--set", "schemes=bs_ue_zf"]) == 2
    assert "[FAIL] ues_per_ris_within_n" in capsys.readouterr().out
    assert main(["validate"]) == 0  # the all-defaults scenario


def test_validate_lists_the_points_run_would_skip(tmp_path, capsys):
    sweep = ["--set", "sweep_m=8", "--set", "sweep_n=1,4", "--set", "csi_tau=0,0.1"]
    assert main(["validate", *sweep]) == 0  # skips are not failures
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    skips = [line for line in out.splitlines() if line.startswith("skip: ")]
    # M=8 > N*K+U_d holds at N=1 only; one line per (scheme, rule, M, N)
    assert skips == [
        f"skip: bs_ris_zf/{rule} M=8 N=4 (bs_ris_zf_feasible: requires M > N*K+U_d = 18, "
        "got M=8; blocks bs_ris_zf)"
        for rule in ("optimal", "asymptotic", "random")
    ]
    # the points and notes `run` reports, once per tau
    assert main(["run", *sweep, "--trials", "1", "--out", str(tmp_path / "o")]) == 0
    skipped = [re.sub(r"^skipped: (.*) tau=\S+ ", r"skip: \1 ", line)
               for line in capsys.readouterr().out.splitlines() if line.startswith("skipped: ")]
    assert skipped == [line for line in skips for _ in range(2)]
    # the default grid skips points too, and still fails no check
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "skip: bs_ue_zf/" in out or "skip: bs_ris_zf/" in out
    assert "[FAIL]" not in out


def test_complexity_table_matches_library(capsys):
    assert main(["complexity", "--M", "8..24..8", "--N", "1,4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "M,N,count_bs_ue_zf,count_bs_ris_zf"
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        M, N, ue, ris = (int(v) for v in line.split(","))
        assert (ue, ris) == complexity_counts(M, N, 4, 4, 2)


def test_complexity_range_validation(capsys):
    assert main(["complexity", "--M", "8..4", "--N", "1"]) == 2
    assert main(["complexity", "--M", "abc", "--N", "1"]) == 2
    assert main(["complexity", "--M", "8..16..0", "--N", "1"]) == 2
    capsys.readouterr()
    # non-positive dimensions are config errors raised before the header
    for argv, flag in (
        (["--M", "0..2", "--N", "1"], "--M"),
        (["--M", "-3", "--N", "1"], "--M"),
        (["--M", "8", "--N", "0"], "--N"),
        (["--M", "8", "--N", "1", "--K", "0"], "--K"),
        (["--M", "8", "--N", "1", "--U_b", "0"], "--U_b"),
        (["--M", "8", "--N", "1", "--U_d", "-1"], "--U_d"),
        # fewer blocked UEs than RISs, which SystemConfig rejects too
        (["--M", "8", "--N", "1", "--K", "4", "--U_b", "1"], "--U_b"),
    ):
        assert main(["complexity", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err
    # U_d = 0 and U_b = K are valid dimensions
    for argv in (["--U_d", "0"], ["--K", "3", "--U_b", "3"]):
        assert main(["complexity", "--M", "8", "--N", "1", *argv]) == 0
        assert capsys.readouterr().out.startswith("M,N,")


def test_module_entry_point_runs_as_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "riszf.cli", "complexity", "--M", "8..16..8", "--N", "1,4",
         "--K", "4", "--U_b", "4", "--U_d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "M,N,count_bs_ue_zf,count_bs_ris_zf" and len(lines) == 1 + 2 * 2


def test_closed_pipe_exits_one_without_a_traceback():
    # a reader that stopped early: the read end is closed before any write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "riszf.cli", "validate"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
