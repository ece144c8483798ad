"""Config loading, defaults, derived constants, and validation checks."""

import math

import pytest

from riszf.sysconfig import (
    BS_RIS_ZF,
    BS_UE_ZF,
    SPEED_OF_LIGHT,
    ConfigError,
    build_configs,
    default_configs,
    load_config,
    parse_kv_text,
    psd_dbm_hz_to_variance,
    serialize_configs,
    validate_config,
)

# Independently derived reference values for the default scenario.
WAVELENGTH_1P8GHZ = 299_792_458.0 / 1.8e9          # 0.16655... m
MU_DEFAULT = 10.0 ** (-7.5) / WAVELENGTH_1P8GHZ**2  # from mu*lambda^2 = -75 dB
NOISE_DEFAULT_W = 10.0 ** (-13.4)                   # -174 dBm/Hz over 10 MHz, in W


def test_defaults_match_reference_scenario():
    cfg, ch, run = default_configs()
    assert (cfg.M, cfg.N, cfg.K, cfg.U_d) == (64, 4, 4, 2)
    assert cfg.L == (1, 1, 1, 1)
    assert cfg.U_b == 4
    assert cfg.power_mode == "paper_literal"
    assert cfg.total_power == 1.0
    assert ch.correlation_model == "sinc"
    assert run.trials == 500
    assert run.sweep_M == (8, 16, 32, 64, 128, 256)


def test_derived_wavelength_and_attenuation():
    _, ch, _ = default_configs()
    assert ch.wavelength == pytest.approx(WAVELENGTH_1P8GHZ, rel=0, abs=0)
    assert ch.mu == pytest.approx(MU_DEFAULT, rel=1e-15)
    # default spacing is a quarter wavelength, area is spacing squared
    assert ch.element_spacing == pytest.approx(WAVELENGTH_1P8GHZ / 4, rel=1e-15)
    assert ch.area == pytest.approx((WAVELENGTH_1P8GHZ / 4) ** 2, rel=1e-15)
    assert ch.ris_element_scale == pytest.approx(MU_DEFAULT * ch.area, rel=1e-15)
    # the RIS-UE link variance defaults to the same per-element scale
    assert ch.ris_ue_variance == pytest.approx(ch.ris_element_scale, rel=0)


def test_default_noise_from_psd():
    cfg, _, _ = default_configs()
    assert len(cfg.noise_variance_blocked) == cfg.U_b
    assert len(cfg.noise_variance_direct) == cfg.U_d
    for v in cfg.noise_variance_blocked + cfg.noise_variance_direct:
        assert v == pytest.approx(NOISE_DEFAULT_W, rel=1e-12)
    assert psd_dbm_hz_to_variance(-174.0, 1.0e7) == pytest.approx(
        3.981071705534985e-14, rel=1e-12
    )


def test_blocked_index_flattening():
    cfg, _, _ = build_configs({"k": "3", "l": "2,1,3", "m": "32"})
    assert cfg.U_b == 6
    assert cfg.blocked_index(0, 0) == 0
    assert cfg.blocked_index(0, 1) == 1
    assert cfg.blocked_index(1, 0) == 2
    assert cfg.blocked_index(2, 2) == 5


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_kv_text("bogus_key=1")
    with pytest.raises(ConfigError, match="cfg.txt:2"):
        parse_kv_text("m=8\nnot a kv line", source="cfg.txt")
    # comments and blank lines are fine
    kv = parse_kv_text("# header\n\nm = 8  # antennas\n")
    assert kv == {"m": "8"}


def test_range_errors():
    with pytest.raises(ConfigError, match="'m'"):
        build_configs({"m": "0"})
    with pytest.raises(ConfigError, match="'l'"):
        build_configs({"k": "2", "l": "1,1,1"})
    with pytest.raises(ConfigError, match="'master_seed': -1 below minimum 0"):
        build_configs({"master_seed": "-1"})
    with pytest.raises(ConfigError, match="power_mode"):
        build_configs({"power_mode": "both"})
    with pytest.raises(ConfigError, match="csi_tau"):
        build_configs({"csi_tau": "0.0,1.5"})


def test_removed_estimation_error_fraction_is_unknown():
    # csi_tau is the CSI-error knob; the old key is rejected, not ignored
    with pytest.raises(ConfigError, match="unknown key 'estimation_error_fraction'"):
        build_configs({"estimation_error_fraction": "0.5"})
    with pytest.raises(ConfigError, match="unknown key 'estimation_error_fraction'"):
        parse_kv_text("estimation_error_fraction = 0.5")


def test_symbolic_spacing_tokens():
    _, ch, _ = build_configs({"element_spacing": "lambda"})
    assert ch.element_spacing == pytest.approx(WAVELENGTH_1P8GHZ, rel=1e-15)
    _, ch2, _ = build_configs({"element_spacing": "lambda/2"})
    assert ch2.element_spacing == pytest.approx(WAVELENGTH_1P8GHZ / 2, rel=1e-15)
    _, ch3, _ = build_configs({"element_spacing": "0.05"})
    assert ch3.element_spacing == 0.05


def test_scalar_noise_broadcast():
    cfg, _, _ = build_configs(
        {"noise_variance_blocked": "1e-13", "noise_variance_direct": "2e-13"}
    )
    assert cfg.noise_variance_blocked == (1e-13,) * 4
    assert cfg.noise_variance_direct == (2e-13,) * 2


def test_repeated_sweep_values_keep_first_occurrence():
    cfg, _, run = build_configs({
        "sweep_m": "64,16,64,16", "sweep_n": "4,1,4", "csi_tau": "0.1,0,0.10",
        "schemes": "bs_ue_zf,bs_ue_zf", "phase_rules": "random,optimal,random",
        "k": "3", "l": "2,2,1", "noise_variance_direct": "1e-13,1e-13",
    })
    assert run.sweep_M == (64, 16)
    assert run.sweep_N == (4, 1)
    assert run.csi_tau == (0.1, 0.0)
    assert run.schemes == ("bs_ue_zf",)
    assert run.phase_rules == ("random", "optimal")
    # per-UE lists are not sweep axes: their repeats are values
    assert cfg.L == (2, 2, 1)
    assert cfg.noise_variance_direct == (1e-13, 1e-13)


def test_roundtrip_identical(tmp_path):
    custom = {
        "m": "48",
        "n": "8",
        "k": "2",
        "l": "1,2",
        "u_d": "3",
        "element_spacing": "lambda/4",
        "csi_tau": "0.0,0.1",
        "power_mode": "sum_power_normalized",
        "master_seed": "7",
    }
    # no direct UEs: an empty variance list must round-trip too
    for kv in (custom, {"u_d": "0"}):
        cfg, ch, run = build_configs(kv)
        path = tmp_path / "cfg.txt"
        path.write_text(serialize_configs(cfg, ch, run))
        cfg2, ch2, run2 = load_config(str(path))
        assert cfg2 == cfg
        assert ch2 == ch
        assert run2 == run
    assert cfg2.noise_variance_direct == ()


def test_validate_default_passes_both_schemes():
    cfg, ch, _ = default_configs()
    for scheme in (BS_UE_ZF, BS_RIS_ZF):
        report = validate_config(cfg, ch, scheme)
        assert report.ok, str(report)


def test_validate_flags_infeasible_bs_ue_zf():
    cfg, ch, _ = build_configs({"m": "4", "k": "4", "u_d": "2"})
    report = validate_config(cfg, ch, BS_UE_ZF)
    assert not report.ok
    names = [c.name for c in report.failures]
    assert names == ["bs_ue_zf_feasible"]
    assert "M >= U_b+U_d = 6" in report.failures[0].detail
    assert BS_UE_ZF in report.failures[0].detail


def test_validate_flags_infeasible_bs_ris_zf():
    # M = N*K + U_d exactly is still infeasible: the bound is strict
    cfg, ch, _ = build_configs({"m": "18", "n": "4", "k": "4", "u_d": "2"})
    report = validate_config(cfg, ch, BS_RIS_ZF)
    assert not report.ok
    assert [c.name for c in report.failures] == ["bs_ris_zf_feasible"]
    assert validate_config(cfg, ch, BS_UE_ZF).ok


def test_validate_flags_multi_ue_ris_for_bs_ris_zf():
    cfg, ch, _ = build_configs({"m": "64", "k": "2", "l": "2,1", "u_d": "0"})
    report = validate_config(cfg, ch, BS_RIS_ZF)
    assert "single_ue_per_ris" in [c.name for c in report.failures]


def test_validate_flags_more_ues_than_elements_on_a_ris_for_bs_ue_zf():
    # RIS k's cascaded rows span at most N dimensions, so L_k <= N
    kv = {"m": "64", "k": "3", "l": "2,1,3", "schemes": "bs_ue_zf"}
    cfg, ch, _ = build_configs({**kv, "n": "2"})
    report = validate_config(cfg, ch, BS_UE_ZF)
    assert [c.name for c in report.failures] == ["ues_per_ris_within_n"]
    assert "L_k <= N = 2" in report.failures[0].detail
    assert BS_UE_ZF in report.failures[0].detail
    for n in ("3", "4"):  # L_k = N is still feasible
        cfg, ch, _ = build_configs({**kv, "n": n})
        assert validate_config(cfg, ch, BS_UE_ZF).ok


def test_validate_report_renders_pass_fail_lines():
    cfg, ch, _ = default_configs()
    text = str(validate_config(cfg, ch, BS_UE_ZF))
    assert "[PASS]" in text
    assert "dimensions" in text


def test_grid_cols_must_divide_n():
    cfg, ch, _ = build_configs({"n": "6", "grid_cols": "4", "m": "64"})
    report = validate_config(cfg, ch, BS_UE_ZF)
    assert "element_geometry" in [c.name for c in report.failures]
