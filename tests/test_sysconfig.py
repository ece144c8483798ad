"""Config loading, defaults, derived constants, and validation checks."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from riszf.sysconfig import (
    BS_RIS_ZF,
    BS_UE_ZF,
    SPEED_OF_LIGHT,
    ConfigError,
    build_configs,
    default_configs,
    parse_kv_text,
    parse_set_items,
    psd_dbm_hz_to_variance,
    read_config,
    validate_config,
    with_dimensions,
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
    assert ch.element_area == pytest.approx((WAVELENGTH_1P8GHZ / 4) ** 2, rel=1e-15)
    assert ch.ris_element_scale == pytest.approx(MU_DEFAULT * ch.element_area, rel=1e-15)
    # the RIS-UE link variance defaults to the same per-element scale
    assert ch.ris_ue_link_variance == pytest.approx(ch.ris_element_scale, rel=0)


def test_symbolic_channel_defaults_resolve_to_floats():
    # "spacing_squared" and "mu_a" resolve at build, bit for bit
    for kv in ({}, {"element_spacing": "0.05", "attenuation_mu_lambda2_db": "-60"}):
        _, ch, _ = build_configs(kv)
        spacing = ch.element_spacing
        assert type(ch.element_area) is float
        assert type(ch.ris_ue_link_variance) is float
        assert ch.element_area == spacing**2
        assert ch.ris_ue_link_variance == ch.mu * spacing**2
        assert ch.ris_element_scale == ch.mu * spacing**2
    # an explicit value is kept, not replaced by mu * A
    _, ch, _ = build_configs({"element_area": "0.01", "ris_ue_link_variance": "2.5"})
    assert (ch.element_area, ch.ris_ue_link_variance) == (0.01, 2.5)
    assert ch.ris_element_scale == ch.mu * 0.01


@pytest.mark.parametrize("L", [(1, 1, 1, 1), (2, 1, 3)])
def test_ue_layout_arrays_are_read_only_config_properties(L):
    cfg, _, _ = build_configs({"k": str(len(L)), "l": ",".join(map(str, L)), "m": "64"})
    counts = np.array(L)
    np.testing.assert_array_equal(cfg.ris_of_blocked_ue, np.repeat(np.arange(len(L)), L))
    np.testing.assert_array_equal(cfg.first_blocked, np.cumsum(counts) - counts)
    np.testing.assert_array_equal(
        cfg.noise_variances, cfg.noise_variance_blocked + cfg.noise_variance_direct
    )
    assert cfg.noise_variances.shape == (cfg.U_b + cfg.U_d,)
    for a in (cfg.ris_of_blocked_ue, cfg.first_blocked, cfg.noise_variances):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # computed once per config
    assert cfg.first_blocked is cfg.first_blocked
    for k in range(len(L)):
        assert cfg.blocked_index(k, 0) == sum(L[:k])


@pytest.mark.parametrize("L", [(1, 1, 1, 1), (2, 1, 3)])
def test_gathers_index_as_the_layout_arrays(L):
    cfg, _, _ = build_configs({"k": str(len(L)), "l": ",".join(map(str, L)), "m": "64"})
    ris, first, ues = cfg.gathers
    assert cfg.gathers is cfg.gathers  # computed once per config
    np.testing.assert_array_equal(ues, np.arange(cfg.U_b))
    assert not ues.flags.writeable
    a = np.arange(2 * cfg.U_b * 3).reshape(2 * cfg.U_b, 3)
    # slice(None) where the gather is the identity, the layout array elsewhere
    assert isinstance(ris, slice) == isinstance(first, slice) == (L == (1, 1, 1, 1))
    np.testing.assert_array_equal(a[:cfg.K][ris], a[:cfg.K][cfg.ris_of_blocked_ue])
    np.testing.assert_array_equal(a[:cfg.U_b][first], a[:cfg.U_b][cfg.first_blocked])


def test_with_dimensions_copy_computes_its_own_arrays():
    cfg, _, _ = build_configs({"k": "3", "l": "2,1,3", "m": "32"})
    arrays = (cfg.ris_of_blocked_ue, cfg.first_blocked, cfg.noise_variances)
    copy = with_dimensions(cfg, 64, 8)
    assert (copy.M, copy.N) == (64, 8)
    for name, a in zip(("ris_of_blocked_ue", "first_blocked", "noise_variances"), arrays):
        b = getattr(copy, name)
        assert b is not a
        np.testing.assert_array_equal(b, a)
        assert not b.flags.writeable


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


def test_parse_rejects_a_repeated_key():
    # the later line would silently override the earlier one
    text = "# sweep\ntrials=2\nm = 8\nTRIALS = 3\n"
    repeated = r"cfg.txt:4: key 'trials' repeated \(first set on line 2\)"
    with pytest.raises(ConfigError, match=repeated):
        parse_kv_text(text, source="cfg.txt")
    # a repeated value within one line is not a repeated key
    assert parse_kv_text("sweep_m=16,16\nm=8") == {"sweep_m": "16,16", "m": "8"}


def test_set_items_pass_the_file_checks():
    assert parse_set_items(["M = 8", "output_dir=a#b"]) == {"m": "8", "output_dir": "a#b"}
    assert parse_set_items([]) == {}
    for items, error in (
        (["trials=2", "m=8", "TRIALS=3"], r"--set:3: key 'trials' repeated \(first set by --set 1\)"),
        (["m=8", "bogus_key=1"], "--set:2: unknown key 'bogus_key'"),
        (["m=8", " =1"], "--set:2: empty key"),
        ([""], "--set:1: expected key=value, got ''"),
        (["# m=8"], "--set:1: unknown key '# m'"),
    ):
        with pytest.raises(ConfigError, match=error):
            parse_set_items(items)
    # in a file, '#' starts a comment
    assert parse_kv_text("output_dir=a#b") == {"output_dir": "a"}


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
    for key in ("sweep_m", "csi_tau", "schemes"):  # int, float and choice lists
        with pytest.raises(ConfigError, match=f"'{key}': empty list"):
            build_configs({key: " , "})


# (config: 0 system, 1 channel model, 2 run; field; bad value; error)
BAD_FIELDS = [
    (0, "M", 0, "'m': 0 below minimum 1"),
    (0, "N", -2, "'n': -2 below minimum 1"),
    (0, "K", 0, "'k': 0 below minimum 1"),
    (0, "L", (1, 0, 1, 1), "'l': 0 below minimum 1"),
    (0, "L", (1, 1, 1), "'l': expected 4 entries, got 3"),
    (0, "U_d", -1, "'u_d': -1 below minimum 0"),
    (0, "noise_variance_blocked", (1e-13,) * 3, "'noise_variance_blocked': expected 4 entries, got 3"),
    (0, "noise_variance_direct", (1e-13,), "'noise_variance_direct': expected 2 entries, got 1"),
    (0, "noise_variance_direct", (1e-13, 0.0), "'noise_variance_direct': must be positive, got 0.0"),
    (0, "noise_variance_blocked", (1e-13, math.inf, 1e-13, 1e-13),
     "'noise_variance_blocked': gives noise_variance_blocked = inf, which must be positive"),
    (0, "total_power", -1.0, "'total_power': must be positive, got -1.0"),
    (0, "total_power", math.inf, "'total_power': gives total_power = inf, which must be positive"),
    (0, "power_mode", "both", "'power_mode': 'both' not in"),
    (1, "carrier_frequency", 0.0, "'carrier_frequency': must be positive"),
    (1, "element_spacing", -0.01, "'element_spacing': must be positive"),
    (1, "element_area", 0.0, "'element_area': must be positive"),
    (1, "element_area", math.inf, "'element_area': gives element_area = inf"),
    # mu * A, which the BS-RIS links carry, overflows or underflows to 0
    (1, "attenuation_mu_lambda2_db", 4000.0,
     r"'attenuation_mu_lambda2_db': gives mu \* element_area = inf, which must be positive"),
    (1, "attenuation_mu_lambda2_db", -4000.0,
     r"'attenuation_mu_lambda2_db': gives mu \* element_area = 0.0, which must be positive"),
    (1, "grid_cols", 0, "'grid_cols': 0 below minimum 1"),
    (1, "direct_link_variance", math.nan, "'direct_link_variance': must be positive, got nan"),
    (1, "ris_ue_link_variance", 0.0, "'ris_ue_link_variance': must be positive"),
    (1, "correlation_model", "gauss", "'correlation_model': 'gauss' not in"),
    (2, "sweep_M", (8, 0), "'sweep_m': 0 below minimum 1"),
    (2, "sweep_N", (0,), "'sweep_n': 0 below minimum 1"),
    (2, "schemes", ("bs_ue_zf", "zf"), "'schemes': 'zf' not in"),
    (2, "phase_rules", ("best",), "'phase_rules': 'best' not in"),
    (2, "trials", 0, "'trials': 0 below minimum 1"),
    (2, "master_seed", -1, "'master_seed': -1 below minimum 0"),
    (2, "threads", 0, "'threads': 0 below minimum 1"),
    (2, "csi_tau", (0.0, 1.5), r"'csi_tau': 1.5 outside \[0, 1\)"),
    (2, "csi_tau", (-0.1,), r"'csi_tau': -0.1 outside \[0, 1\)"),
]


@pytest.mark.parametrize("which, field, value, error", BAD_FIELDS,
                         ids=[f"{f}={v}" for _, f, v, _ in BAD_FIELDS])
def test_config_types_reject_a_bad_field_when_built(which, field, value, error):
    good = default_configs()[which]
    # `replace` builds a new instance through the type's constructor
    with pytest.raises(ConfigError, match=error):
        replace(good, **{field: value})


def test_with_dimensions_rejects_a_bad_dimension():
    cfg, _, _ = default_configs()
    with pytest.raises(ConfigError, match="'m': 0 below minimum 1"):
        with_dimensions(cfg, 0, 4)
    with pytest.raises(ConfigError, match="'n': 0 below minimum 1"):
        with_dimensions(cfg, 8, 0)


def test_total_power_has_no_effect_under_paper_literal():
    for kv in ({"total_power": "10"}, {"power_mode": "paper_literal", "total_power": "1.0"}):
        with pytest.raises(ConfigError,
                           match="key 'total_power': has no effect under power_mode=paper_literal"):
            build_configs(kv)
    normalized = {"power_mode": "sum_power_normalized", "total_power": "10"}
    assert build_configs(normalized)[0].total_power == 10.0


def test_geometry_keys_the_iid_model_never_reads():
    iid = {"correlation_model": "iid"}
    for cols in ("1", "2"):
        with pytest.raises(ConfigError,
                           match="key 'grid_cols': has no effect under correlation_model=iid"):
            build_configs({**iid, "grid_cols": cols})
    with pytest.raises(ConfigError, match="key 'element_spacing': has no effect under "
                                          "correlation_model=iid when element_area is set"):
        build_configs({**iid, "element_spacing": "0.05", "element_area": "0.01"})
    # an auto grid, or a spacing that sets the element area, is read
    for kv in ({}, {"grid_cols": "auto"}, {"element_spacing": "0.05"}, {"element_area": "0.01"}):
        build_configs({**iid, **kv})
    # the sinc model reads all three
    _, ch, _ = build_configs({"grid_cols": "2", "element_spacing": "0.05", "element_area": "0.01"})
    assert (ch.grid_cols, ch.element_spacing, ch.element_area) == (2, 0.05, 0.01)


# every key whose value is read as a float, in the forms it is read in
FLOAT_VALUES = [(key, "{}") for key in (
    "total_power", "bandwidth", "noise_psd_dbm_hz", "noise_variance_blocked",
    "noise_variance_direct", "carrier_frequency", "element_spacing", "element_area",
    "attenuation_mu_lambda2_db", "direct_link_variance", "ris_ue_link_variance", "csi_tau",
)] + [("element_spacing", "lambda/{}"), ("noise_variance_direct", "1e-13,{}"), ("csi_tau", "0.0,{}")]


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "x"])
@pytest.mark.parametrize("key, form", FLOAT_VALUES, ids=[f.format(k) for k, f in FLOAT_VALUES])
def test_float_keys_reject_what_is_not_a_finite_number(key, form, text):
    # a non-finite value would divide by zero or reach the outputs as NaN
    kv = {key: form.format(text), "power_mode": "sum_power_normalized"}
    with pytest.raises(ConfigError, match=f"key '{key}': expected a finite number, got '{text}'$"):
        build_configs(kv)


DERIVED_OUT_OF_RANGE = [
    ({"element_spacing": "lambda/1e-310", "element_area": "0.01"}, "element_spacing",
     "element_spacing = inf"),
    ({"carrier_frequency": "1e200", "element_spacing": "0.05"}, "carrier_frequency",
     "mu * element_area = inf"),
    ({"carrier_frequency": "1e-300", "element_area": "0.01"}, "carrier_frequency",
     "element_spacing = inf"),
    ({"ris_ue_link_variance": "1.0", "attenuation_mu_lambda2_db": "-4000"},
     "attenuation_mu_lambda2_db", "mu * element_area = 0.0"),
    ({"element_area": "1e300", "attenuation_mu_lambda2_db": "100"}, "attenuation_mu_lambda2_db",
     "mu * element_area = inf"),
]


@pytest.mark.parametrize("kv, key, derived", DERIVED_OUT_OF_RANGE,
                         ids=[",".join(kv) for kv, _, _ in DERIVED_OUT_OF_RANGE])
def test_derived_value_out_of_range_names_a_key_it_comes_from(kv, key, derived):
    # mu * A is checked with an explicit ris_ue_link_variance too: it
    # still scales the BS-RIS links
    with pytest.raises(ConfigError, match=re.escape(
            f"key '{key}': gives {derived}, which must be positive and finite")):
        build_configs(kv)


def test_zero_carrier_is_rejected_as_not_positive():
    # its NaN wavelength passes the derived-value checks to reach this message
    with pytest.raises(ConfigError, match="key 'carrier_frequency': must be positive, got 0.0"):
        build_configs({"carrier_frequency": "0"})


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


@pytest.mark.parametrize("key, count_keys", [
    ("noise_variance_blocked", {"k": "2", "l": "1,2"}),  # U_b = 3
    ("noise_variance_direct", {"u_d": "3"}),
])
def test_noise_lists_share_one_rule(key, count_keys):
    # one value broadcasts, a full list is kept, any other length is an error
    cfg, _, _ = build_configs({**count_keys, key: "1e-13"})
    assert getattr(cfg, key) == (1e-13,) * 3
    cfg, _, _ = build_configs({**count_keys, key: "1e-13,2e-13,3e-13"})
    assert getattr(cfg, key) == (1e-13, 2e-13, 3e-13)
    with pytest.raises(ConfigError, match=f"key '{key}': expected 3 entries, got 2"):
        build_configs({**count_keys, key: "1e-13,2e-13"})
    with pytest.raises(ConfigError, match=f"key '{key}': must be positive, got 0.0"):
        build_configs({**count_keys, key: "0"})


def test_single_count_noise_lists():
    # one UE: a single value is the list; no direct UEs: any value is too many
    cfg, _, _ = build_configs({"k": "1", "u_d": "1", "noise_variance_blocked": "1e-13",
                               "noise_variance_direct": "2e-13"})
    assert (cfg.noise_variance_blocked, cfg.noise_variance_direct) == ((1e-13,), (2e-13,))
    with pytest.raises(ConfigError, match="'noise_variance_direct': expected 0 entries, got 1"):
        build_configs({"u_d": "0", "noise_variance_direct": "1e-13"})
    with pytest.raises(ConfigError, match="'noise_variance_blocked': expected 1 entries, got 2"):
        build_configs({"k": "1", "noise_variance_blocked": "1e-13,1e-13"})


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
        "bandwidth": "2e7",
    }
    cfg, _, _ = build_configs(custom)
    assert cfg.noise_variance_direct[0] == pytest.approx(2 * NOISE_DEFAULT_W, rel=1e-12)
    # keys written by hand into a config file load as the same keys built
    # directly; with no direct UEs the direct noise variances are empty
    path = tmp_path / "cfg.txt"
    for kv in (custom, {"u_d": "0"}):
        path.write_text("# by hand\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()))
        configs = build_configs(read_config(str(path)))
        assert configs == build_configs(kv)
    assert configs[0].noise_variance_direct == ()


def test_noise_keys_without_effect_are_rejected():
    given = {"noise_variance_blocked": "1e-13", "noise_variance_direct": "2e-13"}
    for kv in (given, {"noise_variance_blocked": "1e-13", "u_d": "0"}):
        for key, value in (("bandwidth", "2e7"), ("noise_psd_dbm_hz", "-170")):
            with pytest.raises(ConfigError, match=f"key '{key}': has no effect"):
                build_configs({**kv, key: value})
    # a direct UE left to the PSD default still reads both keys
    cfg, _, _ = build_configs({"noise_variance_blocked": "1e-13", "bandwidth": "2e7"})
    assert cfg.noise_variance_direct == pytest.approx((2 * NOISE_DEFAULT_W,) * 2, rel=1e-12)


def test_validate_default_passes_both_schemes():
    cfg, ch, _ = default_configs()
    checks = {BS_UE_ZF: ["bs_ue_zf_feasible", "ues_per_ris_within_n", "element_geometry"],
              BS_RIS_ZF: ["bs_ris_zf_feasible", "single_ue_per_ris", "element_geometry"]}
    for scheme, names in checks.items():
        report = validate_config(cfg, ch, scheme)
        assert report.ok, str(report)
        assert [c.name for c in report.checks] == names


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
    assert "bs_ue_zf_feasible" in text


def test_grid_cols_must_divide_n():
    cfg, ch, _ = build_configs({"n": "6", "grid_cols": "4", "m": "64"})
    report = validate_config(cfg, ch, BS_UE_ZF)
    assert "element_geometry" in [c.name for c in report.failures]
