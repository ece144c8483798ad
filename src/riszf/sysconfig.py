"""Experiment configuration: scenario constants, validation, and the flat
key=value config-file format.

Every scenario constant (antenna/element/user counts, powers, noise,
channel-model parameters) lives in one of the three config dataclasses
defined here, and each checks its own fields when built. Their defaults
live only in `_KEY_DEFAULTS`: build the default scenario with
`build_configs({})`. Configs are immutable after load and safe to share
across parallel workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

BS_UE_ZF = "bs_ue_zf"
BS_RIS_ZF = "bs_ris_zf"
SCHEMES = (BS_UE_ZF, BS_RIS_ZF)

POWER_MODES = ("paper_literal", "sum_power_normalized")
PHASE_RULES = ("optimal", "asymptotic", "random")
CORRELATION_MODELS = ("sinc", "iid")


class ConfigError(ValueError):
    """Raised on config-file parse errors, unknown keys, or range
    violations; a range check keeps the field or derived value it
    rejects (`key`) and the `value`."""

    def __init__(self, message: str, key: str | None = None, value: float = math.nan):
        super().__init__(message)
        self.key, self.value = key, value


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: the form every cached array is shared in."""
    a.flags.writeable = False
    return a


# Field rules of the config types; each error names the field's config
# key, which is the field name lower-cased, except that M and N name the
# sweep keys every grid point takes them from.

def _check_minimum(key: str, values: Iterable[int], minimum: int) -> None:
    for v in values:
        if v < minimum:
            raise ConfigError(f"key {key!r}: {v} below minimum {minimum}")


def _check_derived(what: str, v: float, key: str) -> None:
    """A config error naming `key` when `what` overflowed to inf or underflowed to 0."""
    if v == 0.0 or math.isinf(v):
        raise ConfigError(f"key {key!r}: gives {what} = {v}, which must be positive and finite", what, v)


def _check_positive(key: str, v: float) -> None:
    if not v > 0:
        raise ConfigError(f"key {key!r}: must be positive, got {v}", key, v)
    _check_derived(key, v, key)


def _evaluated(f) -> float:
    """f(), or inf where it overflows or divides by 0."""
    try:
        return f()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _check_choices(key: str, values: Iterable[str], choices: Sequence[str]) -> None:
    for v in values:
        if v not in choices:
            raise ConfigError(f"key {key!r}: {v!r} not in {tuple(choices)}")


def _check_count(key: str, values: Sequence, count: int) -> None:
    if len(values) != count:
        raise ConfigError(f"key {key!r}: expected {count} entries, got {len(values)}")


def attenuation_mu(mu_lambda2_db: float, wavelength: float) -> float:
    """Average intensity attenuation mu, recovered from mu*lambda^2 in dB."""
    return 10.0 ** (mu_lambda2_db / 10.0) / wavelength**2


@dataclass(frozen=True)
class SystemConfig:
    """Scenario dimensions, powers, and noise levels.

    Attributes
    ----------
    M : BS antenna count.
    N : elements per RIS.
    K : number of RISs.
    L : blocked UEs served by each RIS (length K).
    U_d : number of direct UEs.
    noise_variance_blocked : per-blocked-UE noise variance in W (length U_b,
        RIS-major order).
    noise_variance_direct : per-direct-UE noise variance in W (length U_d).
    total_power : transmit power budget P in W; only used when
        ``power_mode == "sum_power_normalized"``.
    power_mode : "paper_literal" (precoder used as built, unit gain pinned at
        the receivers) or "sum_power_normalized" (precoder rescaled to meet
        ``total_power``).
    """

    M: int
    N: int
    K: int
    L: tuple[int, ...]
    U_d: int
    noise_variance_blocked: tuple[float, ...]
    noise_variance_direct: tuple[float, ...]
    total_power: float
    power_mode: str

    def __post_init__(self) -> None:
        for key, values, minimum in (("sweep_m", (self.M,), 1), ("sweep_n", (self.N,), 1),
                                     ("k", (self.K,), 1), ("l", self.L, 1), ("u_d", (self.U_d,), 0)):
            _check_minimum(key, values, minimum)
        _check_count("l", self.L, self.K)
        _check_count("noise_variance_blocked", self.noise_variance_blocked, self.U_b)
        _check_count("noise_variance_direct", self.noise_variance_direct, self.U_d)
        for key in ("noise_variance_blocked", "noise_variance_direct"):
            for v in getattr(self, key):
                _check_positive(key, v)
        _check_positive("total_power", self.total_power)
        _check_choices("power_mode", (self.power_mode,), POWER_MODES)

    @cached_property
    def U_b(self) -> int:
        return sum(self.L)

    @cached_property
    def ris_of_blocked_ue(self) -> np.ndarray:
        """(U_b,) index of the RIS serving each blocked UE in RIS-major
        order: k repeated L[k] times. Read-only."""
        return read_only(np.repeat(np.arange(self.K), self.L))

    @cached_property
    def first_blocked(self) -> np.ndarray:
        """(K,) flat index of each RIS's first blocked UE: the exclusive
        cumulative sum of L. Read-only."""
        counts = np.array(self.L)
        return read_only(np.cumsum(counts) - counts)

    @cached_property
    def gathers(self) -> tuple:
        """(`ris_of_blocked_ue`, `first_blocked`, arange(U_b)) as indices, the
        first two slice(None), the identity, when every RIS serves one UE."""
        ris_first = (slice(None),) * 2 if self.U_b == self.K else (self.ris_of_blocked_ue, self.first_blocked)
        return *ris_first, read_only(np.arange(self.U_b))

    @cached_property
    def noise_variances(self) -> np.ndarray:
        """(U_b + U_d,) every UE's noise variance in UE row order (blocked,
        then direct). Read-only."""
        return read_only(np.concatenate([self.noise_variance_blocked, self.noise_variance_direct]))

    def blocked_index(self, k: int, ell: int) -> int:
        """Flat index of blocked UE (k, ell) under RIS-major, UE-minor order."""
        return int(self.first_blocked[k]) + ell


@dataclass(frozen=True)
class ChannelModelConfig:
    """Channel statistics: element geometry, attenuation, per-link variances.

    ``element_spacing`` is the minimum RIS inter-element distance in meters;
    ``grid_cols=None`` picks the largest divisor of N not above sqrt(N).
    `build_configs` resolves the keys' symbolic defaults: ``element_area``
    to element_spacing squared and ``ris_ue_link_variance`` to mu *
    element_area, the intensity attenuation the BS-RIS links carry.
    """

    carrier_frequency: float
    element_spacing: float
    element_area: float
    attenuation_mu_lambda2_db: float
    grid_cols: int | None
    direct_link_variance: float
    ris_ue_link_variance: float
    correlation_model: str

    def __post_init__(self) -> None:
        for key in ("carrier_frequency", "element_spacing", "element_area",
                    "direct_link_variance", "ris_ue_link_variance"):
            _check_positive(key, getattr(self, key))
        _check_derived("mu * element_area", _evaluated(lambda: self.ris_element_scale),
                       "attenuation_mu_lambda2_db")
        if self.grid_cols is not None:
            _check_minimum("grid_cols", (self.grid_cols,), 1)
        _check_choices("correlation_model", (self.correlation_model,), CORRELATION_MODELS)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def mu(self) -> float:
        return attenuation_mu(self.attenuation_mu_lambda2_db, self.wavelength)

    @cached_property
    def ris_element_scale(self) -> float:
        """Per-element intensity scale mu * A applied to the BS-RIS channels,
        which `__post_init__` checks is positive and finite."""
        return self.mu * self.element_area


@dataclass(frozen=True)
class RunConfig:
    """Sweep grid and Monte Carlo controls for the batch harness."""

    sweep_M: tuple[int, ...]
    sweep_N: tuple[int, ...]
    schemes: tuple[str, ...]
    phase_rules: tuple[str, ...]
    trials: int
    master_seed: int
    csi_tau: tuple[float, ...]
    output_dir: str
    threads: int

    def __post_init__(self) -> None:
        for key, values, minimum in (("sweep_m", self.sweep_M, 1), ("sweep_n", self.sweep_N, 1),
                                     ("trials", (self.trials,), 1),
                                     ("master_seed", (self.master_seed,), 0),
                                     ("threads", (self.threads,), 1)):
            _check_minimum(key, values, minimum)
        _check_choices("schemes", self.schemes, SCHEMES)
        _check_choices("phase_rules", self.phase_rules, PHASE_RULES)
        for t in self.csi_tau:
            if not 0.0 <= t < 1.0:
                raise ConfigError(f"key 'csi_tau': {t} outside [0, 1)")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_config(
    cfg: SystemConfig, ch: ChannelModelConfig, scheme: str
) -> ValidationReport:
    """Check the feasibility conditions of `scheme` and that the element
    grid fits N at one grid point; returns a report rather than raising so
    callers decide to abort. The config types check their own fields.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str, blocks: bool = False) -> None:
        blocked = f"; blocks {scheme}" if blocks and not passed else ""
        checks.append(CheckResult(name, bool(passed), detail + blocked))

    if scheme == BS_UE_ZF:
        need = cfg.U_b + cfg.U_d
        add("bs_ue_zf_feasible", cfg.M >= need, f"requires M >= U_b+U_d = {need}, got M={cfg.M}",
            blocks=True)
        # RIS k's cascaded rows h^H Phi_k H_k^H all lie in the N-dimensional
        # row space of H_k^H, so more than N of them are linearly dependent
        add("ues_per_ris_within_n", all(l <= cfg.N for l in cfg.L),
            f"requires L_k <= N = {cfg.N} for every RIS, got L={list(cfg.L)}", blocks=True)
    else:
        need = cfg.N * cfg.K + cfg.U_d
        add("bs_ris_zf_feasible", cfg.M > need, f"requires M > N*K+U_d = {need}, got M={cfg.M}",
            blocks=True)
        add("single_ue_per_ris", all(l == 1 for l in cfg.L),
            f"L={list(cfg.L)}; {BS_RIS_ZF} is defined for one UE per RIS")
    add("element_geometry", ch.grid_cols is None or cfg.N % ch.grid_cols == 0,
        f"d={ch.element_spacing} m, A={ch.element_area} m^2, grid_cols={ch.grid_cols}")
    return ValidationReport(checks=tuple(checks))


# --------------------------------------------------------------------------
# Flat key=value config file format
# --------------------------------------------------------------------------

# Every legal key with its default raw value; None means "derived elsewhere".
_KEY_DEFAULTS: dict[str, str | None] = {
    # system
    "k": "4",
    "l": None,  # defaults to one blocked UE per RIS
    "u_d": "2",
    "total_power": "1.0",
    "power_mode": "paper_literal",
    "bandwidth": "1.0e7",
    "noise_psd_dbm_hz": "-174.0",
    "noise_variance_blocked": None,  # defaults from PSD * bandwidth
    "noise_variance_direct": None,
    # channel model
    "carrier_frequency": "1.8e9",
    "element_spacing": "lambda/4",
    "element_area": "spacing_squared",
    "attenuation_mu_lambda2_db": "-75.0",
    "grid_cols": "auto",
    "direct_link_variance": "1.0",
    "ris_ue_link_variance": "mu_a",
    "correlation_model": "sinc",
    # run
    "sweep_m": "8,16,32,64,128,256",
    "sweep_n": "1,4,8",
    "schemes": ",".join(SCHEMES),
    "phase_rules": ",".join(PHASE_RULES),
    "trials": "500",
    "master_seed": "0",
    "csi_tau": "0.0",
    "output_dir": "out",
    "threads": "1",
}


def _parse_kv(items: Iterable[tuple[str, str, str]]) -> dict[str, str]:
    """Raw values of ``key=value`` items by lower-case key. Each item is
    (where, origin, text): its errors start with `where`, and a later item
    that repeats its key names it by `origin`. Each item needs `=` and a
    known key no earlier item set."""
    out: dict[str, str] = {}
    first: dict[str, str] = {}
    for where, origin, item in items:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"{where}: empty key")
        if key not in _KEY_DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{where}: key {key!r} repeated (first set {first[key]})")
        first[key] = origin
        out[key] = value.strip()
    return out


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse the flat ``key=value`` file format: one key per line, `#`
    starts a comment, blank lines are skipped, and a key set on two lines
    is a config error."""
    lines = ((n, raw.split("#", 1)[0]) for n, raw in enumerate(text.splitlines(), start=1))
    return _parse_kv((f"{source}:{n}", f"on line {n}", line) for n, line in lines if line.strip())


def parse_set_items(
    items: Sequence[str], flags: Iterable[tuple[str, str]] = ()
) -> dict[str, str]:
    """Parse ``--set`` items under the file format's rules, except that a
    value keeps any `#`, then the (flag, ``key=value``) items of `flags`;
    a key set by two of them is a config error naming both."""
    sets = ((f"--set:{n}", f"by --set {n}", item) for n, item in enumerate(items, start=1))
    named = ((flag, f"by {flag}", item) for flag, item in flags)
    return _parse_kv(itertools.chain(sets, named))


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected integer, got {value!r}") from exc


def _to_float(key: str, value: str) -> float:
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return v


def _split_list(key: str, value: str) -> list[str]:
    items = [p.strip() for p in value.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: empty list")
    return items


def _to_int_list(key: str, value: str) -> tuple[int, ...]:
    return tuple(_to_int(key, p) for p in _split_list(key, value))


def _to_float_list(key: str, value: str) -> tuple[float, ...]:
    return tuple(_to_float(key, p) for p in _split_list(key, value))


def _first_occurrences(values: Iterable) -> tuple:
    """`values` with every repeat after the first dropped, order kept."""
    return tuple(dict.fromkeys(values))


def _resolve_spacing(value: str, wavelength: float) -> float:
    """Spacing in meters, or symbolic 'lambda' / 'lambda/<divisor>'."""
    v = value.lower()
    if v == "lambda":
        return wavelength
    if v.startswith("lambda/"):
        div = _to_float("element_spacing", v.split("/", 1)[1])
        _check_positive("element_spacing", div)
        return wavelength / div
    return _to_float("element_spacing", value)


def psd_dbm_hz_to_variance(psd_dbm_hz: float, bandwidth: float) -> float:
    """Noise variance in W from a PSD in dBm/Hz over `bandwidth` Hz."""
    return 10.0 ** (psd_dbm_hz / 10.0) * 1e-3 * bandwidth


def _noise_variances(kv: dict, key: str, count: int, default: float) -> tuple[float, ...]:
    """Per-UE noise variances of `key`: its list, or one value that
    broadcasts to all `count` UEs; `default` for each when the key is
    absent. `SystemConfig` checks the count."""
    if key not in kv:
        return (default,) * count
    values = _to_float_list(key, kv[key])
    return values * count if len(values) == 1 and count > 1 else values


def _built(config_type, kv: dict, derived: dict, **fields):
    """config_type(**fields); its error on a value `derived` maps to (what, source keys) that
    overflowed or underflowed to 0 names the first source `kv` sets (else the first)."""
    try:
        return config_type(**fields)
    except ConfigError as exc:
        if exc.key in derived:
            what, sources = derived[exc.key]
            _check_derived(what, exc.value, next((k for k in sources if k in kv), sources[0]))
        raise


def _reject_unread(kv: dict, keys: Sequence[str], reason: str) -> None:
    """A config error for the first of `keys` set in `kv`, which `reason`
    says the configured scenario never reads."""
    for key in keys:
        if key in kv:
            raise ConfigError(f"key {key!r}: has no effect {reason}")


def build_configs(
    kv: dict[str, str],
) -> tuple[SystemConfig, ChannelModelConfig, RunConfig]:
    """Materialize the three config objects from raw key=value pairs,
    applying documented defaults for every omitted key. This parses and
    derives; each config type checks its own fields."""
    for key in kv:
        if key not in _KEY_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")

    def get(key: str) -> str | None:
        return kv.get(key, _KEY_DEFAULTS[key])

    carrier = _to_float("carrier_frequency", get("carrier_frequency"))
    # ChannelModelConfig rejects a carrier that is not positive; a zero one
    # has no wavelength to derive the symbolic defaults from
    wavelength = SPEED_OF_LIGHT / carrier if carrier else math.nan
    spacing = _resolve_spacing(get("element_spacing"), wavelength)
    area_raw = get("element_area")
    area = (_evaluated(lambda: spacing**2) if area_raw == "spacing_squared"
            else _to_float("element_area", area_raw))
    mu_db = _to_float("attenuation_mu_lambda2_db", get("attenuation_mu_lambda2_db"))
    ris_var_raw = get("ris_ue_link_variance")
    # (what, source keys) of each value derived here, by the field or
    # value a config type checks it as
    spacing_keys = ("element_spacing", "carrier_frequency")
    mu_a = ("mu * element_area",
            ("attenuation_mu_lambda2_db", "carrier_frequency", "element_area", "element_spacing"))
    derived = {"element_spacing": ("element_spacing", spacing_keys), "mu * element_area": mu_a}
    if area_raw == "spacing_squared":
        derived["element_area"] = ("element_area", spacing_keys)
    if ris_var_raw == "mu_a":  # mu * A, the per-element scale the BS-RIS links carry
        derived["ris_ue_link_variance"] = mu_a
    grid_raw = get("grid_cols")
    if get("correlation_model") == "iid":
        # the identity correlation reads no element positions, so the
        # spacing is read only to set a default element area
        if grid_raw != "auto":
            raise ConfigError("key 'grid_cols': has no effect under correlation_model=iid")
        if "element_area" in kv:
            _reject_unread(kv, ("element_spacing",),
                           "under correlation_model=iid when element_area is set")
    ch = _built(
        ChannelModelConfig, kv, derived,
        carrier_frequency=carrier,
        element_spacing=spacing,
        element_area=area,
        attenuation_mu_lambda2_db=mu_db,
        grid_cols=None if grid_raw == "auto" else _to_int("grid_cols", grid_raw),
        direct_link_variance=_to_float("direct_link_variance", get("direct_link_variance")),
        ris_ue_link_variance=(_evaluated(lambda: attenuation_mu(mu_db, wavelength) * area)
                              if ris_var_raw == "mu_a"
                              else _to_float("ris_ue_link_variance", ris_var_raw)),
        correlation_model=get("correlation_model"),
    )

    K = _to_int("k", get("k"))
    L = _to_int_list("l", kv["l"]) if "l" in kv else (1,) * K
    U_d = _to_int("u_d", get("u_d"))
    if U_d == 0:  # no direct UE, so no direct link is drawn
        _reject_unread(kv, ("direct_link_variance",), "under u_d=0")
    power_mode = get("power_mode")
    if power_mode == "paper_literal":
        _reject_unread(kv, ("total_power",), "under power_mode=paper_literal")

    bandwidth = _to_float("bandwidth", get("bandwidth"))
    _check_positive("bandwidth", bandwidth)
    psd = _to_float("noise_psd_dbm_hz", get("noise_psd_dbm_hz"))
    if "noise_variance_blocked" in kv and ("noise_variance_direct" in kv or U_d == 0):
        # every UE's variance is given, so the PSD and bandwidth set none
        _reject_unread(kv, ("bandwidth", "noise_psd_dbm_hz"), "when every noise variance is set")
    sigma2 = _evaluated(lambda: psd_dbm_hz_to_variance(psd, bandwidth))
    for key in {"noise_variance_blocked", "noise_variance_direct"} - kv.keys():
        derived[key] = ("noise variance", ("noise_psd_dbm_hz", "bandwidth"))

    # a repeated sweep value would redraw the same grid points
    sweep_M = _first_occurrences(_to_int_list("sweep_m", get("sweep_m")))
    sweep_N = _first_occurrences(_to_int_list("sweep_n", get("sweep_n")))
    cfg = _built(
        SystemConfig, kv, derived,
        M=sweep_M[0],  # the grid's first point; `with_dimensions` moves it
        N=sweep_N[0],
        K=K,
        L=L,
        U_d=U_d,
        noise_variance_blocked=_noise_variances(kv, "noise_variance_blocked", sum(L), sigma2),
        noise_variance_direct=_noise_variances(kv, "noise_variance_direct", U_d, sigma2),
        total_power=_to_float("total_power", get("total_power")),
        power_mode=power_mode,
    )

    run = RunConfig(
        sweep_M=sweep_M,
        sweep_N=sweep_N,
        schemes=_first_occurrences(_split_list("schemes", get("schemes"))),
        phase_rules=_first_occurrences(_split_list("phase_rules", get("phase_rules"))),
        trials=_to_int("trials", get("trials")),
        master_seed=_to_int("master_seed", get("master_seed")),
        # + 0.0 reads -0 as 0.0, so its rows and curve label are tau 0's
        csi_tau=_first_occurrences(t + 0.0 for t in _to_float_list("csi_tau", get("csi_tau"))),
        output_dir=str(get("output_dir")),
        threads=_to_int("threads", get("threads")),
    )
    return cfg, ch, run


def read_config(path: str) -> dict[str, str]:
    """Raw values of a config file; an unreadable file, or one that is not
    UTF-8, is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8: "
                          f"undecodable byte at offset {exc.start}") from exc
    return parse_kv_text(text, source=path)


def default_configs() -> tuple[SystemConfig, ChannelModelConfig, RunConfig]:
    """The all-defaults scenario (K=4, U_d=2, one blocked UE per RIS) at
    the default grid's first point, M=8 and N=1."""
    return build_configs({})


def with_dimensions(cfg: SystemConfig, M: int, N: int) -> SystemConfig:
    """Copy of `cfg` with M and N replaced (sweep helper), checked like
    any `SystemConfig`."""
    return replace(cfg, M=M, N=N)
