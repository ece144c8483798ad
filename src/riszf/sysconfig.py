"""Experiment configuration: scenario constants, validation, and the flat
key=value config-file format.

Every scenario constant (antenna/element/user counts, powers, noise,
channel-model parameters) lives in one of the three config dataclasses
defined here. Their defaults live only in `_KEY_DEFAULTS`: build the
default scenario with `build_configs({})`. Configs are immutable after
load and safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

SPEED_OF_LIGHT = 299_792_458.0  # m/s

BS_UE_ZF = "bs_ue_zf"
BS_RIS_ZF = "bs_ris_zf"
SCHEMES = (BS_UE_ZF, BS_RIS_ZF)

POWER_MODES = ("paper_literal", "sum_power_normalized")
PHASE_RULES = ("optimal", "asymptotic", "random")
CORRELATION_MODELS = ("sinc", "iid")


class ConfigError(ValueError):
    """Raised on config-file parse errors, unknown keys, or range violations."""


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
    bandwidth : Hz; converts a noise PSD into a variance at load time.
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
    bandwidth: float

    @cached_property
    def U_b(self) -> int:
        return sum(self.L)

    def blocked_index(self, k: int, ell: int) -> int:
        """Flat index of blocked UE (k, ell) under RIS-major, UE-minor order."""
        return sum(self.L[:k]) + ell


@dataclass(frozen=True)
class ChannelModelConfig:
    """Channel statistics: element geometry, attenuation, per-link variances.

    ``element_spacing`` is the minimum RIS inter-element distance in meters;
    ``grid_cols=None`` picks the largest divisor of N not above sqrt(N).
    ``ris_ue_link_variance=None`` defaults to mu * element_area, i.e. the same
    intensity attenuation the BS-RIS links carry.
    """

    carrier_frequency: float
    element_spacing: float
    element_area: float | None
    attenuation_mu_lambda2_db: float
    grid_cols: int | None
    direct_link_variance: float
    ris_ue_link_variance: float | None
    correlation_model: str

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def mu(self) -> float:
        """Average intensity attenuation, recovered from mu*lambda^2 in dB."""
        return 10.0 ** (self.attenuation_mu_lambda2_db / 10.0) / self.wavelength**2

    @property
    def area(self) -> float:
        """Element area; defaults to element_spacing squared."""
        if self.element_area is not None:
            return self.element_area
        return self.element_spacing**2

    @cached_property
    def ris_element_scale(self) -> float:
        """Per-element intensity scale mu * A applied to the BS-RIS channels;
        computed on first access, as the config is immutable."""
        return self.mu * self.area

    @property
    def ris_ue_variance(self) -> float:
        if self.ris_ue_link_variance is not None:
            return self.ris_ue_link_variance
        return self.ris_element_scale


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    scheme: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
        return "\n".join(lines)


def validate_config(
    cfg: SystemConfig, ch: ChannelModelConfig, scheme: str
) -> ValidationReport:
    """Check every structural invariant plus the feasibility condition of
    `scheme`; returns a report rather than raising so callers decide to abort.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    add(
        "dimensions",
        cfg.M >= 1
        and cfg.N >= 1
        and cfg.K >= 1
        and cfg.U_d >= 0
        and len(cfg.L) == cfg.K
        and all(l >= 1 for l in cfg.L),
        f"M={cfg.M}, N={cfg.N}, K={cfg.K}, L={list(cfg.L)}, U_d={cfg.U_d}",
    )
    add(
        "ue_counts",
        cfg.U_b >= cfg.K >= 1,
        f"U_b={cfg.U_b} >= K={cfg.K} >= 1",
    )
    add(
        "noise_blocked",
        len(cfg.noise_variance_blocked) == cfg.U_b
        and all(v > 0 for v in cfg.noise_variance_blocked),
        f"{len(cfg.noise_variance_blocked)} entries for U_b={cfg.U_b}, all > 0 W",
    )
    add(
        "noise_direct",
        len(cfg.noise_variance_direct) == cfg.U_d
        and all(v > 0 for v in cfg.noise_variance_direct),
        f"{len(cfg.noise_variance_direct)} entries for U_d={cfg.U_d}, all > 0 W",
    )
    add(
        "power_budget",
        cfg.total_power > 0 and cfg.bandwidth > 0,
        f"P={cfg.total_power} W, bandwidth={cfg.bandwidth} Hz",
    )
    add(
        "power_mode",
        cfg.power_mode in POWER_MODES,
        f"power_mode={cfg.power_mode!r}",
    )

    if scheme == BS_UE_ZF:
        need = cfg.U_b + cfg.U_d
        add(
            "bs_ue_zf_feasible",
            cfg.M >= need,
            f"requires M >= U_b+U_d = {need}, got M={cfg.M}"
            + ("" if cfg.M >= need else f"; blocks {BS_UE_ZF}"),
        )
        # RIS k's cascaded rows h^H Phi_k H_k^H all lie in the N-dimensional
        # row space of H_k^H, so more than N of them are linearly dependent
        spans = all(l <= cfg.N for l in cfg.L)
        add(
            "ues_per_ris_within_n",
            spans,
            f"requires L_k <= N = {cfg.N} for every RIS, got L={list(cfg.L)}"
            + ("" if spans else f"; blocks {BS_UE_ZF}"),
        )
    else:
        need = cfg.N * cfg.K + cfg.U_d
        add(
            "bs_ris_zf_feasible",
            cfg.M > need,
            f"requires M > N*K+U_d = {need}, got M={cfg.M}"
            + ("" if cfg.M > need else f"; blocks {BS_RIS_ZF}"),
        )
        add(
            "single_ue_per_ris",
            all(l == 1 for l in cfg.L),
            f"L={list(cfg.L)}; {BS_RIS_ZF} is defined for one UE per RIS",
        )

    add(
        "element_geometry",
        ch.carrier_frequency > 0
        and ch.element_spacing > 0
        and ch.area > 0
        and (ch.grid_cols is None or (ch.grid_cols >= 1 and cfg.N % ch.grid_cols == 0)),
        f"d={ch.element_spacing} m, A={ch.area} m^2, grid_cols={ch.grid_cols}",
    )
    add(
        "link_variances",
        ch.direct_link_variance > 0 and ch.ris_ue_variance > 0,
        f"direct={ch.direct_link_variance}, ris_ue={ch.ris_ue_variance}",
    )
    add(
        "correlation_model",
        ch.correlation_model in CORRELATION_MODELS,
        f"model={ch.correlation_model!r}",
    )

    return ValidationReport(scheme=scheme, checks=tuple(checks))


# --------------------------------------------------------------------------
# Flat key=value config file format
# --------------------------------------------------------------------------

_DEFAULT_NOISE_PSD_DBM_HZ = -174.0

# Every legal key with its default raw value; None means "derived elsewhere".
_KEY_DEFAULTS: dict[str, str | None] = {
    # system
    "m": "64",
    "n": "4",
    "k": "4",
    "l": None,  # defaults to one blocked UE per RIS
    "u_d": "2",
    "total_power": "1.0",
    "power_mode": "paper_literal",
    "bandwidth": "1.0e7",
    "noise_psd_dbm_hz": repr(_DEFAULT_NOISE_PSD_DBM_HZ),
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


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse the flat ``key=value`` format (one key per line, # comments)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key not in _KEY_DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _to_int(key: str, value: str, minimum: int | None = None) -> int:
    try:
        v = int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected integer, got {value!r}") from exc
    if minimum is not None and v < minimum:
        raise ConfigError(f"key {key!r}: {v} below minimum {minimum}")
    return v


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected number, got {value!r}") from exc


def _to_positive(key: str, value: str) -> float:
    v = _to_float(key, value)
    if not v > 0:
        raise ConfigError(f"key {key!r}: must be positive, got {v}")
    return v


def _split_list(value: str) -> list[str]:
    return [p.strip() for p in value.split(",") if p.strip()]


def _to_int_list(key: str, value: str, minimum: int | None = None) -> tuple[int, ...]:
    items = _split_list(value)
    if not items:
        raise ConfigError(f"key {key!r}: empty list")
    return tuple(_to_int(key, p, minimum) for p in items)


def _to_float_list(key: str, value: str) -> tuple[float, ...]:
    items = _split_list(value)
    if not items:
        raise ConfigError(f"key {key!r}: empty list")
    return tuple(_to_float(key, p) for p in items)


def _to_choice(key: str, value: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ConfigError(f"key {key!r}: {value!r} not in {tuple(choices)}")
    return value


def _to_choice_list(key: str, value: str, choices: Sequence[str]) -> tuple[str, ...]:
    items = _split_list(value)
    if not items:
        raise ConfigError(f"key {key!r}: empty list")
    for p in items:
        if p not in choices:
            raise ConfigError(f"key {key!r}: {p!r} not in {tuple(choices)}")
    return _first_occurrences(items)


def _first_occurrences(values: Sequence) -> tuple:
    """`values` with every repeat after the first dropped, order kept."""
    return tuple(dict.fromkeys(values))


def _resolve_spacing(value: str, wavelength: float) -> float:
    """Spacing in meters, or symbolic 'lambda' / 'lambda/<divisor>'."""
    v = value.lower()
    if v == "lambda":
        return wavelength
    if v.startswith("lambda/"):
        div = _to_positive("element_spacing", v.split("/", 1)[1])
        return wavelength / div
    return _to_positive("element_spacing", value)


def psd_dbm_hz_to_variance(psd_dbm_hz: float, bandwidth: float) -> float:
    """Noise variance in W from a PSD in dBm/Hz over `bandwidth` Hz."""
    return 10.0 ** (psd_dbm_hz / 10.0) * 1e-3 * bandwidth


def build_configs(
    kv: dict[str, str],
) -> tuple[SystemConfig, ChannelModelConfig, RunConfig]:
    """Materialize the three config objects from raw key=value pairs,
    applying documented defaults for every omitted key."""
    for key in kv:
        if key not in _KEY_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")

    def get(key: str) -> str | None:
        if key in kv:
            return kv[key]
        return _KEY_DEFAULTS[key]

    carrier = _to_positive("carrier_frequency", get("carrier_frequency"))
    wavelength = SPEED_OF_LIGHT / carrier
    spacing = _resolve_spacing(get("element_spacing"), wavelength)

    area_raw = get("element_area")
    area = None if area_raw == "spacing_squared" else _to_positive("element_area", area_raw)

    grid_raw = get("grid_cols")
    grid_cols = None if grid_raw == "auto" else _to_int("grid_cols", grid_raw, minimum=1)

    ris_var_raw = get("ris_ue_link_variance")
    ris_var = None if ris_var_raw == "mu_a" else _to_positive("ris_ue_link_variance", ris_var_raw)

    ch = ChannelModelConfig(
        carrier_frequency=carrier,
        element_spacing=spacing,
        element_area=area,
        attenuation_mu_lambda2_db=_to_float(
            "attenuation_mu_lambda2_db", get("attenuation_mu_lambda2_db")
        ),
        grid_cols=grid_cols,
        direct_link_variance=_to_positive(
            "direct_link_variance", get("direct_link_variance")
        ),
        ris_ue_link_variance=ris_var,
        correlation_model=_to_choice(
            "correlation_model", get("correlation_model"), CORRELATION_MODELS
        ),
    )

    K = _to_int("k", get("k"), minimum=1)
    if "l" in kv:
        L = _to_int_list("l", kv["l"], minimum=1)
        if len(L) != K:
            raise ConfigError(f"key 'l': expected {K} entries, got {len(L)}")
    else:
        L = (1,) * K
    U_b = sum(L)
    U_d = _to_int("u_d", get("u_d"), minimum=0)

    bandwidth = _to_positive("bandwidth", get("bandwidth"))
    psd = _to_float("noise_psd_dbm_hz", get("noise_psd_dbm_hz"))
    sigma2 = psd_dbm_hz_to_variance(psd, bandwidth)

    if "noise_variance_blocked" in kv:
        nb = _to_float_list("noise_variance_blocked", kv["noise_variance_blocked"])
        if len(nb) == 1:
            nb = nb * U_b
        if len(nb) != U_b:
            raise ConfigError(
                f"key 'noise_variance_blocked': expected {U_b} entries, got {len(nb)}"
            )
    else:
        nb = (sigma2,) * U_b
    if "noise_variance_direct" in kv:
        nd = _to_float_list("noise_variance_direct", kv["noise_variance_direct"])
        if len(nd) == 1 and U_d > 1:
            nd = nd * U_d
        if len(nd) != U_d:
            raise ConfigError(
                f"key 'noise_variance_direct': expected {U_d} entries, got {len(nd)}"
            )
    else:
        nd = (sigma2,) * U_d
    if any(v <= 0 for v in nb + nd):
        raise ConfigError("noise variances must be strictly positive")

    cfg = SystemConfig(
        M=_to_int("m", get("m"), minimum=1),
        N=_to_int("n", get("n"), minimum=1),
        K=K,
        L=L,
        U_d=U_d,
        noise_variance_blocked=nb,
        noise_variance_direct=nd,
        total_power=_to_positive("total_power", get("total_power")),
        power_mode=_to_choice("power_mode", get("power_mode"), POWER_MODES),
        bandwidth=bandwidth,
    )

    run = RunConfig(
        # a repeated sweep value would redraw the same grid points
        sweep_M=_first_occurrences(_to_int_list("sweep_m", get("sweep_m"), minimum=1)),
        sweep_N=_first_occurrences(_to_int_list("sweep_n", get("sweep_n"), minimum=1)),
        schemes=_to_choice_list("schemes", get("schemes"), SCHEMES),
        phase_rules=_to_choice_list("phase_rules", get("phase_rules"), PHASE_RULES),
        trials=_to_int("trials", get("trials"), minimum=1),
        master_seed=_to_int("master_seed", get("master_seed"), minimum=0),
        csi_tau=_first_occurrences(_to_float_list("csi_tau", get("csi_tau"))),
        output_dir=str(get("output_dir")),
        threads=_to_int("threads", get("threads"), minimum=1),
    )
    for t in run.csi_tau:
        if not 0.0 <= t < 1.0:
            raise ConfigError(f"key 'csi_tau': {t} outside [0, 1)")

    return cfg, ch, run


def load_config(path: str) -> tuple[SystemConfig, ChannelModelConfig, RunConfig]:
    """Load and materialize a config file; see `build_configs` for defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return build_configs(parse_kv_text(text, source=path))


def serialize_configs(
    cfg: SystemConfig, ch: ChannelModelConfig, run: RunConfig
) -> str:
    """Render configs back into the flat key=value format.

    Resolved numeric values are written with full precision so that a
    load -> serialize -> load round trip reproduces identical fields.
    """

    def fmt(v: float) -> str:
        return repr(float(v))

    lines = [
        "# system",
        f"m={cfg.M}",
        f"n={cfg.N}",
        f"k={cfg.K}",
        "l=" + ",".join(str(l) for l in cfg.L),
        f"u_d={cfg.U_d}",
        f"total_power={fmt(cfg.total_power)}",
        f"power_mode={cfg.power_mode}",
        f"bandwidth={fmt(cfg.bandwidth)}",
        "noise_variance_blocked=" + ",".join(fmt(v) for v in cfg.noise_variance_blocked),
    ]
    if cfg.U_d:  # an empty list does not parse; U_d = 0 loads as no variances
        lines.append(
            "noise_variance_direct=" + ",".join(fmt(v) for v in cfg.noise_variance_direct)
        )
    lines += [
        "# channel model",
        f"carrier_frequency={fmt(ch.carrier_frequency)}",
        f"element_spacing={fmt(ch.element_spacing)}",
        "element_area="
        + ("spacing_squared" if ch.element_area is None else fmt(ch.element_area)),
        f"attenuation_mu_lambda2_db={fmt(ch.attenuation_mu_lambda2_db)}",
        "grid_cols=" + ("auto" if ch.grid_cols is None else str(ch.grid_cols)),
        f"direct_link_variance={fmt(ch.direct_link_variance)}",
        "ris_ue_link_variance="
        + ("mu_a" if ch.ris_ue_link_variance is None else fmt(ch.ris_ue_link_variance)),
        f"correlation_model={ch.correlation_model}",
        "# run",
        "sweep_m=" + ",".join(str(m) for m in run.sweep_M),
        "sweep_n=" + ",".join(str(n) for n in run.sweep_N),
        "schemes=" + ",".join(run.schemes),
        "phase_rules=" + ",".join(run.phase_rules),
        f"trials={run.trials}",
        f"master_seed={run.master_seed}",
        "csi_tau=" + ",".join(fmt(t) for t in run.csi_tau),
        f"output_dir={run.output_dir}",
        f"threads={run.threads}",
    ]
    return "\n".join(lines) + "\n"


def save_config(
    path: str, cfg: SystemConfig, ch: ChannelModelConfig, run: RunConfig
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_configs(cfg, ch, run))


def default_configs() -> tuple[SystemConfig, ChannelModelConfig, RunConfig]:
    """The all-defaults scenario (K=4, U_d=2, one blocked UE per RIS)."""
    return build_configs({})


def with_dimensions(cfg: SystemConfig, M: int | None = None, N: int | None = None) -> SystemConfig:
    """Copy of `cfg` with M and/or N replaced (sweep helper)."""
    kwargs = {}
    if M is not None:
        kwargs["M"] = M
    if N is not None:
        kwargs["N"] = N
    return replace(cfg, **kwargs)
