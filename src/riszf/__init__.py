"""Multi-RIS massive-MIMO downlink simulator.

Zero-forcing beamforming toward either the UEs (through the cascaded
RIS channels) or the RIS arrays themselves, with SINR-driven phase-shift
design and large-M limit predictions for both.
"""

from riszf.beamform import (
    RankDeficiencyError,
    bs_ris_zf_precoder,
    bs_ue_zf_precoder,
    cascaded_rows,
    gamma_matrix,
    normalize_power,
    stack_bs_ris,
    stack_bs_ue,
)
from riszf.channel import (
    ChannelSet,
    apply_estimation_error,
    correlation_matrix,
    sample_channels,
    spawn_rng,
)
from riszf.harness import (
    PointSummary,
    SweepSummary,
    emit_outputs,
    run_sweep,
)
from riszf.metrics import (
    TrialResult,
    complexity_counts,
    rank_diagnostics,
    sinr_bs_ris_zf,
    sinr_exact,
    sum_rate,
)
from riszf.phaseopt import (
    UndefinedPhaseError,
    asymptotic_phase_config_bs_ue_zf,
    asymptotic_phases_and_sinr_bs_ris_zf,
    asymptotic_phases_bs_ue_zf,
    optimal_phases_bs_ris_zf,
    optimal_phases_bs_ue_zf,
    random_phases,
)
from riszf.schedule import (
    CandidateChannels,
    ProbeTable,
    ScheduleOutcome,
    ScheduleParams,
    candidate_channels_from_set,
    probe_powers,
    schedule,
)
from riszf.sysconfig import (
    BS_RIS_ZF,
    BS_UE_ZF,
    ChannelModelConfig,
    ConfigError,
    RunConfig,
    SystemConfig,
    ValidationReport,
    default_configs,
    load_config,
    save_config,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "BS_RIS_ZF",
    "BS_UE_ZF",
    "CandidateChannels",
    "ChannelModelConfig",
    "ChannelSet",
    "ConfigError",
    "PointSummary",
    "ProbeTable",
    "RankDeficiencyError",
    "RunConfig",
    "ScheduleOutcome",
    "ScheduleParams",
    "SweepSummary",
    "SystemConfig",
    "TrialResult",
    "UndefinedPhaseError",
    "ValidationReport",
    "apply_estimation_error",
    "asymptotic_phase_config_bs_ue_zf",
    "asymptotic_phases_and_sinr_bs_ris_zf",
    "asymptotic_phases_bs_ue_zf",
    "bs_ris_zf_precoder",
    "bs_ue_zf_precoder",
    "candidate_channels_from_set",
    "cascaded_rows",
    "complexity_counts",
    "correlation_matrix",
    "default_configs",
    "emit_outputs",
    "gamma_matrix",
    "load_config",
    "normalize_power",
    "optimal_phases_bs_ris_zf",
    "optimal_phases_bs_ue_zf",
    "probe_powers",
    "random_phases",
    "rank_diagnostics",
    "run_sweep",
    "sample_channels",
    "save_config",
    "schedule",
    "sinr_bs_ris_zf",
    "sinr_exact",
    "spawn_rng",
    "stack_bs_ris",
    "stack_bs_ue",
    "sum_rate",
    "validate_config",
    "__version__",
]
