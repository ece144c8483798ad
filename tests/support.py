"""Setup shared by the test modules: the unit-scale draw, the call-counting
spy and the small sweep grids the golden hashes pin."""

from riszf.channel import sample_channels, spawn_rng
from riszf.sysconfig import build_configs

_LAMBDA = 299_792_458.0 / 1.8e9

# Unit link variances keep every stacked row at a comparable scale, so exact
# nulling can be asserted near float64 resolution. The default link budget
# spreads row norms over ~90 dB, where products of O(1e8) precoder entries
# with O(1e-8) rows measure no better than ~1e-8.
UNIT_SCALE = {
    "attenuation_mu_lambda2_db": "0.0",
    "element_area": str(_LAMBDA * _LAMBDA),
    "ris_ue_link_variance": "1.0",
    "direct_link_variance": "1.0",
}


def draw(overrides, seed=0, unit=True):
    """The channels of config `overrides` drawn from spawn_rng(seed, 0), at
    UNIT_SCALE's link scales (the direct one only where there are direct
    UEs) unless `unit` is False."""
    kv = dict(UNIT_SCALE) if unit else {}
    if overrides.get("u_d") == "0":
        kv.pop("direct_link_variance", None)  # a config error without direct UEs
    kv.update(overrides)
    cfg, ch, _ = build_configs(kv)
    return sample_channels(cfg, ch, spawn_rng(seed, 0))


def count_calls(monkeypatch, module, name, calls=None, record=None):
    """Wrap `module.name` for one test: each call appends `record(*args)`,
    or `name` without `record`, to `calls` (a new list unless given), which
    is returned."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name if record is None else record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# Small versions of perfbench's default_sweep and ris_side_csi workloads,
# and a multi-UE grid; tests/test_golden.py pins their outputs at seed 1.
GRIDS = {
    "default_sweep": {"trials": "2"},
    "ris_side_csi": {
        "schemes": "bs_ris_zf",
        "phase_rules": "optimal,random",
        "sweep_m": "128,256",
        "sweep_n": "8",
        "csi_tau": "0.0,0.1,0.3",
        "trials": "3",
    },
    # several UEs on one RIS with a CSI-error slice: the per-UE gather,
    # eigh's dominant eigenvector, apply_estimation_error, the L_k > 1 path
    # of cascaded rows, and points skipped for L_k > N
    "multi_ue_csi": {
        "k": "3",
        "l": "2,1,3",
        "schemes": "bs_ue_zf",
        "sweep_m": "16,64",
        "sweep_n": "2,4",
        "csi_tau": "0.0,0.2",
        "trials": "2",
    },
}
