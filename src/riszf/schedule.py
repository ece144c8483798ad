"""Probe-based UE scheduling and RIS assignment.

The BS probes the candidate UEs once with every RIS off and once per RIS
with only that RIS on (phases at identity), records the average receive
power per UE and state, then schedules up to ``U_max`` UEs whose best
probe power clears ``p_min``.  Each scheduled UE is assigned to the state
that maximizes its probe row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet

DIRECT_STATE = 0


@dataclass(frozen=True)
class CandidateChannels:
    """Channels for all candidate UEs, blocked entries stored as zeros.

    ``H`` is (K, M, N), ``h_ris`` is (K, U, N) with a zero row where RIS k
    does not reach UE u, and ``h_direct`` is (U, M) with zero rows for
    UEs that have no direct path.
    """

    H: np.ndarray
    h_ris: np.ndarray
    h_direct: np.ndarray

    def __post_init__(self):
        K, M, N = self.H.shape
        if self.h_ris.shape[0] != K or self.h_ris.shape[2] != N:
            raise ValueError(
                f"h_ris shape {self.h_ris.shape} does not match H {self.H.shape}"
            )
        if self.h_direct.shape != (self.h_ris.shape[1], M):
            raise ValueError(
                f"h_direct shape {self.h_direct.shape} does not match "
                f"U={self.h_ris.shape[1]}, M={M}"
            )

    @property
    def n_candidates(self):
        return self.h_ris.shape[1]


@dataclass(frozen=True)
class ProbeTable:
    """Receive powers per state and candidate UE.

    ``powers`` is (K+1) x U: row 0 holds the all-RISs-off measurement and
    row k the measurement with only RIS k on.
    """

    powers: np.ndarray

    def __post_init__(self):
        if self.powers.ndim != 2:
            raise ValueError(f"probe table must be 2-D, got {self.powers.ndim}-D")
        if not np.isfinite(self.powers).all():
            raise ValueError("probe powers must be finite")
        if np.any(self.powers < 0):
            raise ValueError("probe powers must be nonnegative")

    @property
    def n_states(self):
        return self.powers.shape[0]

    @property
    def n_candidates(self):
        return self.powers.shape[1]


@dataclass(frozen=True)
class ScheduleParams:
    U_max: int
    p_min: float = 0.0

    def __post_init__(self):
        if not isinstance(self.U_max, (int, np.integer)):
            raise ValueError(f"U_max must be an integer, got {self.U_max!r}")
        if self.U_max < 1:
            raise ValueError(f"U_max must be at least 1, got {self.U_max}")
        if not math.isfinite(self.p_min):
            raise ValueError(f"p_min must be finite, got {self.p_min}")
        if self.p_min < 0:
            raise ValueError(f"p_min must be nonnegative, got {self.p_min}")


@dataclass(frozen=True)
class ScheduleOutcome:
    """Scheduled UE ids in ranking order and their state assignment.

    ``assignment`` maps UE id to a state index: ``DIRECT_STATE`` for the
    direct link, k >= 1 for RIS k.
    """

    scheduled: tuple
    assignment: dict


def candidate_channels_from_set(chs: ChannelSet) -> CandidateChannels:
    """Arrange a sampled channel set as one candidate pool.

    Blocked UEs come first in RIS order, then the direct UEs.  A blocked
    UE is reachable only through its own RIS and has no direct path; a
    direct UE has no RIS path.
    """
    cfg = chs.cfg
    M, N, K = cfg.M, cfg.N, cfg.K
    U = cfg.U_b + cfg.U_d
    h_ris = np.zeros((K, U, N), dtype=complex)
    h_direct = np.zeros((U, M), dtype=complex)
    u = 0
    for k in range(K):
        for ell in range(cfg.L[k]):
            h_ris[k, u] = chs.h_block(k, ell)
            u += 1
    for n in range(cfg.U_d):
        h_direct[u] = chs.h_d[n]
        u += 1
    return CandidateChannels(H=chs.H, h_ris=h_ris, h_direct=h_direct)


def probe_powers(cand: CandidateChannels) -> ProbeTable:
    """Average receive power per UE under an isotropic unit-power probe.

    With RISs off the effective row for UE u is h_direct[u]^H; with only
    RIS k on (phases at identity) it is h_direct[u]^H + h_ris[k,u]^H H_k^H.
    The isotropic expectation of |row @ x|^2 over unit-power x is
    ||row||^2 / M.
    """
    K, M, _ = cand.H.shape
    U = cand.n_candidates
    powers = np.empty((K + 1, U))
    powers[0] = np.linalg.norm(cand.h_direct, axis=1) ** 2 / M
    cascaded = np.einsum("kun,kmn->kum", cand.h_ris.conj(), cand.H.conj())
    rows = cand.h_direct.conj()[np.newaxis, :, :] + cascaded
    powers[1:] = np.linalg.norm(rows, axis=2) ** 2 / M
    return ProbeTable(powers=powers)


def schedule(table: ProbeTable, params: ScheduleParams) -> ScheduleOutcome:
    """Rank candidates by best probe power, threshold, cap, and assign.

    Candidates are ranked by their maximum power over all states; those
    below ``p_min`` are dropped and the top ``U_max`` survivors are kept
    (ranking ties broken by lowest UE id).  Each kept UE goes to its
    argmax state; assignment ties prefer the lowest RIS index and the
    direct link last.
    """
    powers = table.powers
    K = table.n_states - 1
    best = powers.max(axis=0)
    order = sorted(range(table.n_candidates), key=lambda u: (-best[u], u))
    chosen = [u for u in order if best[u] >= params.p_min][: params.U_max]
    assignment = {}
    for u in chosen:
        ris_first = np.concatenate([powers[1:, u], powers[:1, u]])
        idx = int(np.argmax(ris_first))
        assignment[u] = idx + 1 if idx < K else DIRECT_STATE
    return ScheduleOutcome(scheduled=tuple(chosen), assignment=assignment)
