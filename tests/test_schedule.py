"""Probe-based scheduling: ranking, thresholds, assignment, export."""

import numpy as np
import pytest

from riszf.channel import sample_channels, spawn_rng
from riszf.schedule import (
    DIRECT_STATE,
    CandidateChannels,
    ProbeTable,
    ScheduleParams,
    candidate_channels_from_set,
    probe_powers,
    schedule,
)
from riszf.sysconfig import build_configs


def _table(columns):
    """Columns are per-UE state-power lists: [state0, state1, ...]."""
    return ProbeTable(powers=np.array(columns, dtype=float).T)


def test_threshold_and_cap_trace():
    # UE0 peaks at 0.6 through RIS 2, UE1 tops out at 0.3, UE2 at 0.9 direct
    t = _table(
        [
            [0.1, 0.2, 0.6],
            [0.3, 0.1, 0.2],
            [0.9, 0.4, 0.3],
        ]
    )
    out = schedule(t, ScheduleParams(U_max=2, p_min=0.5))
    assert out.scheduled == (2, 0)
    assert out.assignment == {2: DIRECT_STATE, 0: 2}


def test_threshold_above_every_power_schedules_nobody():
    t = _table([[0.1, 0.2], [0.3, 0.1], [0.05, 0.0]])
    out = schedule(t, ScheduleParams(U_max=3, p_min=0.31))
    assert out.scheduled == ()
    assert out.assignment == {}


def test_no_binding_constraint_schedules_everyone():
    t = _table([[0.1, 0.2], [0.3, 0.1], [0.05, 0.0]])
    out = schedule(t, ScheduleParams(U_max=5, p_min=0.0))
    assert sorted(out.scheduled) == [0, 1, 2]
    assert set(out.assignment) == {0, 1, 2}


def test_assignment_tie_breaks_prefer_low_ris_then_direct():
    # UE0 ties across RIS1/RIS2, UE1 ties between direct and RIS2
    t = _table([[0.2, 0.5, 0.5], [0.5, 0.1, 0.5]])
    out = schedule(t, ScheduleParams(U_max=2))
    assert out.assignment[0] == 1
    assert out.assignment[1] == 2


def test_ranking_is_by_best_state_not_direct_power():
    # UE1 has the weaker direct link but the stronger best state
    t = _table([[0.9, 0.0], [0.1, 0.95]])
    out = schedule(t, ScheduleParams(U_max=1))
    assert out.scheduled == (1,)
    assert out.assignment == {1: 1}


def test_monotonicity_in_threshold_and_cap():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = ProbeTable(powers=rng.uniform(size=(4, 6)))
        best = t.powers.max(axis=0)
        grid = np.concatenate([[0.0], np.sort(best), [best.max() + 1]])
        prev = None
        for p_min in grid[::-1]:
            cur = set(schedule(t, ScheduleParams(U_max=4, p_min=p_min)).scheduled)
            if prev is not None:
                assert prev <= cur
            prev = cur
        prev = None
        for u_max in range(1, 8):
            cur = set(schedule(t, ScheduleParams(U_max=u_max, p_min=0.3)).scheduled)
            if prev is not None:
                assert prev <= cur
            prev = cur


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    t = ProbeTable(powers=rng.uniform(size=(3, 5)))
    params = ScheduleParams(U_max=3, p_min=0.4)
    base = schedule(t, params)
    perm = rng.permutation(5)
    permuted = ProbeTable(powers=t.powers[:, perm])
    out = schedule(permuted, params)
    # column u of the permuted table is original UE perm[u]
    inverse = np.argsort(perm)
    assert tuple(int(inverse[p]) for p in base.scheduled) == out.scheduled
    assert {int(inverse[u]): s for u, s in base.assignment.items()} == out.assignment


def test_assignments_certify_as_row_argmax():
    rng = np.random.default_rng(7)
    t = ProbeTable(powers=rng.uniform(size=(5, 9)))
    out = schedule(t, ScheduleParams(U_max=9))
    for u, state in out.assignment.items():
        assert t.powers[state, u] == t.powers[:, u].max()


def test_param_and_table_validation():
    with pytest.raises(ValueError):
        ScheduleParams(U_max=0)
    with pytest.raises(ValueError):
        ScheduleParams(U_max=2, p_min=-0.1)
    with pytest.raises(ValueError):
        ProbeTable(powers=np.array([[0.1, -0.2]]))
    with pytest.raises(ValueError):
        ProbeTable(powers=np.zeros(3))


def test_probe_rows_from_handmade_channels():
    M, N, K = 4, 2, 2
    H = np.zeros((K, M, N), dtype=complex)
    H[0] = np.arange(M * N).reshape(M, N) + 0j
    H[1] = 1j * np.ones((M, N))
    h_ris = np.zeros((K, 3, N), dtype=complex)
    h_ris[0, 0] = [1.0, 0.0]
    h_direct = np.zeros((3, M), dtype=complex)
    h_direct[1] = np.ones(M)
    h_direct[2] = [2.0, 0.0, 0.0, 0.0]
    table = probe_powers(CandidateChannels(H=H, h_ris=h_ris, h_direct=h_direct))

    # blocked UE with every RIS off sees nothing
    assert table.powers[0, 0] == 0.0
    # unit direct vector probes at ||h||^2 / M = 1
    assert table.powers[0, 1] == pytest.approx(1.0)
    # RIS paths are zero for pure direct UEs, so every row repeats row 0
    np.testing.assert_allclose(table.powers[1:, 1], table.powers[0, 1])
    np.testing.assert_allclose(table.powers[1:, 2], table.powers[0, 2])
    # blocked UE 0 reachable only through RIS 1: row 2 matches row 0
    assert table.powers[2, 0] == table.powers[0, 0]
    expected = np.linalg.norm(h_ris[0, 0].conj() @ H[0].conj().T) ** 2 / M
    assert table.powers[1, 0] == pytest.approx(expected)


def test_candidate_pool_from_sampled_set():
    cfg, ch, _ = build_configs({"m": "8", "n": "4", "k": "2", "u_d": "2"})
    chs = sample_channels(cfg, ch, spawn_rng(0, 0))
    cand = candidate_channels_from_set(chs)
    assert cand.h_ris.shape == (2, 4, 4)
    assert cand.h_direct.shape == (4, 8)
    # blocked UEs occupy the first slots with no direct path
    np.testing.assert_array_equal(cand.h_direct[:2], 0)
    np.testing.assert_array_equal(cand.h_ris[1, 0], 0)
    np.testing.assert_array_equal(cand.h_ris[0, 1], 0)
    np.testing.assert_array_equal(cand.h_ris[0, 0], chs.h_block(0, 0))
    np.testing.assert_array_equal(cand.h_direct[2], chs.h_d[0])
    np.testing.assert_array_equal(cand.h_ris[:, 2:], 0)

    table = probe_powers(cand)
    # own-RIS probe row for blocked UE 1, computed long-hand
    row = chs.h_block(1, 0).conj() @ chs.H[1].conj().T
    assert table.powers[2, 1] == pytest.approx(np.linalg.norm(row) ** 2 / 8)
    assert table.powers[0, 1] == 0.0
