"""The benchmark's traced gate holds on the current program.

perfbench/tracing.py wraps riszf functions by module and name and checks
each one's call count against the grid; a renamed function or a changed
call structure fails the benchmark run. These tests run one traced
worker on the benchmark's own self-test grid, and on a grid with several
UEs per RIS, reading perfbench/ without changing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import GRIDS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _traced_worker(config: dict, tmp_path: Path) -> dict:
    """Result JSON of one traced serial sweep of `config` by perfbench's worker."""
    req = {
        "config": config,
        "threads": 1,
        "out": str(tmp_path / "out"),
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files in perfbench/
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), json.dumps(req)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads((tmp_path / "result.json").read_text())
    assert Path(res["riszf_file"]).resolve().is_relative_to(ROOT / "src")
    return res


def test_traced_selftest_grid_matches_call_counts(selftest_grid, tmp_path):
    res = _traced_worker(dict(selftest_grid, master_seed="1"), tmp_path)
    assert res["trace_problems"] == []
    assert res["attempted"] > 0
    assert res["failed"] == 0


@pytest.mark.parametrize("seed", ["1", "7"])
def test_traced_multi_ue_grid_matches_call_counts(seed, tmp_path):
    res = _traced_worker(dict(GRIDS["multi_ue_csi"], master_seed=seed), tmp_path)
    assert res["trace_problems"] == []
    # 2 rules x 2 M x 2 tau at N=4 run; N=2 (L_k > N) and the asymptotic rule skip
    assert res["attempted"] == 16
    assert res["failed"] == 0
