"""The benchmark's traced gate holds on the current program.

perfbench/tracing.py wraps riszf functions by module and name and checks
each one's call count against the grid; a renamed function or a changed
call structure fails the benchmark run. This test runs one traced worker
on the benchmark's own self-test grid, reading perfbench/ without
changing it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _selftest_grid():
    """SELFTEST_GRID of perfbench/run.py, read from its source, not imported."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SELFTEST_GRID" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SELFTEST_GRID")


def test_traced_selftest_grid_matches_call_counts(tmp_path):
    req = {
        "config": dict(_selftest_grid(), master_seed="1"),
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
    assert res["trace_problems"] == []
    assert res["attempted"] > 0
    assert res["failed"] == 0
