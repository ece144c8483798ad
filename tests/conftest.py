import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def block_scipy(monkeypatch):
    """A function that makes every later `import scipy...` in the test
    raise ImportError, scipy's already loaded modules included."""

    def block():
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
            monkeypatch.setitem(sys.modules, name, None)

    return block


@pytest.fixture
def selftest_grid():
    """SELFTEST_GRID of perfbench/run.py, read from its source, not imported."""
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    for node in ast.parse(run_py.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SELFTEST_GRID" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SELFTEST_GRID")


@pytest.fixture(scope="session")
def modules_after_import():
    """The modules loaded by `import riszf, riszf.harness, riszf.cli` in a
    fresh interpreter, as one subprocess shared by every import check."""
    import riszf

    code = "import sys, riszf, riszf.harness, riszf.cli\nprint('\\n'.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(riszf.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()
