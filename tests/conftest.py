import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def scipy_unimportable(monkeypatch):
    """Every test runs with `import scipy...` raising ImportError, scipy's
    already loaded modules included: riszf needs numpy alone. Test modules
    keep the scipy objects they imported at collection time, so scipy still
    serves them as a reference."""
    loaded = {m: sys.modules[m] for m in list(sys.modules) if m.split(".")[0] == "scipy"}
    for name in [*loaded, "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    return loaded


@pytest.fixture(params=["bundled"])
def lapack_route(request, monkeypatch, scipy_unimportable):
    """The LAPACK a test's linear algebra could reach. "bundled" checks
    that scipy cannot be imported, so only the LAPACK that numpy bundles
    can serve the test; "scipy" loads scipy's modules again, for the tests
    that show the right inverse and its bounds take the same numpy.linalg
    route with scipy.linalg in the process."""
    if request.param == "scipy":
        for name, module in scipy_unimportable.items():
            monkeypatch.setitem(sys.modules, name, module)
        import scipy.linalg  # noqa: F401
    else:
        with pytest.raises(ImportError):
            import scipy.linalg  # noqa: F401
    return request.param


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
