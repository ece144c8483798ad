import sys

import pytest


@pytest.fixture
def block_scipy(monkeypatch):
    """A function that makes every later `import scipy...` in the test
    raise ImportError, scipy's already loaded modules included."""

    def block():
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
            monkeypatch.setitem(sys.modules, name, None)

    return block
