"""The README's library example runs as written, and the package exports
every name it lists."""

import re
from pathlib import Path

import numpy as np

import riszf

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    ns: dict = {}
    exec(compile(match.group(1), f"{README}:Library", "exec"), ns)
    cfg = ns["cfg"]
    assert ns["phases"].shape == (cfg.K, cfg.N)
    assert ns["sinr_blocked"].shape == (cfg.U_b,)
    assert ns["sinr_direct"].shape == (cfg.U_d,)
    assert np.all(np.isfinite(ns["sinr_blocked"]))
    assert np.all(np.isfinite(ns["sinr_direct"]))


def test_every_exported_name_resolves():
    missing = [name for name in riszf.__all__ if not hasattr(riszf, name)]
    assert missing == []
