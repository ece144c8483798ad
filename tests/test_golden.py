"""Golden outputs: sha256 of every CSV from small versions of both
benchmark grids and of a multi-UE grid with a CSI-error slice at seed 1,
serial and on two workers.

The hashes pin the output bits of numpy 2.4.6 on a CPU whose bundled
OpenBLAS picks its SkylakeX kernels (an AVX-512 x86-64 core). OpenBLAS
chooses its zgemm/zgesv kernels by CPU model at run time, and a last-bit
change moves BS-UE-ZF rates, so on another numpy or another OpenBLAS core
the test skips and names both. A change that claims byte-identical output
must keep them. Regenerate them with `python tests/test_golden.py` only
for a change that moves output bits on purpose, and show the summary.csv
diff in CHANGES.md.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riszf.harness import emit_outputs, numpy_openblas, run_sweep
from riszf.sysconfig import build_configs
from support import GRIDS

GOLDEN_NUMPY = "2.4.6"
GOLDEN_CORE = "SkylakeX"


def openblas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS chose for this CPU, or None
    without a bundled OpenBLAS."""
    lib = numpy_openblas()
    if lib is None:
        return None
    corename = lib.scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


# sha256 of each CSV a serial sweep of support.GRIDS[grid] writes at seed 1
GOLDEN = {
    "default_sweep": {
        "summary.csv": "7cf1bffb80cd6a947a694250e0015f4ead18b5aff64c506f96a2a865e13ff7d0",
        "trials.csv": "963034257656b647c78c1ae08c0fb6f31b844b21613e1ae973658d082dd7643c",
        "plotdata_bs_ue_zf.csv": "9b564dbad20e00e795adb2a02d6887bae7bcd5a580d7c982a2290039e116a292",
        "plotdata_bs_ris_zf.csv": "7541eefd26c6e9e1942ea2dd0ab62981f7712ece640b076ef80693e6cc5b09ea",
    },
    "ris_side_csi": {
        "summary.csv": "41503ad5d0554d64a7459b5b7747c30c207403e8c508b1cd467996f3fbb32c36",
        "trials.csv": "fd706123c8e707a5b1b40fce033fa54c2af9e2856ebbaaf621d2e5b3201c1e50",
        "plotdata_bs_ris_zf.csv": "7af4d25773e90b45ac649724df4b36d451f884a90c636c0d7a770bc2e004a05f",
    },
    "multi_ue_csi": {
        "summary.csv": "f4c5c9be30fc7620e0bf18cc819e1518da32da3796b3126be0a3ef6fa53e446d",
        "trials.csv": "97abf2e5064708e52f0c54da89d70a46f324b29039195038b7af032d571deadf",
        "plotdata_bs_ue_zf.csv": "e9e7d0e08fc59413a887d1282efb1e73f773cc44c9c296ca4e9a87d14d79fab8",
    },
}


def sweep_hashes(grid: str, threads: int, out_dir: Path) -> dict[str, str]:
    """{file name: sha256} of the CSVs one sweep of `grid` writes."""
    cfg, ch, run = build_configs({**GRIDS[grid], "master_seed": "1"})
    written = emit_outputs(run_sweep(replace(run, threads=threads), cfg, ch), str(out_dir))
    return {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in written
    }


golden_platform = pytest.mark.skipif(
    (np.__version__, openblas_core()) != (GOLDEN_NUMPY, GOLDEN_CORE),
    reason=f"golden hashes are for numpy {GOLDEN_NUMPY} with OpenBLAS core "
    f"{GOLDEN_CORE}; this is numpy {np.__version__} with core {openblas_core()}",
)


@golden_platform
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_outputs_match_golden_hashes(grid, threads, tmp_path):
    assert sweep_hashes(grid, threads, tmp_path) == GOLDEN[grid]


@golden_platform
def test_openblas_env_pin_keeps_golden_hashes(tmp_path):
    # OPENBLAS_NUM_THREADS=1 stops OpenBLAS from starting its helper thread
    # when numpy loads; a fresh interpreter started with it writes the same
    # bytes as the in-process sweep
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys; from pathlib import Path; from test_golden import sweep_hashes; "
        "print(json.dumps(sweep_hashes('default_sweep', 1, Path(sys.argv[1]))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
        },
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == GOLDEN["default_sweep"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f"numpy {np.__version__}, OpenBLAS core {openblas_core()}")
        for name in sorted(GRIDS):
            print(name, sweep_hashes(name, 1, Path(tmp) / name))
