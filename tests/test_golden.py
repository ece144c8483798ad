"""Golden outputs: sha256 of every CSV from small versions of both
benchmark grids and of a multi-UE grid with a CSI-error slice at seed 1,
serial and on two workers.

The hashes pin the output bits of numpy 2.4.6 on a CPU whose bundled
OpenBLAS picks its SkylakeX kernels (an AVX-512 x86-64 core). OpenBLAS
chooses its zgemm/zpotrf kernels by CPU model at run time, and a last-bit
change moves BS-UE-ZF rates, so on another numpy or another OpenBLAS core
the test skips and names both. A change that claims byte-identical output
must keep them. Regenerate them with `python tests/test_golden.py` only
for a change that moves output bits on purpose, and show the summary.csv
diff in CHANGES.md.
"""

import ctypes
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riszf.beamform import numpy_openblas
from riszf.harness import emit_outputs, run_sweep
from riszf.sysconfig import build_configs

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

# Small versions of perfbench's default_sweep and ris_side_csi workloads.
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
    # principal_eigenvector, apply_estimation_error and skipped points
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

GOLDEN = {
    "default_sweep": {
        "summary.csv": "2f07beb44ae9b6d8f0bd2aa9834bd35d5d5fdac3a83077bdc8d05140d094c7ce",
        "trials.csv": "f060dadddf3b6d822bd4ed7152300eba14b2d49900b038bd0b9351cc4396716a",
        "plotdata_bs_ue_zf.csv": "5364ba27165216836bfa9f9ddea454b06064135a8326fa190295c71939ece74e",
        "plotdata_bs_ris_zf.csv": "bb17644a565a60e26df08103b3483d52db2a2acf08046668717a9cec2d862d52",
    },
    "ris_side_csi": {
        "summary.csv": "7e0b12ae498097bd17856a22f1a2101780866c30d334e1791dbfe8d36cbb3f39",
        "trials.csv": "c5a5ab57d0ee7ce841d1869c67a46ed5380c2e34d3f2c8985a7c1f5b7664add3",
        "plotdata_bs_ris_zf.csv": "84bf564efe3e75891e6f02cb9c4de90965254e43735078c9d84718db48e018d5",
    },
    "multi_ue_csi": {
        "summary.csv": "62de47305f7e0019c3999d0ac3fdc18a86761ad0c7771cdfc97b5adcec438780",
        "trials.csv": "c7e976401adbfa4b204f1bd7dcecbabd9a948a75a9061c0b13937761f690633c",
        "plotdata_bs_ue_zf.csv": "08c5d1c65b6ca36107d31eb574aaa1034bf311ce6d679ea3cfabca1c3dee110f",
    },
}


def sweep_hashes(grid: str, threads: int, out_dir: Path) -> dict[str, str]:
    """{file name: sha256} of the CSVs one sweep of `grid` writes."""
    cfg, ch, run = build_configs({**GRIDS[grid], "master_seed": "1"})
    written = emit_outputs(run_sweep(replace(run, threads=threads), cfg, ch), str(out_dir))
    return {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in written
    }


@pytest.mark.skipif(
    (np.__version__, openblas_core()) != (GOLDEN_NUMPY, GOLDEN_CORE),
    reason=f"golden hashes are for numpy {GOLDEN_NUMPY} with OpenBLAS core "
    f"{GOLDEN_CORE}; this is numpy {np.__version__} with core {openblas_core()}",
)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_outputs_match_golden_hashes(grid, threads, tmp_path):
    assert sweep_hashes(grid, threads, tmp_path) == GOLDEN[grid]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f"numpy {np.__version__}, OpenBLAS core {openblas_core()}")
        for name in sorted(GRIDS):
            print(name, sweep_hashes(name, 1, Path(tmp) / name))
