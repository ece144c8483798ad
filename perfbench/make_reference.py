"""Regenerate the committed reference summaries the reference gate reads.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's grid serially at REF_TRIALS trials and seed 0 and
copies its summary.csv to perfbench/reference/<workload>.csv. Run it only
when a change to riszf is meant to change the sweep's statistics, and
say so where the change is described.
"""

import shutil
import sys
import time

from run import REFERENCE, WORK, WORKLOADS, Runner, child_env

REF_TRIALS = 200
REF_SEED = 0


def main(names) -> int:
    env, _ = child_env()
    workdir = WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    REFERENCE.mkdir(exist_ok=True)
    runner = Runner(env, workdir, time.monotonic() + 3600.0)
    for name in names or sorted(WORKLOADS):
        config = dict(WORKLOADS[name], trials=str(REF_TRIALS), master_seed=str(REF_SEED))
        res = runner.call(config, threads=1)
        shutil.copyfile(res["out"] / "summary.csv", REFERENCE / f"{name}.csv")
        print(f"{name}: {res['sweep_s']:.1f} s, {res['failed']} of {res['attempted']} trials failed")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
