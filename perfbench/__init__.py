"""Benchmark of the folkmetrics CLI.

Run it from the repository root with `python3 perfbench/run.py --workload
<name>`; README.md in this directory describes the workloads and metrics.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for a child that runs folkmetrics from this checkout's src/."""
    # a fixed string-hash seed: dict and set layouts, and so their speed,
    # repeat from run to run
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env
