"""qcircle verdict benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S]

BLAS and OpenMP thread pools are capped at the number of usable cores before
numpy is imported, here and in every process this one starts.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() else nproc
        os.environ[var] = str(cap)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


if __name__ == "__main__":
    caps = cap_threads()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    sys.exit(harness.main(sys.argv[1:], caps))
