"""Benchmark for hessavg: time to tolerance on three seeded workloads.

This module imports nothing heavy, so ``run.py`` can read the per-workload
process count and set the BLAS thread variables before numpy loads.
"""

import os

NPROC = len(os.sched_getaffinity(0))

# Worker processes per workload; each process gets NPROC // jobs BLAS threads.
WORKLOAD_JOBS = {
    "subsample-grid": NPROC,
    "sketch-grid": 1,
    "large-solve": 1,
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
