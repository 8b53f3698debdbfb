"""Print the set-up time of one workload, measured in this fresh interpreter.

    python3 bench/setup_probe.py two_soliton_converge

The time runs from ``import gkdv`` (numpy is already loaded) until every
time integration of the workload has taken its first step, so it covers the
scenarios, grids and initial SAV states and the per-(grid, tau) operators
that the steppers build on their first step.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402,F401  (loaded before the clock starts)

t0 = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].first_steps()
print(time.perf_counter() - t0)
