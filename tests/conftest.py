"""Test-suite settings that must be in place before numpy loads.

One BLAS thread, as bench/run.py gives its workers.  With OpenBLAS's
default of one thread per CPU, its waiting threads compete with any other
busy process on the host: beside one CPU-bound process a dense test of a
fraction of a second took several seconds.  pytest imports this file
before any test module, so before numpy; a value already set in the
environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
