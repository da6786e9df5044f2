"""Test-session setup shared by every test module."""

import os

# One BLAS thread: the suite's matrices are small, and OpenBLAS spreading
# each product over every core is slower (the suite took 150 s unpinned and
# 47 s pinned on a 2-core machine). setdefault, so an explicit environment
# still wins. This runs before any test module imports numpy, which reads
# these variables when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
