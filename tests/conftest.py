"""Test-session setup shared by every test module."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

# One BLAS thread: the suite's matrices are small, and OpenBLAS spreading
# each product over every core is slower (the suite took 150 s unpinned and
# 47 s pinned on a 2-core machine). setdefault, so an explicit environment
# still wins. This runs before any test module imports numpy, which reads
# these variables when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture()
def record_pool(monkeypatch):
    """``record_pool(module)`` swaps ``module.ThreadPoolExecutor`` for a
    subclass and returns the list of ``max_workers`` values it is given."""

    def install(module):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(module, "ThreadPoolExecutor", Recording)
        return sizes

    return install
