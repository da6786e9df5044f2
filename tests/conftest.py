"""Test-session setup shared by every test module."""

import os
import threading
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


@pytest.fixture()
def refuse_thread(monkeypatch):
    """``refuse_thread(call)`` makes the ``call``-th ``threading.Thread.start``
    raise as the system does when it has no thread to give. The threads
    asked for before it start only then, so that none can finish a job and
    sit idle, which would let a pool skip the refused start; starts no
    thread it is not asked for."""

    def install(call):
        held = []
        real_start = threading.Thread.start

        def start(thread):
            held.append(thread)
            if len(held) == call:
                for earlier in held[:-1]:
                    real_start(earlier)
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)

    return install
