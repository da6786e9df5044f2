"""Process set-up shared by every process the benchmark starts.

Import this module, and call :func:`prepare_process`, before numpy loads:
the BLAS pool reads its thread count once, when the library is loaded. An
unpinned OpenBLAS on a 2-core machine spreads the same op over more than 2x
between runs, so no workload is steady without the pin.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREADS = 1
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# size of the tarp worker pool in every workload
TARP_THREADS = 1


def prepare_process() -> None:
    """Pin BLAS and the tarp pool to one thread and put ``src`` on the path.

    Exits with a message when the checkout holds no ``src/tarp`` package,
    so the benchmark never reports figures without the program.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS must be pinned before numpy is imported")
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["TARP_THREADS"] = str(TARP_THREADS)
    if not (SRC / "tarp" / "__init__.py").is_file():
        raise SystemExit(f"error: no tarp package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
