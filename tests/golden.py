"""Byte pins on committed files, which name the BLAS kernels on a mismatch.

The committed prediction CSVs and golden model files were written where
numpy's bundled OpenBLAS ran its ``SkylakeX`` kernels. Another kernel set
(another CPU family, or ``OPENBLAS_CORETYPE``) may round the last bits of a
product differently, so a mismatch says which set wrote the file and which
one this run uses.
"""

from pathlib import Path

import tarp.cli

COMMITTED_KERNELS = "SkylakeX"


def assert_same_bytes(new: Path, committed: Path) -> None:
    """``new`` holds exactly the bytes of the committed file ``committed``."""
    if new.read_bytes() != committed.read_bytes():
        running = tarp.cli._openblas_cores()["numpy"]
        raise AssertionError(
            f"{new.name} differs from the committed {committed.name}, written "
            f"under OpenBLAS kernel set {COMMITTED_KERNELS}; this run uses {running}"
        )
