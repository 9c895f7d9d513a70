"""Process set-up shared by the benchmark's entry points.

Pins every BLAS/OpenMP pool to one thread *before* numpy is imported (the
``@`` products in the entropy residuals would otherwise reach a threaded
BLAS), then imports ``discflux`` from the checkout's ``src`` tree and nowhere
else.  Import this module first; it must not import numpy itself.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingSource(RuntimeError):
    """The checkout holds no discflux sources to benchmark."""


def import_discflux():
    """Import the package under test from ``<checkout>/src`` only."""
    if not (SRC / "discflux" / "__init__.py").is_file():
        raise MissingSource(f"no discflux sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import discflux

    where = Path(discflux.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSource(f"discflux was imported from {where}, not from {SRC}")
    return discflux
