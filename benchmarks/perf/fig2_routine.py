"""The paper's Fig. 2 "overhead" realization routine.

One base random number is drawn and a constant 1000x2 matrix is
returned, so every microsecond a workload spends is the library's
(stream placement, fold, exchange, storage), not the kernel's.  The
function lives in its own importable module because the distributed
backend ships routines to the pool by pickle, i.e. by import path.
"""

from __future__ import annotations

import numpy as np

NROW, NCOL = 1_000, 2

_MATRIX = np.linspace(0.5, 1.5, NROW * NCOL).reshape(NROW, NCOL)


def overhead(rng):
    rng.random()
    return _MATRIX
