"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the same code runs 30-40% slower for seconds to
minutes at a time, and pure Python loops, in-cache and out-of-cache sparse
products all slow down together.  Run medians then move by more than any
change worth measuring.  The benchmark therefore times a fixed kernel next
to each measurement and scales the measurement by ``NOMINAL_S / kernel
time``: the seconds it would take on a host where the kernel takes
``NOMINAL_S``.  The kernel uses numpy and scipy but no qncfem code, so a
change to the program cannot move it.  Raw wall times stay in the record.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# kernel seconds on the reference host, a 2-vCPU 2.1 GHz Xeon guest
NOMINAL_S = 0.08
_N = 4000
_BANDS = range(-12, 13)
_MATRIX = sp.diags([np.full(_N - abs(k), 1.0 / (1 + abs(k))) for k in _BANDS],
                   list(_BANDS), format="csr")
_X0 = np.random.default_rng(0).standard_normal(_N)


def kernel_s() -> float:
    """Seconds of one pass of the fixed kernel: sparse products and norms,
    then an interpreter-bound loop, the two kinds of work a study does."""
    t0 = time.perf_counter()
    x = _X0.copy()
    for _ in range(600):
        x = _MATRIX @ x
        x /= np.linalg.norm(x)
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0
