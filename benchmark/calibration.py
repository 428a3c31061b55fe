"""Host-speed calibration: a fixed kernel and the normalizer built on it.

Wall time on a shared host does not repeat: the same call can take 30 ms in
one run and 17 ms in the next because of frequency scaling and neighbours
contending for the core.  The runner executes :func:`calibration_kernel`, a
small fixed mix of interpreter work (a dict loop) and numpy dispatch (tiny
``searchsorted`` calls), once before the first timed call and once after
every call.  :func:`normalize` rescales each call to *reference speed*: the
raw time times :data:`REFERENCE_CALIB_S` over the mean of the calibration
runs right before and right after it.  A slowdown that hits the call and
the calibrations around it alike cancels out.

The contention on such hosts changes within tens of milliseconds, so the
two adjacent calibrations track a call's slowdown better than a median
over a window of neighbouring calls does.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: Median :func:`calibration_kernel` time, in seconds, on the reference host
#: (a 2-core x86-64 container, Python 3.11, numpy 2.4).  Normalized times are
#: reported as if the host ran at this speed.
REFERENCE_CALIB_S = 0.00074

_PROBE = np.arange(0, 1 << 12, 3, dtype=np.uint64)


def calibration_kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    start = time.perf_counter()
    table = {}
    for i in range(2500):
        slot = i & 511
        table[slot] = table.get(slot, 0) + i
    for i in range(200):
        np.searchsorted(_PROBE, i * 13)
    return time.perf_counter() - start


def normalize(
    raw_s: Sequence[float],
    calib_s: Sequence[float],
    reference_s: float = REFERENCE_CALIB_S,
) -> np.ndarray:
    """Rescale per-call wall times to reference host speed.

    ``calib_s`` holds one more entry than ``raw_s``: the calibration before
    the first call, then one after each call.  Call ``i`` becomes
    ``raw_s[i] * reference_s / mean(calib_s[i], calib_s[i + 1])``.
    """
    raw = np.asarray(raw_s, dtype=np.float64)
    calib = np.asarray(calib_s, dtype=np.float64)
    if calib.shape[0] != raw.shape[0] + 1:
        raise ValueError("need one calibration before and one after every call")
    return raw * reference_s / ((calib[:-1] + calib[1:]) / 2.0)
