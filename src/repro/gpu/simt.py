"""SIMT execution helpers: warps, cooperative groups and divergence estimates.

The paper's indexes all use batch execution where each lookup is handled by a
single thread (RX, cgRX ray stage, SA, HT) or by a cooperative group of 16
threads (B+ traversal, cgRX/B+ bucket/leaf scans).  The helpers here express
those execution patterns as numbers the cost model understands.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Threads per warp on all NVIDIA GPUs relevant to the paper.
WARP_SIZE = 32

#: Cooperative group size used by the B+-tree traversal and by cgRX's bucket
#: scan kernel ("a separate CUDA kernel to spawn a group of 16 threads per
#: lookup").
COOPERATIVE_GROUP_SIZE = 16


def warps_for_threads(threads: int) -> int:
    """Number of warps needed to run ``threads`` logical threads."""
    if threads <= 0:
        return 0
    return math.ceil(threads / WARP_SIZE)


def cooperative_scan_steps(elements: int, group_size: int = COOPERATIVE_GROUP_SIZE) -> int:
    """Number of group-wide steps to scan ``elements`` contiguous entries.

    A cooperative group loads ``group_size`` neighbouring entries per step in
    a coalesced fashion, which is why cgRX and B+ scan buckets/leaves quickly.
    """
    if elements <= 0:
        return 0
    return math.ceil(elements / group_size)


#: Fraction of the raw warp-pacing imbalance that actually shows up as lost
#: time.  The hardware hides most of it by switching to other resident warps,
#: so only part of the imbalance translates into a slowdown.
DIVERGENCE_EXPOSURE = 0.35


def divergence_factor(per_thread_work: "Sequence[int] | np.ndarray") -> float:
    """Estimate the warp-divergence penalty of a batch.

    SIMT execution is paced by the slowest thread of each warp.  Given the
    per-thread work of a (sample of a) batch, the raw imbalance is the ratio
    between warp-maximum-paced cost and mean-paced cost; the returned factor
    exposes only :data:`DIVERGENCE_EXPOSURE` of it (latency hiding).  See
    :func:`divergence_from_pacing`.
    """
    work = np.maximum(np.asarray(per_thread_work, dtype=np.int64).reshape(-1), 0)
    if not work.size:
        return 1.0
    total = int(work.sum())
    if total == 0:
        return 1.0
    # Warp maxima over zero-padded warps; the last warp may be partial.
    warps = -(-work.size // WARP_SIZE)
    padded = np.zeros(warps * WARP_SIZE, dtype=np.int64)
    padded[: work.size] = work
    lanes = np.full(warps, WARP_SIZE, dtype=np.int64)
    lanes[-1] = work.size - (warps - 1) * WARP_SIZE
    paced = int((padded.reshape(warps, WARP_SIZE).max(axis=1) * lanes).sum())
    return divergence_from_pacing(paced, total)


def divergence_from_pacing(paced: int, total: int) -> float:
    """The :func:`divergence_factor` of a batch from its two sums.

    ``paced`` is the warp-maximum-paced work (per warp of
    :data:`WARP_SIZE` consecutive threads, the last one possibly partial:
    its largest work times its threads), ``total`` the plain sum of the
    (non-negative) per-thread work.  A kernel that reduces its work as it
    runs passes the sums here instead of the work vector.
    """
    if total <= 0:
        return 1.0
    raw = max(1.0, paced / total)
    return 1.0 + (raw - 1.0) * DIVERGENCE_EXPOSURE


def occupancy(threads: int, saturation_threads: int) -> float:
    """Fraction of the device kept busy by a batch of ``threads`` lookups.

    Below the saturation point the device is underutilised and the effective
    throughput scales down linearly (Figure 15); above it, adding more
    lookups does not make each one cheaper.
    """
    if threads <= 0:
        return 0.0
    if saturation_threads <= 0:
        return 1.0
    return min(1.0, threads / float(saturation_threads))
