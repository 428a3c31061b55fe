"""RTScan (RTc1): the ray-per-position range-scan competitor.

RTScan parallelises a *single* range lookup by firing one ray per candidate
position of the range concurrently; the number of rays therefore grows with
the width of the range, not with the number of qualifying keys.  It was not
designed for large *batches* of range lookups: even with the paper's
extension that executes 32 range lookups concurrently, a batch of tens of
thousands of lookups is processed in small waves, which leaves the GPU
underutilised and makes RTScan orders of magnitude slower than cgRX (and even
slower than a full scan) in Figure 14.

RTScan does not support point lookups out of the box, so
:meth:`point_lookup_batch` raises :class:`UnsupportedOperation`.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UnsupportedOperation,
)
from repro.core.key_mapping import KeyMapping
from repro.core.keyspace import unsigned_ranges
from repro.gpu.accel import accel_build_stats, triangle_generation_stats
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.cost_model import RT_NODE_RESIDUAL_BYTES, RT_TRIANGLE_RESIDUAL_BYTES
from repro.gpu.sort import device_radix_sort
from repro.rtx.bvh import BVH_NODE_BYTES
from repro.rtx.geometry import TRIANGLE_BYTES

#: Number of range lookups executed concurrently (the batching extension the
#: paper added for a fair comparison).
CONCURRENT_LOOKUPS = 32


class RTScanIndex(GpuIndex):
    """RTScan (RTc1): hardware-raytraced scans, one ray per candidate position."""

    name = "RTScan (RTc1)"
    supports_point = False
    supports_range = True
    supports_64bit = False  # "limited" in Table I; we restrict it to 32-bit keys.
    supports_updates = False
    supports_bulk_load = False  # Table I: bulk loading happens on the CPU.
    memory_class = "high"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        key_bits: int = 32,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        if key_bits != 32:
            raise ValueError("the RTScan baseline supports 32-bit keys only")
        self.key_bits = key_bits
        self.key_bytes = 4
        self.mapping = KeyMapping.for_key_bits(32, scaled=True)

        keys = np.asarray(keys, dtype=np.uint32)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        # RTScan also represents keys as primitives in an RT scene; we account
        # for the structure analytically (triangle buffer + BVH) instead of
        # materialising it, because its lookups never return early and their
        # cost is a simple function of the range width.
        self.num_keys = int(keys.shape[0])
        self._triangle_bytes = self.num_keys * TRIANGLE_BYTES
        self._bvh_bytes = self.num_keys * (BVH_NODE_BYTES // 2 + 4)
        self._bvh_depth = max(1, int(math.ceil(math.log2(self.num_keys + 1))))

        self.keys, self.row_ids, sort_stats = device_radix_sort(keys, row_ids)
        self.build_stats = [
            sort_stats,
            triangle_generation_stats(self.num_keys, self.num_keys),
            accel_build_stats(self.num_keys, self._bvh_bytes),
        ]

    def __len__(self) -> int:
        return self.num_keys

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        raise UnsupportedOperation("RTScan (RTc1) does not support point lookups")

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        lows, highs = unsigned_ranges(lows, highs, np.uint32)

        first = np.searchsorted(self.keys, lows, side="left")
        stop = np.searchsorted(self.keys, highs, side="right")
        row_ids: List[np.ndarray] = [
            self.row_ids[int(first[i]) : int(stop[i])].copy() for i in range(lows.shape[0])
        ]

        num_lookups = int(lows.shape[0])
        # One ray per candidate position of each range, regardless of how many
        # keys actually qualify.
        widths = (highs.astype(np.int64) - lows.astype(np.int64) + 1).clip(min=1)
        total_rays = int(widths.sum())
        average_width = float(widths.mean()) if num_lookups else 1.0
        # RTScan materialises its result as a bitmap over the whole table; the
        # bitmap is cleared and compacted once per range lookup.
        bitmap_bytes = num_lookups * 2 * (self.num_keys // 8)

        stats = KernelStats(
            name="rtscan.range_lookup",
            # Only 32 lookups run concurrently, so the resident parallelism is
            # 32 x the per-lookup ray count, and the batch needs one launch
            # wave per 32 lookups.
            threads=int(CONCURRENT_LOOKUPS * average_width),
            launches=max(1, -(-num_lookups // CONCURRENT_LOOKUPS)),
            rays_cast=total_rays,
            bvh_node_visits=total_rays * self._bvh_depth,
            triangle_tests=total_rays,
            bytes_read=total_rays
            * (self._bvh_depth * RT_NODE_RESIDUAL_BYTES + RT_TRIANGLE_RESIDUAL_BYTES)
            + bitmap_bytes,
            bytes_written=int((stop - first).sum()) * 4 + bitmap_bytes,
            compute_ops=total_rays,
            divergence=1.3,
        )
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("triangle_buffer", self._triangle_bytes)
        footprint.add("bvh", self._bvh_bytes)
        footprint.add("key_rowid_array", self.num_keys * (self.key_bytes + 4))
        return footprint
