"""SA: the GPU-resident sorted array baseline.

The most space-efficient structure in the comparison: just the sorted
key-rowID array.  Point lookups are binary searches (one thread per lookup),
range lookups are a binary search for the lower bound followed by a
cooperative scan.  Updates require a rebuild, like RX and static cgRX.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    sorted_lookup_results,
)
from repro.core.keyspace import drop_negative_points, scatter_answers, unsigned_ranges
from repro.gpu.cost_model import UNCOALESCED_ACCESS_BYTES
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.simt import COOPERATIVE_GROUP_SIZE, cooperative_scan_steps
from repro.gpu.sort import device_radix_sort


class SortedArrayIndex(GpuIndex):
    """Sorted array with binary-search lookups (SA in the paper)."""

    name = "SA"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = False
    supports_bulk_load = True
    memory_class = "low"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        key_bits: int = 64,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        if key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        self.key_bits = key_bits
        self.key_bytes = key_bits // 8
        key_dtype = np.uint32 if key_bits == 32 else np.uint64

        keys = np.asarray(keys, dtype=key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        self.keys, self.row_ids, sort_stats = device_radix_sort(keys, row_ids)
        self._rowid_prefix = np.concatenate([[0], np.cumsum(self.row_ids.astype(np.int64))])
        self.build_stats = [sort_stats]

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        keys, negative = drop_negative_points(keys, self.keys.dtype)
        row_agg, match_counts = sorted_lookup_results(self.keys, self._rowid_prefix, keys)

        num_lookups = int(keys.shape[0])
        probes = max(1, int(math.ceil(math.log2(len(self) + 1))))
        duplicates_read = int(np.maximum(match_counts - 1, 0).sum())
        stats = KernelStats(
            name="sa.point_lookup",
            threads=num_lookups,
            # Each binary-search probe is an uncoalesced random access and
            # drags in a full memory sector; the final probe also fetches the
            # rowID, duplicates are scanned.
            bytes_read=num_lookups * (probes * UNCOALESCED_ACCESS_BYTES + 4)
            + duplicates_read * (self.key_bytes + 4),
            bytes_written=num_lookups * 8,
            compute_ops=num_lookups * probes,
            divergence=1.2,
            launches=1,
        )
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self.memory_footprint().total_bytes, self._unique_fraction(keys)
        )
        return scatter_answers(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats), negative
        )

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        lows, highs = unsigned_ranges(lows, highs, self.keys.dtype)

        first = np.searchsorted(self.keys, lows, side="left")
        stop = np.searchsorted(self.keys, highs, side="right")
        row_ids: List[np.ndarray] = [
            self.row_ids[int(first[i]) : int(stop[i])].copy() for i in range(lows.shape[0])
        ]

        num_lookups = int(lows.shape[0])
        probes = max(1, int(math.ceil(math.log2(len(self) + 1))))
        scanned = int((stop - first).sum())
        scan_steps = sum(
            cooperative_scan_steps(int(stop[i] - first[i])) for i in range(num_lookups)
        )
        stats = KernelStats(
            name="sa.range_lookup",
            threads=num_lookups,
            bytes_read=num_lookups * probes * UNCOALESCED_ACCESS_BYTES
            + scan_steps * COOPERATIVE_GROUP_SIZE * (self.key_bytes + 4),
            bytes_written=scanned * 4,
            compute_ops=num_lookups * probes + scanned,
            divergence=1.2,
            launches=2,
        )
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self.memory_footprint().total_bytes, self._unique_fraction(lows)
        )
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """SA is static: updates are answered by rebuilding from scratch."""
        keys = self.keys
        row_ids = self.row_ids

        deleted = 0
        if delete_keys is not None and len(delete_keys) > 0:
            delete_keys = np.asarray(delete_keys, dtype=keys.dtype)
            keep = np.ones(keys.shape[0], dtype=bool)
            for target in delete_keys:
                position = int(np.searchsorted(keys, target, side="left"))
                while (
                    position < keys.shape[0]
                    and keys[position] == target
                    and not keep[position]
                ):
                    position += 1
                if position < keys.shape[0] and keys[position] == target:
                    keep[position] = False
                    deleted += 1
            keys = keys[keep]
            row_ids = row_ids[keep]

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=keys.dtype)
            if insert_row_ids is None:
                insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
            insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
            keys = np.concatenate([keys, insert_keys])
            row_ids = np.concatenate([row_ids, insert_row_ids])
            inserted = int(insert_keys.shape[0])

        self.keys, self.row_ids, sort_stats = device_radix_sort(keys, row_ids)
        self._rowid_prefix = np.concatenate([[0], np.cumsum(self.row_ids.astype(np.int64))])
        self.build_stats = [sort_stats]
        return UpdateResult(inserted=inserted, deleted=deleted, stats=sort_stats, rebuilt=True)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("key_rowid_array", len(self) * (self.key_bytes + 4))
        return footprint
