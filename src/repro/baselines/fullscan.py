"""FullScan: scan the whole column and filter (the range-lookup strawman).

Included in Figure 14 of the paper as a sanity baseline: every range lookup
reads the entire key column.  Surprisingly it still beats RTScan (RTc1) for
batched range lookups because it at least keeps the GPU busy.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    delete_one_per_key,
    sorted_lookup_results,
)
from repro.core.keyspace import mark_misses, unsigned_points, unsigned_ranges
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint


class FullScanIndex(GpuIndex):
    """No index at all: answer every lookup by scanning the full column."""

    name = "FullScan"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = True
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

        self.keys = np.asarray(keys, dtype=key_dtype)
        if row_ids is None:
            row_ids = np.arange(self.keys.shape[0], dtype=np.uint32)
        self.row_ids = np.asarray(row_ids, dtype=np.uint32)
        self.build_stats = []
        self._rebuild_sorted_view()

    def _rebuild_sorted_view(self) -> None:
        # Internal sorted view used only to *compute* result values quickly in
        # the simulation; the cost accounting charges a full scan regardless.
        order = np.argsort(self.keys, kind="stable")
        self._sorted_keys = self.keys[order]
        self._sorted_row_ids = self.row_ids[order]
        self._rowid_prefix = np.concatenate(
            [[0], np.cumsum(self._sorted_row_ids.astype(np.int64))]
        )

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def _scan_stats(self, name: str, num_lookups: int, matches_written: int) -> KernelStats:
        """Each lookup reads the entire key column once."""
        return KernelStats(
            name=name,
            threads=max(num_lookups, 1) * 1024,
            bytes_read=num_lookups * len(self) * self.key_bytes,
            bytes_written=matches_written * 4 + num_lookups * 8,
            compute_ops=num_lookups * len(self),
            divergence=1.0,
            launches=1,
        )

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        keys, negative = unsigned_points(keys, self.keys.dtype)
        row_agg, match_counts = sorted_lookup_results(
            self._sorted_keys, self._rowid_prefix, keys
        )
        stats = self._scan_stats("fullscan.point_lookup", int(keys.shape[0]), int(match_counts.sum()))
        return mark_misses(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats), negative
        )

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        lows, highs = unsigned_ranges(lows, highs, self.keys.dtype)
        first = np.searchsorted(self._sorted_keys, lows, side="left")
        stop = np.searchsorted(self._sorted_keys, highs, side="right")
        row_ids: List[np.ndarray] = [
            self._sorted_row_ids[int(first[i]) : int(stop[i])].copy()
            for i in range(lows.shape[0])
        ]
        total = int(sum(r.shape[0] for r in row_ids))
        stats = self._scan_stats("fullscan.range_lookup", int(lows.shape[0]), total)
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Rewrite the column: append inserts, filter one occurrence per delete."""
        keys = self.keys
        row_ids = self.row_ids
        deleted = 0

        if delete_keys is not None and len(delete_keys) > 0:
            delete_keys = np.asarray(delete_keys, dtype=keys.dtype)
            keys, row_ids, deleted = delete_one_per_key(keys, row_ids, delete_keys)

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=keys.dtype)
            if insert_row_ids is None:
                insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
            keys = np.concatenate([keys, insert_keys])
            row_ids = np.concatenate([row_ids, np.asarray(insert_row_ids, dtype=np.uint32)])
            inserted = int(insert_keys.shape[0])

        old_length = len(self)
        self.keys = keys
        self.row_ids = row_ids
        self._rebuild_sorted_view()
        stats = KernelStats(
            name="fullscan.update",
            threads=max(1, old_length),
            bytes_read=old_length * (self.key_bytes + 4),
            bytes_written=len(self) * (self.key_bytes + 4),
            compute_ops=old_length + inserted,
            launches=1,
        )
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=True)

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("key_rowid_array", len(self) * (self.key_bytes + 4))
        return footprint
