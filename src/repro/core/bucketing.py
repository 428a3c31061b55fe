"""Sorted key-rowID storage partitioned into fixed-size buckets.

cgRX keeps the indexed data itself in a single sorted array of key-rowID
pairs and only materialises one representative per *bucket* (a fixed-size
logical partition of that array) in the 3D scene.  This module owns the
sorted array, the bucket arithmetic, the duplicate-aware scan semantics of
point and range lookups, and the memory-footprint accounting of the array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.sort import device_radix_sort


@dataclass
class ScanResult:
    """Outcome of scanning a bucket (and possibly trailing duplicates) for a key."""

    #: RowIDs of all matching entries (empty on a miss).
    row_ids: np.ndarray
    #: Number of entries the scan had to touch (drives the cost model).
    entries_scanned: int

    @property
    def hit(self) -> bool:
        return self.row_ids.size > 0

    def aggregate(self) -> int:
        """Aggregated rowID value (the paper aggregates rowIDs per lookup)."""
        return int(self.row_ids.sum()) if self.row_ids.size else -1


class BucketedKeys:
    """A sorted key-rowID array logically partitioned into equal-size buckets."""

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: np.ndarray,
        bucket_size: int,
        key_bytes: int = 8,
        rowid_bytes: int = 4,
        presorted: bool = False,
    ) -> None:
        keys = np.asarray(keys)
        row_ids = np.asarray(row_ids)
        if keys.shape[0] != row_ids.shape[0]:
            raise ValueError("keys and row_ids must have the same length")
        if keys.shape[0] == 0:
            raise ValueError("cannot bucket an empty key set")
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")

        if presorted:
            self.keys = keys
            self.row_ids = row_ids
            self.sort_stats = KernelStats(name="bucketing.presorted")
        else:
            self.keys, self.row_ids, self.sort_stats = device_radix_sort(keys, row_ids)

        self.bucket_size = int(bucket_size)
        self.key_bytes = int(key_bytes)
        self.rowid_bytes = int(rowid_bytes)

    # --------------------------------------------------------------- geometry

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def num_buckets(self) -> int:
        """Number of buckets (the last one may be partially filled)."""
        return -(-len(self) // self.bucket_size)

    def bucket_bounds(self, bucket_id: int) -> Tuple[int, int]:
        """Half-open index range ``[start, end)`` of ``bucket_id`` in the sorted array."""
        if not 0 <= bucket_id < self.num_buckets:
            raise IndexError(f"bucket_id {bucket_id} out of range")
        start = bucket_id * self.bucket_size
        end = min(start + self.bucket_size, len(self))
        return start, end

    def representative_index(self, bucket_id: int) -> int:
        """Index (in the sorted array) of the bucket's representative (its last key)."""
        _, end = self.bucket_bounds(bucket_id)
        return end - 1

    def representative(self, bucket_id: int) -> int:
        """The bucket's representative key (its largest key)."""
        return int(self.keys[self.representative_index(bucket_id)])

    def representatives(self) -> np.ndarray:
        """Representatives of all buckets (vectorised)."""
        ends = np.minimum(
            (np.arange(self.num_buckets) + 1) * self.bucket_size, len(self)
        )
        return self.keys[ends - 1]

    @property
    def min_representative(self) -> int:
        """Representative of the first bucket (``minRep`` in the paper's pseudo-code)."""
        return self.representative(0)

    @property
    def max_representative(self) -> int:
        """Largest key in the data set (``maxRep``)."""
        return int(self.keys[-1])

    def bucket_of_position(self, position: int) -> int:
        """Bucket containing the sorted-array position ``position``."""
        return int(position) // self.bucket_size

    # ------------------------------------------------------------------ scans

    def scan_point(self, bucket_id: int, key: int) -> ScanResult:
        """Scan ``bucket_id`` (and trailing duplicates) for ``key``.

        Mirrors the paper's scan semantics: start at the bucket's first entry
        and stop at the first key larger than the target, so duplicate groups
        spilling into subsequent buckets are fully retrieved.
        """
        start, _ = self.bucket_bounds(bucket_id)
        key = np.asarray(key, dtype=self.keys.dtype)
        left = int(np.searchsorted(self.keys, key, side="left"))
        right = int(np.searchsorted(self.keys, key, side="right"))
        if left >= right:
            # Miss: the scan runs from the bucket start until the first key
            # larger than the target (position ``left``).
            scanned = min(max(1, left - start + 1), len(self) - start)
            return ScanResult(
                row_ids=np.empty(0, dtype=self.row_ids.dtype), entries_scanned=scanned
            )
        # Hit: the scan touches everything from the bucket start up to and
        # including the first key larger than the target.  If the identified
        # bucket starts after the first duplicate (which a correct lookup
        # never does), only the entries from the bucket start onwards are
        # returned — tests compare against ground truth to surface such bugs.
        first = max(left, start)
        row_ids = self.row_ids[first:right]
        scanned = min(max(1, right - start + 1), len(self) - start)
        return ScanResult(row_ids=row_ids.copy(), entries_scanned=scanned)

    def scan_range(self, bucket_id: int, low: int, high: int) -> ScanResult:
        """Scan from the start of ``bucket_id`` collecting all entries in ``[low, high]``."""
        if high < low:
            raise ValueError("range upper bound must be >= lower bound")
        start, _ = self.bucket_bounds(bucket_id)
        low_arr = np.asarray(low, dtype=self.keys.dtype)
        high_arr = np.asarray(high, dtype=self.keys.dtype)
        first = int(np.searchsorted(self.keys, low_arr, side="left"))
        stop = int(np.searchsorted(self.keys, high_arr, side="right"))
        first = max(first, start)
        if stop <= first:
            scanned = max(1, min(stop, len(self)) - start + 1)
            scanned = min(scanned, len(self) - start)
            return ScanResult(row_ids=np.empty(0, dtype=self.row_ids.dtype), entries_scanned=scanned)
        row_ids = self.row_ids[first:stop]
        # The scan starts at the bucket start and stops one element past the
        # last qualifying entry (the first key > high), as in the paper.
        scanned = min(stop - start + 1, len(self) - start)
        return ScanResult(row_ids=row_ids.copy(), entries_scanned=scanned)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        """Device bytes of the sorted key-rowID array."""
        footprint = MemoryFootprint()
        footprint.add("key_rowid_array", len(self) * (self.key_bytes + self.rowid_bytes))
        return footprint
