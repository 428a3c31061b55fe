"""Sorted key-rowID storage partitioned into fixed-size buckets.

cgRX keeps the indexed data itself in a single sorted array of key-rowID
pairs and only materialises one representative per *bucket* (a fixed-size
logical partition of that array) in the 3D scene.  This module owns the
sorted array, the bucket arithmetic and the memory-footprint accounting of
the array; :class:`~repro.core.index.CgRXIndex` searches its buckets.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.sort import device_radix_sort


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

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        """Device bytes of the sorted key-rowID array."""
        footprint = MemoryFootprint()
        footprint.add("key_rowid_array", len(self) * (self.key_bytes + self.rowid_bytes))
        return footprint
