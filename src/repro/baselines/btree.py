"""B+: a GPU-resident B+-tree with cooperative 16-thread node traversal.

Modelled after MVGpuBTree / the Owens-group GPU B-trees used as the B+
baseline in the paper: 128-byte nodes holding up to 16 entries, traversed by
a cooperative group of 16 threads, supporting 32-bit keys only.  Lookups are
insensitive to lookup skew because the execution is bottlenecked by block
synchronisation and divergent branches (the "address divergence unit"
observation in Section VI-E), which we model with a fixed divergence
multiplier and no cache benefit.

Simulation note: the logical content of the tree is kept in a flat sorted
array (plus derived level boundaries) because that is by far the fastest way
to compute *result values* in Python.  The cost accounting, however, follows
the node structure: per-level node reads during traversal, per-leaf-node
reads during range scans, and per-update traversals plus node writes (never
a full rebuild).
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
from repro.core.keyspace import mark_misses, unsigned_points, unsigned_ranges
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.sort import device_radix_sort

#: Bytes per tree node (one cache line, as in MVGpuBTree).
NODE_BYTES = 128
#: Maximum entries per node (16 key-value or key-child pairs of 8 bytes).
NODE_CAPACITY = 16
#: Fraction of a leaf filled at bulk-load time (slack for inserts).
LEAF_FILL_FACTOR = 0.55
#: Entries per leaf at that fill.
ENTRIES_PER_LEAF = int(NODE_CAPACITY * LEAF_FILL_FACTOR)


class BPlusTreeIndex(GpuIndex):
    """GPU B+-tree baseline (32-bit keys only), bulk-loaded with leaves
    :data:`LEAF_FILL_FACTOR` full."""

    name = "B+"
    supports_point = True
    supports_range = True
    supports_64bit = False
    supports_updates = True
    supports_bulk_load = True
    memory_class = "med"

    #: Divergence multiplier modelling the address-divergence bottleneck.
    _DIVERGENCE = 1.8

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        key_bits: int = 32,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        if key_bits != 32:
            raise ValueError("the B+ baseline only supports 32-bit keys (as in the paper)")
        self.key_bits = key_bits
        self.key_bytes = 4

        keys = np.asarray(keys, dtype=np.uint32)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        self.keys, self.row_ids, sort_stats = device_radix_sort(keys, row_ids)
        self._refresh_derived()
        self.build_stats = [
            sort_stats,
            KernelStats(
                name="btree.bulk_load",
                threads=self.num_leaf_nodes,
                bytes_read=len(self) * (self.key_bytes + 4),
                bytes_written=self.total_nodes * NODE_BYTES,
                compute_ops=len(self),
                launches=1,
            ),
        ]

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    # ------------------------------------------------------------- structure

    def _refresh_derived(self) -> None:
        """Recompute prefix sums and node counts after the contents changed."""
        self._rowid_prefix = np.concatenate([[0], np.cumsum(self.row_ids.astype(np.int64))])
        self.num_leaf_nodes = max(1, -(-len(self) // ENTRIES_PER_LEAF))
        # Internal levels with full fanout over the leaf count.
        internal = 0
        level_nodes = self.num_leaf_nodes
        self.height = 1
        while level_nodes > 1:
            level_nodes = -(-level_nodes // NODE_CAPACITY)
            internal += level_nodes
            self.height += 1
        self.num_internal_nodes = internal

    @property
    def total_nodes(self) -> int:
        """Leaf plus internal nodes."""
        return self.num_leaf_nodes + self.num_internal_nodes

    @property
    def _traversal_bytes(self) -> int:
        """DRAM bytes one lookup's root-to-leaf traversal costs.

        The top three levels of the tree are small enough to stay cache
        resident across a batch; every level below them is an uncoalesced
        random node access charged in full.
        """
        cached_levels = min(3, self.height)
        cold_levels = max(0, self.height - cached_levels)
        return int(cold_levels * NODE_BYTES + cached_levels * NODE_BYTES * 0.2)

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        keys, negative = unsigned_points(keys, np.uint32)
        row_agg, match_counts = sorted_lookup_results(self.keys, self._rowid_prefix, keys)

        num_lookups = int(keys.shape[0])
        # Every lookup walks one node per level; the cooperative group reads
        # the whole 128-byte node coalesced and the upper levels hit in cache.
        stats = KernelStats(
            name="btree.point_lookup",
            threads=num_lookups,
            bytes_read=num_lookups * self._traversal_bytes + num_lookups * self.key_bytes,
            bytes_written=num_lookups * 8,
            compute_ops=num_lookups * self.height * NODE_CAPACITY,
            divergence=self._DIVERGENCE,
            launches=1,
        )
        # The address-divergence bottleneck makes B+ insensitive to skew.
        stats.cache_hit_fraction = 0.0
        return mark_misses(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats), negative
        )

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        lows, highs = unsigned_ranges(lows, highs, np.uint32)

        first = np.searchsorted(self.keys, lows, side="left")
        stop = np.searchsorted(self.keys, highs, side="right")
        row_ids: List[np.ndarray] = [
            self.row_ids[int(first[i]) : int(stop[i])].copy() for i in range(lows.shape[0])
        ]

        num_lookups = int(lows.shape[0])
        matched = (stop - first).astype(np.int64)
        # A range lookup traverses to the leaf of the lower bound and then
        # scans individual leaf nodes; each touched leaf costs a full node
        # read (this per-node overhead is why cgRX's contiguous scan edges it
        # out at low selectivities).
        leaves_touched = np.maximum(1, -(-matched // ENTRIES_PER_LEAF) + 1)
        stats = KernelStats(
            name="btree.range_lookup",
            threads=num_lookups,
            bytes_read=num_lookups * self._traversal_bytes
            + int(leaves_touched.sum()) * NODE_BYTES,
            bytes_written=int(matched.sum()) * 4,
            compute_ops=num_lookups * self.height * NODE_CAPACITY + int(matched.sum()),
            divergence=self._DIVERGENCE,
            launches=1,
        )
        stats.cache_hit_fraction = 0.0
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """In-place updates: per-key traversal plus leaf modification (no rebuild)."""
        stats = KernelStats(name="btree.update", launches=1)
        deleted = 0
        keys = self.keys
        row_ids = self.row_ids

        if delete_keys is not None and len(delete_keys) > 0:
            delete_keys = np.asarray(delete_keys, dtype=np.uint32)
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
            stats.threads = max(stats.threads, int(delete_keys.shape[0]))
            stats.bytes_read += int(delete_keys.shape[0]) * self.height * NODE_BYTES
            stats.bytes_written += deleted * NODE_BYTES
            stats.compute_ops += int(delete_keys.shape[0]) * self.height * NODE_CAPACITY

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=np.uint32)
            if insert_row_ids is None:
                insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
            insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
            # np.insert places same-position values in argument order, so an
            # unsorted batch would break the sorted-leaf invariant (found by
            # the differential fuzzer); sort the batch first.
            order = np.argsort(insert_keys, kind="stable")
            insert_keys = insert_keys[order]
            insert_row_ids = insert_row_ids[order]
            positions = np.searchsorted(keys, insert_keys)
            keys = np.insert(keys, positions, insert_keys)
            row_ids = np.insert(row_ids, positions, insert_row_ids)
            inserted = int(insert_keys.shape[0])
            # Roughly one in ``ENTRIES_PER_LEAF`` inserts splits a leaf.
            splits = inserted // ENTRIES_PER_LEAF
            stats.threads = max(stats.threads, inserted)
            stats.bytes_read += inserted * self.height * NODE_BYTES
            stats.bytes_written += inserted * NODE_BYTES + splits * 2 * NODE_BYTES
            stats.compute_ops += inserted * self.height * NODE_CAPACITY

        stats.divergence = self._DIVERGENCE
        self.keys = keys
        self.row_ids = row_ids
        self._refresh_derived()
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=False)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("leaf_nodes", self.num_leaf_nodes * NODE_BYTES)
        footprint.add("internal_nodes", self.num_internal_nodes * NODE_BYTES)
        return footprint
