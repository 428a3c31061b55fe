"""Compiled node-chain kernels for cgRXu lookups and updates.

The compiled tier runs each whole chain walk of a batch — one per key or
range — in one fused C loop over the :class:`~repro.core.nodes.NodeStorage`
slabs, and a whole update batch in one C call, using the kernel library of
:mod:`repro.rtx.compiled`.

Zero-copy by construction: the kernels read and write the live
``NodeStorage`` slab arrays directly (keys matrix, rowIDs, sizes, maxKeys,
next pointers); only the flattened ``(order, starts)`` chain tables are
packed into the index's shard-local arena.  Every pointer is bound into one
C struct at pack time.  Packing happens only when the chain structure
changes — an update that split nodes, a compaction, or linked-region growth
that moved the slabs: deletes and split-free inserts edit the slabs the
packed tables already point into.

The walks mirror the scalar reference exactly — the point walk
``CgRXuIndex._collect`` (skip rule, per-node ``searchsorted`` window,
entries-touched accounting, cross-bucket duplicate-group continuation) and
the range walk ``CgRXuIndex._range_lookup_batch_scalar`` (empty nodes
skipped, stop at the first key above ``high``, rows in walk order) — and so
does the update apply (``CgRXuIndex._delete_one`` / ``_insert_one`` with
the ``NodeStorage`` node edits, splits and allocator), so results, kernel
counters and node slabs stay byte-identical to the scalar engine.
"""

from __future__ import annotations

import ctypes
from typing import List, Tuple

import numpy as np

from repro.rtx.compiled import (
    Arena,
    ChainTablesStruct,
    NodeSlabsStruct,
    address,
    check_shapes,
    library,
)


class CompiledChainTables:
    """Arena-packed flattened chain tables bound to the node slabs."""

    def __init__(self, storage, order: np.ndarray, starts: np.ndarray, arena: Arena) -> None:
        self.arena = arena
        align = Arena.aligned
        arena.begin(align(order.shape[0] * 8) + align(starts.shape[0] * 8))
        self.order = arena.alloc(order.shape[0], np.int64)
        np.copyto(self.order, order)
        self.starts = arena.alloc(starts.shape[0], np.int64)
        np.copyto(self.starts, starts)
        #: The slabs the struct points into; a slab reallocation (linked
        #: region growth) must repack the tables.
        self.slabs = (
            storage.keys_matrix,
            storage.row_ids_matrix,
            storage.sizes_array,
            storage.max_keys_array,
            storage.next_array,
        )
        keys, row_ids, sizes, max_keys, next_node = self.slabs
        self.key_dtype = keys.dtype
        self.struct = ChainTablesStruct(
            order=address(self.order),
            starts=address(self.starts),
            keys=address(keys),
            row_ids=address(row_ids),
            sizes=address(sizes),
            max_keys=address(max_keys),
            next_node=address(next_node),
            order_len=int(order.shape[0]),
            overflow_bucket=int(starts.shape[0]) - 2,
            capacity=int(storage.node_capacity),
            key_is_64=int(keys.dtype.itemsize == 8),
        )
        #: Address of :attr:`struct`, passed to every kernel call.
        self.ref = ctypes.addressof(self.struct)

    def bound_to(self, storage) -> bool:
        """Whether the tables still point at ``storage``'s current slabs."""
        return self.slabs[0] is storage.keys_matrix and self.slabs[4] is storage.next_array


def chain_walk_batch(
    tables: CompiledChainTables, bucket_ids: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused point-lookup chain walk for a whole key batch.

    ``bucket_ids`` are the routed buckets (:data:`~repro.core.representation.MISS`
    walks the overflow bucket).  Returns per-key ``(row_sum, matches,
    nodes_visited, entries)`` exactly as ``CgRXuIndex._collect`` would.
    Requires the kernel library (callers resolve the engine first).
    """
    keys = np.ascontiguousarray(keys, dtype=tables.key_dtype)
    bucket_ids = np.ascontiguousarray(bucket_ids, dtype=np.int64)
    num_keys = int(keys.shape[0])
    check_shapes((keys, (num_keys,)), (bucket_ids, (num_keys,)))
    out = np.empty((4, num_keys), dtype=np.int64)
    library().chain_walk(tables.ref, num_keys, address(keys), address(bucket_ids), address(out))
    row_sum, matches, nodes_visited, entries = out
    return row_sum, matches, nodes_visited, entries


def range_walk_batch(
    tables: CompiledChainTables,
    bucket_ids: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    capacity: int,
) -> Tuple[List[np.ndarray], int, int, int]:
    """Fused forward range walk for a whole batch of ranges.

    Rows land in one flat array in scalar walk order with per-query
    offsets; ``capacity`` sizes that array, and a walk that needs more is
    rerun once into an exactly sized one.  Returns ``(rows per query, total
    rows, nodes visited, entries touched)``.  Requires the kernel library.
    """
    lib = library()
    lows = np.ascontiguousarray(lows, dtype=tables.key_dtype)
    highs = np.ascontiguousarray(highs, dtype=tables.key_dtype)
    bucket_ids = np.ascontiguousarray(bucket_ids, dtype=np.int64)
    num_queries = int(lows.shape[0])
    check_shapes(
        (lows, (num_queries,)), (highs, (num_queries,)), (bucket_ids, (num_queries,))
    )
    offsets = np.empty(num_queries + 1, dtype=np.int64)
    totals = np.empty(2, dtype=np.int64)
    rows = np.empty(max(int(capacity), 1), dtype=np.uint32)
    for _ in range(2):
        needed = lib.range_walk(
            tables.ref, num_queries, address(lows), address(highs), address(bucket_ids),
            address(rows), rows.shape[0], address(offsets), address(totals),
        )
        if needed <= rows.shape[0]:
            break
        rows = np.empty(needed, dtype=np.uint32)
    bounds = offsets.tolist()
    results = [rows[start:end] for start, end in zip(bounds, bounds[1:])]
    return results, int(needed), int(totals[0]), int(totals[1])


def apply_updates_batch(
    storage,
    overflow_bucket: int,
    slices: np.ndarray,
    delete_keys: np.ndarray,
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
    totals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a sorted update batch to ``storage``'s chains in one C call.

    ``slices`` holds one ``(bucket, delete lo, delete hi, insert lo, insert
    hi)`` row per touched bucket, in bucket order: its share of the sorted
    ``delete_keys`` and ``insert_keys``.  ``totals`` (int64, 4) accumulates
    inserted, deleted, nodes visited and ops; the caller owns it so an
    interrupted apply still reports what ran.

    The slabs are never grown ahead of need (their size is part of the
    memory footprint): when a split finds neither a released nor a reserved
    linked node, the kernel stops before that insert, the linked region
    grows exactly as ``NodeStorage.allocate_linked_node`` would grow it, and
    the kernel resumes on the new slabs — one more call per growth.  The
    allocator state (free list, linked nodes used) is written back after
    every call.  Returns per touched bucket ``(nodes visited, split)``.
    Requires the kernel library.
    """
    lib = library()
    key_dtype = storage.key_dtype
    slices = np.ascontiguousarray(slices, dtype=np.int64)
    delete_keys = np.ascontiguousarray(delete_keys, dtype=key_dtype)
    insert_keys = np.ascontiguousarray(insert_keys, dtype=key_dtype)
    insert_row_ids = np.ascontiguousarray(insert_row_ids, dtype=np.uint32)
    num_touched = int(slices.shape[0])
    check_shapes(
        (slices, (num_touched, 5)),
        (insert_row_ids, insert_keys.shape),
        (totals, (4,)),
    )
    if totals.dtype != np.int64:
        raise ValueError("totals must be int64")
    if num_touched and not (
        0 <= slices[:, 0].min()
        and slices[:, 0].max() <= overflow_bucket
        and (slices[:, 1] <= slices[:, 2]).all()
        and (slices[:, 3] <= slices[:, 4]).all()
        and slices[:, 1:].min() >= 0
        and slices[:, 2].max() <= delete_keys.shape[0]
        and slices[:, 4].max() <= insert_keys.shape[0]
    ):
        raise ValueError("update slices out of range")
    free_nodes = np.asarray(storage._free_nodes, dtype=np.int64)
    work = np.zeros(num_touched, dtype=np.int64)
    split = np.zeros(num_touched, dtype=np.uint8)
    cursor = np.asarray([0, -1], dtype=np.int64)
    slabs = NodeSlabsStruct(
        free_nodes=address(free_nodes),
        free_count=int(free_nodes.shape[0]),
        linked_used=int(storage._linked_used),
        num_representative=int(storage.num_representative_nodes),
        overflow_bucket=int(overflow_bucket),
        capacity=int(storage.node_capacity),
        key_is_64=int(key_dtype.itemsize == 8),
    )
    while True:
        slabs.keys = address(storage.keys_matrix)
        slabs.row_ids = address(storage.row_ids_matrix)
        slabs.sizes = address(storage.sizes_array)
        slabs.max_keys = address(storage.max_keys_array)
        slabs.next_node = address(storage.next_array)
        slabs.total_nodes = int(storage.keys_matrix.shape[0])
        needs_growth = lib.apply_updates(
            ctypes.addressof(slabs), num_touched, address(slices),
            address(delete_keys), address(insert_keys), address(insert_row_ids),
            address(cursor), address(work), address(split), address(totals),
        )
        storage._linked_used = int(slabs.linked_used)
        del storage._free_nodes[slabs.free_count :]
        if not needs_growth:
            return work, split.view(bool)
        storage._grow_linked_region()
