"""Compiled node-chain kernels for cgRXu point and range lookups.

The compiled tier runs each whole chain walk of a batch — one per key or
range — in one fused C loop over the :class:`~repro.core.nodes.NodeStorage`
slabs, using the kernel library of :mod:`repro.rtx.compiled`.

Zero-copy by construction: the kernels read the live ``NodeStorage`` slab
arrays directly (keys matrix, rowIDs, sizes, maxKeys, next pointers); only
the flattened ``(order, starts)`` chain tables are packed into the index's
shard-local arena.  Every pointer is bound into one C struct at pack time,
which happens whenever the chain cache is invalidated by an update or
compaction (or the slabs grow).

Both walks mirror the scalar reference exactly — the point walk
``CgRXuIndex._collect`` (skip rule, per-node ``searchsorted`` window,
entries-touched accounting, cross-bucket duplicate-group continuation) and
the range walk ``CgRXuIndex._range_lookup_batch_scalar`` (empty nodes
skipped, stop at the first key above ``high``, rows in walk order) — so
results and kernel counters stay byte-identical to the scalar engine.
"""

from __future__ import annotations

import ctypes
from typing import List, Tuple

import numpy as np

from repro.rtx.compiled import Arena, ChainTablesStruct, address, check_shapes, library


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
