"""Compiled point batches of both cgRX indexes, and cgRXu's range batches
and node-chain kernels for updates and compaction.

A point batch of either index, under either scene representation, is one
``point_lookup`` C call over buffers bound once per index
(:class:`CompiledLookupBatch`): routing, then per key a
chain walk over cgRXu's :class:`~repro.core.nodes.NodeStorage` slabs or a
binary search of the located bucket of cgRX's
:class:`~repro.core.bucketing.BucketedKeys` (read in place), and the kernel
record's reductions.  A cgRXu range batch is one ``range_lookup`` call over
the same buffers: routing of each range's low, the forward chain walk, the
rows of every range in one flat buffer with per-range offsets, and the
reductions.  The compiled tier also runs a whole update batch in one C
call, using the kernel library of :mod:`repro.rtx.compiled`.  A
compaction pass is two C calls around the re-anchor decisions, which stay
in Python: :func:`chain_tails` reports each selected chain's node count,
entry count and last key, and :func:`compact_chains` re-packs the chains
like ``NodeStorage.compact_chain`` and hands back their surplus nodes.
After an update that split nodes, or a compaction, :func:`patch_chain_tables`
re-flattens the cached ``(order, starts)`` tables in one more call: it copies
each run of untouched chains whole and re-walks only the changed ones, so the
Python cost of a write follows the buckets it touched, not the index size.

Zero-copy by construction: the kernels read and write the live
``NodeStorage`` slab arrays directly (keys matrix, rowIDs, sizes, maxKeys,
next pointers); only the flattened ``(order, starts)`` chain tables are
packed into the index's shard-local arena.  Every pointer is bound into one
C struct at pack time.  Packing happens only when the chain structure
changes — an update that split nodes, a compaction, or linked-region growth
that moved the slabs: deletes and split-free inserts edit the slabs the
packed tables already point into.

The kernels mirror the scalar reference exactly — the bucket search
``CgRXIndex._post_filter`` (scan count from the bucket start through the
first larger key, duplicate runs spilling into later buckets, a run that
starts before the located bucket is a miss), the point walk
``CgRXuIndex._collect`` (skip rule, per-node ``searchsorted`` window,
entries-touched accounting, cross-bucket duplicate-group continuation) and
the range walk ``CgRXuIndex._range_lookup_batch_scalar`` (empty nodes
skipped, stop at the first key above ``high``, rows in walk order) — and so
does the update apply (``CgRXuIndex._delete_one`` / ``_insert_one`` with
the ``NodeStorage`` node edits, splits and allocator) and the compaction
(``NodeStorage.compact_chain``: stale slots kept, surplus nodes zeroed and
freed in bucket, then chain order), so results, kernel counters, node slabs,
the free list and the chain tables stay byte-identical to the scalar engine.
"""

from __future__ import annotations

import ctypes
from typing import List, Tuple

import numpy as np

from repro.obs import profile as _profile
from repro.rtx.compiled import (
    Arena,
    ChainTablesStruct,
    LookupBatchStruct,
    NodeSlabsStruct,
    SortedBucketsStruct,
    address,
    check_shapes,
    library,
)
from repro.rtx.traversal import RayStats


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


class CompiledLookupBatch:
    """The buffers of one index's compiled point and range batches, bound
    once.

    Keys in (a point batch's keys or a range batch's lows), range highs in,
    point answers out (rowID aggregate, match count and entries touched per
    key), range rows out (one flat buffer with per-range offsets), the
    kernel's reductions and the distinct-count scratch all live here.
    Their pointers sit in one :class:`LookupBatchStruct` next to the
    index's table pointers (cgRXu's chain tables or cgRX's bucketed keys),
    the BVH table pointers and the representation's route params, so a
    batch is one ``point_lookup`` or ``range_lookup`` call that routes its
    keys and converts nothing.  The buffers are sized by the first batch
    that needs them — the highs, offsets and rows by the first range
    batch, so a point-only index holds none — and grow geometrically only
    when a batch's keys, ranges or rows exceed them (a range batch that
    overflows the rows buffer runs once more after the growth);
    :meth:`bind` re-points the table fields without touching them.
    """

    #: Names of the kernel's reductions, in the order it writes them.
    REDUCTIONS = (
        "rays", "ray_nodes", "triangle_tests", "hits", "deepest_ray_nodes",
        "chain_nodes", "entries", "paced_work", "sampled_work", "distinct_keys",
    )

    def __init__(self, key_dtype) -> None:
        self.key_dtype = np.dtype(key_dtype)
        self.capacity = 0
        self.reductions = np.zeros(len(self.REDUCTIONS), dtype=np.int64)
        self.struct = LookupBatchStruct(reductions=address(self.reductions))
        #: Address of :attr:`struct`, passed to every kernel call.
        self.ref = ctypes.addressof(self.struct)
        #: ``(tables, BVH tables, route params)`` the struct points at; held
        #: so the memory behind those pointers stays alive.
        self.bound: Tuple = (None, None, None)
        #: The :class:`SortedBucketsStruct` over bound bucketed keys.
        self._buckets = None
        self._reserve(0)
        self._reserve_ranges(0)
        self._reserve_rows(0)

    def bind(self, tables, bvh, params) -> None:
        """Point the struct at ``tables`` — a cgRXu index's
        :class:`CompiledChainTables` or a cgRX index's
        :class:`~repro.core.bucketing.BucketedKeys` — and at the ``bvh``
        tables and route ``params`` of the fused routing."""
        bound_tables, bound_bvh, bound_params = self.bound
        if bound_tables is tables and bound_bvh is bvh and bound_params is params:
            return
        chain = isinstance(tables, CompiledChainTables)
        key_dtype = tables.key_dtype if chain else tables.keys.dtype
        if key_dtype != self.key_dtype:
            raise ValueError(f"tables of {key_dtype} keys, batch of {self.key_dtype}")
        if chain:
            self.struct.chain = tables.ref
            self.struct.sorted = None
        else:
            if tables.row_ids.dtype != np.uint32:
                raise ValueError("bucketed rowIDs must be uint32")
            self._buckets = SortedBucketsStruct(
                keys=address(tables.keys),
                row_ids=address(tables.row_ids),
                num_entries=len(tables),
                bucket_size=tables.bucket_size,
                key_is_64=int(key_dtype.itemsize == 8),
            )
            self.struct.chain = None
            self.struct.sorted = ctypes.addressof(self._buckets)
        self.struct.bvh = bvh.ref
        self.struct.route = ctypes.addressof(params)
        self.bound = (tables, bvh, params)

    def _reserve(self, capacity: int) -> None:
        self.keys = np.empty(capacity, dtype=self.key_dtype)
        self.answers = np.empty((3, capacity), dtype=np.int64)
        # The distinct-key count's hash table: up to 4 slots per key.
        self.scratch = np.empty(4 * capacity, dtype=np.uint64)
        struct = self.struct
        struct.keys = address(self.keys)
        struct.row_ids = address(self.answers[0])
        struct.matches = address(self.answers[1])
        struct.scanned = address(self.answers[2])
        struct.scratch = address(self.scratch)
        self.capacity = capacity

    def _reserve_ranges(self, capacity: int) -> None:
        self.highs = np.empty(capacity, dtype=self.key_dtype)
        self.offsets = np.empty(capacity + 1, dtype=np.int64)
        self.struct.highs = address(self.highs)
        self.struct.offsets = address(self.offsets)

    def _reserve_rows(self, capacity: int) -> None:
        self.rows = np.empty(capacity, dtype=np.uint32)
        self.struct.rows = address(self.rows)
        self.struct.rows_capacity = capacity

    @property
    def nbytes(self) -> int:
        """Host bytes held by the batch buffers."""
        return sum(
            array.nbytes
            for array in (
                self.keys, self.highs, self.answers, self.offsets, self.scratch,
                self.rows, self.reductions,
            )
        )

    def _load(self, keys: np.ndarray) -> int:
        """Copy a batch's keys into the buffers (grown first when the batch
        exceeds them).  Returns the batch size."""
        num_keys = int(keys.shape[0])
        check_shapes((keys, (num_keys,)))
        if self.bound[0] is None:
            raise ValueError("a batch needs bound tables")
        if num_keys > self.capacity:
            self._reserve(max(num_keys, 2 * self.capacity))
        self.keys[:num_keys] = keys
        return num_keys

    def run(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
        """One ``point_lookup`` call over ``keys``.

        Returns fresh ``(row_ids, match_counts, entries)`` arrays —
        ``entries`` per key is cgRXu's entries touched or cgRX's entries
        scanned — and the :attr:`REDUCTIONS` values.  Requires the kernel
        library.
        """
        num_keys = self._load(keys)
        library().point_lookup(self.ref, num_keys)
        row_ids, match_counts, entries = self.answers[:, :num_keys].copy()
        return row_ids, match_counts, entries, self.reductions.tolist()

    def run_ranges(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[List[np.ndarray], int, List[int]]:
        """One ``range_lookup`` call over the ranges ``[lows, highs]`` of
        bound cgRXu chain tables.

        When the ranges need more rows than the rows buffer holds, it grows
        and the call runs once more.  Returns each range's rows in walk
        order (views of one fresh copy of the flat rows, never of the
        buffer), the total row count and the :attr:`REDUCTIONS` values
        (``distinct_keys`` counts the lows).  Requires the kernel library.
        """
        if not isinstance(self.bound[0], CompiledChainTables):
            raise ValueError("range batches walk bound cgRXu chain tables")
        num_ranges = self._load(lows)
        check_shapes((highs, (num_ranges,)))
        if num_ranges > self.highs.shape[0]:
            self._reserve_ranges(max(num_ranges, 2 * self.highs.shape[0]))
        self.highs[:num_ranges] = highs
        lib = library()
        needed = lib.range_lookup(self.ref, num_ranges)
        if needed > self.rows.shape[0]:
            self._reserve_rows(max(needed, 2 * self.rows.shape[0]))
            lib.range_lookup(self.ref, num_ranges)
        rows = self.rows[:needed].copy()
        bounds = self.offsets[: num_ranges + 1].tolist()
        per_range = [rows[start:end] for start, end in zip(bounds, bounds[1:])]
        return per_range, needed, self.reductions.tolist()

    def lookup(
        self, keys: np.ndarray, tables, representation, pipeline
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, RayStats, List[int]]:
        """One point batch of an index: :meth:`run` through
        :meth:`_run_routed`.  Returns :meth:`run`'s arrays, the batch's ray
        statistics and the :attr:`REDUCTIONS` values."""
        return self._run_routed(self.run, keys, (), tables, representation, pipeline)

    def lookup_ranges(
        self, lows: np.ndarray, highs: np.ndarray, tables, representation, pipeline
    ) -> Tuple[List[np.ndarray], int, RayStats, List[int]]:
        """One range batch of a cgRXu index: :meth:`run_ranges` through
        :meth:`_run_routed`.  Returns its rows per range and total, the
        batch's ray statistics and the :attr:`REDUCTIONS` values."""
        return self._run_routed(
            self.run_ranges, lows, (highs,), tables, representation, pipeline
        )

    def _run_routed(
        self, run, keys: np.ndarray, inputs: tuple, tables, representation, pipeline
    ):
        """:meth:`bind` to an index's ``tables``, its ``pipeline``'s current
        BVH tables and its ``representation``'s route params, then
        ``run(keys, *inputs)``.

        The routed rays are counted as a separate routing call would count
        them: in the pipeline's statistics and in the profiler's
        ``compiled_locate`` series.  Returns ``run``'s values with the
        batch's ray statistics inserted before the reductions.
        """
        self.bind(tables, pipeline.compiled_tables(), representation.compiled_route_params())
        *answers, reductions = run(keys, *inputs)
        rays, ray_nodes, tests, hits, deepest = reductions[:5]
        ray_stats = RayStats().add_totals(rays, ray_nodes, tests, hits)
        pipeline.record_rays(ray_stats)
        prof = _profile.profiler()
        if prof is not None:
            prof.observe_wavefront("compiled_locate", deepest, int(keys.shape[0]), ray_nodes)
        return (*answers, ray_stats, reductions)


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
    slabs = _node_slabs(storage, overflow_bucket)
    slabs.free_nodes = address(free_nodes)
    slabs.free_count = int(free_nodes.shape[0])
    while True:
        _point_at_slabs(slabs, storage)
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


def chain_tails(
    storage, overflow_bucket: int, bucket_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first call of a compaction pass: per bucket of ``bucket_ids``
    (sorted, distinct), its chain's node count, entry count and last entry's
    key (uint64; 0 for an empty chain).  Requires the kernel library."""
    bucket_ids = _checked_buckets(bucket_ids, overflow_bucket)
    num_buckets = int(bucket_ids.shape[0])
    counts = np.empty((2, num_buckets), dtype=np.int64)
    last = np.empty(num_buckets, dtype=np.uint64)
    slabs = _node_slabs(storage, overflow_bucket)
    library().chain_tails(
        ctypes.addressof(slabs), num_buckets, address(bucket_ids),
        address(counts[0]), address(counts[1]), address(last),
    )
    return counts[0], counts[1], last


def compact_chains(
    storage,
    overflow_bucket: int,
    bucket_ids: np.ndarray,
    bounds: np.ndarray,
    nodes_before: np.ndarray,
    entries: np.ndarray,
) -> np.ndarray:
    """Re-pack the chains of ``bucket_ids`` (sorted, distinct) exactly like
    ``NodeStorage.compact_chain``, in one C call.

    ``bounds`` (uint64) is each chain's new final-node maxKey;
    ``nodes_before`` and ``entries`` are :func:`chain_tails`' counts, which
    size the gather scratch and the release buffer.  The surplus linked
    nodes join the free list in bucket, then chain order.  Returns each
    chain's node count after.  Requires the kernel library.
    """
    bucket_ids = _checked_buckets(bucket_ids, overflow_bucket)
    num_buckets = int(bucket_ids.shape[0])
    bounds = np.ascontiguousarray(bounds, dtype=np.uint64)
    nodes_before = np.ascontiguousarray(nodes_before, dtype=np.int64)
    entries = np.ascontiguousarray(entries, dtype=np.int64)
    check_shapes(
        (bounds, (num_buckets,)), (nodes_before, (num_buckets,)), (entries, (num_buckets,))
    )
    nodes_after = np.maximum(1, -(-entries // storage.node_capacity))
    if num_buckets and (entries.min() < 0 or (nodes_before < nodes_after).any()):
        raise ValueError("chain counts out of range")
    released = np.empty(int((nodes_before - nodes_after).sum()), dtype=np.int64)
    largest = int(entries.max()) if num_buckets else 0
    scratch_keys = np.empty(largest, dtype=storage.key_dtype)
    scratch_rows = np.empty(largest, dtype=np.uint32)
    slabs = _node_slabs(storage, overflow_bucket)
    freed = library().compact_chains(
        ctypes.addressof(slabs), num_buckets, address(bucket_ids), address(bounds),
        address(nodes_before), address(entries), address(scratch_keys),
        address(scratch_rows), address(released),
    )
    if freed != released.shape[0]:
        raise RuntimeError("compaction counts do not match the chains")
    storage._free_nodes.extend(released.tolist())
    return nodes_after


def patch_chain_tables(
    storage, order: np.ndarray, starts: np.ndarray, bucket_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The flattened ``(order, starts)`` chain tables after the chains of
    ``bucket_ids`` (sorted, distinct) changed, in one C call.

    Each run of untouched chains is copied from the old tables whole and
    each touched chain is re-walked through the live ``next`` pointers.
    Raises unless the new tables hold exactly ``storage.total_nodes``
    nodes.  Requires the kernel library.
    """
    num_chains = int(storage.num_representative_nodes)
    bucket_ids = _checked_buckets(bucket_ids, num_chains - 1)
    order = np.ascontiguousarray(order, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    check_shapes((starts, (num_chains + 1,)))
    if starts[0] != 0 or starts[-1] != order.shape[0]:
        raise ValueError("chain starts do not span the order table")
    total = int(storage.total_nodes)
    new_order = np.empty(total, dtype=np.int64)
    new_starts = np.empty(num_chains + 1, dtype=np.int64)
    written = library().patch_chains(
        address(storage.next_array), num_chains, address(order), address(starts),
        int(bucket_ids.shape[0]), address(bucket_ids), address(new_order),
        address(new_starts), total,
    )
    if written != total:
        raise RuntimeError(
            f"patched chain tables hold {written} nodes, the slabs {total} live ones"
        )
    return new_order, new_starts


def _checked_buckets(bucket_ids: np.ndarray, overflow_bucket: int) -> np.ndarray:
    """``bucket_ids`` as a contiguous int64 vector; raises unless they are
    sorted, distinct and within ``[0, overflow_bucket]`` (the kernels index
    the slabs with them)."""
    bucket_ids = np.ascontiguousarray(bucket_ids, dtype=np.int64)
    if bucket_ids.ndim != 1 or (
        bucket_ids.size
        and not (
            bucket_ids[0] >= 0
            and bucket_ids[-1] <= overflow_bucket
            and (bucket_ids[1:] > bucket_ids[:-1]).all()
        )
    ):
        raise ValueError("bucket ids must be sorted, distinct and in range")
    return bucket_ids


def _node_slabs(storage, overflow_bucket: int) -> NodeSlabsStruct:
    """A ``NodeSlabs`` struct over ``storage``'s current slabs, its free
    list empty."""
    slabs = NodeSlabsStruct(
        linked_used=int(storage._linked_used),
        num_representative=int(storage.num_representative_nodes),
        overflow_bucket=int(overflow_bucket),
        capacity=int(storage.node_capacity),
        key_is_64=int(storage.key_dtype.itemsize == 8),
    )
    _point_at_slabs(slabs, storage)
    return slabs


def _point_at_slabs(slabs: NodeSlabsStruct, storage) -> None:
    """Point ``slabs`` at ``storage``'s slab arrays (a linked-region growth
    replaces them)."""
    slabs.keys = address(storage.keys_matrix)
    slabs.row_ids = address(storage.row_ids_matrix)
    slabs.sizes = address(storage.sizes_array)
    slabs.max_keys = address(storage.max_keys_array)
    slabs.next_node = address(storage.next_array)
    slabs.total_nodes = int(storage.keys_matrix.shape[0])
