"""cgRXu: the node-based updatable variant of cgRX (Section IV of the paper).

Each bucket is a linked list of fixed-size nodes.  The raytraced
representative scene is built once over the bulk-loaded buckets and never
touched again: inserts and deletes only modify the node chains, so the BVH is
never refit and lookup performance does not deteriorate the way RX's does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    cancel_opposing_updates,
)
from repro.core.bucketing import BucketedKeys
from repro.core.config import CgRXuConfig, Representation, resolve_engine
from repro.core.key_mapping import KeyMapping
from repro.core.keyspace import drop_negative_points, scatter_answers, unsigned_ranges
from repro.core.naive import NaiveRepresentation
from repro.core.nodes import NO_NEXT, NodeStorage
from repro.core.optimized import OptimizedRepresentation
from repro.core.representation import MISS
from repro.gpu.accel import accel_build_stats, triangle_generation_stats
from repro.gpu.cost_model import RT_NODE_RESIDUAL_BYTES, RT_TRIANGLE_RESIDUAL_BYTES
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.simt import divergence_factor, divergence_from_pacing
from repro.gpu.sort import device_radix_sort
from repro.obs import profile as _profile
from repro.rtx.bvh import BvhBuildConfig
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.refit import overlap_ratio, total_overlap_area
from repro.rtx.traversal import RayStats

#: Number of per-lookup / per-bucket work samples used for divergence
#: estimates (the C ``point_lookup`` kernel samples with the same number).
_DIVERGENCE_SAMPLE = 4096

#: Escalate a post-compaction BVH refit into a full rebuild once the total
#: node overlap area grew past this multiple of the freshly built tree's
#: (the Figure-1c degradation signal, applied to cgRXu's own representative
#: scene).  Compaction is the only refit, so no BVH stays past this ratio.
REFIT_ESCALATION_RATIO = 4.0


@dataclass(frozen=True)
class IndexSnapshot:
    """A consistent, epoch-tagged copy of an index's entries.

    Taken off the serving path by :meth:`CgRXuIndex.snapshot` so a
    replacement index can be built in the background
    (:meth:`CgRXuIndex.build_from_snapshot`) while the live one keeps
    serving; the double-buffered shard rebuild in ``repro.serve`` swaps the
    replacement in atomically once it is ready.
    """

    keys: np.ndarray
    row_ids: np.ndarray
    config: CgRXuConfig
    #: Epoch of the source index at snapshot time; the index built from this
    #: snapshot starts at ``epoch + 1``.
    epoch: int

    @property
    def num_entries(self) -> int:
        return int(self.keys.shape[0])


class CgRXuIndex(GpuIndex):
    """Updatable coarse-granular raytraced index with node-based buckets."""

    name = "cgRXu"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = True
    supports_bulk_load = True
    supports_export = True
    memory_class = "low"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        config: Optional[CgRXuConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        self.config = config or CgRXuConfig()
        self.name = self.config.describe()

        self._key_dtype = np.dtype(np.uint32 if self.config.key_bits == 32 else np.uint64)
        keys = np.asarray(keys, dtype=self._key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        self.mapping = KeyMapping.for_key_bits(
            self.config.key_bits, scaled=self.config.scaled_mapping
        )
        self._bulk_load(keys, row_ids)

    # -------------------------------------------------------------- bulk load

    def _bulk_load(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        """Initial construction: buckets of N/2 entries, one node per bucket."""
        bucket_size = self.config.initial_bucket_size
        self.bucketed = BucketedKeys(
            keys, row_ids, bucket_size=bucket_size, key_bytes=self.config.key_bytes
        )
        self.num_buckets = self.bucketed.num_buckets
        #: Index of the overflow bucket (keys larger than any bulk-loaded key).
        self.overflow_bucket = self.num_buckets

        self.pipeline = RaytracingPipeline(
            bvh_config=BvhBuildConfig(max_leaf_size=self.config.bvh_leaf_size)
        )
        representation_cls = (
            NaiveRepresentation
            if self.config.representation is Representation.NAIVE
            else OptimizedRepresentation
        )
        self.representation = representation_cls(self.bucketed, self.mapping, self.pipeline)

        self.nodes = NodeStorage(
            num_representative_nodes=self.num_buckets + 1,
            node_capacity=self.config.node_capacity,
            node_bytes=self.config.node_bytes,
            key_dtype=self._key_dtype,
        )
        self.nodes.fill_buckets(self.bucketed.keys, self.bucketed.row_ids, bucket_size)
        # The overflow bucket catches keys beyond the bulk-loaded key range.
        self.nodes.fill_node(
            self.overflow_bucket,
            np.empty(0, dtype=self._key_dtype),
            np.empty(0, dtype=np.uint32),
            int(np.iinfo(np.uint64).max),
        )

        #: Inclusive upper bound of every bucket, used to route update batches.
        self._bucket_uppers = np.concatenate(
            [
                self.bucketed.representatives().astype(np.uint64),
                np.asarray([np.iinfo(np.uint64).max], dtype=np.uint64),
            ]
        )

        #: Cached entry count, kept incrementally up to date by the update
        #: path so ``__len__`` never re-walks the chains.
        self._num_entries = len(self.bucketed)
        #: Cached flattened chain tables: patched for the buckets whose chains
        #: a compiled update split or a compiled compaction re-packed, dropped
        #: by the scalar update and compaction paths.
        self._chain_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Arena-packed copy of the chain tables for the compiled walk, keyed
        #: by the identity of ``_chain_cache`` so invalidations and patches
        #: trigger an in-place repack.
        self._compiled_chain = None
        #: Shard-local arena backing the compiled chain tables (lazy).
        self._compiled_arena = None
        #: Buffers of the compiled point and range batches, bound once
        #: (lazy; see :meth:`_compiled_lookup_batch`).
        self._lookup_batch = None
        #: ``(inputs, memory_footprint().total_bytes)``; see
        #: :meth:`_device_footprint_bytes`.
        self._footprint_cache: Optional[Tuple[tuple, int]] = None

        #: Storage-lifecycle version: bumped by every compaction pass and by
        #: building from a snapshot, so the serving layer can tell rebuilt
        #: state apart from the state a snapshot was taken of.
        self.epoch = 0
        #: Lifecycle event counters (compaction passes, refits, escalations).
        self.lifecycle: Dict[str, int] = {
            "compaction_passes": 0,
            "buckets_compacted": 0,
            "nodes_reclaimed": 0,
            "reanchored_representatives": 0,
            "bvh_refits": 0,
            "bvh_rebuilds": 0,
        }
        #: Overlap area of the freshly built BVH — the refit quality baseline.
        self._built_overlap_area = total_overlap_area(self.pipeline.bvh)
        #: Memoised overlap ratio keyed by (build, refit) generation, so the
        #: maintenance scan's per-cycle quality probe is O(1) between refits.
        self._overlap_ratio_cache: Optional[Tuple[tuple, float]] = None

        num_triangles = self.representation.triangle_count()
        bvh_bytes = self.pipeline.bvh.memory_footprint_bytes()
        self.build_stats = [
            self.bucketed.sort_stats,
            triangle_generation_stats(self.num_buckets, num_triangles),
            accel_build_stats(num_triangles, bvh_bytes),
            KernelStats(
                name="cgrxu.node_fill",
                threads=self.num_buckets,
                bytes_read=len(self.bucketed) * (self.config.key_bytes + 4),
                bytes_written=(self.num_buckets + 1) * self.config.node_bytes,
                compute_ops=len(self.bucketed),
            ),
        ]

    # ---------------------------------------------------------------- lookups

    def _route_key(self, key: int, stats: Optional[RayStats]) -> int:
        """BucketID responsible for ``key`` (the overflow bucket for out-of-range keys)."""
        bucket = self.representation.locate_bucket(int(key), stats)
        if bucket == MISS:
            return self.overflow_bucket
        return bucket

    def _collect(self, bucket: int, key: int) -> Tuple[int, int, int, int]:
        """Collect the rowID aggregate for ``key`` starting at ``bucket``'s chain.

        Mirrors the array-scan semantics of static cgRX: the search continues
        across nodes (and, for duplicate groups hugging a bucket boundary,
        into the next bucket) until the first key larger than the target is
        seen.  Returns ``(row_sum, matches, nodes_visited, entries_touched)``.
        """
        key_value = int(key)
        row_sum = 0
        matches = 0
        nodes_visited = 0
        entries_touched = 0

        current_bucket = bucket
        while current_bucket <= self.overflow_bucket:
            saw_larger = False
            for node in self.nodes.chain(current_bucket):
                nodes_visited += 1
                size = self.nodes.node_size(node)
                if self.nodes.node_max_key(node) < key_value and self.nodes.node_next(node) != NO_NEXT:
                    continue
                node_keys = self.nodes.node_keys(node)
                target = np.asarray(key_value, dtype=self._key_dtype)
                left = int(np.searchsorted(node_keys, target, side="left"))
                right = int(np.searchsorted(node_keys, target, side="right"))
                entries_touched += max(1, right - left)
                if left < right:
                    row_sum += int(
                        self.nodes.node_row_ids(node)[left:right].sum(dtype=np.int64)
                    )
                    matches += right - left
                if right < size:
                    saw_larger = True
                    break
            if saw_larger:
                break
            # The chain ended without any key above the target — it was empty,
            # ended exactly at the target, or deletes drained every entry >=
            # the target from this bucket.  In all three cases the target (or
            # the rest of its duplicate group) may live in the next bucket.
            if current_bucket < self.overflow_bucket:
                current_bucket += 1
                continue
            break

        return row_sum, matches, nodes_visited, entries_touched

    def _point_lookup_stats(
        self,
        num_lookups: int,
        ray_stats: RayStats,
        total_nodes: int,
        total_entries: int,
        divergence: float,
        unique_fraction: float,
    ) -> KernelStats:
        """Kernel record of a point-lookup batch from its reductions (shared
        by both engines)."""
        stats = KernelStats(name="cgrxu.point_lookup", threads=num_lookups, launches=2)
        stats.rays_cast = ray_stats.rays_cast
        stats.bvh_node_visits = ray_stats.nodes_visited
        stats.triangle_tests = ray_stats.triangle_tests
        stats.bytes_read += ray_stats.nodes_visited * RT_NODE_RESIDUAL_BYTES
        stats.bytes_read += ray_stats.triangle_tests * RT_TRIANGLE_RESIDUAL_BYTES
        stats.bytes_read += total_nodes * self.config.node_bytes
        stats.bytes_read += num_lookups * self.config.key_bytes
        stats.bytes_written += num_lookups * 8
        stats.compute_ops += total_entries + total_nodes * 4
        stats.divergence = divergence
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self._device_footprint_bytes(), unique_fraction
        )
        return stats

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        """Batched point lookups: raytracing stage plus node-chain traversal.

        The ``compiled`` engine makes one C call per batch; results and
        counters are byte-identical to the scalar reference path, and
        ``LookupResult.engine`` names the engine that ran.  A negative
        (signed-dtype) key is a miss (:mod:`repro.core.keyspace`).
        """
        keys, negative = drop_negative_points(keys, self._key_dtype)
        if resolve_engine(self.config.engine, self.pipeline) == "scalar":
            return scatter_answers(self._point_lookup_batch_scalar(keys), negative)
        return scatter_answers(self._point_lookup_batch_compiled(keys), negative)

    def _point_lookup_batch_scalar(self, keys: np.ndarray) -> LookupResult:
        """Reference path: one key and one ray at a time."""
        num_lookups = keys.shape[0]

        ray_stats = RayStats()
        row_agg = np.full(num_lookups, -1, dtype=np.int64)
        match_counts = np.zeros(num_lookups, dtype=np.int64)
        total_nodes = 0
        total_entries = 0
        work_sample: List[int] = []
        sample_every = max(1, num_lookups // _DIVERGENCE_SAMPLE)
        previous_nodes = 0

        for position, key in enumerate(keys):
            bucket = self._route_key(int(key), ray_stats)
            row_sum, matches, nodes_visited, entries = self._collect(bucket, int(key))
            total_nodes += nodes_visited
            total_entries += entries
            if matches:
                row_agg[position] = row_sum
                match_counts[position] = matches
            if position % sample_every == 0:
                work_sample.append(ray_stats.nodes_visited - previous_nodes + nodes_visited)
            previous_nodes = ray_stats.nodes_visited

        stats = self._point_lookup_stats(
            num_lookups,
            ray_stats,
            total_nodes,
            total_entries,
            divergence_factor(work_sample),
            self._unique_fraction(keys),
        )
        prof = _profile.profiler()
        if prof is not None:
            prof.observe_chain_walk("scalar", total_nodes, num_lookups)
        return LookupResult(
            row_ids=row_agg, match_counts=match_counts, stats=stats, engine="scalar"
        )

    def _point_lookup_batch_compiled(self, keys: np.ndarray) -> LookupResult:
        """Batch path: one ``point_lookup`` C call over buffers bound once
        per index (:class:`~repro.core.compiled.CompiledLookupBatch`).

        The call routes the keys (either representation's fused routing),
        walks the chains and reduces what the kernel record needs.
        """
        num_lookups = int(keys.shape[0])
        row_ids, match_counts, _, ray_stats, reductions = self._compiled_lookup_batch().lookup(
            keys, self._compiled_chain_tables(), self.representation, self.pipeline
        )
        chain_nodes, entries, paced, work, distinct = reductions[5:]
        stats = self._point_lookup_stats(
            num_lookups,
            ray_stats,
            chain_nodes,
            entries,
            divergence_from_pacing(paced, work),
            distinct / num_lookups if num_lookups else 1.0,
        )
        prof = _profile.profiler()
        if prof is not None:
            prof.observe_chain_walk("compiled", chain_nodes, num_lookups)
        return LookupResult(
            row_ids=row_ids, match_counts=match_counts, stats=stats, engine="compiled"
        )

    def _compiled_lookup_batch(self):
        """The buffers of this index's compiled point and range batches,
        created by the first compiled batch."""
        if self._lookup_batch is None:
            from repro.core import compiled as core_compiled

            self._lookup_batch = core_compiled.CompiledLookupBatch(self._key_dtype)
        return self._lookup_batch

    # ------------------------------------------------------- chain tables

    def _chain_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened chain tables ``(order, starts)``, cached across updates.

        ``order`` lists every node in bucket-major chain order; a batched walk
        that starts at bucket ``b`` simply advances through
        ``order[starts[b]:]`` — crossing into the next bucket's chain is the
        same ``+= 1`` step the scalar walk performs explicitly.
        """
        if self._chain_cache is None:
            self._chain_cache = self.nodes.flatten_chains(self.overflow_bucket + 1)
        return self._chain_cache

    def _compiled_chain_tables(self):
        """Arena-packed chain tables for the compiled walks (identity-cached).

        Keyed on the identity of the ``_chain_cache`` tuple: the scalar update
        path invalidates it to ``None`` and ``_patch_chain_cache`` swaps in a
        new tuple, so an ``is`` check catches every change of chain structure
        and repacks into the shard-local arena in place (as does a
        reallocation of the node slabs the tables are bound to).  Edits that
        keep the structure — deletes and split-free inserts — need no repack:
        the packed tables read the live slabs.
        """
        cached = self._compiled_chain
        if cached is not None and cached[0] is self._chain_cache and cached[1].bound_to(self.nodes):
            return cached[1]
        from repro.core import compiled as core_compiled
        from repro.rtx.compiled import Arena

        order, starts = self._chain_table()
        if self._compiled_arena is None:
            self._compiled_arena = Arena()
        tables = core_compiled.CompiledChainTables(
            self.nodes, order, starts, self._compiled_arena
        )
        self._compiled_chain = (self._chain_cache, tables)
        return tables

    def _range_lookup_stats(
        self,
        num_queries: int,
        ray_stats: RayStats,
        total_nodes: int,
        total_entries: int,
        total_results: int,
        unique_fraction: float,
    ) -> KernelStats:
        """Kernel record of a range-lookup batch (shared by both engines)."""
        stats = KernelStats(name="cgrxu.range_lookup", threads=num_queries, launches=2)
        stats.rays_cast = ray_stats.rays_cast
        stats.bvh_node_visits = ray_stats.nodes_visited
        stats.triangle_tests = ray_stats.triangle_tests
        stats.bytes_read += ray_stats.nodes_visited * RT_NODE_RESIDUAL_BYTES
        stats.bytes_read += ray_stats.triangle_tests * RT_TRIANGLE_RESIDUAL_BYTES
        stats.bytes_read += total_nodes * self.config.node_bytes
        stats.bytes_written += total_results * 4
        stats.compute_ops += total_entries
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self._device_footprint_bytes(), unique_fraction
        )
        return stats

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        """Batched range lookups: locate the lower bound, then walk chains forward.

        The ``compiled`` engine makes one ``range_lookup`` C call per batch
        over buffers bound once per index: it routes every low, walks the
        chains to the first key above the range's high and reduces what the
        kernel record needs.  Each range's rows are a view of one fresh
        copy of the call's flat rows.  Results and counters are
        byte-identical to the scalar reference path.  A negative low clamps
        to 0 and a range with a negative high matches nothing
        (:mod:`repro.core.keyspace`).
        """
        lows, highs = unsigned_ranges(lows, highs, self._key_dtype)
        if resolve_engine(self.config.engine, self.pipeline) == "scalar":
            return self._range_lookup_batch_scalar(lows, highs)
        return self._range_lookup_batch_compiled(lows, highs)

    def _range_lookup_batch_scalar(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> RangeLookupResult:
        """Reference path: one range and one ray at a time."""
        ray_stats = RayStats()
        results: List[np.ndarray] = []
        total_nodes = 0
        total_entries = 0

        for low, high in zip(lows, highs):
            low_value, high_value = int(low), int(high)
            bucket = self._route_key(low_value, ray_stats)
            collected: List[np.ndarray] = []
            done = False
            for current_bucket in range(bucket, self.overflow_bucket + 1):
                for node in self.nodes.chain(current_bucket):
                    total_nodes += 1
                    node_keys = self.nodes.node_keys(node)
                    size = node_keys.shape[0]
                    if size == 0:
                        continue
                    left = int(
                        np.searchsorted(node_keys, np.asarray(low_value, dtype=self._key_dtype), side="left")
                    )
                    right = int(
                        np.searchsorted(node_keys, np.asarray(high_value, dtype=self._key_dtype), side="right")
                    )
                    total_entries += max(1, right - left)
                    if left < right:
                        collected.append(self.nodes.node_row_ids(node)[left:right].copy())
                    if right < size:
                        done = True
                        break
                if done:
                    break
            if collected:
                results.append(np.concatenate(collected))
            else:
                results.append(np.empty(0, dtype=np.uint32))

        stats = self._range_lookup_stats(
            lows.shape[0],
            ray_stats,
            total_nodes,
            total_entries,
            sum(r.shape[0] for r in results),
            self._unique_fraction(lows),
        )
        return RangeLookupResult(row_ids=results, stats=stats)

    def _range_lookup_batch_compiled(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> RangeLookupResult:
        """Batch path: one ``range_lookup`` C call over the buffers of
        :meth:`_compiled_lookup_batch`, routing the lows of either
        representation."""
        num_queries = int(lows.shape[0])
        results, total_results, ray_stats, reductions = (
            self._compiled_lookup_batch().lookup_ranges(
                lows, highs, self._compiled_chain_tables(), self.representation, self.pipeline
            )
        )
        chain_nodes, entries, _, _, distinct = reductions[5:]
        stats = self._range_lookup_stats(
            num_queries,
            ray_stats,
            chain_nodes,
            entries,
            total_results,
            distinct / num_queries if num_queries else 1.0,
        )
        return RangeLookupResult(row_ids=results, stats=stats)

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Apply a batch of updates with one simulated thread per bucket.

        Deletions are processed before insertions (freeing space may avoid
        splits), and keys appearing in both halves of the batch cancel out, as
        described in Section IV.  The ``compiled`` engine applies the whole
        batch in one C call; node slabs, counters and results are
        byte-identical to the scalar reference's key-by-key apply.
        """
        stats = KernelStats(name="cgrxu.update", launches=0)

        insert_keys = (
            np.asarray(insert_keys, dtype=self._key_dtype)
            if insert_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        delete_keys = (
            np.asarray(delete_keys, dtype=self._key_dtype)
            if delete_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        if insert_row_ids is None:
            insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
        insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)

        insert_keys, insert_row_ids, insert_sort = device_radix_sort(insert_keys, insert_row_ids)
        delete_keys, _, delete_sort = device_radix_sort(delete_keys)
        stats.merge(insert_sort)
        stats.merge(delete_sort)

        insert_keys, insert_row_ids, delete_keys = cancel_opposing_updates(
            insert_keys, insert_row_ids, delete_keys
        )
        apply_stats = KernelStats(
            name="cgrxu.apply", threads=self.overflow_bucket + 1, launches=1
        )
        # Two binary searches on the sorted batch identify each thread's slice.
        slice_ops = 2 * max(1, int(np.log2(max(insert_keys.shape[0], 2))))
        apply_stats.compute_ops += (self.overflow_bucket + 1) * slice_ops

        if resolve_engine(self.config.engine, self.pipeline) == "scalar":
            inserted, deleted, visited, ops, per_bucket_work = self._apply_scalar(
                insert_keys, insert_row_ids, delete_keys
            )
        else:
            inserted, deleted, visited, ops, per_bucket_work = self._apply_compiled(
                insert_keys, insert_row_ids, delete_keys
            )
        apply_stats.bytes_read += visited * self.config.node_bytes
        apply_stats.bytes_written += ops * (self.config.node_bytes // 2)
        apply_stats.divergence = divergence_factor(per_bucket_work)
        stats.merge(apply_stats)
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=False)

    def _apply_scalar(self, insert_keys, insert_row_ids, delete_keys):
        """Reference apply: one thread per bucket, one key at a time.

        Bucket ``b`` takes the batch keys in ``(uppers[b - 1], uppers[b]]``;
        the bounds are compared as Python ints, so a bucket after one whose
        bound is the largest uint64 takes no keys rather than wrapping
        around to the whole key space.  Returns ``(inserted, deleted, nodes
        visited, ops, per-bucket work)``.
        """
        # Invalidate before mutating and keep the entry count per-operation:
        # even if the apply is interrupted mid-batch, later reads see the
        # live chains and a correct count.
        self._chain_cache = None
        uppers = self._bucket_uppers
        inserted = deleted = visited_total = ops = 0
        per_bucket_work: List[int] = []
        for bucket in range(self.overflow_bucket + 1):
            low = int(uppers[bucket - 1]) + 1 if bucket else 0
            high = int(uppers[bucket])
            delete_lo, delete_hi = self._batch_range(delete_keys, low, high)
            inserts_lo, inserts_hi = self._batch_range(insert_keys, low, high)
            work = 0

            for key in delete_keys[delete_lo:delete_hi]:
                removed, visited = self._delete_one(bucket, int(key))
                deleted += int(removed)
                self._num_entries -= int(removed)
                work += visited

            for offset in range(inserts_lo, inserts_hi):
                work += self._insert_one(
                    bucket, int(insert_keys[offset]), int(insert_row_ids[offset])
                )
                inserted += 1
                self._num_entries += 1

            ops += (delete_hi - delete_lo) + (inserts_hi - inserts_lo)
            visited_total += work
            if work:
                per_bucket_work.append(work)
        return inserted, deleted, visited_total, ops, per_bucket_work

    def _apply_compiled(self, insert_keys, insert_row_ids, delete_keys):
        """One C call over the touched buckets (plus one per slab growth).

        Deletes and split-free inserts leave every chain's node sequence
        as it is, so the cached chain tables stay valid; only the chains of
        buckets that split are re-walked into them.  The cache is set aside
        while the kernel runs, so an interrupted apply leaves no stale
        tables behind.  Same return value as :meth:`_apply_scalar`.
        """
        from repro.core import compiled as core_compiled

        slices = self._partition_batch(delete_keys, insert_keys)
        totals = np.zeros(4, dtype=np.int64)
        cache, self._chain_cache = self._chain_cache, None
        try:
            work, split = core_compiled.apply_updates_batch(
                self.nodes, self.overflow_bucket, slices,
                delete_keys, insert_keys, insert_row_ids, totals,
            )
        finally:
            self._num_entries += int(totals[0] - totals[1])
        self._chain_cache = cache
        if split.any():
            self._patch_chain_cache(slices[split, 0])
        inserted, deleted, visited, ops = (int(value) for value in totals)
        return inserted, deleted, visited, ops, work[work > 0]

    def _partition_batch(self, delete_keys: np.ndarray, insert_keys: np.ndarray) -> np.ndarray:
        """``(bucket, delete lo, delete hi, insert lo, insert hi)`` per bucket
        the sorted batch touches, in bucket order.

        Each key is searched into the bucket bounds: it belongs to the first
        bucket whose bound is at least the key.  That is the scalar apply's
        per-bucket ``(uppers[b - 1], uppers[b]]`` rule because the bounds
        never decrease (a re-anchor only lowers a bound to its chain's
        largest key, which is never below the previous bucket's bound).
        """
        uppers = self._bucket_uppers
        delete_buckets = np.searchsorted(uppers, delete_keys.astype(np.uint64), side="left")
        insert_buckets = np.searchsorted(uppers, insert_keys.astype(np.uint64), side="left")
        touched = np.union1d(delete_buckets, insert_buckets)
        slices = np.empty((touched.shape[0], 5), dtype=np.int64)
        slices[:, 0] = touched
        slices[:, 1] = np.searchsorted(delete_buckets, touched, side="left")
        slices[:, 2] = np.searchsorted(delete_buckets, touched, side="right")
        slices[:, 3] = np.searchsorted(insert_buckets, touched, side="left")
        slices[:, 4] = np.searchsorted(insert_buckets, touched, side="right")
        return slices

    def _batch_range(self, sorted_keys: np.ndarray, low: int, high: int) -> Tuple[int, int]:
        """Index range of a sorted batch falling into a bucket's ``[low, high]`` range.

        Bounds are clamped to the key dtype so the overflow bucket (whose
        upper bound is the uint64 sentinel) works for 32-bit keys too.
        """
        if sorted_keys.size == 0:
            return 0, 0
        dtype_max = int(np.iinfo(self._key_dtype).max)
        if low > dtype_max:
            return 0, 0
        low_key = np.asarray(low, dtype=self._key_dtype)
        high_key = np.asarray(min(high, dtype_max), dtype=self._key_dtype)
        lo = int(np.searchsorted(sorted_keys, low_key, side="left"))
        hi = int(np.searchsorted(sorted_keys, high_key, side="right"))
        return lo, hi

    def _delete_one(self, bucket: int, key: int) -> Tuple[bool, int]:
        """Delete one occurrence of ``key`` starting at ``bucket``'s chain.

        Mirrors :meth:`_collect`: a duplicate group hugging a bucket boundary
        continues in the next bucket, so when the routed bucket's chain ends
        without a key larger than the target, the search moves on rather
        than reporting a miss.
        """
        visited = 0
        current_bucket = bucket
        while current_bucket <= self.overflow_bucket:
            saw_larger = False
            for node in self.nodes.chain(current_bucket):
                visited += 1
                size = self.nodes.node_size(node)
                if self.nodes.node_max_key(node) < key and self.nodes.node_next(node) != NO_NEXT:
                    continue
                if self.nodes.delete_from_node(node, key):
                    return True, visited
                node_keys = self.nodes.node_keys(node)
                target = np.asarray(key, dtype=self._key_dtype)
                if size and int(np.searchsorted(node_keys, target, side="right")) < size:
                    saw_larger = True
                    break
            if saw_larger:
                break
            if current_bucket < self.overflow_bucket:
                current_bucket += 1
                continue
            break
        return False, visited

    def _insert_one(self, bucket: int, key: int, row_id: int) -> int:
        """Insert ``key`` into the bucket's chain, splitting a full node if needed."""
        visited = 0
        target_node = bucket
        for node in self.nodes.chain(bucket):
            visited += 1
            target_node = node
            if self.nodes.node_max_key(node) >= key:
                break
        if not self.nodes.insert_into_node(target_node, key, row_id):
            new_node = self.nodes.split_node(target_node)
            visited += 1
            if key > self.nodes.node_max_key(target_node):
                target_node = new_node
            inserted = self.nodes.insert_into_node(target_node, key, row_id)
            assert inserted, "insert after split must succeed"
        return visited

    def export_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (key, rowID) entries in bucket/chain order (sorted by key).

        One flattened gather over the chain tables — no per-node Python loop
        or per-entry ``int()`` conversion.
        """
        order, _ = self._chain_table()
        sizes = self.nodes.sizes_array[order]
        occupied = np.arange(self.nodes.node_capacity)[None, :] < sizes[:, None]
        return (
            self.nodes.keys_matrix[order][occupied],
            self.nodes.row_ids_matrix[order][occupied],
        )

    # ------------------------------------------------------------ maintenance

    def compact_buckets(self, bucket_ids: Sequence[int]) -> KernelStats:
        """Fold the chains of ``bucket_ids`` back into minimal node chains.

        Per-bucket incremental maintenance, the middle tier of the index
        lifecycle: each selected bucket's chain is re-packed into the fewest
        nodes that hold its entries (one node when they fit, exactly as after
        a fresh bulk load) and the surplus linked nodes return to the slab
        allocator, healing the chain debt updates accumulated without
        touching any other bucket.  Where deletes shrank a bucket's largest
        key, its representative triangle is additionally *re-anchored* to
        the current maximum (when provably safe, see
        :meth:`~repro.core.representation.SceneRepresentation.reanchor_representative`)
        and the BVH is **refit** against the moved geometry rather than
        rebuilt — unless the accumulated overlap area escalates past
        :data:`REFIT_ESCALATION_RATIO`, in which case the tree is rebuilt
        and the quality baseline reset.

        Lookup answers are unchanged by construction (both engines walk the
        same, now shorter, chains); only the lookup *cost* drops.  The
        ``compiled`` engine compacts in two C calls and patches the cached
        chain tables in a third, leaving node slabs, free list, bounds and
        counters byte-identical to the scalar reference, which drops the
        tables instead.
        """
        bucket_ids = np.unique(np.asarray(bucket_ids, dtype=np.int64))
        if bucket_ids.size and (
            int(bucket_ids[0]) < 0 or int(bucket_ids[-1]) > self.overflow_bucket
        ):
            raise ValueError("bucket ids out of range")
        stats = KernelStats(
            name="cgrxu.compact", threads=int(bucket_ids.size), launches=1
        )
        if resolve_engine(self.config.engine, self.pipeline) == "scalar":
            reanchored, nodes_before, nodes_after, entries = self._compact_scalar(bucket_ids)
        else:
            reanchored, nodes_before, nodes_after, entries = self._compact_compiled(bucket_ids)
        prof = _profile.profiler()
        if prof is not None:
            for before, after in zip(nodes_before, nodes_after):
                prof.observe_chain_compaction(before, after)
        self.lifecycle["nodes_reclaimed"] += sum(nodes_before) - sum(nodes_after)
        stats.bytes_read += sum(nodes_before) * self.config.node_bytes
        stats.bytes_written += sum(nodes_after) * self.config.node_bytes
        stats.compute_ops += sum(entries)
        stats.divergence = divergence_factor(nodes_before)

        if reanchored:
            # Geometry moved: refit the existing BVH (the cheap OptiX update
            # build) and escalate to a full rebuild only when the overlap
            # quality signal says refitting has degraded the tree too far.
            self.pipeline.update_acceleration_structure()
            self.lifecycle["bvh_refits"] += 1
            self.lifecycle["reanchored_representatives"] += reanchored
            stats.bytes_read += self.num_triangles * RT_TRIANGLE_RESIDUAL_BYTES
            stats.bytes_written += self.pipeline.bvh.num_nodes * RT_NODE_RESIDUAL_BYTES
            if self.bvh_overlap_ratio() > REFIT_ESCALATION_RATIO:
                self.pipeline.build_acceleration_structure()
                self._built_overlap_area = total_overlap_area(self.pipeline.bvh)
                self.lifecycle["bvh_rebuilds"] += 1

        self.lifecycle["compaction_passes"] += 1
        self.lifecycle["buckets_compacted"] += int(bucket_ids.size)
        self.epoch += 1
        return stats

    def _compact_scalar(self, bucket_ids: np.ndarray):
        """Reference compaction: one bucket at a time, re-anchoring as it
        goes.  Drops the cached chain tables.  Returns ``(re-anchored,
        nodes before, nodes after, entries)``, the last three per bucket."""
        self._chain_cache = None
        uppers = self._bucket_uppers
        reanchored = 0
        nodes_before: List[int] = []
        nodes_after: List[int] = []
        entries: List[int] = []
        for bucket in bucket_ids:
            bucket = int(bucket)
            chain_keys, chain_rows = self.nodes.chain_entries(bucket)
            upper = int(uppers[bucket])
            new_upper = upper
            if (
                bucket < self.overflow_bucket
                and chain_keys.size
                and int(chain_keys[-1]) < upper
                # A following bucket sharing this routing bound must keep
                # resolving through this representative: never re-anchor it.
                and int(uppers[bucket + 1]) != upper
                and self.representation.reanchor_representative(
                    bucket, upper, int(chain_keys[-1])
                )
            ):
                new_upper = int(chain_keys[-1])
                uppers[bucket] = np.uint64(new_upper)
                reanchored += 1
            before, after = self.nodes.compact_chain(
                bucket, new_upper, entries=(chain_keys, chain_rows)
            )
            nodes_before.append(before)
            nodes_after.append(after)
            entries.append(int(chain_keys.shape[0]))
        return reanchored, nodes_before, nodes_after, entries

    def _compact_compiled(self, bucket_ids: np.ndarray):
        """Compaction in two C calls plus the chain-table patch.

        The first call reports each chain's nodes, entries and last key.
        The re-anchor candidates follow from the bounds as they were before
        the pass — a pass only lowers the bounds of buckets it has already
        passed, so the scalar loop sees the same ones — and are offered to
        the representation in ascending bucket order.  The second call
        re-packs the chains.  Same return value as :meth:`_compact_scalar`.
        """
        from repro.core import compiled as core_compiled

        if not bucket_ids.size:
            return 0, [], [], []
        uppers = self._bucket_uppers
        nodes_before, entries, last = core_compiled.chain_tails(
            self.nodes, self.overflow_bucket, bucket_ids
        )
        upper = uppers[bucket_ids]
        following = uppers[np.minimum(bucket_ids + 1, self.overflow_bucket)]
        candidates = np.nonzero(
            (bucket_ids < self.overflow_bucket)
            & (entries > 0)
            & (last < upper)
            & (following != upper)
        )[0]
        reanchored = 0
        for position in candidates.tolist():
            bucket = int(bucket_ids[position])
            if self.representation.reanchor_representative(
                bucket, int(upper[position]), int(last[position])
            ):
                uppers[bucket] = last[position]
                reanchored += 1
        cache, self._chain_cache = self._chain_cache, None
        nodes_after = core_compiled.compact_chains(
            self.nodes, self.overflow_bucket, bucket_ids, uppers[bucket_ids],
            nodes_before, entries,
        )
        self._chain_cache = cache
        self._patch_chain_cache(bucket_ids)
        return reanchored, nodes_before.tolist(), nodes_after.tolist(), entries.tolist()

    def _patch_chain_cache(self, bucket_ids: np.ndarray) -> None:
        """Splice the new chains of ``bucket_ids`` (sorted, distinct) into
        the cached tables with one C call: runs of untouched chains are
        copied whole and only the touched chains are re-walked (compiled
        engine only; the scalar engine drops the tables instead)."""
        if self._chain_cache is None:
            return
        from repro.core import compiled as core_compiled

        order, starts = self._chain_cache
        self._chain_cache = None  # a failed patch leaves no stale tables behind
        self._chain_cache = core_compiled.patch_chain_tables(
            self.nodes, order, starts, bucket_ids
        )

    def bucket_chain_lengths(self) -> np.ndarray:
        """Chain length in nodes per bucket (overflow bucket last).

        The serving layer's compaction tier sorts on this to pick the
        hottest-chained buckets first.
        """
        _, starts = self._chain_table()
        return np.diff(starts)

    def bvh_overlap_ratio(self) -> float:
        """Overlap-area growth of the (possibly refit) BVH vs its fresh build.

        Memoised per (build, refit) generation: the area only moves when the
        acceleration structure does, while the maintenance scan probes this
        on every cycle.
        """
        key = (
            self.pipeline.build_count,
            self.pipeline.refit_count,
            self._built_overlap_area,
        )
        if self._overlap_ratio_cache is not None and self._overlap_ratio_cache[0] == key:
            return self._overlap_ratio_cache[1]
        value = overlap_ratio(self.pipeline.bvh, self._built_overlap_area)
        self._overlap_ratio_cache = (key, value)
        return value

    def snapshot(self) -> IndexSnapshot:
        """A consistent, epoch-tagged copy of the current entries.

        Taken off the request path; the live index keeps serving while a
        replacement is built from the snapshot in the background.
        """
        keys, row_ids = self.export_entries()
        return IndexSnapshot(
            keys=keys,
            row_ids=row_ids,
            config=replace(self.config),
            epoch=self.epoch,
        )

    @classmethod
    def build_from_snapshot(
        cls, snapshot: IndexSnapshot, device: GpuDevice = RTX_4090
    ) -> "CgRXuIndex":
        """Build a fresh (chain-free) index off-path from a snapshot.

        The replacement answers every lookup exactly like the snapshotted
        index (entries and duplicate tie-order are preserved by
        ``export_entries``) and starts one epoch later, which is how the
        double-buffered shard swap distinguishes the generations.
        """
        replacement = cls(
            snapshot.keys, snapshot.row_ids, config=snapshot.config, device=device
        )
        replacement.epoch = snapshot.epoch + 1
        return replacement

    def chain_statistics(self) -> dict:
        """Node-chain health of the bucket lists.

        Insert waves split nodes and grow the per-bucket chains; every extra
        node is an extra dependent load on the lookup path.  The serving
        layer's maintenance worker watches these numbers to decide when a
        shard is worth rebuilding.
        """
        lengths = self.bucket_chain_lengths()
        return {
            "num_chains": int(lengths.shape[0]),
            "max_chain_nodes": int(lengths.max()),
            "mean_chain_nodes": float(lengths.mean()),
            "chained_buckets": int((lengths > 1).sum()),
        }

    def degradation_score(self) -> float:
        """Mean number of *extra* chain nodes per bucket (0.0 = fresh build).

        O(1): every chain starts as its one representative node and only
        node splits append linked-region nodes, so the extra nodes per
        bucket are exactly the allocated linked nodes over the chain count.
        """
        return self.nodes.linked_nodes_used / self.nodes.num_representative_nodes

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        """Node regions + vertex buffer + acceleration structure.

        The compiled tier's arenas are deliberately excluded: this footprint
        feeds the cost model's cache fractions, which must stay identical
        across engines.  See :meth:`compiled_buffers_bytes`.
        """
        footprint = self.nodes.memory_footprint()
        footprint.add("vertex_buffer", self.pipeline.vertex_buffer.memory_footprint_bytes())
        footprint.add("bvh", self.pipeline.bvh.memory_footprint_bytes())
        return footprint

    def _device_footprint_bytes(self) -> int:
        """``memory_footprint().total_bytes`` for the cost model's cache
        fractions, cached on everything it reads: the linked-region
        capacity, the BVH build generation and the vertex-buffer capacity."""
        inputs = (
            self.nodes.linked_region_capacity,
            self.pipeline.build_count,
            self.pipeline.vertex_buffer.capacity,
        )
        cached = self._footprint_cache
        if cached is None or cached[0] != inputs:
            cached = self._footprint_cache = (inputs, self.memory_footprint().total_bytes)
        return cached[1]

    def compiled_buffers_bytes(self) -> int:
        """Host bytes held by the compiled tier's shard-local arenas.

        Covers the pipeline's BVH node records, this index's packed
        chain tables and its point- and range-batch buffers; zero when the
        compiled tier has never run.
        """
        total = self.pipeline.compiled_buffers_bytes()
        if self._compiled_arena is not None:
            total += self._compiled_arena.capacity_bytes
        if self._lookup_batch is not None:
            total += self._lookup_batch.nbytes
        return total

    # ------------------------------------------------------------ conveniences

    def __len__(self) -> int:
        """Current number of indexed entries (bulk load plus net updates).

        O(1): maintained incrementally by the update path (validated against
        :meth:`_count_entries` in the test suite).
        """
        return self._num_entries

    def _count_entries(self) -> int:
        """Reference entry count: re-walk every chain (tests only)."""
        total = 0
        for bucket in range(self.overflow_bucket + 1):
            for node in self.nodes.chain(bucket):
                total += self.nodes.node_size(node)
        return total

    @property
    def num_triangles(self) -> int:
        """Number of triangles materialised in the 3D scene."""
        return self.representation.triangle_count()
