"""The public cgRX index facade.

:class:`CgRXIndex` wires together the sorted bucketed key-rowID array, the key
mapping, the raytracing pipeline and one of the two scene representations,
and exposes the :class:`~repro.baselines.base.GpuIndex` interface (batched
point lookups, batched range lookups, rebuild-based updates and
memory-footprint reporting).  A point lookup is the paper's two steps: rays
locate the key's bucket, then a binary search of that bucket post-filters
it.  Under the compiled engine a whole point batch is one C call
(:class:`~repro.core.compiled.CompiledLookupBatch`); the scalar engine, the
reference, routes key by key and post-filters with binary searches of the
whole sorted array.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    delete_one_per_key,
)
from repro.core.bucket_search import BucketSearchModel
from repro.core.bucketing import BucketedKeys
from repro.core.config import CgRXConfig, Representation, resolve_engine
from repro.core.key_mapping import KeyMapping
from repro.core.keyspace import drop_negative_points, scatter_answers, unsigned_ranges
from repro.core.naive import NaiveRepresentation
from repro.core.optimized import OptimizedRepresentation
from repro.core.representation import MISS
from repro.gpu.accel import accel_build_stats, triangle_generation_stats
from repro.gpu.cost_model import RT_NODE_RESIDUAL_BYTES, RT_TRIANGLE_RESIDUAL_BYTES
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.simt import divergence_factor, divergence_from_pacing
from repro.rtx.bvh import BvhBuildConfig
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.traversal import RayStats

#: Number of per-lookup work samples used to estimate warp divergence.
_DIVERGENCE_SAMPLE = 4096


class CgRXIndex(GpuIndex):
    """Coarse-granular raytraced index (the paper's contribution).

    A point lookup fires rays to locate the key's bucket, then searches
    that bucket.  The compiled engine (the default) answers a whole point
    batch in one ``point_lookup`` C call; the scalar engine is the
    reference.  Updates rebuild the index.
    """

    name = "cgRX"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = False
    supports_bulk_load = True
    supports_export = True
    memory_class = "low"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        config: Optional[CgRXConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        self.config = config or CgRXConfig()
        self.name = self.config.describe()

        key_dtype = np.uint32 if self.config.key_bits == 32 else np.uint64
        keys = np.asarray(keys, dtype=key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        self.mapping = KeyMapping.for_key_bits(
            self.config.key_bits, scaled=self.config.scaled_mapping
        )
        #: Build generation, bumped by the snapshot lifecycle on replacement.
        self.epoch = 0
        #: Buffers of the compiled point batches, bound once (lazy; kept
        #: across rebuilds, which re-point them).
        self._lookup_batch = None
        self._build(keys, row_ids)

    # ------------------------------------------------------------------ build

    def _build(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        """Bulk load: sort, bucket, materialise triangles, build the BVH."""
        self.bucketed = BucketedKeys(
            keys,
            row_ids,
            bucket_size=self.config.bucket_size,
            key_bytes=self.config.key_bytes,
        )
        self.pipeline = RaytracingPipeline(
            bvh_config=BvhBuildConfig(max_leaf_size=self.config.bvh_leaf_size)
        )
        representation_cls = (
            NaiveRepresentation
            if self.config.representation is Representation.NAIVE
            else OptimizedRepresentation
        )
        self.representation = representation_cls(self.bucketed, self.mapping, self.pipeline)
        self.search_model = BucketSearchModel(
            strategy=self.config.search_strategy,
            layout=self.config.bucket_layout,
            key_bytes=self.config.key_bytes,
        )
        # Prefix sums over rowIDs let the scalar post-filter aggregate
        # duplicate groups without per-lookup slicing.
        self._rowid_prefix = np.concatenate(
            [[0], np.cumsum(self.bucketed.row_ids.astype(np.int64))]
        )
        # The device bytes behind the kernel record's two cache fractions:
        # the rays read the BVH and the vertex buffer, the bucket searches
        # the key-rowID array.  Neither changes until the next build.
        footprint = self.memory_footprint()
        self._ray_footprint_bytes = footprint.get("bvh") + footprint.get("vertex_buffer")
        self._data_footprint_bytes = footprint.get("key_rowid_array")

        num_triangles = self.representation.triangle_count()
        bvh_bytes = self.pipeline.bvh.memory_footprint_bytes()
        self.build_stats = [
            self.bucketed.sort_stats,
            triangle_generation_stats(self.bucketed.num_buckets, num_triangles),
            accel_build_stats(num_triangles, bvh_bytes),
        ]

    # ---------------------------------------------------------------- lookups

    def _locate_buckets(
        self, keys: np.ndarray, engine: str
    ) -> Tuple[np.ndarray, RayStats, Sequence[int]]:
        """Run the raytracing stage for a batch of keys on ``engine``.

        Returns the bucketID per key (:data:`MISS` for keys above the
        largest representative), the aggregated ray statistics and a sample
        of per-lookup work used for the divergence estimate.  The compiled
        engine runs the representation's whole ray sequence in one C call;
        counters and samples are identical to the scalar loop.
        """
        stats = RayStats()
        sample_every = max(1, keys.shape[0] // _DIVERGENCE_SAMPLE)
        if engine == "compiled":
            bucket_ids, ray_nodes = self.representation.locate_bucket_batch(keys, stats)
            return bucket_ids, stats, ray_nodes[::sample_every]
        bucket_ids = np.empty(keys.shape[0], dtype=np.int64)
        work_sample: List[int] = []
        previous_nodes = 0
        for position, key in enumerate(keys):
            bucket_ids[position] = self.representation.locate_bucket(int(key), stats)
            if position % sample_every == 0:
                work_sample.append(stats.nodes_visited - previous_nodes)
            previous_nodes = stats.nodes_visited
        return bucket_ids, stats, work_sample

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        """Batched point lookups: the raytracing stage locates each key's
        bucket, then the bucket search post-filters it.

        The compiled engine runs both stages and the kernel record's
        reductions in one ``point_lookup`` C call over buffers bound once
        per index, under either representation.  The scalar engine routes
        key by key and post-filters with :meth:`_post_filter`, the
        reference.  Answers and counters are
        identical; ``LookupResult.engine`` names the engine that ran.  A
        negative (signed-dtype) key is a miss (:mod:`repro.core.keyspace`).
        """
        keys, negative = drop_negative_points(keys, self.bucketed.keys.dtype)
        num_lookups = int(keys.shape[0])
        if resolve_engine(self.config.engine, self.pipeline) == "compiled":
            if self._lookup_batch is None:
                from repro.core import compiled as core_compiled

                self._lookup_batch = core_compiled.CompiledLookupBatch(keys.dtype)
            row_agg, match_counts, entries_scanned, ray_stats, reductions = (
                self._lookup_batch.lookup(keys, self.bucketed, self.representation, self.pipeline)
            )
            paced, work, distinct = reductions[7:]
            divergence = divergence_from_pacing(paced, work)
            unique_fraction = distinct / num_lookups if num_lookups else 1.0
            engine = "compiled"
        else:
            bucket_ids, ray_stats, work_sample = self._locate_buckets(keys, "scalar")
            row_agg, match_counts, entries_scanned = self._post_filter(keys, bucket_ids)
            divergence = divergence_factor(work_sample)
            unique_fraction = self._unique_fraction(keys)
            engine = "scalar"
        stats = self._lookup_stats(
            "cgrx.point_lookup",
            num_lookups,
            ray_stats,
            entries_scanned,
            divergence,
            unique_fraction,
            range_mode=False,
        )
        return scatter_answers(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats, engine=engine),
            negative,
        )

    def _post_filter(
        self, keys: np.ndarray, bucket_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scalar bucket search of located keys, the reference of the
        compiled kernel: ``(rowID aggregates, match counts, entries
        scanned)``.

        A lookup is a hit when matches exist and the scan starting at the
        located bucket reaches them going forward; a match run that starts
        before the bucket is a miss.  The scan touches everything from the
        bucket start through the first key larger than the target, misses
        included (one entry past the array end when the run ends the array).
        An unlocated key (:data:`MISS`) touches nothing.
        """
        sorted_keys = self.bucketed.keys
        left = np.searchsorted(sorted_keys, keys, side="left")
        right = np.searchsorted(sorted_keys, keys, side="right")
        located = bucket_ids >= 0
        starts = np.where(located, bucket_ids * self.bucketed.bucket_size, 0)
        hit = located & (left < right) & (starts <= left)
        row_agg = np.where(
            hit, self._rowid_prefix[right] - self._rowid_prefix[left], -1
        ).astype(np.int64)
        match_counts = np.where(hit, right - left, 0).astype(np.int64)
        entries_scanned = np.where(
            located, np.maximum(right - starts + 1, 1), 0
        ).astype(np.int64)
        return row_agg, match_counts, entries_scanned

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        """Batched range lookups: locate the lower bound, then scan forward.

        A negative low clamps to 0 and a range with a negative high matches
        nothing (:mod:`repro.core.keyspace`).
        """
        lows, highs = unsigned_ranges(lows, highs, self.bucketed.keys.dtype)

        bucket_ids, ray_stats, work_sample = self._locate_buckets(
            lows, resolve_engine(self.config.engine, self.pipeline)
        )
        sorted_keys = self.bucketed.keys
        first = np.searchsorted(sorted_keys, lows, side="left")
        stop = np.searchsorted(sorted_keys, highs, side="right")
        starts = np.where(bucket_ids >= 0, bucket_ids * self.bucketed.bucket_size, 0)

        row_ids: List[np.ndarray] = []
        entries_scanned = np.zeros(lows.shape[0], dtype=np.int64)
        for position in range(lows.shape[0]):
            if bucket_ids[position] < 0:
                row_ids.append(np.empty(0, dtype=self.bucketed.row_ids.dtype))
                continue
            begin = max(int(first[position]), int(starts[position]))
            end = int(stop[position])
            if end <= begin:
                row_ids.append(np.empty(0, dtype=self.bucketed.row_ids.dtype))
            else:
                row_ids.append(self.bucketed.row_ids[begin:end].copy())
            entries_scanned[position] = max(1, end - int(starts[position]) + 1)

        stats = self._lookup_stats(
            "cgrx.range_lookup",
            int(lows.shape[0]),
            ray_stats,
            entries_scanned,
            divergence_factor(work_sample),
            self._unique_fraction(lows),
            range_mode=True,
        )
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    def _lookup_stats(
        self,
        name: str,
        num_lookups: int,
        ray_stats: RayStats,
        entries_scanned: np.ndarray,
        divergence: float,
        unique_fraction: float,
        range_mode: bool,
    ) -> KernelStats:
        """Assemble the kernel record of a lookup batch (shared by both
        engines) from its ray statistics, per-lookup scanned entries, warp
        divergence and fraction of distinct keys."""
        stats = KernelStats(name=name, threads=num_lookups, launches=2)

        # Raytracing stage: the traversal itself is charged to the RT cores;
        # only the residual (uncompressed / uncached) part of the BVH and
        # triangle fetches shows up as global-memory traffic.
        stats.rays_cast = ray_stats.rays_cast
        stats.bvh_node_visits = ray_stats.nodes_visited
        stats.triangle_tests = ray_stats.triangle_tests
        ray_bytes = (
            ray_stats.nodes_visited * RT_NODE_RESIDUAL_BYTES
            + ray_stats.triangle_tests * RT_TRIANGLE_RESIDUAL_BYTES
        )
        stats.bytes_read += ray_bytes

        # Bucket-search stage: a cooperative-group kernel per batch, priced
        # per lookup from its scanned entry count.  An unlocated key (0
        # scanned) searches nothing.
        search = self.search_model.searches(
            entries_scanned[entries_scanned > 0], self.bucketed.bucket_size, range_mode
        )
        stats.bytes_read += search.bytes_read
        stats.compute_ops += search.compute_ops

        # Each lookup reads its key and writes an aggregated result.
        stats.bytes_read += num_lookups * self.config.key_bytes
        stats.bytes_written += num_lookups * 8

        stats.divergence = divergence
        # Cache behaviour differs per structure: the (small) acceleration
        # structure serves the rays, the (large) key-rowID array serves the
        # bucket searches.  Weight the two hit rates by their traffic.
        ray_hit = self.cost_model.cache_hit_fraction(self._ray_footprint_bytes, unique_fraction)
        data_hit = self.cost_model.cache_hit_fraction(self._data_footprint_bytes, unique_fraction)
        data_bytes = max(1, stats.total_bytes - ray_bytes)
        stats.cache_hit_fraction = (ray_hit * ray_bytes + data_hit * data_bytes) / (
            ray_bytes + data_bytes
        )
        return stats

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Apply updates by rebuilding the whole index (the static cgRX strategy)."""
        keys = self.bucketed.keys
        row_ids = self.bucketed.row_ids

        deleted = 0
        if delete_keys is not None:
            keys, row_ids, deleted = delete_one_per_key(
                keys, row_ids, np.asarray(delete_keys, dtype=keys.dtype)
            )

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=keys.dtype)
            if insert_row_ids is None:
                insert_row_ids = np.arange(
                    row_ids.max() + 1 if row_ids.size else 0,
                    (row_ids.max() + 1 if row_ids.size else 0) + insert_keys.shape[0],
                    dtype=np.uint32,
                )
            insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
            keys = np.concatenate([keys, insert_keys])
            row_ids = np.concatenate([row_ids, insert_row_ids])
            inserted = int(insert_keys.shape[0])

        self._build(keys, row_ids)
        rebuild_stats = KernelStats(name="cgrx.rebuild")
        for part in self.build_stats:
            rebuild_stats.merge(part)
        return UpdateResult(inserted=inserted, deleted=deleted, stats=rebuild_stats, rebuilt=True)

    # -------------------------------------------------------------- lifecycle

    def export_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The authoritative sorted entry arrays (copies)."""
        return self.bucketed.keys.copy(), self.bucketed.row_ids.copy()

    def snapshot(self):
        """Freeze the current entries for the epoch rebuild lifecycle."""
        from repro.core.updatable import IndexSnapshot

        keys, row_ids = self.export_entries()
        return IndexSnapshot(keys=keys, row_ids=row_ids, config=self.config, epoch=self.epoch)

    @classmethod
    def build_from_snapshot(cls, snapshot, device: GpuDevice = RTX_4090) -> "CgRXIndex":
        """Bulk-load a replacement index; its epoch supersedes the snapshot's."""
        replacement = cls(
            snapshot.keys, snapshot.row_ids, config=snapshot.config, device=device
        )
        replacement.epoch = snapshot.epoch + 1
        return replacement

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        """Key-rowID array + vertex buffer + acceleration structure.

        Deliberately excludes the compiled tier's host-side arena: this
        simulated-device footprint feeds the cost model's cache fractions,
        which must stay identical across engines.  See
        :meth:`compiled_buffers_bytes`.
        """
        footprint = self.bucketed.memory_footprint()
        footprint.add("vertex_buffer", self.pipeline.vertex_buffer.memory_footprint_bytes())
        footprint.add("bvh", self.pipeline.bvh.memory_footprint_bytes())
        return footprint

    def compiled_buffers_bytes(self) -> int:
        """Host bytes held by the compiled tier: the pipeline's BVH node
        records and this index's point-batch buffers (0 when unused)."""
        total = self.pipeline.compiled_buffers_bytes()
        if self._lookup_batch is not None:
            total += self._lookup_batch.nbytes
        return total

    # ------------------------------------------------------------ conveniences

    def __len__(self) -> int:
        return len(self.bucketed)

    @property
    def num_buckets(self) -> int:
        """Number of buckets the key set is partitioned into."""
        return self.bucketed.num_buckets

    @property
    def num_triangles(self) -> int:
        """Number of triangles materialised in the 3D scene."""
        return self.representation.triangle_count()
