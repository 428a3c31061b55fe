"""RX: the fine-granular raytraced index RTIndeX (the paper's predecessor).

Every key is materialised as its own triangle (36 bytes), and the primitive
index of the triangle identifies the key's rowID.  Point lookups fire one ray
limited to the key's grid cell; range lookups fire one ray per grid row
covered by the range and must intersection-test every qualifying triangle,
which is what makes them slow.  Updates either rebuild the whole structure or
refit the BVH in place — the latter is cheap but inflates bounding volumes
and degrades subsequent lookups (Figure 1c), which is exactly the behaviour
cgRXu is designed to avoid.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
)
from repro.core.config import resolve_engine, validate_engine
from repro.core.key_mapping import KeyMapping
from repro.core.keyspace import mark_misses, unsigned_points, unsigned_ranges
from repro.gpu.accel import accel_build_stats, accel_refit_stats, triangle_generation_stats
from repro.gpu.cost_model import RT_NODE_RESIDUAL_BYTES, RT_TRIANGLE_RESIDUAL_BYTES
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint
from repro.gpu.simt import divergence_factor
from repro.gpu.sort import radix_sort_stats
from repro.rtx.bvh import BvhBuildConfig
from repro.rtx.geometry import TRIANGLE_BYTES
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.traversal import RayStats

#: Number of per-lookup work samples used for the divergence estimate.
_DIVERGENCE_SAMPLE = 4096

#: Safety cap on the number of per-row rays a single range lookup may fire in
#: the simulation; ranges spanning more rows fall back to an analytic cost
#: estimate (see ``range_lookup_batch``).
_MAX_RANGE_ROWS = 4096


class RXIndex(GpuIndex):
    """Fine-granular raytraced index: one triangle per key."""

    name = "RX"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = False
    supports_bulk_load = True
    memory_class = "high"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        key_bits: int = 64,
        scaled_mapping: bool = True,
        bvh_leaf_size: int = 4,
        device: GpuDevice = RTX_4090,
        engine: str = "compiled",
    ) -> None:
        super().__init__(device)
        if key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        #: Batch execution engine for point lookups (results are identical).
        self.engine = validate_engine(engine)
        self.key_bits = key_bits
        self.key_bytes = key_bits // 8
        self._key_dtype = np.uint32 if key_bits == 32 else np.uint64
        self.mapping = KeyMapping.for_key_bits(key_bits, scaled=scaled_mapping)
        self.bvh_leaf_size = bvh_leaf_size

        keys = np.asarray(keys, dtype=self._key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)
        self._build(keys, row_ids)

    # ------------------------------------------------------------------ build

    def _build(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        """Materialise one triangle per key and build the BVH over all of them."""
        self.keys = keys
        self.row_ids = row_ids
        self.pipeline = RaytracingPipeline(
            bvh_config=BvhBuildConfig(max_leaf_size=self.bvh_leaf_size)
        )
        buffer = self.pipeline.vertex_buffer
        buffer.reserve(keys.shape[0])

        xs = self.mapping.x_of(keys).astype(np.float64)
        ys = self.mapping.y_of(keys).astype(np.float64) * self.mapping.y_scale
        zs = self.mapping.z_of(keys).astype(np.float64) * self.mapping.z_scale
        buffer.write_key_triangles(np.arange(keys.shape[0], dtype=np.int64), xs, ys, zs)
        self.pipeline.build_acceleration_structure()

        num_keys = int(keys.shape[0])
        self.build_stats = [
            triangle_generation_stats(num_keys, num_keys),
            accel_build_stats(num_keys, self.pipeline.bvh.memory_footprint_bytes()),
        ]
        # Sorted helper arrays for computing range-lookup results and the
        # miss-handling fallback (RX itself does not need the sort on device).
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        self._sorted_row_ids = row_ids[order]

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        keys, negative = unsigned_points(keys, self._key_dtype)
        num_lookups = int(keys.shape[0])
        row_agg = np.full(num_lookups, -1, dtype=np.int64)
        match_counts = np.zeros(num_lookups, dtype=np.int64)

        ray_stats = RayStats()
        work_sample: List[int] = []
        sample_every = max(1, num_lookups // _DIVERGENCE_SAMPLE)
        previous_nodes = 0

        xs = self.mapping.x_of(keys).astype(np.int64)
        ys = self.mapping.y_of(keys).astype(np.int64)
        zs = self.mapping.z_of(keys).astype(np.int64)

        engine = resolve_engine(self.engine, self.pipeline)
        if engine == "compiled":
            # One all-hits megakernel call for the whole batch: per-ray hits
            # and node visits come back as arrays, identical to the scalar
            # loop.
            origins = np.stack(
                [
                    xs.astype(np.float64) - 0.5,
                    ys.astype(np.float64) * self.mapping.y_scale,
                    zs.astype(np.float64) * self.mapping.z_scale,
                ],
                axis=1,
            )
            batch = self.pipeline.cast_axis_all_batch(
                0, origins, np.full(num_lookups, 1.0), stats=ray_stats
            )
            if batch.ray.size:
                aggregates = np.zeros(num_lookups, dtype=np.int64)
                np.add.at(
                    aggregates,
                    batch.ray,
                    self.row_ids[batch.primitive_index].astype(np.int64),
                )
                match_counts = batch.hit_counts.astype(np.int64)
                row_agg = np.where(match_counts > 0, aggregates, -1)
            work_sample = [int(nodes) for nodes in batch.nodes_visited[::sample_every]]
        else:
            for position in range(num_lookups):
                origin = (
                    float(xs[position]) - 0.5,
                    float(ys[position]) * self.mapping.y_scale,
                    float(zs[position]) * self.mapping.z_scale,
                )
                # The ray is limited to a single grid cell so neighbouring
                # keys cannot produce false positives.
                hits = self.pipeline.cast_axis_all(0, origin, tmax=1.0, stats=ray_stats)
                if hits:
                    row_agg[position] = sum(
                        int(self.row_ids[hit.primitive_index]) for hit in hits
                    )
                    match_counts[position] = len(hits)
                if position % sample_every == 0:
                    work_sample.append(ray_stats.nodes_visited - previous_nodes)
                previous_nodes = ray_stats.nodes_visited

        stats = self._ray_lookup_stats(
            "rx.point_lookup", num_lookups, ray_stats, work_sample, keys
        )
        return mark_misses(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats, engine=engine),
            negative,
        )

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        lows, highs = unsigned_ranges(lows, highs, self._key_dtype)

        ray_stats = RayStats()
        results: List[np.ndarray] = []
        analytic_extra_rays = 0

        for low, high in zip(lows, highs):
            rows = self._rows_covered(int(low), int(high))
            if rows is None:
                # The range spans too many rows to simulate ray by ray; fall
                # back to an analytic estimate of the ray work while the
                # result values come from the sorted helper arrays.
                results.append(self._sorted_range_result(int(low), int(high)))
                analytic_extra_rays += self._row_span(int(low), int(high))
                continue
            hits: List[int] = []
            for row_y, row_z, x_start, x_end in rows:
                origin = (
                    float(x_start) - 0.5,
                    float(row_y) * self.mapping.y_scale,
                    float(row_z) * self.mapping.z_scale,
                )
                tmax = float(x_end - x_start) + 1.0
                for hit in self.pipeline.cast_axis_all(0, origin, tmax=tmax, stats=ray_stats):
                    hits.append(int(self.row_ids[hit.primitive_index]))
            results.append(np.asarray(hits, dtype=np.uint32))

        stats = self._ray_lookup_stats(
            "rx.range_lookup", int(lows.shape[0]), ray_stats, [], lows
        )
        if analytic_extra_rays:
            depth = max(1, self.pipeline.bvh.depth())
            stats.rays_cast += analytic_extra_rays
            stats.bvh_node_visits += analytic_extra_rays * depth
            stats.triangle_tests += analytic_extra_rays * self.bvh_leaf_size
            stats.bytes_read += analytic_extra_rays * depth * RT_NODE_RESIDUAL_BYTES
        return RangeLookupResult(row_ids=results, stats=stats)

    def _row_span(self, low: int, high: int) -> int:
        """Number of grid rows between the positions of ``low`` and ``high`` (inclusive)."""
        low_row = int(self.mapping.yz_of(np.asarray(low, dtype=self._key_dtype)))
        high_row = int(self.mapping.yz_of(np.asarray(high, dtype=self._key_dtype)))
        return high_row - low_row + 1

    def _rows_covered(self, low: int, high: int) -> "Optional[List[Tuple[int, int, int, int]]]":
        """Grid rows a range lookup must fire a ray through.

        Returns tuples ``(row_y, row_z, x_start, x_end)``; intermediate rows
        are fully covered, the first and last row are partial.  Returns
        ``None`` when the range spans more than ``_MAX_RANGE_ROWS`` rows and
        the caller should use the analytic cost estimate instead.
        """
        mapping = self.mapping
        low_x, low_y, low_z = (int(v) for v in mapping.key_to_grid(low))
        high_x, high_y, high_z = (int(v) for v in mapping.key_to_grid(high))
        low_row = int(mapping.yz_of(np.asarray(low, dtype=self._key_dtype)))
        high_row = int(mapping.yz_of(np.asarray(high, dtype=self._key_dtype)))

        if low_row == high_row:
            return [(low_y, low_z, low_x, high_x)]
        if high_row - low_row - 1 > _MAX_RANGE_ROWS:
            return None
        rows: List[Tuple[int, int, int, int]] = [(low_y, low_z, low_x, mapping.x_max)]
        for row in range(low_row + 1, high_row):
            row_key = np.uint64(row) << np.uint64(mapping.x_bits)
            row_y = int(mapping.y_of(row_key))
            row_z = int(mapping.z_of(row_key))
            rows.append((row_y, row_z, 0, mapping.x_max))
        rows.append((high_y, high_z, 0, high_x))
        return rows

    def _sorted_range_result(self, low: int, high: int) -> np.ndarray:
        """Result values of a range lookup via the sorted helper arrays."""
        first = int(np.searchsorted(self._sorted_keys, np.asarray(low, dtype=self._key_dtype), "left"))
        stop = int(np.searchsorted(self._sorted_keys, np.asarray(high, dtype=self._key_dtype), "right"))
        return self._sorted_row_ids[first:stop].copy()

    def _ray_lookup_stats(
        self,
        name: str,
        num_lookups: int,
        ray_stats: RayStats,
        work_sample: List[int],
        keys: np.ndarray,
    ) -> KernelStats:
        stats = KernelStats(name=name, threads=num_lookups, launches=1)
        stats.rays_cast = ray_stats.rays_cast
        stats.bvh_node_visits = ray_stats.nodes_visited
        stats.triangle_tests = ray_stats.triangle_tests
        stats.bytes_read += ray_stats.nodes_visited * RT_NODE_RESIDUAL_BYTES
        stats.bytes_read += ray_stats.triangle_tests * RT_TRIANGLE_RESIDUAL_BYTES
        stats.bytes_read += num_lookups * self.key_bytes
        stats.bytes_written += num_lookups * 8
        stats.divergence = divergence_factor(work_sample) if work_sample else 1.2
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self.memory_footprint().total_bytes, self._unique_fraction(keys)
        )
        return stats

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Default RX update strategy: rebuild the whole index from scratch."""
        keys = self.keys
        row_ids = self.row_ids

        deleted = 0
        if delete_keys is not None and len(delete_keys) > 0:
            delete_keys = np.asarray(delete_keys, dtype=self._key_dtype)
            keep = np.ones(keys.shape[0], dtype=bool)
            for target in delete_keys:
                matches = np.nonzero((keys == target) & keep)[0]
                if matches.size:
                    keep[matches[0]] = False
                    deleted += 1
            keys = keys[keep]
            row_ids = row_ids[keep]

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=self._key_dtype)
            if insert_row_ids is None:
                insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
            insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
            keys = np.concatenate([keys, insert_keys])
            row_ids = np.concatenate([row_ids, insert_row_ids])
            inserted = int(insert_keys.shape[0])

        self._build(keys, row_ids)
        rebuild_stats = KernelStats(name="rx.rebuild")
        # Rebuilding also re-sorts nothing (RX keeps insertion order), but the
        # triangle regeneration and the full BVH build dominate anyway.
        for part in self.build_stats:
            rebuild_stats.merge(part)
        return UpdateResult(inserted=inserted, deleted=deleted, stats=rebuild_stats, rebuilt=True)

    def update_batch_refit(
        self,
        insert_keys: np.ndarray,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Refit-based updates: overwrite deleted slots and refit the BVH.

        This is the cheap update path whose side effect Figure 1c documents:
        because the BVH topology is frozen, triangles written to positions far
        from their slot's original neighbourhood inflate the bounding volumes
        and subsequent lookups slow down dramatically.  Requires at least as
        many deletions as insertions (slots are recycled, never added).
        """
        insert_keys = np.asarray(insert_keys, dtype=self._key_dtype)
        if insert_row_ids is None:
            insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
        insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
        delete_keys = (
            np.asarray(delete_keys, dtype=self._key_dtype)
            if delete_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        if insert_keys.shape[0] > delete_keys.shape[0]:
            raise ValueError(
                "refit-based updates can only recycle slots: need at least as many "
                "deletions as insertions (rebuild instead)"
            )

        # Locate one slot per deleted key.
        free_slots: List[int] = []
        used = np.zeros(self.keys.shape[0], dtype=bool)
        for target in delete_keys:
            matches = np.nonzero((self.keys == target) & ~used)[0]
            if matches.size:
                used[matches[0]] = True
                free_slots.append(int(matches[0]))
        deleted = len(free_slots)

        buffer = self.pipeline.vertex_buffer
        inserted = 0
        for slot, key, row_id in zip(free_slots, insert_keys, insert_row_ids):
            x, y, z = self.mapping.key_to_scene(int(key))
            buffer.write_key_triangle(slot, x, y, z)
            self.keys[slot] = key
            self.row_ids[slot] = row_id
            inserted += 1
        # Deleted keys without a replacement keep their triangle but are
        # marked invalid by pointing the slot at an unused grid position.
        for slot in free_slots[inserted:]:
            x, y, z = self.mapping.grid_to_scene(0.0, 0.0, 0.0)
            buffer.write_key_triangle(slot, x, y, z)
            self.row_ids[slot] = np.uint32(0xFFFFFFFF)

        self.pipeline.update_acceleration_structure()
        order = np.argsort(self.keys, kind="stable")
        self._sorted_keys = self.keys[order]
        self._sorted_row_ids = self.row_ids[order]

        stats = KernelStats(name="rx.refit_update", threads=max(1, inserted), launches=2)
        stats.merge(radix_sort_stats(insert_keys.shape[0] + delete_keys.shape[0], self.key_bytes))
        stats.merge(
            accel_refit_stats(
                self.keys.shape[0], self.pipeline.bvh.memory_footprint_bytes()
            )
        )
        stats.bytes_written += inserted * TRIANGLE_BYTES
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=False)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("vertex_buffer", self.pipeline.vertex_buffer.memory_footprint_bytes())
        footprint.add("bvh", self.pipeline.bvh.memory_footprint_bytes())
        return footprint

    def __len__(self) -> int:
        return int(self.keys.shape[0])
