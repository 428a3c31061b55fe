"""Ray traversal over a BVH with per-ray instrumentation.

The traversal engine stands in for the RT cores: it finds the closest hit (or
all hits) of a ray against the triangles of a scene by walking the BVH.  All
work performed — bounding-volume tests and ray/triangle intersection tests —
is counted in :class:`RayStats`, which the GPU cost model later converts into
simulated time.  This is the crucial link that lets the reproduction show the
paper's performance *shapes*: a bloated BVH (RX after refits) or a badly
clustered BVH (unscaled key mapping) directly produces higher counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rtx.bvh import Bvh
from repro.rtx.geometry import HitRecord, Ray, ray_triangles_intersect


@dataclass
class RayStats:
    """Counters describing the work done by one or more ray traversals."""

    rays_cast: int = 0
    nodes_visited: int = 0
    aabb_tests: int = 0
    triangle_tests: int = 0
    hits: int = 0
    misses: int = 0

    def merge(self, other: "RayStats") -> "RayStats":
        """Accumulate ``other`` into ``self`` and return ``self``."""
        self.rays_cast += other.rays_cast
        self.nodes_visited += other.nodes_visited
        self.aabb_tests += other.aabb_tests
        self.triangle_tests += other.triangle_tests
        self.hits += other.hits
        self.misses += other.misses
        return self

    def add_totals(self, rays: int, nodes: int, triangle_tests: int, hits: int) -> "RayStats":
        """Accumulate a compiled kernel's ray totals (every node visited is
        one AABB test; every ray without a hit a miss) and return ``self``."""
        self.rays_cast += rays
        self.nodes_visited += nodes
        self.aabb_tests += nodes
        self.triangle_tests += triangle_tests
        self.hits += hits
        self.misses += rays - hits
        return self

    def copy(self) -> "RayStats":
        return RayStats(
            rays_cast=self.rays_cast,
            nodes_visited=self.nodes_visited,
            aabb_tests=self.aabb_tests,
            triangle_tests=self.triangle_tests,
            hits=self.hits,
            misses=self.misses,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.rays_cast = 0
        self.nodes_visited = 0
        self.aabb_tests = 0
        self.triangle_tests = 0
        self.hits = 0
        self.misses = 0


def _slab_test(
    ray_origin: np.ndarray,
    ray_inv_dir: np.ndarray,
    ray_parallel: np.ndarray,
    tmin: float,
    tmax: float,
    minimum: np.ndarray,
    maximum: np.ndarray,
) -> bool:
    """Slab ray/AABB test with precomputed inverse direction."""
    t0 = (minimum - ray_origin) * ray_inv_dir
    t1 = (maximum - ray_origin) * ray_inv_dir
    t_small = np.minimum(t0, t1)
    t_big = np.maximum(t0, t1)
    if ray_parallel.any():
        inside = (ray_origin >= minimum) & (ray_origin <= maximum)
        if np.any(ray_parallel & ~inside):
            return False
        t_small = np.where(ray_parallel, -np.inf, t_small)
        t_big = np.where(ray_parallel, np.inf, t_big)
    t_near = max(float(t_small.max()), tmin)
    t_far = min(float(t_big.min()), tmax)
    return t_near <= t_far


class TraversalEngine:
    """Traverses rays through a BVH, mimicking the hardware closest-hit pipeline.

    Two traversal paths are provided: a general Möller-Trumbore path
    (:meth:`trace_closest` / :meth:`trace_all`) and a fast specialised path for
    axis-aligned rays (:meth:`trace_axis_closest` / :meth:`trace_axis_all`).
    The index structures only ever fire axis-aligned rays through grid points,
    so the fast path exploits that a lookup ray hits a key triangle exactly
    when the two perpendicular coordinates match the triangle's grid point.
    Both paths produce identical hits and identical work counters for those
    rays (asserted by the test suite).
    """

    #: Perpendicular distance below which an axis-aligned ray through a grid
    #: point is considered to pass through a triangle centred on that point.
    AXIS_HIT_TOLERANCE = 0.3

    def __init__(self, bvh: Bvh, compiled_arena=None) -> None:
        self._bvh = bvh
        self._vertices = bvh.scene.vertices
        self._primitive_indices = bvh.scene.primitive_indices
        self._flipped = bvh.scene.flipped
        self._fast_tables: Optional[tuple] = None
        self._node_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Shard-local arena for the compiled tier's BVH node records;
        #: owned by the pipeline so rebuilds/refits repack it in place.
        self._compiled_arena = compiled_arena
        self._compiled_tables = None

    @property
    def bvh(self) -> Bvh:
        return self._bvh

    def node_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The BVH node bounds promoted to float64, built once per engine so
        the general-ray slab tests do not promote a node row per visit."""
        if self._node_bounds is None:
            self._node_bounds = (
                self._bvh.node_min.astype(np.float64),
                self._bvh.node_max.astype(np.float64),
            )
        return self._node_bounds

    def compiled_tables(self):
        """The BVH node records and leaf-slot tables of the compiled
        megakernel (:class:`~repro.rtx.compiled.CompiledBvhTables`).

        Built lazily into the engine's arena on the first compiled batch; the
        arena is reused (rebuilt in place) across acceleration-structure
        epochs when the owning pipeline threads it through.
        """
        if self._compiled_tables is None:
            from repro.rtx import compiled

            if self._compiled_arena is None:
                self._compiled_arena = compiled.Arena()
            self._compiled_tables = compiled.CompiledBvhTables(self._bvh, self._compiled_arena)
        return self._compiled_tables

    def _compiled_ready(self) -> bool:
        """Whether the compiled kernels can serve this engine's tree; records
        the fallback reason when they cannot."""
        from repro.rtx import compiled

        if compiled.library() is None:
            compiled.record_fallback(compiled.unavailable_reason())
            return False
        if not self.compiled_tables().usable:
            compiled.record_fallback("tables_unusable")
            return False
        return True

    def compiled_buffers_bytes(self) -> int:
        """Arena bytes held by the compiled tier (0 until the first compiled batch)."""
        if self._compiled_arena is None:
            return 0
        return self._compiled_arena.capacity_bytes

    def _prepare_ray(self, ray: Ray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        origin = ray.origin.astype(np.float64)
        direction = ray.direction.astype(np.float64)
        parallel = np.abs(direction) < 1e-12
        with np.errstate(divide="ignore"):
            inv_dir = np.where(parallel, np.inf, 1.0 / direction)
        return origin, inv_dir, parallel

    def trace_closest(self, ray: Ray, stats: Optional[RayStats] = None) -> HitRecord:
        """Return the closest intersection of ``ray`` with the scene (or a miss)."""
        stats = stats if stats is not None else RayStats()
        stats.rays_cast += 1

        bvh = self._bvh
        record = HitRecord()
        if bvh.num_nodes == 0:
            stats.misses += 1
            return record

        node_min, node_max = self.node_bounds()
        origin, inv_dir, parallel = self._prepare_ray(ray)
        best_t = ray.tmax
        stack: List[int] = [0]
        while stack:
            index = stack.pop()
            stats.nodes_visited += 1
            stats.aabb_tests += 1
            if not _slab_test(
                origin,
                inv_dir,
                parallel,
                ray.tmin,
                best_t,
                node_min[index],
                node_max[index],
            ):
                continue
            count = int(bvh.node_count[index])
            if count > 0:
                local = bvh.leaf_primitive_indices(index)
                stats.triangle_tests += len(local)
                hit_mask, t_values, front = ray_triangles_intersect(
                    Ray(ray.origin, ray.direction, ray.tmin, best_t),
                    self._vertices[local],
                )
                if hit_mask.any():
                    hit_positions = np.nonzero(hit_mask)[0]
                    best_local = hit_positions[np.argmin(t_values[hit_positions])]
                    t = float(t_values[best_local])
                    if t < best_t:
                        best_t = t
                        scene_tri = int(local[best_local])
                        record = HitRecord(
                            hit=True,
                            t=t,
                            primitive_index=int(self._primitive_indices[scene_tri]),
                            front_face=bool(front[best_local]),
                            point=ray.origin + t * ray.direction,
                        )
            else:
                stack.append(int(bvh.node_left[index]))
                stack.append(int(bvh.node_right[index]))

        if record.hit:
            stats.hits += 1
        else:
            stats.misses += 1
        return record

    def trace_all(self, ray: Ray, stats: Optional[RayStats] = None) -> List[HitRecord]:
        """Return *all* intersections along ``ray`` sorted by distance.

        This models an OptiX any-hit program that records every intersection,
        which is how RX answers range lookups (and the reason they are slow:
        every qualifying triangle must be intersection-tested).
        """
        stats = stats if stats is not None else RayStats()
        stats.rays_cast += 1

        bvh = self._bvh
        hits: List[HitRecord] = []
        if bvh.num_nodes == 0:
            stats.misses += 1
            return hits

        node_min, node_max = self.node_bounds()
        origin, inv_dir, parallel = self._prepare_ray(ray)
        stack: List[int] = [0]
        while stack:
            index = stack.pop()
            stats.nodes_visited += 1
            stats.aabb_tests += 1
            if not _slab_test(
                origin,
                inv_dir,
                parallel,
                ray.tmin,
                ray.tmax,
                node_min[index],
                node_max[index],
            ):
                continue
            count = int(bvh.node_count[index])
            if count > 0:
                local = bvh.leaf_primitive_indices(index)
                stats.triangle_tests += len(local)
                hit_mask, t_values, front = ray_triangles_intersect(ray, self._vertices[local])
                for position in np.nonzero(hit_mask)[0]:
                    t = float(t_values[position])
                    scene_tri = int(local[position])
                    hits.append(
                        HitRecord(
                            hit=True,
                            t=t,
                            primitive_index=int(self._primitive_indices[scene_tri]),
                            front_face=bool(front[position]),
                            point=ray.origin + t * ray.direction,
                        )
                    )
            else:
                stack.append(int(bvh.node_left[index]))
                stack.append(int(bvh.node_right[index]))

        hits.sort(key=lambda record: record.t)
        if hits:
            stats.hits += 1
        else:
            stats.misses += 1
        return hits

    # ------------------------------------------------------ fast axis-aligned path

    def _build_fast_tables(self) -> tuple:
        """Precompute Python-native node and triangle tables for the fast path.

        Per-ray numpy overhead dominates the general path; the index fires
        millions of small axis-aligned rays, so the fast path keeps the hot
        loop in plain Python floats.
        """
        if self._fast_tables is not None:
            return self._fast_tables
        bvh = self._bvh
        node_min = bvh.node_min.astype(float).tolist()
        node_max = bvh.node_max.astype(float).tolist()
        node_left = bvh.node_left.tolist()
        node_right = bvh.node_right.tolist()
        node_first = bvh.node_first.tolist()
        node_count = bvh.node_count.tolist()
        order = bvh.primitive_order.tolist()
        centroids = bvh.scene.centroids().astype(float).tolist()
        primitive_indices = self._primitive_indices.tolist()
        flipped = self._flipped.tolist()
        self._fast_tables = (
            node_min,
            node_max,
            node_left,
            node_right,
            node_first,
            node_count,
            order,
            centroids,
            primitive_indices,
            flipped,
        )
        return self._fast_tables

    def _trace_axis(
        self,
        axis: int,
        origin: Sequence[float],
        tmax: float,
        collect_all: bool,
        stats: RayStats,
    ) -> List[HitRecord]:
        """Shared implementation of the fast axis-aligned traversal."""
        stats.rays_cast += 1
        if self._bvh.num_nodes == 0:
            stats.misses += 1
            return []

        (
            node_min,
            node_max,
            node_left,
            node_right,
            node_first,
            node_count,
            order,
            centroids,
            primitive_indices,
            flipped,
        ) = self._build_fast_tables()

        perp_a, perp_b = _PERP_AXES[axis]
        origin_axis = float(origin[axis])
        coord_a = float(origin[perp_a])
        coord_b = float(origin[perp_b])
        tolerance = self.AXIS_HIT_TOLERANCE
        slack = tolerance  # AABBs already include the triangle extent.

        best_t = tmax
        best_record: Optional[HitRecord] = None
        collected: List[HitRecord] = []

        stack = [0]
        while stack:
            index = stack.pop()
            stats.nodes_visited += 1
            stats.aabb_tests += 1
            minimum = node_min[index]
            maximum = node_max[index]
            if coord_a < minimum[perp_a] - slack or coord_a > maximum[perp_a] + slack:
                continue
            if coord_b < minimum[perp_b] - slack or coord_b > maximum[perp_b] + slack:
                continue
            if maximum[axis] < origin_axis or minimum[axis] > origin_axis + best_t:
                continue
            count = node_count[index]
            if count > 0:
                first = node_first[index]
                stats.triangle_tests += count
                for slot in range(first, first + count):
                    scene_tri = order[slot]
                    centre = centroids[scene_tri]
                    if abs(centre[perp_a] - coord_a) > tolerance:
                        continue
                    if abs(centre[perp_b] - coord_b) > tolerance:
                        continue
                    t = centre[axis] - origin_axis
                    if t < 0.0 or t > best_t:
                        continue
                    record = HitRecord(
                        hit=True,
                        t=t,
                        primitive_index=int(primitive_indices[scene_tri]),
                        front_face=not flipped[scene_tri],
                        point=np.array(
                            [
                                centre[0],
                                centre[1],
                                centre[2],
                            ],
                            dtype=np.float32,
                        ),
                    )
                    if collect_all:
                        collected.append(record)
                    elif best_record is None or t < best_record.t:
                        best_record = record
                        best_t = t
            else:
                left = node_left[index]
                right = node_right[index]
                # Push the farther child first so the nearer one is visited
                # next; this lets the closest-hit search prune aggressively.
                if node_min[left][axis] <= node_min[right][axis]:
                    stack.append(right)
                    stack.append(left)
                else:
                    stack.append(left)
                    stack.append(right)

        if collect_all:
            collected.sort(key=lambda record: record.t)
            if collected:
                stats.hits += 1
            else:
                stats.misses += 1
            return collected

        if best_record is not None:
            stats.hits += 1
            return [best_record]
        stats.misses += 1
        return []

    def trace_axis_closest(
        self,
        axis: int,
        origin: Sequence[float],
        tmax: float = float("inf"),
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Closest hit of an axis-aligned ray travelling in the +``axis`` direction."""
        local = stats if stats is not None else RayStats()
        hits = self._trace_axis(axis, origin, tmax, collect_all=False, stats=local)
        return hits[0] if hits else HitRecord()

    def trace_axis_all(
        self,
        axis: int,
        origin: Sequence[float],
        tmax: float = float("inf"),
        stats: Optional[RayStats] = None,
    ) -> List[HitRecord]:
        """All hits of an axis-aligned ray travelling in the +``axis`` direction."""
        local = stats if stats is not None else RayStats()
        return self._trace_axis(axis, origin, tmax, collect_all=True, stats=local)

    # --------------------------------------------------------- compiled batches

    def trace_axis_all_batch(
        self,
        axis: int,
        origins: np.ndarray,
        tmax: Optional[np.ndarray] = None,
        stats: Optional[RayStats] = None,
    ):
        """All hits of a batch of +``axis`` rays (megakernel in collect mode).

        Returns a :class:`~repro.rtx.compiled.AxisAllBatch` with hits grouped
        by ray and sorted by distance, matching :meth:`trace_axis_all`.  An
        empty batch or an empty tree is answered here (every ray a miss);
        anything else requires the compiled tier, which callers resolve
        first (see :func:`repro.core.config.resolve_engine`).
        """
        from repro.rtx import compiled

        origins = np.asarray(origins, dtype=np.float64)
        num_rays = int(origins.shape[0])
        if tmax is None:
            tmax = np.full(num_rays, np.inf, dtype=np.float64)
        if stats is None:
            stats = RayStats()
        if num_rays == 0 or self._bvh.num_nodes == 0:
            stats.rays_cast += num_rays
            stats.misses += num_rays
            return compiled.AxisAllBatch.empty(num_rays)
        return compiled.trace_axis_all_batch(self.compiled_tables(), axis, origins, tmax, stats)


#: For each ray axis, the two perpendicular axes checked by the fast path.
_PERP_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
