"""An OptiX-like raytracing pipeline: vertex buffer + acceleration structure + launches.

Indexes built on the RT substrate (RX, cgRX, cgRXu, RTScan) talk to this
class instead of juggling scenes and BVHs directly.  It mirrors the OptiX
programming model at the granularity the paper needs:

* write triangles into a vertex buffer,
* ``build_acceleration_structure()`` (``optixAccelBuild``),
* ``update_acceleration_structure()`` (refit-only update),
* fire axis-aligned rays one at a time (``cast_axis_closest`` /
  ``cast_axis_all``), as one compiled all-hits batch
  (``cast_axis_all_batch``) or as a scene representation's whole point
  routing in one compiled call (``route_batch``), and
* query the device memory footprint of buffer plus BVH.

Every ray fired through the pipeline is counted in ``lifetime_stats``, and
in the caller's statistics, which the GPU cost model consumes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.rtx.bvh import Bvh, BvhBuildConfig, build_bvh
from repro.rtx.geometry import HitRecord
from repro.rtx.refit import refit_bvh
from repro.rtx.scene import BuildFlags, TriangleScene, VertexBuffer
from repro.rtx.traversal import RayStats, TraversalEngine


class RaytracingPipeline:
    """Owns a vertex buffer and the acceleration structure built over it."""

    def __init__(
        self,
        bvh_config: Optional[BvhBuildConfig] = None,
        build_flags: BuildFlags = BuildFlags.NONE,
    ) -> None:
        self.vertex_buffer = VertexBuffer()
        self.bvh_config = bvh_config or BvhBuildConfig()
        self.build_flags = build_flags
        self._bvh: Optional[Bvh] = None
        self._engine: Optional[TraversalEngine] = None
        #: Shard-local arena backing the compiled tier's node tables; owned
        #: here (not by the per-build traversal engine) so acceleration-
        #: structure rebuilds and refits repack it in place across epochs.
        from repro.rtx.compiled import Arena

        self._compiled_arena = Arena()
        #: Statistics accumulated over the lifetime of the pipeline.
        self.lifetime_stats = RayStats()
        #: Number of full acceleration-structure builds performed.
        self.build_count = 0
        #: Number of refit-only updates performed.
        self.refit_count = 0

    # ------------------------------------------------------------------ build

    def build_acceleration_structure(self) -> Bvh:
        """(Re)build the BVH from the current vertex buffer contents."""
        scene = TriangleScene.from_vertex_buffer(self.vertex_buffer, self.build_flags)
        self._bvh = build_bvh(scene, self.bvh_config)
        self._engine = TraversalEngine(self._bvh, compiled_arena=self._compiled_arena)
        self.build_count += 1
        return self._bvh

    def update_acceleration_structure(self) -> Bvh:
        """Refit the existing BVH against the current vertex buffer contents.

        Requires a prior full build and an unchanged set of *occupied* slots;
        only vertex positions may differ.  This models the cheap-but-degrading
        OptiX refit path RX uses for updates.
        """
        if self._bvh is None:
            raise RuntimeError("update requested before the acceleration structure was built")
        scene = TriangleScene.from_vertex_buffer(self.vertex_buffer, self.build_flags)
        if scene.num_triangles != self._bvh.scene.num_triangles or not np.array_equal(
            scene.primitive_indices, self._bvh.scene.primitive_indices
        ):
            raise ValueError(
                "refit requires the same set of occupied slots; rebuild instead"
            )
        refit_bvh(self._bvh, scene.vertices)
        # Centres and flipped flags may have changed when triangles were rewritten.
        self._bvh.scene.centres = scene.centres
        self._bvh.scene.flipped = scene.flipped
        self._engine = TraversalEngine(self._bvh, compiled_arena=self._compiled_arena)
        self.refit_count += 1
        return self._bvh

    @property
    def bvh(self) -> Bvh:
        """The current acceleration structure (raises if not yet built)."""
        if self._bvh is None:
            raise RuntimeError("acceleration structure has not been built yet")
        return self._bvh

    @property
    def is_built(self) -> bool:
        """True once :meth:`build_acceleration_structure` has been called."""
        return self._bvh is not None

    # -------------------------------------------------------------- traversal

    def cast_axis_closest(
        self,
        axis: int,
        origin: Sequence[float],
        tmax: float = float("inf"),
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Fire an axis-aligned ray (fast path) and return its closest hit."""
        engine = self._require_engine()
        local = RayStats()
        record = engine.trace_axis_closest(axis, origin, tmax, local)
        if stats is not None:
            stats.merge(local)
        self.lifetime_stats.merge(local)
        return record

    def cast_axis_all(
        self,
        axis: int,
        origin: Sequence[float],
        tmax: float = float("inf"),
        stats: Optional[RayStats] = None,
    ) -> List[HitRecord]:
        """Fire an axis-aligned ray (fast path) and return all hits, nearest first."""
        engine = self._require_engine()
        local = RayStats()
        records = engine.trace_axis_all(axis, origin, tmax, local)
        if stats is not None:
            stats.merge(local)
        self.lifetime_stats.merge(local)
        return records

    def compiled_ready(self) -> bool:
        """Whether the compiled kernels can serve the current tree (records
        the fallback reason when they cannot)."""
        return self._require_engine()._compiled_ready()

    def compiled_tables(self):
        """The current tree's compiled node tables (see
        :meth:`TraversalEngine.compiled_tables`)."""
        return self._require_engine().compiled_tables()

    def record_rays(self, stats: RayStats) -> None:
        """Count the rays of a compiled kernel that routes on its own (the
        fused point and range batches) like those fired through this
        pipeline, in the lifetime statistics."""
        self.lifetime_stats.merge(stats)

    def route_batch(self, params, keys: np.ndarray, stats: Optional[RayStats] = None):
        """A scene representation's whole point routing in one compiled
        call: ``(bucket_ids, nodes_visited)`` (see
        :func:`repro.rtx.compiled.locate_keys_batch`).  Requires the
        compiled tier (callers resolve the engine first)."""
        from repro.rtx import compiled

        local = RayStats()
        result = compiled.locate_keys_batch(self.compiled_tables(), params, keys, local)
        if stats is not None:
            stats.merge(local)
        self.lifetime_stats.merge(local)
        return result

    def cast_axis_all_batch(
        self,
        axis: int,
        origins: np.ndarray,
        tmax: Optional[np.ndarray] = None,
        stats: Optional[RayStats] = None,
    ):
        """Fire a batch of axis-aligned rays and collect every hit per ray
        (a :class:`~repro.rtx.compiled.AxisAllBatch`)."""
        engine = self._require_engine()
        local = RayStats()
        result = engine.trace_axis_all_batch(axis, origins, tmax, local)
        if stats is not None:
            stats.merge(local)
        self.lifetime_stats.merge(local)
        return result

    def _require_engine(self) -> TraversalEngine:
        if self._engine is None:
            raise RuntimeError("acceleration structure has not been built yet")
        return self._engine

    # ----------------------------------------------------------------- memory

    def memory_footprint_bytes(self) -> int:
        """Device bytes: vertex buffer plus acceleration structure.

        The compiled tier's arena is deliberately *excluded*: it is host-side
        acceleration state, and the simulated-device footprint feeds the cost
        model's cache fractions, which must stay identical across engines.
        Report it through :meth:`compiled_buffers_bytes` instead.
        """
        total = self.vertex_buffer.memory_footprint_bytes()
        if self._bvh is not None:
            total += self._bvh.memory_footprint_bytes()
        return total

    def compiled_buffers_bytes(self) -> int:
        """Bytes held by the compiled tier's quantized-table arena."""
        return self._compiled_arena.capacity_bytes
