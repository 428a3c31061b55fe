"""Ray-casting helpers shared by the scene representations.

The lookup procedures of cgRX fire axis-aligned rays from positions described
in *grid* coordinates (the integer coordinates produced by the key mapping).
:class:`SceneCaster` translates those grid positions into scene coordinates
(applying the y/z scaling), fires the rays through the raytracing pipeline's
fast axis path and snaps hit positions back onto the grid.  These are the
rays of the scalar ``locate_bucket`` procedures; a compiled batch routes in
one C call instead (``SceneRepresentation.locate_bucket_batch``), with the
same origins and the same snap.
"""

from __future__ import annotations

from typing import Optional

from repro.core.key_mapping import KeyMapping
from repro.rtx.geometry import HitRecord
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.traversal import RayStats

#: Rays start half a grid cell before the first candidate position so that a
#: triangle located exactly at that position is intersected.
RAY_START_OFFSET = 0.5


class SceneCaster:
    """Fires the x/y/z lookup rays of cgRX (``xCast``/``yCast``/``zCast`` in the paper)."""

    def __init__(self, pipeline: RaytracingPipeline, mapping: KeyMapping) -> None:
        self._pipeline = pipeline
        self._mapping = mapping

    @property
    def mapping(self) -> KeyMapping:
        return self._mapping

    def x_cast(
        self,
        from_x: float,
        grid_y: float,
        grid_z: float,
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Ray along +x starting just before grid column ``from_x`` in row (y, z)."""
        origin = (
            float(from_x) - RAY_START_OFFSET,
            float(grid_y) * self._mapping.y_scale,
            float(grid_z) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest(0, origin, float("inf"), stats)

    def y_cast(
        self,
        grid_x: float,
        from_y: float,
        grid_z: float,
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Ray along +y in column ``grid_x`` starting just before grid row ``from_y``."""
        origin = (
            float(grid_x),
            (float(from_y) - RAY_START_OFFSET) * self._mapping.y_scale,
            float(grid_z) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest(1, origin, float("inf"), stats)

    def z_cast(
        self,
        grid_x: float,
        grid_y: float,
        from_z: float,
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Ray along +z at column/row (x, y) starting just before grid plane ``from_z``."""
        origin = (
            float(grid_x),
            float(grid_y) * self._mapping.y_scale,
            (float(from_z) - RAY_START_OFFSET) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest(2, origin, float("inf"), stats)

    def hit_grid_y(self, hit: HitRecord) -> int:
        """Grid row of a hit (snaps the scene y coordinate back to the grid)."""
        return self._mapping.scene_y_to_grid(hit.y)

    def hit_grid_z(self, hit: HitRecord) -> int:
        """Grid plane of a hit."""
        return self._mapping.scene_z_to_grid(hit.z)
