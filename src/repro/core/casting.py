"""Ray-casting helpers shared by the scene representations.

The lookup procedures of cgRX fire axis-aligned rays from positions described
in *grid* coordinates (the integer coordinates produced by the key mapping).
:class:`SceneCaster` translates those grid positions into scene coordinates
(applying the y/z scaling), fires the rays through the raytracing pipeline's
fast axis path and snaps hit positions back onto the grid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
        tmax: float = float("inf"),
        stats: Optional[RayStats] = None,
    ) -> HitRecord:
        """Ray along +x starting just before grid column ``from_x`` in row (y, z)."""
        origin = (
            float(from_x) - RAY_START_OFFSET,
            float(grid_y) * self._mapping.y_scale,
            float(grid_z) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest(0, origin, tmax, stats)

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

    # --------------------------------------------------------- compiled batches
    #
    # The batch variants fire one megakernel call for a whole array of grid
    # positions; origins are computed with the same float operations as the
    # scalar methods, so hits and ray counters are identical per ray.

    def _origins(self, x, y, z) -> "np.ndarray":
        xs, ys, zs = np.broadcast_arrays(
            np.asarray(x, dtype=np.float64),
            np.asarray(y, dtype=np.float64),
            np.asarray(z, dtype=np.float64),
        )
        return np.stack([xs, ys, zs], axis=1)

    def x_cast_batch(
        self, from_x, grid_y, grid_z, tmax=None, stats: Optional[RayStats] = None
    ):
        """Batched :meth:`x_cast`: one +x ray per grid position."""
        origins = self._origins(
            np.asarray(from_x, dtype=np.float64) - RAY_START_OFFSET,
            np.asarray(grid_y, dtype=np.float64) * self._mapping.y_scale,
            np.asarray(grid_z, dtype=np.float64) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest_batch(0, origins, tmax, stats)

    def y_cast_batch(self, grid_x, from_y, grid_z, stats: Optional[RayStats] = None):
        """Batched :meth:`y_cast`."""
        origins = self._origins(
            np.asarray(grid_x, dtype=np.float64),
            (np.asarray(from_y, dtype=np.float64) - RAY_START_OFFSET)
            * self._mapping.y_scale,
            np.asarray(grid_z, dtype=np.float64) * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest_batch(1, origins, None, stats)

    def z_cast_batch(self, grid_x, grid_y, from_z, stats: Optional[RayStats] = None):
        """Batched :meth:`z_cast`."""
        origins = self._origins(
            np.asarray(grid_x, dtype=np.float64),
            np.asarray(grid_y, dtype=np.float64) * self._mapping.y_scale,
            (np.asarray(from_z, dtype=np.float64) - RAY_START_OFFSET)
            * self._mapping.z_scale,
        )
        return self._pipeline.cast_axis_closest_batch(2, origins, None, stats)

    def hit_grid_y_batch(self, points: "np.ndarray") -> "np.ndarray":
        """Grid rows of batched hit points (same rounding as :meth:`hit_grid_y`)."""
        return np.round(
            points[:, 1].astype(np.float64) / self._mapping.y_scale
        ).astype(np.int64)

    def hit_grid_z_batch(self, points: "np.ndarray") -> "np.ndarray":
        """Grid planes of batched hit points."""
        return np.round(
            points[:, 2].astype(np.float64) / self._mapping.z_scale
        ).astype(np.int64)
