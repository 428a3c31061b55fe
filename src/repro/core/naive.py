"""The naive scene representation (Section III, Algorithms 1 and 2).

One representative triangle per bucket at the position of the bucket's last
key, plus explicit *row markers* at x = -1 and *plane markers* at
x = -1, y = -1 that let the lookup procedure discover the next populated row
or plane with a single additional ray.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.representation import MISS, SceneRepresentation
from repro.rtx.traversal import RayStats

#: Grid x position of the explicit row and plane markers.
MARKER_X = -1.0
#: Grid y position of the explicit plane markers.
MARKER_Y = -1.0


class NaiveRepresentation(SceneRepresentation):
    """Representative triangles plus explicit row/plane marker triangles."""

    # ------------------------------------------------------------ construction

    def _build_scene(self) -> None:
        """Algorithm 1: create representatives and row/plane markers."""
        bucketed = self.bucketed
        mapping = self.mapping
        buffer = self.pipeline.vertex_buffer

        num_buckets = self.num_buckets
        marker_sections = int(self.multi_line) + int(self.multi_plane)
        buffer.reserve((1 + marker_sections) * num_buckets)

        reps = bucketed.representatives().astype(np.uint64)
        rep_x = mapping.x_of(reps).astype(np.int64)
        rep_y = mapping.y_of(reps).astype(np.int64)
        rep_z = mapping.z_of(reps).astype(np.int64)
        rep_yz = mapping.yz_of(reps).astype(np.uint64)

        # prev_rep[b] is the representative of bucket b-1; bucket 0 has none
        # and always materialises its representative.
        prev_rep = np.empty_like(reps)
        prev_rep[1:] = reps[:-1]
        prev_yz = np.empty_like(rep_yz)
        prev_yz[1:] = rep_yz[:-1]
        prev_z = np.empty_like(rep_z)
        prev_z[1:] = rep_z[:-1]

        is_first = np.zeros(num_buckets, dtype=bool)
        is_first[0] = True

        needs_rep = is_first | (reps != prev_rep)
        needs_row_marker = self.multi_line & (is_first | (rep_yz != prev_yz))
        needs_plane_marker = self.multi_plane & (is_first | (rep_z != prev_z))

        #: Slot offset of the row-marker section in the vertex buffer.
        self.row_marker_offset = num_buckets
        #: Slot offset of the plane-marker section.
        self.plane_marker_offset = num_buckets * (1 + int(self.multi_line))
        self.marker_lanes = (MARKER_X, MARKER_Y)

        scene_y = rep_y.astype(np.float64) * mapping.y_scale
        scene_z = rep_z.astype(np.float64) * mapping.z_scale

        rep_slots = np.nonzero(needs_rep)[0]
        buffer.write_key_triangles(
            rep_slots, rep_x[rep_slots].astype(np.float64), scene_y[rep_slots], scene_z[rep_slots]
        )

        if self.multi_line:
            marker_slots = np.nonzero(needs_row_marker)[0]
            buffer.write_key_triangles(
                marker_slots + self.row_marker_offset,
                np.full(marker_slots.shape[0], MARKER_X),
                scene_y[marker_slots],
                scene_z[marker_slots],
            )

        if self.multi_plane:
            marker_slots = np.nonzero(needs_plane_marker)[0]
            buffer.write_key_triangles(
                marker_slots + self.plane_marker_offset,
                np.full(marker_slots.shape[0], MARKER_X),
                np.full(marker_slots.shape[0], MARKER_Y * mapping.y_scale),
                scene_z[marker_slots],
            )

    # ----------------------------------------------------------------- lookups

    def locate_bucket(self, key: int, stats: Optional[RayStats] = None) -> int:
        """Algorithm 2: point the key to its bucket with up to five rays."""
        key = int(key)
        if key > self.max_representative:
            return MISS
        if key < self.min_representative:
            return 0

        mapping = self.mapping
        caster = self.caster
        kx = int(mapping.x_of(key))
        ky = int(mapping.y_of(key))
        kz = int(mapping.z_of(key))

        # Ray 1: along +x in the key's own row.
        same_row = caster.x_cast(kx, ky, kz, stats=stats)
        if same_row:
            return int(same_row.primitive_index)

        # Rays 2+3: find the next populated row on the same plane via the
        # row markers at x = -1, then take its leftmost representative.
        if self.multi_line:
            next_row = caster.y_cast(MARKER_X, ky + 1, kz, stats=stats)
            if next_row:
                row_y = caster.hit_grid_y(next_row)
                hit = caster.x_cast(0, row_y, kz, stats=stats)
                if hit:
                    return int(hit.primitive_index)
                return MISS

        # Rays 3-5: find the next populated plane via the plane markers at
        # x = -1, y = -1, then its first populated row, then its leftmost
        # representative.
        if self.multi_plane:
            next_plane = caster.z_cast(MARKER_X, MARKER_Y, kz + 1, stats=stats)
            if next_plane:
                plane_z = caster.hit_grid_z(next_plane)
                next_row = caster.y_cast(MARKER_X, 0, plane_z, stats=stats)
                if next_row:
                    row_y = caster.hit_grid_y(next_row)
                    hit = caster.x_cast(0, row_y, plane_z, stats=stats)
                    if hit:
                        return int(hit.primitive_index)
                return MISS

        # Unreachable for keys within the indexed range; kept as a defensive
        # fallback so a traversal bug surfaces as a wrong result in tests
        # instead of an exception.
        return MISS
