"""The optimized scene representation (Section III-B, Algorithm 3).

Instead of explicit marker triangles at x = -1, the optimized representation
turns a subset of representatives into *implicit* markers:

* a representative that is the last one in its row and whose following key
  lives in a different row is **moved** to the end of the row (x = xmax);
* if the last representative of a row cannot be moved, an **auxiliary**
  representative is inserted at x = xmax, mapping to the next bucket;
* the last representative of a plane additionally produces a marker at
  (xmax, ymax) unless its own row already is the last row;
* a moved representative that is the *only* representative of its row is
  **flipped** (winding order inverted) so that the y-axis ray recognises the
  situation as a back-side hit and the final x-axis ray can be skipped.

This keeps every populated row terminated by a triangle at x = xmax, so the
y/z discovery rays are fired along the x = xmax column (and y = ymax row)
instead of the dedicated marker lanes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.representation import MISS, SceneRepresentation
from repro.rtx.traversal import RayStats


class OptimizedRepresentation(SceneRepresentation):
    """Moved/auxiliary representatives serve as implicit row and plane markers."""

    # ------------------------------------------------------------ construction

    def _build_scene(self) -> None:
        """Algorithm 3: place representatives, implicit markers and flips."""
        bucketed = self.bucketed
        mapping = self.mapping
        buffer = self.pipeline.vertex_buffer

        num_buckets = self.num_buckets
        keys = bucketed.keys.astype(np.uint64)
        n = len(bucketed)
        x_max = mapping.x_max
        y_max = mapping.y_max

        marker_sections = int(self.multi_line) + int(self.multi_plane)
        buffer.reserve((1 + marker_sections) * num_buckets)

        bucket_ids = np.arange(num_buckets, dtype=np.int64)
        rep_idx = np.minimum((bucket_ids + 1) * bucketed.bucket_size, n) - 1
        reps = keys[rep_idx]
        rep_x = mapping.x_of(reps).astype(np.int64)
        rep_y = mapping.y_of(reps).astype(np.int64)
        rep_z = mapping.z_of(reps).astype(np.int64)
        rep_yz = mapping.yz_of(reps).astype(np.uint64)

        # The key following each representative (nonexistent for the last
        # bucket, which makes its representative trivially movable).
        has_next_key = rep_idx + 1 < n
        next_key = keys[np.minimum(rep_idx + 1, n - 1)]
        next_key_yz = mapping.yz_of(next_key).astype(np.uint64)

        has_prev = bucket_ids > 0
        prev_rep = np.empty_like(reps)
        prev_rep[1:] = reps[:-1]
        prev_rep[0] = reps[0]
        prev_yz = mapping.yz_of(prev_rep).astype(np.uint64)

        has_next_rep = bucket_ids + 1 < num_buckets
        next_rep = np.empty_like(reps)
        next_rep[:-1] = reps[1:]
        next_rep[-1] = reps[-1]
        next_rep_yz = mapping.yz_of(next_rep).astype(np.uint64)
        next_rep_z = mapping.z_of(next_rep).astype(np.int64)

        movable = ~has_next_key | (next_key_yz != rep_yz)
        needs_rep = ~has_prev | (reps != prev_rep) | (movable & (rep_x != x_max))
        needs_row_marker = (~movable) & (~has_next_rep | (rep_yz != next_rep_yz))
        needs_plane_marker = (rep_y != y_max) & (~has_next_rep | (rep_z != next_rep_z))
        do_flip = movable & (~has_prev | (prev_yz != rep_yz))

        #: Slot offsets of the auxiliary sections (used by primitive remapping).
        self.row_marker_offset = num_buckets
        self.plane_marker_offset = 2 * num_buckets
        self.marker_lanes = (x_max, y_max)

        scene_y = rep_y.astype(np.float64) * mapping.y_scale
        scene_z = rep_z.astype(np.float64) * mapping.z_scale
        placed_x = np.where(movable, float(x_max), rep_x.astype(np.float64))

        rep_slots = np.nonzero(needs_rep)[0]
        buffer.write_key_triangles(
            rep_slots,
            placed_x[rep_slots],
            scene_y[rep_slots],
            scene_z[rep_slots],
            flipped=do_flip[rep_slots],
        )

        if self.multi_line:
            marker_slots = np.nonzero(needs_row_marker)[0]
            buffer.write_key_triangles(
                marker_slots + self.row_marker_offset,
                np.full(marker_slots.shape[0], float(x_max)),
                scene_y[marker_slots],
                scene_z[marker_slots],
            )

        if self.multi_plane:
            marker_slots = np.nonzero(needs_plane_marker)[0]
            buffer.write_key_triangles(
                marker_slots + self.plane_marker_offset,
                np.full(marker_slots.shape[0], float(x_max)),
                np.full(marker_slots.shape[0], float(y_max) * mapping.y_scale),
                scene_z[marker_slots],
            )

    # ------------------------------------------------------------- remapping

    def remap_primitive_index(self, primitive_index: int) -> int:
        """Map a primitive index back to a bucketID.

        Auxiliary triangles are stored after the regular representatives, and
        an auxiliary triangle produced by bucket ``b`` marks the transition
        *into* bucket ``b + 1``, hence the ``+ 1`` in the remapping (the
        formula from Section III-B of the paper).
        """
        if primitive_index >= self.plane_marker_offset and self.multi_plane:
            return primitive_index - self.plane_marker_offset + 1
        if primitive_index >= self.row_marker_offset:
            return primitive_index - self.row_marker_offset + 1
        return primitive_index

    # ----------------------------------------------------------------- lookups

    def locate_bucket(self, key: int, stats: Optional[RayStats] = None) -> int:
        """Point lookup using at most five (usually one or two) rays."""
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
        x_max = mapping.x_max
        y_max = mapping.y_max

        # Ray 1: along +x in the key's own row.  Because every populated row
        # ends with a triangle at x = xmax, this ray only misses when the row
        # holds no representative at all.
        same_row = caster.x_cast(kx, ky, kz, stats=stats)
        if same_row:
            return self.remap_primitive_index(int(same_row.primitive_index))

        # Ray 2: along +y in the x = xmax column to find the next populated
        # row.  A back-face hit means the row's only representative was moved
        # there (flipped), so it already is the answer.
        if self.multi_line:
            next_row = caster.y_cast(x_max, ky + 1, kz, stats=stats)
            if next_row:
                if not next_row.front_face:
                    return self.remap_primitive_index(int(next_row.primitive_index))
                row_y = caster.hit_grid_y(next_row)
                hit = caster.x_cast(0, row_y, kz, stats=stats)
                if hit:
                    return self.remap_primitive_index(int(hit.primitive_index))
                return MISS

        # Rays 3-5: find the next populated plane along the (xmax, ymax)
        # column, then its first populated row, then the leftmost
        # representative of that row.
        if self.multi_plane:
            next_plane = caster.z_cast(x_max, y_max, kz + 1, stats=stats)
            if next_plane:
                plane_z = caster.hit_grid_z(next_plane)
                next_row = caster.y_cast(x_max, 0, plane_z, stats=stats)
                if next_row:
                    if not next_row.front_face:
                        return self.remap_primitive_index(int(next_row.primitive_index))
                    row_y = caster.hit_grid_y(next_row)
                    hit = caster.x_cast(0, row_y, plane_z, stats=stats)
                    if hit:
                        return self.remap_primitive_index(int(hit.primitive_index))
                return MISS

        # Defensive fallback, unreachable for keys inside the indexed range.
        return MISS
