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

    # ---------------------------------------------------------- batched lookups

    def locate_bucket_batch(self, keys: np.ndarray, stats=None):
        """Batched Algorithm 2: stage-synchronous batched rays.

        Fires exactly the rays :meth:`locate_bucket` would fire per key, one
        megakernel call per stage.  Returns ``(bucket_ids, nodes_visited)``;
        ``stats`` accumulates identical ray totals.
        """
        keys = np.asarray(keys)
        num_keys = int(keys.shape[0])
        out = np.full(num_keys, MISS, dtype=np.int64)
        nodes = np.zeros(num_keys, dtype=np.int64)
        if num_keys == 0:
            return out, nodes

        mapping = self.mapping
        caster = self.caster
        keys64 = keys.astype(np.uint64)
        below = keys64 < np.uint64(self.min_representative)
        in_range = keys64 <= np.uint64(self.max_representative)
        out[below] = 0

        kx = mapping.x_of(keys64).astype(np.int64)
        ky = mapping.y_of(keys64).astype(np.int64)
        kz = mapping.z_of(keys64).astype(np.int64)

        # Ray 1: along +x in the key's own row.
        todo = np.nonzero(in_range & ~below)[0]
        if todo.size == 0:
            return out, nodes
        same_row = caster.x_cast_batch(kx[todo], ky[todo], kz[todo], stats=stats)
        nodes[todo] += same_row.nodes_visited
        resolved = same_row.hit
        out[todo[resolved]] = same_row.primitive_index[resolved]
        pending = todo[~resolved]

        # Rays 2+3: next populated row via the x = -1 marker lane.
        if self.multi_line and pending.size:
            next_row = caster.y_cast_batch(
                np.full(pending.size, MARKER_X),
                ky[pending] + 1,
                kz[pending],
                stats=stats,
            )
            nodes[pending] += next_row.nodes_visited
            hit = np.nonzero(next_row.hit)[0]
            if hit.size:
                hit_keys = pending[hit]
                row_y = caster.hit_grid_y_batch(next_row.point)[hit]
                leftmost = caster.x_cast_batch(
                    np.zeros(hit.size, dtype=np.int64), row_y, kz[hit_keys], stats=stats
                )
                nodes[hit_keys] += leftmost.nodes_visited
                found = leftmost.hit
                out[hit_keys[found]] = leftmost.primitive_index[found]
            pending = pending[~next_row.hit]

        # Rays 3-5: next populated plane via the x = -1, y = -1 marker lane.
        if self.multi_plane and pending.size:
            next_plane = caster.z_cast_batch(
                np.full(pending.size, MARKER_X),
                np.full(pending.size, MARKER_Y),
                kz[pending] + 1,
                stats=stats,
            )
            nodes[pending] += next_plane.nodes_visited
            planed = np.nonzero(next_plane.hit)[0]
            if planed.size:
                plane_keys = pending[planed]
                plane_z = caster.hit_grid_z_batch(next_plane.point)[planed]
                next_row = caster.y_cast_batch(
                    np.full(planed.size, MARKER_X),
                    np.zeros(planed.size, dtype=np.int64),
                    plane_z,
                    stats=stats,
                )
                nodes[plane_keys] += next_row.nodes_visited
                hit = np.nonzero(next_row.hit)[0]
                if hit.size:
                    hit_keys = plane_keys[hit]
                    row_y = caster.hit_grid_y_batch(next_row.point)[hit]
                    leftmost = caster.x_cast_batch(
                        np.zeros(hit.size, dtype=np.int64),
                        row_y,
                        plane_z[hit],
                        stats=stats,
                    )
                    nodes[hit_keys] += leftmost.nodes_visited
                    found = leftmost.hit
                    out[hit_keys[found]] = leftmost.primitive_index[found]
        return out, nodes
