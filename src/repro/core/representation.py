"""Base class shared by the naive and optimized scene representations.

Both representations locate a key's bucket with the same ray sequence: a
row ray, then a next-row ray or a next-plane ray with its first row, then a
leftmost ray.  They differ in the triangles they place and in the lanes
their next-row and next-plane rays run along (``marker_lanes``).  Each
keeps its own scalar ``locate_bucket``, the paper's procedure and the
reference; the compiled batch routing (``locate_bucket_batch``) is one C
routine for both, parameterised by those lanes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.bucketing import BucketedKeys
from repro.core.casting import SceneCaster
from repro.core.key_mapping import KeyMapping
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.traversal import RayStats

#: Sentinel returned by ``locate_bucket`` when the key lies outside the
#: indexed key range (Algorithm 2, line 3).
MISS = -1


class SceneRepresentation(ABC):
    """A strategy for materialising bucket representatives as triangles.

    Subclasses build the triangles into the pipeline's vertex buffer at
    construction time, setting the slot offsets of their marker sections
    and their :attr:`marker_lanes`, and implement the ray-firing sequence
    that maps a lookup key to its bucketID.
    """

    #: Grid ``(x, y)`` of the lanes the discovery rays run along: the
    #: next-row rays along column x, the next-plane ray along row (x, y).
    #: Set by :meth:`_build_scene`.
    marker_lanes: tuple

    def __init__(
        self,
        bucketed: BucketedKeys,
        mapping: KeyMapping,
        pipeline: RaytracingPipeline,
    ) -> None:
        self.bucketed = bucketed
        self.mapping = mapping
        self.pipeline = pipeline
        self.num_buckets = bucketed.num_buckets
        #: Compiled routing constants (built on first use).
        self._route_params = None

        representatives = bucketed.representatives()
        min_rep = int(representatives[0])
        max_rep = int(representatives[-1])
        #: True when representatives span more than one row (Algorithm 1, line 2).
        self.multi_line = int(mapping.yz_of(min_rep)) != int(mapping.yz_of(max_rep))
        #: True when representatives span more than one plane (line 3).
        self.multi_plane = int(mapping.z_of(min_rep)) != int(mapping.z_of(max_rep))

        self._build_scene()
        self.pipeline.build_acceleration_structure()
        self.caster = SceneCaster(pipeline, mapping)

    # ------------------------------------------------------------------ hooks

    @abstractmethod
    def _build_scene(self) -> None:
        """Write all representative (and marker) triangles into the vertex buffer."""

    @abstractmethod
    def locate_bucket(self, key: int, stats: Optional[RayStats] = None) -> int:
        """Return the bucketID whose representative is the first one >= ``key``.

        Returns :data:`MISS` when ``key`` is larger than the largest indexed
        key.  ``stats`` accumulates the ray-traversal work of the lookup.
        """

    def compiled_route_params(self):
        """The :class:`~repro.rtx.compiled.RouteParams` of this
        representation's routing, built on first use."""
        if self._route_params is None:
            from repro.rtx.compiled import RouteParams

            mapping = self.mapping
            lane_x, lane_y = self.marker_lanes
            self._route_params = RouteParams(
                min_rep=int(self.min_representative),
                max_rep=int(self.max_representative),
                lane_x=int(lane_x),
                lane_y=int(lane_y),
                row_marker_offset=int(self.row_marker_offset),
                plane_marker_offset=int(self.plane_marker_offset),
                y_scale=float(mapping.y_scale),
                z_scale=float(mapping.z_scale),
                x_bits=int(mapping.x_bits),
                y_bits=int(mapping.y_bits),
                z_bits=int(mapping.z_bits),
                multi_line=int(self.multi_line),
                multi_plane=int(self.multi_plane),
            )
        return self._route_params

    def locate_bucket_batch(self, keys, stats: Optional[RayStats] = None):
        """Batched :meth:`locate_bucket`: every key fires exactly the rays
        :meth:`locate_bucket` would fire, the whole sequence in one C call.

        Returns ``(bucket_ids, nodes_visited)`` with :data:`MISS` for keys
        above the largest representative and the per-key BVH node visits
        used for divergence sampling; ``stats`` accumulates the identical
        ray totals.  Requires the compiled tier (callers resolve the engine
        first).
        """
        return self.pipeline.route_batch(self.compiled_route_params(), keys, stats)

    # ------------------------------------------------------------ maintenance

    def reanchor_representative(self, bucket_id: int, old_key: int, new_key: int) -> bool:
        """Move bucket ``bucket_id``'s representative triangle from ``old_key``
        to ``new_key``'s grid position, when that is provably safe.

        Compaction tightens a bucket whose largest entries were deleted by
        re-anchoring its representative to the bucket's current maximum key.
        The move is only legal when it cannot disturb the marker structure of
        either scene representation:

        * both keys map to the same (y, z) row — rays discover rows through
          markers/terminators whose placement depends on row membership;
        * the slot holds the *unmoved*, unflipped representative exactly at
          ``old_key``'s grid position (moved/auxiliary terminators at
          ``x = xmax`` and flipped representatives encode row-termination
          state and must stay put).

        Returns ``True`` when the triangle was rewritten; the caller is then
        responsible for refitting the acceleration structure.
        """
        mapping = self.mapping
        buffer = self.pipeline.vertex_buffer
        old_key = int(old_key)
        new_key = int(new_key)
        if not 0 <= bucket_id < self.num_buckets:
            return False
        if int(mapping.yz_of(old_key)) != int(mapping.yz_of(new_key)):
            return False
        old_x = int(mapping.x_of(old_key))
        new_x = int(mapping.x_of(new_key))
        if new_x == old_x:
            return False
        if not buffer.slot_occupied(bucket_id) or buffer.slot_flipped(bucket_id):
            return False
        scene_y = float(mapping.y_of(old_key)) * mapping.y_scale
        scene_z = float(mapping.z_of(old_key)) * mapping.z_scale
        centre = buffer.centres[bucket_id]
        if tuple(centre) != (float(old_x), scene_y, scene_z):
            return False
        buffer.write_key_triangle(bucket_id, float(new_x), scene_y, scene_z)
        return True

    # ------------------------------------------------------------- shared API

    @property
    def min_representative(self) -> int:
        return self.bucketed.min_representative

    @property
    def max_representative(self) -> int:
        return self.bucketed.max_representative

    def triangle_count(self) -> int:
        """Number of triangles materialised in the scene."""
        return self.pipeline.vertex_buffer.num_occupied

    def memory_footprint_bytes(self) -> int:
        """Device bytes of the vertex buffer plus the acceleration structure."""
        return self.pipeline.memory_footprint_bytes()
