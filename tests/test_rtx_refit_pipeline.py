"""Tests for BVH refitting and the raytracing pipeline facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rtx.bvh import BvhBuildConfig, build_bvh
from repro.rtx.geometry import make_key_triangle
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.refit import refit_bvh, total_overlap_area
from repro.rtx.scene import TriangleScene, VertexBuffer


def make_pipeline(points, leaf_size=2):
    pipeline = RaytracingPipeline(BvhBuildConfig(max_leaf_size=leaf_size))
    for slot, (x, y, z) in enumerate(points):
        pipeline.vertex_buffer.write_key_triangle(slot, float(x), float(y), float(z))
    pipeline.build_acceleration_structure()
    return pipeline


class TestRefit:
    def test_refit_requires_same_triangle_count(self):
        pipeline = make_pipeline([(1, 0, 0), (2, 0, 0)])
        with pytest.raises(ValueError):
            refit_bvh(pipeline.bvh, np.zeros((3, 3, 3), dtype=np.float32))

    def test_refit_updates_bounding_volumes(self):
        pipeline = make_pipeline([(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)])
        bvh = pipeline.bvh
        moved = bvh.scene.vertices.copy()
        # Move the first triangle far away along x.
        moved[0] += np.array([1000.0, 0.0, 0.0], dtype=np.float32)
        refit_bvh(bvh, moved)
        assert bvh.root_aabb().maximum[0] >= 1000.0
        assert bvh.refit_generation == 1

    def test_refit_preserves_topology(self):
        pipeline = make_pipeline([(x, 0, 0) for x in range(1, 17)])
        bvh = pipeline.bvh
        nodes_before = bvh.num_nodes
        order_before = bvh.primitive_order.copy()
        refit_bvh(bvh, bvh.scene.vertices.copy())
        assert bvh.num_nodes == nodes_before
        assert np.array_equal(bvh.primitive_order, order_before)

    def test_scattering_triangles_inflates_overlap(self, rng):
        """The mechanism behind RX's post-update slowdown (Figure 1c)."""
        points = [(int(x), int(y), 0) for x, y in rng.integers(0, 64, size=(128, 2))]
        pipeline = make_pipeline(points, leaf_size=4)
        bvh = pipeline.bvh
        before = total_overlap_area(bvh)
        scattered = bvh.scene.vertices.copy()
        # Rewrite a quarter of the triangles to random far-away positions.
        for index in rng.choice(128, size=32, replace=False):
            offset = np.array(
                [float(rng.integers(0, 1 << 16)), float(rng.integers(0, 64)), 0.0], dtype=np.float32
            )
            scattered[index] = make_key_triangle(*offset).vertices()
        refit_bvh(bvh, scattered)
        after = total_overlap_area(bvh)
        assert after > before * 2

    def test_refit_empty_bvh_is_noop(self):
        bvh = build_bvh(TriangleScene.from_triangles([]))
        refit_bvh(bvh, np.zeros((0, 3, 3), dtype=np.float32))
        assert bvh.refit_generation == 1


class TestPipeline:
    def test_cast_before_build_raises(self):
        pipeline = RaytracingPipeline()
        pipeline.vertex_buffer.write_key_triangle(0, 1.0, 0.0, 0.0)
        with pytest.raises(RuntimeError):
            pipeline.cast_axis_closest(0, (0.0, 0.0, 0.0))
        with pytest.raises(RuntimeError):
            _ = pipeline.bvh

    def test_build_and_cast(self):
        pipeline = make_pipeline([(3, 0, 0), (7, 0, 0)])
        assert pipeline.is_built
        hit = pipeline.cast_axis_closest(0, (-0.5, 0.0, 0.0))
        assert hit and hit.primitive_index == 0
        assert pipeline.build_count == 1

    def test_cast_axis_fast_path(self):
        pipeline = make_pipeline([(3, 0, 0), (7, 0, 0)])
        hit = pipeline.cast_axis_closest(0, (-0.5, 0.0, 0.0))
        assert hit and hit.primitive_index == 0
        hits = pipeline.cast_axis_all(0, (-0.5, 0.0, 0.0))
        assert [h.primitive_index for h in hits] == [0, 1]

    def test_stats_accumulate_over_lifetime(self):
        pipeline = make_pipeline([(3, 0, 0)])
        pipeline.cast_axis_closest(0, (-0.5, 0.0, 0.0))
        pipeline.cast_axis_closest(0, (-0.5, 1.0, 0.0))
        assert pipeline.lifetime_stats.rays_cast == 2
        assert pipeline.lifetime_stats.hits == 1
        assert pipeline.lifetime_stats.misses == 1

    def test_update_requires_prior_build(self):
        pipeline = RaytracingPipeline()
        pipeline.vertex_buffer.write_key_triangle(0, 1.0, 0.0, 0.0)
        with pytest.raises(RuntimeError):
            pipeline.update_acceleration_structure()

    def test_update_rejects_changed_slot_set(self):
        pipeline = make_pipeline([(1, 0, 0), (2, 0, 0)])
        pipeline.vertex_buffer.write_key_triangle(5, 9.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pipeline.update_acceleration_structure()

    def test_update_moves_triangles_without_rebuilding(self):
        pipeline = make_pipeline([(1, 0, 0), (2, 0, 0)])
        pipeline.vertex_buffer.write_key_triangle(0, 50.0, 0.0, 0.0)
        pipeline.update_acceleration_structure()
        assert pipeline.refit_count == 1
        assert pipeline.build_count == 1
        hit = pipeline.cast_axis_closest(0, (49.5, 0.0, 0.0))
        assert hit and hit.primitive_index == 0

    def test_memory_footprint_includes_buffer_and_bvh(self):
        pipeline = make_pipeline([(x, 0, 0) for x in range(16)])
        footprint = pipeline.memory_footprint_bytes()
        assert footprint > pipeline.vertex_buffer.memory_footprint_bytes()
        assert footprint == pipeline.vertex_buffer.memory_footprint_bytes() + pipeline.bvh.memory_footprint_bytes()

    def test_refit_updates_lookup_after_huge_coordinate_move(self):
        pipeline = make_pipeline([(1, 0, 0), (2, 0, 0)])
        big_y = 1000.0 * (1 << 15)
        pipeline.vertex_buffer.write_key_triangle(1, 7.0, big_y, 0.0)
        pipeline.update_acceleration_structure()
        hit = pipeline.cast_axis_closest(0, (6.5, big_y, 0.0))
        assert hit and hit.primitive_index == 1
