"""Tests for BVH traversal (general and fast axis-aligned paths)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtx.bvh import BvhBuildConfig, build_bvh
from repro.rtx.geometry import Ray
from repro.rtx.scene import TriangleScene, VertexBuffer
from repro.rtx.traversal import RayStats, TraversalEngine


def build_engine(points, flipped=None, leaf_size=2):
    buffer = VertexBuffer()
    flipped = flipped or [False] * len(points)
    for slot, ((x, y, z), flip) in enumerate(zip(points, flipped)):
        buffer.write_key_triangle(slot, float(x), float(y), float(z), flipped=flip)
    scene = TriangleScene.from_vertex_buffer(buffer)
    return TraversalEngine(build_bvh(scene, BvhBuildConfig(max_leaf_size=leaf_size)))


class TestClosestHit:
    def test_closest_hit_picks_nearest_triangle(self):
        engine = build_engine([(5, 0, 0), (2, 0, 0), (8, 0, 0)])
        hit = engine.trace_closest(Ray(origin=[-0.5, 0.0, 0.0], direction=[1.0, 0.0, 0.0]))
        assert hit
        assert hit.primitive_index == 1  # the triangle at x=2

    def test_miss_returns_empty_record(self):
        engine = build_engine([(5, 0, 0)])
        hit = engine.trace_closest(Ray(origin=[-0.5, 3.0, 0.0], direction=[1.0, 0.0, 0.0]))
        assert not hit

    def test_tmax_cuts_off_far_hits(self):
        engine = build_engine([(5, 0, 0)])
        hit = engine.trace_closest(Ray(origin=[-0.5, 0.0, 0.0], direction=[1.0, 0.0, 0.0], tmax=2.0))
        assert not hit

    def test_empty_scene_misses(self):
        engine = TraversalEngine(build_bvh(TriangleScene.from_triangles([])))
        hit = engine.trace_closest(Ray(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0]))
        assert not hit

    def test_stats_are_counted(self):
        engine = build_engine([(x, 0, 0) for x in range(1, 30)])
        stats = RayStats()
        engine.trace_closest(Ray(origin=[-0.5, 0.0, 0.0], direction=[1.0, 0.0, 0.0]), stats)
        assert stats.rays_cast == 1
        assert stats.nodes_visited > 0
        assert stats.triangle_tests > 0
        assert stats.hits == 1

    def test_trace_all_returns_sorted_hits(self):
        engine = build_engine([(5, 0, 0), (2, 0, 0), (8, 0, 0), (3, 1, 0)])
        hits = engine.trace_all(Ray(origin=[-0.5, 0.0, 0.0], direction=[1.0, 0.0, 0.0]))
        assert [h.primitive_index for h in hits] == [1, 0, 2]
        assert all(hits[i].t <= hits[i + 1].t for i in range(len(hits) - 1))

    def test_trace_all_respects_tmax(self):
        engine = build_engine([(2, 0, 0), (5, 0, 0), (9, 0, 0)])
        hits = engine.trace_all(Ray(origin=[-0.5, 0.0, 0.0], direction=[1.0, 0.0, 0.0], tmax=6.0))
        assert [h.primitive_index for h in hits] == [0, 1]


class TestFastAxisPath:
    def test_axis_closest_matches_general_path(self, rng):
        points = [
            (int(x), int(y), int(z))
            for x, y, z in zip(
                rng.integers(0, 40, size=100), rng.integers(0, 6, size=100), rng.integers(0, 3, size=100)
            )
        ]
        engine = build_engine(points, leaf_size=4)
        for _ in range(50):
            y = int(rng.integers(0, 6))
            z = int(rng.integers(0, 3))
            x = float(rng.integers(0, 40)) - 0.5
            general = engine.trace_closest(Ray(origin=[x, y, z], direction=[1.0, 0.0, 0.0]))
            fast = engine.trace_axis_closest(0, (x, y, z))
            assert bool(general) == bool(fast)
            if general:
                assert general.primitive_index == fast.primitive_index

    def test_axis_all_matches_general_path(self, rng):
        points = [(int(x), int(y), 0) for x, y in rng.integers(0, 30, size=(60, 2))]
        engine = build_engine(points, leaf_size=4)
        for y in range(5):
            general = engine.trace_all(Ray(origin=[-0.5, y, 0.0], direction=[1.0, 0.0, 0.0]))
            fast = engine.trace_axis_all(0, (-0.5, y, 0.0))
            assert sorted(h.primitive_index for h in general) == sorted(h.primitive_index for h in fast)

    def test_axis_path_reports_back_face_for_flipped_triangles(self):
        engine = build_engine([(7, 0, 0)], flipped=[True])
        hit = engine.trace_axis_closest(1, (7.0, -0.5, 0.0))
        assert hit
        assert not hit.front_face
        regular = build_engine([(7, 0, 0)], flipped=[False]).trace_axis_closest(1, (7.0, -0.5, 0.0))
        assert regular.front_face

    def test_axis_path_counts_stats(self):
        engine = build_engine([(x, 0, 0) for x in range(1, 20)])
        stats = RayStats()
        engine.trace_axis_closest(0, (-0.5, 0.0, 0.0), stats=stats)
        assert stats.rays_cast == 1
        assert stats.nodes_visited > 0
        assert stats.hits == 1

    def test_axis_path_tmax(self):
        engine = build_engine([(5, 0, 0)])
        assert not engine.trace_axis_closest(0, (-0.5, 0.0, 0.0), tmax=2.0)
        assert engine.trace_axis_closest(0, (-0.5, 0.0, 0.0), tmax=10.0)

    def test_axis_path_y_and_z_rays(self):
        engine = build_engine([(2, 3, 0), (2, 7, 0), (4, 0, 5)])
        hit_y = engine.trace_axis_closest(1, (2.0, -0.5, 0.0))
        assert hit_y and hit_y.primitive_index == 0
        hit_z = engine.trace_axis_closest(2, (4.0, 0.0, -0.5))
        assert hit_z and hit_z.primitive_index == 2

    def test_axis_path_on_empty_scene(self):
        engine = TraversalEngine(build_bvh(TriangleScene.from_triangles([])))
        assert not engine.trace_axis_closest(0, (0.0, 0.0, 0.0))

    def test_axis_path_handles_huge_scaled_coordinates(self):
        y = 5688899.0 * (1 << 15)
        z = 54.0 * (1 << 25)
        engine = build_engine([(4194304, y, z), (10, y, z)])
        hit = engine.trace_axis_closest(0, (4194303.5, y, z))
        assert hit
        assert hit.primitive_index == 0
        # A ray in a different (scaled) row must not hit anything.
        assert not engine.trace_axis_closest(0, (-0.5, y + (1 << 15), z))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), axis=st.integers(min_value=0, max_value=2))
    def test_property_fast_path_agrees_with_brute_force(self, seed, axis):
        """The fast axis path finds exactly the nearest grid point along the ray."""
        rng = np.random.default_rng(seed)
        points = {(int(x), int(y), int(z)) for x, y, z in rng.integers(0, 12, size=(40, 3))}
        points = sorted(points)
        engine = build_engine(points, leaf_size=3)
        origin = [float(rng.integers(0, 12)) for _ in range(3)]
        origin[axis] -= 0.5
        hit = engine.trace_axis_closest(axis, tuple(origin))
        candidates = [
            p
            for p in points
            if all(p[i] == round(origin[i]) for i in range(3) if i != axis) and p[axis] >= origin[axis]
        ]
        if candidates:
            expected = min(candidates, key=lambda p: p[axis])
            assert hit
            assert points.index(expected) == hit.primitive_index
        else:
            assert not hit
