"""Parity and behaviour suite for the compiled hot-path tier.

The scalar paths remain the reference oracle.  Everything here drives the
same workloads through ``engine="compiled"`` (the default) and asserts
**byte-identical results and identical instrumentation counters** — plus the
compiled-tier-specific contracts: the C BVH builder's arrays equal the
Python builder's, the all-hits megakernel, the fused point routing of both
scene representations and the C range batch match the scalar procedures ray
for ray and key for key, the C update apply leaves the node slabs byte-identical (resuming
once per slab growth, chain tables patched only on splits) and partitions
its batch exactly like the scalar per-bucket ranges, the C compaction leaves
slabs, free list, bounds and counters as the scalar one does, the cgRXu point
batch matches the scalar engine at every batch size and through the index
lifecycle over buffers bound once, so does the cgRX point batch at every
batch size, each hot index path is one C call per batch, the packed node
records hold the tree exactly, shard-local arenas are rebuilt in place, the
kernel build is safe under concurrency and corruption, and a fallback to the
scalar engine is loud.

Backend handling: tests that need the C kernels skip when the environment
has none (e.g. ``REPRO_COMPILED_BACKEND=none``); tests that need a specific
backend pin it with ``REPRO_COMPILED_BACKEND`` and reset the module cache
around themselves.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

from repro.baselines.rx import RXIndex
from repro.core.config import CgRXConfig, CgRXuConfig, resolve_engine
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.gpu.device import RTX_4090
from repro.obs.profile import disable_profiling, enable_profiling
from repro.rtx import compiled
from repro.rtx.bvh import BvhBuildConfig, build_bvh, build_bvh_python
from repro.rtx.refit import refit_bvh
from repro.rtx.scene import TriangleScene, VertexBuffer
from repro.rtx.traversal import RayStats, TraversalEngine
from repro.workloads.keygen import KeySet, generate_keys
from repro.workloads.lookups import hit_miss_lookups, range_lookups
from repro.workloads.requests import zipf_request_stream
from repro.workloads.updates import update_waves


def assert_stats_identical(scalar, other) -> None:
    left = dataclasses.asdict(scalar)
    right = dataclasses.asdict(other)
    differing = {key: (left[key], right[key]) for key in left if left[key] != right[key]}
    assert not differing, f"counters diverged: {differing}"


def assert_point_identical(scalar, other) -> None:
    assert scalar.row_ids.tobytes() == other.row_ids.tobytes()
    assert scalar.match_counts.tobytes() == other.match_counts.tobytes()
    assert_stats_identical(scalar.stats, other.stats)


def assert_range_identical(scalar, other) -> None:
    assert len(scalar.row_ids) == len(other.row_ids)
    for left, right in zip(scalar.row_ids, other.row_ids):
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert_stats_identical(scalar.stats, other.stats)


@pytest.fixture
def pinned_backend(monkeypatch):
    """Pin the backend via env var and reset the module cache around the test."""

    def pin(name: str) -> None:
        monkeypatch.setenv("REPRO_COMPILED_BACKEND", name)
        compiled.reset_backend_cache()

    yield pin
    compiled.reset_backend_cache()


requires_backend = pytest.mark.skipif(
    compiled.available_backend() is None,
    reason="no compiled backend (a C compiler) available",
)


class CountingLibrary:
    """Wraps the kernel library and counts calls per C entry point."""

    def __init__(self, library) -> None:
        self._library = library
        self.calls = Counter()

    def __getattr__(self, name):
        kernel = getattr(self._library, name)

        def call(*args):
            self.calls[name] += 1
            return kernel(*args)

        return call


@pytest.fixture
def count_calls(monkeypatch):
    """Count the C kernel calls made through the bound library."""
    counting = CountingLibrary(compiled.library())
    monkeypatch.setattr(compiled, "_LIBRARY", counting)
    return counting.calls


# --------------------------------------------------------------------------
# Megakernel vs per-ray scalar traversal
# --------------------------------------------------------------------------


def build_engines(points, flipped=None, leaf_size=4):
    engines = []
    for _ in range(2):
        buffer = VertexBuffer()
        flips = flipped or [False] * len(points)
        for slot, ((x, y, z), flip) in enumerate(zip(points, flips)):
            buffer.write_key_triangle(slot, float(x), float(y), float(z), flipped=flip)
        scene = TriangleScene.from_vertex_buffer(buffer)
        engines.append(TraversalEngine(build_bvh(scene, BvhBuildConfig(max_leaf_size=leaf_size))))
    return engines


def scalar_all_hits(engine, axis, origins, tmax):
    """Per-ray scalar ``trace_axis_all`` hits and their merged counters."""
    stats = RayStats()
    hits = []
    for origin, limit in zip(origins, tmax):
        local = RayStats()
        hits.append(engine.trace_axis_all(axis, tuple(origin), float(limit), stats=local))
        stats.merge(local)
    return hits, stats


def assert_all_hits_identical(scalar_hits, batch) -> None:
    offset = 0
    for position, hits in enumerate(scalar_hits):
        count = int(batch.hit_counts[position])
        assert len(hits) == count
        for index, record in enumerate(hits):
            assert batch.ray[offset + index] == position
            assert record.primitive_index == batch.primitive_index[offset + index]
            assert record.t == batch.t[offset + index]
            assert record.front_face == bool(batch.front_face[offset + index])
            assert np.array_equal(record.point, batch.point[offset + index])
        offset += count
    assert offset == batch.ray.shape[0]


@requires_backend
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_megakernel_axis_all_matches_scalar(axis, rng):
    # A dense 12^3 grid with repeated points: rays collect several hits, many
    # at equal distance (ties keep traversal order), and finite tmax limits
    # cut some of them off.
    points = [tuple(point) for point in rng.integers(0, 12, size=(160, 3))]
    points += points[:40]
    flips = list(rng.random(len(points)) < 0.3)
    scalar_engine, batch_engine = build_engines(points, flips)
    origins = rng.integers(0, 12, size=(96, 3)).astype(np.float64)
    origins[:, axis] -= 0.5
    tmax = np.where(rng.random(96) < 0.5, np.inf, rng.integers(0, 8, 96) + 0.5)

    scalar_hits, scalar_stats = scalar_all_hits(scalar_engine, axis, origins, tmax)
    batch_stats = RayStats()
    batch = batch_engine.trace_axis_all_batch(axis, origins, tmax, stats=batch_stats)

    assert any(len(hits) > 1 for hits in scalar_hits)
    assert_stats_identical(scalar_stats, batch_stats)
    assert_all_hits_identical(scalar_hits, batch)


@requires_backend
def test_c_axis_all_regrows_a_small_buffer(rng, count_calls):
    points = [tuple(point) for point in rng.integers(0, 6, size=(120, 3))]
    scalar_engine, batch_engine = build_engines(points)
    origins = rng.integers(0, 6, size=(32, 3)).astype(np.float64)
    origins[:, 0] -= 0.5
    tmax = np.full(32, np.inf)
    scalar_hits, scalar_stats = scalar_all_hits(scalar_engine, 0, origins, tmax)
    # Rows of a dense grid: more hits than rays, so the buffer sized for
    # one hit per ray is too short.
    assert sum(len(hits) for hits in scalar_hits) > len(origins)

    batch_stats = RayStats()
    count_calls.clear()
    batch = batch_engine.trace_axis_all_batch(0, origins, tmax, stats=batch_stats)
    # One retry into an exactly sized buffer; counters counted once.
    assert count_calls == {"trace_axis_all": 2}
    assert_stats_identical(scalar_stats, batch_stats)
    assert_all_hits_identical(scalar_hits, batch)


def test_axis_all_batch_empty_scene_and_empty_batch():
    # Both are answered without the C kernels, so no backend is needed.
    empty_scene = TraversalEngine(build_bvh(TriangleScene.from_triangles([])))
    stats = RayStats()
    every = empty_scene.trace_axis_all_batch(2, np.zeros((4, 3)), stats=stats)
    assert every.hit_counts.tolist() == [0, 0, 0, 0] and every.ray.shape == (0,)
    assert stats.misses == 4 and stats.rays_cast == 4

    _, engine = build_engines([(1, 1, 1), (2, 2, 2)])
    stats = RayStats()
    empty = engine.trace_axis_all_batch(1, np.zeros((0, 3)), stats=stats)
    assert empty.hit_counts.shape == (0,) and empty.ray.shape == (0,)
    assert stats.rays_cast == 0


# --------------------------------------------------------------------------
# C BVH builder vs the Python reference builder
# --------------------------------------------------------------------------


def scene_of(points, flipped=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    buffer = VertexBuffer()
    buffer.write_key_triangles(
        np.arange(points.shape[0]), points[:, 0], points[:, 1], points[:, 2], flipped=flipped
    )
    return TriangleScene.from_vertex_buffer(buffer)


def assert_bvh_equal(left, right) -> None:
    for name in (
        "node_min",
        "node_max",
        "node_left",
        "node_right",
        "node_first",
        "node_count",
        "primitive_order",
    ):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@requires_backend
@pytest.mark.parametrize("seed", range(6))
def test_c_bvh_builder_matches_python_builder(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        count = int(rng.integers(1, 160))
        # Small grids make coincident centroids and tied split-axis values
        # common; scaled rows mimic the key mapping.
        points = rng.integers(0, int(rng.integers(1, 12)), size=(count, 3)).astype(np.float64)
        points[:, 1] *= float(rng.choice([1.0, 32768.0]))
        scene = scene_of(points, rng.random(count) < 0.3)
        config = BvhBuildConfig(max_leaf_size=int(rng.integers(1, 6)))
        assert_bvh_equal(build_bvh(scene, config), build_bvh_python(scene, config))


@requires_backend
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_c_bvh_builder_tiny_and_coincident_scenes(count):
    for points in (
        np.zeros((count, 3)),
        np.arange(count * 3, dtype=np.float64).reshape(count, 3),
        np.repeat([[7.0, 0.0, 3.0]], count, axis=0) + np.arange(count)[:, None] * [0, 0, 0],
    ):
        scene = scene_of(points)
        for leaf in (1, 2, 4):
            config = BvhBuildConfig(max_leaf_size=leaf)
            built = build_bvh(scene, config)
            assert_bvh_equal(built, build_bvh_python(scene, config))
            built.validate()


def test_python_builder_is_used_without_backend(pinned_backend):
    pinned_backend("none")
    scene = scene_of(np.arange(30, dtype=np.float64).reshape(10, 3))
    assert_bvh_equal(build_bvh(scene), build_bvh_python(scene))


@pytest.mark.parametrize("count", [1, 7, 8, 9, 1000])
def test_vectorized_bulk_fill_matches_per_node_fill(count):
    from repro.core.nodes import NodeStorage

    rng = np.random.default_rng(count)
    keys = np.sort(rng.integers(0, 1 << 40, size=count, dtype=np.uint64))
    rows = rng.integers(0, 1 << 31, size=count, dtype=np.uint32)
    bucket_size = 4
    num_buckets = -(-count // bucket_size)
    storages = [NodeStorage(num_buckets + 1, 9, 128) for _ in range(2)]
    storages[0].fill_buckets(keys, rows, bucket_size)
    for bucket in range(num_buckets):
        part = slice(bucket * bucket_size, min((bucket + 1) * bucket_size, count))
        storages[1].fill_node(bucket, keys[part], rows[part], int(keys[part][-1]))
    for name in ("keys_matrix", "row_ids_matrix", "sizes_array", "max_keys_array", "next_array"):
        assert getattr(storages[0], name).tobytes() == getattr(storages[1], name).tobytes(), name


@requires_backend
def test_compiled_paths_keep_one_copy_of_the_scene_tables():
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=88)
    lookups = hit_miss_lookups(keyset, 128, miss_fraction=0.2, seed=89)
    lows, highs = range_lookups(keyset, count=16, expected_hits=10, seed=90)
    for index in (
        CgRXIndex(keyset.keys, keyset.row_ids),
        CgRXIndex(keyset.keys, keyset.row_ids, CgRXConfig(representation="naive")),
        CgRXuIndex(keyset.keys, keyset.row_ids),
    ):
        index.point_lookup_batch(lookups)
        index.range_lookup_batch(lows, highs)
        engine = index.pipeline._engine
        # No float64 copy of the node bounds next to the arena.  The arena
        # holds the node records, the leaf slots' triangles and their
        # centroids in slot order; the scene's centroids, which the routing
        # reads once per key, are aliased, not copied.
        assert engine._node_bounds is None
        assert engine.compiled_tables().centroids is index.pipeline.bvh.scene.centres


# --------------------------------------------------------------------------
# Fused point routing vs the scalar locate_bucket
# --------------------------------------------------------------------------


def routing_keys(kind: str, key_bits: int, rng) -> np.ndarray:
    """Sorted distinct keys shaped to give one line, one plane or many planes."""
    x = rng.integers(0, 1 << 23, size=600, dtype=np.uint64)
    if kind == "single_line":
        keys = (np.uint64(3) << np.uint64(23)) | x
    elif kind == "multi_line":
        rows = rng.integers(0, 40, size=600, dtype=np.uint64) * np.uint64(7)
        keys = (rows << np.uint64(23)) | x
    else:
        keys = rng.integers(0, (1 << key_bits) - 1, size=600, dtype=np.uint64)
    if key_bits == 32:
        keys = keys & np.uint64(0xFFFFFFFF)
    return np.unique(keys)


def probe_keys(index, rng) -> np.ndarray:
    """Keys below, between, on and above the representatives, including
    keys in the next row and the next plane of each representative (they
    reach the row- and plane-marker rays)."""
    dtype = index.bucketed.keys.dtype
    top = np.uint64(np.iinfo(dtype).max)
    mapping = index.mapping
    reps = index.bucketed.representatives().astype(np.uint64)
    shifts = [mapping.x_bits, mapping.x_bits + mapping.y_bits]
    neighbours = [
        np.minimum(reps + np.uint64(1 << shift), top)
        for shift in shifts
        if shift < 8 * dtype.itemsize
    ]
    probes = [
        reps,
        *neighbours,
        np.minimum(reps + np.uint64(1), top),
        np.where(reps > 0, reps - np.uint64(1), reps),
        index.bucketed.keys.astype(np.uint64)[:: max(1, len(index.bucketed) // 64)],
        np.array([0, top, min(int(reps[-1]) + 1, int(top)), int(reps[0]) // 2], dtype=np.uint64),
        rng.integers(0, int(top), size=200, dtype=np.uint64, endpoint=True),
    ]
    return np.concatenate(probes).astype(dtype)


ROUTING_SCENES = ("single_line", "multi_line", "multi_plane")


@requires_backend
@pytest.mark.parametrize("kind", ROUTING_SCENES)
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("scaled", [True, False])
def test_fused_routing_matches_scalar_locate_bucket(kind, key_bits, scaled, count_calls):
    """Both representations route with one C routine: the naive one along
    its marker lanes at x = -1 and y = -1, the optimized one along xmax and
    ymax, where flipped triangles answer the next-row rays."""
    for name in ("naive", "optimized"):
        rng = np.random.default_rng([ROUTING_SCENES.index(kind), key_bits, int(scaled)])
        keys = routing_keys(kind, key_bits, rng)
        index = CgRXIndex(
            keys,
            config=CgRXConfig(
                key_bits=key_bits,
                scaled_mapping=scaled,
                bucket_size=3,
                representation=name,
                engine="compiled",
            ),
        )
        representation = index.representation
        if kind == "single_line":
            assert not representation.multi_line
        elif kind == "multi_line" and key_bits == 64:
            assert representation.multi_line and not representation.multi_plane
        elif kind == "multi_plane" and key_bits == 64:
            assert representation.multi_plane
        probes = probe_keys(index, rng)

        scalar_stats = RayStats()
        scalar_buckets = []
        scalar_nodes = []
        for key in probes:
            local = RayStats()
            scalar_buckets.append(representation.locate_bucket(int(key), local))
            scalar_nodes.append(local.nodes_visited)
            scalar_stats.merge(local)

        fused_stats = RayStats()
        count_calls.clear()
        buckets, nodes = representation.locate_bucket_batch(probes, fused_stats)
        assert count_calls == {"locate_keys": 1}, name
        assert buckets.tolist() == scalar_buckets, name
        assert nodes.tolist() == scalar_nodes, name
        assert_stats_identical(scalar_stats, fused_stats)


# --------------------------------------------------------------------------
# The C range batch vs the scalar range walk
# --------------------------------------------------------------------------


def apply_wave(index, wave) -> None:
    index.update_batch(
        insert_keys=wave.insert_keys if wave.insert_keys.size else None,
        insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
        delete_keys=wave.delete_keys if wave.delete_keys.size else None,
    )


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_c_range_lookup_parity_through_updates_and_compaction(key_bits, representation):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=key_bits, seed=91)
    indexes = {
        engine: CgRXuIndex(
            keyset.keys,
            keyset.row_ids,
            CgRXuConfig(key_bits=key_bits, representation=representation, engine=engine),
        )
        for engine in ("scalar", "compiled")
    }
    empty = np.empty(0, dtype=keyset.keys.dtype)
    assert_range_identical(*(index.range_lookup_batch(empty, empty) for index in indexes.values()))
    rng = np.random.default_rng(92)

    def check(label: str) -> None:
        live = np.sort(indexes["scalar"].export_entries()[0])
        # Narrow ranges inside one bucket, wide ones crossing many buckets
        # and the overflow bucket, inverted and out-of-range bounds.
        starts = rng.integers(0, live.shape[0], size=120)
        widths = rng.choice([0, 1, 5, 40, 400], size=120)
        lows = live[starts]
        highs = live[np.minimum(starts + widths, live.shape[0] - 1)]
        lows = np.concatenate([lows, [live[-1], live[10]], [0]]).astype(live.dtype)
        highs = np.concatenate(
            [highs, [np.iinfo(live.dtype).max, live[5]], [live[0]]]
        ).astype(live.dtype)
        scalar = indexes["scalar"].range_lookup_batch(lows, highs)
        fast = indexes["compiled"].range_lookup_batch(lows, highs)
        assert_range_identical(scalar, fast), label
        pipelines = [index.pipeline for index in indexes.values()]
        assert_stats_identical(*(pipeline.lifetime_stats for pipeline in pipelines))

    check("fresh")
    for number, wave in enumerate(
        update_waves(keyset, num_insert_waves=2, num_delete_waves=3, growth_factor=1.6, seed=93)
    ):
        for index in indexes.values():
            apply_wave(index, wave)
        check(f"wave {number}")
    # Drain a contiguous run of keys so whole nodes are left empty.
    drained = np.sort(indexes["scalar"].export_entries()[0])[100:160]
    for index in indexes.values():
        index.update_batch(delete_keys=drained)
    order, _ = indexes["compiled"]._chain_table()
    assert (indexes["compiled"].nodes.sizes_array[order] == 0).any()
    check("drained")
    for index in indexes.values():
        index.compact_buckets(range(0, index.overflow_bucket + 1, 2))
    check("compacted")


@requires_backend
def test_c_range_lookup_matches_scalar_across_shards():
    from repro.bench.harness import cgrxu_factory, sharded_factory

    keyset = generate_keys(4096, uniformity=0.6, key_bits=64, seed=94)
    deployments = {
        engine: sharded_factory(
            inner=cgrxu_factory(128, engine=engine), num_shards=4, partitioner="range"
        )(keyset)
        for engine in ("scalar", "compiled")
    }
    lows, highs = range_lookups(keyset, count=64, expected_hits=300, seed=95)
    assert_range_identical(
        deployments["scalar"].range_lookup_batch(lows, highs),
        deployments["compiled"].range_lookup_batch(lows, highs),
    )


@requires_backend
def test_c_range_lookup_regrows_a_one_row_buffer(count_calls):
    """A batch needing more rows than the bound buffer holds regrows it and
    runs once more, with the scalar reference's answers and counters."""
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=96)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    scalar = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="scalar"))
    lows, highs = range_lookups(keyset, count=16, expected_hits=50, seed=97)
    lows[3] = lows[5]  # a repeated low: 15 distinct
    index.range_lookup_batch(lows[:1], highs[:1])
    batch = index._lookup_batch
    batch._reserve_rows(1)
    assert batch.rows.shape == (1,)
    reference = scalar.range_lookup_batch(lows, highs)
    count_calls.clear()
    assert_range_identical(reference, index.range_lookup_batch(lows, highs))
    assert count_calls == {"range_lookup": 2}
    assert batch.rows.shape == (reference.total_matches,) and reference.total_matches > 16
    rows, total, reductions = batch.run_ranges(lows, highs)
    values = dict(zip(batch.REDUCTIONS, reductions))
    assert total == reference.total_matches
    assert values["distinct_keys"] == np.unique(lows).size == 15
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in reference.row_ids]


# --------------------------------------------------------------------------
# One C call per batch
# --------------------------------------------------------------------------


@requires_backend
def test_one_c_call_per_hot_path_batch(count_calls):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=98)
    lookups = hit_miss_lookups(keyset, 64, miss_fraction=0.3, out_of_range_fraction=0.3, seed=99)
    lows, highs = range_lookups(keyset, count=32, expected_hits=20, seed=100)
    cgrx = CgRXIndex(keyset.keys, keyset.row_ids)
    cgrxu = CgRXuIndex(keyset.keys, keyset.row_ids)
    rx = RXIndex(keyset.keys, keyset.row_ids)
    naive_cgrx = CgRXIndex(keyset.keys, keyset.row_ids, CgRXConfig(representation="naive"))
    naive_cgrxu = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(representation="naive"))
    assert naive_cgrx.representation.multi_line and naive_cgrxu.representation.multi_line
    for index in (cgrxu, naive_cgrxu):
        index.range_lookup_batch(lows, highs)  # sizes the range batch's rows buffer
    count_calls.clear()

    for index in (cgrx, naive_cgrx):
        index.point_lookup_batch(lookups)
        assert count_calls == {"point_lookup": 1}
        count_calls.clear()
    assert rx.point_lookup_batch(lookups).engine == "compiled"
    assert count_calls == {"trace_axis_all": 1}
    count_calls.clear()
    for index in (naive_cgrxu, cgrxu):
        index.point_lookup_batch(lookups)
        assert count_calls == {"point_lookup": 1}
        count_calls.clear()
        index.range_lookup_batch(lows, highs)
        assert count_calls == {"range_lookup": 1}
        count_calls.clear()
    cgrxu.update_batch(insert_keys=lookups[:48], delete_keys=keyset.keys[::64])
    assert count_calls == {"apply_updates": 1}
    count_calls.clear()
    # Crowding one bucket splits its chain: the apply, then the patch of the
    # cached chain tables.
    crowded = np.repeat(np.sort(keyset.keys)[1000], 40)
    cgrxu.update_batch(insert_keys=crowded)
    assert count_calls == {"apply_updates": 1, "patch_chains": 1}
    count_calls.clear()
    # A compaction pass: the chain tails, the re-pack and the patch.
    lengths = cgrxu.bucket_chain_lengths()
    assert lengths.max() > 1
    cgrxu.compact_buckets(np.nonzero(lengths > 1)[0])
    assert count_calls == {"chain_tails": 1, "compact_chains": 1, "patch_chains": 1}


# --------------------------------------------------------------------------
# Kernel build: concurrency, compiler identity, corruption
# --------------------------------------------------------------------------


@pytest.fixture
def empty_cache(tmp_path, monkeypatch, pinned_backend):
    """A fresh kernel cache directory, with the backend resolved anew."""
    if compiled._compiler() is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_CC_CACHE_DIR", str(tmp_path))
    pinned_backend("cc")
    return tmp_path


def test_truncated_cached_library_is_rebuilt(empty_cache):
    path = compiled._cc_library_path(compiled._compiler())
    with open(path, "wb") as handle:
        handle.write(b"\x7fELF\x02\x01\x01")  # a truncated shared object
    assert compiled.available_backend() == "cc"
    assert os.path.getsize(path) > 1024


def test_cache_key_includes_the_compiler_path(empty_cache, monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    real = compiled._compiler()
    alias = empty_cache / "alias-cc"
    alias.symlink_to(real)
    monkeypatch.setenv("CC", str(alias))
    assert compiled._compiler() == str(alias)
    assert compiled._cc_library_path(str(alias)) != compiled._cc_library_path(real)
    assert compiled.available_backend() == "cc"


def _resolve_backend_into(cache_dir, results) -> None:
    os.environ["REPRO_CC_CACHE_DIR"] = cache_dir
    from repro.rtx import compiled as child_compiled

    results.put(child_compiled.available_backend())


def test_concurrent_first_builds_all_get_the_backend(empty_cache):
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    workers = [
        context.Process(target=_resolve_backend_into, args=(str(empty_cache), results))
        for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    try:
        resolved = [results.get(timeout=240) for _ in workers]
    finally:
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():
                worker.terminate()
    assert resolved == ["cc"] * 4
    leftovers = sorted(path.name for path in empty_cache.iterdir())
    assert all(name.count(".") == 1 for name in leftovers), leftovers


# --------------------------------------------------------------------------
# Node records: one 32-byte record per node, children side by side
# --------------------------------------------------------------------------


def permuted(bvh, rng):
    """``bvh`` with its nodes renumbered at random, the root kept at 0, so
    siblings are neither adjacent nor in the builder's order."""
    from repro.rtx.bvh import Bvh

    new_id = np.concatenate([[0], 1 + rng.permutation(bvh.num_nodes - 1)])
    old_id = np.argsort(new_id)

    def renumbered(children):
        return np.where(children >= 0, new_id[np.maximum(children, 0)], -1)[old_id]

    return Bvh(
        scene=bvh.scene,
        node_min=bvh.node_min[old_id],
        node_max=bvh.node_max[old_id],
        node_left=renumbered(bvh.node_left),
        node_right=renumbered(bvh.node_right),
        node_first=bvh.node_first[old_id],
        node_count=bvh.node_count[old_id],
        primitive_order=bvh.primitive_order,
        config=bvh.config,
    )


def tie_points(width: int = 6):
    """Two rows of doubled points 0.2 apart in y, one column per x: the
    median builder splits each column along y into two leaves whose boxes
    tie on min along x, and a +x ray at y = 0.1 hits both rows at equal
    distances, so the order of its equal-t hits is the traversal order."""
    return [(x, y, 0.0) for x in range(width) for y in (0.0, 0.2) for _ in range(2)]


def record_trees():
    """Trees of every kind the tables pack, by name."""
    rng = np.random.default_rng(71)
    points = rng.integers(0, 9, size=(150, 3)).astype(np.float64)
    points[::5] = points[0]
    points[:, 1] *= 64.0
    scene = scene_of(points, rng.random(150) < 0.3)
    trees = {
        "c-median": build_bvh(scene, BvhBuildConfig(max_leaf_size=3)),
        "python-median": build_bvh_python(scene, BvhBuildConfig(max_leaf_size=2)),
        "python-middle": build_bvh_python(scene, BvhBuildConfig(max_leaf_size=1, method="middle")),
        "one-leaf": build_bvh(scene_of(points[:3]), BvhBuildConfig(max_leaf_size=4)),
        "ties": build_bvh(scene_of(tie_points()), BvhBuildConfig(max_leaf_size=1)),
    }
    refit = build_bvh_python(scene, BvhBuildConfig(max_leaf_size=2))
    moved = scene_of(rng.permutation(points))
    refit_bvh(refit, moved.vertices)
    refit.scene.centres = moved.centres
    trees["refit"] = refit
    trees["permuted"] = permuted(trees["c-median"], rng)
    return trees


@requires_backend
@pytest.mark.parametrize("name", ["c-median", "python-median", "python-middle", "one-leaf",
                                  "ties", "refit", "permuted"])
def test_node_records_hold_the_tree(name):
    """Walked from the root, the records hold every node's float32 bounds
    bit for bit, its children or leaf slots and the push order the scalar
    traversal computes; each pair of children starts at an even record of a
    64-byte-aligned table, and the slot centroids are the scene's in slot
    order."""
    bvh = record_trees()[name]
    if name == "one-leaf":
        assert bvh.num_nodes == 1
    if name == "permuted":
        inner = bvh.node_count == 0
        assert (bvh.node_right[inner] != bvh.node_left[inner] + 1).any()
    tables = compiled.CompiledBvhTables(bvh, compiled.Arena())
    nodes = tables.nodes
    assert nodes.dtype.itemsize == 32 and nodes.shape == (bvh.num_nodes + 1,)
    assert nodes.ctypes.data % 64 == 0
    node_min = bvh.node_min.astype(float).tolist()
    record = {0: 0}
    stack = [0]
    x_ties = 0
    while stack:
        node = stack.pop()
        packed = nodes[record[node]]
        assert packed["lo"].tobytes() == bvh.node_min[node].tobytes()
        assert packed["hi"].tobytes() == bvh.node_max[node].tobytes()
        if bvh.node_count[node] > 0:
            assert int(packed["child"]) == bvh.node_first[node]
            assert int(packed["meta"]) == bvh.node_count[node]
            continue
        left, right = int(bvh.node_left[node]), int(bvh.node_right[node])
        first = int(packed["child"])
        assert first >= 2 and first % 2 == 0
        near = [node_min[left][axis] <= node_min[right][axis] for axis in range(3)]
        assert int(packed["meta"]) == -1 - sum(1 << axis for axis in range(3) if near[axis])
        x_ties += node_min[left][0] == node_min[right][0]
        record[left], record[right] = first, first + 1
        stack += [left, right]
    assert sorted(record.values()) == [0, *range(2, bvh.num_nodes + 1)]
    centres = np.asarray(bvh.scene.centres, dtype=np.float64)
    assert tables.slot_centroids.tobytes() == centres[bvh.primitive_order].tobytes()
    assert tables.order.tolist() == bvh.primitive_order.tolist()
    if name == "ties":
        assert x_ties >= len(tie_points()) // 4


@requires_backend
@pytest.mark.parametrize("name", ["ties", "permuted", "refit", "python-middle"])
def test_all_hits_through_the_records_match_scalar(name):
    """Collect mode orders equal-distance hits by traversal, so siblings that
    tie on min along the ray axis must be pushed as the scalar traversal
    pushes them; rays along every axis, through the scene's points and
    between them, with and without a distance limit."""
    bvh = record_trees()[name]
    engine = TraversalEngine(bvh)
    centres = np.asarray(bvh.scene.centres, dtype=np.float64)
    rng = np.random.default_rng(73)
    for axis in range(3):
        origins = np.concatenate(
            [centres, centres + rng.uniform(-0.3, 0.3, size=centres.shape)]
        )
        if name == "ties":
            origins = np.concatenate([origins, [[0.0, 0.1, 0.0]] * 4])
        origins[:, axis] = origins[:, axis].min() - 0.5
        tmax = np.where(rng.random(origins.shape[0]) < 0.5, np.inf, 3.5)
        scalar_hits, scalar_stats = scalar_all_hits(engine, axis, origins, tmax)
        batch_stats = RayStats()
        batch = engine.trace_axis_all_batch(axis, origins, tmax, stats=batch_stats)
        assert_stats_identical(scalar_stats, batch_stats)
        assert_all_hits_identical(scalar_hits, batch)
        per_ray = []
        for origin, limit in zip(origins, tmax):
            local = RayStats()
            engine.trace_axis_all(axis, tuple(origin), float(limit), stats=local)
            per_ray.append(local.nodes_visited)
        assert batch.nodes_visited.tolist() == per_ray
    if name == "ties":
        # The tie is visible: the +x ray at y = 0.1 meets both rows of every
        # column at one distance, in traversal order.
        hits = engine.trace_axis_all(0, (-0.5, 0.1, 0.0))
        assert len(hits) == len(tie_points()) and hits[0].t == hits[3].t


@requires_backend
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_routing_through_a_permuted_tree_matches_scalar(representation, count_calls):
    """The closest-hit routing reads each record's child and push order, not
    the builder's numbering: over a tree whose nodes are renumbered at
    random, buckets, per-key visits and ray totals equal the scalar
    locate_bucket's."""
    rng = np.random.default_rng(79)
    keys = routing_keys("multi_plane", 64, rng)
    index = CgRXIndex(
        keys,
        config=CgRXConfig(bucket_size=3, representation=representation, engine="compiled"),
    )
    pipeline = index.pipeline
    pipeline._bvh = permuted(pipeline.bvh, rng)
    pipeline._engine = TraversalEngine(pipeline._bvh, compiled_arena=pipeline._compiled_arena)
    probes = probe_keys(index, rng)
    scalar_stats = RayStats()
    scalar_buckets, scalar_nodes = [], []
    for key in probes:
        local = RayStats()
        scalar_buckets.append(index.representation.locate_bucket(int(key), local))
        scalar_nodes.append(local.nodes_visited)
        scalar_stats.merge(local)
    fused_stats = RayStats()
    count_calls.clear()
    buckets, nodes = index.representation.locate_bucket_batch(probes, fused_stats)
    assert count_calls == {"locate_keys": 1}
    assert buckets.tolist() == scalar_buckets
    assert nodes.tolist() == scalar_nodes
    assert_stats_identical(scalar_stats, fused_stats)


def distinct_batches(key_bits: int):
    """Batches of every shape the distinct-key table must count: empty,
    one key, sizes around powers of two, all-equal keys, key 0 (the empty
    marker's usual value), repeats of the first key (the marker itself)
    and the largest key."""
    rng = np.random.default_rng(key_bits)
    top = (1 << key_bits) - 1
    for size in (0, 1, 2, 15, 16, 17, 2047, 2048, 2049):
        yield rng.integers(0, 1 << 20, size=size, dtype=np.uint64) % np.uint64(max(1, size // 3))
        yield rng.integers(0, top, size=size, dtype=np.uint64, endpoint=True)
        yield np.full(size, 7, dtype=np.uint64)
        yield np.zeros(size, dtype=np.uint64)
        yield np.full(size, top, dtype=np.uint64)
        first = rng.integers(0, top, size=size, dtype=np.uint64, endpoint=True)
        first[::3] = first[0] if size else 0
        yield first
        mixed = rng.integers(0, 40, size=size, dtype=np.uint64)
        mixed[::4] = top
        mixed[1::5] = 0
        yield mixed


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
def test_distinct_key_reduction_counts_like_unique(key_bits):
    """The kernels' distinct-key count equals ``np.unique(keys).size`` for
    cgRX and cgRXu point batches and cgRXu range lows, on fresh indexes, so
    the buffers are exactly as large as the batch at several sizes."""
    dtype = np.uint32 if key_bits == 32 else np.uint64
    keyset = generate_keys(512, uniformity=0.5, key_bits=key_bits, seed=83)
    cgrx = CgRXIndex(keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits))
    cgrxu = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=key_bits))
    for batch in distinct_batches(key_bits):
        keys = batch.astype(dtype)
        expected = np.unique(keys).size
        for index in (cgrx, cgrxu):
            assert index.point_lookup_batch(keys).engine == "compiled"
            assert index._lookup_batch.reductions[-1] == expected, (index.name, keys[:4])
        cgrxu.range_lookup_batch(keys, keys)
        assert cgrxu._lookup_batch.reductions[-1] == expected


# --------------------------------------------------------------------------
# Shard-local arenas
# --------------------------------------------------------------------------


def test_arena_rebuild_in_place():
    arena = compiled.Arena()
    arena.begin(1024)
    first = arena.alloc((16,), np.float64)
    capacity = arena.capacity_bytes
    assert capacity >= 1024 and arena.used_bytes == 128
    # Same-size epoch: no reallocation, same capacity, cursor reset.
    arena.begin(1024)
    second = arena.alloc((16,), np.float64)
    assert arena.capacity_bytes == capacity
    assert second.__array_interface__["data"][0] == first.__array_interface__["data"][0]
    # Larger epoch grows geometrically; smaller epochs never shrink.
    arena.begin(4 * capacity)
    assert arena.capacity_bytes >= 4 * capacity
    grown = arena.capacity_bytes
    arena.begin(64)
    assert arena.capacity_bytes == grown
    assert arena.rebuilds == 4


def test_arena_alloc_alignment_and_overflow():
    arena = compiled.Arena()
    arena.begin(256)
    base = arena._buffer.__array_interface__["data"][0]
    assert base % compiled.Arena.ALIGNMENT == 0
    small = arena.alloc((3,), np.uint8)
    bigger = arena.alloc((4,), np.float32)
    assert (small.__array_interface__["data"][0] - base) % compiled.Arena.ALIGNMENT == 0
    assert (bigger.__array_interface__["data"][0] - base) % compiled.Arena.ALIGNMENT == 0
    with pytest.raises(ValueError):
        arena.alloc((1024,), np.float64)


@requires_backend
def test_index_arena_reused_across_update_epochs():
    keyset = generate_keys(2048, uniformity=0.6, key_bits=32, seed=61)
    index = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="compiled")
    )
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.3, seed=62)
    index.point_lookup_batch(lookups)
    assert index.compiled_buffers_bytes() > 0
    chain_arena = index._compiled_arena
    before = chain_arena.capacity_bytes
    for wave in update_waves(keyset, num_insert_waves=1, num_delete_waves=1, seed=63):
        index.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        index.point_lookup_batch(lookups)
        # Identity is stable: epochs repack the same arena object.
        assert index._compiled_arena is chain_arena
    assert chain_arena.rebuilds >= 2
    assert chain_arena.capacity_bytes >= before


# --------------------------------------------------------------------------
# cgRX / cgRXu: compiled engine answers and counts identically
# --------------------------------------------------------------------------


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_cgrxu_compiled_identical_through_update_waves(key_bits, representation):
    keyset = generate_keys(3072, uniformity=0.6, key_bits=key_bits, seed=31)
    lookups = hit_miss_lookups(
        keyset, 768, miss_fraction=0.3, out_of_range_fraction=0.4, seed=32
    )
    lows, highs = range_lookups(keyset, count=96, expected_hits=12, seed=33)

    scalar = CgRXuIndex(
        keyset.keys,
        keyset.row_ids,
        CgRXuConfig(key_bits=key_bits, representation=representation, engine="scalar"),
    )
    comp = CgRXuIndex(
        keyset.keys,
        keyset.row_ids,
        CgRXuConfig(key_bits=key_bits, representation=representation, engine="compiled"),
    )

    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )

    for wave in update_waves(
        keyset, num_insert_waves=2, num_delete_waves=2, growth_factor=1.3, seed=34
    ):
        scalar_update = scalar.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        comp_update = comp.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        assert scalar_update.inserted == comp_update.inserted
        assert scalar_update.deleted == comp_update.deleted
        assert_stats_identical(scalar_update.stats, comp_update.stats)

    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )
    scalar_entries = scalar.export_entries()
    comp_entries = comp.export_entries()
    assert scalar_entries[0].tobytes() == comp_entries[0].tobytes()
    assert scalar_entries[1].tobytes() == comp_entries[1].tobytes()


def compact_twins(scalar, comp, bucket_ids) -> None:
    """Compact both indexes, each under its own profiler, and assert the
    compiled pass left what the scalar one did: node slabs and free list,
    bounds, lifecycle counters, the kernel record, the profiler's
    compaction counters, the representative scene and the BVH generation,
    and chain tables equal to a fresh flatten."""
    records, counters = [], []
    for index in (scalar, comp):
        prof = enable_profiling()
        try:
            records.append(index.compact_buckets(bucket_ids))
        finally:
            disable_profiling()
        counters.append(
            {
                name: instrument.value
                for name, _, instrument in prof.registry.instruments()
                if name.startswith("core_compaction_")
            }
        )
    assert_stats_identical(*records)
    assert counters[0] == counters[1]
    assert counters[1].get("core_compaction_chains_total", 0) == np.unique(bucket_ids).size
    assert scalar.nodes.state_differences(comp.nodes) == []
    assert scalar._bucket_uppers.tobytes() == comp._bucket_uppers.tobytes()
    assert scalar.lifecycle == comp.lifecycle
    assert (scalar.pipeline.refit_count, scalar.pipeline.build_count) == (
        comp.pipeline.refit_count,
        comp.pipeline.build_count,
    )
    assert (
        scalar.pipeline.vertex_buffer.centres.tobytes()
        == comp.pipeline.vertex_buffer.centres.tobytes()
    )
    flattened = comp.nodes.flatten_chains(comp.overflow_bucket + 1)
    for expected_table, table in zip(flattened, comp._chain_table()):
        assert expected_table.tobytes() == table.tobytes()


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_cgrxu_compiled_apply_leaves_identical_node_state(key_bits, representation):
    """The C apply and the C compaction edit the slabs exactly like the
    scalar per-key and per-bucket loops: stale slots, free-list order,
    linked-region growth, bounds, re-anchors, refits and chain tables."""
    keyset = generate_keys(3072, uniformity=0.6, key_bits=key_bits, seed=41)
    dtype = keyset.keys.dtype
    # A duplicate group spanning several buckets gives them one bound.
    keys = np.sort(keyset.keys)
    keys[1500:1530] = keys[1500]
    rng = np.random.default_rng(42)
    lookups = hit_miss_lookups(
        keyset, 512, miss_fraction=0.3, out_of_range_fraction=0.3, seed=43
    )
    scalar, comp = (
        CgRXuIndex(
            keys,
            keyset.row_ids,
            CgRXuConfig(key_bits=key_bits, representation=representation, engine=engine),
        )
        for engine in ("scalar", "compiled")
    )
    assert (np.diff(comp._bucket_uppers) == 0).any()
    comp.point_lookup_batch(lookups)  # packs the chain tables updates patch
    initial_capacity = comp.nodes.linked_region_capacity
    freed = 0
    for wave in range(9):
        # Inserts crowd the lower third so chains split and grow.
        inserts = rng.choice(keys[:1024], size=600).astype(dtype)
        # Duplicate inserts, plus keys beyond the bulk-loaded range.
        inserts = np.concatenate(
            [inserts, inserts[:40], rng.integers(0, np.iinfo(dtype).max, 40, dtype=dtype)]
        )
        rows = rng.integers(0, 1 << 31, size=inserts.shape[0]).astype(np.uint32)
        # Deletes of stored keys (some twice) plus misses.
        deletes = np.concatenate(
            [
                rng.choice(keys, size=300).astype(dtype),
                rng.integers(0, np.iinfo(dtype).max, 30, dtype=dtype),
            ]
        )
        expected = scalar.update_batch(inserts, rows, deletes)
        result = comp.update_batch(inserts, rows, deletes)
        assert (result.inserted, result.deleted) == (expected.inserted, expected.deleted)
        assert_stats_identical(expected.stats, result.stats)
        assert scalar.nodes.state_differences(comp.nodes) == []
        for expected_table, table in zip(scalar._chain_table(), comp._chain_table()):
            assert expected_table.tobytes() == table.tobytes()
        assert len(comp) == comp._count_entries()
        assert_point_identical(
            scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
        )
        if freed:
            assert len(comp.nodes._free_nodes) < freed  # released nodes reused
            freed = 0
        if wave == 2:
            # The hottest chains and the overflow bucket; compaction
            # releases linked nodes to the free list.
            lengths = scalar.bucket_chain_lengths()
            hottest = np.argsort(lengths, kind="stable")[::-1][:48]
            compact_twins(scalar, comp, np.append(hottest, comp.overflow_bucket))
            freed = len(comp.nodes._free_nodes)
            assert freed > 0
        elif wave == 4:
            # Drain a few whole buckets, leaving their chains empty.
            drained = [5, 6, 300]
            drain = np.concatenate([scalar.nodes.chain_entries(b)[0] for b in drained])
            for index in (scalar, comp):
                index.update_batch(delete_keys=drain)
            assert scalar.nodes.state_differences(comp.nodes) == []
            assert any(scalar.nodes.chain_entries(b)[0].size == 0 for b in drained)
            # Every bucket: empty chains, already-compact chains, shared
            # bounds and the overflow bucket, with re-anchors and a refit.
            assert (scalar.bucket_chain_lengths() == 1).any()
            refits = comp.pipeline.refit_count
            compact_twins(scalar, comp, np.arange(comp.overflow_bucket + 1))
            assert comp.pipeline.refit_count > refits
            freed = len(comp.nodes._free_nodes)
        elif wave == 7:
            compact_twins(scalar, comp, [])
            # Shrink the quality baseline so the refit escalates to a rebuild.
            builds = comp.pipeline.build_count
            for index in (scalar, comp):
                index._built_overlap_area = index._built_overlap_area / 1e6
            compact_twins(scalar, comp, np.arange(comp.overflow_bucket + 1))
            assert comp.pipeline.build_count > builds
            freed = len(comp.nodes._free_nodes)
    assert comp.lifecycle["reanchored_representatives"] > 0
    assert comp.nodes.linked_region_capacity > initial_capacity


def reference_slices(index, delete_keys, insert_keys) -> np.ndarray:
    """The scalar apply's partition, bucket by bucket: bucket ``b`` takes
    the sorted batch keys in ``(uppers[b - 1], uppers[b]]``
    (:meth:`CgRXuIndex._batch_range`); one row per bucket that takes any."""
    uppers = index._bucket_uppers
    rows = []
    for bucket in range(index.overflow_bucket + 1):
        low = int(uppers[bucket - 1]) + 1 if bucket else 0
        high = int(uppers[bucket])
        deletes = index._batch_range(delete_keys, low, high)
        inserts = index._batch_range(insert_keys, low, high)
        if deletes[1] > deletes[0] or inserts[1] > inserts[0]:
            rows.append((bucket, *deletes, *inserts))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 5)


@pytest.mark.parametrize(
    "key_bits, store_top", [(32, True), (64, False), (64, True)], ids=["32-top", "64", "64-top"]
)
def test_key_search_partition_matches_the_per_bucket_reference(key_bits, store_top):
    """The compiled apply's partition (each key searched into the bucket
    bounds) equals the scalar per-bucket ranges over real index states:
    re-anchored bounds, bounds shared by a duplicate group, the key type's
    largest key stored, empty halves and keys above every bound."""
    keyset = generate_keys(2048, uniformity=0.6, key_bits=key_bits, seed=51)
    dtype = keyset.keys.dtype
    top = np.iinfo(dtype).max
    keys = np.sort(keyset.keys)
    keys[900:930] = keys[900]
    if store_top:
        keys[-1] = top
    index = CgRXuIndex(keys, config=CgRXuConfig(key_bits=key_bits))
    rng = np.random.default_rng(52)
    reanchored = 0
    for wave in range(6):
        uppers = index._bucket_uppers
        assert (np.diff(uppers) >= 0).all()
        assert (np.diff(uppers) == 0).any()
        live = index.export_entries()[0]
        stored = rng.choice(live, size=200)
        random = rng.integers(0, top, size=100, dtype=dtype, endpoint=True)
        above = np.asarray(top, dtype) - rng.integers(0, 4, size=20).astype(dtype)
        bounds = uppers[:-1][uppers[:-1] <= top].astype(dtype)
        ends = np.asarray([0, top], dtype=dtype)
        edges = np.concatenate([bounds[::97], bounds[::89] + np.asarray(1, dtype), ends])
        batch = np.sort(np.concatenate([stored, random, above, edges]))
        assert batch.dtype == dtype
        half = np.sort(rng.choice(batch, size=batch.shape[0] // 2))
        empty = np.empty(0, dtype=dtype)
        for deletes, inserts in ((half, batch), (batch, empty), (empty, half), (empty, empty)):
            expected = reference_slices(index, deletes, inserts)
            assert expected.tobytes() == index._partition_batch(deletes, inserts).tobytes()
        # Deletes shrink buckets, so the compaction re-anchors bounds.
        index.update_batch(
            insert_keys=rng.choice(live, size=150), delete_keys=rng.choice(live, size=400)
        )
        index.compact_buckets(np.arange(0, index.overflow_bucket + 1, 1 + wave % 2))
        reanchored = index.lifecycle["reanchored_representatives"]
    assert reanchored > 0
    assert (np.diff(index._bucket_uppers) >= 0).all()


@pytest.mark.parametrize("key_bits", [32, 64])
def test_stored_largest_key_does_not_apply_updates_twice(key_bits):
    """A bucket after one whose bound is the key type's largest key takes no
    keys: with 2**64 - 1 stored, the scalar reference once routed every key
    to the overflow bucket as well, so updates applied twice."""
    top = np.iinfo(np.uint32 if key_bits == 32 else np.uint64).max
    keys = np.asarray([10, 20, 30, 40, 50, 60, 70, top], dtype=np.uint64)
    if key_bits == 32:
        keys = keys.astype(np.uint32)
    scalar, comp = (
        CgRXuIndex(keys, config=CgRXuConfig(key_bits=key_bits, engine=engine))
        for engine in ("scalar", "compiled")
    )
    probe = np.asarray([25, 70, top], dtype=keys.dtype)
    for index in (scalar, comp):
        result = index.update_batch(
            insert_keys=np.asarray([25], dtype=keys.dtype),
            insert_row_ids=np.asarray([99], dtype=np.uint32),
        )
        assert result.inserted == 1
        assert len(index) == index._count_entries() == 9
        stored, _ = index.export_entries()
        assert (np.diff(stored.astype(np.uint64)) >= 0).all()
        assert (stored == 25).sum() == 1
        live = index.point_lookup_batch(probe)
        rebuilt = CgRXuIndex.build_from_snapshot(index.snapshot()).point_lookup_batch(probe)
        assert live.match_counts.tolist() == rebuilt.match_counts.tolist() == [1, 1, 1]
        assert live.row_ids.tobytes() == rebuilt.row_ids.tobytes()
        assert index.update_batch(delete_keys=np.asarray([25], dtype=keys.dtype)).deleted == 1
        assert len(index) == index._count_entries() == 8
    assert scalar.nodes.state_differences(comp.nodes) == []


@requires_backend
def test_compaction_kernels_reject_inputs_that_disagree_with_the_chains():
    from repro.core import compiled as core_compiled

    keyset = generate_keys(1024, uniformity=0.5, key_bits=64, seed=53)
    index = CgRXuIndex(keyset.keys, keyset.row_ids)
    order, starts = index._chain_table()
    index.update_batch(insert_keys=np.repeat(np.sort(keyset.keys)[500], 40))
    nodes, overflow = index.nodes, index.overflow_bucket
    with pytest.raises(RuntimeError):  # the chain that split is left out
        core_compiled.patch_chain_tables(nodes, order, starts, [])
    for bad in ([3, 2], [2, 2], [-1], [overflow + 1], [[1, 2]]):
        with pytest.raises(ValueError):
            core_compiled.chain_tails(nodes, overflow, np.asarray(bad))
    buckets = np.nonzero(index.bucket_chain_lengths() > 1)[0]
    before, entries, _ = core_compiled.chain_tails(nodes, overflow, buckets)
    bounds = index._bucket_uppers[buckets]
    with pytest.raises(ValueError):  # fewer nodes than the entries need
        core_compiled.compact_chains(nodes, overflow, buckets, bounds, before * 0, entries)
    with pytest.raises(RuntimeError):  # counts of other chains
        core_compiled.compact_chains(nodes, overflow, buckets + 1, bounds, before, entries)


@requires_backend
def test_compiled_apply_resumes_once_when_the_linked_region_runs_out(count_calls):
    keyset = generate_keys(2048, uniformity=0.6, key_bits=32, seed=44)
    scalar, comp = (
        CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine=engine))
        for engine in ("scalar", "compiled")
    )
    capacity = comp.nodes.linked_region_capacity
    inserts = np.random.default_rng(45).choice(keyset.keys, size=2000)
    deletes = keyset.keys[::16]
    expected = scalar.update_batch(insert_keys=inserts, delete_keys=deletes)
    count_calls.clear()
    result = comp.update_batch(insert_keys=inserts, delete_keys=deletes)
    # The splits need more linked nodes than reserved, but one doubling is
    # enough: the kernel stops once, the slabs grow, and it resumes.
    assert capacity < comp.nodes.linked_nodes_used <= 2 * capacity
    assert comp.nodes.linked_region_capacity == 2 * capacity
    assert count_calls == {"apply_updates": 2}
    # Every op is counted once.
    assert (result.inserted, result.deleted) == (expected.inserted, expected.deleted)
    assert_stats_identical(expected.stats, result.stats)
    assert scalar.nodes.state_differences(comp.nodes) == []
    assert len(comp) == comp._count_entries() == len(scalar)


@requires_backend
def test_split_free_update_keeps_the_packed_chain_tables():
    keyset = generate_keys(2048, uniformity=0.6, key_bits=64, seed=46)
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.3, seed=47)
    scalar, comp = (
        CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=64, engine=engine))
        for engine in ("scalar", "compiled")
    )
    comp.point_lookup_batch(lookups)
    tables = comp._compiled_chain_tables()
    rebuilds = comp._compiled_arena.rebuilds
    rng = np.random.default_rng(48)
    # Nodes start half full: a few spread-out inserts fit without splits.
    inserts = rng.integers(0, int(keyset.keys.max()), 24, dtype=np.uint64)
    deletes = np.concatenate([keyset.keys[::7], inserts[:4]])
    for index in (scalar, comp):
        index.update_batch(insert_keys=inserts, delete_keys=deletes)
    assert comp.nodes.linked_nodes_used == 0
    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert comp._compiled_chain_tables() is tables
    assert comp._compiled_arena.rebuilds == rebuilds


# --------------------------------------------------------------------------
# cgRXu point batches: one C call over buffers bound once per index
# --------------------------------------------------------------------------


def point_batch(keyset, size: int, rng) -> np.ndarray:
    """``size`` lookup keys: a stored key twice, the largest key of the key
    type (above every representative) and 0 (below the smallest) first, then
    stored keys, keys between them and a few repeated keys above the largest
    representative.  The out-of-range keys skip the rays, so large batches
    stay cheap for the scalar reference while their per-key work varies."""
    dtype = keyset.keys.dtype
    top = np.iinfo(dtype).max
    head = np.array([keyset.keys[7], keyset.keys[7], top, 0], dtype=dtype)
    kind = rng.choice(3, size=size, p=[0.15, 0.05, 0.8])
    stored = rng.choice(keyset.keys, size=size)
    between = rng.integers(0, int(keyset.keys.max()), size=size, dtype=np.uint64)
    above = top - rng.integers(0, 8, size=size).astype(dtype)
    tail = np.select([kind == 0, kind == 1], [stored, between.astype(dtype)], above)
    return np.concatenate([head, tail]).astype(dtype)[:size]


def assert_point_engines_identical(scalar, comp, keys) -> None:
    """Same answers, kernel record and pipeline lifetime ray stats."""
    expected = scalar.point_lookup_batch(keys)
    result = comp.point_lookup_batch(keys)
    assert (expected.engine, result.engine) == ("scalar", "compiled")
    assert_point_identical(expected, result)
    assert_stats_identical(scalar.pipeline.lifetime_stats, comp.pipeline.lifetime_stats)


#: An L2 far smaller than the test indexes, so a kernel record's cache
#: fraction depends on the footprint and on the distinct-key count.
SMALL_L2 = dataclasses.replace(RTX_4090, l2_cache_bytes=4096)


def cgrxu_twins(keyset, representation: str):
    return [
        CgRXuIndex(
            keyset.keys,
            keyset.row_ids,
            CgRXuConfig(
                key_bits=keyset.key_bits, representation=representation, engine=engine
            ),
            device=SMALL_L2,
        )
        for engine in ("scalar", "compiled")
    ]


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_point_batch_matches_scalar_at_every_batch_size(key_bits, representation):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=key_bits, seed=111)
    scalar, comp = cgrxu_twins(keyset, representation)
    rng = np.random.default_rng(112)
    # 4096, 8192 and 12289 keys put every, every 2nd and every 3rd key in the
    # divergence sample; 31/32/33 end in a partial, a full and a 1-lane warp.
    for size in (0, 1, 3, 31, 32, 33, 4096, 8192, 12289):
        keys = point_batch(keyset, size, rng)
        if size >= 3:
            assert np.unique(keys).size < size
        assert_point_engines_identical(scalar, comp, keys)


def lifecycle_steps(indexes, keyset, seed):
    """Drive identical cgRXu indexes through every structural change a bound
    point batch has to follow; yields ``(label, indexes)`` after each."""
    rng = np.random.default_rng(seed)
    dtype = keyset.keys.dtype
    yield "fresh", indexes
    capacity = indexes[0].nodes.linked_region_capacity
    inserts = np.concatenate(
        [rng.choice(keyset.keys, size=2400), rng.integers(0, np.iinfo(dtype).max, 100, dtype=dtype)]
    ).astype(dtype)
    rows = rng.integers(0, 1 << 31, size=inserts.shape[0]).astype(np.uint32)
    deletes = rng.choice(keyset.keys, size=512, replace=False)
    for index in indexes:
        index.update_batch(inserts, rows, deletes)
        assert index.nodes.linked_region_capacity > capacity
    yield "splits and linked-region growth", indexes
    for index in indexes:
        refits = index.pipeline.refit_count
        index.compact_buckets(np.arange(index.overflow_bucket + 1))
        assert index.lifecycle["reanchored_representatives"] > 0
        assert index.pipeline.refit_count > refits
    yield "compaction with re-anchor and refit", indexes
    live = indexes[0].export_entries()[0]
    deletes = rng.choice(live, size=live.shape[0] // 4, replace=False)
    for index in indexes:
        builds = index.pipeline.build_count
        index.update_batch(delete_keys=deletes)
        # Shrink the quality baseline so the refit escalates to a rebuild.
        index._built_overlap_area = index._built_overlap_area / 1e6
        index.compact_buckets(np.arange(index.overflow_bucket + 1))
        assert index.pipeline.build_count > builds
    yield "refit escalated to a rebuild", indexes
    yield "build_from_snapshot", [
        CgRXuIndex.build_from_snapshot(index.snapshot()) for index in indexes
    ]


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_point_batch_matches_scalar_through_the_index_lifecycle(key_bits, representation):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=key_bits, seed=113)
    rng = np.random.default_rng(114)
    probe = np.concatenate(
        [point_batch(keyset, 300, rng), rng.choice(keyset.keys, size=200)]
    ).astype(keyset.keys.dtype)
    # Ranges whose lows repeat: the range record's distinct count.
    lows = probe[:160]
    top = np.iinfo(lows.dtype).max
    highs = np.where(lows > top - 4096, top, lows + 4096).astype(lows.dtype)
    for _, (scalar, comp) in lifecycle_steps(cgrxu_twins(keyset, representation), keyset, 115):
        assert_point_engines_identical(scalar, comp, probe)
        assert_range_identical(
            scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
        )


@requires_backend
def test_point_batch_caches_the_footprint_per_structural_change(monkeypatch):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=116)
    index = CgRXuIndex(keyset.keys, keyset.row_ids)
    probe = point_batch(keyset, 64, np.random.default_rng(117))
    for label, (index,) in lifecycle_steps([index], keyset, 118):
        index.point_lookup_batch(probe)
        assert index._device_footprint_bytes() == index.memory_footprint().total_bytes, label
    # Between structural changes, batches reuse the cached total.
    monkeypatch.setattr(index, "memory_footprint", None)
    index.point_lookup_batch(probe)
    index.range_lookup_batch(probe[:8], probe[:8])


@requires_backend
def test_point_batch_returns_fresh_arrays():
    from repro.bench.harness import cgrxu_factory, sharded_factory

    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=119)
    for index in (CgRXuIndex(keyset.keys, keyset.row_ids), CgRXIndex(keyset.keys, keyset.row_ids)):
        first = index.point_lookup_batch(keyset.keys[:40])
        row_ids, match_counts = first.row_ids.copy(), first.match_counts.copy()
        index.point_lookup_batch(keyset.keys[40:80][::-1])
        assert first.row_ids.tobytes() == row_ids.tobytes()
        assert first.match_counts.tobytes() == match_counts.tobytes()
        for array in (first.row_ids, first.match_counts):
            assert not np.shares_memory(array, index._lookup_batch.answers)

    # Range batches, on a bare index and through a 4-shard router: a later
    # batch leaves an earlier answer as it was, and no answer shares memory
    # with a bound rows buffer.  Two ranges span shards.
    lows, highs = range_lookups(keyset, count=48, expected_hits=30, seed=119)
    stored = np.sort(keyset.keys)
    lows = np.concatenate([lows, stored[[400, 0]]])
    highs = np.concatenate([highs, stored[[1200, -1]]])
    bare = CgRXuIndex(keyset.keys, keyset.row_ids)
    served = sharded_factory(inner=cgrxu_factory(), num_shards=4, partitioner="range")(keyset)
    for deployment, indexes in (
        (bare, [bare]),
        (served, [shard.index for shard in served.router.shards]),
    ):
        first = deployment.range_lookup_batch(lows, highs)
        rows = [array.copy() for array in first.row_ids]
        deployment.range_lookup_batch(highs[::-1] - 40, highs[::-1])
        assert [array.tobytes() for array in first.row_ids] == [array.tobytes() for array in rows]
        assert sum(array.shape[0] for array in rows) > 1000 and rows[-1].shape == (2048,)
        buffers = [index._lookup_batch.rows for index in indexes]
        for array in first.row_ids:
            assert not any(np.shares_memory(array, buffer) for buffer in buffers)
    # The router hands a range one shard answers that shard's array (a view
    # of the shard call's rows), and concatenates only the spanning ones.
    spans = np.subtract(*served.router.partitioner.shard_span_batch(lows, highs)[::-1])
    assert spans.max() == 3
    for array, span in zip(first.row_ids, spans):
        assert (array.base is None) == (span > 0)


@requires_backend
def test_point_batch_buffers_grow_with_batches_not_with_repacks():
    """Chain-table repacks and BVH changes re-point the bound struct; only a
    batch larger than the buffers grows them."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=120)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    rng = np.random.default_rng(121)
    largest = most_ranges = most_rows = repacks = 0
    index.point_lookup_batch(keyset.keys[:1])
    batch = index._lookup_batch
    assert batch.highs.size == batch.offsets.size - 1 == batch.rows.size == 0
    for step in range(200):
        tables = index._compiled_chain_tables()
        inserts = rng.choice(keyset.keys, size=24)
        index.update_batch(insert_keys=inserts, delete_keys=rng.choice(keyset.keys, size=8))
        repacks += index._compiled_chain_tables() is not tables
        size = int(rng.integers(1, 48))
        grows = size > batch.capacity
        buffers = batch.keys, batch.answers, batch.scratch
        ranges = batch.highs, batch.offsets
        largest = max(largest, size)
        if step % 2:
            index.point_lookup_batch(rng.choice(keyset.keys, size=size))
            assert all(now is before for now, before in zip((batch.highs, batch.offsets), ranges))
        else:
            lows = np.sort(rng.choice(keyset.keys, size=size))
            highs = lows + rng.integers(0, 1 << 22, size=size).astype(lows.dtype)
            rows_before = batch.rows
            total = index.range_lookup_batch(lows, highs).total_matches
            if total <= rows_before.shape[0]:
                assert batch.rows is rows_before
            most_rows = max(most_rows, total)
            assert most_rows <= batch.rows.shape[0] <= 2 * most_rows
            if size <= ranges[0].shape[0]:
                assert batch.highs is ranges[0] and batch.offsets is ranges[1]
            most_ranges = max(most_ranges, size)
            assert most_ranges <= batch.highs.shape[0] <= 2 * most_ranges
        assert largest <= batch.capacity <= 2 * largest
        if not grows:
            assert all(now is before for now, before in zip(
                (batch.keys, batch.answers, batch.scratch), buffers
            ))
        assert index.compiled_buffers_bytes() == (
            index.pipeline.compiled_buffers_bytes()
            + index._compiled_arena.capacity_bytes
            + batch.nbytes
        )
        assert batch.nbytes >= batch.rows.nbytes + batch.highs.nbytes + batch.offsets.nbytes
    assert repacks > 100
    assert most_rows > 100
    assert index._lookup_batch is batch
    assert batch.bound[0] is index._compiled_chain_tables()
    assert batch.bound[1] is index.pipeline.compiled_tables()


def profiled_series(run) -> list:
    """The ``rtx_wavefront_*`` and ``core_chain_*`` exposition lines of a
    profiler enabled while ``run()`` runs."""
    profile = enable_profiling()
    try:
        run()
    finally:
        disable_profiling()
    lines = profile.registry.exposition().splitlines()
    return [line for line in lines if "rtx_wavefront" in line or "core_chain" in line]


@requires_backend
def test_point_batch_feeds_the_profiler_series_of_its_stages():
    """The routing's ``rtx_wavefront_*`` series and the chain walk's
    ``core_chain_*`` series get what a separate routing call plus the walk
    would give them."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=122)
    keys = point_batch(keyset, 700, np.random.default_rng(123))
    fused_index, staged_index = (CgRXuIndex(keyset.keys, keyset.row_ids) for _ in range(2))
    fused = profiled_series(lambda: fused_index.point_lookup_batch(keys))
    staged = profiled_series(
        lambda: (
            staged_index.representation.locate_bucket_batch(keys, RayStats()),
            staged_index._point_lookup_batch_scalar(keys),
        )
    )
    assert any('kernel="compiled_locate"' in line for line in fused)
    assert any("core_chain_walk_length" in line for line in fused)
    assert fused == [line.replace('engine="scalar"', 'engine="compiled"') for line in staged]


@requires_backend
def test_range_batch_feeds_the_profiler_series_of_its_routing():
    """The fused range batch's routing feeds the ``rtx_wavefront_*`` series
    what a separate routing call plus the scalar walk would feed them."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=124)
    lows = point_batch(keyset, 300, np.random.default_rng(125))
    top = np.iinfo(lows.dtype).max
    highs = np.where(lows > top - 4096, top, lows + 4096).astype(lows.dtype)
    fused_index, staged_index = (CgRXuIndex(keyset.keys, keyset.row_ids) for _ in range(2))
    fused = profiled_series(lambda: fused_index.range_lookup_batch(lows, highs))
    staged = profiled_series(
        lambda: (
            staged_index.representation.locate_bucket_batch(lows, RayStats()),
            staged_index._range_lookup_batch_scalar(lows, highs),
        )
    )
    assert any('kernel="compiled_locate"' in line for line in fused)
    assert fused == staged


# --------------------------------------------------------------------------
# cgRX point batches: routing and bucket search in the same C call
# --------------------------------------------------------------------------


def duplicate_heavy(keyset) -> KeySet:
    """``keyset`` without its 64 smallest keys (so 0 and the keys below lie
    under the smallest stored key), plus 40 copies of every 97th key and 600
    of one key: runs that spill into later buckets at every tested bucket
    size."""
    kept = np.sort(keyset.keys)[64:]
    keys = np.concatenate([kept, np.repeat(kept[::97], 40), np.repeat(kept[1000], 600)])
    return KeySet(
        keys=keys,
        row_ids=np.random.default_rng(130).permutation(keys.shape[0]).astype(np.uint32),
        key_bits=keyset.key_bits,
    )


def cgrx_twins(keyset, representation: str, bucket_size: int):
    return [
        CgRXIndex(
            keyset.keys,
            keyset.row_ids,
            CgRXConfig(
                key_bits=keyset.key_bits,
                representation=representation,
                bucket_size=bucket_size,
                engine=engine,
            ),
            device=SMALL_L2,
        )
        for engine in ("scalar", "compiled")
    ]


@requires_backend
@pytest.mark.parametrize("bucket_size", [4, 32, 256])
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_cgrx_point_batch_matches_scalar_at_every_batch_size(
    key_bits, representation, bucket_size
):
    keyset = duplicate_heavy(generate_keys(2048, uniformity=0.5, key_bits=key_bits, seed=131))
    scalar, comp = cgrx_twins(keyset, representation, bucket_size)
    rng = np.random.default_rng(132)
    for size in (0, 1, 3, 31, 32, 33, 4096, 8192, 12289):
        keys = point_batch(keyset, size, rng)
        assert_point_engines_identical(scalar, comp, keys)
    # Every key of a run spilling over buckets, and the keys around it.
    runs = np.unique(keyset.keys)
    assert_point_engines_identical(scalar, comp, runs)
    assert_point_engines_identical(scalar, comp, runs[1:] - 1)


@requires_backend
def test_cgrx_point_batch_buffers_grow_with_batches_not_with_rebuilds():
    """A rebuild re-points the bound struct at the new bucketed keys and BVH
    tables; only a batch larger than the buffers grows them."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=135)
    index = CgRXIndex(keyset.keys, keyset.row_ids, CgRXConfig(key_bits=32))
    rng = np.random.default_rng(136)
    index.point_lookup_batch(keyset.keys[:1])
    batch = index._lookup_batch
    assert index.compiled_buffers_bytes() == (
        index.pipeline.compiled_buffers_bytes() + batch.nbytes
    )
    largest = 1
    for step in range(60):
        if step % 12 == 0:
            index.update_batch(insert_keys=rng.choice(keyset.keys, size=24))
        size = int(rng.integers(1, 48))
        grows = size > batch.capacity
        buffers = batch.keys, batch.answers, batch.scratch
        largest = max(largest, size)
        index.point_lookup_batch(rng.choice(keyset.keys, size=size))
        assert largest <= batch.capacity <= 2 * largest
        if not grows:
            assert batch.keys is buffers[0]
            assert batch.answers is buffers[1] and batch.scratch is buffers[2]
    assert index._lookup_batch is batch
    assert batch.bound[0] is index.bucketed
    assert batch.bound[1] is index.pipeline.compiled_tables()


@requires_backend
def test_cgrx_point_batch_feeds_the_profiler_series_of_its_routing():
    """The fused routing of either representation feeds the
    ``rtx_wavefront_*`` series what a separate routing call would."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=64, seed=137)
    keys = point_batch(keyset, 700, np.random.default_rng(138))
    for representation in ("naive", "optimized"):
        config = CgRXConfig(key_bits=64, representation=representation)
        fused_index, staged_index = (
            CgRXIndex(keyset.keys, keyset.row_ids, config) for _ in range(2)
        )
        fused = profiled_series(lambda: fused_index.point_lookup_batch(keys))
        staged = profiled_series(
            lambda: staged_index.representation.locate_bucket_batch(keys, RayStats())
        )
        assert any('kernel="compiled_locate"' in line for line in fused)
        assert fused == staged, representation


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
def test_cgrx_compiled_identical(key_bits):
    keyset = generate_keys(4096, uniformity=0.5, key_bits=key_bits, seed=51)
    lookups = hit_miss_lookups(
        keyset, 1024, miss_fraction=0.25, out_of_range_fraction=0.3, seed=52
    )
    lows, highs = range_lookups(keyset, count=64, expected_hits=8, seed=53)
    scalar = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="scalar")
    )
    comp = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="compiled")
    )
    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )


# --------------------------------------------------------------------------
# RX: all-hits point lookups on the collect-mode megakernel
# --------------------------------------------------------------------------


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
def test_rx_compiled_identical(key_bits):
    keyset = generate_keys(2048, uniformity=0.6, key_bits=key_bits, seed=55)
    # Duplicate keys give rays several hits each (and force the all-hits
    # buffer to regrow); misses and out-of-range keys give rays none.
    keys = np.concatenate([keyset.keys, keyset.keys[:300], keyset.keys[:50]])
    row_ids = np.arange(keys.shape[0], dtype=np.uint32)
    lookups = hit_miss_lookups(
        keyset, 512, miss_fraction=0.3, out_of_range_fraction=0.5, seed=56
    )
    scalar = RXIndex(keys, row_ids, key_bits=key_bits, engine="scalar")
    comp = RXIndex(keys, row_ids, key_bits=key_bits, engine="compiled")
    scalar_result = scalar.point_lookup_batch(lookups)
    comp_result = comp.point_lookup_batch(lookups)
    assert comp_result.engine == "compiled" and scalar_result.engine == "scalar"
    assert comp_result.match_counts.max() > 1 and (comp_result.match_counts == 0).any()
    assert_point_identical(scalar_result, comp_result)


# --------------------------------------------------------------------------
# Degradation and configuration plumbing
# --------------------------------------------------------------------------


def test_resolve_engine_degrades_without_backend(pinned_backend):
    pinned_backend("none")
    assert compiled.available_backend() is None
    assert resolve_engine("compiled") == "scalar"
    assert compiled.last_fallback_reason == "no_backend"
    assert resolve_engine("scalar") == "scalar"


def test_degraded_compiled_index_matches_scalar(pinned_backend):
    """No backend at all: engine="compiled" serves the scalar path."""
    pinned_backend("none")
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=71)
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.3, seed=72)
    scalar = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="scalar")
    )
    degraded = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="compiled")
    )
    result = degraded.point_lookup_batch(lookups)
    assert result.engine == "scalar"
    assert_point_identical(scalar.point_lookup_batch(lookups), result)
    rx = RXIndex(keyset.keys, keyset.row_ids, key_bits=32)
    assert rx.point_lookup_batch(lookups).engine == "scalar"
    assert degraded.compiled_buffers_bytes() == 0


def test_degradation_records_telemetry(pinned_backend):
    from repro.obs.profile import disable_profiling, enable_profiling

    pinned_backend("none")
    profile = enable_profiling()
    try:
        assert resolve_engine("compiled") == "scalar"
    finally:
        disable_profiling()
    gauges = profile.registry.labeled_values("compiled_engine_fallback")
    assert gauges == {'compiled_engine_fallback{reason="no_backend"}': 1.0}
    counters = profile.registry.labeled_values("compiled_engine_fallbacks_total")
    assert counters == {'compiled_engine_fallbacks_total{reason="no_backend"}': 1}


def serve_zipf(keyset, engine="compiled"):
    from repro.bench.harness import cgrxu_factory
    from repro.serve import ServeConfig, ShardedIndex

    served = ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(engine=engine),
        config=ServeConfig(num_shards=2, key_bits=keyset.key_bits),
    )
    stream = zipf_request_stream(keyset, 600, zipf_coefficient=1.1, miss_fraction=0.05, seed=5)
    metrics = served.serve_stream(stream, record_answers=True)
    return served.last_answers, metrics.snapshot()


def without_engine_counts(snapshot) -> dict:
    return {key: value for key, value in snapshot.items() if not key.startswith("engine_batches_")}


@requires_backend
def test_served_fallback_warns_once_and_counts_the_engine_that_ran(pinned_backend):
    keyset = generate_keys(4096, uniformity=0.5, key_bits=32, seed=101)
    answers, snapshot = serve_zipf(keyset)
    assert snapshot["engine_batches_compiled"] == snapshot["batches"] > 0
    assert "engine_batches_scalar" not in snapshot

    pinned_backend("none")
    with pytest.warns(RuntimeWarning) as caught:
        fallback_answers, fallback_snapshot = serve_zipf(keyset)
    warned = [w for w in caught if "compiled engine unavailable (no_backend)" in str(w.message)]
    assert len(warned) == 1
    assert "running the scalar engine instead" in str(warned[0].message)
    assert fallback_snapshot["engine_batches_scalar"] == fallback_snapshot["batches"]
    assert "engine_batches_compiled" not in fallback_snapshot
    for compiled_part, fallback_part in zip(answers, fallback_answers):
        assert compiled_part.tobytes() == fallback_part.tobytes()
    assert repr(without_engine_counts(snapshot)) == repr(without_engine_counts(fallback_snapshot))

    _, scalar_snapshot = serve_zipf(keyset, engine="scalar")
    assert scalar_snapshot["engine_batches_scalar"] == scalar_snapshot["batches"]


def test_engine_validation_accepts_compiled():
    assert CgRXConfig(engine="compiled").engine == "compiled"
    assert CgRXuConfig(engine="compiled").engine == "compiled"
    assert RXIndex(np.arange(8, dtype=np.uint32), key_bits=32).engine == "compiled"
    with pytest.raises(ValueError):
        CgRXuConfig(engine="jit")


@requires_backend
def test_compiled_arena_reported_outside_the_device_footprint():
    """Arenas and batch buffers are host memory: the simulated-device
    footprint does not depend on the engine or on the query history, and the
    maintenance snapshot reports the compiled tier's bytes instead."""
    from repro.bench.harness import cgrxu_factory
    from repro.serve import ServeConfig, ShardedIndex

    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=81)
    served, scalar_twin = (
        ShardedIndex(
            keyset.keys,
            keyset.row_ids,
            factory=cgrxu_factory(engine=engine),
            config=ServeConfig(num_shards=2, key_bits=32),
        )
        for engine in ("compiled", "scalar")
    )
    def device_entries(deployment) -> dict:
        # The result cache is filled by the lookups; everything else is
        # simulated device memory.
        components = deployment.memory_footprint().components
        return {name: size for name, size in components.items() if name != "result_cache"}

    shards = [shard.index for shard in served.router.shards]
    before = device_entries(served)
    assert sorted(before) == ["shard_0", "shard_1"]
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.2, seed=82)
    for deployment in (served, scalar_twin):
        deployment.point_lookup_batch(lookups)
    assert device_entries(served) == before == device_entries(scalar_twin)
    assert served.memory_footprint().components == scalar_twin.memory_footprint().components

    arena_bytes = served.maintenance.snapshot()["compiled_arena_bytes"]
    assert arena_bytes == sum(index.compiled_buffers_bytes() for index in shards) > 0
    batch_bytes = [index._lookup_batch.nbytes for index in shards]
    assert all(batch_bytes)
    assert arena_bytes == sum(batch_bytes) + sum(
        index.pipeline.compiled_buffers_bytes() + index._compiled_arena.capacity_bytes
        for index in shards
    )
