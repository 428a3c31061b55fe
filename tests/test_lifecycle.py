"""Epoch-versioned index lifecycle: compaction, snapshots, tiered maintenance.

Covers the storage-lifecycle refactor end to end:

* ``CgRXuIndex.compact_buckets`` — per-bucket chain compaction must reclaim
  nodes, preserve every entry, leave lookup answers *and* instrumentation
  counters bit-identical between the scalar and compiled engines, and patch
  (not invalidate) the cached chain tables;
* the cached entry count and ``export_entries`` against the chains;
* representative re-anchoring + BVH refit after deletes, with overlap-area
  escalation to a full BVH rebuild;
* ``snapshot()`` / ``build_from_snapshot()`` — the off-path replacement-build
  primitive behind double-buffered shard rebuilds;
* the serve layer's tiered maintenance policy: compaction below the rebuild
  threshold, double-buffered rebuild swaps with zero unavailability versus
  the stop-the-world mode's recorded outage windows;
* the router's rebuild, split and merge: the peak footprint with both
  generations resident, the replacements' epoch lineage, and the refusal of
  a shard id out of range before anything is built;
* the dense-keyset ``hit_miss_lookups`` regression (PR-3 footgun).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import ground_truth_point
from repro.bench.harness import cgrxu_factory, sorted_array_factory
from repro.core.config import CgRXuConfig
from repro.core.updatable import CgRXuIndex, IndexSnapshot
from repro.rtx import compiled
from repro.serve.maintenance import MaintenancePolicy, MaintenanceWorker
from repro.serve.metrics import MetricsRegistry
from repro.serve.sharded import ServeConfig, ShardedIndex
from repro.workloads.keygen import KeySet, generate_keys
from repro.workloads.lookups import hit_miss_lookups
from repro.workloads.updates import update_waves


def _grown_index(engine: str, key_bits: int = 32, seed: int = 9):
    """A cgRXu index with real chain debt (inserts) and shrunken buckets (deletes)."""
    keyset = generate_keys(2048, uniformity=0.5, key_bits=key_bits, seed=seed)
    index = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=key_bits, engine=engine)
    )
    rng = np.random.default_rng(seed + 1)
    inserts = rng.integers(0, (1 << 32) - 1, size=3000, dtype=np.uint64).astype(
        keyset.key_dtype
    )
    deletes = rng.choice(keyset.keys, size=512, replace=False)
    inserts = inserts[~np.isin(inserts, deletes)]
    index.update_batch(
        insert_keys=inserts,
        insert_row_ids=np.arange(2048, 2048 + inserts.shape[0], dtype=np.uint32),
        delete_keys=deletes,
    )
    return index, keyset, inserts, deletes


def _probe(keyset, inserts, deletes):
    return np.concatenate([keyset.keys, inserts, deletes]).astype(keyset.key_dtype)


# ------------------------------------------------------------------ entries


def test_cgrxu_cached_length_matches_chain_walk():
    keyset = generate_keys(1024, uniformity=0.7, key_bits=32, seed=41)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    assert len(index) == index._count_entries() == 1024
    for wave in update_waves(
        keyset, num_insert_waves=2, num_delete_waves=2, growth_factor=1.5, seed=42
    ):
        index.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        assert len(index) == index._count_entries()


def test_cgrxu_export_entries_sorted_and_complete():
    keyset = generate_keys(2048, uniformity=0.4, key_bits=32, seed=43)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    keys, row_ids = index.export_entries()
    assert keys.shape[0] == row_ids.shape[0] == 2048
    assert np.all(np.diff(keys.astype(np.uint64)) >= 0)
    assert np.array_equal(np.sort(keys), np.sort(keyset.keys))


# ---------------------------------------------------------------- compaction


@pytest.mark.parametrize("engine", ["scalar", "compiled"])
def test_compact_buckets_preserves_answers_and_entries(engine):
    index, keyset, inserts, deletes = _grown_index(engine)
    probe = _probe(keyset, inserts, deletes)
    before = index.point_lookup_batch(probe)
    entries_before = index.export_entries()
    degradation_before = index.degradation_score()

    lengths = index.bucket_chain_lengths()
    hottest = np.argsort(lengths)[::-1][:128]
    index.compact_buckets(hottest)

    after = index.point_lookup_batch(probe)
    assert before.row_ids.tobytes() == after.row_ids.tobytes()
    assert before.match_counts.tobytes() == after.match_counts.tobytes()
    entries_after = index.export_entries()
    assert entries_before[0].tobytes() == entries_after[0].tobytes()
    assert entries_before[1].tobytes() == entries_after[1].tobytes()
    assert len(index) == index._count_entries()
    assert index.degradation_score() < degradation_before
    assert index.lifecycle["nodes_reclaimed"] > 0


def test_compact_buckets_engine_parity_bit_identical():
    """Scalar and compiled engines stay bit-identical *through* compaction."""
    indexes = {}
    for engine in ("scalar", "compiled"):
        index, keyset, inserts, deletes = _grown_index(engine)
        lengths = index.bucket_chain_lengths()
        index.compact_buckets(np.argsort(lengths)[::-1][:128])
        indexes[engine] = (index, _probe(keyset, inserts, deletes))

    scalar_index, probe = indexes["scalar"]
    compiled_index, _ = indexes["compiled"]
    scalar = scalar_index.point_lookup_batch(probe)
    fast = compiled_index.point_lookup_batch(probe)
    assert scalar.row_ids.tobytes() == fast.row_ids.tobytes()
    assert scalar.match_counts.tobytes() == fast.match_counts.tobytes()
    assert dataclasses.asdict(scalar.stats) == dataclasses.asdict(fast.stats)

    lows = probe[:256]
    highs = (lows.astype(np.uint64) + 500).clip(max=(1 << 32) - 1).astype(lows.dtype)
    scalar_range = scalar_index.range_lookup_batch(lows, highs)
    compiled_range = compiled_index.range_lookup_batch(lows, highs)
    assert all(
        a.tobytes() == b.tobytes()
        for a, b in zip(scalar_range.row_ids, compiled_range.row_ids)
    )
    assert dataclasses.asdict(scalar_range.stats) == dataclasses.asdict(
        compiled_range.stats
    )


@pytest.mark.parametrize("engine", ["scalar", "compiled"])
def test_compacted_answers_match_ground_truth(engine):
    index, keyset, inserts, deletes = _grown_index(engine)
    index.compact_buckets(np.arange(index.overflow_bucket + 1))
    keys, rows = index.export_entries()
    probe = _probe(keyset, inserts, deletes)
    result = index.point_lookup_batch(probe)
    expected_agg, expected_counts = ground_truth_point(keys, rows, probe)
    np.testing.assert_array_equal(result.row_ids, expected_agg)
    np.testing.assert_array_equal(result.match_counts, expected_counts)


def test_compaction_patches_chain_cache_per_bucket():
    index, *_ = _grown_index("compiled")
    order_before, _ = index._chain_table()  # warm the cache
    lengths = index.bucket_chain_lengths()
    touched = np.argsort(lengths)[::-1][:64]
    index.compact_buckets(touched)
    if compiled.available_backend() is None:
        # The scalar fallback drops the tables; the next read re-flattens.
        assert index._chain_cache is None
    else:
        assert index._chain_cache is not None  # patched, not invalidated
    patched_order, patched_starts = index._chain_table()
    fresh_order, fresh_starts = index.nodes.flatten_chains(index.overflow_bucket + 1)
    np.testing.assert_array_equal(patched_order, fresh_order)
    np.testing.assert_array_equal(patched_starts, fresh_starts)


def test_released_nodes_are_reused_before_fresh_allocations():
    index, keyset, *_ = _grown_index("compiled")
    nodes = index.nodes
    index.compact_buckets(np.arange(index.overflow_bucket + 1))
    assert nodes._free_nodes, "full compaction should reclaim at least one node"
    free_before = list(nodes._free_nodes)
    assert nodes.allocate_linked_node() == free_before[-1]
    assert nodes.linked_nodes_used == nodes._linked_used - len(free_before) + 1


# --------------------------------------------------- re-anchoring and the BVH


def test_compaction_reanchors_and_refits_after_deletes():
    index, keyset, inserts, deletes = _grown_index("compiled")
    refits_before = index.pipeline.refit_count
    index.compact_buckets(np.arange(index.overflow_bucket + 1))
    assert index.lifecycle["reanchored_representatives"] > 0
    assert index.lifecycle["bvh_refits"] >= 1
    assert index.pipeline.refit_count > refits_before
    # Geometry moved and was refit — answers must still match ground truth.
    keys, rows = index.export_entries()
    probe = _probe(keyset, inserts, deletes)
    result = index.point_lookup_batch(probe)
    expected_agg, expected_counts = ground_truth_point(keys, rows, probe)
    np.testing.assert_array_equal(result.row_ids, expected_agg)
    np.testing.assert_array_equal(result.match_counts, expected_counts)


def test_overlap_escalation_rebuilds_the_bvh():
    index, *_ = _grown_index("compiled")
    builds_before = index.pipeline.build_count
    # Shrink the quality baseline so the first refit escalates past the ratio.
    index._built_overlap_area = index._built_overlap_area / 1e6
    index.compact_buckets(np.arange(index.overflow_bucket + 1))
    assert index.lifecycle["bvh_rebuilds"] >= 1
    assert index.pipeline.build_count > builds_before
    # The rebuild reset the baseline: quality is pristine again.
    assert index.bvh_overlap_ratio() == pytest.approx(1.0)


# ----------------------------------------------------- epochs and snapshots


def test_epoch_advances_with_compaction_and_snapshot_builds():
    index, keyset, inserts, deletes = _grown_index("compiled")
    assert index.epoch == 0
    index.compact_buckets([0, 1, 2])
    assert index.epoch == 1
    snapshot = index.snapshot()
    assert isinstance(snapshot, IndexSnapshot)
    assert snapshot.epoch == 1
    assert snapshot.num_entries == len(index)

    replacement = CgRXuIndex.build_from_snapshot(snapshot)
    assert replacement.epoch == 2
    assert replacement.degradation_score() == 0.0
    probe = _probe(keyset, inserts, deletes)
    live = index.point_lookup_batch(probe)
    rebuilt = replacement.point_lookup_batch(probe)
    assert live.row_ids.tobytes() == rebuilt.row_ids.tobytes()
    assert live.match_counts.tobytes() == rebuilt.match_counts.tobytes()


def test_snapshot_is_isolated_from_later_updates():
    index, keyset, *_ = _grown_index("compiled")
    snapshot = index.snapshot()
    entries = snapshot.num_entries
    index.update_batch(delete_keys=keyset.keys[:64])
    assert snapshot.num_entries == entries  # the copy did not move


# ------------------------------------------------------- serve: tiered policy


def _served_cgrxu(keyset, **knobs) -> ShardedIndex:
    config = ServeConfig(num_shards=4, key_bits=32, cache_capacity=0, **knobs)
    return ShardedIndex(
        keyset.keys, keyset.row_ids, factory=cgrxu_factory(128), config=config
    )


def _degrade(served: ShardedIndex, keyset, waves: int = 3, seed: int = 2) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(waves):
        inserts = rng.integers(0, (1 << 32) - 1, size=1500, dtype=np.uint64).astype(
            np.uint32
        )
        served.update_batch(insert_keys=inserts)


def test_tiered_scan_compacts_before_rebuilding():
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=21)
    served = _served_cgrxu(
        keyset, compact_threshold=0.05, rebuild_threshold=1e9
    )
    _degrade(served, keyset, waves=1)
    snapshot = served.maintenance.snapshot()
    assert snapshot["compactions_performed"] >= 1
    assert snapshot["rebuilds_performed"] == 0
    assert snapshot.get("maintenance_ms_compact", 0.0) > 0.0


def test_double_buffered_rebuild_has_zero_unavailability():
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=22)
    served = _served_cgrxu(
        keyset, compact_threshold=0.3, rebuild_threshold=0.3,
        rebuild_mode="double_buffered",
    )
    _degrade(served, keyset)
    snapshot = served.maintenance.snapshot()
    assert snapshot["rebuilds_performed"] >= 1
    assert served.metrics.unavailability_windows == []
    assert served.metrics.availability == 1.0
    # Both generations were resident at the swap point.
    assert snapshot["rebuild_peak_bytes"] > served.memory_footprint().total_bytes


def test_stop_the_world_rebuild_records_outage_windows():
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=22)
    served = _served_cgrxu(
        keyset, compact_threshold=0.3, rebuild_threshold=0.3,
        rebuild_mode="stop_the_world",
    )
    _degrade(served, keyset)
    snapshot = served.maintenance.snapshot()
    assert snapshot["rebuilds_performed"] >= 1
    assert len(served.metrics.unavailability_windows) >= 1
    assert served.metrics.unavailable_ms > 0.0


def test_lifecycle_steps_record_the_peak_and_advance_the_epoch():
    """A rebuild, a split and a merge each build their replacements beside
    the live indexes: the recorded peak is the footprint before the step
    plus the replacements' bytes, every replacement is its source's next
    epoch, and the swap changes no answer."""
    keyset = generate_keys(4096, uniformity=0.5, key_bits=32, seed=23)
    served = _served_cgrxu(keyset, compact_threshold=1e9, rebuild_threshold=1e9)
    router = served.router
    rng = np.random.default_rng(5)
    inserts = rng.integers(0, (1 << 32) - 1, size=512, dtype=np.uint64).astype(np.uint32)
    served.update_batch(insert_keys=inserts)
    probe = np.concatenate([keyset.keys[::5], inserts[::3]]).astype(np.uint32)
    expected = router.point_lookup_batch(probe)

    steps = [
        # (step, shard it replaces, shards holding its replacements)
        (lambda: router.rebuild_shard(1), 1, [1]),
        (lambda: router.split_shard(2), 2, [2, 3]),
        (lambda: router.merge_shards(1), 1, [1]),
    ]
    for step, source, replaced in steps:
        footprint = router.memory_footprint_bytes()
        old_index = router.shards[source].index
        router.rebuild_peak_bytes = 0
        step()
        built = [router.shards[shard_id].index for shard_id in replaced]
        assert all(index is not old_index for index in built)
        assert router.rebuild_peak_bytes == footprint + sum(
            index.memory_footprint().total_bytes for index in built
        )
        assert [index.epoch for index in built] == [old_index.epoch + 1] * len(built)
        result = router.point_lookup_batch(probe)
        assert result.row_ids.tobytes() == expected.row_ids.tobytes()
        assert result.match_counts.tobytes() == expected.match_counts.tobytes()
    # The merge joined the rebuilt shard with a split half, both epoch 1.
    assert router.num_shards == 4
    assert router.shards[1].index.epoch == 2


@pytest.mark.parametrize("replication_factor", [1, 3])
def test_lifecycle_calls_refuse_a_shard_id_out_of_range(replication_factor):
    """-1 must not name the last shard, and a refused call builds nothing."""
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=24)
    served = _served_cgrxu(keyset, replication_factor=replication_factor)
    router = served.router
    num_shards = router.num_shards
    indexes = [shard.index for shard in router.shards]
    footprint = router.memory_footprint_bytes()
    calls = [
        (router.rebuild_shard, (-1, num_shards)),
        (router.compact_shard, (-1, num_shards)),
        (router.split_shard, (-1, num_shards)),
        (router.merge_shards, (-1, num_shards - 1, num_shards)),
    ]
    for method, shard_ids in calls:
        for shard_id in shard_ids:
            with pytest.raises(ValueError):
                method(shard_id)
            assert router.num_shards == num_shards
            assert all(
                shard.index is index for shard, index in zip(router.shards, indexes)
            )
            assert router.memory_footprint_bytes() == footprint
            assert router.rebuild_peak_bytes == 0


def test_replica_group_compaction_keeps_answers():
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=25)
    served = ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(128),
        config=ServeConfig(
            num_shards=2, key_bits=32, cache_capacity=0, replication_factor=3,
            compact_threshold=1e9, rebuild_threshold=1e9,
        ),
    )
    rng = np.random.default_rng(3)
    inserts = rng.integers(0, (1 << 32) - 1, size=2048, dtype=np.uint64).astype(np.uint32)
    served.update_batch(insert_keys=inserts)
    probe = np.concatenate([keyset.keys, inserts]).astype(np.uint32)
    before = served.point_lookup_batch(probe)
    compacted = [served.router.compact_shard(shard_id) for shard_id in range(2)]
    assert any(work is not None for work in compacted)
    after = served.point_lookup_batch(probe)
    assert before.row_ids.tobytes() == after.row_ids.tobytes()
    assert before.match_counts.tobytes() == after.match_counts.tobytes()


def test_sorted_array_shards_skip_compaction():
    keyset = generate_keys(512, uniformity=0.5, key_bits=32, seed=26)
    served = ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        config=ServeConfig(num_shards=2, key_bits=32, cache_capacity=0),
    )
    assert served.router.compact_shard(0) is None


def test_rebuilding_an_emptied_shard_does_not_crash():
    """A shard whose every key was deleted rebuilds to 'no index', not a crash."""
    keyset = generate_keys(512, uniformity=0.0, key_bits=32, seed=31)
    served = _served_cgrxu(keyset, compact_threshold=1e9, rebuild_threshold=1e9)
    router = served.router
    shard0_keys = router.shards[0].keys.copy()
    served.update_batch(delete_keys=shard0_keys)
    assert router.shards[0].num_entries == 0
    router.rebuild_shard(0)  # double-buffered; must not raise
    assert router.shards[0].index is None
    result = served.point_lookup_batch(shard0_keys[:16].astype(np.uint32))
    assert (result.match_counts == 0).all()


def test_replicated_two_phase_rebuild_preserves_the_group():
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=28)
    served = ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(128),
        config=ServeConfig(
            num_shards=2, key_bits=32, cache_capacity=0, replication_factor=3,
        ),
    )
    router = served.router
    group = router.shards[0].index
    probe = keyset.keys[:128].astype(np.uint32)
    before = served.point_lookup_batch(probe)
    router.rebuild_shard(0)
    assert router.shards[0].index is group  # same group, reloaded in place
    assert router.shards[0].builds == 2
    assert len(group.replicas) == 3
    after = served.point_lookup_batch(probe)
    assert (after.match_counts >= 1).all()
    assert after.row_ids.tobytes() == before.row_ids.tobytes()
    assert after.match_counts.tobytes() == before.match_counts.tobytes()


def test_maintenance_metrics_rebind_after_caller_registry_stream():
    """Maintenance telemetry must return to the deployment registry after a
    stream served into a caller-provided one (unreplicated deployments too)."""
    from repro.workloads.requests import zipf_request_stream

    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=30)
    served = _served_cgrxu(
        keyset, compact_threshold=0.1, rebuild_threshold=0.3,
        rebuild_mode="stop_the_world",
    )
    caller_registry = MetricsRegistry(num_shards=4)
    served.serve_stream(
        zipf_request_stream(keyset, 64, seed=1), metrics=caller_registry
    )
    _degrade(served, keyset)  # triggers stop-the-world rebuilds post-stream
    assert served.metrics.maintenance_windows  # landed on the deployment's own
    assert served.metrics.unavailability_windows
    assert not caller_registry.maintenance_windows


# -------------------------------------------------------- maintenance metrics


def test_maintenance_windows_and_tail_latency_reduction():
    metrics = MetricsRegistry(num_shards=1)
    for arrival, latency in ((0.0, 1.0), (5.0, 9.0), (6.0, 11.0), (20.0, 2.0)):
        metrics.record_request(latency, arrival, arrival + latency)
    metrics.record_maintenance("compact", 4.0, 7.0)
    assert metrics.maintenance_device_ms["compact"] == pytest.approx(3.0)
    # Only the two requests arriving inside [4, 7] count.
    assert metrics.latency_during_maintenance(50.0) == pytest.approx(10.0)
    snapshot = metrics.snapshot()
    assert snapshot["maintenance_windows"] == 1
    assert snapshot["maintenance_ms_compact"] == pytest.approx(3.0)
    assert "latency_p99_during_maintenance_ms" in snapshot


def test_maintenance_policy_validates_rebuild_mode():
    with pytest.raises(ValueError):
        MaintenancePolicy(rebuild_mode="in_place")


# ------------------------------------------------------- the bench experiment


def test_lifecycle_experiment_acceptance():
    """Pin the acceptance criteria of ``repro-bench lifecycle``:

    zero unavailability windows for double-buffered rebuilds, nonzero for
    the stop-the-world path, and every row oracle-checked byte-identical.
    """
    from repro.bench.experiments import lifecycle

    result = lifecycle(quick=True)
    assert result.rows
    assert all(row["oracle_identical"] for row in result.rows)
    by_policy = {}
    for row in result.rows:
        by_policy.setdefault(row["policy"], []).append(row)
    double_buffered = by_policy["rebuild_double_buffered"][-1]
    stop_world = by_policy["rebuild_stop_world"][-1]
    assert double_buffered["rebuilds"] >= 1
    assert double_buffered["unavailability_windows"] == 0
    assert double_buffered["availability"] == 1.0
    assert stop_world["rebuilds"] >= 1
    assert stop_world["unavailability_windows"] >= 1
    assert stop_world["unavailable_ms"] > 0.0
    # Double-buffering trades peak memory for availability.
    assert double_buffered["rebuild_peak_mib"] > stop_world["footprint_mib"]
    # The compaction tier actually compacts; the unmaintained run degrades.
    assert by_policy["compact"][-1]["compactions"] >= 1
    assert by_policy["none"][-1]["degradation"] > by_policy["compact"][-1]["degradation"]


# ------------------------------------------------- hit_miss_lookups regression


def test_hit_miss_lookups_dense_keyset_falls_back_to_out_of_range():
    """PR-3 footgun: in-range misses on a fully dense key set used to hang."""
    keys = np.arange(512, dtype=np.uint32)
    keyset = KeySet(
        keys=keys, row_ids=np.arange(512, dtype=np.uint32), key_bits=32,
        description="dense",
    )
    lookups = hit_miss_lookups(keyset, 64, miss_fraction=1.0, seed=1)
    assert lookups.shape[0] == 64
    assert (lookups > keys[-1]).all()  # every miss generated out of range


def test_hit_miss_lookups_near_dense_keyset_samples_gaps_directly():
    """Near-dense key sets (a handful of gaps) must not spin the sampler."""
    values = np.arange(1 << 16, dtype=np.uint32)
    removed = np.array([5, 4097, 60_000], dtype=np.uint32)
    keys = np.setdiff1d(values, removed)
    keyset = KeySet(
        keys=keys, row_ids=np.arange(keys.shape[0], dtype=np.uint32), key_bits=32,
        description="near-dense",
    )
    lookups = hit_miss_lookups(keyset, 32, miss_fraction=1.0, seed=3)
    assert lookups.shape[0] == 32
    assert np.isin(lookups, removed).all()  # only the three gaps exist


def test_hit_miss_lookups_gappy_keyset_still_samples_in_range():
    keys = np.arange(0, 1024, 2, dtype=np.uint32)  # every other value missing
    keyset = KeySet(
        keys=keys, row_ids=np.arange(keys.shape[0], dtype=np.uint32), key_bits=32,
        description="gappy",
    )
    lookups = hit_miss_lookups(keyset, 64, miss_fraction=1.0, seed=2)
    assert lookups.shape[0] == 64
    assert not np.isin(lookups, keys).any()
    assert (lookups < keys[-1]).any()  # at least some misses are in range
