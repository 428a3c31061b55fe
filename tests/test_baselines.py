"""Contract tests for the six baselines (and served deployments) through `GpuIndex`.

Every index type is driven through the shared interface only: batched point
lookups (hits and misses), batched range lookups, batched updates and the
memory footprint.  Results are compared against numpy ground truth, so these
tests pin the *semantics* the bench harness relies on — the cost model is
covered elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ground_truth_point, ground_truth_range
from repro.baselines.base import GpuIndex, UnsupportedOperation
from repro.bench.harness import (
    btree_factory,
    cgrx_factory,
    cgrxu_factory,
    fullscan_factory,
    hash_table_factory,
    rtscan_factory,
    rx_factory,
    sharded_factory,
    sorted_array_factory,
)
from repro.workloads.keygen import generate_keys
from repro.workloads.lookups import hit_miss_lookups, range_lookups, uniform_lookups

#: Every index type under contract: the six baselines plus two served
#: deployments (range- and hash-partitioned) that must behave identically.
CONTRACT_FACTORIES = {
    "fullscan": fullscan_factory(),
    "sorted_array": sorted_array_factory(),
    "btree": btree_factory(),
    "hash_table": hash_table_factory(),
    "rtscan": rtscan_factory(),
    # Engine-parametrized index types: the same contract must hold for the
    # compiled and the scalar reference execution engine.
    "rx[compiled]": rx_factory(engine="compiled"),
    "rx[scalar]": rx_factory(engine="scalar"),
    "cgrxu[compiled]": cgrxu_factory(128, engine="compiled"),
    "cgrxu[scalar]": cgrxu_factory(128, engine="scalar"),
    "sharded_range_sa": sharded_factory(
        inner=sorted_array_factory(), num_shards=4, partitioner="range", cache_capacity=128
    ),
    "sharded_hash_cgrx[compiled]": sharded_factory(
        inner=cgrx_factory(32, engine="compiled"),
        num_shards=3,
        partitioner="hash",
        cache_capacity=0,
    ),
    "sharded_hash_cgrx[scalar]": sharded_factory(
        inner=cgrx_factory(32, engine="scalar"),
        num_shards=3,
        partitioner="hash",
        cache_capacity=0,
    ),
}

FACTORY_IDS = sorted(CONTRACT_FACTORIES)


@pytest.fixture(scope="module")
def keyset():
    """One 32-bit key set every index type can be built from."""
    return generate_keys(num_keys=1024, uniformity=0.5, key_bits=32, seed=5)


def build(name, keyset) -> GpuIndex:
    return CONTRACT_FACTORIES[name](keyset)


# --------------------------------------------------------------------------
# Point lookups
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_point_lookup_hits(name, keyset):
    index = build(name, keyset)
    lookups = uniform_lookups(keyset, 256, seed=17)
    if not type(index).supports_point:
        with pytest.raises(UnsupportedOperation):
            index.point_lookup_batch(lookups)
        return
    result = index.point_lookup_batch(lookups)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    assert result.num_lookups == 256
    np.testing.assert_array_equal(result.match_counts, counts)
    np.testing.assert_array_equal(result.row_ids, agg)
    assert result.hits == 256
    assert result.stats.total_bytes > 0


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_point_lookup_misses(name, keyset):
    index = build(name, keyset)
    if not type(index).supports_point:
        pytest.skip("point lookups unsupported (covered by test_point_lookup_hits)")
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.5, seed=19)
    result = index.point_lookup_batch(lookups)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    np.testing.assert_array_equal(result.match_counts, counts)
    np.testing.assert_array_equal(result.row_ids, agg)
    missed = result.num_lookups - result.hits
    assert missed == int((counts == 0).sum()) > 0


# --------------------------------------------------------------------------
# Range lookups
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_range_lookup(name, keyset):
    index = build(name, keyset)
    lows, highs = range_lookups(keyset, count=32, expected_hits=8, seed=23)
    if not type(index).supports_range:
        with pytest.raises(UnsupportedOperation):
            index.range_lookup_batch(lows, highs)
        return
    result = index.range_lookup_batch(lows, highs)
    assert result.num_lookups == 32
    for position in range(32):
        expected = ground_truth_range(
            keyset.keys, keyset.row_ids, lows[position], highs[position]
        )
        got = result.row_ids[position]
        assert got.shape[0] == expected.shape[0]
        np.testing.assert_array_equal(np.sort(got), np.sort(expected))


# --------------------------------------------------------------------------
# Updates
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_update_insert_then_lookup(name, keyset):
    index = build(name, keyset)
    # Brand-new keys beyond the generated range cannot collide with the set.
    new_keys = np.asarray([1 << 30, (1 << 30) + 7, (1 << 30) + 19], dtype=np.uint32)
    new_rows = np.asarray([11, 22, 33], dtype=np.uint32)
    try:
        update = index.update_batch(insert_keys=new_keys, insert_row_ids=new_rows)
    except UnsupportedOperation:
        assert not type(index).supports_updates
        return
    assert update.inserted == 3
    result = index.point_lookup_batch(new_keys)
    np.testing.assert_array_equal(result.match_counts, [1, 1, 1])
    np.testing.assert_array_equal(result.row_ids, [11, 22, 33])


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_update_delete_then_miss(name, keyset):
    index = build(name, keyset)
    victims = np.unique(keyset.keys)[:4]
    try:
        update = index.update_batch(delete_keys=victims)
    except UnsupportedOperation:
        assert not type(index).supports_updates
        return
    assert update.deleted == 4
    result = index.point_lookup_batch(victims)
    np.testing.assert_array_equal(result.match_counts, np.zeros(4, dtype=np.int64))
    np.testing.assert_array_equal(result.row_ids, np.full(4, -1, dtype=np.int64))


def test_declared_update_support_is_honest(keyset):
    """Index types claiming update support must not raise UnsupportedOperation."""
    for name in FACTORY_IDS:
        index = build(name, keyset)
        if not type(index).supports_updates:
            continue
        update = index.update_batch(
            insert_keys=np.asarray([123456789], dtype=np.uint32),
            insert_row_ids=np.asarray([1], dtype=np.uint32),
        )
        assert update.inserted == 1, name


def test_declared_export_support_is_honest(keyset):
    """Index types claiming entry export must dump every entry sorted by key,
    current after a write (the serving layer re-exports from them lazily);
    the others must raise UnsupportedOperation."""
    from repro.serve import ReplicaGroup

    order = np.argsort(keyset.keys, kind="stable")
    indexes = {name: build(name, keyset) for name in FACTORY_IDS}
    indexes["cgrx"] = cgrx_factory(32)(keyset)
    for inner in ("cgrxu[compiled]", "hash_table"):
        indexes[f"replica_group[{inner}]"] = ReplicaGroup(
            0,
            keyset.keys[order],
            keyset.row_ids[order],
            factory=CONTRACT_FACTORIES[inner],
            key_bits=32,
        )
    entries = sorted(zip(keyset.keys.tolist(), keyset.row_ids.tolist()))
    for name, index in indexes.items():
        if not type(index).supports_export:
            with pytest.raises(UnsupportedOperation):
                index.export_entries()
            continue
        expected = entries
        if type(index).supports_updates:
            index.update_batch(
                insert_keys=np.asarray([123456789], dtype=np.uint32),
                insert_row_ids=np.asarray([1], dtype=np.uint32),
            )
            expected = sorted(expected + [(123456789, 1)])
        keys, row_ids = index.export_entries()
        assert np.all(np.diff(keys.astype(np.int64)) >= 0), name
        assert sorted(zip(keys.tolist(), row_ids.tolist())) == expected, name


# --------------------------------------------------------------------------
# Memory and metadata
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_memory_footprint_and_build(name, keyset):
    index = build(name, keyset)
    footprint = index.memory_footprint()
    assert footprint.total_bytes > 0
    assert index.build_time_ms >= 0.0
    if type(index).supports_point:
        result = index.point_lookup_batch(keyset.keys[:16])
    else:
        result = index.range_lookup_batch(keyset.keys[:16], keyset.keys[:16])
    assert index.lookup_time_ms(result) > 0.0


@pytest.mark.parametrize("name", FACTORY_IDS)
def test_feature_row_shape(name, keyset):
    index = build(name, keyset)
    row = type(index).feature_row()
    assert set(row) == {"index", "point", "range", "memory", "64bit", "bulk_load", "updates"}
    assert row["memory"] in ("low", "med", "high")
