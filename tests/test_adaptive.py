"""Adaptive serving: signed-key routing, split/merge lifecycle, QoS, accounting.

Regression coverage for the three correctness fixes of this change set —
signed keys must clamp below the unsigned keyspace instead of wrapping onto
the top shard, ``LogBucketHistogram`` extreme percentiles must answer from
the exact extrema rather than a bucket representative, and whole-cache
clears must be accounted separately from exact-key invalidations — plus the
adaptive machinery they ride with: dynamic shard split/merge on the epoch
lifecycle, per-tenant admission control and load shedding, partitioned
result caches, and the adversarial workload generators that exercise it all.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import ground_truth_point, ground_truth_range
from repro.baselines import (
    BPlusTreeIndex,
    FullScanIndex,
    HashTableIndex,
    RTScanIndex,
    RXIndex,
    SortedArrayIndex,
)
from repro.bench import harness
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.obs import LogBucketHistogram
from repro.serve import (
    ANSWERED,
    SHED,
    AdmissionController,
    HashPartitioner,
    RangePartitioner,
    ResultCache,
    ServeConfig,
    ShardedIndex,
    TenantQoS,
)
from repro.workloads.adversarial import (
    TenantSpec,
    multi_tenant_stream,
    range_hammer_stream,
    shifting_hotspot_stream,
)
from repro.workloads.keygen import generate_keys


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=64, seed=47)


def _row_ids(keyset):
    return keyset.row_ids.astype(np.int64)


# --------------------------------------------------------------------------
# Bugfix 1: signed keys clamp below the keyspace, never wrap onto the top shard
# --------------------------------------------------------------------------


def test_negative_keys_route_to_lowest_shard(keyset):
    partitioner = RangePartitioner(keyset.keys, num_shards=4)
    negatives = np.array([-1, -5, -(2**40)], dtype=np.int64)
    # Pre-fix, astype(uint64) wrapped these to the top of the keyspace and
    # routed every one of them to the last shard.
    np.testing.assert_array_equal(
        partitioner.shard_of(negatives), np.zeros(3, dtype=np.int64)
    )


def test_negative_keys_hash_like_key_zero():
    partitioner = HashPartitioner(num_shards=5)
    shards = partitioner.shard_of(np.array([-1, -(2**31)], dtype=np.int64))
    expected = partitioner.shard_of(np.array([0, 0], dtype=np.uint64))
    np.testing.assert_array_equal(shards, expected)


@pytest.mark.parametrize("kind", ["range", "hash"])
def test_negative_range_endpoints(keyset, kind):
    if kind == "range":
        partitioner = RangePartitioner(keyset.keys, num_shards=4)
    else:
        partitioner = HashPartitioner(num_shards=4)
    # Entirely-negative ranges touch no shard.
    assert partitioner.shards_for_range(-10, -1).shape[0] == 0
    # A straddling range clamps its low end to key 0.
    high = int(np.sort(keyset.keys)[100])
    np.testing.assert_array_equal(
        partitioner.shards_for_range(-10, high),
        partitioner.shards_for_range(0, high),
    )


@pytest.mark.parametrize("kind", ["range", "hash"])
def test_shard_span_batch_negative_and_empty(keyset, kind):
    if kind == "range":
        partitioner = RangePartitioner(keyset.keys, num_shards=4)
    else:
        partitioner = HashPartitioner(num_shards=4)
    lows = np.array([-100, -50, 0], dtype=np.int64)
    highs = np.array([-10, int(np.sort(keyset.keys)[500]), -1], dtype=np.int64)
    first, last = partitioner.shard_span_batch(lows, highs)
    # Negative-high queries get an empty span (first > last) ...
    assert first[0] > last[0] and first[2] > last[2]
    # ... while the straddling query spans real shards starting at shard 0.
    assert first[1] == 0 and last[1] >= 0
    # An empty batch passes through without touching anything.
    empty = np.empty(0, dtype=np.int64)
    first, last = partitioner.shard_span_batch(empty, empty)
    assert first.shape == (0,) and last.shape == (0,)


@pytest.mark.parametrize("kind", ["range", "hash"])
def test_shard_span_batch_matches_per_query_spans(keyset, kind):
    """The router scatters every range batch by ``shard_span_batch``: its
    spans equal the per-query ``shards_for_range``, negative, inverted and
    empty ranges included."""
    if kind == "range":
        partitioner = RangePartitioner(keyset.keys, num_shards=4)
    else:
        partitioner = HashPartitioner(num_shards=4)
    rng = np.random.default_rng(57)
    sorted_keys = np.sort(keyset.keys).astype(np.int64)
    lows = rng.choice(sorted_keys, size=96)
    highs = lows + rng.integers(-(1 << 40), 1 << 60, size=96)
    lows = np.concatenate([lows, [-100, -50, -1, 0, 5, 0], sorted_keys[[3, 800]]])
    highs = np.concatenate([highs, [-10, 7, -1, 0, 4, -3], sorted_keys[[3, 500]]])
    first, last = partitioner.shard_span_batch(lows, highs)
    for position in range(lows.shape[0]):
        expected = partitioner.shards_for_range(int(lows[position]), int(highs[position]))
        spanned = np.arange(first[position], last[position] + 1)
        assert spanned.tolist() == expected.tolist(), (lows[position], highs[position])


def test_router_negative_point_keys_are_deterministic_misses(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    sorted_keys = np.sort(keyset.keys)
    lookups = np.concatenate(
        [
            np.array([-1, -(2**33), -7], dtype=np.int64),
            sorted_keys[:5].astype(np.int64),
        ]
    )
    result = index.point_lookup_batch(lookups)
    agg, counts = ground_truth_point(
        keyset.keys, _row_ids(keyset), sorted_keys[:5]
    )
    np.testing.assert_array_equal(result.row_ids[:3], [-1, -1, -1])
    np.testing.assert_array_equal(result.match_counts[:3], [0, 0, 0])
    np.testing.assert_array_equal(result.row_ids[3:], agg)
    np.testing.assert_array_equal(result.match_counts[3:], counts)


def test_router_negative_range_endpoints_clamp(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    sorted_keys = np.sort(keyset.keys)
    high = int(sorted_keys[60])
    result = index.range_lookup_batch(
        np.array([-100, -100], dtype=np.int64),
        np.array([high, -1], dtype=np.int64),
    )
    expected = ground_truth_range(keyset.keys, keyset.row_ids, 0, high)
    np.testing.assert_array_equal(
        np.sort(result.row_ids[0]), np.sort(expected)
    )
    # An entirely-negative range matches nothing.
    assert result.row_ids[1].shape[0] == 0


def test_update_batch_rejects_negative_keys(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    with pytest.raises(ValueError, match="negative insert"):
        index.update_batch(insert_keys=np.array([-3], dtype=np.int64))
    with pytest.raises(ValueError, match="negative delete"):
        index.update_batch(delete_keys=np.array([-3], dtype=np.int64))


#: Every bare index by kind: its class and its factory.  The factories of
#: the indexes that run on both engines take one.
BARE_INDEXES = {
    "cgrx": (CgRXIndex, harness.cgrx_factory),
    "cgrxu": (CgRXuIndex, harness.cgrxu_factory),
    "rx": (RXIndex, harness.rx_factory),
    "sa": (SortedArrayIndex, harness.sorted_array_factory),
    "btree": (BPlusTreeIndex, harness.btree_factory),
    "ht": (HashTableIndex, harness.hash_table_factory),
    "rtscan": (RTScanIndex, harness.rtscan_factory),
    "fullscan": (FullScanIndex, harness.fullscan_factory),
}


def bare_index_cases():
    """``(kind, engine, key_bits)`` of every bare index at each key width it
    supports, on both engines where it has them (``None`` where not)."""
    for kind, (index_cls, _) in BARE_INDEXES.items():
        engines = ("scalar", "compiled") if kind in ("cgrx", "cgrxu", "rx") else (None,)
        for engine in engines:
            for key_bits in (32, 64) if index_cls.supports_64bit else (32,):
                label = "-".join(str(part) for part in (kind, engine, key_bits) if part)
                yield pytest.param(kind, engine, key_bits, id=label)


@pytest.mark.parametrize("kind, engine, key_bits", bare_index_cases())
def test_bare_index_answers_signed_keys_like_one_shard(kind, engine, key_bits):
    """Every bare index applies the router's rule to the operations it
    supports: a negative point key is a miss, a negative low clamps to 0 and
    a range with a negative high matches nothing.  Unclamped, -1 wrapped
    onto the largest key of the key type, which is stored here."""
    from repro.workloads.keygen import KeySet

    dtype = np.uint32 if key_bits == 32 else np.uint64
    top = np.iinfo(dtype).max
    rng = np.random.default_rng(59)
    middle = rng.integers(8, 1 << min(key_bits - 1, 40), size=600, dtype=np.int64)
    stored = np.unique(np.concatenate([[0, 5, 7], middle]).astype(dtype))
    stored = np.concatenate([stored, [top]]).astype(dtype)
    keyset = KeySet(
        keys=stored,
        row_ids=rng.permutation(stored.shape[0]).astype(np.uint32),
        key_bits=key_bits,
    )
    index_cls, make_factory = BARE_INDEXES[kind]
    factory = make_factory() if engine is None else make_factory(engine=engine)
    bare = factory(keyset)
    served = harness.sharded_factory(inner=factory, num_shards=1)(keyset)
    signed = stored[:-1].astype(np.int64)

    if index_cls.supports_point:
        points = np.concatenate([[-1, 5, -(2**40), 0, -7, 6], signed[::7]]).astype(np.int64)
        expected = served.point_lookup_batch(points)
        result = bare.point_lookup_batch(points)
        assert result.row_ids.tobytes() == expected.row_ids.tobytes()
        assert result.match_counts.tobytes() == expected.match_counts.tobytes()
        assert result.row_ids[[0, 2, 4]].tolist() == [-1, -1, -1]
        assert result.match_counts[[0, 1, 3]].tolist() == [0, 1, 1]
        # A negative key costs nothing: it is left out of the batch the
        # index runs, so the record is that of the other keys alone.
        def record(keys):
            batch = np.array(keys, dtype=np.int64)
            return dataclasses.asdict(bare.point_lookup_batch(batch).stats)

        assert record([-1, 5]) == record([5])
        assert record([-1]) == record([])
    if not index_cls.supports_range:
        return

    lows = np.concatenate([[-3, -3, -100, 5, -1, 6], signed[::11]]).astype(np.int64)
    highs = np.concatenate([[6, -1, -50, 4, 0, 7], signed[::11] + 1000]).astype(np.int64)
    expected = served.range_lookup_batch(lows, highs)
    result = bare.range_lookup_batch(lows, highs)
    assert [rows.tobytes() for rows in result.row_ids] == [
        rows.tobytes() for rows in expected.row_ids
    ]
    rows_of = dict(zip(stored.tolist(), keyset.row_ids.tolist()))
    assert sorted(result.row_ids[0].tolist()) == sorted(rows_of[key] for key in (0, 5))
    assert [result.row_ids[i].shape[0] for i in (1, 2, 3)] == [0, 0, 0]
    assert result.row_ids[4].tolist() == [rows_of[0]]


# --------------------------------------------------------------------------
# Bugfix 2: extreme percentiles answer from the exact extrema
# --------------------------------------------------------------------------


def test_histogram_extreme_percentiles_are_exact():
    histogram = LogBucketHistogram()
    samples = [0.173, 3.7, 55.1, 912.4]
    for value in samples:
        histogram.record(value)
    # Pre-fix, p0/p100 reported the geometric midpoint of the covering
    # bucket, which almost never equals the recorded extremum.
    assert histogram.percentile(0.0) == min(samples)
    assert histogram.percentile(100.0) == max(samples)
    assert min(samples) <= histogram.percentile(50.0) <= max(samples)


def test_histogram_extrema_exact_after_bulk_record_and_merge():
    left = LogBucketHistogram()
    left.record_many(np.array([4.44, 17.2]))
    right = LogBucketHistogram()
    right.record_many(np.array([0.0061, 260.9]))
    left.merge(right)
    assert left.percentile(0.0) == 0.0061
    assert left.percentile(100.0) == 260.9
    assert left.minimum == 0.0061 and left.maximum == 260.9


# --------------------------------------------------------------------------
# Bugfix 3: whole-cache clears are not exact-key invalidations
# --------------------------------------------------------------------------


def test_cache_clear_accounts_bulk_drops_separately():
    cache = ResultCache(capacity=8)
    for key in range(5):
        cache.put(key, row_agg=key * 10, match_count=1)
    assert cache.invalidate_keys(np.array([0, 1])) == 2
    assert cache.stats.invalidations == 2
    # Pre-fix, clear() folded the whole-cache drop into `invalidations`,
    # making update churn look five entries larger than it was.
    assert cache.clear() == 3
    assert cache.stats.bulk_clears == 3
    assert cache.stats.invalidations == 2
    assert len(cache) == 0
    assert cache.stats.snapshot()["bulk_clears"] == 3


# --------------------------------------------------------------------------
# Partitioned result cache (per-tenant isolation)
# --------------------------------------------------------------------------


def test_cache_partitions_isolate_tenants():
    cache = ResultCache(capacity=8, partitions={1: 0.5})
    assert cache.tenant_ids == (1,)
    cache.put(99, row_agg=5, match_count=1)  # shared partition
    # Tenant 1 floods its own slice (capacity 4): evictions stay inside it.
    for key in range(10):
        cache.put(key, row_agg=key, match_count=1, tenant=1)
    assert cache.stats.evictions == 6
    assert cache.partition_sizes()[1] == 4
    assert cache.partition_sizes()[None] == 1
    assert cache.get(99) is not None
    # Isolation on lookup: a tenant can't observe another partition's entry.
    assert cache.get(99, tenant=1) is None
    # An unconfigured tenant lands in the shared partition.
    cache.put(7, row_agg=70, match_count=1, tenant=2)
    assert cache.get(7) is not None


def test_cache_invalidation_crosses_partitions():
    cache = ResultCache(capacity=8, partitions={1: 0.5})
    cache.put(42, row_agg=1, match_count=1)
    cache.put(42, row_agg=1, match_count=1, tenant=1)
    assert cache.invalidate_keys(np.array([42])) == 2
    assert cache.stats.invalidations == 2
    assert 42 not in cache


def test_cache_rejects_oversubscribed_shares():
    with pytest.raises(ValueError):
        ResultCache(capacity=8, partitions={1: 0.7, 2: 0.7})


def test_cache_duplicate_keys_within_one_batch():
    cache = ResultCache(capacity=8)
    keys = np.array([5, 5, 5], dtype=np.int64)
    cache.fill_batch(
        keys,
        np.array([10, 20, 30], dtype=np.int64),
        np.array([1, 1, 2], dtype=np.int64),
    )
    # Duplicates refresh in place: one resident entry, one insertion, and
    # the last write of the batch wins.
    assert len(cache) == 1
    assert cache.stats.insertions == 1
    cached, row_agg, counts = cache.probe_batch(keys)
    assert cached.all()
    np.testing.assert_array_equal(row_agg, [30, 30, 30])
    np.testing.assert_array_equal(counts, [2, 2, 2])


# --------------------------------------------------------------------------
# Dynamic split/merge: partitioner, two-phase router lifecycle
# --------------------------------------------------------------------------


def test_range_partitioner_split_then_merge_roundtrip(keyset):
    partitioner = RangePartitioner(keyset.keys, num_shards=4)
    original = partitioner.boundaries.copy()
    lower, upper = int(original[0]), int(original[1])
    split_key = (lower + upper) // 2
    partitioner.split_at(1, split_key)
    assert partitioner.num_shards == 5
    below = np.array([split_key - 1], dtype=np.uint64)
    at = np.array([split_key], dtype=np.uint64)
    assert int(partitioner.shard_of(below)[0]) == 1
    assert int(partitioner.shard_of(at)[0]) == 2
    partitioner.merge_with_next(1)
    assert partitioner.num_shards == 4
    np.testing.assert_array_equal(partitioner.boundaries, original)


def test_range_partitioner_split_validates_key(keyset):
    partitioner = RangePartitioner(keyset.keys, num_shards=4)
    with pytest.raises(ValueError):
        partitioner.split_at(1, int(partitioner.boundaries[1]) + 1)
    with pytest.raises(ValueError):
        partitioner.merge_with_next(3)  # last shard has no right neighbour


def test_hash_partitioner_cannot_reshard():
    partitioner = HashPartitioner(num_shards=4)
    assert not partitioner.supports_resharding
    with pytest.raises(NotImplementedError):
        partitioner.split_at(0, 10)


def _fresh_key(existing, low, high):
    """A key inside [low, high] that is not already stored."""
    candidate = (int(low) + int(high)) // 2
    present = set(int(k) for k in existing)
    while candidate in present:
        candidate += 1
    return candidate


def test_shard_split_survives_interleaved_writes(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    router = index.router
    version = router.topology_version
    boundaries = router.partitioner.boundaries
    new_key = _fresh_key(keyset.keys, boundaries[0], boundaries[1])

    router.begin_shard_split(1)
    # A write landing in the splitting shard between the two phases must
    # survive the commit (the epoch catch-up rebuild replays it).
    index.update_batch(
        insert_keys=np.array([new_key], dtype=np.uint64),
        insert_row_ids=np.array([999_983], dtype=np.uint32),
    )
    router.commit_shard_split(1)

    assert router.num_shards == 5
    assert router.topology_version == version + 1
    assert router.reshard_counts["split"] == 1

    all_keys = np.concatenate([keyset.keys, [np.uint64(new_key)]])
    all_rows = np.concatenate([_row_ids(keyset), [999_983]])
    lookups = np.concatenate([np.sort(keyset.keys)[::7], [np.uint64(new_key)]])
    agg, counts = ground_truth_point(all_keys, all_rows, lookups)
    result = index.point_lookup_batch(lookups)
    np.testing.assert_array_equal(result.row_ids, agg)
    np.testing.assert_array_equal(result.match_counts, counts)


def test_shard_merge_survives_interleaved_writes(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    router = index.router
    boundaries = router.partitioner.boundaries
    new_key = _fresh_key(keyset.keys, boundaries[0], boundaries[1])

    router.begin_shard_merge(1)
    index.update_batch(
        insert_keys=np.array([new_key], dtype=np.uint64),
        insert_row_ids=np.array([424_242], dtype=np.uint32),
    )
    router.commit_shard_merge(1)

    assert router.num_shards == 3
    assert router.reshard_counts["merge"] == 1
    result = index.point_lookup_batch(np.array([new_key], dtype=np.uint64))
    np.testing.assert_array_equal(result.row_ids, [424_242])
    np.testing.assert_array_equal(result.match_counts, [1])


def test_abort_reshard_restores_topology(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    router = index.router
    version = router.topology_version
    router.begin_shard_split(2)
    router.abort_reshard(2)
    assert router.num_shards == 4
    assert router.topology_version == version
    assert router.reshard_counts["split"] == 0
    lookups = np.sort(keyset.keys)[::11]
    agg, counts = ground_truth_point(keyset.keys, _row_ids(keyset), lookups)
    result = index.point_lookup_batch(lookups)
    np.testing.assert_array_equal(result.row_ids, agg)
    np.testing.assert_array_equal(result.match_counts, counts)


def test_resharding_requires_range_unreplicated(keyset):
    with pytest.raises(ValueError, match="range partitioner"):
        ShardedIndex(
            keyset.keys,
            config=ServeConfig(partitioner="hash", reshard=True),
        )
    with pytest.raises(ValueError, match="replicated"):
        ShardedIndex(
            keyset.keys,
            config=ServeConfig(reshard=True, replication_factor=3),
        )


# --------------------------------------------------------------------------
# Admission control and load shedding
# --------------------------------------------------------------------------


def test_admission_rate_limit_token_bucket():
    controller = AdmissionController(
        tenants=[TenantQoS(tenant=1, rate_limit_per_ms=1.0, burst=1.0)]
    )
    assert controller.admit(1, now_ms=0.0, queue_depth=0).admitted
    decision = controller.admit(1, now_ms=0.0, queue_depth=0)
    assert not decision.admitted and decision.reason == "rate_limit"
    # Tokens refill on the simulated clock.
    assert controller.admit(1, now_ms=2.0, queue_depth=0).admitted
    assert controller.shed_counts[(1, "rate_limit")] == 1
    # An unconfigured tenant is never rate limited.
    assert controller.admit(9, now_ms=0.0, queue_depth=0).admitted


def test_admission_saturation_sheds_by_priority():
    controller = AdmissionController(
        tenants=[
            TenantQoS(tenant=1, priority=0),
            TenantQoS(tenant=2, priority=2),
        ],
        max_queue_depth=10,
        hard_limit_factor=2.0,
    )
    # Below the threshold everyone is admitted.
    assert controller.admit(1, 0.0, queue_depth=9).admitted
    # At saturation only the top-priority tenant survives.
    saturated = controller.admit(1, 0.0, queue_depth=10)
    assert not saturated.admitted and saturated.reason == "saturated"
    assert controller.admit(2, 0.0, queue_depth=10).admitted
    # Unlabeled traffic has priority 0 and is shed too.
    assert not controller.admit(-1, 0.0, queue_depth=10).admitted
    # Past the hard limit even the top-priority tenant is shed.
    overload = controller.admit(2, 0.0, queue_depth=20)
    assert not overload.admitted and overload.reason == "overload"
    assert controller.total_shed == 3


def test_admission_validation():
    with pytest.raises(ValueError, match="duplicate"):
        AdmissionController(
            tenants=[TenantQoS(tenant=1), TenantQoS(tenant=1)]
        )
    with pytest.raises(ValueError):
        TenantQoS(tenant=1, rate_limit_per_ms=-1.0)
    with pytest.raises(ValueError):
        TenantQoS(tenant=1, cache_share=1.5)
    controller = AdmissionController(
        tenants=[
            TenantQoS(tenant=1, cache_share=0.25),
            TenantQoS(tenant=2),
        ]
    )
    assert controller.cache_partitions() == {1: 0.25}


# --------------------------------------------------------------------------
# Served streams: shedding, tenant telemetry, adaptive resharding, negatives
# --------------------------------------------------------------------------


def test_serve_sheds_flood_and_answers_rest_exactly(keyset):
    stream = multi_tenant_stream(
        keyset,
        [
            TenantSpec(tenant=1, requests_per_ms=6.0, zipf_coefficient=0.6),
            TenantSpec(tenant=2, requests_per_ms=0.5),
        ],
        duration_ms=60.0,
        seed=3,
    )
    config = ServeConfig(
        num_shards=4,
        cache_capacity=256,
        max_wait_ms=0.05,
        tenants=(
            TenantQoS(tenant=1, priority=0, rate_limit_per_ms=1.0, cache_share=0.25),
            TenantQoS(tenant=2, priority=2, cache_share=0.25),
        ),
        max_queue_depth=64,
    )
    index = ShardedIndex(keyset.keys, config=config)
    assert index.cache is not None and index.cache.tenant_ids == (1, 2)

    metrics = index.serve_stream(stream, record_answers=True)
    shed = index.last_outcomes == SHED
    assert shed.sum() > 0
    assert int(shed.sum()) == index.admission.total_shed

    # Shedding only ever hits the flooding tenant here (its rate limit).
    assert not shed[stream.tenant_ids == 2].any()

    # Served requests are byte-identical to the oracle; shed slots untouched.
    row_agg, counts = index.last_answers
    expected_agg, expected_counts = ground_truth_point(
        keyset.keys, _row_ids(keyset), stream.keys
    )
    served = index.last_outcomes == ANSWERED
    assert (served | shed).all()
    assert row_agg[served].tobytes() == expected_agg[served].tobytes()
    assert counts[served].tobytes() == expected_counts[served].tobytes()
    np.testing.assert_array_equal(row_agg[shed], -1)
    np.testing.assert_array_equal(counts[shed], 0)

    snap = metrics.snapshot()
    assert snap["requests_shed"] == index.admission.total_shed
    assert snap["tenant_1_shed_rate_limit"] > 0
    assert snap["tenant_2_requests"] == int((stream.tenant_ids == 2).sum())
    assert snap["tenant_2_p99_ms"] >= snap["tenant_2_p50_ms"] > 0


def test_serve_adaptive_reshard_keeps_answers_byte_identical(keyset):
    stream = shifting_hotspot_stream(
        keyset, count=4000, num_phases=3, requests_per_ms=400.0, seed=5
    )
    config = ServeConfig(
        num_shards=4,
        cache_capacity=0,
        max_batch_size=512,
        max_wait_ms=0.05,
        reshard=True,
        reshard_interval_ms=1.0,
        reshard_max_shards=16,
        reshard_min_split_entries=64,
    )
    index = ShardedIndex(keyset.keys, config=config)
    metrics = index.serve_stream(stream, record_answers=True)

    # The hotspot forced at least one split and the topology actually moved.
    assert index.router.num_shards > 4
    assert index.router.reshard_counts["split"] >= 1
    assert index.maintenance.snapshot()["splits_performed"] >= 1
    assert metrics.num_shards == index.router.num_shards

    # Zero-downtime contract: every answer matches the oracle exactly, and
    # nothing was shed (no admission control armed).
    assert (index.last_outcomes == ANSWERED).all()
    row_agg, counts = index.last_answers
    expected_agg, expected_counts = ground_truth_point(
        keyset.keys, _row_ids(keyset), stream.keys
    )
    assert row_agg.tobytes() == expected_agg.tobytes()
    assert counts.tobytes() == expected_counts.tobytes()


def test_serve_negative_keys_are_host_side_misses(keyset):
    stream = range_hammer_stream(
        keyset, count=1500, negative_fraction=0.2, seed=7
    )
    negative = stream.keys < 0
    assert negative.any()  # the generator must actually mix negatives in

    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=128)
    )
    metrics = index.serve_stream(stream, record_answers=True)
    row_agg, counts = index.last_answers
    np.testing.assert_array_equal(row_agg[negative], -1)
    np.testing.assert_array_equal(counts[negative], 0)

    expected_agg, expected_counts = ground_truth_point(
        keyset.keys, _row_ids(keyset), stream.keys[~negative].astype(np.uint64)
    )
    assert row_agg[~negative].tobytes() == expected_agg.tobytes()
    assert counts[~negative].tobytes() == expected_counts.tobytes()
    assert metrics.snapshot()["negative_key_misses"] == int(negative.sum())


# --------------------------------------------------------------------------
# Full-keyspace ranges and empty batches through the deployment
# --------------------------------------------------------------------------


def test_full_keyspace_range_touches_every_shard_and_row(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    top = np.uint64(2**64 - 1)
    shards = index.router.partitioner.shards_for_range(0, int(top))
    np.testing.assert_array_equal(shards, np.arange(4))
    result = index.range_lookup_batch(
        np.array([0], dtype=np.uint64), np.array([top], dtype=np.uint64)
    )
    np.testing.assert_array_equal(
        np.sort(result.row_ids[0]), np.sort(keyset.row_ids)
    )


def test_empty_batches_round_trip(keyset):
    index = ShardedIndex(
        keyset.keys, config=ServeConfig(num_shards=4, cache_capacity=0)
    )
    point = index.point_lookup_batch(np.empty(0, dtype=np.uint64))
    assert point.row_ids.shape == (0,)
    ranges = index.range_lookup_batch(
        np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    )
    assert len(ranges.row_ids) == 0


# --------------------------------------------------------------------------
# Adversarial stream generators
# --------------------------------------------------------------------------


def test_adversarial_generators_are_deterministic(keyset):
    for make in (
        lambda seed: shifting_hotspot_stream(keyset, 500, seed=seed),
        lambda seed: range_hammer_stream(keyset, 500, seed=seed),
        lambda seed: multi_tenant_stream(
            keyset,
            [TenantSpec(tenant=1, requests_per_ms=2.0)],
            duration_ms=40.0,
            seed=seed,
        ),
    ):
        one, two = make(13), make(13)
        np.testing.assert_array_equal(one.keys, two.keys)
        np.testing.assert_array_equal(one.arrival_ms, two.arrival_ms)
        assert not np.array_equal(make(13).keys, make(14).keys)


def test_shifting_hotspot_actually_migrates(keyset):
    stream = shifting_hotspot_stream(
        keyset, 3000, num_phases=3, hotspot_fraction=1.0, seed=2
    )
    sorted_keys = np.sort(keyset.keys)
    positions = np.searchsorted(sorted_keys, stream.keys)
    thirds = np.array_split(positions, 3)
    # The hotspot centre moves low -> high across the phases.
    assert thirds[0].mean() < thirds[1].mean() < thirds[2].mean()


def test_range_hammer_concentrates_and_mixes_negatives(keyset):
    stream = range_hammer_stream(
        keyset,
        2000,
        span_fraction=0.05,
        hammer_fraction=0.9,
        negative_fraction=0.1,
        seed=4,
    )
    assert stream.keys.dtype == np.int64
    negative = stream.keys < 0
    assert 0.05 < negative.mean() < 0.2
    sorted_keys = np.sort(keyset.keys)
    threshold = sorted_keys[int(0.95 * sorted_keys.shape[0])]
    hammered = stream.keys[~negative].astype(np.uint64) >= threshold
    assert hammered.mean() > 0.8


def test_multi_tenant_stream_labels_and_bursts(keyset):
    flood = TenantSpec(
        tenant=1,
        requests_per_ms=4.0,
        keyspace=(0.0, 0.25),
        burst_on_ms=5.0,
        burst_off_ms=5.0,
    )
    steady = TenantSpec(tenant=2, requests_per_ms=1.0)
    stream = multi_tenant_stream(keyset, [flood, steady], duration_ms=80.0, seed=9)
    assert stream.tenant_ids is not None
    assert set(np.unique(stream.tenant_ids)) == {1, 2}
    assert np.all(np.diff(stream.arrival_ms) >= 0)
    assert stream.arrival_ms.max() < 80.0
    # The bursting tenant only sends during the on-window of each cycle.
    flood_arrivals = stream.arrival_ms[stream.tenant_ids == 1]
    assert np.all((flood_arrivals % 10.0) < 5.0)
    # Tenant 1 only touches its keyspace slice.
    sorted_keys = np.sort(keyset.keys)
    boundary = sorted_keys[int(0.25 * sorted_keys.shape[0])]
    assert np.all(stream.keys[stream.tenant_ids == 1] <= boundary)
    with pytest.raises(ValueError, match="duplicate"):
        multi_tenant_stream(keyset, [flood, flood], duration_ms=10.0, seed=9)
