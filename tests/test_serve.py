"""Tests for the serving subsystem: partitioning, batching, caching, maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ground_truth_point, ground_truth_range
from repro.bench.experiments import serving_deployment
from repro.bench.harness import cgrxu_factory, sorted_array_factory
from repro.gpu.kernels import KernelStats
from repro.serve import (
    ANSWERED,
    BatchPolicy,
    BatchScheduler,
    FailureEvent,
    HashPartitioner,
    MaintenancePolicy,
    MaintenanceWorker,
    RangePartitioner,
    ReliabilityConfig,
    ResultCache,
    ServeConfig,
    ShardRouter,
    ShardedIndex,
    TenantQoS,
    make_partitioner,
    queueable,
    shard_skew,
)
from repro.serve.maintenance import QUEUEABLE_TASKS
from repro.workloads.keygen import generate_keys
from repro.workloads.lookups import uniform_lookups
from repro.workloads.requests import RequestStream, zipf_request_stream


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=31)


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------


def test_range_partitioner_is_balanced_and_total(keyset):
    partitioner = RangePartitioner(keyset.keys, num_shards=4)
    shard_of = partitioner.shard_of(keyset.keys)
    assert shard_of.min() == 0 and shard_of.max() == 3
    counts = np.bincount(shard_of, minlength=4)
    # Equi-depth boundaries: every shard within one of a quarter of the keys.
    assert counts.max() - counts.min() <= 2
    # Order-preserving: larger keys never land on smaller shards.
    order = np.argsort(keyset.keys)
    assert np.all(np.diff(shard_of[order]) >= 0)


def test_range_partitioner_narrow_range_scatter(keyset):
    partitioner = RangePartitioner(keyset.keys, num_shards=8)
    sorted_keys = np.sort(keyset.keys)
    low, high = int(sorted_keys[10]), int(sorted_keys[40])
    shards = partitioner.shards_for_range(low, high)
    # 31 consecutive keys cannot span more than a fraction of 8 equi-depth shards.
    assert 1 <= shards.shape[0] <= 2
    # Consistency: every key inside the range routes to a listed shard.
    inside = keyset.keys[(keyset.keys >= low) & (keyset.keys <= high)]
    assert np.isin(partitioner.shard_of(inside), shards).all()


def test_hash_partitioner_spreads_and_scatters_everywhere(keyset):
    partitioner = HashPartitioner(num_shards=5)
    shard_of = partitioner.shard_of(keyset.keys)
    counts = np.bincount(shard_of, minlength=5)
    assert counts.min() > 0
    assert shard_skew(counts) < 1.25
    np.testing.assert_array_equal(
        partitioner.shards_for_range(0, 10), np.arange(5)
    )


def test_make_partitioner_rejects_unknown(keyset):
    with pytest.raises(ValueError):
        make_partitioner("consistent-hashing", keyset.keys, 4)


# --------------------------------------------------------------------------
# Shard router
# --------------------------------------------------------------------------


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_router_scatter_gather_matches_ground_truth(keyset, partitioner):
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner=partitioner,
        key_bits=32,
    )
    assert int(router.shard_sizes().sum()) == len(keyset)
    lookups = uniform_lookups(keyset, 128, seed=3)
    result = router.point_lookup_batch(lookups)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    np.testing.assert_array_equal(result.row_ids, agg)
    np.testing.assert_array_equal(result.match_counts, counts)
    # The scatter actually fanned out: more than one shard answered.
    assert len(router.last_calls) > 1


def test_router_range_touches_only_overlapping_shards(keyset):
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=8,
        partitioner="range",
        key_bits=32,
    )
    sorted_keys = np.sort(keyset.keys)
    lows = sorted_keys[[5, 100]]
    highs = sorted_keys[[25, 140]]
    result = router.range_lookup_batch(lows, highs)
    for position in range(2):
        expected = ground_truth_range(
            keyset.keys, keyset.row_ids, lows[position], highs[position]
        )
        np.testing.assert_array_equal(
            np.sort(result.row_ids[position]), np.sort(expected)
        )
    # Narrow ranges on a range partitioner must not scatter to all 8 shards.
    assert len(router.last_calls) < 8


def test_router_update_rebuilds_non_updatable_shards(keyset):
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),  # SA cannot update in place
        num_shards=2,
        partitioner="range",
        key_bits=32,
    )
    builds_before = [shard.builds for shard in router.shards]
    new_key = np.asarray([1 << 30], dtype=np.uint32)
    update = router.update_batch(insert_keys=new_key, insert_row_ids=np.asarray([77], dtype=np.uint32))
    assert update.inserted == 1 and update.rebuilt
    # Only the shard owning the key was rebuilt.
    rebuilt = [
        shard.builds - before for shard, before in zip(router.shards, builds_before)
    ]
    assert sorted(rebuilt) == [0, 1]
    result = router.point_lookup_batch(new_key)
    np.testing.assert_array_equal(result.row_ids, [77])


def test_router_unsorted_insert_batch_keeps_authoritative_order(keyset):
    """Regression: same-gap inserts in arbitrary order must stay sorted."""
    router = ShardRouter(
        np.asarray([10, 20, 30, 40], dtype=np.uint32),
        np.asarray([0, 1, 2, 3], dtype=np.uint32),
        factory=sorted_array_factory(),
        num_shards=1,
        partitioner="range",
        key_bits=32,
    )
    router.update_batch(
        insert_keys=np.asarray([25, 22], dtype=np.uint32),
        insert_row_ids=np.asarray([7, 8], dtype=np.uint32),
    )
    assert np.all(np.diff(router.shards[0].keys.astype(np.int64)) >= 0)
    update = router.update_batch(delete_keys=np.asarray([22], dtype=np.uint32))
    assert update.deleted == 1
    result = router.point_lookup_batch(np.asarray([22, 25], dtype=np.uint32))
    np.testing.assert_array_equal(result.match_counts, [0, 1])
    np.testing.assert_array_equal(result.row_ids, [-1, 7])


# --------------------------------------------------------------------------
# Lazily re-exported shard arrays
# --------------------------------------------------------------------------


def cgrxu_router(keyset):
    return ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(128),
        num_shards=3,
        partitioner="range",
        key_bits=32,
    )


def read_arrays(router) -> None:
    """Read every shard's arrays, as the router used to after each write."""
    for shard in router.shards:
        shard.keys, shard.row_ids


def write_waves(lazy, eager, keyset, num_waves=2, seed=11):
    """Apply the same seeded writes to both routers (``eager`` may be
    ``None``); ``eager`` re-exports right after each write.  Inserts
    duplicate stored keys, so the arrays' tie-order of duplicates is
    exercised."""
    rng = np.random.default_rng(seed)
    for _ in range(num_waves):
        inserts = np.concatenate(
            [rng.choice(keyset.keys, 48), rng.integers(0, 1 << 32, 16, dtype=np.uint64)]
        ).astype(np.uint32)
        rows = rng.integers(0, 1 << 31, size=inserts.shape[0]).astype(np.uint32)
        deletes = rng.choice(keyset.keys, 24)
        for router in (lazy, eager):
            if router is not None:
                router.update_batch(
                    insert_keys=inserts, insert_row_ids=rows, delete_keys=deletes
                )
        if eager is not None:
            read_arrays(eager)


def assert_same_shards(lazy, eager, keyset) -> None:
    assert len(lazy.shards) == len(eager.shards)
    for mine, theirs in zip(lazy.shards, eager.shards):
        assert mine.version == theirs.version
        assert mine.num_entries == theirs.num_entries
        assert mine.keys.tobytes() == theirs.keys.tobytes()
        assert mine.row_ids.tobytes() == theirs.row_ids.tobytes()
        assert mine.num_entries == mine.keys.shape[0]
        if mine.index is not None:
            exported = mine.index.export_entries()
            assert exported[0].tobytes() == mine.keys.tobytes()
            assert exported[1].tobytes() == mine.row_ids.tobytes()
    probe = keyset.keys[::5]
    mine, theirs = lazy.point_lookup_batch(probe), eager.point_lookup_batch(probe)
    assert mine.row_ids.tobytes() == theirs.row_ids.tobytes()
    assert mine.match_counts.tobytes() == theirs.match_counts.tobytes()


def test_routed_cgrxu_write_exports_nothing_until_read(keyset, monkeypatch):
    from repro.core.updatable import CgRXuIndex

    exports = []
    export = CgRXuIndex.export_entries

    def counting_export(index):
        exports.append(index)
        return export(index)

    router = cgrxu_router(keyset)
    monkeypatch.setattr(CgRXuIndex, "export_entries", counting_export)
    write_waves(router, None, keyset, num_waves=3)
    assert exports == []
    for shard in router.shards:
        assert shard.num_entries == len(shard.index)
    assert exports == []
    for shard in router.shards:
        monkeypatch.setattr(CgRXuIndex, "export_entries", export)
        keys, row_ids = shard.index.export_entries()
        monkeypatch.setattr(CgRXuIndex, "export_entries", counting_export)
        assert shard.keys.tobytes() == keys.tobytes()
        assert shard.row_ids.tobytes() == row_ids.tobytes()
    # One re-export per written shard, however often the arrays are read.
    assert len(exports) == len(router.shards)
    read_arrays(router)
    assert len(exports) == len(router.shards)


#: Shard lifecycle steps run on both routers between write waves (``None``).
LIFECYCLES = {
    "stop_the_world": [lambda r: r.rebuild_shard(1, mode="stop_the_world")],
    "double_buffered": [lambda r: r.rebuild_shard(1)],
    "split_merge": [lambda r: r.split_shard(1), None, lambda r: r.merge_shards(0)],
}


@pytest.mark.parametrize("lifecycle", sorted(LIFECYCLES))
def test_lazy_shard_arrays_match_eager_export(keyset, lifecycle):
    lazy, eager = cgrxu_router(keyset), cgrxu_router(keyset)
    write_waves(lazy, eager, keyset, seed=21)
    for seed, step in enumerate(LIFECYCLES[lifecycle], start=22):
        if step is None:
            write_waves(lazy, eager, keyset, seed=seed)
            continue
        for router in (lazy, eager):
            step(router)
    write_waves(lazy, eager, keyset, seed=40)
    assert_same_shards(lazy, eager, keyset)


# --------------------------------------------------------------------------
# Range-lookup boundary contracts (vs a single-instance index)
# --------------------------------------------------------------------------


def single_instance(keyset):
    from repro.baselines.sorted_array import SortedArrayIndex

    return SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)


def assert_ranges_match_single_instance(router, keyset, lows, highs):
    reference = single_instance(keyset)
    lows = np.asarray(lows, dtype=np.uint32)
    highs = np.asarray(highs, dtype=np.uint32)
    routed = router.range_lookup_batch(lows, highs)
    expected = reference.range_lookup_batch(lows, highs)
    assert routed.num_lookups == expected.num_lookups == lows.shape[0]
    for position in range(lows.shape[0]):
        np.testing.assert_array_equal(
            np.sort(routed.row_ids[position]),
            np.sort(expected.row_ids[position]),
            err_msg=f"range {position} [{lows[position]}, {highs[position]}] diverged",
        )


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_range_lookup_spanning_partition_boundaries(keyset, partitioner):
    """Ranges that straddle shard boundaries must gather the full answer."""
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner=partitioner,
        key_bits=32,
    )
    if partitioner == "range":
        boundaries = router.partitioner.boundaries.astype(np.uint64)
    else:  # hash has no key boundaries; use the range partitioner's anyway
        boundaries = RangePartitioner(keyset.keys, 4).boundaries.astype(np.uint64)
    lows, highs = [], []
    for boundary in boundaries:
        # Straddling, exactly-at, ending-at and starting-at the boundary.
        lows += [boundary - 100, boundary, boundary - 100, boundary]
        highs += [boundary + 100, boundary, boundary, boundary + 100]
    assert_ranges_match_single_instance(router, keyset, lows, highs)


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_range_lookup_empty_ranges(keyset, partitioner):
    """Inverted bounds and key-free gaps return empty results, not errors."""
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner=partitioner,
        key_bits=32,
    )
    sorted_keys = np.sort(keyset.keys)
    gaps = np.where(np.diff(sorted_keys.astype(np.int64)) > 2)[0]
    assert gaps.size, "fixture key set should contain gaps"
    gap_low = int(sorted_keys[gaps[0]]) + 1
    gap_high = int(sorted_keys[gaps[0] + 1]) - 1
    lows = [int(sorted_keys[100]), gap_low, 5]
    highs = [int(sorted_keys[10]), gap_high, 5]  # first one is inverted
    assert_ranges_match_single_instance(router, keyset, lows, highs)
    result = router.range_lookup_batch(
        np.asarray(lows, dtype=np.uint32), np.asarray(highs, dtype=np.uint32)
    )
    assert result.row_ids[0].shape[0] == 0
    assert result.row_ids[1].shape[0] == 0


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_range_lookup_full_keyspace(keyset, partitioner):
    """[0, uint32 max] retrieves every entry exactly once."""
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=8,
        partitioner=partitioner,
        key_bits=32,
    )
    full_low, full_high = 0, int(np.iinfo(np.uint32).max)
    assert_ranges_match_single_instance(router, keyset, [full_low], [full_high])
    result = router.range_lookup_batch(
        np.asarray([full_low], dtype=np.uint32), np.asarray([full_high], dtype=np.uint32)
    )
    assert result.row_ids[0].shape[0] == len(keyset)
    np.testing.assert_array_equal(np.sort(result.row_ids[0]), np.sort(keyset.row_ids))
    # Every shard participated in the full-keyspace scatter.
    assert len(router.last_calls) == router.num_shards


def test_range_lookup_batch_mixes_boundary_cases(keyset):
    """One batch mixing all boundary flavours stays in request order."""
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner="range",
        key_bits=32,
    )
    boundary = int(router.partitioner.boundaries[1])
    lows = [0, boundary, 500, int(np.iinfo(np.uint32).max)]
    highs = [int(np.iinfo(np.uint32).max), boundary - 1, 100, int(np.iinfo(np.uint32).max)]
    assert_ranges_match_single_instance(router, keyset, lows, highs)


# --------------------------------------------------------------------------
# Batch scheduler
# --------------------------------------------------------------------------


def test_scheduler_dispatches_full_batches_immediately():
    scheduler = BatchScheduler(BatchPolicy(max_batch_size=4, max_wait_ms=10.0))
    batches = []
    for request_id in range(9):
        batches += scheduler.offer(0, request_id, key=request_id, arrival_ms=0.1 * request_id)
    assert [batch.size for batch in batches] == [4, 4]
    assert all(batch.reason == "full" for batch in batches)
    assert scheduler.pending(0) == 1
    drained = scheduler.drain(now_ms=5.0)
    assert len(drained) == 1 and drained[0].size == 1 and drained[0].reason == "drain"


def test_scheduler_timeout_is_stamped_at_the_deadline():
    scheduler = BatchScheduler(BatchPolicy(max_batch_size=100, max_wait_ms=1.0))
    scheduler.offer(0, 0, key=7, arrival_ms=0.0)
    # Nothing due yet at 0.5 ms.
    assert scheduler.offer(0, 1, key=8, arrival_ms=0.5) == []
    # The next arrival is far beyond the deadline: the batch is dispatched
    # and stamped at deadline 1.0, not at the arrival that surfaced it.
    due = scheduler.offer(1, 2, key=9, arrival_ms=50.0)
    assert len(due) == 1
    batch = due[0]
    assert batch.reason == "timeout"
    assert batch.dispatch_ms == pytest.approx(1.0)
    np.testing.assert_allclose(batch.queue_delays_ms(), [1.0, 0.5])


def test_scheduler_keeps_shards_separate():
    scheduler = BatchScheduler(BatchPolicy(max_batch_size=2, max_wait_ms=10.0))
    assert scheduler.offer(0, 0, key=1, arrival_ms=0.0) == []
    assert scheduler.offer(1, 1, key=2, arrival_ms=0.1) == []
    batches = scheduler.offer(0, 2, key=3, arrival_ms=0.2)
    assert len(batches) == 1 and batches[0].shard_id == 0 and batches[0].size == 2
    assert scheduler.pending(1) == 1


def test_scheduler_poll_surfaces_due_batches_without_enqueuing():
    scheduler = BatchScheduler(BatchPolicy(max_batch_size=100, max_wait_ms=1.0))
    scheduler.offer(0, 0, key=7, arrival_ms=0.0)
    assert scheduler.poll(0.5) == []  # not due yet
    due = scheduler.poll(2.0)  # past the 1.0ms deadline, no new request needed
    assert len(due) == 1 and due[0].reason == "timeout"
    assert due[0].dispatch_ms == pytest.approx(1.0)
    assert scheduler.pending(0) == 0


def test_scheduler_rejects_time_travel():
    scheduler = BatchScheduler(BatchPolicy())
    scheduler.offer(0, 0, key=1, arrival_ms=5.0)
    with pytest.raises(ValueError):
        scheduler.offer(0, 1, key=2, arrival_ms=4.0)


class _ScanningScheduler(BatchScheduler):
    """Reference: every poll sorts and scans all shard queues for due batches."""

    def _flush_expired(self, now_ms):
        batches = []
        for shard_id in sorted(self._queues):
            queue = self._queues[shard_id]
            deadline = queue.deadline_ms + self.policy.max_wait_ms
            if len(queue) and deadline <= now_ms:
                batches.append(self._dispatch(shard_id, queue, deadline, "timeout"))
        return batches


def _batch_record(batch):
    tenants = None if batch.tenant_ids is None else batch.tenant_ids.tolist()
    return (
        batch.shard_id, batch.keys.tolist(), batch.request_ids.tolist(),
        batch.arrival_ms.tolist(), batch.dispatch_ms, batch.reason, tenants,
    )


@pytest.mark.parametrize(
    "max_batch_size, max_wait_ms, num_shards, reasons",
    [
        (1, 0.0, 3, {"full"}),
        (4, 0.0, 4, {"timeout", "drain"}),
        (1, 0.5, 2, {"full"}),
        (3, 0.25, 4, {"full", "timeout", "drain"}),
        (8, 1.0, 37, {"full", "timeout", "drain"}),
        (64, 0.3, 5, {"timeout", "drain"}),
    ],
)
def test_scheduler_matches_scanning_reference(max_batch_size, max_wait_ms, num_shards, reasons):
    policy = BatchPolicy(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
    rng = np.random.default_rng(max_batch_size * 100 + num_shards)
    scheduler, reference = BatchScheduler(policy), _ScanningScheduler(policy)
    batches, expected = [], []
    now, arrivals = 0.0, [0.0]
    for request_id in range(1500):
        step = rng.choice(["same", "small", "large"], p=[0.4, 0.55, 0.05])
        if step == "small":
            now += float(rng.exponential(0.05))
        elif step == "large":
            now += float(rng.exponential(2.0))
        event = rng.choice(["offer", "poll", "poll_at_deadline", "drain"], p=[0.7, 0.2, 0.08, 0.02])
        if event == "offer":
            # Half the traffic goes to shard 0, so its queue also fills up.
            shard = 0 if rng.random() < 0.5 else int(rng.integers(0, num_shards))
            key = int(rng.integers(0, 1 << 40))
            tenant = int(rng.choice([-1, -1, 1, 2]))
            arrivals.append(now)
            for side, out in ((scheduler, batches), (reference, expected)):
                out += side.offer(shard, request_id, key, now, tenant_id=tenant)
            continue
        if event == "poll_at_deadline":
            # Exactly on an earlier request's deadline: due at equality.
            now = max(now, arrivals[int(rng.integers(0, len(arrivals)))] + max_wait_ms)
        method = "drain" if event == "drain" else "poll"
        batches += getattr(scheduler, method)(now)
        expected += getattr(reference, method)(now)
    batches += scheduler.drain(now + max_wait_ms)
    expected += reference.drain(now + max_wait_ms)
    assert [_batch_record(batch) for batch in batches] == [
        _batch_record(batch) for batch in expected
    ]
    assert {batch.reason for batch in expected} == reasons
    assert scheduler.total_pending == 0


class _CountingQueues(dict):
    """Shard-queue dict that counts every read of it."""

    visits = 0

    def __iter__(self):
        self.visits += 1
        return super().__iter__()

    def __getitem__(self, shard_id):
        self.visits += 1
        return super().__getitem__(shard_id)

    def values(self):
        self.visits += 1
        return super().values()


def test_scheduler_idle_poll_visits_no_queue():
    scheduler = BatchScheduler(BatchPolicy(max_batch_size=100, max_wait_ms=1.0))
    for shard in range(8):
        scheduler.offer(shard, shard, key=shard, arrival_ms=0.1 * shard)
    scheduler._queues = queues = _CountingQueues(scheduler._queues)
    assert scheduler.poll(0.9) == []  # shard 0 is due at 1.0
    assert queues.visits == 0
    due = scheduler.poll(1.0)
    assert [batch.shard_id for batch in due] == [0] and queues.visits > 0
    # The dispatch moved the earliest deadline on to shard 1's (1.1).
    queues.visits = 0
    assert scheduler.poll(1.05) == [] and queues.visits == 0


# --------------------------------------------------------------------------
# Result cache
# --------------------------------------------------------------------------


def test_cache_hit_negative_hit_and_miss_accounting():
    cache = ResultCache(capacity=4)
    assert cache.get(1) is None  # miss
    cache.put(1, row_agg=42, match_count=1)
    cache.put(2, row_agg=-1, match_count=0)  # negative entry
    assert cache.get(1).row_agg == 42  # hit
    assert cache.get(2).match_count == 0  # negative hit
    stats = cache.stats
    assert (stats.hits, stats.negative_hits, stats.misses) == (1, 1, 1)
    assert stats.hit_rate == pytest.approx(2 / 3)


def test_cache_lru_eviction_order():
    cache = ResultCache(capacity=2)
    cache.put(1, 10, 1)
    cache.put(2, 20, 1)
    cache.get(1)  # refresh key 1: key 2 becomes LRU
    cache.put(3, 30, 1)
    assert 1 in cache and 3 in cache and 2 not in cache
    assert cache.stats.evictions == 1


def test_cache_invalidation_paths():
    cache = ResultCache(capacity=8)
    cache.put(1, 10, 1)
    cache.put(2, -1, 0)
    cache.put(3, -1, 0)
    assert cache.invalidate_keys(np.asarray([1, 99])) == 1
    assert cache.invalidate_negative() == 2
    assert len(cache) == 0
    assert cache.stats.invalidations == 3


def _walked_negatives(cache: ResultCache) -> dict:
    """Reference: resident negative entries per partition, counted by a walk."""
    return {
        tenant: sum(1 for entry in part.entries.values() if entry.match_count == 0)
        for tenant, part in cache._parts.items()
    }


@pytest.mark.parametrize("partitions", [None, {1: 0.25, 2: 0.25}], ids=["shared", "tenants"])
def test_cache_negative_count_matches_walk_after_every_op(partitions):
    rng = np.random.default_rng(5)
    cache = ResultCache(capacity=16, partitions=partitions)
    tenants = [None, 1, 2, 3] if partitions else [None]
    seen = set()

    for _ in range(4000):
        op = rng.choice(
            ["put", "fill", "get", "invalidate_keys", "invalidate_negative", "clear"],
            p=[0.5, 0.12, 0.15, 0.17, 0.04, 0.02],
        )
        before = _walked_negatives(cache)
        if op == "put":
            key, count = int(rng.integers(0, 48)), int(rng.choice([0, 0, 1, 2]))
            tenant = tenants[int(rng.integers(0, len(tenants)))]
            part = cache._partition(tenant)
            previous = part.entries.get(key)
            if previous is None:
                seen.add("new_negative" if count == 0 else "new_positive")
                oldest = next(iter(part.entries.values()), None)
                if len(part.entries) == part.capacity and oldest.match_count == 0:
                    seen.add("evict_negative")
            elif (previous.match_count == 0) != (count == 0):
                seen.add("overwrite_to_negative" if count == 0 else "overwrite_to_positive")
            cache.put(key, -1 if count == 0 else key * 7, count, tenant=tenant)
        elif op == "fill":
            size = int(rng.integers(1, 6))
            keys = rng.integers(0, 48, size=size)
            batch_tenants = rng.choice([-1, 1, 2], size=size) if partitions else None
            cache.fill_batch(keys, keys * 7, rng.choice([0, 1], size=size), tenants=batch_tenants)
        elif op == "get":
            cache.get(int(rng.integers(0, 48)), tenant=tenants[int(rng.integers(0, len(tenants)))])
        elif op == "invalidate_keys":
            cache.invalidate_keys(rng.integers(0, 48, size=int(rng.integers(1, 8))))
            after = _walked_negatives(cache)
            if any(after[tenant] < before[tenant] for tenant in before if tenant is not None):
                seen.add("invalidate_keys_tenant_negative")
            if after[None] < before[None]:
                seen.add("invalidate_keys_negative")
        elif op == "invalidate_negative":
            cache.invalidate_negative()
            if sum(before.values()):
                seen.add("invalidate_negative")
        else:
            cache.clear()
            if sum(before.values()):
                seen.add("clear_negative")
        walked = sum(_walked_negatives(cache).values())
        assert cache.negative_count == walked, op
        assert cache.negative_fraction == (walked / len(cache) if len(cache) else 0.0)
    # The random sequence exercised every transition the counter must follow.
    expected = {
        "new_positive", "new_negative", "overwrite_to_negative", "overwrite_to_positive",
        "evict_negative", "invalidate_keys_negative", "invalidate_negative", "clear_negative",
    }
    if partitions:
        expected.add("invalidate_keys_tenant_negative")
    assert seen == expected


def test_sharded_index_cache_accounting(keyset):
    config = ServeConfig(
        num_shards=2, partitioner="range", key_bits=32, cache_capacity=512
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    batch = keyset.keys[:128]
    index.point_lookup_batch(batch)
    before = index.cache.stats.hits
    index.point_lookup_batch(batch)
    # Every key of the repeated batch is answered from cache.
    assert index.cache.stats.hits == before + 128
    # A repeated miss is answered by the negative cache.
    missing = np.asarray([(1 << 31) + 5], dtype=np.uint32)
    index.point_lookup_batch(missing)
    index.point_lookup_batch(missing)
    assert index.cache.stats.negative_hits >= 1
    # An insert invalidates the negative entry and the key becomes visible.
    index.update_batch(insert_keys=missing, insert_row_ids=np.asarray([9], dtype=np.uint32))
    result = index.point_lookup_batch(missing)
    np.testing.assert_array_equal(result.row_ids, [9])


# --------------------------------------------------------------------------
# Maintenance worker
# --------------------------------------------------------------------------


def degraded_cgrxu_router(keyset, num_shards=2, inserts=4096, seed=1):
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(128),
        num_shards=num_shards,
        partitioner="range",
        key_bits=32,
    )
    rng = np.random.default_rng(seed)
    insert_keys = rng.integers(0, (1 << 32) - 1, size=inserts, dtype=np.uint64).astype(np.uint32)
    router.update_batch(insert_keys=insert_keys)
    return router


@pytest.mark.parametrize("factory_name", ["cgrxu", "sorted_array"])
def test_opposing_insert_delete_is_cancelled_consistently(keyset, factory_name):
    """Regression: a key in both batch halves must net out identically on the
    live shard index and the authoritative arrays, so a background rebuild
    can never change query answers."""
    factory = cgrxu_factory(128) if factory_name == "cgrxu" else sorted_array_factory()
    config = ServeConfig(num_shards=2, partitioner="range", key_bits=32, cache_capacity=0)
    index = ShardedIndex(keyset.keys, keyset.row_ids, factory=factory, config=config)
    absent = np.asarray([(1 << 30) + 3], dtype=np.uint32)
    update = index.update_batch(
        insert_keys=absent,
        insert_row_ids=np.asarray([999], dtype=np.uint32),
        delete_keys=absent,
    )
    assert (update.inserted, update.deleted) == (0, 0)
    before = index.point_lookup_batch(absent)
    assert before.match_counts[0] == 0
    # Force the rebuild path from the authoritative arrays and re-ask.
    shard_id = int(index.router.partitioner.shard_of(absent)[0])
    index.router.rebuild_shard(shard_id)
    after = index.point_lookup_batch(absent)
    assert after.match_counts[0] == 0


def test_duplicate_heavy_delete_stays_consistent_across_rebuild():
    """Regression: cgRXu deletes must follow duplicate groups across buckets,
    or a maintenance rebuild changes the served answer."""
    keys = np.concatenate(
        [np.arange(64, dtype=np.uint32), np.full(44, 10, dtype=np.uint32)]
    )
    rows = np.arange(keys.shape[0], dtype=np.uint32)
    config = ServeConfig(num_shards=1, partitioner="range", key_bits=32, cache_capacity=0)
    index = ShardedIndex(keys, rows, factory=cgrxu_factory(128), config=config)
    update = index.update_batch(delete_keys=np.full(5, 10, dtype=np.uint32))
    assert update.deleted == 5
    before = index.point_lookup_batch(np.asarray([10], dtype=np.uint32))
    index.router.rebuild_shard(0)
    after = index.point_lookup_batch(np.asarray([10], dtype=np.uint32))
    assert int(before.match_counts[0]) == int(after.match_counts[0]) == 45 - 5
    assert int(before.row_ids[0]) == int(after.row_ids[0])


def test_duplicate_tie_order_survives_rebuild():
    """Regression: deleting one of several duplicates must remove the same
    occurrence on the live shard and in the rebuilt shard (row aggregates of
    the survivors must match)."""
    keys = np.arange(1, 65, dtype=np.uint32)  # includes key 5 with rowid 1005
    rows = (keys + 1000).astype(np.uint32)
    config = ServeConfig(num_shards=1, partitioner="range", key_bits=32, cache_capacity=0)
    index = ShardedIndex(keys, rows, factory=cgrxu_factory(128), config=config)
    index.update_batch(
        insert_keys=np.asarray([5], dtype=np.uint32),
        insert_row_ids=np.asarray([9999], dtype=np.uint32),
    )
    index.update_batch(delete_keys=np.asarray([5], dtype=np.uint32))
    before = index.point_lookup_batch(np.asarray([5], dtype=np.uint32))
    index.router.rebuild_shard(0)
    after = index.point_lookup_batch(np.asarray([5], dtype=np.uint32))
    assert int(before.match_counts[0]) == int(after.match_counts[0]) == 1
    assert int(before.row_ids[0]) == int(after.row_ids[0])


def test_degradation_score_matches_chain_walk(keyset):
    router = degraded_cgrxu_router(keyset, num_shards=1)
    shard_index = router.shards[0].index
    walked = max(0.0, shard_index.chain_statistics()["mean_chain_nodes"] - 1.0)
    assert shard_index.degradation_score() == pytest.approx(walked)
    assert shard_index.degradation_score() > 0.0


def test_maintenance_rebuilds_degraded_shards(keyset):
    router = degraded_cgrxu_router(keyset)
    worker = MaintenanceWorker(router, policy=MaintenancePolicy(rebuild_threshold=0.25))
    scores = [worker.degradation_of(s) for s in range(router.num_shards)]
    assert max(scores) >= 0.25  # the insert wave grew the chains

    enqueued = worker.scan(now_ms=1.0)
    assert enqueued, "degraded shards must enqueue rebuild tasks"
    # Duplicate scans do not double-enqueue pending work.
    assert worker.scan(now_ms=2.0) == []

    executed = worker.run_pending(now_ms=3.0)
    assert worker.rebuilds_performed == len(enqueued)
    assert worker.maintenance_time_ms > 0.0
    assert all(task.status == "done" for task in executed)
    assert max(worker.degradation_of(s) for s in range(router.num_shards)) < 0.25
    # Rebuilt shards still answer correctly.
    lookups = uniform_lookups(keyset, 64, seed=9)
    result = router.point_lookup_batch(lookups)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    # Inserted random keys may collide with looked-up keys only above the
    # generated range; counts of original keys can only grow.
    assert (result.match_counts >= counts).all()


def test_maintenance_task_is_idempotent(keyset):
    router = degraded_cgrxu_router(keyset)
    worker = MaintenanceWorker(router, policy=MaintenancePolicy(rebuild_threshold=0.25))
    worker.scan(now_ms=0.0)
    first = worker.run_pending(now_ms=1.0)
    assert any(task.status == "done" for task in first)
    # Re-enqueue the same tasks on healthy shards: they complete as no-ops.
    for task in first:
        worker.queue.enqueue(task.name, task.shard_id, now_ms=2.0)
    second = worker.run_pending(now_ms=3.0)
    assert second and all(task.status == "skipped" for task in second)
    assert worker.rebuilds_performed == len([t for t in first if t.status == "done"])


def test_maintenance_captures_errors_instead_of_raising(keyset):
    router = degraded_cgrxu_router(keyset)
    worker = MaintenanceWorker(router, policy=MaintenancePolicy(rebuild_threshold=0.25, max_attempts=1))

    @queueable
    def explode(worker, task):
        raise RuntimeError("device fell off the bus")

    try:
        task = worker.queue.enqueue("explode", 0, now_ms=0.0)
        assert task is not None
        worker.run_pending(now_ms=1.0)  # must not raise
        assert task.status == "failed"
        assert "device fell off the bus" in task.error
    finally:
        QUEUEABLE_TASKS.pop("explode", None)


def test_maintenance_queue_holds_only_pending_tasks(keyset):
    router = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=2,
        key_bits=32,
    )
    worker = MaintenanceWorker(router, policy=MaintenancePolicy(max_attempts=2))

    @queueable
    def host_noop(worker, task):
        return KernelStats(name="serve.host_noop", launches=0)

    @queueable
    def explode(worker, task):
        raise RuntimeError("device fell off the bus")

    statuses = {"done": 0, "skipped": 0}
    try:
        for cycle in range(50):
            worker.queue.enqueue("host_noop", -1, now_ms=cycle)  # done
            worker.queue.enqueue("trim_negative_cache", -1, now_ms=cycle)  # no cache
            # Pending while it retries, so every other enqueue is suppressed.
            worker.queue.enqueue("explode", -1, now_ms=cycle)
            for task in worker.run_pending(now_ms=cycle):
                statuses[task.status] += 1
            assert all(task.status == "pending" for task in worker.queue.tasks)
            assert len(worker.queue.tasks) == (1 if cycle % 2 == 0 else 0)
    finally:
        QUEUEABLE_TASKS.pop("host_noop", None)
        QUEUEABLE_TASKS.pop("explode", None)
    snapshot = worker.snapshot()
    assert statuses == {"done": 50, "skipped": 50}
    assert snapshot["tasks_enqueued"] == 50 + 50 + 25
    assert snapshot["tasks_done"] == 50
    assert snapshot["tasks_skipped"] == 50
    assert snapshot["tasks_failed"] == 25


def test_sharded_index_update_triggers_background_rebuild(keyset):
    config = ServeConfig(
        num_shards=2,
        partitioner="range",
        key_bits=32,
        cache_capacity=64,
        rebuild_threshold=0.25,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, factory=cgrxu_factory(128), config=config)
    rng = np.random.default_rng(4)
    inserts = rng.integers(0, (1 << 32) - 1, size=4096, dtype=np.uint64).astype(np.uint32)
    update = index.update_batch(insert_keys=inserts)
    assert update.inserted == 4096
    report = index.maintenance.snapshot()
    assert report["rebuilds_performed"] >= 1
    assert report["maintenance_time_ms"] > 0.0
    assert index.degradation_score() < 0.25


def test_maintenance_trims_negative_heavy_cache():
    cache = ResultCache(capacity=8)
    cache.put(1, 10, 1)
    for key in range(100, 105):
        cache.put(key, -1, 0)  # five negatives against one positive

    class _StubRouter:
        shards = []

    worker = MaintenanceWorker(_StubRouter(), cache=cache)
    enqueued = worker.scan(now_ms=0.0)
    assert [task.name for task in enqueued] == ["trim_negative_cache"]
    executed = worker.run_pending(now_ms=1.0)
    assert executed[0].status == "done"
    assert cache.negative_count == 0 and 1 in cache
    # Healthy cache: nothing to enqueue any more.
    assert worker.scan(now_ms=2.0) == []


def test_metrics_skew_counts_cold_shards():
    from repro.serve import MetricsRegistry

    registry = MetricsRegistry(num_shards=4)
    registry.record_shard_batch(0, batch_size=30, busy_ms=3.0)
    registry.record_shard_batch(1, batch_size=10, busy_ms=1.0)
    # Shards 2 and 3 got nothing: max/mean over all four shards, not two.
    assert registry.request_skew() == pytest.approx(30 / 10)
    assert registry.busy_skew() == pytest.approx(3.0 / 1.0)


# --------------------------------------------------------------------------
# Serving streams and the bench experiment
# --------------------------------------------------------------------------


def test_serve_stream_records_telemetry(keyset):
    config = ServeConfig(
        num_shards=4,
        partitioner="range",
        key_bits=32,
        cache_capacity=256,
        max_batch_size=64,
        max_wait_ms=0.5,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(
        keyset, 1024, zipf_coefficient=1.2, requests_per_ms=64.0, miss_fraction=0.1, seed=13
    )
    metrics = index.serve_stream(stream)
    assert metrics is index.metrics  # instance telemetry is the default sink
    snapshot = metrics.snapshot()
    assert snapshot["requests"] == 1024
    assert snapshot["batches"] > 0
    assert snapshot["throughput_per_s"] > 0.0
    assert 0.0 <= snapshot["latency_p50_ms"] <= snapshot["latency_p99_ms"]
    # The latency bound holds: no request waits longer than max_wait plus the
    # device time of its batch.
    assert snapshot["latency_p99_ms"] <= config.max_wait_ms + 5.0
    assert snapshot["request_skew"] >= 1.0
    # Every request is attributed to its client.
    assert sum(metrics.client_requests.values()) == 1024
    assert snapshot["unique_clients"] > 1 and snapshot["client_skew"] >= 1.0
    # Skewed traffic makes the cache earn hits.
    assert index.cache.stats.hits > 0


def test_serve_stream_without_cache_serves_everything_on_device(keyset):
    config = ServeConfig(
        num_shards=2, partitioner="hash", key_bits=32, cache_capacity=0,
        max_batch_size=128, max_wait_ms=0.25,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(keyset, 512, zipf_coefficient=1.0, seed=21)
    metrics = index.serve_stream(stream)
    snapshot = metrics.snapshot()
    assert snapshot["requests"] == 512
    assert sum(metrics.shard_requests.values()) == 512
    assert "cache_hits" not in snapshot


def test_every_stream_resets_the_per_request_record(keyset):
    index = ShardedIndex(
        keyset.keys, keyset.row_ids, config=ServeConfig(num_shards=2, key_bits=32)
    )
    first = zipf_request_stream(keyset, 100, seed=22)
    index.serve_stream(first, record_answers=True)
    rows, counts = index.last_answers
    assert rows.shape == counts.shape == index.last_outcomes.shape == (100,)
    assert (index.last_outcomes == ANSWERED).all()

    second = zipf_request_stream(keyset, 40, seed=23)
    second.arrival_ms += float(index.clock.now_ms) + 1.0
    index.serve_stream(second)
    assert index.last_answers is None and index.last_outcomes is None

    index.serve_stream(first, record_answers=True)
    assert index.last_outcomes.shape == (100,)


def test_serving_experiment_produces_rows():
    result = serving_deployment(
        num_keys=1 << 10,
        num_requests=1 << 8,
        shard_counts=(1, 2),
        partitioners=("range",),
        zipf_coefficients=(1.0,),
        cache_capacity=128,
        max_batch_size=64,
        num_update_waves=2,
    )
    assert result.name == "serving"
    panels = {row["panel"] for row in result.rows}
    assert panels == {"a_sharding", "b_skew_cache", "c_maintenance"}
    sharding_rows = [row for row in result.rows if row["panel"] == "a_sharding"]
    assert len(sharding_rows) == 2
    assert all(row["throughput_per_s"] > 0 for row in sharding_rows)
    maintenance_rows = [row for row in result.rows if row["panel"] == "c_maintenance"]
    assert maintenance_rows[-1]["rebuilds_performed"] >= 1
    assert result.to_table()  # the harness can render it


# --------------------------------------------------------------------------
# Served metrics: identical series and counts through pre-bound handles
# --------------------------------------------------------------------------


def _identity_stream(keyset) -> RequestStream:
    """One fixed stream: two tenants, hot keys, absent keys (negative cache
    entries) and two negative keys."""
    rng = np.random.default_rng(2024)
    count = 320
    arrivals = np.cumsum(rng.exponential(scale=0.125, size=count))
    hot = keyset.keys[rng.integers(0, 24, size=count)].astype(np.int64)
    absent = int(np.iinfo(np.uint32).max) - rng.integers(0, 4, size=count)
    keys = np.where(rng.random(count) < 0.1, absent, hot)
    keys[[40, 200]] = -3
    tenants = np.where(rng.random(count) < 0.75, 1, 2).astype(np.int64)
    clients = tenants * 1000 + rng.integers(0, 3, size=count)
    return RequestStream(
        arrival_ms=arrivals, keys=keys, client_ids=clients, tenant_ids=tenants
    )


def _identity_deployment(name: str, keyset) -> ShardedIndex:
    base = dict(num_shards=4, key_bits=32, cache_capacity=64, max_wait_ms=0.25)
    if name == "tenants_shedding":
        config = ServeConfig(
            **base,
            tenants=(
                TenantQoS(tenant=1, priority=0, rate_limit_per_ms=2.0, cache_share=0.25),
                TenantQoS(tenant=2, priority=2, cache_share=0.25),
            ),
            max_queue_depth=4,
        )
    elif name == "replicated_crash":
        config = ServeConfig(**base, replication_factor=2, reliability=ReliabilityConfig())
    else:
        config = ServeConfig(**base)
    deployment = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    if name == "replicated_crash":
        # Replica 0:0 is down for the whole stream, so it never gets a series.
        deployment.inject_failures(
            [FailureEvent(at_ms=0.5, kind="crash", shard_id=0, replica_id=0, duration_ms=20.0)]
        )
    return deployment


_CACHE_STATS = (
    "bulk_clears entries evictions hit_rate hits insertions invalidations misses"
    " negative_entries negative_hits"
)

#: Series present in every deployment below (label values per instrument).
_COMMON_SERIES = {
    "serve_batch_size": "",
    "serve_cache": _CACHE_STATS,
    "serve_client_requests_total": "1000 1001 1002 2000 2001 2002",
    "serve_failover_latency_ms": "",
    "serve_partition_keys_routed_total": "range",
    "serve_recovery_ms": "",
    "serve_request_latency_ms": "",
    "serve_shard_busy_ms_total": "0 1 2 3",
    "serve_shard_requests_total": "0 1 2 3",
    "serve_tenant_latency_ms": "1 2",
    "serve_tenant_requests_total": "1 2",
}

#: Pinned from the recording path that resolved every labeled instrument on
#: each call.
_SERVED_METRICS_PINNED = {
    "default": {
        "snapshot": {
            "requests": 320, "batches": 23, "span_ms": 36.77707186611627,
            "throughput_per_s": 8701.073352575, "latency_p50_ms": 0.010173299196506011,
            "latency_p99_ms": 0.2510299544154479, "latency_mean_ms": 0.029737353588087184,
            "latency_max_ms": 0.2576382719999999, "request_skew": 1.4666666666666666,
            "busy_skew": 1.2880341113404252, "unique_clients": 6,
            "client_skew": 1.5374999999999999, "tenant_1_requests": 229,
            "tenant_1_p50_ms": 0.010173299196506011, "tenant_1_p99_ms": 0.2510299544154479,
            "tenant_2_requests": 91, "tenant_2_p50_ms": 0.010173299196506011,
            "tenant_2_p99_ms": 0.2510299544154479, "batches_timeout": 23, "cache_hits": 262,
            "cache_misses": 30, "cache_negative_hits": 26, "negative_key_misses": 2,
        },
        "series": {
            **_COMMON_SERIES,
            "serve_batch_queue_wait_ms": "timeout",
            "serve_events_total": "batches batches_timeout cache_hits cache_misses"
            " cache_negative_hits negative_key_misses requests",
        },
        "counts": {
            "shard": {0: 8, 1: 9, 2: 2, 3: 11},
            "client": {1000: 74, 1001: 82, 1002: 73, 2000: 24, 2001: 31, 2002: 36},
            "replica": {}, "shed": {}, "tenant": {1: 229, 2: 91},
        },
    },
    "tenants_shedding": {
        "snapshot": {
            "requests": 195, "batches": 79, "span_ms": 36.9525444044609,
            "throughput_per_s": 5277.038513658065, "latency_p50_ms": 0.010173299196506011,
            "latency_p99_ms": 0.2510299544154479, "latency_mean_ms": 0.12043444646305057,
            "latency_max_ms": 0.2576382720000012, "request_skew": 1.5416666666666667,
            "busy_skew": 1.4510921312519032, "unique_clients": 6, "client_skew": 1.2,
            "tenant_1_requests": 104, "tenant_1_p50_ms": 0.010173299196506011,
            "tenant_1_p99_ms": 0.2510299544154479, "tenant_2_requests": 91,
            "tenant_2_p50_ms": 0.010173299196506011, "tenant_2_p99_ms": 0.2510299544154479,
            "tenant_1_shed_rate_limit": 125, "batches_drain": 1, "batches_timeout": 78,
            "cache_hits": 93, "cache_misses": 96, "cache_negative_hits": 5,
            "negative_key_misses": 1, "requests_shed": 125,
        },
        "series": {
            **_COMMON_SERIES,
            "serve_batch_queue_wait_ms": "drain timeout",
            "serve_cache_partition_entries": "1 2 shared",
            "serve_events_total": "batches batches_drain batches_timeout cache_hits"
            " cache_misses cache_negative_hits negative_key_misses requests requests_shed",
            "serve_shed_total": "rate_limit,1",
        },
        "counts": {
            "shard": {0: 27, 1: 25, 2: 7, 3: 37},
            "client": {1000: 32, 1001: 39, 1002: 33, 2000: 24, 2001: 31, 2002: 36},
            "replica": {}, "shed": {(1, "rate_limit"): 125}, "tenant": {1: 104, 2: 91},
        },
    },
    "replicated_crash": {
        "snapshot": {
            "requests": 320, "batches": 23, "span_ms": 36.77707186611627,
            "throughput_per_s": 8701.073352575, "latency_p50_ms": 0.010173299196506011,
            "latency_p99_ms": 0.2510299544154479, "latency_mean_ms": 0.029737353588087184,
            "latency_max_ms": 0.2576382719999999, "request_skew": 1.4666666666666666,
            "busy_skew": 1.2880341113404252, "unique_clients": 6,
            "client_skew": 1.5374999999999999, "replica_skew": 1.8666666666666667,
            "maintenance_windows": 1, "maintenance_ms_resync": 0.004000000000001336,
            "latency_p99_during_maintenance_ms": 0.01, "tenant_1_requests": 229,
            "tenant_1_p50_ms": 0.010173299196506011, "tenant_1_p99_ms": 0.2510299544154479,
            "tenant_2_requests": 91, "tenant_2_p50_ms": 0.010173299196506011,
            "tenant_2_p99_ms": 0.2510299544154479, "batches_timeout": 23, "cache_hits": 262,
            "cache_misses": 30, "cache_negative_hits": 26, "negative_key_misses": 2,
        },
        "series": {
            **_COMMON_SERIES,
            "fault_active_crash": "",
            "fault_active_process_kill": "",
            "fault_active_slow": "",
            "fault_active_transient": "",
            "serve_batch_queue_wait_ms": "timeout",
            "serve_events_total": "batches batches_timeout cache_hits cache_misses"
            " cache_negative_hits negative_key_misses requests",
            "serve_maintenance_device_ms_total": "resync",
            "serve_maintenance_tasks_total": "resync",
            "serve_replica_requests_total": "0:1 1:0 1:1 2:0 2:1 3:0 3:1",
        },
        "counts": {
            "shard": {0: 8, 1: 9, 2: 2, 3: 11},
            "client": {1000: 74, 1001: 82, 1002: 73, 2000: 24, 2001: 31, 2002: 36},
            "replica": {"0:1": 8, "1:0": 4, "1:1": 5, "2:0": 1, "2:1": 1, "3:0": 7, "3:1": 4},
            "shed": {}, "tenant": {1: 229, 2: 91},
        },
    },
}


@pytest.mark.parametrize("name", list(_SERVED_METRICS_PINNED))
def test_served_metrics_match_pinned_series_and_counts(keyset, name):
    """No series appears before its first record (handles bind lazily) and
    no event is counted twice: the snapshot, every instrument's labels and
    the integer counts equal the pinned values."""
    metrics = _identity_deployment(name, keyset).serve_stream(
        _identity_stream(keyset), record_answers=True
    )
    pinned = _SERVED_METRICS_PINNED[name]
    snapshot = metrics.snapshot()
    assert list(snapshot) == list(pinned["snapshot"])
    assert snapshot == pytest.approx(pinned["snapshot"], rel=1e-12)
    series = {}
    for metric, labels, _ in metrics.telemetry.instruments():
        series.setdefault(metric, []).append(",".join(value for _, value in labels))
    assert {metric: " ".join(values) for metric, values in series.items()} == pinned["series"]
    tenant_counts = {
        int(labels[0][1]): counter.value
        for _, labels, counter in metrics.telemetry.instruments("serve_tenant_requests_total")
    }
    assert {
        "shard": metrics.shard_requests,
        "client": metrics.client_requests,
        "replica": metrics.replica_requests,
        "shed": metrics.shed_requests,
        "tenant": tenant_counts,
    } == pinned["counts"]
    counters = metrics.counters
    assert all(isinstance(value, int) for value in counters.values())
    assert {key: snapshot[key] for key in counters} == counters
