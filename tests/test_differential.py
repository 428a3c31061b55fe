"""Differential fuzzing: every index implementation against a model oracle.

A seeded fuzzer drives random operation sequences — bulk build, point-lookup
batches, range-lookup batches, update batches and **bucket compaction**
(cgRXu's incremental maintenance, which must never change an answer) —
against every baseline, ``CgRXIndex`` and ``CgRXuIndex`` (both scene
representations), a plain ``ShardedIndex`` deployment,
a *replicated* ``ShardedIndex`` with failure injection running on the
simulated clock, and a *durable* replicated deployment whose weather also
whole-process-kills replicas (recovered from the on-disk WAL + checkpoints)
and which is randomly cold-restarted from disk mid-sequence — answers must
be byte-identical after every recovery.  The oracle is the authoritative
entry array maintained with the shared update-application helpers; any
implementation whose answers drift from it fails the fuzz.  A second cgRX
run, on both engines at bucket sizes 4 and 32, draws its keys from a
256-value space above zero, so duplicate runs spill over buckets and lookups
fall below the smallest stored key.

Answer comparison is implementation-agnostic but exact:

* point lookups — rowID aggregate and match count per lookup, byte-identical;
* range lookups — the *multiset* of matching rowIDs per query (compared
  sorted; result order across different index internals is not a contract).

Two generation rules keep the op space inside the documented cross-
implementation contract:

* insert and delete key sets of one batch are disjoint — opposing-pair
  cancellation is cgRXu batch semantics, pinned separately in
  ``test_update_semantics.py``, and the baselines' native update paths
  legitimately do not implement it;
* deletes remove whole duplicate groups (or miss entirely) — *which* of
  several duplicates a partial delete removes is implementation-defined.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Tuple

import numpy as np
import pytest

from conftest import ground_truth_point, ground_truth_range
from repro.bench.harness import (
    btree_factory,
    cgrx_factory,
    cgrxu_factory,
    fullscan_factory,
    hash_table_factory,
    rtscan_factory,
    rx_factory,
    sorted_array_factory,
)
from repro.serve import ANSWERED, SHED, ServeConfig, ShardedIndex, TenantQoS
from repro.serve.router import apply_update_to_entries
from repro.workloads.adversarial import (
    TenantSpec,
    multi_tenant_stream,
    shifting_hotspot_stream,
)
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import KeySet

#: Dense key space so duplicates and collisions actually happen.
KEYSPACE = 1 << 16
#: Keys in this range are never inserted: guaranteed misses.
MISS_BASE = 1 << 24
#: The duplicate-heavy cgRX fuzz's keys: 256 values, so the initial 1,024
#: keys hold about four copies of each, and most gap lookups fall below the
#: smallest stored key.
DENSE_KEYSPACE = (1 << 10, (1 << 10) + (1 << 8))

FACTORIES = {
    "SA": sorted_array_factory,
    "B+": btree_factory,
    "HT": hash_table_factory,
    "RX": rx_factory,  # default engine (compiled)
    "RX[scalar]": lambda: rx_factory(engine="scalar"),
    "RTScan": rtscan_factory,
    "FullScan": fullscan_factory,
    "cgRX": lambda: cgrx_factory(32),  # default engine (compiled)
    "cgRX[scalar]": lambda: cgrx_factory(32, engine="scalar"),
    # Compiled tier: degrades to scalar when no backend is available, and the
    # degraded answers are part of the same parity contract — safe to fuzz
    # unconditionally.
    "cgRX[compiled]": lambda: cgrx_factory(32, engine="compiled"),
    "cgRX(4)": lambda: cgrx_factory(4),
    "cgRX(4)[scalar]": lambda: cgrx_factory(4, engine="scalar"),
    # The naive representation routes through the same C routine as the
    # optimized one, along its own marker lanes.
    "cgRX[naive]": lambda: cgrx_factory(32, representation="naive"),
    "cgRXu": lambda: cgrxu_factory(128),  # default engine (compiled)
    "cgRXu[scalar]": lambda: cgrxu_factory(128, engine="scalar"),
    "cgRXu[compiled]": lambda: cgrxu_factory(128, engine="compiled"),
    "cgRXu[naive]": lambda: cgrxu_factory(128, representation="naive"),
}

CONFIGS = list(FACTORIES) + ["sharded", "replicated", "durable"]


class Oracle:
    """Dict-equivalent model: the authoritative sorted entry arrays."""

    def __init__(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order].copy()
        self.row_ids = row_ids[order].copy()

    def apply(self, insert_keys, insert_row_ids, delete_keys) -> None:
        self.keys, self.row_ids, _ = apply_update_to_entries(
            self.keys, self.row_ids, insert_keys, insert_row_ids, delete_keys
        )

    def live_count(self, key: int) -> int:
        left = np.searchsorted(self.keys, np.uint32(key), side="left")
        right = np.searchsorted(self.keys, np.uint32(key), side="right")
        return int(right - left)

    def point(self, lookups):
        return ground_truth_point(self.keys, self.row_ids, lookups)

    def range(self, low, high):
        return ground_truth_range(self.keys, self.row_ids, low, high)


class SubjectUnderTest:
    """One fuzzed configuration: a bare index or a served deployment."""

    def __init__(
        self, name: str, keys: np.ndarray, row_ids: np.ndarray, tracing: bool = False
    ) -> None:
        self.name = name
        self.store_dir = None
        self.cold_restarts = 0
        # Cumulative across cold restarts (each restart resets the live
        # deployment's counters).
        self.process_kills = 0
        self.wal_appends = 0
        self.index = self._build(name, keys, row_ids, tracing)

    def _build(self, name, keys, row_ids, tracing):
        if name == "sharded":
            # Rebuild-fallback shards plus the result cache (invalidation on
            # the update path is part of what the fuzz checks).
            config = ServeConfig(
                num_shards=4,
                partitioner="range",
                key_bits=32,
                cache_capacity=256,
                tracing=tracing,
            )
            return ShardedIndex(keys, row_ids, factory=sorted_array_factory(), config=config)
        if name == "replicated":
            config = ServeConfig(
                num_shards=4,
                partitioner="hash",
                key_bits=32,
                cache_capacity=256,
                replication_factor=3,
                tracing=tracing,
            )
            return ShardedIndex(keys, row_ids, factory=cgrxu_factory(128), config=config)
        if name == "durable":
            self.store_dir = tempfile.mkdtemp(prefix="repro-fuzz-durable-")
            config = ServeConfig(
                num_shards=4,
                partitioner="hash",
                key_bits=32,
                cache_capacity=256,
                replication_factor=3,
                store_dir=self.store_dir,
                checkpoint_wal_records=4,
                tracing=tracing,
            )
            return ShardedIndex(keys, row_ids, factory=cgrxu_factory(128), config=config)
        keyset = KeySet(
            keys=keys.copy(), row_ids=row_ids.copy(), key_bits=32, description=name
        )
        return FACTORIES[name]()(keyset)

    @property
    def supports_point(self) -> bool:
        return bool(self.index.supports_point)

    @property
    def supports_range(self) -> bool:
        return bool(self.index.supports_range)

    def cold_restart(self) -> None:
        """Drop the deployment outright and recover it from the durable store.

        Everything in memory — every replica, cache and queue — is gone; the
        recovered deployment is rebuilt from checkpoints + WAL tails alone.
        """
        from repro.store import DeploymentStore, LocalDirBackend

        self.process_kills += int(
            self.index.replication_snapshot().get("process_kills", 0)
        )
        self.wal_appends += int(self.index.store.counters["wal_appends"])
        store = DeploymentStore(LocalDirBackend(self.store_dir), key_bits=32)
        self.index = ShardedIndex.cold_start(
            store,
            factory=cgrxu_factory(128),
            config=ServeConfig(
                cache_capacity=256,
                replication_factor=3,
                checkpoint_wal_records=4,
            ),
        )
        self.cold_restarts += 1

    def rebuild(self, oracle: Oracle) -> None:
        """Deployment-style rebuild for index types without native updates."""
        keyset = KeySet(
            keys=oracle.keys.copy(),
            row_ids=oracle.row_ids.copy(),
            key_bits=32,
            description=self.name,
        )
        self.index = FACTORIES[self.name]()(keyset)

    def update(self, oracle: Oracle, insert_keys, insert_row_ids, delete_keys) -> None:
        if self.index.supports_updates:
            self.index.update_batch(
                insert_keys=insert_keys if insert_keys.size else None,
                insert_row_ids=insert_row_ids if insert_keys.size else None,
                delete_keys=delete_keys if delete_keys.size else None,
            )
        else:
            self.rebuild(oracle)


def _absent_keys(rng, oracle: Oracle, count: int, top: int = KEYSPACE) -> np.ndarray:
    """Keys guaranteed (high range) or likely-then-verified absent (gaps
    below ``top``)."""
    high = rng.integers(MISS_BASE, MISS_BASE * 2, size=count, dtype=np.uint64)
    gaps = rng.integers(0, top, size=count, dtype=np.uint64)
    candidates = np.concatenate([high, gaps]).astype(np.uint32)
    absent = candidates[~np.isin(candidates, oracle.keys)]
    return absent[:count]


def run_fuzz(
    config_name: str,
    seed: int,
    steps: int = 24,
    initial_keys: int = 1024,
    tracing: bool = False,
    keyspace: Tuple[int, int] = (0, KEYSPACE),
):
    low, top = keyspace
    rng = np.random.default_rng(seed)
    keys = rng.integers(low, top, size=initial_keys, dtype=np.uint64).astype(np.uint32)
    next_row = initial_keys
    row_ids = np.arange(initial_keys, dtype=np.uint32)

    oracle = Oracle(keys, row_ids)
    subject = SubjectUnderTest(config_name, keys, row_ids, tracing=tracing)

    # The replicated configurations run under failure weather: crash, slow
    # and transient events fire between ops as the simulated clock advances;
    # the durable one adds whole-process kills (in-memory state wiped,
    # recovered from the on-disk WAL + checkpoints).
    def make_weather(from_step: int):
        return failure_schedule(
            num_shards=4,
            replication_factor=3,
            duration_ms=float(steps),
            crashes_per_s=80_000.0,  # rates are per second; 1ms per step
            slowdowns_per_s=40_000.0,
            transients_per_s=160_000.0,
            mean_outage_ms=2.0,
            process_kills_per_s=40_000.0 if config_name == "durable" else 0.0,
            seed=seed + 1 + from_step,
        )

    injector = None
    if config_name in ("replicated", "durable"):
        injector = subject.index.inject_failures(make_weather(0))

    ops = ["point", "range", "update", "compact"]
    probabilities = [0.35, 0.25, 0.3, 0.1]
    if config_name == "durable":
        # A cold restart from disk rides along with every other op kind.
        ops, probabilities = ops + ["restart"], [0.3, 0.22, 0.28, 0.1, 0.1]

    for step in range(1, steps + 1):
        if injector is not None:
            if injector.poll(float(step)):
                subject.index.maintenance.run_cycle(float(step))

        op = rng.choice(ops, p=probabilities)
        if op == "restart":
            # The whole process dies: recover from disk and prove every
            # acknowledged write survived, byte for byte, before going on.
            subject.cold_restart()
            injector = subject.index.inject_failures(make_weather(step))
            probe = np.concatenate(
                [np.unique(oracle.keys), _absent_keys(rng, oracle, 8, top)]
            ).astype(np.uint32)
            result = subject.index.point_lookup_batch(probe)
            expected_agg, expected_counts = oracle.point(probe)
            np.testing.assert_array_equal(
                result.row_ids, expected_agg,
                err_msg=f"{config_name}: answers diverged after cold restart at step {step}",
            )
            np.testing.assert_array_equal(
                result.match_counts, expected_counts,
                err_msg=f"{config_name}: counts diverged after cold restart at step {step}",
            )
            continue
        if op == "compact":
            # Interleaved incremental maintenance: compact random buckets of
            # a cgRXu index (both engines), or the hottest chains of a random
            # shard of a served deployment (a no-op for chain-free inner
            # types).  Answers checked by every later op must not move.
            index = subject.index
            if hasattr(index, "compact_buckets"):
                num_buckets = index.overflow_bucket + 1
                index.compact_buckets(
                    rng.integers(0, num_buckets, size=min(8, num_buckets))
                )
            elif hasattr(index, "router"):
                index.router.compact_shard(int(rng.integers(0, index.router.num_shards)))
            continue
        if op == "point":
            if not subject.supports_point:  # RTScan is range-only
                continue
            num = int(rng.integers(1, 64))
            live = (
                rng.choice(oracle.keys, size=num)
                if oracle.keys.size
                else np.empty(0, dtype=np.uint32)
            )
            lookups = np.concatenate([live, _absent_keys(rng, oracle, max(1, num // 4), top)])
            rng.shuffle(lookups)
            lookups = lookups.astype(np.uint32)
            result = subject.index.point_lookup_batch(lookups)
            expected_agg, expected_counts = oracle.point(lookups)
            np.testing.assert_array_equal(
                result.row_ids, expected_agg,
                err_msg=f"{config_name}: point aggregates diverged at step {step}",
            )
            np.testing.assert_array_equal(
                result.match_counts, expected_counts,
                err_msg=f"{config_name}: point counts diverged at step {step}",
            )
        elif op == "range":
            if not subject.supports_range:
                continue
            num = int(rng.integers(1, 8))
            bounds = rng.integers(0, top, size=(num, 2), dtype=np.uint64).astype(np.uint32)
            lows = np.minimum(bounds[:, 0], bounds[:, 1])
            highs = np.maximum(bounds[:, 0], bounds[:, 1])
            result = subject.index.range_lookup_batch(lows, highs)
            for position in range(num):
                expected = oracle.range(int(lows[position]), int(highs[position]))
                np.testing.assert_array_equal(
                    np.sort(result.row_ids[position]), np.sort(expected),
                    err_msg=f"{config_name}: range {position} diverged at step {step}",
                )
        else:
            num_inserts = int(rng.integers(0, 48))
            insert_keys = rng.integers(low, top, size=num_inserts, dtype=np.uint64).astype(
                np.uint32
            )
            insert_rows = np.arange(next_row, next_row + num_inserts, dtype=np.uint32)
            next_row += num_inserts
            # Deletes: whole duplicate groups of sampled live keys plus some
            # guaranteed misses — never keys of this batch's insert half.
            delete_parts = []
            if oracle.keys.size:
                chosen = np.unique(rng.choice(oracle.keys, size=int(rng.integers(1, 16))))
                chosen = chosen[~np.isin(chosen, insert_keys)]
                for key in chosen:
                    delete_parts.append(
                        np.full(oracle.live_count(int(key)), key, dtype=np.uint32)
                    )
            misses = _absent_keys(rng, oracle, 3, top)
            delete_parts.append(misses[~np.isin(misses, insert_keys)])
            delete_keys = (
                np.concatenate(delete_parts) if delete_parts else np.empty(0, dtype=np.uint32)
            )
            # Model first: rebuild-fallback subjects snapshot the oracle, so
            # it must already reflect this batch.
            oracle.apply(insert_keys, insert_rows, delete_keys)
            subject.update(oracle, insert_keys, insert_rows, delete_keys)

    # Closing sweep: every live key (and a miss batch) answers identically;
    # range-only subjects sweep the full keyspace instead.
    if subject.supports_point:
        probe = np.concatenate([np.unique(oracle.keys), _absent_keys(rng, oracle, 16, top)])
        result = subject.index.point_lookup_batch(probe)
        expected_agg, expected_counts = oracle.point(probe)
        np.testing.assert_array_equal(result.row_ids, expected_agg)
        np.testing.assert_array_equal(result.match_counts, expected_counts)
    else:
        full = subject.index.range_lookup_batch(
            np.asarray([0], dtype=np.uint32),
            np.asarray([np.iinfo(np.uint32).max], dtype=np.uint32),
        )
        np.testing.assert_array_equal(np.sort(full.row_ids[0]), np.sort(oracle.row_ids))
    if subject.store_dir is not None:
        shutil.rmtree(subject.store_dir, ignore_errors=True)
    return subject, oracle


@pytest.mark.parametrize("config_name", CONFIGS)
def test_differential_fuzz(config_name):
    run_fuzz(config_name, seed=20250729)


@pytest.mark.parametrize("config_name", ["cgRX", "cgRX[scalar]", "cgRX(4)", "cgRX(4)[scalar]"])
def test_differential_fuzz_cgrx_duplicate_heavy(config_name):
    """cgRX's bucket search on about four copies of every key and lookups
    below the smallest stored key: runs spill over buckets of 4 and 32."""
    _, oracle = run_fuzz(config_name, seed=20261017, keyspace=DENSE_KEYSPACE)
    assert np.unique(oracle.keys, return_counts=True)[1].max() >= 4
    assert oracle.keys.min() >= DENSE_KEYSPACE[0]


def test_differential_fuzz_replicated_sees_failures():
    """The replicated fuzz run actually exercises failover machinery."""
    subject, _ = run_fuzz("replicated", seed=42, steps=16)
    snapshot = subject.index.replication_snapshot()
    assert snapshot["crashes"] >= 1
    assert subject.index.failures is not None and subject.index.failures.log


def test_differential_fuzz_durable_recovers_from_disk():
    """The durable fuzz run actually loses processes and recovers from disk."""
    subject, _ = run_fuzz("durable", seed=7, steps=32)
    snapshot = subject.index.replication_snapshot()
    kills = subject.process_kills + int(snapshot.get("process_kills", 0))
    appends = subject.wal_appends + int(subject.index.store.counters["wal_appends"])
    assert kills >= 1
    assert subject.cold_restarts >= 1
    assert appends >= 1


def test_differential_fuzz_replicated_traced_is_behavior_neutral():
    """Tracing must never change an answer or a counter.

    The same seeded replicated fuzz run (failure weather, updates,
    compaction) passes its oracle checks with tracing on, actually records
    spans, and ends with the same replication counters and metrics counters
    as the untraced run.
    """
    traced, _ = run_fuzz("replicated", seed=20250808, tracing=True)
    untraced, _ = run_fuzz("replicated", seed=20250808)
    assert traced.index.tracer.spans, "traced run recorded no spans"
    assert not untraced.index.tracer.spans
    assert (
        traced.index.replication_snapshot() == untraced.index.replication_snapshot()
    )
    assert traced.index.metrics.counters == untraced.index.metrics.counters
    # repr-compare so NaN latency reductions (no served stream here) match.
    assert repr(traced.index.metrics.snapshot()) == repr(
        untraced.index.metrics.snapshot()
    )


# --------------------------------------------------------------------------
# Adaptive serving fuzz: tenants, hotspot shift, updates, resharding
# --------------------------------------------------------------------------


def _served_chunk_matches_oracle(index, oracle, stream) -> int:
    """Serve one chunk and compare every answered request to the oracle.

    Negative (signed) keys must come back as the deterministic miss
    ``(-1, 0)``; shed requests, the only other outcome here, are excluded
    from the comparison but their answer slots must be untouched.  Returns
    the number of shed requests.
    """
    stream.arrival_ms += float(index.clock.now_ms) + 1.0
    index.serve_stream(stream, record_answers=True)
    row_agg, counts = index.last_answers
    served = index.last_outcomes == ANSWERED
    shed = index.last_outcomes == SHED
    assert (served | shed).all()

    keys = np.asarray(stream.keys)
    if np.issubdtype(keys.dtype, np.signedinteger):
        negative = keys < 0
        lookups = np.where(negative, 0, keys).astype(np.uint32)
    else:
        negative = np.zeros(keys.shape[0], dtype=bool)
        lookups = keys.astype(np.uint32)
    expected_agg, expected_counts = oracle.point(lookups)
    expected_agg = np.where(negative, -1, expected_agg)
    expected_counts = np.where(negative, 0, expected_counts)

    assert row_agg[served].tobytes() == expected_agg[served].tobytes()
    assert counts[served].tobytes() == expected_counts[served].tobytes()
    np.testing.assert_array_equal(row_agg[shed], -1)
    np.testing.assert_array_equal(counts[shed], 0)
    return int(shed.sum())


def test_differential_fuzz_adaptive_multi_tenant():
    """Adaptive deployment under mixed hostile ops stays oracle-exact.

    The op mix interleaves unlabeled shifting-hotspot chunks (driving the
    split/merge policy), multi-tenant chunks with a rate-limited flooding
    tenant and negative keys mixed in (driving admission control and the
    signed-key boundary), and update batches that move the oracle between
    chunks.  Every non-shed answer must stay byte-identical throughout,
    across actual topology changes.
    """
    rng = np.random.default_rng(20250808)
    keys = rng.integers(0, KEYSPACE, size=1024, dtype=np.uint32)
    row_ids = np.arange(keys.shape[0], dtype=np.uint32)
    oracle = Oracle(keys, row_ids)

    config = ServeConfig(
        num_shards=4,
        partitioner="range",
        key_bits=32,
        cache_capacity=256,
        max_batch_size=512,
        max_wait_ms=0.05,
        tenants=(
            TenantQoS(tenant=1, priority=0, rate_limit_per_ms=2.0, cache_share=0.25),
            TenantQoS(tenant=2, priority=2, cache_share=0.25),
        ),
        max_queue_depth=256,
        reshard=True,
        reshard_interval_ms=1.0,
        reshard_split_skew=1.5,
        reshard_min_split_entries=64,
        reshard_max_shards=16,
    )
    index = ShardedIndex(
        keys, row_ids, factory=sorted_array_factory(), config=config
    )

    total_shed = 0
    for step in range(3):
        current = KeySet(
            keys=oracle.keys.copy(),
            row_ids=oracle.row_ids.copy(),
            key_bits=32,
            description="fuzz entries",
        )

        # Hotspot chunk: unlabeled traffic whose hot window sweeps the
        # keyspace, concentrating load on one shard at a time.
        hotspot = shifting_hotspot_stream(
            current,
            count=1200,
            num_phases=2,
            requests_per_ms=400.0,
            seed=1000 + step,
        )
        total_shed += _served_chunk_matches_oracle(index, oracle, hotspot)

        # Tenant chunk: a flooding tenant hammering a per-step window of the
        # keyspace (rate-limited) against a low-rate victim, with negative
        # keys mixed into the flood.
        window_lo = 0.2 * step
        tenants = multi_tenant_stream(
            current,
            [
                TenantSpec(
                    tenant=1,
                    requests_per_ms=24.0,
                    zipf_coefficient=0.7,
                    keyspace=(window_lo, window_lo + 0.3),
                ),
                TenantSpec(tenant=2, requests_per_ms=2.0),
            ],
            duration_ms=20.0,
            seed=2000 + step,
        )
        signed = tenants.keys.astype(np.int64)
        flip = rng.random(signed.shape[0]) < 0.03
        signed[flip] = -rng.integers(1, 1 << 20, size=int(flip.sum()))
        tenants.keys = signed
        total_shed += _served_chunk_matches_oracle(index, oracle, tenants)

        # Update batch: disjoint inserts and whole-group deletes, applied to
        # deployment and oracle alike.
        insert_keys = _absent_keys(rng, oracle, 32)
        insert_rows = rng.integers(
            0, 1 << 20, size=insert_keys.shape[0], dtype=np.uint32
        )
        stored = np.unique(oracle.keys)
        delete_keys = rng.choice(
            stored, size=min(16, stored.shape[0]), replace=False
        )
        index.update_batch(
            insert_keys=insert_keys,
            insert_row_ids=insert_rows,
            delete_keys=delete_keys,
        )
        oracle.apply(insert_keys, insert_rows, delete_keys)

    # The hostile mix actually exercised the machinery under test.
    assert index.maintenance.splits_performed >= 1
    assert total_shed > 0
    assert index.admission is not None and index.admission.total_shed == total_shed

    # Closing sweep: the full keyspace still matches the oracle exactly.
    full = index.range_lookup_batch(
        np.asarray([0], dtype=np.uint32),
        np.asarray([np.iinfo(np.uint32).max], dtype=np.uint32),
    )
    np.testing.assert_array_equal(np.sort(full.row_ids[0]), np.sort(oracle.row_ids))
