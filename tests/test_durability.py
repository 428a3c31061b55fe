"""Tests for the durable tier: backends, WAL, checkpoints, recovery.

Covers the `repro.store` package in isolation (byte-level WAL and
checkpoint behaviour, damage handling, idempotent replay) and wired into
the serving stack (log-before-ack, maintenance checkpoints, durable
replica restore, cold-start recovery to byte-identical state).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import FailureEvent, ServeConfig, ShardedIndex
from repro.bench.harness import cgrxu_factory
from repro.store import (
    Checkpoint,
    CheckpointStore,
    DeploymentStore,
    InMemoryBackend,
    LocalDirBackend,
    ShardWal,
    WalCorruption,
    decode_record,
    encode_record,
    replay_records,
)
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import generate_keys


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=61)


def entries(arrays) -> tuple:
    keys, rows = arrays
    order = np.lexsort((rows, keys))
    return keys[order].tobytes(), rows[order].tobytes()


def deployment_entries(served) -> tuple:
    # Replica groups hold the authoritative arrays; plain shards keep them
    # on the router shard (mirrors DeploymentStore.shard_durable_state).
    def arrays(shard):
        if shard.index is not None and hasattr(shard.index, "replicas"):
            return shard.index.keys, shard.index.row_ids
        return shard.keys, shard.row_ids

    parts = [arrays(shard) for shard in served.router.shards]
    keys = np.concatenate([part[0] for part in parts])
    rows = np.concatenate([part[1] for part in parts])
    return entries((keys, rows))


# --------------------------------------------------------------------------
# Storage backends
# --------------------------------------------------------------------------


def test_local_backend_roundtrip_and_listing(tmp_path):
    backend = LocalDirBackend(str(tmp_path))
    backend.put("a/b.bin", b"payload")
    assert backend.get("a/b.bin") == b"payload"
    assert backend.exists("a/b.bin")
    assert backend.size("a/b.bin") == len(b"payload")
    backend.put_json("meta.json", {"k": 1})
    assert backend.get_json("meta.json") == {"k": 1}
    assert backend.list("a/") == ["a/b.bin"]
    backend.delete("a/b.bin")
    assert not backend.exists("a/b.bin")


def test_local_backend_overwrite_is_atomic_replace(tmp_path):
    backend = LocalDirBackend(str(tmp_path), fsync=False)
    backend.put("x.bin", b"old")
    backend.put("x.bin", b"new")
    assert backend.get("x.bin") == b"new"
    # No temp-file debris left behind, and listings never surface temps.
    assert backend.list("") == ["x.bin"]


def test_backend_rejects_escaping_names(tmp_path):
    backend = LocalDirBackend(str(tmp_path))
    with pytest.raises(ValueError):
        backend.put("../escape.bin", b"x")
    with pytest.raises(ValueError):
        backend.get("/absolute.bin")


def test_in_memory_backend_counters():
    backend = InMemoryBackend()
    backend.put("a", b"1234")
    backend.get("a")
    assert backend.counters["puts"] == 1
    assert backend.counters["gets"] == 1
    assert backend.counters["bytes_written"] == 4


# --------------------------------------------------------------------------
# WAL: framing, damage classification, truncation race
# --------------------------------------------------------------------------


def wal_with_records(backend, count=3, start_lsn=1):
    wal = ShardWal(backend, "shard-0000/wal")
    for offset in range(count):
        lsn = start_lsn + offset
        wal.append(
            lsn,
            np.asarray([lsn * 10], dtype=np.uint32),
            np.asarray([lsn], dtype=np.uint32),
            np.empty(0, dtype=np.uint32),
        )
    return wal


def test_wal_append_read_roundtrip():
    wal = wal_with_records(InMemoryBackend(), count=3)
    result = wal.read()
    assert [record.lsn for record in result.records] == [1, 2, 3]
    assert result.records[0].insert_keys.tolist() == [10]
    assert result.torn_truncated == 0 and result.corrupt_skipped == 0
    assert wal.max_lsn() == 3


def test_wal_record_checksum_detects_flips():
    record = encode_record(
        7,
        np.asarray([1, 2], dtype=np.uint32),
        np.asarray([3, 4], dtype=np.uint32),
        np.asarray([5], dtype=np.uint32),
    )
    assert decode_record(record).lsn == 7
    flipped = bytearray(record)
    flipped[len(flipped) // 2] ^= 0xFF
    with pytest.raises(WalCorruption):
        decode_record(bytes(flipped))


def test_torn_final_record_is_truncated_not_fatal():
    backend = InMemoryBackend()
    wal = wal_with_records(backend, count=2)
    # A torn write: the final record only half made it to the device.
    whole = encode_record(
        3,
        np.asarray([30], dtype=np.uint32),
        np.asarray([3], dtype=np.uint32),
        np.empty(0, dtype=np.uint32),
    )
    backend.put(wal._name(3), whole[: len(whole) // 2])
    result = wal.read(truncate_torn=True)
    assert [record.lsn for record in result.records] == [1, 2]
    assert result.torn_truncated == 1
    assert result.corrupt_skipped == 0
    # The debris is gone: the next read is clean.
    again = wal.read()
    assert again.torn_truncated == 0
    assert [record.lsn for record in again.records] == [1, 2]


def test_corrupt_record_before_valid_tail_is_skipped_and_counted():
    backend = InMemoryBackend()
    wal = wal_with_records(backend, count=3)
    payload = bytearray(backend.get(wal._name(2)))
    payload[-1] ^= 0xFF
    backend.put(wal._name(2), bytes(payload))
    result = wal.read()
    # Record 3 is valid after the damage, so record 2 is corruption (not a
    # torn tail) and is skipped, never deleted.
    assert [record.lsn for record in result.records] == [1, 3]
    assert result.corrupt_skipped == 1
    assert result.torn_truncated == 0
    assert backend.exists(wal._name(2))


def test_truncate_through_spares_racing_appends():
    wal = wal_with_records(InMemoryBackend(), count=2)
    # An append races the checkpoint: it lands before the truncation runs.
    wal.append(
        3,
        np.asarray([30], dtype=np.uint32),
        np.asarray([3], dtype=np.uint32),
        np.empty(0, dtype=np.uint32),
    )
    dropped = wal.truncate_through(2)
    assert dropped == 2
    result = wal.read()
    assert [record.lsn for record in result.records] == [3]


def test_replay_is_idempotent_by_lsn_guard():
    keys = np.asarray([1, 5], dtype=np.uint32)
    rows = np.asarray([10, 50], dtype=np.uint32)
    wal = wal_with_records(InMemoryBackend(), count=3)
    records = wal.read().records
    keys1, rows1, lsn1, applied1 = replay_records(keys, rows, records, applied_lsn=0)
    assert applied1 == 3 and lsn1 == 3
    # Replaying the same records again (e.g. a checkpoint that already
    # covers them plus a stale log) must change nothing.
    keys2, rows2, lsn2, applied2 = replay_records(keys1, rows1, records, applied_lsn=lsn1)
    assert applied2 == 0 and lsn2 == 3
    assert keys2.tobytes() == keys1.tobytes()
    assert rows2.tobytes() == rows1.tobytes()
    # A partial guard skips exactly the covered prefix.
    keys3, rows3, lsn3, applied3 = replay_records(keys, rows, records, applied_lsn=2)
    assert applied3 == 1 and lsn3 == 3


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_roundtrip_and_pruning():
    store = CheckpointStore(InMemoryBackend(), "shard-0000/checkpoint", retain=2)
    for lsn in (5, 9, 12):
        store.save(
            np.asarray([lsn], dtype=np.uint32),
            np.asarray([lsn * 2], dtype=np.uint32),
            lsn=lsn,
            epoch=1,
        )
    latest = store.latest_valid()
    assert latest.lsn == 12 and latest.epoch == 1
    assert latest.keys.tolist() == [12]
    # Only `retain` generations survive.
    assert len(store.backend.list("shard-0000/checkpoint/")) == 2


def test_corrupt_checkpoint_falls_back_to_previous_generation():
    backend = InMemoryBackend()
    store = CheckpointStore(backend, "ck", retain=2)
    for lsn in (5, 9):
        store.save(
            np.asarray([lsn], dtype=np.uint32),
            np.asarray([lsn], dtype=np.uint32),
            lsn=lsn,
            epoch=0,
        )
    names = backend.list("ck/")
    newest = sorted(names)[-1]
    payload = bytearray(backend.get(newest))
    payload[len(payload) // 2] ^= 0xFF
    backend.put(newest, bytes(payload))
    latest = store.latest_valid()
    assert latest.lsn == 5
    assert store.corrupt_skipped == 1
    # The damaged generation is flagged for operators, not silently eaten.
    assert backend.exists(newest + ".error")


# --------------------------------------------------------------------------
# DeploymentStore: log, checkpoint, recover
# --------------------------------------------------------------------------


def test_deployment_store_log_checkpoint_recover_roundtrip():
    store = DeploymentStore(InMemoryBackend(), key_bits=32)
    keys = np.asarray([2, 4, 6], dtype=np.uint32)
    rows = np.asarray([20, 40, 60], dtype=np.uint32)
    store.checkpoint(0, keys, rows, lsn=0)
    store.log_batch(
        0,
        1,
        np.asarray([8], dtype=np.uint32),
        np.asarray([80], dtype=np.uint32),
        np.asarray([2], dtype=np.uint32),
    )
    assert store.wal_backlog(0) == 1
    recovery = store.recover_shard(0)
    assert recovery.lsn == 1
    assert recovery.replayed == 1
    assert recovery.keys.tolist() == [4, 6, 8]
    assert recovery.row_ids.tolist() == [40, 60, 80]
    assert store.counters["recoveries"] == 1
    assert store.counters["records_replayed"] == 1


def test_checkpoint_truncates_wal_behind_it():
    store = DeploymentStore(InMemoryBackend(), key_bits=32)
    empty = np.empty(0, dtype=np.uint32)
    for lsn in (1, 2, 3):
        store.log_batch(
            0, lsn, np.asarray([lsn], dtype=np.uint32),
            np.asarray([lsn], dtype=np.uint32), empty,
        )
    assert store.wal_backlog(0) == 3
    store.checkpoint(
        0, np.asarray([1, 2], dtype=np.uint32),
        np.asarray([1, 2], dtype=np.uint32), lsn=2,
    )
    # Records 1-2 are redundant and dropped; the racing record 3 survives.
    assert store.wal_backlog(0) == 1
    recovery = store.recover_shard(0)
    assert recovery.checkpoint_lsn == 2
    assert recovery.replayed == 1
    assert recovery.keys.tolist() == [1, 2, 3]


def test_recover_empty_shard_namespace_yields_empty_arrays():
    store = DeploymentStore(InMemoryBackend(), key_bits=32)
    recovery = store.recover_shard(7)
    assert recovery.num_entries == 0
    assert recovery.lsn == 0


# --------------------------------------------------------------------------
# Failure weather: seed stability
# --------------------------------------------------------------------------


def test_failure_schedule_seed_pinned():
    """Regression pin: a known seed must keep producing this exact schedule.

    Guards the documented draw-order contract — new fault classes must draw
    *after* the existing ones so existing seeds stay stable.
    """
    events = failure_schedule(3, 3, duration_ms=40.0, seed=23)
    pinned = [
        (2.55415, "transient", 0, 1),
        (5.145769, "crash", 1, 0),
        (8.720745, "slow", 0, 2),
    ]
    assert [
        (round(event.at_ms, 6), event.kind, event.shard_id, event.replica_id)
        for event in events
    ] == pinned


def test_process_kill_weather_preserves_classic_draws():
    base = failure_schedule(3, 3, duration_ms=40.0, seed=23)
    with_kills = failure_schedule(
        3, 3, duration_ms=40.0, process_kills_per_s=50.0, seed=23
    )
    classic = [event for event in with_kills if event.kind != "process_kill"]
    assert classic == base
    kills = [event for event in with_kills if event.kind == "process_kill"]
    assert [
        (round(event.at_ms, 6), event.shard_id, event.replica_id)
        for event in kills
    ] == [(0.728694, 0, 0), (26.170286, 1, 0), (29.708178, 2, 0)]


def test_process_kill_weather_spares_the_spare():
    events = failure_schedule(
        2, 3, duration_ms=100.0, process_kills_per_s=100.0, spare_replica=0, seed=5
    )
    kills = [event for event in events if event.kind == "process_kill"]
    assert kills and all(event.replica_id != 0 for event in kills)


# --------------------------------------------------------------------------
# Serving stack integration
# --------------------------------------------------------------------------


def durable_deployment(keyset, store_dir, **overrides):
    config = ServeConfig(
        **{
            "num_shards": 3,
            "partitioner": "range",
            "key_bits": 32,
            "cache_capacity": 0,
            "max_batch_size": 64,
            "max_wait_ms": 0.5,
            "replication_factor": 3,
            "store_dir": str(store_dir),
            "checkpoint_wal_records": 4,
            **overrides,
        }
    )
    return ShardedIndex(
        keyset.keys, keyset.row_ids, factory=cgrxu_factory(128), config=config
    )


def apply_waves(served, keyset, num_waves=4, seed=29):
    rng = np.random.default_rng(seed)
    keys = keyset.keys.copy()
    rows = keyset.row_ids.copy()
    next_row = int(rows.max()) + 1
    from repro.serve.router import apply_update_to_entries

    for _ in range(num_waves):
        inserts = rng.integers(0, (1 << 32) - 1, size=64, dtype=np.uint64).astype(
            np.uint32
        )
        insert_rows = np.arange(next_row, next_row + 64, dtype=np.uint32)
        deletes = rng.choice(keys, size=16, replace=False)
        next_row += 64
        served.update_batch(
            insert_keys=inserts, insert_row_ids=insert_rows, delete_keys=deletes
        )
        keys, rows, _ = apply_update_to_entries(keys, rows, inserts, insert_rows, deletes)
    return keys, rows


def test_every_acked_write_hits_the_wal_before_return(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    before = served.store.counters["wal_appends"]
    served.update_batch(
        insert_keys=np.asarray([123456789], dtype=np.uint32),
        insert_row_ids=np.asarray([1], dtype=np.uint32),
    )
    assert served.store.counters["wal_appends"] > before


def test_maintenance_takes_checkpoints_past_the_backlog_threshold(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    apply_waves(served, keyset, num_waves=5)
    served.maintenance.run_cycle(1.0)
    assert served.maintenance.checkpoints_performed >= 1
    assert served.store.counters["checkpoints"] > 3  # attach rebase + periodic


def test_process_killed_replica_restores_from_durable_store(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    expected = apply_waves(served, keyset, num_waves=3)
    now = served.clock.now_ms
    injector = served.inject_failures(
        [
            FailureEvent(
                at_ms=now, kind="process_kill", shard_id=s, replica_id=1,
                duration_ms=1.0,
            )
            for s in range(3)
        ]
    )
    injector.poll(now)
    # The killed replicas lost their in-memory state outright.
    for group in served.router.groups.values():
        assert group.replicas[1].index is None
    injector.poll(now + 2.0)
    served.maintenance.run_cycle(now + 2.0)
    replication = served.replication_snapshot()
    assert replication["process_kills"] == 3
    assert replication["resyncs_durable"] == 3
    for group in served.router.groups.values():
        assert group.replicas[1].index is not None
    assert deployment_entries(served) == entries(expected)


def test_cold_start_recovers_byte_identical_state(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    expected = apply_waves(served, keyset, num_waves=4)
    probe = keyset.keys[:256]
    answers = served.point_lookup_batch(probe)
    # The process exits; a fresh store over the same directory recovers.
    store = DeploymentStore(LocalDirBackend(str(tmp_path)), key_bits=32)
    recovered = ShardedIndex.cold_start(store, factory=cgrxu_factory(128))
    assert recovered.last_recovery["entries_recovered"] == expected[0].shape[0]
    assert deployment_entries(recovered) == entries(expected)
    after = recovered.point_lookup_batch(probe)
    assert after.row_ids.tobytes() == answers.row_ids.tobytes()
    assert after.match_counts.tobytes() == answers.match_counts.tobytes()
    # The recovered deployment is re-armed: it keeps acking writes durably.
    assert recovered.store is not None
    recovered.update_batch(
        insert_keys=np.asarray([42], dtype=np.uint32),
        insert_row_ids=np.asarray([4242], dtype=np.uint32),
    )
    assert recovered.store.counters["wal_appends"] >= 1


def test_cold_start_truncates_torn_tail_and_counts_it(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    expected = apply_waves(served, keyset, num_waves=2)
    store = DeploymentStore(LocalDirBackend(str(tmp_path)), key_bits=32)
    wal = store.wal(1)
    torn_lsn = wal.max_lsn() + 1
    record = encode_record(
        torn_lsn,
        np.asarray([7], dtype=np.uint32),
        np.asarray([1], dtype=np.uint32),
        np.empty(0, dtype=np.uint32),
    )
    store.backend.put(wal._name(torn_lsn), record[: len(record) // 2])
    recovered = ShardedIndex.cold_start(store, factory=cgrxu_factory(128))
    assert recovered.last_recovery["torn_truncated"] == 1
    assert deployment_entries(recovered) == entries(expected)


def test_reshard_rebases_the_store(keyset, tmp_path):
    # Unreplicated: replica groups do not support in-place resharding.
    served = durable_deployment(keyset, tmp_path, replication_factor=1)
    apply_waves(served, keyset, num_waves=2)
    shards_before = served.config.num_shards
    served.router.split_shard(0)
    served.store.checkpoint_deployment(served.router)
    manifest = served.store.read_manifest()
    assert manifest["num_shards"] == shards_before + 1
    # A cold start from the post-split store sees the new topology and the
    # same entries.
    state = deployment_entries(served)
    store = DeploymentStore(LocalDirBackend(str(tmp_path)), key_bits=32)
    recovered = ShardedIndex.cold_start(store, factory=cgrxu_factory(128))
    assert recovered.config.num_shards == shards_before + 1
    assert deployment_entries(recovered) == state


@pytest.mark.parametrize("replication_factor", [1, 3])
def test_checkpoint_after_lazy_writes_matches_eager_export(
    keyset, tmp_path, replication_factor
):
    """Shard arrays re-exported lazily after native writes checkpoint and
    cold-start byte for byte like arrays exported after every write."""
    lazy, eager = (
        durable_deployment(keyset, tmp_path / name, replication_factor=replication_factor)
        for name in ("lazy", "eager")
    )
    rng = np.random.default_rng(37)
    for _ in range(5):
        # Duplicates of stored keys make the tie-order of the arrays matter.
        inserts = rng.choice(keyset.keys, 48)
        rows = rng.integers(0, 1 << 31, size=48).astype(np.uint32)
        deletes = rng.choice(keyset.keys, 16)
        for served in (lazy, eager):
            served.update_batch(insert_keys=inserts, insert_row_ids=rows, delete_keys=deletes)
        for shard in eager.router.shards:
            DeploymentStore.shard_durable_state(shard)
            shard.keys, shard.row_ids
    for served in (lazy, eager):
        served.store.checkpoint_deployment(served.router)
    recovered = [
        ShardedIndex.cold_start(
            DeploymentStore(LocalDirBackend(str(tmp_path / name)), key_bits=32),
            factory=cgrxu_factory(128),
        )
        for name in ("lazy", "eager")
    ]
    def durable_arrays(served):
        # Cold start re-partitions: compare the deployment-wide arrays in
        # shard order, tie-order of duplicates included.
        states = [DeploymentStore.shard_durable_state(s) for s in served.router.shards]
        return tuple(
            np.concatenate([state[part] for state in states]).tobytes()
            for part in (0, 1)
        )

    probe = keyset.keys[::3]
    for deployment in (lazy, *recovered):
        assert durable_arrays(deployment) == durable_arrays(eager)
        answers = deployment.point_lookup_batch(probe)
        expected = eager.point_lookup_batch(probe)
        assert answers.row_ids.tobytes() == expected.row_ids.tobytes()


def test_metrics_surface_durability_counters(keyset, tmp_path):
    served = durable_deployment(keyset, tmp_path)
    apply_waves(served, keyset, num_waves=5)
    served.maintenance.run_cycle(1.0)
    snapshot = served.metrics.snapshot()
    assert snapshot.get("wal_appends", 0) > 0
    assert snapshot.get("wal_bytes", 0) > 0
    assert snapshot.get("checkpoints", 0) > 0


def test_experiment_listing_names_every_experiment():
    from repro.bench.experiments import ALL_EXPERIMENTS, list_experiments

    lines = list_experiments()
    assert len(lines) == len(ALL_EXPERIMENTS)
    assert any(line.startswith("durability") for line in lines)
    for line in lines:
        name, _, summary = line.partition("  ")
        assert name.strip() in ALL_EXPERIMENTS
        assert summary.strip()


def test_unknown_experiment_is_rejected_before_anything_runs(monkeypatch, capsys):
    import sys

    from repro.bench import experiments

    ran = []
    monkeypatch.setitem(experiments.ALL_EXPERIMENTS, "table_1", lambda: ran.append(1))
    with pytest.raises(KeyError, match="nosuch"):
        experiments.run_all(["table_1", "nosuch"])
    assert ran == []
    monkeypatch.setattr(sys, "argv", ["repro-bench", "table_1", "nosuch"])
    with pytest.raises(SystemExit) as exited:
        experiments.main()
    assert exited.value.code == 2
    error = capsys.readouterr().err
    assert "'nosuch'" in error and "table_1" in error
    assert ran == []
