"""Deployment-level durability: WAL + checkpoints per shard, and recovery.

:class:`DeploymentStore` is the object the serving layer holds: one
backend, one namespace per shard (``shard-NNNN/wal/...`` and
``shard-NNNN/checkpoint/...``), and a ``manifest.json`` naming the
topology.  The contract it implements:

* **log before ack** — every acknowledged write batch is appended to the
  shard's WAL (:meth:`log_batch`) before the write returns to the caller;
* **checkpoint + truncate behind** — :meth:`checkpoint` persists the
  shard's authoritative entries at an LSN and deletes the WAL records that
  checkpoint makes redundant (never the ones racing past it);
* **recover to byte-identical** — :meth:`recover_shard` loads the latest
  valid checkpoint and replays the WAL tail through the same
  entry-array apply discipline the router uses
  (:func:`repro.serve.router.apply_update_to_entries`), so the recovered
  arrays equal the pre-crash authoritative arrays byte for byte; torn tail
  records are truncated, corrupt ones skipped and counted.

Replay is idempotent by LSN guard (:func:`replay_records`): records at or
below the already-applied LSN are no-ops, so recovering twice — or
replaying a record that was both checkpointed and still in the log —
cannot double-apply a write.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.trace import NULL_TRACER
from repro.store.backend import StorageBackend
from repro.store.checkpoint import CheckpointStore
from repro.store.wal import ShardWal, WalRecord

MANIFEST = "manifest.json"
#: Checkpoint generations kept per shard: the latest, plus one to fall back
#: to when the latest is corrupt.
RETAIN_CHECKPOINTS = 2


def replay_records(
    keys: np.ndarray,
    row_ids: np.ndarray,
    records: List[WalRecord],
    applied_lsn: int,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Apply WAL records above ``applied_lsn`` to sorted entry arrays.

    The LSN guard makes this idempotent: replaying the same records twice
    (or records already covered by the checkpoint) changes nothing.
    Returns ``(keys, row_ids, new_applied_lsn, records_applied)``.
    """
    # Imported lazily: the serve package imports this module at load time.
    from repro.serve.router import apply_update_to_entries

    applied = 0
    for record in sorted(records, key=lambda r: r.lsn):
        if record.lsn <= applied_lsn:
            continue  # idempotency guard: already applied
        keys, row_ids, _ = apply_update_to_entries(
            keys, row_ids, record.insert_keys, record.insert_row_ids, record.delete_keys
        )
        applied_lsn = record.lsn
        applied += 1
    return keys, row_ids, int(applied_lsn), applied


@dataclass
class ShardRecovery:
    """Everything recovery reconstructed for one shard."""

    shard_id: int
    #: Post-replay authoritative entries (byte-identical to pre-crash state).
    keys: np.ndarray
    row_ids: np.ndarray
    #: LSN the recovered arrays are consistent with.
    lsn: int
    epoch: int
    #: LSN and entries of the checkpoint recovery started from.
    checkpoint_lsn: int
    checkpoint_keys: np.ndarray = None
    checkpoint_row_ids: np.ndarray = None
    #: WAL tail above the checkpoint, for native (index-level) replay.
    records: List[WalRecord] = field(default_factory=list)
    replayed: int = 0
    torn_truncated: int = 0
    corrupt_skipped: int = 0
    #: Host wall-clock time recovery took (the panel the bench reports).
    wall_ms: float = 0.0

    @property
    def num_entries(self) -> int:
        return int(self.keys.shape[0])


class DeploymentStore:
    """Per-shard WALs and checkpoints of one served deployment, keeping
    :data:`RETAIN_CHECKPOINTS` checkpoint generations per shard."""

    def __init__(
        self,
        backend: StorageBackend,
        key_bits: int = 64,
    ) -> None:
        self.backend = backend
        self.key_bits = int(key_bits)
        #: Telemetry / span sinks; the deployment points these at its own.
        self.metrics = None
        self.tracer = NULL_TRACER
        #: Simulated clock spans are stamped against (bound by the deployment).
        self.clock = None
        self.counters: Dict[str, int] = {
            "wal_appends": 0,
            "wal_bytes": 0,
            "checkpoints": 0,
            "checkpoint_bytes": 0,
            "recoveries": 0,
            "records_replayed": 0,
            "torn_truncated": 0,
            "corrupt_skipped": 0,
        }
        self._wals: Dict[int, ShardWal] = {}
        self._checkpoints: Dict[int, CheckpointStore] = {}
        #: WAL records above the last checkpoint, per shard (lazily primed
        #: from a listing so reattaching to existing state stays correct).
        self._backlog: Dict[int, int] = {}

    # ------------------------------------------------------------- namespaces

    @staticmethod
    def shard_prefix(shard_id: int) -> str:
        return f"shard-{int(shard_id):04d}"

    def wal(self, shard_id: int) -> ShardWal:
        if shard_id not in self._wals:
            self._wals[shard_id] = ShardWal(
                self.backend, f"{self.shard_prefix(shard_id)}/wal"
            )
        return self._wals[shard_id]

    def checkpoints(self, shard_id: int) -> CheckpointStore:
        if shard_id not in self._checkpoints:
            self._checkpoints[shard_id] = CheckpointStore(
                self.backend,
                f"{self.shard_prefix(shard_id)}/checkpoint",
                retain=RETAIN_CHECKPOINTS,
            )
        return self._checkpoints[shard_id]

    def _now_ms(self) -> float:
        return float(self.clock.now_ms) if self.clock is not None else 0.0

    # --------------------------------------------------------------- manifest

    def write_manifest(self, num_shards: int, key_bits: int, partitioner: str) -> None:
        self.backend.put_json(
            MANIFEST,
            {
                "format": 1,
                "num_shards": int(num_shards),
                "key_bits": int(key_bits),
                "partitioner": str(partitioner),
            },
        )

    def read_manifest(self) -> dict:
        return self.backend.get_json(MANIFEST)

    # -------------------------------------------------------------------- WAL

    def log_batch(
        self,
        shard_id: int,
        lsn: int,
        insert_keys: np.ndarray,
        insert_row_ids: np.ndarray,
        delete_keys: np.ndarray,
    ) -> int:
        """Durably append one acknowledged write batch; returns bytes written."""
        began = time.perf_counter()
        # Prime the backlog *before* the append: the lazy listing would
        # otherwise already include this record and double-count it.
        backlog = self.wal_backlog(shard_id)
        written = self.wal(shard_id).append(lsn, insert_keys, insert_row_ids, delete_keys)
        self._backlog[shard_id] = backlog + 1
        self.counters["wal_appends"] += 1
        self.counters["wal_bytes"] += written
        if self.metrics is not None:
            self.metrics.record_wal_append(shard_id, written, self.backend.fsync)
        if self.tracer.enabled:
            self.tracer.record_span(
                "store.append",
                self._now_ms(),
                (time.perf_counter() - began) * 1e3,
                category="store",
                lane="store",
                shard=int(shard_id),
                lsn=int(lsn),
                bytes=written,
            )
        return written

    def wal_backlog(self, shard_id: int) -> int:
        """WAL records not yet covered by a checkpoint (drives the task tier)."""
        if shard_id not in self._backlog:
            checkpoint = self.checkpoints(shard_id).latest_valid()
            floor = checkpoint.lsn if checkpoint is not None else 0
            self._backlog[shard_id] = sum(
                1
                for record in self.wal(shard_id).read(truncate_torn=False).records
                if record.lsn > floor
            )
        return self._backlog[shard_id]

    # ------------------------------------------------------------ checkpoints

    def checkpoint(
        self,
        shard_id: int,
        keys: np.ndarray,
        row_ids: np.ndarray,
        lsn: int,
        epoch: int = 0,
    ) -> int:
        """Persist a shard checkpoint and truncate the WAL behind it."""
        began = time.perf_counter()
        written = self.checkpoints(shard_id).save(keys, row_ids, lsn, epoch)
        self.wal(shard_id).truncate_through(lsn)
        # Appends that raced past the checkpoint LSN survive truncation and
        # remain the shard's backlog.
        self._backlog[shard_id] = self.wal(shard_id).record_count()
        self.counters["checkpoints"] += 1
        self.counters["checkpoint_bytes"] += written
        if self.metrics is not None:
            self.metrics.record_checkpoint(shard_id, written)
        if self.tracer.enabled:
            self.tracer.record_span(
                "store.checkpoint",
                self._now_ms(),
                (time.perf_counter() - began) * 1e3,
                category="store",
                lane="store",
                shard=int(shard_id),
                lsn=int(lsn),
                bytes=written,
            )
        return written

    # --------------------------------------------------------------- recovery

    def recover_shard(self, shard_id: int) -> ShardRecovery:
        """Latest valid checkpoint plus WAL-tail replay, damage handled."""
        began = time.perf_counter()
        key_dtype = np.uint32 if self.key_bits == 32 else np.uint64
        checkpoint = self.checkpoints(shard_id).latest_valid()
        if checkpoint is not None:
            base_keys, base_rows = checkpoint.keys, checkpoint.row_ids
            base_lsn, epoch = checkpoint.lsn, checkpoint.epoch
        else:
            base_keys = np.empty(0, dtype=key_dtype)
            base_rows = np.empty(0, dtype=np.uint32)
            base_lsn, epoch = 0, 0
        wal_read = self.wal(shard_id).read(truncate_torn=True)
        tail = [record for record in wal_read.records if record.lsn > base_lsn]
        keys, row_ids, lsn, replayed = replay_records(
            base_keys.copy(), base_rows.copy(), tail, base_lsn
        )
        recovery = ShardRecovery(
            shard_id=int(shard_id),
            keys=keys,
            row_ids=row_ids,
            lsn=lsn,
            epoch=epoch,
            checkpoint_lsn=base_lsn,
            checkpoint_keys=base_keys,
            checkpoint_row_ids=base_rows,
            records=tail,
            replayed=replayed,
            torn_truncated=wal_read.torn_truncated,
            corrupt_skipped=wal_read.corrupt_skipped
            + self.checkpoints(shard_id).corrupt_skipped,
            wall_ms=(time.perf_counter() - began) * 1e3,
        )
        self.counters["recoveries"] += 1
        self.counters["records_replayed"] += replayed
        self.counters["torn_truncated"] += wal_read.torn_truncated
        self.counters["corrupt_skipped"] += wal_read.corrupt_skipped
        if self.metrics is not None:
            self.metrics.record_recovery(shard_id, recovery.wall_ms, replayed)
        if self.tracer.enabled:
            self.tracer.record_span(
                "store.recover",
                self._now_ms(),
                recovery.wall_ms,
                category="store",
                lane="store",
                shard=int(shard_id),
                lsn=int(lsn),
                replayed=replayed,
            )
        return recovery

    # ------------------------------------------------------------- deployment

    @staticmethod
    def shard_durable_state(shard) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """A router shard's ``(keys, row_ids, lsn, epoch)`` for checkpointing.

        Replica groups carry their own LSN; plain shards use the shard
        version (bumped once per authoritative mutation) as theirs.  The
        epoch comes from the index's snapshot lifecycle when it has one.
        """
        index = shard.index
        if index is not None and hasattr(index, "replicas"):  # replica group
            epoch = next(
                (
                    int(getattr(replica.index, "epoch", 0))
                    for replica in index.available_replicas()
                ),
                0,
            )
            return index.keys, index.row_ids, int(index.lsn), epoch
        return shard.keys, shard.row_ids, int(shard.version), int(getattr(index, "epoch", 0))

    def checkpoint_deployment(self, router) -> int:
        """Checkpoint every shard at its current LSN and rewrite the manifest.

        Used on attach, after a cold start, and after topology changes
        (splits/merges renumber shards, so every namespace is rebased).
        Shard namespaces beyond the new topology are dropped.
        """
        total = 0
        for shard in router.shards:
            keys, row_ids, lsn, epoch = self.shard_durable_state(shard)
            # Rebase semantics: this checkpoint captures the shard wholesale
            # and its LSN sequence may restart (fresh shard objects count
            # from zero), so prior generations and WAL records are dropped
            # outright — the caller quiesced writes, nothing is racing.
            for name in self.backend.list(f"{self.shard_prefix(shard.shard_id)}/"):
                self.backend.delete(name)
            self._wals.pop(shard.shard_id, None)
            self._checkpoints.pop(shard.shard_id, None)
            self._backlog.pop(shard.shard_id, None)
            total += self.checkpoint(shard.shard_id, keys, row_ids, lsn, epoch)
        for stale_id in self._stale_shard_ids(router.num_shards):
            for name in self.backend.list(f"{self.shard_prefix(stale_id)}/"):
                self.backend.delete(name)
            self._wals.pop(stale_id, None)
            self._checkpoints.pop(stale_id, None)
            self._backlog.pop(stale_id, None)
        self.write_manifest(router.num_shards, self.key_bits, router.partitioner.kind)
        return total

    def _stale_shard_ids(self, num_shards: int) -> List[int]:
        stale = set()
        for name in self.backend.list("shard-"):
            shard_id = int(name.split("/", 1)[0].split("-", 1)[1])
            if shard_id >= num_shards:
                stale.add(shard_id)
        return sorted(stale)
