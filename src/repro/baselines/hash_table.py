"""HT: GPU-resident open-addressing hash table with cooperative probing.

Modelled after warpcore: a power-of-two slot array probed linearly by a
cooperative group.  The recommended target load factor is 80% for read-mostly
workloads and 40% when updates are expected, as used in the paper.  Hash
tables answer point lookups extremely fast but support no range lookups,
which is why the paper treats HT as the upper bound for point-lookup
throughput rather than a direct competitor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import GpuIndex, LookupResult, UpdateResult
from repro.core.keyspace import drop_negative_points, scatter_answers
from repro.gpu.cost_model import UNCOALESCED_ACCESS_BYTES
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint

#: Multiplicative constant of the 64-bit mix hash (splitmix64 finaliser).
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


_UINT64_MASK = (1 << 64) - 1


def _mix_hash(key: int) -> int:
    """Splitmix64 finaliser, a good avalanche hash for integer keys."""
    value = int(key) & _UINT64_MASK
    value ^= value >> 30
    value = (value * int(_MIX_1)) & _UINT64_MASK
    value ^= value >> 27
    value = (value * int(_MIX_2)) & _UINT64_MASK
    value ^= value >> 31
    return value


class HashTableIndex(GpuIndex):
    """Open-addressing hash table with linear (cooperative) probing (HT)."""

    name = "HT"
    supports_point = True
    supports_range = False
    supports_64bit = True
    supports_updates = True
    supports_bulk_load = False
    memory_class = "med"

    #: Slot states.
    _EMPTY = 0
    _OCCUPIED = 1
    _TOMBSTONE = 2

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        key_bits: int = 64,
        load_factor: float = 0.8,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        if key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        if not 0.0 < load_factor < 1.0:
            raise ValueError("load_factor must be in (0, 1)")
        self.key_bits = key_bits
        self.key_bytes = key_bits // 8
        self.load_factor = load_factor
        self._key_dtype = np.uint32 if key_bits == 32 else np.uint64

        keys = np.asarray(keys, dtype=self._key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        self._allocate(self._capacity_for(keys.shape[0]))
        total_probes = self._insert_all(keys, row_ids)
        self.build_stats = [
            KernelStats(
                name="ht.build",
                threads=int(keys.shape[0]),
                bytes_read=int(keys.shape[0]) * (self.key_bytes + 4),
                bytes_written=total_probes * self._slot_bytes,
                compute_ops=total_probes * 2,
                launches=1,
            )
        ]

    # ------------------------------------------------------------- internals

    @property
    def _slot_bytes(self) -> int:
        """Bytes per slot: key plus aggregated value."""
        return self.key_bytes + 8

    @property
    def _probe_bytes(self) -> int:
        """DRAM traffic per probe: at least one memory sector."""
        return max(self._slot_bytes, UNCOALESCED_ACCESS_BYTES)

    def _capacity_for(self, num_keys: int) -> int:
        """Smallest power of two giving at most the target load factor."""
        needed = max(8, int(np.ceil(num_keys / self.load_factor)))
        capacity = 1
        while capacity < needed:
            capacity <<= 1
        return capacity

    def _allocate(self, capacity: int) -> None:
        self.capacity = capacity
        self._slot_keys = np.zeros(capacity, dtype=self._key_dtype)
        self._slot_agg = np.zeros(capacity, dtype=np.int64)
        self._slot_count = np.zeros(capacity, dtype=np.int64)
        self._slot_state = np.full(capacity, self._EMPTY, dtype=np.int8)
        self._occupied = 0

    def _probe_insert(self, key: int, row_id_sum: int, count: int) -> int:
        """Insert (or merge into) a slot; returns the number of probes."""
        mask = self.capacity - 1
        slot = _mix_hash(key) & mask
        probes = 0
        first_tombstone = -1
        while True:
            probes += 1
            state = self._slot_state[slot]
            if state == self._OCCUPIED and int(self._slot_keys[slot]) == key:
                self._slot_agg[slot] += row_id_sum
                self._slot_count[slot] += count
                return probes
            if state == self._EMPTY:
                target = first_tombstone if first_tombstone >= 0 else slot
                self._slot_keys[target] = key
                self._slot_agg[target] = row_id_sum
                self._slot_count[target] = count
                self._slot_state[target] = self._OCCUPIED
                self._occupied += 1
                return probes
            if state == self._TOMBSTONE and first_tombstone < 0:
                first_tombstone = slot
            slot = (slot + 1) & mask

    def _insert_all(self, keys: np.ndarray, row_ids: np.ndarray) -> int:
        """Insert a batch, aggregating duplicate keys, and return total probes."""
        if keys.shape[0] == 0:
            return 0
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_row_ids = row_ids[order].astype(np.int64)
        unique_keys, start_positions, counts = np.unique(
            sorted_keys, return_index=True, return_counts=True
        )
        prefix = np.concatenate([[0], np.cumsum(sorted_row_ids)])
        total_probes = 0
        for position, key in enumerate(unique_keys):
            start = int(start_positions[position])
            count = int(counts[position])
            row_id_sum = int(prefix[start + count] - prefix[start])
            total_probes += self._probe_insert(int(key), row_id_sum, count)
        return total_probes

    def _maybe_grow(self, additional: int) -> None:
        """Grow and rehash when the target load factor would be exceeded."""
        if (self._occupied + additional) / self.capacity <= self.load_factor:
            return
        old_keys = self._slot_keys[self._slot_state == self._OCCUPIED].copy()
        old_agg = self._slot_agg[self._slot_state == self._OCCUPIED].copy()
        old_count = self._slot_count[self._slot_state == self._OCCUPIED].copy()
        self._allocate(self._capacity_for(self._occupied + additional))
        for key, agg, count in zip(old_keys, old_agg, old_count):
            self._probe_insert(int(key), int(agg), int(count))

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        keys, negative = drop_negative_points(keys, self._key_dtype)
        num_lookups = int(keys.shape[0])
        row_agg = np.full(num_lookups, -1, dtype=np.int64)
        match_counts = np.zeros(num_lookups, dtype=np.int64)

        mask = self.capacity - 1
        total_probes = 0
        for position, key in enumerate(keys):
            key_value = int(key)
            slot = _mix_hash(key_value) & mask
            while True:
                total_probes += 1
                state = self._slot_state[slot]
                if state == self._EMPTY:
                    break
                if state == self._OCCUPIED and int(self._slot_keys[slot]) == key_value:
                    row_agg[position] = int(self._slot_agg[slot])
                    match_counts[position] = int(self._slot_count[slot])
                    break
                slot = (slot + 1) & mask

        stats = KernelStats(
            name="ht.point_lookup",
            threads=num_lookups,
            bytes_read=total_probes * self._probe_bytes + num_lookups * self.key_bytes,
            bytes_written=num_lookups * 8,
            compute_ops=total_probes * 2 + num_lookups * 4,
            divergence=1.1,
            launches=1,
        )
        stats.cache_hit_fraction = self.cost_model.cache_hit_fraction(
            self.memory_footprint().total_bytes, self._unique_fraction(keys)
        )
        return scatter_answers(
            LookupResult(row_ids=row_agg, match_counts=match_counts, stats=stats), negative
        )

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """In-place inserts and tombstone deletes (no rebuild needed)."""
        stats = KernelStats(name="ht.update", launches=1)
        deleted = 0
        mask = self.capacity - 1

        if delete_keys is not None and len(delete_keys) > 0:
            delete_keys = np.asarray(delete_keys, dtype=self._key_dtype)
            probes = 0
            for key in delete_keys:
                key_value = int(key)
                slot = _mix_hash(key_value) & mask
                while True:
                    probes += 1
                    state = self._slot_state[slot]
                    if state == self._EMPTY:
                        break
                    if state == self._OCCUPIED and int(self._slot_keys[slot]) == key_value:
                        if self._slot_count[slot] > 1:
                            self._slot_count[slot] -= 1
                        else:
                            self._slot_state[slot] = self._TOMBSTONE
                            self._occupied -= 1
                        deleted += 1
                        break
                    slot = (slot + 1) & mask
            stats.threads = max(stats.threads, int(delete_keys.shape[0]))
            stats.bytes_read += probes * self._slot_bytes
            stats.bytes_written += deleted * self._slot_bytes
            stats.compute_ops += probes * 2
            mask = self.capacity - 1

        inserted = 0
        if insert_keys is not None and len(insert_keys) > 0:
            insert_keys = np.asarray(insert_keys, dtype=self._key_dtype)
            if insert_row_ids is None:
                insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
            insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
            self._maybe_grow(int(np.unique(insert_keys).shape[0]))
            probes = self._insert_all(insert_keys, insert_row_ids)
            inserted = int(insert_keys.shape[0])
            stats.threads = max(stats.threads, inserted)
            stats.bytes_read += inserted * (self.key_bytes + 4)
            stats.bytes_written += probes * self._slot_bytes
            stats.compute_ops += probes * 2

        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=False)

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        footprint.add("slot_array", self.capacity * self._slot_bytes)
        return footprint
