"""Shard router: scatter/gather over per-shard index instances.

A :class:`ShardRouter` owns one :class:`~repro.baselines.base.GpuIndex`
instance per shard plus the authoritative key/rowID arrays each shard was
built from.  Point-lookup batches are scattered by the partitioner, answered
per shard, and gathered back into request order; range lookups are scattered
only to the shards whose key ranges overlap the query interval.  Updates are
routed the same way — shards whose index type supports native updates apply
them in place, all others are rebuilt from the (updated) authoritative
arrays, which is also the primitive the background maintenance worker uses to
heal degraded shards.  After a native update of an index that can export its
entries, the authoritative arrays are re-exported from it lazily, on their
next read, rather than after every write.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    cancel_opposing_updates,
    delete_one_per_key,
)
from repro.core.keyspace import negative_key_mask, unsigned_points, unsigned_ranges
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.obs.trace import NULL_TRACER
from repro.serve.partition import Partitioner, make_partitioner
from repro.workloads.keygen import KeySet

if TYPE_CHECKING:  # replication imports this module
    from repro.serve.replication import ReplicaGroup

#: Factory building one shard's index from its keyset (harness signature).
ShardFactory = Callable[[KeySet, GpuDevice], GpuIndex]

#: Hottest-chained buckets one :meth:`ShardRouter.compact_shard` folds.
COMPACT_MAX_BUCKETS = 64


def apply_update_to_entries(
    keys: np.ndarray,
    row_ids: np.ndarray,
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
    delete_keys: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Apply an update slice to sorted authoritative ``(keys, row_ids)`` arrays.

    Deletes remove one occurrence per delete key (cgRXu's semantics, via
    :func:`~repro.baselines.base.delete_one_per_key`); inserts land behind
    existing duplicates of the same key.  Returns the new arrays plus the
    number of entries actually removed.  Shared by the shard router and the
    replication layer so every authoritative copy agrees byte-for-byte.
    """
    keys, row_ids, removed = delete_one_per_key(keys, row_ids, delete_keys)
    if insert_keys.size:
        # np.insert places same-position values in argument order, so an
        # unsorted batch would break the sorted invariant; sort it first.
        order = np.argsort(insert_keys, kind="stable")
        insert_keys = insert_keys[order]
        insert_row_ids = insert_row_ids[order]
        positions = np.searchsorted(keys, insert_keys, side="right")
        keys = np.insert(keys, positions, insert_keys)
        row_ids = np.insert(row_ids, positions, insert_row_ids)
    return keys, row_ids, removed




@dataclass
class ShardCall:
    """Per-shard breakdown of the last scattered batch (for skew accounting)."""

    shard_id: int
    batch_size: int
    stats: KernelStats


class LazyEntries:
    """Authoritative ``(keys, row_ids)`` arrays kept as a lazily re-exported
    copy of a live index (router shards and replica groups).

    After a native write the owner only records the index that applied it
    (:meth:`defer_export`); the first read of :attr:`keys` / :attr:`row_ids`
    exports from that recorded object once, so a run of writes between
    readers (rebuilds, reshards, resyncs, checkpoints) costs no whole-shard
    copy per write.  The recorded object is used, not whatever index later
    sits in the owner's slot: a shard whose index was dropped for a
    stop-the-world rebuild, or a replica killed since, still yields the
    entries of the last write.  Owners set ``_keys`` and ``_row_ids``.
    """

    #: Index the arrays must be re-exported from before they are next read
    #: (``None``: the arrays are current).
    _entries_source: Optional[GpuIndex] = None

    def defer_export(self, index: GpuIndex) -> None:
        """``index`` applied a write the arrays do not hold yet (the stale
        arrays are dropped)."""
        self._keys = self._row_ids = None
        self._entries_source = index

    def set_entries(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        """Replace the arrays outright (they are current again)."""
        self._keys, self._row_ids = keys, row_ids
        self._entries_source = None

    def apply_update(
        self, insert_keys: np.ndarray, insert_row_ids: np.ndarray, delete_keys: np.ndarray
    ) -> int:
        """Apply a write to the arrays themselves (for indexes that cannot
        export, and rebuild-fallback shards); returns the entries removed."""
        keys, row_ids, removed = apply_update_to_entries(
            self.keys, self.row_ids, insert_keys, insert_row_ids, delete_keys
        )
        self.set_entries(keys, row_ids)
        return removed

    def _sync_entries(self) -> None:
        if self._entries_source is not None:
            self.set_entries(*self._entries_source.export_entries())

    @property
    def keys(self) -> np.ndarray:
        self._sync_entries()
        return self._keys

    @property
    def row_ids(self) -> np.ndarray:
        self._sync_entries()
        return self._row_ids

    @property
    def num_entries(self) -> int:
        if self._entries_source is not None:
            return len(self._entries_source)
        return int(self._keys.shape[0])


@dataclass
class _Shard(LazyEntries):
    """One shard: its index instance and the authoritative entry arrays
    (a lazily re-exported copy, see :class:`LazyEntries`)."""

    shard_id: int
    #: Authoritative keys, kept sorted ascending (read through :attr:`keys`).
    _keys: np.ndarray
    #: RowIDs aligned with ``_keys`` (read through :attr:`row_ids`).
    _row_ids: np.ndarray
    index: Optional[GpuIndex] = None
    #: Number of rebuilds this shard has seen (bulk load included).
    builds: int = 0
    #: Bumped once per write batch the shard takes: a plain shard's WAL LSN.
    version: int = 0


class ShardRouter:
    """Range- or hash-partitioned deployment of one index type."""

    #: Replica groups by shard id: none here, one per shard in
    #: :class:`~repro.serve.replication.ReplicatedShardRouter`.
    groups: Mapping[int, ReplicaGroup] = MappingProxyType({})

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: np.ndarray,
        factory: ShardFactory,
        num_shards: int,
        partitioner: str = "range",
        key_bits: int = 64,
        device: GpuDevice = RTX_4090,
    ) -> None:
        if key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        self.key_bits = key_bits
        self.key_bytes = key_bits // 8
        self._key_dtype = np.uint32 if key_bits == 32 else np.uint64
        self.device = device
        self.factory = factory

        keys = np.asarray(keys, dtype=self._key_dtype)
        row_ids = np.asarray(row_ids, dtype=np.uint32)
        self.partitioner: Partitioner = make_partitioner(partitioner, keys, num_shards)

        shard_ids = self.partitioner.shard_of(keys)
        self.shards: List[_Shard] = []
        for shard_id in range(self.partitioner.num_shards):
            member = shard_ids == shard_id
            shard_keys = keys[member]
            shard_rows = row_ids[member]
            order = np.argsort(shard_keys, kind="stable")
            shard = _Shard(shard_id, shard_keys[order], shard_rows[order])
            self._build_shard(shard)
            self.shards.append(shard)

        #: Span sink; the deployment points this at its tracer (the shared
        #: disabled tracer by default, so emission sites cost one flag check).
        self.tracer = NULL_TRACER
        #: Durable tier; when attached, every acknowledged write batch of a
        #: plain (unreplicated) shard is WAL-logged here before it returns.
        #: Replica groups carry their own store reference and log themselves.
        self.store = None
        #: Per-shard breakdown of the most recent scattered call.
        self.last_calls: List[ShardCall] = []
        #: Shards whose read came back as an explicit partial result on the
        #: most recent scattered call (reliability layer armed; their gather
        #: positions carry deterministic miss answers).
        self.last_unavailable_shards: List[int] = []
        #: Shard of every key of the most recent point batch (-1 for negative
        #: keys, which are never scattered).
        self.last_shard_ids = np.empty(0, dtype=np.int64)
        #: Largest deployment footprint a rebuild, split or merge reached:
        #: the live indexes plus the replacements built beside them.
        self.rebuild_peak_bytes: int = 0

    # -------------------------------------------------------------- structure

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    def shard_sizes(self) -> np.ndarray:
        """Authoritative entry count per shard (drives the skew metric)."""
        return np.asarray([shard.num_entries for shard in self.shards], dtype=np.int64)

    @property
    def num_entries(self) -> int:
        return int(self.shard_sizes().sum())

    def build_time_ms(self) -> float:
        """Simulated bulk-load time: shards build concurrently, so the makespan."""
        times = [
            shard.index.build_time_ms for shard in self.shards if shard.index is not None
        ]
        return max(times) if times else 0.0

    def _make_index(self, shard: _Shard) -> Optional[GpuIndex]:
        """Build an index instance from the shard's authoritative arrays.

        ``None`` for an empty shard (lookups into it are trivial misses).
        """
        if shard.num_entries == 0:
            return None
        keyset = KeySet(
            keys=shard.keys.copy(),
            row_ids=shard.row_ids.copy(),
            key_bits=self.key_bits,
            description=f"shard {shard.shard_id}",
        )
        return self.factory(keyset, self.device)

    def _build_shard(self, shard: _Shard) -> List[KernelStats]:
        """(Re)build one shard's index in place from its authoritative arrays."""
        shard.index = self._make_index(shard)
        shard.builds += 1
        return list(shard.index.build_stats) if shard.index is not None else []

    # --------------------------------------------------------------- lifecycle

    def _check_shard_id(self, shard_id: int, limit: int) -> int:
        """``shard_id`` as an int; ``ValueError`` unless ``0 <= shard_id < limit``.

        Lifecycle calls check before they build anything: list indexing
        would let ``-1`` name the last shard.
        """
        shard_id = int(shard_id)
        if not 0 <= shard_id < limit:
            raise ValueError(f"shard id {shard_id} is not in [0, {limit})")
        return shard_id

    def _record_peak(self, *replacements: Optional[GpuIndex]) -> None:
        """Raise :attr:`rebuild_peak_bytes` to the live footprint plus the
        replacements built beside it (``None`` for an empty one)."""
        resident = self.memory_footprint_bytes() + sum(
            index.memory_footprint().total_bytes
            for index in replacements
            if index is not None
        )
        self.rebuild_peak_bytes = max(self.rebuild_peak_bytes, resident)

    def _make_replacement(self, shard: _Shard) -> Optional[GpuIndex]:
        """Build a shard's replacement index for a double-buffered rebuild.

        Indexes with a snapshot lifecycle (cgRXu) are rebuilt through
        ``snapshot()``/``build_from_snapshot()`` so the replacement carries
        the epoch lineage (``epoch + 1``); everything else is rebuilt from
        the authoritative arrays, which track the live index's entries
        byte-for-byte either way.
        """
        live = shard.index
        if (
            live is not None
            and shard.num_entries > 0
            and live.supports_updates
            and hasattr(live, "snapshot")
            and hasattr(live, "build_from_snapshot")
        ):
            # Only native updaters rebuild via their own snapshot: their live
            # entries track every write.  A rebuild-fallback index (cgRX) is
            # rebuilt from the authoritative arrays, which may already be
            # ahead of the live index within this very update.
            return live.build_from_snapshot(live.snapshot(), device=self.device)
        # Empty shards (or index types without a snapshot lifecycle) rebuild
        # from the authoritative arrays; an emptied shard's replacement is
        # simply no index at all.
        return self._make_index(shard)

    def rebuild_shard(self, shard_id: int, mode: str = "double_buffered") -> KernelStats:
        """Rebuild one shard from scratch; returns the build work performed.

        ``double_buffered`` (default) builds the replacement off the request
        path and swaps it in atomically — the shard serves throughout, at
        the price of both generations being resident during the build
        (recorded in :attr:`rebuild_peak_bytes`).
        ``stop_the_world`` takes the shard offline for the build (the
        pre-lifecycle behaviour); the caller accounts the outage window
        against availability.
        """
        shard_id = self._check_shard_id(shard_id, self.num_shards)
        shard = self.shards[shard_id]
        if mode == "double_buffered":
            replacement = self._make_replacement(shard)
            self._record_peak(replacement)
            shard.index = replacement
            shard.builds += 1
            build_stats = list(replacement.build_stats) if replacement is not None else []
        elif mode == "stop_the_world":
            shard.index = None  # offline for the duration of the build
            build_stats = self._build_shard(shard)
            self._record_peak()
        else:
            raise ValueError(f"unknown rebuild mode {mode!r}")
        return combine(f"serve.rebuild_shard_{shard_id}", build_stats)

    def compact_shard(self, shard_id: int) -> Optional[KernelStats]:
        """Compact the hottest-chained buckets of one shard.

        The cheap first maintenance tier: fold the :data:`COMPACT_MAX_BUCKETS`
        longest node chains of a chain-based index (cgRXu, or every replica of
        a cgRXu replica group) back into minimal chains.  ``None`` when the
        shard is empty, its index type has no chains, or no bucket is chained
        at all.
        """
        index = self.shards[self._check_shard_id(shard_id, self.num_shards)].index
        if index is None:
            return None
        compact = getattr(index, "compact_buckets", None)
        chain_lengths = getattr(index, "bucket_chain_lengths", None)
        if not callable(compact) or not callable(chain_lengths):
            return None
        lengths = np.asarray(chain_lengths())
        chained = np.nonzero(lengths > 1)[0]
        if chained.size == 0:
            return None
        hottest = chained[np.argsort(lengths[chained], kind="stable")[::-1]]
        return compact(hottest[:COMPACT_MAX_BUCKETS])

    # --------------------------------------------------------------- resharding

    @property
    def supports_resharding(self) -> bool:
        """Whether the deployment can split/merge shards in place."""
        return self.partitioner.supports_resharding

    def _build_from_slice(
        self, label: str, keys: np.ndarray, row_ids: np.ndarray, lineage: Optional[GpuIndex]
    ) -> Optional[GpuIndex]:
        """Build a replacement index from an authoritative-array slice.

        When the live index carries the snapshot lifecycle (cgRXu), the
        replacement is built through a sliced snapshot so it keeps the epoch
        lineage (``epoch + 1``), exactly like a double-buffered rebuild;
        otherwise it is built through the shard factory.  ``None`` for an
        empty slice.
        """
        if keys.shape[0] == 0:
            return None
        if (
            lineage is not None
            and hasattr(lineage, "snapshot")
            and hasattr(lineage, "build_from_snapshot")
        ):
            snapshot = lineage.snapshot()
            sliced = dataclasses.replace(
                snapshot, keys=keys.copy(), row_ids=row_ids.copy()
            )
            return lineage.build_from_snapshot(sliced, device=self.device)
        keyset = KeySet(
            keys=keys.copy(),
            row_ids=row_ids.copy(),
            key_bits=self.key_bits,
            description=label,
        )
        return self.factory(keyset, self.device)

    def _check_reshardable(self) -> None:
        if not self.supports_resharding:
            raise ValueError(
                f"{self.partitioner.kind} partitioner cannot reshard in place"
            )

    def split_shard(self, shard_id: int, split_key: Optional[int] = None) -> KernelStats:
        """Replace one shard by its two halves at ``split_key``.

        Both halves are built while the live shard keeps serving (both
        generations count toward :attr:`rebuild_peak_bytes`), then swapped
        in, so the split has no unavailability window.  ``split_key``
        defaults to the shard's median stored key; it must divide the
        stored entries so both halves are non-empty.
        """
        shard_id = self._check_shard_id(shard_id, self.num_shards)
        self._check_reshardable()
        shard = self.shards[shard_id]
        if shard.num_entries < 2:
            raise ValueError(f"shard {shard_id} is too small to split")
        if split_key is None:
            split_key = int(shard.keys[shard.num_entries // 2])
        split_key = max(int(split_key), 0)
        keys, row_ids = shard.keys, shard.row_ids
        position = int(np.searchsorted(keys, keys.dtype.type(split_key), side="left"))
        if position <= 0 or position >= shard.num_entries:
            raise ValueError("split key does not divide the shard's entries")
        halves = (slice(0, position), slice(position, None))
        built = [
            self._build_from_slice(
                f"shard {shard_id}{side}", keys[half], row_ids[half], shard.index
            )
            for side, half in zip("LR", halves)
        ]
        self._record_peak(*built)
        self.partitioner.split_at(shard_id, split_key)
        self.shards[shard_id : shard_id + 1] = [
            _Shard(
                shard_id + offset,
                keys[half].copy(),
                row_ids[half].copy(),
                index=index,
                builds=shard.builds + 1,
            )
            for offset, (half, index) in enumerate(zip(halves, built))
        ]
        self._renumber_shards()
        return combine(
            f"serve.split_shard_{shard_id}",
            [s for index in built for s in index.build_stats],
        )

    def merge_shards(self, shard_id: int) -> KernelStats:
        """Replace ``shard_id`` and its right neighbour by one shard.

        The combined index is built while both shards keep serving (counted
        in :attr:`rebuild_peak_bytes`), then swapped in.
        """
        shard_id = self._check_shard_id(shard_id, self.num_shards - 1)
        self._check_reshardable()
        left, right = self.shards[shard_id], self.shards[shard_id + 1]
        # Left keys all sort below the boundary the right shard starts at,
        # so concatenation preserves the sorted invariant.
        keys = np.concatenate([left.keys, right.keys])
        row_ids = np.concatenate([left.row_ids, right.row_ids])
        combined = self._build_from_slice(
            f"shard {shard_id}M",
            keys,
            row_ids,
            left.index if left.index is not None else right.index,
        )
        self._record_peak(combined)
        self.partitioner.merge_with_next(shard_id)
        builds = max(left.builds, right.builds) + 1
        self.shards[shard_id : shard_id + 2] = [
            _Shard(shard_id, keys, row_ids, index=combined, builds=builds)
        ]
        self._renumber_shards()
        return combine(
            f"serve.merge_shard_{shard_id}",
            list(combined.build_stats) if combined is not None else [],
        )

    def _renumber_shards(self) -> None:
        for position, shard in enumerate(self.shards):
            shard.shard_id = position

    def _routing_stats(self, num_keys: int) -> KernelStats:
        return KernelStats(
            name="serve.route",
            threads=num_keys,
            bytes_read=num_keys * self.key_bytes,
            compute_ops=self.partitioner.routing_compute_ops(num_keys),
            launches=1,
        )

    def replication_snapshot(self) -> Optional[dict]:
        """Replica/availability report; ``None`` without replication."""
        return None

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        """Scatter a point-lookup batch, answer per shard, gather in order.

        Negative (signed-dtype) keys are below the unsigned stored keyspace:
        they are answered as definitional misses without touching any shard.
        Casting them instead would wrap them to the top of the keyspace and —
        for 32-bit deployments — alias real stored keys.
        """
        keys, negative = unsigned_points(keys, self._key_dtype)
        num = int(keys.shape[0])
        row_agg = np.full(num, -1, dtype=np.int64)
        counts = np.zeros(num, dtype=np.int64)
        parts: List[KernelStats] = [self._routing_stats(num)]
        self.last_calls = []
        self.last_unavailable_shards = []
        self.last_shard_ids = np.empty(0, dtype=np.int64)

        tracer = self.tracer
        scatter_span = None
        if tracer.enabled:
            now_ms = tracer.clock.now_ms if tracer.clock is not None else 0.0
            scatter_span = tracer.push_span(
                "router.scatter",
                now_ms,
                category="router",
                lane="router",
                batch_size=num,
                partitioner=self.partitioner.kind,
            )
        try:
            if num:
                shard_ids = self.partitioner.shard_of(keys)
                if negative is not None:
                    # Out-of-domain keys keep the (-1, 0) miss answer and are
                    # never scattered.
                    shard_ids[negative] = -1
                self.last_shard_ids = shard_ids
                for shard_id in np.unique(shard_ids):
                    if shard_id < 0:
                        continue
                    member = np.where(shard_ids == shard_id)[0]
                    shard = self.shards[int(shard_id)]
                    if shard.index is None:
                        continue
                    result = shard.index.point_lookup_batch(keys[member])
                    row_agg[member] = result.row_ids
                    counts[member] = result.match_counts
                    parts.append(result.stats)
                    self.last_calls.append(
                        ShardCall(int(shard_id), int(member.shape[0]), result.stats)
                    )
                    if getattr(shard.index, "last_read_unavailable", False):
                        self.last_unavailable_shards.append(int(shard_id))
                    if scatter_span is not None:
                        # Shards answer concurrently: the scatter/gather span
                        # covers the slowest shard call of the batch.
                        shard_ms = shard.index.lookup_time_ms(result)
                        scatter_span.duration_ms = max(
                            scatter_span.duration_ms, shard_ms
                        )
                        tracer.record_span(
                            "router.shard_call",
                            scatter_span.start_ms,
                            shard_ms,
                            category="router",
                            lane=f"shard-{int(shard_id)}",
                            parent=scatter_span,
                            shard=int(shard_id),
                            batch_size=int(member.shape[0]),
                        )
        finally:
            if scatter_span is not None:
                tracer.pop()
        stats = combine("serve.point_lookup", parts)
        return LookupResult(row_ids=row_agg, match_counts=counts, stats=stats)

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        """Scatter range lookups to overlapping shards and gather each
        range's rows in shard order.

        Negative endpoints clamp to the bottom of the unsigned keyspace: a
        range whose high end is negative matches nothing, one that straddles
        zero behaves like ``[0, high]``.  A range one shard answers gets
        that shard's array as it is; only a range with rows from two or more
        shards is concatenated.
        """
        lows_raw = np.asarray(lows)
        highs_raw = np.asarray(highs)
        lows, highs = unsigned_ranges(lows_raw, highs_raw, self._key_dtype)
        num = int(lows.shape[0])
        parts: List[KernelStats] = [self._routing_stats(num)]
        self.last_calls = []
        self.last_unavailable_shards = []

        # Scatter: shard -> positions of the queries that touch it, from
        # every query's shard span in two vectorized searchsorted sweeps.
        # Routing sees the *raw* endpoints so entirely-negative ranges get an
        # empty shard span instead of a clamped one.
        per_shard: Dict[int, np.ndarray] = {}
        first, last = self.partitioner.shard_span_batch(lows_raw, highs_raw)
        for shard_id in range(self.num_shards):
            member = np.nonzero((first <= shard_id) & (shard_id <= last))[0]
            if member.size:
                per_shard[shard_id] = member

        tracer = self.tracer
        scatter_span = None
        if tracer.enabled:
            now_ms = tracer.clock.now_ms if tracer.clock is not None else 0.0
            scatter_span = tracer.push_span(
                "router.scatter",
                now_ms,
                category="router",
                lane="router",
                batch_size=num,
                partitioner=self.partitioner.kind,
                kind="range",
            )
        row_ids: List[Optional[np.ndarray]] = [None] * num
        try:
            for shard_id in sorted(per_shard):
                shard = self.shards[shard_id]
                if shard.index is None:
                    continue
                positions = per_shard[shard_id]
                result = shard.index.range_lookup_batch(lows[positions], highs[positions])
                for position, rows in zip(positions.tolist(), result.row_ids):
                    if rows.shape[0]:
                        held = row_ids[position]
                        row_ids[position] = (
                            rows if held is None else np.concatenate((held, rows))
                        )
                parts.append(result.stats)
                self.last_calls.append(ShardCall(shard_id, len(positions), result.stats))
                if getattr(shard.index, "last_read_unavailable", False):
                    self.last_unavailable_shards.append(int(shard_id))
                if scatter_span is not None:
                    shard_ms = shard.index.lookup_time_ms(result)
                    scatter_span.duration_ms = max(scatter_span.duration_ms, shard_ms)
                    tracer.record_span(
                        "router.shard_call",
                        scatter_span.start_ms,
                        shard_ms,
                        category="router",
                        lane=f"shard-{shard_id}",
                        parent=scatter_span,
                        shard=shard_id,
                        batch_size=len(positions),
                    )
        finally:
            if scatter_span is not None:
                tracer.pop()

        row_ids = [
            np.empty(0, dtype=np.uint32) if rows is None else rows for rows in row_ids
        ]
        stats = combine("serve.range_lookup", parts)
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Route an update batch; rebuild shards whose index cannot update in place.

        Negative keys are rejected uniformly at this boundary: the stored
        keyspace is unsigned, so a signed key can neither be inserted nor
        name an entry to delete — silently wrapping it would corrupt a
        different key's entries.
        """
        for side, batch in (("insert", insert_keys), ("delete", delete_keys)):
            if batch is not None and negative_key_mask(np.asarray(batch)) is not None:
                raise ValueError(
                    f"negative {side} keys are outside the unsigned keyspace"
                )
        insert_keys = (
            np.asarray(insert_keys, dtype=self._key_dtype)
            if insert_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        if insert_row_ids is None:
            insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
        insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
        delete_keys = (
            np.asarray(delete_keys, dtype=self._key_dtype)
            if delete_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )

        # Normalising to cgRXu's cancellation semantics here keeps every
        # shard type — native updaters and rebuild-fallback shards alike —
        # in agreement with the authoritative arrays, so background
        # rebuilds can never change query answers.
        insert_keys, insert_row_ids, delete_keys = cancel_opposing_updates(
            insert_keys, insert_row_ids, delete_keys
        )

        parts: List[KernelStats] = [
            self._routing_stats(int(insert_keys.shape[0] + delete_keys.shape[0]))
        ]
        insert_shards = self.partitioner.shard_of(insert_keys)
        delete_shards = self.partitioner.shard_of(delete_keys)

        inserted = 0
        deleted = 0
        any_rebuilt = False
        touched = np.union1d(np.unique(insert_shards), np.unique(delete_shards))
        for shard_id in touched:
            shard = self.shards[int(shard_id)]
            shard_inserts = insert_keys[insert_shards == shard_id]
            shard_insert_rows = insert_row_ids[insert_shards == shard_id]
            shard_deletes = delete_keys[delete_shards == shard_id]
            inserted += int(shard_inserts.shape[0])

            native = shard.index is not None and shard.index.supports_updates
            if native:
                result = shard.index.update_batch(
                    insert_keys=shard_inserts if shard_inserts.size else None,
                    insert_row_ids=shard_insert_rows if shard_inserts.size else None,
                    delete_keys=shard_deletes if shard_deletes.size else None,
                )
                parts.append(result.stats)
                any_rebuilt = any_rebuilt or result.rebuilt
            if native and shard.index.supports_export:
                # The live index's entries become the authoritative state
                # (re-exported when next read): a rebuild then reproduces it
                # exactly, duplicate tie-order included.
                shard.defer_export(shard.index)
                deleted += result.deleted
            else:
                deleted += shard.apply_update(
                    shard_inserts, shard_insert_rows, shard_deletes
                )
            shard.version += 1
            if not native:
                parts.append(self.rebuild_shard(int(shard_id)))
                any_rebuilt = True

            if self.store is not None and getattr(shard.index, "store", None) is None:
                # Plain shards have no replication log; the shard version
                # (bumped exactly once above) is their LSN.  Replica groups
                # WAL-logged this batch themselves before acknowledging.
                self.store.log_batch(
                    int(shard_id),
                    shard.version,
                    shard_inserts,
                    shard_insert_rows,
                    shard_deletes,
                )

        stats = combine("serve.update", parts)
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=any_rebuilt)

    # ------------------------------------------------------------------ memory

    def memory_footprint_bytes(self) -> int:
        """Resident device bytes of the live shard indexes."""
        return int(
            sum(
                shard.index.memory_footprint().total_bytes
                for shard in self.shards
                if shard.index is not None
            )
        )
