"""LRU result cache with a negative-entry side and hit/miss accounting.

Served point lookups are heavily skewed (Zipfian client arrivals), so a small
host-side cache in front of the device absorbs a large fraction of the
traffic.  The cache stores the *aggregated* lookup answer per key — the same
``(rowID aggregate, match count)`` pair a :class:`~repro.baselines.base.LookupResult`
carries — and it also caches misses ("negative entries"): a key that is known
not to be indexed is answered without touching the device at all, which is
exactly the out-of-range/miss traffic Figure 16 of the paper shows to be the
cheapest to answer.

Invalidation is exact-key: an entry (positive or negative) is only stale if
its own key was inserted or deleted, so update batches drop exactly those
entries.  Blanket trimming of negative entries (when they crowd out positive
hits) is a hygiene task of the maintenance worker, not a correctness need.

Multi-tenant deployments can carve the capacity into **per-tenant
partitions** (``partitions={tenant_id: share}``): each partition runs its own
LRU list under its own capacity slice, so one tenant's flood cannot evict
another tenant's working set.  Traffic without a tenant label (and tenants
without a reserved share) lands in the shared default partition.
Invalidation stays exact-key *across all partitions* — a write makes every
tenant's cached copy of that key stale.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss accounting of a :class:`ResultCache`."""

    #: Lookups answered from a positive (hit) entry.
    hits: int = 0
    #: Lookups answered from a negative (known-miss) entry.
    negative_hits: int = 0
    #: Lookups that had to go to the device.
    misses: int = 0
    #: Entries dropped by the LRU policy.
    evictions: int = 0
    #: Entries dropped by update invalidation (exact-key or negative-trim).
    invalidations: int = 0
    #: Entries dropped by whole-cache clears (rebuild swaps, resharding).
    #: Accounted separately from invalidations so the cache panel stays
    #: attributable during maintenance windows.
    bulk_clears: int = 0
    #: Entries written into the cache.
    insertions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.negative_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (positive or negative)."""
        if self.requests == 0:
            return 0.0
        return (self.hits + self.negative_hits) / self.requests

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "negative_hits": self.negative_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bulk_clears": self.bulk_clears,
            "insertions": self.insertions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    """One cached answer: aggregate rowID and match count (0 == negative)."""

    row_agg: int
    match_count: int


class _Partition:
    """One LRU list with its own capacity slice."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.entries: "OrderedDict[int, _Entry]" = OrderedDict()


class ResultCache:
    """Bounded LRU cache of per-key point-lookup answers.

    ``capacity`` bounds the number of resident entries; positive and negative
    entries share the same LRU list (a hot miss is as worth caching as a hot
    hit).  Lookups move entries to the MRU position.

    ``partitions`` optionally reserves a fraction of the capacity per tenant
    (``{tenant_id: share}``, shares in ``(0, 1]`` summing to at most 1); the
    remainder backs the shared default partition.  Without partitions the
    cache is a single shared LRU — byte-identical to the pre-tenant behavior.
    """

    def __init__(
        self,
        capacity: int,
        partitions: Optional[Dict[int, float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._parts: "Dict[Optional[int], _Partition]" = {}
        if partitions:
            total_share = float(sum(partitions.values()))
            if total_share > 1.0 + 1e-9:
                raise ValueError("tenant cache shares must sum to <= 1")
            reserved = 0
            for tenant, share in sorted(partitions.items()):
                if share <= 0:
                    raise ValueError("tenant cache shares must be > 0")
                slice_capacity = max(1, int(self.capacity * float(share)))
                self._parts[int(tenant)] = _Partition(slice_capacity)
                reserved += slice_capacity
            shared = max(1, self.capacity - reserved)
        else:
            shared = self.capacity
        self._parts[None] = _Partition(shared)
        self.stats = CacheStats()
        #: Resident negative entries, kept exact by every method that adds,
        #: overwrites or drops an entry.
        self._negatives = 0

    def _partition(self, tenant: Optional[int]) -> _Partition:
        if tenant is None:
            return self._parts[None]
        return self._parts.get(int(tenant), self._parts[None])

    @property
    def tenant_ids(self) -> Tuple[int, ...]:
        """Tenants with a reserved partition (shared partition excluded)."""
        return tuple(sorted(t for t in self._parts if t is not None))

    def partition_sizes(self) -> Dict[Optional[int], int]:
        """Resident entry count per partition (``None`` = shared)."""
        return {tenant: len(part.entries) for tenant, part in self._parts.items()}

    def __len__(self) -> int:
        return sum(len(part.entries) for part in self._parts.values())

    def __contains__(self, key: int) -> bool:
        key = int(key)
        return any(key in part.entries for part in self._parts.values())

    @property
    def negative_count(self) -> int:
        """Number of resident negative (known-miss) entries, across partitions.

        O(1): a counter that :meth:`put` (new entries, positive/negative
        overwrites, LRU evictions), :meth:`invalidate_keys`,
        :meth:`invalidate_negative` and :meth:`clear` keep exact, so the
        end-of-stream telemetry publish and every maintenance scan read it
        without walking the resident entries.
        """
        return self._negatives

    @property
    def negative_fraction(self) -> float:
        """Fraction of the resident entries that are negative."""
        resident = len(self)
        if not resident:
            return 0.0
        return self.negative_count / resident

    # ----------------------------------------------------------------- lookup

    def get(self, key: int, tenant: Optional[int] = None) -> Optional[_Entry]:
        """Cached answer for ``key``, updating LRU order and accounting.

        Lookups only see the requesting tenant's partition (or the shared
        one): isolation means a tenant can neither evict nor observe another
        tenant's entries.
        """
        key = int(key)
        part = self._partition(tenant)
        entry = part.entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        part.entries.move_to_end(key)
        if entry.match_count > 0:
            self.stats.hits += 1
        else:
            self.stats.negative_hits += 1
        return entry

    def probe_batch(
        self, keys: np.ndarray, tenants: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe a whole lookup batch.

        Returns ``(cached_mask, row_agg, match_counts)``: positions with
        ``cached_mask`` set carry their answer in the other two arrays, the
        rest must be served by the index.  ``tenants`` (when given) selects
        the partition probed per position.
        """
        num = int(keys.shape[0])
        cached = np.zeros(num, dtype=bool)
        row_agg = np.full(num, -1, dtype=np.int64)
        counts = np.zeros(num, dtype=np.int64)
        tenant_list = tenants.tolist() if tenants is not None else [None] * num
        for position, (key, tenant) in enumerate(zip(keys.tolist(), tenant_list)):
            entry = self.get(key, tenant=tenant)
            if entry is not None:
                cached[position] = True
                row_agg[position] = entry.row_agg
                counts[position] = entry.match_count
        return cached, row_agg, counts

    # ------------------------------------------------------------------ store

    def put(
        self,
        key: int,
        row_agg: int,
        match_count: int,
        tenant: Optional[int] = None,
    ) -> None:
        """Insert or refresh an answer (``match_count == 0`` caches a miss)."""
        key = int(key)
        part = self._partition(tenant)
        entry = _Entry(int(row_agg), int(match_count))
        previous = part.entries.get(key)
        if previous is not None:
            part.entries.move_to_end(key)
            part.entries[key] = entry
            self._negatives += (entry.match_count == 0) - (previous.match_count == 0)
            return
        part.entries[key] = entry
        self._negatives += entry.match_count == 0
        self.stats.insertions += 1
        if len(part.entries) > part.capacity:
            _, evicted = part.entries.popitem(last=False)
            self._negatives -= evicted.match_count == 0
            self.stats.evictions += 1

    def fill_batch(
        self,
        keys: np.ndarray,
        row_agg: np.ndarray,
        match_counts: np.ndarray,
        tenants: Optional[np.ndarray] = None,
    ) -> None:
        """Cache the answers of a served sub-batch."""
        tenant_list = tenants.tolist() if tenants is not None else [None] * keys.shape[0]
        for key, agg, count, tenant in zip(
            keys.tolist(), row_agg.tolist(), match_counts.tolist(), tenant_list
        ):
            self.put(key, agg, count, tenant=tenant)

    # ------------------------------------------------------------- invalidate

    def invalidate_keys(self, keys: np.ndarray) -> int:
        """Drop the entries of explicitly updated keys; returns the count dropped.

        Drops across *all* partitions: a write makes every tenant's cached
        copy of the key stale.
        """
        dropped = 0
        key_list = keys.tolist()
        for part in self._parts.values():
            pop = part.entries.pop
            for key in key_list:
                entry = pop(key, None)
                if entry is not None:
                    dropped += 1
                    self._negatives -= entry.match_count == 0
        self.stats.invalidations += dropped
        return dropped

    def invalidate_negative(self) -> int:
        """Drop every negative entry (inserts can turn any miss into a hit)."""
        dropped = 0
        for part in self._parts.values():
            stale = [
                key for key, entry in part.entries.items() if entry.match_count == 0
            ]
            for key in stale:
                del part.entries[key]
            dropped += len(stale)
        self._negatives -= dropped
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> int:
        """Drop every entry (all partitions); returns the count dropped.

        Accounted as ``bulk_clears``, not ``invalidations``: a rebuild swap
        dropping the whole cache is a maintenance event, and folding it into
        the exact-key invalidation counter would make update churn look far
        larger than it is.
        """
        dropped = len(self)
        for part in self._parts.values():
            part.entries.clear()
        self._negatives = 0
        self.stats.bulk_clears += dropped
        return dropped

    # -------------------------------------------------------------- telemetry

    def publish_telemetry(self, telemetry) -> None:
        """Publish the cache's counters into a labeled telemetry registry.

        Gauges (last-write-wins) rather than counters: the deployment calls
        this at stream boundaries and sample points, so re-publishing the
        same cumulative totals never double-counts.
        """
        for stat, value in self.stats.snapshot().items():
            telemetry.gauge("serve_cache", stat=stat).set(value)
        telemetry.gauge("serve_cache", stat="entries").set(len(self))
        telemetry.gauge("serve_cache", stat="negative_entries").set(
            self.negative_count
        )
        if len(self._parts) > 1:
            for tenant, size in self.partition_sizes().items():
                label = "shared" if tenant is None else str(tenant)
                telemetry.gauge(
                    "serve_cache_partition_entries", tenant=label
                ).set(size)
