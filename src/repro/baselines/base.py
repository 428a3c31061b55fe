"""Common interface and result types for all GPU-resident indexes.

Every index (the baselines as well as cgRX/cgRXu) implements
:class:`GpuIndex`: it is bulk-loaded from a key-rowID array, answers batched
point and range lookups, optionally supports batched updates, and reports its
permanent device memory footprint.  All operations return, next to the actual
result values, a :class:`~repro.gpu.kernels.KernelStats` record describing the
work performed, which the benchmark harness converts into simulated time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats
from repro.gpu.memory import MemoryFootprint


class UnsupportedOperation(RuntimeError):
    """Raised when an index does not support the requested operation."""


@dataclass
class LookupResult:
    """Result of a batch of point lookups."""

    #: Aggregated rowID per lookup (sum over duplicates), -1 for a miss.
    row_ids: np.ndarray
    #: Number of matching entries per lookup (0 for a miss).
    match_counts: np.ndarray
    #: Work performed by the batch.
    stats: KernelStats
    #: Batch engine that executed the lookup (``None`` for indexes without
    #: batch engines).
    engine: Optional[str] = None

    @property
    def hits(self) -> int:
        """Number of lookups that found at least one match."""
        return int((self.match_counts > 0).sum())

    @property
    def num_lookups(self) -> int:
        return int(self.row_ids.shape[0])


@dataclass
class RangeLookupResult:
    """Result of a batch of range lookups."""

    #: Matching rowIDs for each range lookup.
    row_ids: List[np.ndarray]
    #: Work performed by the batch.
    stats: KernelStats

    @property
    def total_matches(self) -> int:
        """Total number of retrieved entries across all lookups."""
        return int(sum(r.shape[0] for r in self.row_ids))

    @property
    def num_lookups(self) -> int:
        return len(self.row_ids)


@dataclass
class UpdateResult:
    """Result of applying a batch of insertions and deletions."""

    #: Number of keys inserted.
    inserted: int
    #: Number of keys deleted.
    deleted: int
    #: Work performed (sort + apply, or a full rebuild).
    stats: KernelStats
    #: True when the index answered the update by rebuilding from scratch.
    rebuilt: bool = False


class GpuIndex(ABC):
    """Abstract base class of every simulated GPU-resident index."""

    #: Display name used in benchmark tables, e.g. ``"cgRX (32)"``.
    name: str = "index"

    #: Feature flags mirrored from Table I of the paper.
    supports_point: ClassVar[bool] = True
    supports_range: ClassVar[bool] = True
    supports_64bit: ClassVar[bool] = True
    supports_updates: ClassVar[bool] = False
    supports_bulk_load: ClassVar[bool] = True
    #: Whether :meth:`export_entries` works (not in Table I).
    supports_export: ClassVar[bool] = False
    #: Qualitative memory class from Table I (``"low"``, ``"med"``, ``"high"``).
    memory_class: ClassVar[str] = "med"

    def __init__(self, device: GpuDevice = RTX_4090) -> None:
        self.device = device
        self.cost_model = CostModel(device)
        #: Kernel records of the bulk-load phase (sorting, triangle
        #: generation, acceleration-structure build, ...).
        self.build_stats: List[KernelStats] = []

    # ----------------------------------------------------------------- builds

    @property
    def build_time_ms(self) -> float:
        """Simulated time of the bulk load."""
        return self.cost_model.total_time_ms(self.build_stats)

    # ---------------------------------------------------------------- lookups

    @abstractmethod
    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        """Answer a batch of point lookups (one simulated thread per lookup)."""

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        """Answer a batch of range lookups ``[low, high]`` (inclusive bounds)."""
        raise UnsupportedOperation(f"{self.name} does not support range lookups")

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Apply a batch of insertions and deletions."""
        raise UnsupportedOperation(f"{self.name} does not support updates")

    # ----------------------------------------------------------------- memory

    @abstractmethod
    def memory_footprint(self) -> MemoryFootprint:
        """Permanent device memory footprint of the index."""

    # ------------------------------------------------------------ maintenance

    def degradation_score(self) -> float:
        """How far lookup performance has drifted from the freshly built state.

        0.0 means "as good as a fresh bulk load".  Structures that degrade
        under updates (e.g. cgRXu's growing node chains) override this; the
        serving layer's maintenance worker rebuilds a shard once its score
        crosses the configured threshold.
        """
        return 0.0

    def export_entries(self) -> "tuple[np.ndarray, np.ndarray]":
        """Dump the current (key, rowID) entries, sorted by key.

        Used by the serving layer to snapshot a natively-updated shard so a
        later rebuild reproduces the live index exactly (including the
        tie-order of duplicate keys).  The snapshot is taken lazily: after a
        write the router only records the index, and exports when the shard's
        arrays are next read.  Optional, declared by :attr:`supports_export`:
        index types without it raise :class:`UnsupportedOperation`, and the
        router maintains its own arrays for them after every write.
        """
        raise UnsupportedOperation(f"{self.name} does not support entry export")

    # ------------------------------------------------------------ conveniences

    def point_lookup(self, key: int) -> LookupResult:
        """Convenience wrapper: a batch of size one."""
        return self.point_lookup_batch(np.asarray([key]))

    def range_lookup(self, low: int, high: int) -> RangeLookupResult:
        """Convenience wrapper: a single range lookup."""
        return self.range_lookup_batch(np.asarray([low]), np.asarray([high]))

    def lookup_time_ms(self, result: "LookupResult | RangeLookupResult") -> float:
        """Simulated time of a lookup batch on this index's device."""
        return self.cost_model.kernel_time_ms(result.stats)

    def throughput_per_footprint(self, result: LookupResult) -> float:
        """The paper's headline metric: lookups per second per footprint byte."""
        time_ms = self.lookup_time_ms(result)
        footprint = self.memory_footprint().total_bytes
        if time_ms <= 0.0 or footprint <= 0:
            return float("inf")
        return result.num_lookups / (time_ms / 1e3) / footprint

    # -------------------------------------------------------------- utilities

    def _unique_fraction(self, keys: np.ndarray) -> float:
        """Fraction of distinct keys in a lookup batch (drives cache modelling)."""
        if keys.size == 0:
            return 1.0
        return float(np.unique(keys).size) / float(keys.size)

    @classmethod
    def feature_row(cls) -> dict:
        """Feature-matrix row for Table I."""
        return {
            "index": cls.name,
            "point": cls.supports_point,
            "range": cls.supports_range,
            "memory": cls.memory_class,
            "64bit": cls.supports_64bit,
            "bulk_load": cls.supports_bulk_load,
            "updates": cls.supports_updates,
        }


def delete_one_per_key(
    keys: np.ndarray,
    row_ids: np.ndarray,
    delete_keys: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Remove one entry per delete-key instance from a key/rowID column.

    The shared delete semantics of the update paths: each instance of a key
    in ``delete_keys`` removes at most one matching entry, earliest position
    first (resolved through a stable sorted view, so no per-entry Python
    loop).  Relative order of the surviving entries is preserved.  Returns
    ``(keys, row_ids, deleted)``.
    """
    if delete_keys.size == 0 or keys.size == 0:
        return keys, row_ids, 0
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    unique_deletes, delete_counts = np.unique(delete_keys, return_counts=True)
    left = np.searchsorted(sorted_keys, unique_deletes, side="left")
    right = np.searchsorted(sorted_keys, unique_deletes, side="right")
    take = np.minimum(delete_counts, right - left)
    keep = np.ones(keys.shape[0], dtype=bool)
    for start, count in zip(left, take):
        keep[order[start : start + count]] = False
    return keys[keep], row_ids[keep], int(take.sum())


def cancel_opposing_updates(
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
    delete_keys: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Cancel keys appearing in both halves of an update batch, one-for-one.

    cgRXu's batch semantics (Section IV): each delete instance cancels one
    matching insert (earliest in sorted order) instead of both being applied.
    Shared by :class:`~repro.core.updatable.CgRXuIndex` and the serving
    layer's shard router, which promotes these semantics deployment-wide.
    """
    if insert_keys.size == 0 or delete_keys.size == 0:
        return insert_keys, insert_row_ids, delete_keys
    order = np.argsort(insert_keys, kind="stable")
    sorted_inserts = insert_keys[order]
    unique_deletes, delete_counts = np.unique(delete_keys, return_counts=True)
    left = np.searchsorted(sorted_inserts, unique_deletes, side="left")
    right = np.searchsorted(sorted_inserts, unique_deletes, side="right")
    cancel = np.minimum(delete_counts, right - left)
    keep_inserts = np.ones(insert_keys.shape[0], dtype=bool)
    keep_deletes = np.ones(delete_keys.shape[0], dtype=bool)
    for i in np.flatnonzero(cancel).tolist():
        start, count = left[i], cancel[i]
        keep_inserts[order[start : start + count]] = False
        keep_deletes[np.flatnonzero(delete_keys == unique_deletes[i])[:count]] = False
    return (
        insert_keys[keep_inserts],
        insert_row_ids[keep_inserts],
        delete_keys[keep_deletes],
    )


def sorted_lookup_results(
    sorted_keys: np.ndarray,
    rowid_prefix: np.ndarray,
    lookup_keys: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Aggregate duplicate-aware point-lookup results over a sorted key array.

    ``rowid_prefix`` is ``concatenate([[0], cumsum(row_ids)])`` of the rowIDs
    aligned with ``sorted_keys``.  Returns ``(row_aggregates, match_counts)``
    where misses carry an aggregate of -1 and a count of 0.  Shared by the
    sorted-array, B+-tree and full-scan baselines.
    """
    left = np.searchsorted(sorted_keys, lookup_keys, side="left")
    right = np.searchsorted(sorted_keys, lookup_keys, side="right")
    hit = left < right
    row_agg = np.where(hit, rowid_prefix[right] - rowid_prefix[left], -1).astype(np.int64)
    match_counts = (right - left).astype(np.int64)
    return row_agg, match_counts
