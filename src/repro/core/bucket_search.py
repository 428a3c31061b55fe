"""Cost accounting for searching a bucket after the raytracing stage located it.

cgRX supports linear and binary search over buckets stored in row layout
(interleaved key-rowID pairs) or column layout (two parallel arrays).  The
paper reports that binary search on a row layout wins both for tiny (4) and
huge (65,536) buckets, so that is the default.  The actual result values come
from :class:`~repro.core.index.CgRXIndex`'s search of
:class:`~repro.core.bucketing.BucketedKeys`; this module only computes how
much *work* the configured strategy performs, which is what the cost model
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BucketLayout, SearchStrategy
from repro.gpu.cost_model import UNCOALESCED_ACCESS_BYTES
from repro.gpu.simt import COOPERATIVE_GROUP_SIZE


@dataclass
class BucketSearchCost:
    """Work performed by one bucket search."""

    bytes_read: int = 0
    compute_ops: int = 0


class BucketSearchModel:
    """Computes the per-lookup work of a bucket search strategy."""

    def __init__(
        self,
        strategy: SearchStrategy = SearchStrategy.BINARY,
        layout: BucketLayout = BucketLayout.ROW,
        key_bytes: int = 8,
        rowid_bytes: int = 4,
        group_size: int = COOPERATIVE_GROUP_SIZE,
    ) -> None:
        self.strategy = strategy
        self.layout = layout
        self.key_bytes = int(key_bytes)
        self.rowid_bytes = int(rowid_bytes)
        self.group_size = int(group_size)

    @property
    def entry_bytes(self) -> int:
        """Bytes of one key-rowID entry."""
        return self.key_bytes + self.rowid_bytes

    def _probe_bytes(self) -> int:
        """DRAM bytes of a single uncoalesced search probe.

        A random access always drags in a full memory sector; in row layout
        that sector already contains the rowID, in column layout only keys.
        Either way the traffic per probe is one sector.
        """
        if self.layout is BucketLayout.ROW:
            return max(self.entry_bytes, UNCOALESCED_ACCESS_BYTES)
        return max(self.key_bytes, UNCOALESCED_ACCESS_BYTES)

    def searches(
        self, entries_scanned: np.ndarray, bucket_size: int, range_mode: bool
    ) -> BucketSearchCost:
        """Total work of one search per element of ``entries_scanned``, in
        exact integer arithmetic.

        A point search (``range_mode`` false) locates its key inside a bucket
        of ``bucket_size`` entries; a range lookup runs a cooperative scan,
        which ignores ``bucket_size``.  Each element is the number of entries
        the duplicate-aware scan touched (reported by the post-filter of
        :class:`repro.core.index.CgRXIndex`), at least 1: it bounds a linear
        scan, the trailing duplicate scan of a binary search and the range
        scan.
        """
        scanned = np.maximum(np.asarray(entries_scanned, dtype=np.int64), 1)
        searches = int(scanned.size)
        group = self.group_size
        if range_mode:
            # A 16-thread group per lookup loads neighbouring entries
            # coalesced, a whole group-wide step at a time.
            touched = int((-(-scanned // group) * group).sum())
            return BucketSearchCost(bytes_read=touched * self.entry_bytes, compute_ops=touched)
        if self.strategy is SearchStrategy.LINEAR:
            # A cooperative linear scan reads neighbouring entries coalesced;
            # its ceil(scanned / group) steps cover exactly the scanned ones.
            touched = int(scanned.sum())
            return BucketSearchCost(
                bytes_read=touched * self.entry_bytes + searches * self.rowid_bytes,
                compute_ops=touched,
            )
        bucket_size = max(1, int(bucket_size))
        # ceil(log2(bucket_size + 1)) probes.
        probes = bucket_size.bit_length()
        # Duplicates (entries beyond the bucket) are resolved by a coalesced
        # cooperative scan after the binary search found the first match.
        trailing = np.maximum(scanned - bucket_size, 0)
        trailing_entries = int((-(-trailing // group) * group).sum())
        return BucketSearchCost(
            bytes_read=searches * (probes * self._probe_bytes() + self.rowid_bytes)
            + trailing_entries * self.entry_bytes,
            compute_ops=searches * probes + trailing_entries,
        )

    def point_search(self, bucket_size: int, entries_scanned: int) -> BucketSearchCost:
        """Work of locating a key inside a bucket (see :meth:`searches`)."""
        return self.searches(np.array([entries_scanned]), bucket_size, range_mode=False)

    def range_scan(self, entries_scanned: int) -> BucketSearchCost:
        """Work of the cooperative scan answering a range lookup (see
        :meth:`searches`)."""
        return self.searches(np.array([entries_scanned]), 1, range_mode=True)
