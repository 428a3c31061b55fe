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

import math
from dataclasses import dataclass

from repro.core.config import BucketLayout, SearchStrategy
from repro.gpu.cost_model import UNCOALESCED_ACCESS_BYTES
from repro.gpu.simt import COOPERATIVE_GROUP_SIZE, cooperative_scan_steps


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

    def point_search(self, bucket_size: int, entries_scanned: int) -> BucketSearchCost:
        """Work of locating a key inside a bucket.

        ``entries_scanned`` is the number of entries the duplicate-aware scan
        actually touched (reported by the post-filter of
        :class:`repro.core.index.CgRXIndex`), which bounds the linear-search
        cost and the trailing duplicate scan of the binary search.
        """
        bucket_size = max(1, int(bucket_size))
        entries_scanned = max(1, int(entries_scanned))

        if self.strategy is SearchStrategy.LINEAR:
            # A cooperative linear scan reads neighbouring entries coalesced.
            steps = cooperative_scan_steps(entries_scanned, self.group_size)
            touched = min(entries_scanned, steps * self.group_size)
            bytes_read = touched * self.entry_bytes + self.rowid_bytes
            compute_ops = touched
        else:
            probes = max(1, math.ceil(math.log2(bucket_size + 1)))
            # Duplicates (entries beyond the bucket) are resolved by a
            # coalesced cooperative scan after the binary search found the
            # first match.
            trailing = max(0, entries_scanned - bucket_size)
            trailing_steps = cooperative_scan_steps(trailing, self.group_size)
            bytes_read = (
                probes * self._probe_bytes()
                + trailing_steps * self.group_size * self.entry_bytes
                + self.rowid_bytes
            )
            compute_ops = probes + trailing_steps * self.group_size

        return BucketSearchCost(bytes_read=bytes_read, compute_ops=compute_ops)

    def range_scan(self, entries_scanned: int) -> BucketSearchCost:
        """Work of the cooperative scan answering a range lookup.

        The scan always runs as a separate kernel with a 16-thread group per
        lookup, loading neighbouring entries coalesced.
        """
        entries_scanned = max(1, int(entries_scanned))
        steps = cooperative_scan_steps(entries_scanned, self.group_size)
        touched = steps * self.group_size
        bytes_read = touched * self.entry_bytes
        compute_ops = touched
        return BucketSearchCost(bytes_read=bytes_read, compute_ops=compute_ops)
