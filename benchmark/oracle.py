"""Independent numpy oracle for every answer the benchmark checks.

It shares no code with the package under test.  Point answers follow the
index contract: the sum of the rowIDs of every matching entry and the match
count, ``(-1, 0)`` for a miss.  The workloads never store a key twice, so
duplicate tie-breaking never decides an answer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from benchmark.inputs import contains


class LiveKeys:
    """The live (key, rowID) entries as sorted arrays, plus a rowID prefix sum."""

    def __init__(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = np.asarray(keys, dtype=np.uint64)[order]
        self.row_ids = np.asarray(row_ids, dtype=np.uint32)[order]
        self._refresh()

    def _refresh(self) -> None:
        self.prefix = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self.row_ids, dtype=np.int64)]
        )

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def points(self, lookups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Expected ``(row_aggregate, match_count)`` per lookup key."""
        lookups = np.asarray(lookups, dtype=np.uint64)
        left = np.searchsorted(self.keys, lookups, side="left")
        right = np.searchsorted(self.keys, lookups, side="right")
        counts = (right - left).astype(np.int64)
        rows = np.where(counts > 0, self.prefix[right] - self.prefix[left], -1)
        return rows.astype(np.int64), counts

    def ranges(self, lows: np.ndarray, highs: np.ndarray) -> List[np.ndarray]:
        """Expected rowIDs per inclusive range, sorted (a multiset)."""
        first = np.searchsorted(self.keys, np.asarray(lows, dtype=np.uint64), side="left")
        stop = np.searchsorted(self.keys, np.asarray(highs, dtype=np.uint64), side="right")
        return [np.sort(self.row_ids[a:b]) for a, b in zip(first, stop)]

    def apply(
        self, insert_keys: np.ndarray, insert_row_ids: np.ndarray, delete_keys: np.ndarray
    ) -> None:
        """Apply one update batch: absent keys in, single-occurrence keys out."""
        insert_keys = np.asarray(insert_keys, dtype=np.uint64)
        delete_keys = np.asarray(delete_keys, dtype=np.uint64)
        if contains(self.keys, insert_keys).any():
            raise ValueError("inserts must draw absent keys")
        if not contains(self.keys, delete_keys).all():
            raise ValueError("deletes must name live keys")
        keep = ~np.isin(self.keys, delete_keys)
        keys = np.concatenate([self.keys[keep], insert_keys])
        rows = np.concatenate([self.row_ids[keep], np.asarray(insert_row_ids, dtype=np.uint32)])
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.row_ids = rows[order]
        self._refresh()


def point_mismatches(
    expected: Tuple[np.ndarray, np.ndarray], rows: np.ndarray, counts: np.ndarray
) -> int:
    """Number of lookups whose aggregate or count differs from the oracle."""
    want_rows, want_counts = expected
    wrong = (np.asarray(rows, dtype=np.int64) != want_rows) | (
        np.asarray(counts, dtype=np.int64) != want_counts
    )
    return int(wrong.sum())


def range_mismatches(expected: Sequence[np.ndarray], got: Sequence[np.ndarray]) -> int:
    """Number of ranges whose rowID multiset differs from the oracle."""
    if len(got) != len(expected):
        return len(expected)
    return sum(
        1
        for want, have in zip(expected, got)
        if not np.array_equal(want, np.sort(np.asarray(have, dtype=np.uint32)))
    )
