"""Key-space partitioning for the sharded deployment.

A :class:`Partitioner` maps every key to the shard responsible for it.  Two
strategies are provided:

* :class:`RangePartitioner` splits the *observed* key distribution into
  contiguous, equally populated key ranges (one ``searchsorted`` against the
  boundary array per lookup).  Range queries touch only the shards whose
  ranges overlap the query interval, so scatter/gather stays narrow.
* :class:`HashPartitioner` spreads keys with a Fibonacci multiplicative hash.
  Load balance is immune to key skew, but every range query has to be
  scattered to all shards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.keyspace import negative_key_mask, routing_keys

#: Knuth's multiplicative constant (golden-ratio reciprocal in 64 bits).
_FIBONACCI_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def empty_range_mask(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Ranges that touch no shard: inverted (``high < low``) or entirely
    negative (``high < 0``), exactly as :meth:`Partitioner.shards_for_range`
    decides per query."""
    empty = routing_keys(highs) < routing_keys(lows)
    negative = negative_key_mask(highs)
    if negative is not None:
        empty |= negative
    return empty


class Partitioner(ABC):
    """Maps keys (and key ranges) of an index deployment onto shards."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        #: Optional telemetry counter (keys routed); the serving deployment
        #: binds a labeled `repro.obs` counter here.  ``None`` keeps routing
        #: observability-free at the cost of one attribute test per batch.
        self.route_counter = None

    def _count_routed(self, num_keys: int) -> None:
        if self.route_counter is not None:
            self.route_counter.inc(int(num_keys))

    @abstractmethod
    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        """Shard id responsible for every key of the batch."""

    @abstractmethod
    def shards_for_range(self, low: int, high: int) -> np.ndarray:
        """Shard ids a range lookup ``[low, high]`` has to be scattered to."""

    def shard_span_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Inclusive ``(first, last)`` shard span per range query, vectorized.

        Every partitioner scatters a range to a contiguous shard interval
        (range partitioning by construction, hash partitioning to all
        shards), so a batched scatter only needs the two boundary arrays.
        The base implementation loops :meth:`shards_for_range`.
        """
        first = np.empty(lows.shape[0], dtype=np.int64)
        last = np.empty(lows.shape[0], dtype=np.int64)
        for position in range(lows.shape[0]):
            shards = self.shards_for_range(int(lows[position]), int(highs[position]))
            if shards.size:
                first[position] = shards[0]
                last[position] = shards[-1]
            else:
                # Touches no shards: an empty span (first > last) so the
                # membership test excludes every shard, like the scalar path.
                first[position] = 1
                last[position] = 0
        return first, last

    @property
    @abstractmethod
    def kind(self) -> str:
        """Short identifier (``"range"`` or ``"hash"``) used in reports."""

    def routing_compute_ops(self, num_keys: int) -> int:
        """Simulated per-batch routing cost (address arithmetic / comparisons)."""
        return int(num_keys)

    @property
    def supports_resharding(self) -> bool:
        """Whether the shard topology can be changed in place (split/merge)."""
        return False

    def split_at(self, shard_id: int, split_key: int) -> None:
        """Split ``shard_id`` at ``split_key`` (new shard count = old + 1)."""
        raise NotImplementedError(f"{self.kind} partitioner cannot split shards")

    def merge_with_next(self, shard_id: int) -> None:
        """Merge ``shard_id`` with ``shard_id + 1`` (new count = old - 1)."""
        raise NotImplementedError(f"{self.kind} partitioner cannot merge shards")


class RangePartitioner(Partitioner):
    """Contiguous key ranges with equi-depth boundaries from the loaded keys."""

    kind = "range"

    def __init__(self, keys: np.ndarray, num_shards: int) -> None:
        super().__init__(num_shards)
        keys = np.asarray(keys)
        if keys.size < num_shards:
            raise ValueError(
                f"cannot range-partition {keys.size} keys into {num_shards} shards"
            )
        sorted_keys = np.sort(routing_keys(keys))
        # Equi-depth split points: shard s serves keys < boundaries[s] (and
        # >= boundaries[s-1]); the last shard additionally serves everything
        # beyond the largest bulk-loaded key.
        positions = (np.arange(1, num_shards) * keys.size) // num_shards
        #: Exclusive upper boundary of shards 0..num_shards-2.
        self.boundaries = sorted_keys[positions]

    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        keys = routing_keys(keys)
        self._count_routed(keys.shape[0])
        return np.searchsorted(self.boundaries, keys, side="right").astype(np.int64)

    def shards_for_range(self, low: int, high: int) -> np.ndarray:
        if high < low:
            return np.arange(0, dtype=np.int64)
        # Negative endpoints sort below the unsigned keyspace: an entirely
        # negative range touches nothing, a straddling range clamps to key 0.
        if high < 0:
            return np.arange(0, dtype=np.int64)
        low = max(int(low), 0)
        first = int(np.searchsorted(self.boundaries, np.uint64(low), side="right"))
        last = int(np.searchsorted(self.boundaries, np.uint64(high), side="right"))
        return np.arange(first, last + 1, dtype=np.int64)

    def shard_span_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        first = np.searchsorted(
            self.boundaries, routing_keys(lows), side="right"
        ).astype(np.int64)
        last = np.searchsorted(
            self.boundaries, routing_keys(highs), side="right"
        ).astype(np.int64)
        # Inverted and entirely-negative ranges touch no shard: an empty
        # span (first > last).
        empty = empty_range_mask(lows, highs)
        first[empty] = 1
        last[empty] = 0
        return first, last

    def routing_compute_ops(self, num_keys: int) -> int:
        # One binary search over the boundary array per key.
        return int(num_keys) * max(1, int(np.ceil(np.log2(self.num_shards + 1))))

    @property
    def supports_resharding(self) -> bool:
        return True

    def split_at(self, shard_id: int, split_key: int) -> None:
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard {shard_id} out of range")
        split_key = np.uint64(max(int(split_key), 0))
        lower = self.boundaries[shard_id - 1] if shard_id > 0 else None
        upper = (
            self.boundaries[shard_id] if shard_id < self.num_shards - 1 else None
        )
        if lower is not None and split_key <= lower:
            raise ValueError("split key must lie inside the shard's range")
        if upper is not None and split_key >= upper:
            raise ValueError("split key must lie inside the shard's range")
        self.boundaries = np.insert(self.boundaries, shard_id, split_key)
        self.num_shards += 1

    def merge_with_next(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.num_shards - 1:
            raise ValueError(f"shard {shard_id} has no right neighbour to merge")
        self.boundaries = np.delete(self.boundaries, shard_id)
        self.num_shards -= 1


class HashPartitioner(Partitioner):
    """Fibonacci-hash key spreading (skew-immune, but ranges hit every shard)."""

    kind = "hash"

    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        keys = routing_keys(keys)
        self._count_routed(keys.shape[0])
        with np.errstate(over="ignore"):
            mixed = keys * _FIBONACCI_MULTIPLIER
        return ((mixed >> np.uint64(33)) % np.uint64(self.num_shards)).astype(np.int64)

    def shards_for_range(self, low: int, high: int) -> np.ndarray:
        if high < low or high < 0:
            return np.arange(0, dtype=np.int64)
        return np.arange(self.num_shards, dtype=np.int64)

    def shard_span_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        num = np.asarray(lows).shape[0]
        first = np.zeros(num, dtype=np.int64)
        last = np.full(num, self.num_shards - 1, dtype=np.int64)
        empty = empty_range_mask(lows, highs)
        first[empty] = 1
        last[empty] = 0
        return first, last


def make_partitioner(kind: str, keys: np.ndarray, num_shards: int) -> Partitioner:
    """Build a partitioner by name (``"range"`` or ``"hash"``)."""
    if kind == "range":
        return RangePartitioner(keys, num_shards)
    if kind == "hash":
        return HashPartitioner(num_shards)
    raise ValueError(f"unknown partitioner {kind!r}; expected 'range' or 'hash'")
