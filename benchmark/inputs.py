"""Seeded workload inputs, generated with numpy alone.

Nothing here imports the package under test, so a change to the program
(including its own workload generators) cannot move the benchmark's inputs.
Every function draws from the ``numpy.random.Generator`` it is given; the
workloads seed one generator per run from ``--seed``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Keys are drawn uniformly from ``[0, KEY_SPACE)``; the space is sparse
#: enough that every gap between stored keys holds absent keys to draw from.
KEY_SPACE = 1 << 48

#: Aggregate Poisson arrival rate of served requests, per simulated ms.
REQUESTS_PER_MS = 32.0

#: Number of simulated clients requests are attributed to.
NUM_CLIENTS = 64


def unique_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct keys, sorted ascending (uint64)."""
    keys = np.empty(0, dtype=np.uint64)
    while keys.shape[0] < count:
        draw = rng.integers(0, KEY_SPACE, size=count + count // 8 + 16, dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, draw]))
    return np.sort(rng.permutation(keys)[:count])


def row_ids_for(rng: np.random.Generator, count: int) -> np.ndarray:
    """A random permutation of ``0..count-1`` as uint32 rowIDs."""
    return rng.permutation(count).astype(np.uint32)


def absent_keys(
    rng: np.random.Generator,
    sorted_keys: np.ndarray,
    count: int,
    low: int,
    high: int,
    distinct: bool = False,
) -> np.ndarray:
    """``count`` keys in ``[low, high]`` that are not in ``sorted_keys``.

    With ``distinct`` no key is drawn twice (inserts need that); lookups
    may repeat a miss.
    """
    found = np.empty(0, dtype=np.uint64)
    while found.shape[0] < count:
        draw = rng.integers(low, high + 1, size=2 * count + 16, dtype=np.uint64)
        found = np.concatenate([found, draw[~contains(sorted_keys, draw)]])
        if distinct:
            _, first = np.unique(found, return_index=True)
            found = found[np.sort(first)]
    return found[:count]


def contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in the ascending array ``sorted_keys``."""
    if sorted_keys.shape[0] == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    position = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.shape[0] - 1)
    return sorted_keys[position] == keys


def zipf_ranks(
    rng: np.random.Generator, num_items: int, count: int, exponent: float
) -> np.ndarray:
    """``count`` popularity ranks in ``[0, num_items)``, P(rank r) ~ (r+1)^-exponent."""
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(ranks, num_items - 1)


def mix_misses(
    rng: np.random.Generator,
    sorted_keys: np.ndarray,
    hits: np.ndarray,
    miss_fraction: float,
) -> np.ndarray:
    """Replace a ``miss_fraction`` share of ``hits`` by in-range absent keys.

    The misses land at random positions, so every batch carries its share.
    """
    keys = hits.astype(np.uint64)
    num_misses = int(round(keys.shape[0] * miss_fraction))
    if num_misses:
        where = rng.choice(keys.shape[0], size=num_misses, replace=False)
        keys[where] = absent_keys(
            rng, sorted_keys, num_misses, int(sorted_keys[0]), int(sorted_keys[-1])
        )
    return keys


def poisson_arrivals(
    rng: np.random.Generator, count: int, start_ms: float = 0.0
) -> np.ndarray:
    """Open-loop arrival times: exponential gaps at :data:`REQUESTS_PER_MS`."""
    gaps = rng.exponential(scale=1.0 / REQUESTS_PER_MS, size=count)
    return start_ms + np.cumsum(gaps)


def client_ids(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, NUM_CLIENTS, size=count, dtype=np.int64)


def fixed_width_ranges(
    rng: np.random.Generator, sorted_keys: np.ndarray, count: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` ranges ``(lows, highs)`` that each match exactly ``width``
    stored keys.  The bounds fall at random
    points of the gaps around the matched run of keys, not on the keys
    themselves, so the index's bound handling is exercised too.
    """
    num_keys = sorted_keys.shape[0]
    first = rng.integers(0, num_keys - width + 1, size=count)
    last = first + width - 1
    keys = sorted_keys.astype(np.int64)
    below = np.where(first > 0, keys[np.maximum(first - 1, 0)] + 1, keys[first])
    above = np.where(
        last + 1 < num_keys, keys[np.minimum(last + 1, num_keys - 1)] - 1, keys[last]
    )
    lows = below + (rng.random(count) * (keys[first] - below + 1)).astype(np.int64)
    highs = keys[last] + (rng.random(count) * (above - keys[last] + 1)).astype(np.int64)
    # float rounding of u * span can land one past the gap's end
    lows = np.minimum(lows, keys[first])
    highs = np.minimum(highs, above)
    return lows.astype(np.uint64), highs.astype(np.uint64)
