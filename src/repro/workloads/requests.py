"""Client request streams for the serving subsystem.

A served deployment does not see the benchmark harness's pre-formed giant
batches: it sees many small client requests arriving over time.  A
:class:`RequestStream` is the simulated form of that traffic — per-request
arrival timestamps (Poisson arrivals at a configurable aggregate rate),
Zipf-skewed key popularity (hot keys dominate, which is what makes the result
cache earn its keep) and an optional miss fraction (keys that are not
indexed, exercising the negative cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.workloads.keygen import KeySet
from repro.workloads.lookups import hit_miss_lookups, zipf_lookups


@dataclass
class RequestStream:
    """A time-ordered stream of single-key point-lookup requests."""

    #: Arrival timestamp of every request, non-decreasing.
    arrival_ms: np.ndarray
    #: Looked-up key per request.
    keys: np.ndarray
    #: Originating (simulated) client per request.
    client_ids: np.ndarray
    description: str = ""
    #: Optional tenant label per request (multi-tenant streams); ``None``
    #: for single-tenant traffic.
    tenant_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (
            self.arrival_ms.shape == self.keys.shape == self.client_ids.shape
        ):
            raise ValueError("arrival_ms, keys and client_ids must align")
        if self.tenant_ids is not None and self.tenant_ids.shape != self.keys.shape:
            raise ValueError("tenant_ids must align with keys")
        if self.arrival_ms.size and np.any(np.diff(self.arrival_ms) < 0):
            raise ValueError("arrivals must be non-decreasing")

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def __iter__(self) -> Iterator[Tuple[int, float, int]]:
        """Yield ``(request_id, arrival_ms, key)`` in arrival order."""
        for request_id in range(len(self)):
            yield request_id, float(self.arrival_ms[request_id]), int(self.keys[request_id])

    @property
    def duration_ms(self) -> float:
        """Time between the first and the last arrival."""
        if len(self) == 0:
            return 0.0
        return float(self.arrival_ms[-1] - self.arrival_ms[0])


def zipf_request_stream(
    keyset: KeySet,
    count: int,
    zipf_coefficient: float = 1.0,
    requests_per_ms: float = 32.0,
    miss_fraction: float = 0.0,
    num_clients: int = 64,
    seed: int = 0,
) -> RequestStream:
    """Poisson arrivals with Zipf-skewed key popularity.

    ``requests_per_ms`` is the aggregate arrival rate over all clients;
    inter-arrival gaps are exponential.  ``miss_fraction`` of the requests
    target keys that are not indexed (in-range gaps), the rest follow the
    Zipf popularity of :func:`~repro.workloads.lookups.zipf_lookups`.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if requests_per_ms <= 0.0:
        raise ValueError("requests_per_ms must be positive")
    if not 0.0 <= miss_fraction <= 1.0:
        raise ValueError("miss_fraction must be within [0, 1]")

    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / requests_per_ms, size=count)
    arrival_ms = np.cumsum(gaps)
    arrival_ms -= arrival_ms[0]

    num_misses = int(round(count * miss_fraction))
    num_hits = count - num_misses
    parts = []
    if num_hits:
        parts.append(zipf_lookups(keyset, num_hits, zipf_coefficient, seed=seed + 1))
    if num_misses:
        parts.append(
            hit_miss_lookups(keyset, num_misses, miss_fraction=1.0, seed=seed + 2)
        )
    keys = np.concatenate(parts).astype(keyset.key_dtype)
    rng.shuffle(keys)

    client_ids = rng.integers(0, int(num_clients), size=count, dtype=np.int64)
    description = (
        f"zipf={zipf_coefficient}, rate={requests_per_ms}/ms, "
        f"miss={miss_fraction:.0%}, n={count}"
    )
    return RequestStream(
        arrival_ms=arrival_ms,
        keys=keys,
        client_ids=client_ids,
        description=description,
    )
