"""Request batching: coalesce small client requests into device-sized batches.

The paper's central serving observation (Figure 15) is that GPU lookup
batches only amortise their launch overhead at large sizes — a single-key
request would leave the device orders of magnitude underutilised.  The
:class:`BatchScheduler` therefore queues incoming point-lookup requests per
shard and dispatches a batch when either

* the queue reaches ``max_batch_size`` (the device-sized batch), or
* the oldest queued request has waited ``max_wait_ms`` (the latency bound).

The scheduler runs on a simulated clock: requests carry arrival timestamps
(from the request-stream generators in :mod:`repro.workloads.requests`) and
batches record their dispatch time, so per-request queueing delay is exact
and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy of one deployment."""

    #: Dispatch as soon as a shard queue holds this many requests.
    max_batch_size: int = 4096
    #: Dispatch at the latest this long after the oldest queued request arrived.
    max_wait_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0.0:
            raise ValueError("max_wait_ms must be >= 0")


@dataclass
class Batch:
    """One dispatched batch of point-lookup requests for a single shard."""

    shard_id: int
    #: Keys in arrival order.
    keys: np.ndarray
    #: Request identifiers aligned with ``keys``.
    request_ids: np.ndarray
    #: Arrival timestamp of every request, aligned with ``keys``.
    arrival_ms: np.ndarray
    #: Simulated time at which the batch left the queue.
    dispatch_ms: float
    #: Why the batch was dispatched (``"full"``, ``"timeout"`` or ``"drain"``).
    reason: str = "full"
    #: Tenant label per request (``-1`` = unlabeled), aligned with ``keys``.
    #: ``None`` when the stream carries no tenant labels at all.
    tenant_ids: "np.ndarray | None" = None

    @property
    def size(self) -> int:
        return int(self.keys.shape[0])

    def queue_delays_ms(self) -> np.ndarray:
        """Per-request time spent waiting in the queue."""
        return self.dispatch_ms - self.arrival_ms


class _ShardQueue:
    """Pending requests of one shard."""

    __slots__ = ("keys", "request_ids", "arrival_ms", "tenant_ids")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.request_ids: List[int] = []
        self.arrival_ms: List[float] = []
        self.tenant_ids: List[int] = []

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def deadline_ms(self) -> float:
        return self.arrival_ms[0] if self.arrival_ms else float("inf")


class BatchScheduler:
    """Per-shard request coalescing on a simulated clock.

    Requests must be offered in non-decreasing arrival order (the stream
    generators guarantee this).  :meth:`offer` returns the batches that became
    due *before or at* the new arrival — timeout batches are stamped with
    their deadline, not with the arrival that surfaced them, so delays never
    depend on when the next request happens to arrive.
    """

    def __init__(self, policy: BatchPolicy, telemetry=None) -> None:
        self.policy = policy
        #: Optional :class:`repro.obs.TelemetryRegistry`: when bound, every
        #: dispatch records the batch size and the per-request queue waits
        #: into bounded-memory histograms (one vectorized bulk record).
        self.telemetry = telemetry
        self._queues: Dict[int, _ShardQueue] = {}
        self._last_arrival_ms = float("-inf")
        #: Earliest timeout deadline over the non-empty queues (``inf`` when
        #: all are empty): no batch can be due before it.
        self._next_deadline_ms = float("inf")
        #: Telemetry histograms, resolved on the first dispatch that records
        #: into them (``serve_batch_queue_wait_ms`` keyed by reason).
        self._size_histogram = None
        self._wait_histograms: Dict[str, object] = {}

    def pending(self, shard_id: int) -> int:
        """Number of queued requests for one shard."""
        queue = self._queues.get(shard_id)
        return len(queue) if queue else 0

    @property
    def total_pending(self) -> int:
        """Queued requests across all shards (the admission-control signal)."""
        return sum(len(queue) for queue in self._queues.values())

    # --------------------------------------------------------------- offering

    def offer(
        self,
        shard_id: int,
        request_id: int,
        key: int,
        arrival_ms: float,
        tenant_id: int = -1,
    ) -> List[Batch]:
        """Enqueue one request; return every batch due by ``arrival_ms``."""
        if arrival_ms < self._last_arrival_ms:
            raise ValueError("requests must be offered in arrival order")
        self._last_arrival_ms = float(arrival_ms)

        due = self._flush_expired(arrival_ms)
        queue = self._queues.setdefault(int(shard_id), _ShardQueue())
        if not queue.keys:
            self._next_deadline_ms = min(
                self._next_deadline_ms, float(arrival_ms) + self.policy.max_wait_ms
            )
        queue.keys.append(int(key))
        queue.request_ids.append(int(request_id))
        queue.arrival_ms.append(float(arrival_ms))
        queue.tenant_ids.append(int(tenant_id))
        if len(queue) >= self.policy.max_batch_size:
            due.append(self._dispatch(int(shard_id), queue, float(arrival_ms), "full"))
        return due

    def poll(self, now_ms: float) -> List[Batch]:
        """Surface every batch due by ``now_ms`` without enqueuing anything.

        Serving loops call this on *every* event (including requests answered
        elsewhere, e.g. from a cache), so timed-out batches are dispatched as
        soon as simulated time passes their deadline rather than waiting for
        the next enqueued request.  A poll before the earliest queued deadline
        is O(1): it compares ``now_ms`` with that deadline and visits no queue.
        """
        if now_ms < self._last_arrival_ms:
            raise ValueError("time must be polled in non-decreasing order")
        self._last_arrival_ms = float(now_ms)
        return self._flush_expired(now_ms)

    def drain(self, now_ms: float) -> List[Batch]:
        """Dispatch everything still queued (end of the request stream)."""
        batches: List[Batch] = []
        for shard_id in sorted(self._queues):
            queue = self._queues[shard_id]
            if len(queue):
                dispatch_ms = min(float(now_ms), queue.deadline_ms + self.policy.max_wait_ms)
                batches.append(self._dispatch(shard_id, queue, dispatch_ms, "drain"))
        return batches

    # -------------------------------------------------------------- internals

    def _flush_expired(self, now_ms: float) -> List[Batch]:
        if now_ms < self._next_deadline_ms:
            return []
        batches: List[Batch] = []
        for shard_id in sorted(self._queues):
            queue = self._queues[shard_id]
            deadline = queue.deadline_ms + self.policy.max_wait_ms
            if len(queue) and deadline <= now_ms:
                batches.append(self._dispatch(shard_id, queue, deadline, "timeout"))
        return batches

    def _dispatch(
        self, shard_id: int, queue: _ShardQueue, dispatch_ms: float, reason: str
    ) -> Batch:
        labeled = any(tenant != -1 for tenant in queue.tenant_ids)
        batch = Batch(
            shard_id=shard_id,
            keys=np.asarray(queue.keys, dtype=np.uint64),
            request_ids=np.asarray(queue.request_ids, dtype=np.int64),
            arrival_ms=np.asarray(queue.arrival_ms, dtype=np.float64),
            dispatch_ms=float(dispatch_ms),
            reason=reason,
            tenant_ids=(
                np.asarray(queue.tenant_ids, dtype=np.int64) if labeled else None
            ),
        )
        queue.keys.clear()
        queue.request_ids.clear()
        queue.arrival_ms.clear()
        queue.tenant_ids.clear()
        self._next_deadline_ms = min(
            (
                other.arrival_ms[0] + self.policy.max_wait_ms
                for other in self._queues.values()
                if other.arrival_ms
            ),
            default=float("inf"),
        )
        if self.telemetry is not None:
            if self._size_histogram is None:
                self._size_histogram = self.telemetry.histogram("serve_batch_size")
            self._size_histogram.record(batch.size)
            waits = self._wait_histograms.get(reason)
            if waits is None:
                waits = self._wait_histograms[reason] = self.telemetry.histogram(
                    "serve_batch_queue_wait_ms", reason=reason
                )
            waits.record_many(batch.queue_delays_ms())
        return batch
