"""The four benchmark workloads.

Each workload draws all of its inputs and expected answers from the seed in
its constructor (numpy only, before anything is built or timed), builds its
deployment with the program's public constructors at default settings
except for sizes, and exposes its timed calls as a list of :class:`Call`.
The runner (:mod:`benchmark.runner`) times :meth:`Workload.execute` and then
checks each output with :meth:`Workload.check` outside the timed region.

Sizes are given per run of :data:`REFERENCE_SECONDS`; ``--seconds`` scales the
number of timed calls, so both sides of a comparison do the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from benchmark import inputs
from benchmark.oracle import LiveKeys, point_mismatches, range_mismatches

#: Run length the default sizes are set for.
REFERENCE_SECONDS = 10

#: Shards of every served deployment (the ``ServeConfig`` default).
NUM_SHARDS = 4


@dataclass
class Call:
    """One timed call: ``read`` or ``write``, its op count and its input."""

    kind: str
    ops: int
    payload: Any


def _cgrxu_shard(keyset, device):
    from repro import CgRXuIndex

    return CgRXuIndex(keyset.keys, keyset.row_ids, device=device)


def _sharded_cgrxu(keys, row_ids):
    from repro.serve import ServeConfig, ShardedIndex

    return ShardedIndex(keys, row_ids, factory=_cgrxu_shard, config=ServeConfig())


def _request_stream(keys, arrivals, clients):
    from repro.workloads.requests import RequestStream

    return RequestStream(arrival_ms=arrivals, keys=keys, client_ids=clients)


def device_bytes(deployment) -> int:
    """Simulated device footprint, without the host-side cache and arenas."""
    return sum(
        num_bytes
        for name, num_bytes in deployment.memory_footprint()
        if name != "result_cache" and not name.endswith("_compiled_arena")
    )


class Workload:
    """Base class: inputs, deployment, timed calls and their checks."""

    name = ""
    #: Default sizes for a run of :data:`REFERENCE_SECONDS`; ``calls`` (or
    #: ``rounds``) is the entry ``--seconds`` scales.
    SIZES: Dict[str, int] = {}
    SCALED = "calls"

    def __init__(self, seed: int, seconds: float = REFERENCE_SECONDS,
                 sizes: Optional[Dict[str, int]] = None) -> None:
        #: True at the command line's sizes (tests pass tiny ones).
        self.full_size = sizes is None
        if sizes is None:
            sizes = dict(self.SIZES)
            sizes[self.SCALED] = max(1, round(sizes[self.SCALED] * seconds / REFERENCE_SECONDS))
        self.sizes = sizes
        # One stream per workload name: the same seed gives unrelated inputs
        # to different workloads.
        tag = sum(ord(char) for char in self.name)
        self.rng = np.random.default_rng([int(seed), tag])
        self.warmup: Call
        self.calls: List[Call] = []
        self.sim_call_ms: List[float] = []
        self.prepare()

    def _stored_keys(self, count: int):
        """Draw ``count`` distinct keys and their rowIDs, sorted by key; the
        build gets them in shuffled order."""
        keys = inputs.unique_keys(self.rng, count)
        rows = inputs.row_ids_for(self.rng, count)
        order = self.rng.permutation(count)
        self.build_keys, self.build_rows = keys[order], rows[order]
        return keys, rows

    # Subclasses implement these.
    def prepare(self) -> None:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def execute(self, deployment, payload):
        raise NotImplementedError

    def check(self, deployment, call: Call, output) -> int:
        """Failed ops of one call, by the oracle; may also book simulated time."""
        raise NotImplementedError

    def answer_bytes(self, output) -> bytes:
        raise NotImplementedError

    def begin(self, deployment) -> None:
        """Reset per-pass accounting right before the timed phase."""
        self.sim_call_ms = []

    def simulated(self, deployment) -> Dict[str, float]:
        """Simulated-clock results of the timed phase (see README)."""
        raise NotImplementedError

    def end_checks(self, deployment) -> List[str]:
        """Whole-run conditions that must hold; returns the violated ones."""
        return []


class _Batched(Workload):
    """Workloads that call the index with large batches, no serving loop."""

    def check(self, deployment, call: Call, output) -> int:
        self.sim_call_ms.append(deployment.lookup_time_ms(output))
        return self.mismatches(call.payload, output)

    def mismatches(self, payload, output) -> int:
        raise NotImplementedError

    def simulated(self, deployment) -> Dict[str, float]:
        sim_ms = np.asarray(self.sim_call_ms)
        ops = sum(call.ops for call in self.calls)
        return {
            "latency_ms": float(sim_ms.mean()),
            "ops_per_s": ops / (float(sim_ms.sum()) / 1e3),
            "p50_ms": float(np.percentile(sim_ms, 50)),
            "p99_ms": float(np.percentile(sim_ms, 99)),
        }


class _Served(Workload):
    """Shared parts of the workloads that serve request streams."""

    #: Registry of the timed phase; ``None`` (the deployment's own) before.
    registry = None

    def begin(self, deployment) -> None:
        from repro.serve import MetricsRegistry

        super().begin(deployment)
        self.registry = MetricsRegistry(num_shards=NUM_SHARDS)
        self.write_sim_ms = 0.0

    def build(self):
        return _sharded_cgrxu(self.build_keys, self.build_rows)

    def _stream(self, keys, expected) -> Call:
        count = keys.shape[0]
        arrivals = inputs.poisson_arrivals(self.rng, count, self._clock_ms)
        self._clock_ms = float(arrivals[-1])
        stream = _request_stream(keys, arrivals, inputs.client_ids(self.rng, count))
        return Call("read", count, (stream, expected))

    def execute(self, deployment, payload):
        if isinstance(payload, tuple):
            stream, _ = payload
            deployment.serve_stream(stream, metrics=self.registry, record_answers=True)
            return deployment.last_answers
        return deployment.update_batch(**payload)

    def check(self, deployment, call: Call, output) -> int:
        _, expected = call.payload
        return point_mismatches(expected, *output)

    def answer_bytes(self, output) -> bytes:
        if isinstance(output, tuple):
            return output[0].tobytes() + output[1].tobytes()
        return f"{output.inserted},{output.deleted}".encode()

    def simulated(self, deployment) -> Dict[str, float]:
        snapshot = self.registry.snapshot()
        requests = snapshot["requests"]
        busy_ms = float(sum(self.registry.shard_busy_ms.values())) + self.write_sim_ms
        ops = sum(call.ops for call in self.calls)
        counters = self.registry.counters
        hits = counters.get("cache_hits", 0) + counters.get("cache_negative_hits", 0)
        probes = hits + counters.get("cache_misses", 0)
        return {
            "latency_ms": snapshot["latency_mean_ms"],
            "ops_per_s": ops / (busy_ms / 1e3),
            "p50_ms": snapshot["latency_p50_ms"],
            "p99_ms": snapshot["latency_p99_ms"],
            "requests": requests,
            "batches": snapshot["batches"],
            "batched": sum(self.registry.shard_requests.values()),
            "cache_hit_ratio": hits / probes if probes else 0.0,
        }


class ServeZipf(_Served):
    name = "serve-zipf"
    SIZES = {"keys": 65536, "calls": 400, "requests": 128}
    ZIPF = 1.1
    MISS_FRACTION = 0.05

    def prepare(self) -> None:
        rng, sizes = self.rng, self.sizes
        keys, rows = self._stored_keys(sizes["keys"])
        oracle = LiveKeys(keys, rows)
        per_call = sizes["requests"]
        total = (sizes["calls"] + 1) * per_call
        popularity = rng.permutation(keys.shape[0])
        hot = keys[popularity[inputs.zipf_ranks(rng, keys.shape[0], total, self.ZIPF)]]
        requested = inputs.mix_misses(rng, keys, hot, self.MISS_FRACTION)
        self._clock_ms = 0.0
        chunks = [requested[i : i + per_call] for i in range(0, total, per_call)]
        streams = [self._stream(chunk, oracle.points(chunk)) for chunk in chunks]
        self.warmup, self.calls = streams[0], streams[1:]


class MixedUpdate(_Served):
    name = "mixed-update"
    SIZES = {
        "keys": 262144,
        "rounds": 200,
        "requests": 128,
        "inserts": 512,
        "deletes": 256,
        "window": 1024,
        "span": 16384,
    }
    SCALED = "rounds"
    #: Share of a round's requests naming keys deleted earlier (must miss,
    #: so a stale cache entry shows as a wrong answer).
    DELETED_FRACTION = 0.1
    #: Ranks the insert window advances per round.
    WINDOW_STEP = 64

    def prepare(self) -> None:
        rng, sizes = self.rng, self.sizes
        keys, rows = self._stored_keys(sizes["keys"])
        model = LiveKeys(keys, rows)
        # The insert window stays inside one quarter of the ranks, i.e. one
        # shard of the equi-depth range partition, so that shard's chains
        # grow far enough to need compactions and a rebuild.
        quarter = keys.shape[0] // NUM_SHARDS
        span = min(sizes["span"], quarter - 1)
        window = min(sizes["window"], span - 1)
        base = int(rng.integers(0, NUM_SHARDS)) * quarter + int(rng.integers(0, quarter - span))
        next_row = keys.shape[0]
        deleted = np.empty(0, dtype=np.uint64)
        self._clock_ms = 0.0
        self.warmup = self._reads(model, deleted)
        for round_id in range(sizes["rounds"]):
            self.calls.append(self._reads(model, deleted))
            start = base + (round_id * self.WINDOW_STEP) % (span - window)
            low, high = int(keys[start]), int(keys[start + window])
            insert_keys = inputs.absent_keys(
                rng, model.keys, sizes["inserts"], low, high, distinct=True
            )
            insert_rows = np.arange(
                next_row, next_row + insert_keys.shape[0], dtype=np.uint32
            )
            next_row += insert_keys.shape[0]
            delete_keys = model.keys[self._distinct_positions(len(model), sizes["deletes"])]
            model.apply(insert_keys, insert_rows, delete_keys)
            deleted = np.concatenate([deleted, delete_keys])
            self.calls.append(
                Call(
                    "write",
                    insert_keys.shape[0] + delete_keys.shape[0],
                    {
                        "insert_keys": insert_keys,
                        "insert_row_ids": insert_rows,
                        "delete_keys": delete_keys,
                    },
                )
            )
        self.final_entries = len(model)

    def _distinct_positions(self, population: int, count: int) -> np.ndarray:
        chosen = np.empty(0, dtype=np.int64)
        while chosen.shape[0] < count:
            chosen = np.unique(
                np.concatenate([chosen, self.rng.integers(0, population, size=count)])
            )
        return self.rng.permutation(chosen)[:count]

    def _reads(self, model: LiveKeys, deleted: np.ndarray) -> Call:
        count = self.sizes["requests"]
        keys = model.keys[self.rng.integers(0, len(model), size=count)]
        if deleted.shape[0]:
            gone = self.rng.random(count) < self.DELETED_FRACTION
            keys[gone] = deleted[self.rng.integers(0, deleted.shape[0], size=int(gone.sum()))]
        return self._stream(keys, model.points(keys))

    def begin(self, deployment) -> None:
        super().begin(deployment)
        self.maintenance_before = deployment.maintenance.snapshot()

    def check(self, deployment, call: Call, output) -> int:
        if call.kind == "read":
            return super().check(deployment, call, output)
        self.write_sim_ms += deployment.cost_model.kernel_time_ms(output.stats)
        wanted_inserts = call.payload["insert_keys"].shape[0]
        wanted_deletes = call.payload["delete_keys"].shape[0]
        return (wanted_inserts if output.inserted != wanted_inserts else 0) + (
            wanted_deletes if output.deleted != wanted_deletes else 0
        )

    def maintenance_delta(self, deployment) -> Dict[str, float]:
        """Maintenance work done during the timed phase."""
        after = deployment.maintenance.snapshot()
        return {
            key: after[key] - self.maintenance_before[key]
            for key in ("compactions_performed", "rebuilds_performed", "maintenance_time_ms")
        }

    def end_checks(self, deployment) -> List[str]:
        problems = []
        if len(deployment) != self.final_entries:
            problems.append(
                f"{len(deployment)} live entries at the end, expected {self.final_entries}"
            )
        # The default sizes guarantee this much maintenance on every seed.
        if self.full_size and self.sizes["rounds"] >= self.SIZES["rounds"]:
            delta = self.maintenance_delta(deployment)
            if delta["compactions_performed"] < 3 or delta["rebuilds_performed"] < 1:
                problems.append(
                    "maintenance did not run: "
                    f"{delta['compactions_performed']} compactions, "
                    f"{delta['rebuilds_performed']} rebuilds (need >= 3 and >= 1)"
                )
        return problems


class BulkPoint(_Batched):
    name = "bulk-point"
    SIZES = {"keys": 1 << 20, "calls": 400, "batch": 2048}
    MISS_FRACTION = 0.1

    def prepare(self) -> None:
        rng, sizes = self.rng, self.sizes
        keys, rows = self._stored_keys(sizes["keys"])
        self.oracle = LiveKeys(keys, rows)
        batches = [
            inputs.mix_misses(
                rng, keys, keys[rng.integers(0, keys.shape[0], size=sizes["batch"])],
                self.MISS_FRACTION,
            )
            for _ in range(sizes["calls"] + 1)
        ]
        self.warmup = Call("read", sizes["batch"], batches[0])
        self.calls = [Call("read", sizes["batch"], batch) for batch in batches[1:]]

    def build(self):
        from repro import CgRXIndex

        return CgRXIndex(self.build_keys, self.build_rows)

    def execute(self, deployment, payload):
        return deployment.point_lookup_batch(payload)

    def mismatches(self, payload, output) -> int:
        return point_mismatches(
            self.oracle.points(payload), output.row_ids, output.match_counts
        )

    def answer_bytes(self, output) -> bytes:
        return output.row_ids.tobytes() + output.match_counts.tobytes()


class RangeScan(_Batched):
    name = "range-scan"
    SIZES = {"keys": 1 << 19, "calls": 500, "ranges": 256, "width": 64}

    def prepare(self) -> None:
        rng, sizes = self.rng, self.sizes
        keys, rows = self._stored_keys(sizes["keys"])
        self.oracle = LiveKeys(keys, rows)
        ranges = [
            inputs.fixed_width_ranges(rng, keys, sizes["ranges"], sizes["width"])
            for _ in range(sizes["calls"] + 1)
        ]
        self.warmup = Call("read", sizes["ranges"], ranges[0])
        self.calls = [Call("read", sizes["ranges"], bounds) for bounds in ranges[1:]]

    def build(self):
        return _sharded_cgrxu(self.build_keys, self.build_rows)

    def execute(self, deployment, payload):
        return deployment.range_lookup_batch(*payload)

    def mismatches(self, payload, output) -> int:
        return range_mismatches(self.oracle.ranges(*payload), output.row_ids)

    def answer_bytes(self, output) -> bytes:
        return b"".join(
            np.asarray(rows, dtype=np.uint32).tobytes() + b"|" for rows in output.row_ids
        )


WORKLOADS = {cls.name: cls for cls in (ServeZipf, BulkPoint, RangeScan, MixedUpdate)}
