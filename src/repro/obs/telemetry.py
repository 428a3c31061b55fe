"""Labeled telemetry instruments with bounded memory.

The registry is the metrics substrate of the serving stack.  It deliberately
mirrors the OpenMetrics data model — named instruments qualified by a frozen
set of string labels — so the whole registry can be rendered as a
Prometheus-style text exposition, merged across runs, or sampled into a
time series on the simulated clock.

Three instrument kinds are provided:

* :class:`Counter` — monotonically increasing value (``int`` increments stay
  exact integers so snapshot dictionaries round-trip byte-for-byte).
* :class:`Gauge` — last-write-wins scalar.
* :class:`LogBucketHistogram` — a *bounded-memory* histogram over fixed
  geometric bucket boundaries.  Unlike ``serve.metrics.LatencyHistogram``
  (which keeps every sample and is retained only as an exactness oracle in
  the tests), memory is O(num_buckets) regardless of sample count, two
  histograms with the same boundary layout merge by adding bucket counts,
  and any percentile is off from the exact answer by at most the relative
  half-width of one bucket (``GROWTH ** 0.5 - 1``, about 4.5% with the
  default layout).  Exact ``count``/``sum``/``min``/``max`` scalars are
  tracked on the side so means and extrema stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

#: Geometric growth factor between consecutive bucket boundaries.  With
#: ``2 ** (1/8)`` each decade spans ~26.6 buckets and the geometric-midpoint
#: representative of a bucket is within ``2 ** (1/16) - 1`` (~4.4%) of any
#: sample inside it.
DEFAULT_GROWTH = 2.0 ** 0.125

#: Smallest positive boundary.  Samples at or below it (including zero and
#: negative values, which the simulated latencies can produce for cache hits)
#: land in the underflow bucket.
DEFAULT_LOWEST = 1e-6

#: Largest finite boundary; anything beyond lands in the overflow bucket.
DEFAULT_HIGHEST = 1e9

#: Relative error bound of a percentile answered from the default layout.
PERCENTILE_RELATIVE_ERROR = DEFAULT_GROWTH ** 0.5 - 1.0

LabelItems = Tuple[Tuple[str, str], ...]


def default_boundaries(
    lowest: float = DEFAULT_LOWEST,
    highest: float = DEFAULT_HIGHEST,
    growth: float = DEFAULT_GROWTH,
) -> np.ndarray:
    """Fixed geometric bucket boundaries shared by every mergeable histogram."""
    if not (lowest > 0.0 and highest > lowest and growth > 1.0):
        raise ValueError("need 0 < lowest < highest and growth > 1")
    num_edges = int(math.ceil(math.log(highest / lowest, growth))) + 1
    edges = lowest * growth ** np.arange(num_edges, dtype=np.float64)
    edges[-1] = max(edges[-1], highest)
    return edges


#: Bucket edges of the default layout as Python floats, read-only and shared
#: by every default-layout histogram (the bisect lookup of ``record``).
_DEFAULT_BOUNDS: Tuple[float, ...] = tuple(default_boundaries().tolist())


class Counter:
    """Monotonic counter.  Integer increments keep the value an ``int``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    @property
    def kind(self) -> str:
        return "counter"


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    @property
    def kind(self) -> str:
        return "gauge"


class LogBucketHistogram:
    """Bounded-memory histogram over fixed geometric bucket boundaries.

    Layout: bucket 0 is the underflow bucket (samples ``<= edges[0]``,
    including zeros), bucket ``i`` (``1 <= i <= num_edges - 1``) covers
    ``(edges[i-1], edges[i]]``, and the last bucket is the overflow bucket
    (samples ``> edges[-1]``).  Exact ``count``/``sum``/``min``/``max``
    scalars ride along so :attr:`mean` and :attr:`max` stay exact; only
    percentiles are approximate, bounded by the bucket half-width.
    """

    __slots__ = ("edges", "_bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, edges: Optional[np.ndarray] = None) -> None:
        if edges is None:
            self.edges = default_boundaries()
            self._bounds = _DEFAULT_BOUNDS
        else:
            self.edges = np.asarray(edges)
            self._bounds = tuple(self.edges.astype(np.float64).tolist())
        self.bucket_counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __len__(self) -> int:
        return self.count

    def record(self, value: float) -> None:
        """Record one sample.

        The bucket is found by ``bisect_left`` over the edges held as a tuple
        of Python floats (shared by every default-layout histogram): for any
        non-NaN value, ±inf included, that is the position
        ``np.searchsorted(edges, value, side="left")`` gives, without a numpy
        call per sample.  NaN still goes through numpy, which sorts it past
        every edge where bisect would put it first.
        """
        value = float(value)
        if value == value:
            position = bisect_left(self._bounds, value)
        else:
            position = int(np.searchsorted(self.edges, value, side="left"))
        self.bucket_counts[position] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        """Vectorized bulk record: one searchsorted + bincount per batch.

        Accepts any array-like; no per-element ``float()`` conversion happens
        (the churn the exact-sample histogram suffered from).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        positions = np.searchsorted(self.edges, values, side="left")
        self.bucket_counts += np.bincount(
            positions, minlength=self.bucket_counts.size
        )
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    def merge(self, other: "LogBucketHistogram") -> None:
        """Fold ``other`` into this histogram (same fixed boundary layout)."""
        if self.edges.shape != other.edges.shape or not np.array_equal(
            self.edges, other.edges
        ):
            raise ValueError("cannot merge histograms with different boundaries")
        self.bucket_counts += other.bucket_counts
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def maximum(self) -> float:
        return self.max if self.count else float("nan")

    @property
    def minimum(self) -> float:
        return self.min if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Approximate percentile: geometric midpoint of the covering bucket.

        The representative is clipped into ``[min, max]`` so the answer is
        never outside the observed range; relative error versus the exact
        sample percentile is bounded by ``sqrt(growth) - 1``.  The extreme
        quantiles answer from the exact extrema the histogram already tracks:
        a bucket representative for q=0/q=100 could still contradict them
        (e.g. a sample just above a bucket edge reports p0 > min).
        """
        if self.count == 0:
            return float("nan")
        if q <= 0.0:
            return float(self.min)
        if q >= 100.0:
            return float(self.max)
        rank = (q / 100.0) * (self.count - 1)
        cumulative = np.cumsum(self.bucket_counts)
        position = int(np.searchsorted(cumulative, rank, side="right"))
        position = min(position, self.bucket_counts.size - 1)
        if position == 0:
            representative = float(self.edges[0])
        elif position >= self.edges.size:
            representative = float(self.edges[-1])
        else:
            low = float(self.edges[position - 1])
            high = float(self.edges[position])
            representative = math.sqrt(low * high)
        return float(min(max(representative, self.min), self.max))

    @property
    def kind(self) -> str:
        return "histogram"


Instrument = Union[Counter, Gauge, LogBucketHistogram]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class TelemetryRegistry:
    """Registry of labeled instruments with sampling + text exposition.

    Instruments are get-or-create: ``registry.counter("reads", shard="3")``
    always returns the same :class:`Counter` for the same name/label set.
    ``sample_interval_ms`` arms periodic time-series snapshots driven by the
    simulated clock via :meth:`maybe_sample`.
    """

    def __init__(self, sample_interval_ms: Optional[float] = None) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], Instrument] = {}
        self.sample_interval_ms = sample_interval_ms
        self.series: List[Dict[str, object]] = []
        self._last_sample_ms: Optional[float] = None

    # -- instrument lookup -------------------------------------------------
    def _get(self, factory, name: str, labels: Dict[str, str]) -> Instrument:
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def get_or_create(self, name: str, factory, **labels: str) -> Instrument:
        """Get-or-create an instrument with a custom factory (e.g. a
        histogram subclass); an existing instrument is returned as-is."""
        return self._get(factory, name, labels)

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> LogBucketHistogram:
        return self._get(LogBucketHistogram, name, labels)

    def instruments(
        self, name: Optional[str] = None
    ) -> Iterator[Tuple[str, LabelItems, Instrument]]:
        """Iterate ``(name, labels, instrument)`` sorted by name then labels."""
        for (metric, labels), instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            if name is None or metric == name:
                yield metric, labels, instrument

    def labeled_values(self, name: str) -> Dict[str, Union[int, float]]:
        """Scalar values of every series of ``name``, keyed by rendered labels."""
        return {
            render_name(metric, labels): instrument.value
            for metric, labels, instrument in self.instruments(name)
            if not isinstance(instrument, LogBucketHistogram)
        }

    # -- time series -------------------------------------------------------
    def sample(self, now_ms: float) -> Dict[str, object]:
        """Append one time-series snapshot of every instrument at ``now_ms``."""
        values: Dict[str, object] = {}
        for metric, labels, instrument in self.instruments():
            key = render_name(metric, labels)
            if isinstance(instrument, LogBucketHistogram):
                values[key] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "p99": instrument.percentile(99.0),
                }
            else:
                values[key] = instrument.value
        point = {"t_ms": float(now_ms), "values": values}
        self.series.append(point)
        self._last_sample_ms = float(now_ms)
        return point

    def maybe_sample(self, now_ms: float) -> bool:
        """Sample if the configured interval elapsed on the simulated clock."""
        if not self.sample_interval_ms:
            return False
        if (
            self._last_sample_ms is not None
            and now_ms - self._last_sample_ms < self.sample_interval_ms
        ):
            return False
        self.sample(now_ms)
        return True

    # -- exposition --------------------------------------------------------
    def exposition(self) -> str:
        """Prometheus-style text exposition of the whole registry.

        Histograms are rendered sparsely: only occupied cumulative buckets
        plus the mandatory ``+Inf`` bucket, ``_sum``, and ``_count`` series.
        """
        lines: List[str] = []
        seen_types: set = set()
        for metric, labels, instrument in self.instruments():
            if metric not in seen_types:
                seen_types.add(metric)
                lines.append(f"# TYPE {metric} {instrument.kind}")
            if isinstance(instrument, LogBucketHistogram):
                cumulative = 0
                for position in np.nonzero(instrument.bucket_counts)[0]:
                    cumulative = int(
                        instrument.bucket_counts[: position + 1].sum()
                    )
                    edge = (
                        instrument.edges[position]
                        if position < instrument.edges.size
                        else math.inf
                    )
                    bucket_labels = labels + (("le", f"{float(edge):.9g}"),)
                    lines.append(
                        f"{render_name(metric + '_bucket', bucket_labels)}"
                        f" {cumulative}"
                    )
                inf_labels = labels + (("le", "+Inf"),)
                lines.append(
                    f"{render_name(metric + '_bucket', inf_labels)}"
                    f" {instrument.count}"
                )
                lines.append(
                    f"{render_name(metric + '_sum', labels)} {instrument.total:.9g}"
                )
                lines.append(
                    f"{render_name(metric + '_count', labels)} {instrument.count}"
                )
            else:
                lines.append(f"{render_name(metric, labels)} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """Flat scalar snapshot (histograms reduced to count/sum/p50/p99)."""
        out: Dict[str, object] = {}
        for metric, labels, instrument in self.instruments():
            key = render_name(metric, labels)
            if isinstance(instrument, LogBucketHistogram):
                out[key] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "p50": instrument.percentile(50.0),
                    "p99": instrument.percentile(99.0),
                }
            else:
                out[key] = instrument.value
        return out
