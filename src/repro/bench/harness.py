"""Experiment results, tabular reporting and index factories."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.base import GpuIndex
from repro.baselines.btree import BPlusTreeIndex
from repro.baselines.fullscan import FullScanIndex
from repro.baselines.hash_table import HashTableIndex
from repro.baselines.rtscan import RTScanIndex
from repro.baselines.rx import RXIndex
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core.config import CgRXConfig, CgRXuConfig
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.gpu.device import RTX_4090, GpuDevice
from repro.workloads.keygen import KeySet


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure."""

    #: Experiment identifier, e.g. ``"figure_12"``.
    name: str
    #: What the experiment shows, for the report header.
    description: str
    #: One dict per series point (index x configuration x workload setting).
    rows: List[dict] = field(default_factory=list)
    #: Workload parameters the experiment ran with (scaled-down sizes etc.).
    parameters: Dict[str, object] = field(default_factory=dict)

    def add(self, **row: object) -> None:
        """Append one row."""
        self.rows.append(row)

    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def series(self, index_name: str) -> List[dict]:
        """All rows belonging to one index/series."""
        return [row for row in self.rows if row.get("index") == index_name]

    def to_table(self) -> str:
        """Human-readable table of all rows."""
        return format_table(self.rows)

    def to_json(self) -> str:
        """The experiment as a JSON document (the ``BENCH_*.json`` format).

        The output is strict JSON: ``NaN``/``Infinity`` values (legal Python
        floats, illegal JSON) are replaced by ``null`` so any spec-compliant
        parser can read the artifact.  Serialisation runs with
        ``allow_nan=False`` as a backstop — a non-finite value that slips
        past the sanitiser is a bug, not output.
        """
        import json

        def convert(value: object):
            if isinstance(value, np.integer):
                return int(value)
            if isinstance(value, np.floating):
                return float(value)
            if isinstance(value, np.bool_):
                return bool(value)
            if isinstance(value, np.ndarray):
                return value.tolist()
            raise TypeError(f"cannot serialise {type(value).__name__}")

        def sanitize(value: object):
            if isinstance(value, dict):
                return {key: sanitize(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [sanitize(item) for item in value]
            if isinstance(value, (np.integer, np.floating, np.bool_, np.ndarray)):
                return sanitize(convert(value))
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        return json.dumps(
            sanitize(
                {
                    "name": self.name,
                    "description": self.description,
                    "parameters": self.parameters,
                    "rows": self.rows,
                }
            ),
            indent=2,
            allow_nan=False,
            default=convert,
        )

    def save_json(self, directory: str = ".") -> str:
        """Write the ``BENCH_<name>.json`` snapshot; returns the path."""
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{self.name}.json")
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
        return path

    def print(self) -> None:
        """Print the experiment header, parameters and table to stdout."""
        print(f"== {self.name}: {self.description}")
        if self.parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in self.parameters.items())
            print(f"   parameters: {rendered}")
        print(self.to_table())


def format_table(rows: Sequence[dict], float_format: str = "{:.4g}") -> str:
    """Format a list of row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    )
    return "\n".join([header, separator, body])


# --------------------------------------------------------------------------
# Index factories
# --------------------------------------------------------------------------

#: Signature of an index factory: (keyset, device) -> index.
IndexFactory = Callable[[KeySet, GpuDevice], GpuIndex]


def cgrx_factory(bucket_size: int = 32, **config_kwargs: object) -> IndexFactory:
    """Factory for a cgRX configuration."""

    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        config = CgRXConfig(bucket_size=bucket_size, key_bits=keyset.key_bits, **config_kwargs)
        return CgRXIndex(keyset.keys, keyset.row_ids, config, device=device)

    return build


def cgrxu_factory(node_bytes: int = 128, **config_kwargs: object) -> IndexFactory:
    """Factory for a cgRXu configuration."""

    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        config = CgRXuConfig(node_bytes=node_bytes, key_bits=keyset.key_bits, **config_kwargs)
        return CgRXuIndex(keyset.keys, keyset.row_ids, config, device=device)

    return build


def rx_factory(**kwargs: object) -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return RXIndex(keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device, **kwargs)

    return build


def sorted_array_factory() -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device)

    return build


def btree_factory() -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return BPlusTreeIndex(keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device)

    return build


def hash_table_factory(load_factor: float = 0.8) -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return HashTableIndex(
            keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, load_factor=load_factor, device=device
        )

    return build


def rtscan_factory() -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return RTScanIndex(keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device)

    return build


def fullscan_factory() -> IndexFactory:
    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return FullScanIndex(keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device)

    return build


def sharded_factory(
    inner: Optional[IndexFactory] = None,
    num_shards: int = 4,
    partitioner: str = "range",
    cache_capacity: int = 4096,
    replication_factor: int = 1,
    read_policy: str = "round_robin",
    write_quorum: Optional[int] = None,
    rebuild_threshold: float = 0.5,
    compact_threshold: float = 0.2,
    rebuild_mode: str = "double_buffered",
    **config_kwargs: object,
) -> IndexFactory:
    """Factory for a served :class:`~repro.serve.sharded.ShardedIndex` deployment.

    ``inner`` is the factory of the per-shard index type (sorted array when
    omitted); the remaining arguments configure the serving layer, so bench
    experiments can compare served deployments against bare indexes.  With
    ``replication_factor > 1`` every shard becomes a replica group with
    load-balanced reads and quorum-acknowledged writes.  The shards' batch
    engine comes from the *inner* factory (e.g.
    ``cgrxu_factory(128, engine="scalar")``).
    ``rebuild_threshold``/``compact_threshold``/``rebuild_mode`` configure
    the tiered maintenance lifecycle (incremental
    compaction below the rebuild threshold, double-buffered or
    stop-the-world rebuild swaps above it).
    """

    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        from repro.serve.sharded import ServeConfig, ShardedIndex

        config = ServeConfig(
            num_shards=num_shards,
            partitioner=partitioner,
            key_bits=keyset.key_bits,
            cache_capacity=cache_capacity,
            replication_factor=replication_factor,
            read_policy=read_policy,
            write_quorum=write_quorum,
            rebuild_threshold=rebuild_threshold,
            compact_threshold=compact_threshold,
            rebuild_mode=rebuild_mode,
            **config_kwargs,
        )
        return ShardedIndex(
            keyset.keys,
            keyset.row_ids,
            factory=inner or sorted_array_factory(),
            config=config,
            device=device,
        )

    return build


def default_point_lookup_factories(key_bits: int) -> Dict[str, IndexFactory]:
    """The index set compared in the point-lookup experiments (Figures 12/13)."""
    factories: Dict[str, IndexFactory] = {
        "cgRX (32)": cgrx_factory(32),
        "cgRX (256)": cgrx_factory(256),
        "RX": rx_factory(),
        "SA": sorted_array_factory(),
        "HT": hash_table_factory(),
    }
    if key_bits == 32:
        factories["B+"] = btree_factory()
    return factories


# --------------------------------------------------------------------------
# Generic experiment runners
# --------------------------------------------------------------------------


def run_experiment(
    result: ExperimentResult,
    factories: Dict[str, IndexFactory],
    keyset: KeySet,
    lookups: np.ndarray,
    device: GpuDevice = RTX_4090,
    extra: Optional[dict] = None,
) -> ExperimentResult:
    """Build every index, run the point-lookup batch and append one row each."""
    from repro.bench.metrics import throughput_per_footprint

    extra = extra or {}
    for name, factory in factories.items():
        index = factory(keyset, device)
        lookup_result = index.point_lookup_batch(lookups)
        time_ms = index.lookup_time_ms(lookup_result)
        footprint = index.memory_footprint().total_bytes
        result.add(
            index=name,
            footprint_mib=footprint / float(1 << 20),
            lookup_time_ms=time_ms,
            throughput_per_footprint=throughput_per_footprint(
                lookup_result.num_lookups, time_ms, footprint
            ),
            hits=lookup_result.hits,
            **extra,
        )
    return result
