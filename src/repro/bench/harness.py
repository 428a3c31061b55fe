"""Experiment results, snapshot comparison, index factories and the helpers
the experiments share."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import GpuIndex, LookupResult
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
from repro.serve.sharded import ServeConfig, ShardedIndex
from repro.workloads.keygen import KeySet
from repro.workloads.requests import RequestStream


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure.

    Every column is simulated ("sim"): the GPU cost model's deterministic
    output, which must reproduce exactly.  The exceptions are the
    ``wall_columns``, which measure the host ("wall") and differ from run to
    run.  :meth:`diff` compares a rerun against the committed
    ``BENCH_<name>.json`` snapshot on that basis.
    """

    #: Experiment identifier, e.g. ``"figure_12"``.
    name: str
    #: What the experiment shows, for the report header.
    description: str
    #: One dict per series point (index x configuration x workload setting).
    rows: List[dict] = field(default_factory=list)
    #: Workload parameters the experiment ran with (scaled-down sizes etc.).
    parameters: Dict[str, object] = field(default_factory=dict)
    #: Columns measured on the host's wall clock.  :meth:`diff` requires
    #: their cells but does not compare their values.  Not part of the JSON.
    wall_columns: Tuple[str, ...] = ()

    def add(self, **row: object) -> None:
        """Append one row."""
        self.rows.append(row)

    def diff(self, committed: dict) -> List[str]:
        """Differences against a committed ``BENCH_<name>.json`` document.

        One line per sim cell whose value differs (row, column, committed
        value, new value), per missing or extra row and per missing or extra
        column of a row.  Rows compare by position, after a JSON round trip,
        so each value compares as written.  ``parameters`` are not compared.
        Raises ``ValueError`` when a declared wall column appears in no row.
        """
        rows = json.loads(self.to_json())["rows"]
        unused = [column for column in self.wall_columns if all(column not in row for row in rows)]
        if unused:
            raise ValueError(f"{self.name}: wall column(s) {unused} appear in no row")
        old_rows = committed["rows"]
        shared = min(len(old_rows), len(rows))
        lines = [f"row {i}: missing, committed {old_rows[i]}" for i in range(shared, len(old_rows))]
        lines += [f"row {i}: extra, new {rows[i]}" for i in range(shared, len(rows))]
        for i, (old, new) in enumerate(zip(old_rows, rows)):
            for column in [*old, *(column for column in new if column not in old)]:
                if column not in new:
                    lines.append(f"row {i}, {column}: missing, committed {old[column]!r}")
                elif column not in old:
                    lines.append(f"row {i}, {column}: extra, new {new[column]!r}")
                elif column not in self.wall_columns:
                    was, now = old[column], new[column]
                    if json.dumps(was) != json.dumps(now):
                        lines.append(f"row {i}, {column}: committed {was!r}, new {now!r}")
        return lines

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


def sharded_factory(inner: Optional[IndexFactory] = None, **serve_config: object) -> IndexFactory:
    """Factory for a served :class:`~repro.serve.sharded.ShardedIndex` deployment.

    ``inner`` is the factory of the per-shard index type (sorted array when
    omitted); it also picks the shards' batch engine (e.g.
    ``cgrxu_factory(128, engine="scalar")``).  ``serve_config`` holds
    :class:`~repro.serve.sharded.ServeConfig` fields; ``key_bits`` comes from
    the key set.
    """

    def build(keyset: KeySet, device: GpuDevice = RTX_4090) -> GpuIndex:
        return ShardedIndex(
            keyset.keys,
            keyset.row_ids,
            factory=inner or sorted_array_factory(),
            config=ServeConfig(key_bits=keyset.key_bits, **serve_config),
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
# Helpers the experiments share
# --------------------------------------------------------------------------


def random_keys32(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform 32-bit keys: the experiments' insert and fresh-key draw."""
    return rng.integers(0, (1 << 32) - 1, size=size, dtype=np.uint64).astype(np.uint32)


def byte_identical(answers, expected, mask: Optional[np.ndarray] = None) -> bool:
    """Whether two array pairs are byte-for-byte equal, where ``mask`` is set.

    Each side is a :class:`~repro.baselines.base.LookupResult` (its row IDs
    and match counts), a ``last_answers`` tuple or a ``(keys, row_ids)``
    entry pair.
    """
    sides = [
        (side.row_ids, side.match_counts) if isinstance(side, LookupResult) else side
        for side in (answers, expected)
    ]
    for left, right in zip(*sides):
        if mask is not None:
            left, right = left[mask], right[mask]
        if left.tobytes() != right.tobytes():
            return False
    return True


def probe_identical(
    served: GpuIndex, oracle_keys: np.ndarray, oracle_rows: np.ndarray, seed: int
) -> bool:
    """Post-update probe: does ``served`` answer like its oracle entries?

    The probe is 224 keys drawn by position from ``oracle_keys`` (so a lost
    insert shows) plus 32 fresh uniform keys, mostly misses.  The reference
    is a sorted array over the oracle entries.
    """
    rng = np.random.default_rng(seed)
    probe = np.concatenate([rng.choice(oracle_keys, size=224), random_keys32(rng, 32)])
    expected = SortedArrayIndex(oracle_keys, oracle_rows, key_bits=32).point_lookup_batch(probe)
    return byte_identical(served.point_lookup_batch(probe), expected)


def at_clock(stream: RequestStream, now_ms: float) -> RequestStream:
    """``stream`` with its arrivals moved onto a deployment clock reading ``now_ms``."""
    return dataclasses.replace(stream, arrival_ms=stream.arrival_ms + now_ms)
