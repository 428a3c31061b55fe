"""One experiment function per table and figure of the paper.

Every function returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows correspond to the series the paper plots.  All sizes default to
laptop-scale values (the paper uses 2^24-2^28 keys and 2^27 lookups, which a
pure-Python simulation cannot execute in reasonable time); the ratios the
experiments vary — uniformity, bucket size, batch size, hit ratio, skew,
update-wave size relative to the build — are preserved.  Every function
accepts the relevant sizes as parameters, so the paper-native configuration
can be requested explicitly if runtime is no concern.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.base import GpuIndex
from repro.baselines.btree import BPlusTreeIndex
from repro.baselines.hash_table import HashTableIndex
from repro.baselines.rtscan import RTScanIndex
from repro.baselines.rx import RXIndex
from repro.baselines.sorted_array import SortedArrayIndex
from repro.bench.harness import (
    ExperimentResult,
    IndexFactory,
    at_clock,
    btree_factory,
    byte_identical,
    cgrx_factory,
    cgrxu_factory,
    default_point_lookup_factories,
    fullscan_factory,
    hash_table_factory,
    probe_identical,
    random_keys32,
    rtscan_factory,
    rx_factory,
    sharded_factory,
    sorted_array_factory,
)
from repro.bench.metrics import (
    normalized_cumulative_time_ms,
    throughput_per_footprint,
    time_per_lookup_ms,
)
from repro.core.config import CgRXConfig, CgRXuConfig, Representation
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.gpu.device import RTX_4090, GpuDevice
from repro.obs import critical_path_breakdown, format_breakdown
from repro.serve.qos import TenantQoS
from repro.serve.reliability import ReliabilityConfig
from repro.serve.replication import FailureEvent
from repro.serve.router import apply_update_to_entries
from repro.serve.sharded import (
    ANSWERED,
    DEADLINE_EXCEEDED,
    STALE,
    UNAVAILABLE,
    ServeConfig,
    ShardedIndex,
)
from repro.store import DeploymentStore, LocalDirBackend, encode_record
from repro.workloads.adversarial import (
    TenantSpec,
    multi_tenant_stream,
    range_hammer_stream,
    shifting_hotspot_stream,
)
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import DISTRIBUTIONS, KeySet, generate_distribution, generate_keys
from repro.workloads.lookups import (
    hit_miss_lookups,
    range_lookups,
    uniform_lookups,
    zipf_lookups,
)
from repro.workloads.requests import zipf_request_stream
from repro.workloads.updates import update_waves


def _scaled_cache_device(device: GpuDevice, keyset_bytes: int, ratio: float = 7.0) -> GpuDevice:
    """Shrink the device's L2 so the data-to-cache ratio matches the paper's scale.

    The paper's key sets (0.5-2 GiB) exceed the 72 MiB L2 by roughly an order
    of magnitude, which is what makes lookup skew beneficial (Figure 17).  Our
    scaled-down key sets would fit into the cache entirely and hide the
    effect, so the skew experiment scales the cache down proportionally.
    """
    return dataclasses.replace(device, l2_cache_bytes=max(1, int(keyset_bytes / ratio)))


def _scaled_saturation_device(
    device: GpuDevice, saturation_threads: int, launch_overhead_ms: float = None
) -> GpuDevice:
    """Lower the saturation batch size (and optionally the launch overhead).

    The paper varies batches up to 2^27 lookups and the RTX 4090 saturates at
    around 2^15 resident lookups; the scaled-down sweeps keep the same
    relationship by scaling the saturation point (and, where fixed kernel
    launch overheads would otherwise dominate the micro-scale kernels, the
    launch overhead) alongside the batches.
    """
    replaced = dataclasses.replace(device, saturation_threads=int(saturation_threads))
    if launch_overhead_ms is not None:
        replaced = dataclasses.replace(replaced, kernel_launch_overhead_ms=launch_overhead_ms)
    return replaced


# --------------------------------------------------------------------------
# Table I
# --------------------------------------------------------------------------


def table1_feature_matrix() -> ExperimentResult:
    """Table I: feature overview of all tested indexes."""
    result = ExperimentResult(
        name="table_1",
        description="Feature matrix of all tested indexes (Table I)",
    )
    for index_cls in (
        HashTableIndex,
        BPlusTreeIndex,
        SortedArrayIndex,
        RXIndex,
        RTScanIndex,
        CgRXIndex,
        CgRXuIndex,
    ):
        result.add(**index_cls.feature_row())
    return result


# --------------------------------------------------------------------------
# Figure 1 — the three limitations of RX that motivate cgRX
# --------------------------------------------------------------------------


def figure_01_rx_limitations(
    sizes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16),
    range_hits: Sequence[int] = (1, 16, 1024),
    update_counts: Sequence[int] = (0, 1 << 8, 1 << 11),
    num_lookups: int = 1 << 12,
    seed: int = 7,
) -> ExperimentResult:
    """Figure 1: RX's memory overhead, slow range lookups and update degradation."""
    result = ExperimentResult(
        name="figure_1",
        description="Limitations of RX: memory footprint, range lookups, post-update lookups",
        parameters={"sizes": list(sizes), "range_hits": list(range_hits), "updates": list(update_counts)},
    )

    # (a) Memory footprint across data-set sizes.
    for num_keys in sizes:
        keyset = generate_keys(num_keys, uniformity=0.0, key_bits=32, seed=seed)
        for name, factory in (
            ("RX", rx_factory()),
            ("SA", sorted_array_factory()),
            ("B+", btree_factory()),
            ("HT", hash_table_factory()),
        ):
            index = factory(keyset, RTX_4090)
            result.add(
                panel="a_memory",
                index=name,
                num_keys=num_keys,
                footprint_mib=index.memory_footprint().total_bytes / float(1 << 20),
            )

    # (b) Range lookups: RX versus SA and B+.
    keyset = generate_keys(max(sizes), uniformity=0.0, key_bits=32, seed=seed)
    for hits in range_hits:
        lows, highs = range_lookups(keyset, count=64, expected_hits=hits, seed=seed)
        for name, factory in (("RX", rx_factory()), ("SA", sorted_array_factory()), ("B+", btree_factory())):
            index = factory(keyset, RTX_4090)
            lookup = index.range_lookup_batch(lows, highs)
            time_ms = index.lookup_time_ms(lookup)
            result.add(
                panel="b_range",
                index=name,
                expected_hits=hits,
                normalized_time_ms=normalized_cumulative_time_ms(time_ms, lookup.total_matches),
            )

    # (c) Lookup performance after refit-based updates.
    base = generate_keys(max(sizes), uniformity=1.0, key_bits=32, seed=seed)
    lookups = uniform_lookups(base, num_lookups, seed=seed + 1)
    for updates in update_counts:
        index = RXIndex(base.keys, base.row_ids, key_bits=32)
        if updates:
            rng = np.random.default_rng(seed + updates)
            delete_keys = rng.choice(base.keys, size=updates, replace=False)
            insert_keys = random_keys32(rng, updates)
            index.update_batch_refit(insert_keys, delete_keys=delete_keys)
        lookup = index.point_lookup_batch(lookups)
        result.add(
            panel="c_updates",
            index="RX (refit)",
            num_updates=updates,
            lookup_time_ms=index.lookup_time_ms(lookup),
            triangle_tests_per_lookup=lookup.stats.triangle_tests / max(1, lookup.num_lookups),
        )
    return result


# --------------------------------------------------------------------------
# Figure 9 — impact of scaling the key mapping
# --------------------------------------------------------------------------


def figure_09_key_mapping_scaling(
    num_keys: int = 1 << 16,
    num_lookups: int = 1 << 12,
    bucket_size: int = 32,
    key_bits: int = 32,
    seed: int = 11,
) -> ExperimentResult:
    """Figure 9 (conceptual): scaled vs unscaled key mapping on a uniform key set.

    With the unscaled mapping the x extent of the scene dominates, the BVH
    builder forms slabs that span many rows, and the unavoidable x-axis ray
    has to intersection-test triangles from neighbouring rows.  Scaling the
    y/z coordinates makes the builder separate rows first.
    """
    result = ExperimentResult(
        name="figure_9",
        description="Effect of y/z scaling on BVH quality (triangle tests per x-ray)",
        parameters={"num_keys": num_keys, "num_lookups": num_lookups, "key_bits": key_bits},
    )
    keyset = generate_keys(num_keys, uniformity=1.0, key_bits=key_bits, seed=seed)
    lookups = uniform_lookups(keyset, num_lookups, seed=seed + 1)
    for label, scaled in (("unscaled", False), ("scaled", True)):
        config = CgRXConfig(bucket_size=bucket_size, key_bits=key_bits, scaled_mapping=scaled)
        index = CgRXIndex(keyset.keys, keyset.row_ids, config)
        lookup = index.point_lookup_batch(lookups)
        result.add(
            mapping=label,
            lookup_time_ms=index.lookup_time_ms(lookup),
            triangle_tests_per_lookup=lookup.stats.triangle_tests / lookup.num_lookups,
            bvh_nodes_per_lookup=lookup.stats.bvh_node_visits / lookup.num_lookups,
        )
    return result


# --------------------------------------------------------------------------
# Figure 10 — naive vs optimized representation
# --------------------------------------------------------------------------


def figure_10_naive_vs_optimized(
    num_keys: int = 1 << 14,
    num_lookups: int = 1 << 12,
    bucket_sizes: Sequence[int] = (4, 16, 256),
    uniformities: Sequence[float] = (0.0, 0.5, 1.0),
    key_widths: Sequence[int] = (32, 64),
    seed: int = 13,
) -> ExperimentResult:
    """Figure 10: naive vs optimized representation across key width and uniformity."""
    result = ExperimentResult(
        name="figure_10",
        description="Naive vs optimized scene representation (scaled key mapping)",
        parameters={
            "num_keys": num_keys,
            "num_lookups": num_lookups,
            "bucket_sizes": list(bucket_sizes),
        },
    )
    for key_bits in key_widths:
        for uniformity in uniformities:
            keyset = generate_keys(num_keys, uniformity=uniformity, key_bits=key_bits, seed=seed)
            lookups = uniform_lookups(keyset, num_lookups, seed=seed + 1)
            for bucket_size in bucket_sizes:
                for representation in (Representation.NAIVE, Representation.OPTIMIZED):
                    config = CgRXConfig(
                        bucket_size=bucket_size,
                        key_bits=key_bits,
                        representation=representation,
                    )
                    index = CgRXIndex(keyset.keys, keyset.row_ids, config)
                    lookup = index.point_lookup_batch(lookups)
                    result.add(
                        key_bits=key_bits,
                        uniformity=uniformity,
                        bucket_size=bucket_size,
                        representation=representation.value,
                        lookup_time_ms=index.lookup_time_ms(lookup),
                        rays_per_lookup=lookup.stats.rays_cast / lookup.num_lookups,
                        footprint_mib=index.memory_footprint().total_bytes / float(1 << 20),
                    )
    return result


# --------------------------------------------------------------------------
# Figure 11 — bucket-size robustness
# --------------------------------------------------------------------------


def figure_11_bucket_size_robustness(
    num_keys: int = 1 << 14,
    num_lookups: int = 1 << 12,
    bucket_sizes: Sequence[int] = (4, 8, 16, 32, 64, 128, 256, 512),
    distributions: Optional[Sequence[str]] = None,
    key_bits: int = 32,
    devices: Sequence[GpuDevice] = (RTX_4090,),
    seed: int = 17,
) -> ExperimentResult:
    """Figure 11: which bucket size wins across key distributions.

    The paper evaluates 4560 combinations (12 bucket sizes x 19 distributions
    x 2 key widths x 5 sizes x 2 GPUs); the default here covers the bucket
    size x distribution plane on one GPU, which is the part shown in the
    figure, and reports per-configuration relative performance.
    """
    distributions = list(distributions) if distributions is not None else list(DISTRIBUTIONS)
    result = ExperimentResult(
        name="figure_11",
        description="Bucket-size robustness across key distributions",
        parameters={
            "num_keys": num_keys,
            "bucket_sizes": list(bucket_sizes),
            "distributions": distributions,
        },
    )
    for device in devices:
        for distribution in distributions:
            keyset = generate_distribution(distribution, num_keys, key_bits=key_bits, seed=seed)
            lookups = uniform_lookups(keyset, num_lookups, seed=seed + 1)
            times: Dict[int, float] = {}
            ratios: Dict[int, float] = {}
            for bucket_size in bucket_sizes:
                config = CgRXConfig(bucket_size=bucket_size, key_bits=key_bits)
                index = CgRXIndex(keyset.keys, keyset.row_ids, config, device=device)
                lookup = index.point_lookup_batch(lookups)
                time_ms = index.lookup_time_ms(lookup)
                times[bucket_size] = time_ms
                ratios[bucket_size] = throughput_per_footprint(
                    lookup.num_lookups, time_ms, index.memory_footprint().total_bytes
                )
            best_time = min(times.values())
            best_ratio = max(ratios.values())
            for bucket_size in bucket_sizes:
                result.add(
                    device=device.name,
                    distribution=distribution,
                    bucket_size=bucket_size,
                    lookup_time_ms=times[bucket_size],
                    relative_lookup_time=times[bucket_size] / best_time,
                    throughput_per_footprint=ratios[bucket_size],
                    relative_tp_per_footprint=ratios[bucket_size] / best_ratio,
                )
    return result


# --------------------------------------------------------------------------
# Figures 12 and 13 — memory footprint and point-lookup performance
# --------------------------------------------------------------------------


def _point_lookup_comparison(
    name: str,
    description: str,
    key_bits: int,
    sizes: Sequence[int],
    uniformities: Sequence[float],
    num_lookups: int,
    seed: int,
) -> ExperimentResult:
    result = ExperimentResult(
        name=name,
        description=description,
        parameters={"sizes": list(sizes), "uniformities": list(uniformities), "num_lookups": num_lookups},
    )
    for num_keys in sizes:
        for uniformity in uniformities:
            keyset = generate_keys(num_keys, uniformity=uniformity, key_bits=key_bits, seed=seed)
            lookups = uniform_lookups(keyset, num_lookups, seed=seed + 1)
            # Keep the data-to-cache ratio of the paper's gigabyte-scale key
            # sets so that random probes into the data array are DRAM bound.
            device = _scaled_cache_device(RTX_4090, keyset_bytes=num_keys * (key_bits // 8 + 4))
            factories = default_point_lookup_factories(key_bits)
            for index_name, factory in factories.items():
                index = factory(keyset, device)
                lookup = index.point_lookup_batch(lookups)
                time_ms = index.lookup_time_ms(lookup)
                footprint = index.memory_footprint().total_bytes
                result.add(
                    num_keys=num_keys,
                    uniformity=uniformity,
                    index=index_name,
                    footprint_mib=footprint / float(1 << 20),
                    lookup_time_ms=time_ms,
                    throughput_per_footprint=throughput_per_footprint(
                        lookup.num_lookups, time_ms, footprint
                    ),
                )
    return result


def figure_12_point_lookups_32bit(
    sizes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16),
    uniformities: Sequence[float] = (0.0, 0.2, 1.0),
    num_lookups: int = 1 << 13,
    seed: int = 19,
) -> ExperimentResult:
    """Figure 12: footprint, point-lookup time and TP/footprint for 32-bit keys."""
    return _point_lookup_comparison(
        name="figure_12",
        description="Memory footprint and point-lookup performance, 32-bit keys",
        key_bits=32,
        sizes=sizes,
        uniformities=uniformities,
        num_lookups=num_lookups,
        seed=seed,
    )


def figure_13_point_lookups_64bit(
    sizes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16),
    uniformities: Sequence[float] = (0.0, 0.2, 1.0),
    num_lookups: int = 1 << 13,
    seed: int = 23,
) -> ExperimentResult:
    """Figure 13: the same comparison for 64-bit keys (B+ cannot participate)."""
    return _point_lookup_comparison(
        name="figure_13",
        description="Memory footprint and point-lookup performance, 64-bit keys",
        key_bits=64,
        sizes=sizes,
        uniformities=uniformities,
        num_lookups=num_lookups,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Figure 14 — range lookups
# --------------------------------------------------------------------------


def figure_14_range_lookups(
    num_keys: int = 1 << 16,
    expected_hits: Sequence[int] = (1, 4, 16, 64, 256, 1024),
    num_range_lookups: int = 1 << 10,
    saturation_threads: int = 1 << 12,
    seed: int = 29,
) -> ExperimentResult:
    """Figure 14: range lookups on a dense 32-bit key set, varying the expected hits.

    The batch is large relative to the (scaled) saturation point so that the
    indexes answering a whole batch concurrently are fully utilised while
    RTScan, which only executes 32 range lookups at a time, is not — the
    mechanism behind its poor batched-range performance in the paper.
    """
    result = ExperimentResult(
        name="figure_14",
        description="Range-lookup performance on a dense 32-bit key set",
        parameters={
            "num_keys": num_keys,
            "expected_hits": list(expected_hits),
            "num_range_lookups": num_range_lookups,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.0, key_bits=32, seed=seed)
    device = _scaled_cache_device(
        _scaled_saturation_device(RTX_4090, saturation_threads, launch_overhead_ms=0.0005),
        keyset_bytes=num_keys * 8,
    )
    factories: Dict[str, IndexFactory] = {
        "cgRX (32)": cgrx_factory(32),
        "cgRX (256)": cgrx_factory(256),
        "RX": rx_factory(),
        "SA": sorted_array_factory(),
        "B+": btree_factory(),
        "RTScan (RTc1)": rtscan_factory(),
        "FullScan": fullscan_factory(),
    }
    indexes = {name: factory(keyset, device) for name, factory in factories.items()}
    for hits in expected_hits:
        lows, highs = range_lookups(keyset, count=num_range_lookups, expected_hits=hits, seed=seed)
        for name, index in indexes.items():
            lookup = index.range_lookup_batch(lows, highs)
            time_ms = index.lookup_time_ms(lookup)
            result.add(
                index=name,
                expected_hits=hits,
                normalized_time_ms=normalized_cumulative_time_ms(time_ms, lookup.total_matches),
                total_time_ms=time_ms,
                retrieved=lookup.total_matches,
            )
    return result


# --------------------------------------------------------------------------
# Figure 15 — varying the batch size
# --------------------------------------------------------------------------


def figure_15_batch_size(
    num_keys: int = 1 << 14,
    batch_sizes: Sequence[int] = (1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15),
    saturation_threads: int = 1 << 11,
    seed: int = 31,
) -> ExperimentResult:
    """Figure 15: time per lookup as the batch size varies (GPU underutilisation).

    Batches below the device's saturation point leave the GPU underutilised
    and the time per lookup rises; above it the time per lookup is flat.  The
    saturation point is scaled down alongside the batch sizes (see
    :func:`_scaled_saturation_device`).
    """
    result = ExperimentResult(
        name="figure_15",
        description="Impact of the lookup batch size (time per lookup)",
        parameters={
            "num_keys": num_keys,
            "batch_sizes": list(batch_sizes),
            "saturation_threads": saturation_threads,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.2, key_bits=32, seed=seed)
    device = _scaled_saturation_device(RTX_4090, saturation_threads, launch_overhead_ms=0.0002)
    factories: Dict[str, IndexFactory] = {
        "cgRX (32)": cgrx_factory(32),
        "cgRX (256)": cgrx_factory(256),
        "cgRXu (1 cl)": cgrxu_factory(128),
        "RX": rx_factory(),
        "SA": sorted_array_factory(),
        "B+": btree_factory(),
        "HT": hash_table_factory(),
    }
    indexes = {name: factory(keyset, device) for name, factory in factories.items()}
    for batch_size in batch_sizes:
        lookups = uniform_lookups(keyset, batch_size, seed=seed + batch_size)
        for name, index in indexes.items():
            lookup = index.point_lookup_batch(lookups)
            time_ms = index.lookup_time_ms(lookup)
            result.add(
                index=name,
                batch_size=batch_size,
                time_per_lookup_ms=time_per_lookup_ms(time_ms, lookup.num_lookups),
            )
    return result


# --------------------------------------------------------------------------
# Figure 16 — varying the hit ratio
# --------------------------------------------------------------------------


def figure_16_hit_ratio(
    num_keys: int = 1 << 14,
    num_lookups: int = 1 << 12,
    miss_settings: Sequence[tuple] = (
        (0.0, 0.0),
        (0.01, 0.0),
        (0.1, 0.0),
        (0.3, 0.0),
        (0.5, 0.0),
        (0.7, 0.0),
        (0.9, 0.0),
        (0.99, 0.0),
        (1.0, 0.0),
        (0.5, 1.0),
        (1.0, 1.0),
    ),
    seed: int = 37,
) -> ExperimentResult:
    """Figure 16: accumulated point-lookup time as the miss ratio grows."""
    result = ExperimentResult(
        name="figure_16",
        description="Impact of the hit ratio (in-range and out-of-range misses)",
        parameters={"num_keys": num_keys, "num_lookups": num_lookups},
    )
    keyset = generate_keys(num_keys, uniformity=1.0, key_bits=32, seed=seed)
    factories = default_point_lookup_factories(32)
    indexes = {name: factory(keyset, RTX_4090) for name, factory in factories.items()}
    for miss_fraction, out_of_range in miss_settings:
        lookups = hit_miss_lookups(
            keyset,
            num_lookups,
            miss_fraction=miss_fraction,
            out_of_range_fraction=out_of_range,
            seed=seed + int(miss_fraction * 100) + int(out_of_range * 7),
        )
        for name, index in indexes.items():
            lookup = index.point_lookup_batch(lookups)
            result.add(
                index=name,
                miss_fraction=miss_fraction,
                out_of_range_fraction=out_of_range,
                lookup_time_ms=index.lookup_time_ms(lookup),
                hits=lookup.hits,
            )
    return result


# --------------------------------------------------------------------------
# Figure 17 — varying the lookup skew
# --------------------------------------------------------------------------


def figure_17_lookup_skew(
    num_keys: int = 1 << 14,
    num_lookups: int = 1 << 12,
    zipf_coefficients: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    seed: int = 41,
) -> ExperimentResult:
    """Figure 17: accumulated point-lookup time under Zipf-skewed lookups."""
    result = ExperimentResult(
        name="figure_17",
        description="Impact of lookup skew (Zipf-distributed lookup keys)",
        parameters={"num_keys": num_keys, "num_lookups": num_lookups},
    )
    keyset = generate_keys(num_keys, uniformity=0.2, key_bits=32, seed=seed)
    device = _scaled_cache_device(RTX_4090, keyset_bytes=len(keyset) * 8)
    factories = default_point_lookup_factories(32)
    indexes = {name: factory(keyset, device) for name, factory in factories.items()}
    for coefficient in zipf_coefficients:
        lookups = zipf_lookups(keyset, num_lookups, coefficient, seed=seed + int(coefficient * 10))
        for name, index in indexes.items():
            lookup = index.point_lookup_batch(lookups)
            result.add(
                index=name,
                zipf_coefficient=coefficient,
                lookup_time_ms=index.lookup_time_ms(lookup),
            )
    return result


# --------------------------------------------------------------------------
# Figure 18 — updates
# --------------------------------------------------------------------------


def figure_18_updates(
    num_keys: int = 1 << 14,
    num_lookups: int = 1 << 12,
    num_insert_waves: int = 8,
    num_delete_waves: int = 8,
    growth_factor: float = 2.2,
    saturation_threads: int = 1 << 10,
    seed: int = 43,
) -> ExperimentResult:
    """Figure 18: applying update waves and the lookup performance afterwards.

    Compares cgRXu's node-based in-place updates against rebuilding cgRX and
    RX from scratch, and against the native update paths of B+ and HT (built
    at the 40% load factor recommended for update workloads).
    """
    result = ExperimentResult(
        name="figure_18",
        description="Update waves: apply time, update TP/footprint, post-update lookups",
        parameters={
            "num_keys": num_keys,
            "insert_waves": num_insert_waves,
            "delete_waves": num_delete_waves,
            "growth_factor": growth_factor,
        },
    )
    keyset = generate_keys(num_keys, uniformity=1.0, key_bits=32, seed=seed)
    waves = update_waves(
        keyset,
        num_insert_waves=num_insert_waves,
        num_delete_waves=num_delete_waves,
        growth_factor=growth_factor,
        seed=seed + 1,
    )
    lookups = uniform_lookups(keyset, num_lookups, seed=seed + 2)
    # The per-bucket update kernel of cgRXu launches one thread per bucket;
    # scale the saturation point down so that, as in the paper, this kernel is
    # not artificially penalised by the small simulated bucket count.
    device = _scaled_saturation_device(RTX_4090, saturation_threads, launch_overhead_ms=0.0005)

    variants: Dict[str, GpuIndex] = {
        "cgRX (32) [rebuild]": cgrx_factory(32)(keyset, device),
        "cgRX (256) [rebuild]": cgrx_factory(256)(keyset, device),
        "cgRXu (1 cl)": cgrxu_factory(128)(keyset, device),
        "RX [rebuild]": rx_factory()(keyset, device),
        "B+": btree_factory()(keyset, device),
        "HT": hash_table_factory(load_factor=0.4)(keyset, device),
    }

    # Wave 0: lookup performance right after the bulk load.
    for name, index in variants.items():
        lookup = index.point_lookup_batch(lookups)
        result.add(
            panel="c_lookups",
            index=name,
            wave=0,
            kind="init",
            lookup_time_ms=index.lookup_time_ms(lookup),
        )

    for wave in waves:
        for name, index in variants.items():
            update = index.update_batch(
                insert_keys=wave.insert_keys if wave.insert_keys.size else None,
                insert_row_ids=wave.insert_row_ids if wave.insert_row_ids.size else None,
                delete_keys=wave.delete_keys if wave.delete_keys.size else None,
            )
            apply_time_ms = index.cost_model.kernel_time_ms(update.stats)
            footprint = index.memory_footprint().total_bytes
            result.add(
                panel="a_apply",
                index=name,
                wave=wave.wave,
                kind=wave.kind,
                apply_time_ms=apply_time_ms,
                rebuilt=update.rebuilt,
            )
            result.add(
                panel="b_tp_per_footprint",
                index=name,
                wave=wave.wave,
                kind=wave.kind,
                update_tp_per_footprint=throughput_per_footprint(
                    wave.size, apply_time_ms, footprint
                ),
            )
            lookup = index.point_lookup_batch(lookups)
            result.add(
                panel="c_lookups",
                index=name,
                wave=wave.wave,
                kind=wave.kind,
                lookup_time_ms=index.lookup_time_ms(lookup),
            )
    return result


# --------------------------------------------------------------------------
# Serving: sharded deployments under a timed client request stream
# --------------------------------------------------------------------------


def serving_deployment(
    num_keys: int = 1 << 13,
    num_requests: int = 1 << 11,
    shard_counts: Sequence[int] = (1, 4, 8),
    partitioners: Sequence[str] = ("range", "hash"),
    zipf_coefficients: Sequence[float] = (0.0, 1.0, 1.5),
    cache_capacity: int = 1024,
    max_batch_size: int = 256,
    max_wait_ms: float = 0.5,
    requests_per_ms: float = 32.0,
    miss_fraction: float = 0.05,
    num_update_waves: int = 4,
    seed: int = 47,
) -> ExperimentResult:
    """Serving experiment: the `repro.serve` stack under client traffic.

    Three panels, all beyond the paper's bulk-call evaluation:

    * ``a_sharding`` — the partitioner x shard-count plane under one skewed
      stream: hash partitioning evens out the per-shard load (request skew
      near 1) while range partitioning keeps range queries narrow,
    * ``b_skew_cache`` — the Zipf-coefficient sweep with the result cache on
      and off: skew is what the cache converts into host-latency hits, and
    * ``c_maintenance`` — insert waves against a cgRXu deployment: chains
      degrade shard health until the background worker rebuilds them.
    """
    result = ExperimentResult(
        name="serving",
        description="Sharded index serving: batching, caching, maintenance",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "shard_counts": list(shard_counts),
            "partitioners": list(partitioners),
            "zipf_coefficients": list(zipf_coefficients),
            "cache_capacity": cache_capacity,
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)

    def deployment(partitioner: str, shards: int, cache: int) -> GpuIndex:
        factory = sharded_factory(
            inner=cgrx_factory(32),
            num_shards=shards,
            partitioner=partitioner,
            cache_capacity=cache,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
        )
        return factory(keyset, RTX_4090)

    # (a) Sharding plane under one skewed stream.
    stream = zipf_request_stream(
        keyset,
        num_requests,
        zipf_coefficient=1.0,
        requests_per_ms=requests_per_ms,
        miss_fraction=miss_fraction,
        seed=seed + 1,
    )
    for partitioner in partitioners:
        for shards in shard_counts:
            served = deployment(partitioner, shards, cache_capacity)
            metrics = served.serve_stream(stream)
            snapshot = metrics.snapshot()
            result.add(
                panel="a_sharding",
                partitioner=partitioner,
                num_shards=shards,
                latency_p50_ms=snapshot["latency_p50_ms"],
                latency_p99_ms=snapshot["latency_p99_ms"],
                throughput_per_s=snapshot["throughput_per_s"],
                batches=snapshot["batches"],
                request_skew=snapshot["request_skew"],
                cache_hit_rate=served.cache.stats.hit_rate if served.cache else 0.0,
            )

    # (b) Lookup skew with and without the result cache.
    for coefficient in zipf_coefficients:
        skewed = zipf_request_stream(
            keyset,
            num_requests,
            zipf_coefficient=coefficient,
            requests_per_ms=requests_per_ms,
            miss_fraction=miss_fraction,
            seed=seed + 2 + int(coefficient * 10),
        )
        for cache in (cache_capacity, 0):
            served = deployment("range", 4, cache)
            metrics = served.serve_stream(skewed)
            snapshot = metrics.snapshot()
            result.add(
                panel="b_skew_cache",
                zipf_coefficient=coefficient,
                cache_capacity=cache,
                latency_p50_ms=snapshot["latency_p50_ms"],
                latency_p99_ms=snapshot["latency_p99_ms"],
                throughput_per_s=snapshot["throughput_per_s"],
                cache_hit_rate=served.cache.stats.hit_rate if served.cache else 0.0,
                negative_hits=served.cache.stats.negative_hits if served.cache else 0,
            )

    # (c) Update waves against a cgRXu deployment: degradation + maintenance.
    served = sharded_factory(
        inner=cgrxu_factory(128),
        cache_capacity=cache_capacity,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        rebuild_threshold=0.25,
    )(keyset)
    rng = np.random.default_rng(seed + 3)
    wave_size = max(1, num_keys // 4)
    for wave in range(1, num_update_waves + 1):
        insert_keys = random_keys32(rng, wave_size)
        degradation_before = served.degradation_score()
        update = served.update_batch(insert_keys=insert_keys)
        maintenance = served.maintenance.snapshot()
        result.add(
            panel="c_maintenance",
            wave=wave,
            inserted=update.inserted,
            degradation_before=degradation_before,
            degradation_after=served.degradation_score(),
            rebuilds_performed=maintenance["rebuilds_performed"],
            maintenance_time_ms=maintenance["maintenance_time_ms"],
        )
    return result


# --------------------------------------------------------------------------
# Availability: replicated deployments under failure injection
# --------------------------------------------------------------------------


def availability(
    num_keys: int = 1 << 12,
    num_requests: int = 1 << 10,
    num_shards: int = 4,
    replication_factors: Sequence[int] = (1, 2, 3),
    read_policies: Sequence[str] = ("round_robin", "least_loaded"),
    requests_per_ms: float = 32.0,
    miss_fraction: float = 0.05,
    max_batch_size: int = 64,
    max_wait_ms: float = 0.5,
    num_update_waves: int = 3,
    seed: int = 53,
) -> ExperimentResult:
    """Availability experiment: the replication layer under injected failures.

    Three panels, all with the result cache off so every request exercises a
    replica and the served answers can be compared 1:1 against an oracle:

    * ``a_read_policies`` — replication factor x read policy on a clean
      stream: replicas absorb read load (per-replica skew near 1) at the
      price of a replicated memory footprint,
    * ``b_failover`` — the same deployment under seeded failure weather
      (crashes, slow replicas, transient errors): failovers, unavailability
      windows and failover latency, with the *differential oracle check*
      that every served answer is byte-identical to a single-instance
      sorted-array index, and
    * ``c_quorum_resync`` — update waves against a group with crashed
      replicas: quorum accounting, then recovery via log replay vs snapshot
      resync, again oracle-checked after catch-up.
    """
    result = ExperimentResult(
        name="replication",
        description="Replicated fault-tolerant serving: failover, quorum, resync",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_shards": num_shards,
            "replication_factors": list(replication_factors),
            "read_policies": list(read_policies),
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)
    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)

    def deployment(
        factor: int,
        policy: str,
        inner: Optional[IndexFactory] = None,
        **serve_kwargs,
    ):
        factory = sharded_factory(
            inner=inner or cgrx_factory(32),
            num_shards=num_shards,
            partitioner="range",
            cache_capacity=0,
            replication_factor=factor,
            read_policy=policy,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            **serve_kwargs,
        )
        return factory(keyset, RTX_4090)

    stream = zipf_request_stream(
        keyset,
        num_requests,
        zipf_coefficient=1.0,
        requests_per_ms=requests_per_ms,
        miss_fraction=miss_fraction,
        seed=seed + 1,
    )
    # The expected per-request answers are a property of the fixed stream,
    # computed once; every row only compares bytes against them.
    stream_expected = oracle.point_lookup_batch(stream.keys.astype(np.uint32))

    # (a) Read balancing across the replication factor x policy plane.  The
    # unreplicated deployment ignores read policies: one baseline row only.
    panel_a = [(1, "(single)")] if 1 in replication_factors else []
    panel_a += [
        (factor, policy)
        for policy in read_policies
        for factor in replication_factors
        if factor > 1
    ]
    for factor, policy in panel_a:
        served = deployment(factor, policy if factor > 1 else "round_robin")
        metrics = served.serve_stream(stream, record_answers=True)
        snapshot = metrics.snapshot()
        result.add(
            panel="a_read_policies",
            read_policy=policy,
            replication_factor=factor,
            latency_p50_ms=snapshot["latency_p50_ms"],
            latency_p99_ms=snapshot["latency_p99_ms"],
            throughput_per_s=snapshot["throughput_per_s"],
            replica_skew=snapshot.get("replica_skew", 1.0),
            footprint_mib=served.memory_footprint().total_bytes / float(1 << 20),
            answers_identical=byte_identical(served.last_answers, stream_expected),
        )

    # (b) Failure weather: crashes, slow replicas, transient errors.
    for factor in [f for f in replication_factors if f > 1]:
        served = deployment(factor, "round_robin")
        events = failure_schedule(
            num_shards,
            factor,
            duration_ms=stream.duration_ms,
            crashes_per_s=80.0,
            slowdowns_per_s=60.0,
            transients_per_s=160.0,
            mean_outage_ms=4.0,
            seed=seed + 2,
        )
        served.inject_failures(events)
        metrics = served.serve_stream(stream, record_answers=True)
        snapshot = metrics.snapshot()
        replication = served.replication_snapshot()
        maintenance = served.maintenance.snapshot()
        result.add(
            panel="b_failover",
            replication_factor=factor,
            failure_events=len(events),
            latency_p99_ms=snapshot["latency_p99_ms"],
            failovers=snapshot.get("failovers", 0),
            failover_latency_p99_ms=snapshot.get("failover_latency_p99_ms", 0.0),
            # Merged (interval-union) figure, consistent with `availability`;
            # the per-shard sum (overlaps double-counted) rides alongside.
            unavailable_ms=snapshot.get("unavailable_ms", 0.0),
            shard_outage_ms=replication["unavailable_ms"],
            availability=snapshot.get("availability", 1.0),
            emergency_restarts=replication.get("emergency_restarts", 0),
            resyncs_performed=maintenance["resyncs_performed"],
            answers_identical=byte_identical(served.last_answers, stream_expected),
        )

    # (c) Writes under partial outages: quorum accounting and catch-up.
    # cgRXu shards update natively, so short-lagged replicas catch up by
    # replaying the apply log; the log retains a single record here, so a
    # replica that missed more than one write has to take a snapshot resync
    # instead — both recovery paths are exercised.
    factor = max(replication_factors)
    served = deployment(factor, "round_robin", inner=cgrxu_factory(128), log_capacity=1)
    rng = np.random.default_rng(seed + 3)
    oracle_keys = keyset.keys.copy()
    oracle_rows = keyset.row_ids.copy()
    wave_size = max(1, num_keys // 8)
    next_row = int(oracle_rows.max()) + 1
    # Group counters are cumulative; report per-wave deltas.
    previous_totals: dict = {}

    def wave_delta(totals: dict, counter: str) -> int:
        delta = int(totals.get(counter, 0)) - int(previous_totals.get(counter, 0))
        return delta
    for wave in range(1, num_update_waves + 1):
        # Crash `wave - 1` replicas of every shard for the duration of the
        # wave: wave 1 writes at full strength, later waves under-quorum.
        now = served.clock.now_ms
        injector = served.inject_failures(
            [
                FailureEvent(at_ms=now, kind="crash", shard_id=s, replica_id=r, duration_ms=5.0)
                for s in range(num_shards)
                for r in range(wave - 1)
            ]
        )
        injector.poll(now)
        insert_keys = random_keys32(rng, wave_size)
        insert_rows = np.arange(next_row, next_row + wave_size, dtype=np.uint32)
        next_row += wave_size
        # Two batches per wave: a replica down for the whole wave misses two
        # log records — more than log_capacity retains — and must snapshot.
        half = wave_size // 2
        served.update_batch(
            insert_keys=insert_keys[:half], insert_row_ids=insert_rows[:half]
        )
        served.update_batch(
            insert_keys=insert_keys[half:], insert_row_ids=insert_rows[half:]
        )
        oracle_keys, oracle_rows, _ = apply_update_to_entries(
            oracle_keys,
            oracle_rows,
            insert_keys,
            insert_rows,
            np.empty(0, dtype=np.uint32),
        )
        # Outages end; recovered replicas catch up via the maintenance worker.
        injector.poll(now + 10.0)
        served.maintenance.run_cycle(now + 10.0)
        replication = served.replication_snapshot()
        result.add(
            panel="c_quorum_resync",
            wave=wave,
            crashed_replicas=wave - 1,
            writes=wave_delta(replication, "writes"),
            write_acks=wave_delta(replication, "write_acks"),
            quorum_failures=wave_delta(replication, "quorum_failures"),
            resyncs_log_replay=wave_delta(replication, "resyncs_log_replay"),
            resyncs_snapshot=wave_delta(replication, "resyncs_snapshot"),
            # Probe the *post-update* key population: inserts lost by a
            # quorum write or a resync must not escape the differential check.
            answers_identical=probe_identical(served, oracle_keys, oracle_rows, seed + 4 + wave),
        )
        previous_totals = replication
    return result


# --------------------------------------------------------------------------
# Lifecycle: maintenance tiers under a sustained update+lookup stream
# --------------------------------------------------------------------------


def lifecycle(
    num_keys: int = 1 << 12,
    num_requests: int = 1 << 10,
    num_shards: int = 4,
    num_waves: int = 4,
    wave_size: Optional[int] = None,
    delete_fraction: float = 0.25,
    requests_per_ms: float = 32.0,
    zipf_coefficient: float = 1.0,
    max_batch_size: int = 64,
    max_wait_ms: float = 0.5,
    quick: bool = False,
    seed: int = 61,
) -> ExperimentResult:
    """Lifecycle experiment: the tiered index-maintenance policy under load.

    A cgRXu deployment serves ``num_waves`` alternating lookup-stream /
    update-wave rounds (inserts grow the node chains, whole-duplicate-group
    deletes shrink bucket maxima so compaction re-anchors representatives)
    under one maintenance policy per row group:

    * ``none`` — maintenance disabled: chain debt accumulates unchecked,
    * ``compact`` — incremental per-bucket compaction only (tier 1),
    * ``rebuild_stop_world`` — full rebuilds that take the shard offline
      (the pre-lifecycle behaviour): *nonzero* unavailability windows,
    * ``rebuild_double_buffered`` — full rebuilds built in the background
      and swapped atomically: *zero* unavailability windows at the price of
      both generations briefly resident (``rebuild_peak_mib``), and
    * ``tiered`` — the production default: compact early, escalate to
      double-buffered rebuilds late.

    Every row is oracle-checked: the per-request answers of each served
    stream chunk must be byte-identical to an untouched sorted-array
    reference built from the authoritative entries — maintenance must never
    change an answer, only its cost.
    """
    if quick:
        num_keys = min(num_keys, 1 << 11)
        num_requests = min(num_requests, 1 << 9)
        num_waves = min(num_waves, 3)

    wave_size = int(wave_size) if wave_size is not None else max(1, (3 * num_keys) // 4)
    never = float("inf")
    policies = (
        ("none", dict(compact_threshold=never, rebuild_threshold=never)),
        ("compact", dict(compact_threshold=0.15, rebuild_threshold=never)),
        (
            "rebuild_stop_world",
            dict(
                compact_threshold=0.3,
                rebuild_threshold=0.3,
                rebuild_mode="stop_the_world",
            ),
        ),
        (
            "rebuild_double_buffered",
            dict(
                compact_threshold=0.3,
                rebuild_threshold=0.3,
                rebuild_mode="double_buffered",
            ),
        ),
        ("tiered", dict(compact_threshold=0.15, rebuild_threshold=0.6)),
    )

    result = ExperimentResult(
        name="lifecycle",
        description="Maintenance tiers: compaction vs refit vs (double-buffered) rebuild",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_shards": num_shards,
            "num_waves": num_waves,
            "wave_size": wave_size,
            "policies": [name for name, _ in policies],
            "quick": quick,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)

    for policy_name, knobs in policies:
        served = sharded_factory(
            inner=cgrxu_factory(128),
            num_shards=num_shards,
            cache_capacity=0,  # every request exercises a shard (oracle 1:1)
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            **knobs,
        )(keyset)
        oracle_keys = np.sort(keyset.keys).astype(np.uint32)
        oracle_rows = keyset.row_ids[np.argsort(keyset.keys, kind="stable")].copy()
        rng = np.random.default_rng(seed + 1)  # same workload for every policy
        next_row = int(keyset.row_ids.max()) + 1

        for wave in range(1, num_waves + 1):
            # Serve a lookup chunk over the *live* key population, offset to
            # the deployment's current simulated time.
            population = KeySet(
                keys=oracle_keys, row_ids=oracle_rows, key_bits=32, description="live"
            )
            chunk = zipf_request_stream(
                population,
                num_requests,
                zipf_coefficient=zipf_coefficient,
                requests_per_ms=requests_per_ms,
                miss_fraction=0.0,
                seed=seed + 16 * wave,
            )
            chunk = at_clock(chunk, served.clock.now_ms)
            served.serve_stream(chunk, record_answers=True)
            reference = SortedArrayIndex(oracle_keys, oracle_rows, key_bits=32)
            oracle_identical = byte_identical(
                served.last_answers, reference.point_lookup_batch(chunk.keys)
            )

            # Update wave: inserts grow chains; whole-duplicate-group deletes
            # shrink bucket maxima (what representative re-anchoring heals).
            insert_keys = random_keys32(rng, wave_size)
            insert_rows = np.arange(next_row, next_row + wave_size, dtype=np.uint32)
            next_row += wave_size
            distinct, group_sizes = np.unique(oracle_keys, return_counts=True)
            victims = rng.choice(
                distinct.shape[0],
                size=min(distinct.shape[0], max(1, int(wave_size * delete_fraction))),
                replace=False,
            )
            victims = victims[~np.isin(distinct[victims], insert_keys)]
            delete_keys = np.repeat(distinct[victims], group_sizes[victims]).astype(
                np.uint32
            )
            served.update_batch(
                insert_keys=insert_keys,
                insert_row_ids=insert_rows,
                delete_keys=delete_keys,
            )
            oracle_keys, oracle_rows, _ = apply_update_to_entries(
                oracle_keys, oracle_rows, insert_keys, insert_rows, delete_keys
            )

            metrics = served.metrics.snapshot()
            maintenance = served.maintenance.snapshot()
            row = dict(
                policy=policy_name,
                wave=wave,
                requests=metrics["requests"],
                latency_p50_ms=metrics["latency_p50_ms"],
                latency_p99_ms=metrics["latency_p99_ms"],
                latency_p99_during_maintenance_ms=metrics.get(
                    "latency_p99_during_maintenance_ms", 0.0
                ),
                degradation=served.degradation_score(),
                compactions=maintenance["compactions_performed"],
                rebuilds=maintenance["rebuilds_performed"],
                maintenance_ms_compact=maintenance.get("maintenance_ms_compact", 0.0),
                maintenance_ms_rebuild=maintenance.get("maintenance_ms_rebuild", 0.0),
                unavailability_windows=len(served.metrics.unavailability_windows),
                unavailable_ms=metrics.get("unavailable_ms", 0.0),
                availability=metrics.get("availability", 1.0),
                rebuild_peak_mib=maintenance["rebuild_peak_bytes"] / float(1 << 20),
                footprint_mib=served.memory_footprint().total_bytes / float(1 << 20),
                oracle_identical=oracle_identical,
            )
            result.add(**row)
    return result


# --------------------------------------------------------------------------
# Hotpath: wall-clock scalar vs compiled (the perf trajectory)
# --------------------------------------------------------------------------


def hotpath(
    num_keys: int = 100_000,
    batch_sizes: Sequence[int] = (256, 1024, 4096),
    num_ranges: int = 512,
    range_hits: int = 16,
    update_size: int = 4096,
    scaling_sizes: Sequence[int] = (1_000_000, 10_000_000),
    scaling_batch: int = 100_000,
    scalar_sample: int = 512,
    key_bits: int = 64,
    repeats: int = 3,
    quick: bool = False,
    seed: int = 67,
) -> ExperimentResult:
    """Hotpath experiment: *real* wall-clock speedups of the compiled engine.

    Unlike every other experiment (which reports simulated GPU time), this one
    measures how long the reproduction itself takes to answer batches — the
    repo's wall-clock perf trajectory.  One index is built per workload (a
    cgRXu index in panels a–d, the static cgRX index in panel e) and queried
    under the scalar reference and the compiled engine (best of
    ``repeats``); every row carries an ``identical`` flag proving the compiled
    engine returned byte-identical answers *and* identical instrumentation
    counters.

    Panels a–c compare the engines on a fixed workload; updates mutate, so
    every ``c_update`` repeat runs on a fresh index, alternating the engines,
    and its ``identical`` flag also compares the node slabs and allocator
    state (stale slots and free-list order included).
    Panel ``d_scaling`` is the scaling study: per-key point-lookup cost at
    ``scaling_sizes`` keys (1M and 10M by default).  The scalar reference is
    sampled on a bounded ``scalar_sample``-key batch there (a full scalar
    pass over 10M-key batches would dominate the run without adding
    information); compiled answers the full ``scaling_batch`` and must agree
    byte-for-byte with the scalar oracle on the sampled batch.
    Panel ``e_cgrx_point`` times cgRX point batches in the shape of the
    benchmark's bulk-point workload: a cgRX index over the first scaling
    size's keys and 2,048-key batches with 10% misses, the scalar reference
    again on the ``scalar_sample``-key head of the batch.

    ``quick=True`` shrinks the workload for CI smoke runs.
    """
    if quick:
        num_keys = min(num_keys, 20_000)
        batch_sizes = tuple(b for b in batch_sizes if b <= 1024) or (256,)
        num_ranges = min(num_ranges, 128)
        update_size = min(update_size, 1024)
        scaling_sizes = tuple(min(size, 50_000) for size in scaling_sizes[:1]) or (50_000,)
        scaling_batch = min(scaling_batch, 10_000)
        repeats = 2

    from repro.rtx import compiled as compiled_backend

    result = ExperimentResult(
        name="hotpath",
        description="Wall-clock speedup of the compiled batch engine over the scalar reference",
        parameters={
            "num_keys": num_keys,
            "batch_sizes": list(batch_sizes),
            "num_ranges": num_ranges,
            "range_hits": range_hits,
            "update_size": update_size,
            "scaling_sizes": list(scaling_sizes),
            "scaling_batch": scaling_batch,
            "scalar_sample": scalar_sample,
            "key_bits": key_bits,
            "repeats": repeats,
            "quick": quick,
            "compiled_backend": compiled_backend.available_backend() or "none",
        },
        wall_columns=(
            "scalar_ms",
            "compiled_ms",
            "compiled_speedup",
            "scalar_ns_per_key",
            "compiled_ns_per_key",
            "arena_mib",
        ),
    )
    keyset = generate_keys(num_keys, uniformity=0.8, key_bits=key_bits, seed=seed)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=key_bits))

    def timed(target, engine: str, call):
        target.config.engine = engine
        best = float("inf")
        answer = None
        for _ in range(repeats):
            start = time.perf_counter()
            answer = call()
            best = min(best, time.perf_counter() - start)
        return best, answer

    def stats_identical(a, b) -> bool:
        return dataclasses.asdict(a) == dataclasses.asdict(b)

    def point_identical(a, b) -> bool:
        return byte_identical(a, b) and stats_identical(a.stats, b.stats)

    def add_row(panel: str, batch_size: int, scalar_s: float, compiled_s: float, identical):
        result.add(
            panel=panel,
            batch_size=batch_size,
            scalar_ms=scalar_s * 1e3,
            compiled_ms=compiled_s * 1e3,
            compiled_speedup=scalar_s / compiled_s,
            identical=bool(identical),
        )

    # (a) Point lookups across batch sizes.
    for batch_size in batch_sizes:
        lookups = uniform_lookups(keyset, batch_size, seed=seed + batch_size)
        scalar_s, scalar_result = timed(
            index, "scalar", lambda: index.point_lookup_batch(lookups)
        )
        compiled_s, compiled_result = timed(
            index, "compiled", lambda: index.point_lookup_batch(lookups)
        )
        add_row(
            "a_point", batch_size, scalar_s, compiled_s,
            point_identical(scalar_result, compiled_result),
        )

    # (b) Range lookups.
    lows, highs = range_lookups(keyset, count=num_ranges, expected_hits=range_hits, seed=seed + 1)
    scalar_s, scalar_range = timed(index, "scalar", lambda: index.range_lookup_batch(lows, highs))
    compiled_s, compiled_range = timed(index, "compiled", lambda: index.range_lookup_batch(lows, highs))
    add_row(
        "b_range", num_ranges, scalar_s, compiled_s,
        all(
            left.tobytes() == right.tobytes()
            for left, right in zip(scalar_range.row_ids, compiled_range.row_ids)
        )
        and stats_identical(scalar_range.stats, compiled_range.stats),
    )

    # (c) Update batch: best of ``repeats``, each repeat on a fresh index
    # (updates mutate), the two engines alternating.
    rng = np.random.default_rng(seed + 2)
    insert_keys = rng.choice(keyset.keys, size=update_size).astype(keyset.keys.dtype)
    delete_keys = rng.choice(
        keyset.keys, size=update_size // 2, replace=False
    ).astype(keyset.keys.dtype)
    best = {"scalar": float("inf"), "compiled": float("inf")}
    updates = {}
    for _ in range(repeats):
        for engine in best:
            fresh = CgRXuIndex(
                keyset.keys,
                keyset.row_ids,
                CgRXuConfig(key_bits=key_bits, engine=engine),
            )
            start = time.perf_counter()
            outcome = fresh.update_batch(insert_keys=insert_keys, delete_keys=delete_keys)
            best[engine] = min(best[engine], time.perf_counter() - start)
            updates[engine] = (outcome, fresh)
    (scalar_update, scalar_index), (compiled_update, compiled_index) = (
        updates["scalar"],
        updates["compiled"],
    )
    add_row(
        "c_update", update_size + update_size // 2, best["scalar"], best["compiled"],
        scalar_update.inserted == compiled_update.inserted
        and scalar_update.deleted == compiled_update.deleted
        and stats_identical(scalar_update.stats, compiled_update.stats)
        and not scalar_index.nodes.state_differences(compiled_index.nodes)
        and byte_identical(scalar_index.export_entries(), compiled_index.export_entries()),
    )

    # (d) Scaling study: per-key point-lookup cost at 1M/10M keys.
    for size in scaling_sizes:
        scale_keyset = generate_keys(size, uniformity=0.8, key_bits=key_bits, seed=seed + 3)
        scale_index = CgRXuIndex(
            scale_keyset.keys, scale_keyset.row_ids, CgRXuConfig(key_bits=key_bits)
        )
        lookups = uniform_lookups(scale_keyset, scaling_batch, seed=seed + 4)
        sample = lookups[:scalar_sample]

        scalar_s, scalar_result = timed(
            scale_index, "scalar", lambda: scale_index.point_lookup_batch(sample)
        )
        compiled_s, _ = timed(
            scale_index, "compiled", lambda: scale_index.point_lookup_batch(lookups)
        )
        scalar_ns = scalar_s / max(1, sample.shape[0]) * 1e9
        compiled_ns = compiled_s / max(1, lookups.shape[0]) * 1e9
        result.add(
            panel="d_scaling",
            num_keys=size,
            batch_size=scaling_batch,
            scalar_ns_per_key=scalar_ns,
            compiled_ns_per_key=compiled_ns,
            compiled_speedup=scalar_ns / compiled_ns,
            arena_mib=scale_index.compiled_buffers_bytes() / float(1 << 20),
            identical=point_identical(
                scalar_result, scale_index.point_lookup_batch(sample)
            ),
        )

    # (e) cgRX point batches in the bulk-point shape.
    cgrx_keyset = generate_keys(
        scaling_sizes[0], uniformity=0.8, key_bits=key_bits, seed=seed + 3
    )
    cgrx = CgRXIndex(cgrx_keyset.keys, cgrx_keyset.row_ids, CgRXConfig(key_bits=key_bits))
    lookups = hit_miss_lookups(cgrx_keyset, 2048, miss_fraction=0.1, seed=seed + 5)
    sample = lookups[:scalar_sample]
    scalar_s, scalar_result = timed(cgrx, "scalar", lambda: cgrx.point_lookup_batch(sample))
    compiled_s, _ = timed(cgrx, "compiled", lambda: cgrx.point_lookup_batch(lookups))
    scalar_ns = scalar_s / max(1, sample.shape[0]) * 1e9
    compiled_ns = compiled_s / max(1, lookups.shape[0]) * 1e9
    result.add(
        panel="e_cgrx_point",
        num_keys=scaling_sizes[0],
        batch_size=int(lookups.shape[0]),
        scalar_ns_per_key=scalar_ns,
        compiled_ns_per_key=compiled_ns,
        compiled_speedup=scalar_ns / compiled_ns,
        arena_mib=cgrx.compiled_buffers_bytes() / float(1 << 20),
        identical=point_identical(scalar_result, cgrx.point_lookup_batch(sample)),
    )
    return result


# --------------------------------------------------------------------------
# Observability: tracing overhead and latency attribution
# --------------------------------------------------------------------------


def observability(
    num_keys: int = 1 << 12,
    num_requests: int = 1 << 10,
    num_shards: int = 4,
    replication_factor: int = 2,
    num_waves: int = 3,
    wave_size: Optional[int] = None,
    requests_per_ms: float = 32.0,
    zipf_coefficient: float = 1.0,
    miss_fraction: float = 0.05,
    cache_capacity: int = 256,
    max_batch_size: int = 64,
    max_wait_ms: float = 0.5,
    timing_repeats: int = 5,
    percentile: float = 99.0,
    trace_dir: Optional[str] = ".",
    quick: bool = False,
    seed: int = 67,
) -> ExperimentResult:
    """Observability experiment: tracing cost and per-stage tail attribution.

    A replicated cgRXu deployment serves a maintenance-heavy workload —
    alternating insert waves (which grow node chains and trigger the tiered
    maintenance worker mid-stream) and skewed lookup chunks under seeded
    failure weather — once with tracing off and once with tracing on, from
    identical seeds.  Three panels:

    * ``a_stage_breakdown`` — the attribution pipeline's answer to "where
      does the tail latency go": per-stage critical-path share of the
      requests at the target percentile (queue wait, device execution,
      failover penalties, cache probes), plus maintenance interference
      measured as span overlap,
    * ``b_overhead`` — wall-clock cost of tracing (best-of-``timing_repeats``
      for both modes) with the behaviour-neutrality check: the traced and
      untraced runs must produce byte-identical answers *and* identical
      metrics snapshots, and
    * ``c_timeseries`` — periodic telemetry samples along the simulated
      clock, demonstrating the bounded-memory time-series surface.

    The traced run's spans are additionally exported as a Chrome trace-event
    document (``TRACE_obs.json`` under ``trace_dir``; pass ``None`` to skip).
    """
    if quick:
        num_keys = min(num_keys, 1 << 11)
        num_requests = min(num_requests, 1 << 9)
        num_waves = min(num_waves, 2)
        timing_repeats = min(timing_repeats, 3)

    wave_size = int(wave_size) if wave_size is not None else max(1, num_keys // 2)
    result = ExperimentResult(
        name="obs",
        description="Request tracing: overhead, neutrality, tail attribution",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_shards": num_shards,
            "replication_factor": replication_factor,
            "num_waves": num_waves,
            "wave_size": wave_size,
            "timing_repeats": timing_repeats,
            "percentile": percentile,
            "quick": quick,
        },
        wall_columns=("untraced_s", "traced_s", "overhead_pct"),
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)

    def run(traced: bool):
        """One full serving run; returns (elapsed_s, answers, snapshot, served)."""
        served = sharded_factory(
            inner=cgrxu_factory(128),
            num_shards=num_shards,
            partitioner="hash",
            cache_capacity=cache_capacity,
            replication_factor=replication_factor,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            compact_threshold=0.1,
            rebuild_threshold=0.6,
            tracing=traced,
            telemetry_sample_interval_ms=5.0,
        )(keyset)
        rng = np.random.default_rng(seed + 1)  # identical workload either way
        answers: List[bytes] = []
        begin = time.perf_counter()
        for wave in range(1, num_waves + 1):
            served.update_batch(insert_keys=random_keys32(rng, wave_size))
            chunk = zipf_request_stream(
                keyset,
                num_requests,
                zipf_coefficient=zipf_coefficient,
                requests_per_ms=requests_per_ms,
                miss_fraction=miss_fraction,
                seed=seed + 16 * wave,
            )
            now = served.clock.now_ms
            chunk = at_clock(chunk, now)
            if replication_factor > 1:
                events = failure_schedule(
                    num_shards,
                    replication_factor,
                    duration_ms=chunk.duration_ms,
                    crashes_per_s=40.0,
                    slowdowns_per_s=40.0,
                    transients_per_s=80.0,
                    mean_outage_ms=4.0,
                    seed=seed + 2 + wave,
                )
                served.inject_failures(
                    [dataclasses.replace(e, at_ms=e.at_ms + now) for e in events]
                )
            served.serve_stream(chunk, record_answers=True)
            row_agg, match_counts = served.last_answers
            answers.append(row_agg.tobytes() + match_counts.tobytes())
        elapsed = time.perf_counter() - begin
        return elapsed, b"".join(answers), served.metrics.snapshot(), served

    # Best-of-repeats timing, modes interleaved so background load drift
    # hits both equally; every repeat is a fresh deployment so no state
    # leaks between measurements.
    untraced_s = traced_s = float("inf")
    untraced_run = traced_run = None
    for _ in range(timing_repeats):
        elapsed, answers, snapshot, served = run(traced=False)
        untraced_s = min(untraced_s, elapsed)
        untraced_run = (answers, snapshot, served)
        elapsed, answers, snapshot, served = run(traced=True)
        traced_s = min(traced_s, elapsed)
        traced_run = (answers, snapshot, served)

    answers_u, snapshot_u, _ = untraced_run
    answers_t, snapshot_t, served_t = traced_run
    overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0

    # (a) Critical-path attribution over the traced run's spans.
    spans = served_t.tracer.spans
    breakdown = critical_path_breakdown(spans, percentile=percentile)
    for stage in breakdown["stages"]:
        result.add(
            panel="a_stage_breakdown",
            stage=stage["stage"],
            total_ms=stage["total_ms"],
            fraction=stage["fraction"],
        )
    result.add(
        panel="a_stage_breakdown",
        stage="(maintenance interference)",
        total_ms=breakdown["maintenance_overlap_ms"],
        fraction=breakdown["maintenance_overlap_fraction"],
    )
    result.parameters["attribution"] = format_breakdown(breakdown)
    result.parameters["latency_at_percentile_ms"] = breakdown["latency_at_percentile_ms"]

    # (b) Overhead and behaviour-neutrality.
    result.add(
        panel="b_overhead",
        untraced_s=untraced_s,
        traced_s=traced_s,
        overhead_pct=overhead_pct,
        answers_identical=bool(answers_u == answers_t),
        metrics_identical=bool(snapshot_u == snapshot_t),
        num_spans=len(spans),
        tail_requests=breakdown["tail_requests"],
        num_requests=breakdown["num_requests"],
    )

    # (c) The periodic telemetry time series of the traced run.
    for sample in served_t.metrics.telemetry.series:
        values = sample["values"]
        result.add(
            panel="c_timeseries",
            t_ms=sample["t_ms"],
            requests=values.get('serve_events_total{event="requests"}', 0),
            batches=values.get('serve_events_total{event="batches"}', 0),
            cache_hits=values.get('serve_events_total{event="cache_hits"}', 0),
            latency_p99_ms=values.get("serve_request_latency_ms", {}).get("p99"),
        )

    if trace_dir is not None:
        path = os.path.join(trace_dir, "TRACE_obs.json")
        served_t.tracer.save_chrome_trace(path)
        result.parameters["trace_path"] = path
    return result


# --------------------------------------------------------------------------
# Adaptive serving: dynamic resharding + multi-tenant QoS under hostile load
# --------------------------------------------------------------------------


def adaptive(
    num_keys: int = 20_000,
    num_requests: int = 24_000,
    num_phases: int = 4,
    requests_per_ms: float = 800.0,
    num_shards: int = 4,
    reshard_interval_ms: float = 2.0,
    reshard_max_shards: int = 32,
    max_batch_size: int = 4096,
    max_wait_ms: float = 0.01,
    tenant_duration_ms: float = 100.0,
    quick: bool = False,
    seed: int = 71,
) -> ExperimentResult:
    """Adaptive serving under hostile workloads.  Three panels:

    * ``a_hotspot_migration`` — a contiguous hotspot window sweeping across
      the sorted keyspace at a rate that saturates whichever shard it lands
      on.  A static range partition flattens (the hot shard's device queue
      backs up, p99 explodes); hash placement spreads the hotspot but gives
      up range locality; the adaptive range deployment splits the hot shard
      within a couple of policy windows and merges the cold remainder back,
      holding p99 with **zero** unavailability windows — topology changes
      ride the epoch snapshot/double-buffer lifecycle, so no request is lost
      or misrouted.
    * ``b_multi_tenant_qos`` — a bursty flooding tenant against a
      well-behaved high-priority tenant, served with admission control off
      and on.  With QoS on, the flood is shed at its token-bucket rate limit
      (an explicit, observable answer recorded in telemetry) and the
      well-behaved tenant's p99 is insulated.
    * ``c_range_hammer`` — worst-case range-partition traffic (90% of the
      requests on one thin keyspace slice) with negative int64 keys mixed
      in: the signed-key routing fix must answer them as deterministic
      misses, never wrap them onto the top shard.

    Every served row is oracle-checked: answers must be byte-identical to a
    single-instance sorted-array reference (shed requests excluded — they
    were never served, by design — and negative keys expected as misses).
    """
    if quick:
        num_keys = min(num_keys, 8_000)
        num_requests = min(num_requests, 8_000)
        tenant_duration_ms = min(tenant_duration_ms, 40.0)

    result = ExperimentResult(
        name="adaptive",
        description="Adaptive resharding + per-tenant QoS under hostile workloads",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_phases": num_phases,
            "requests_per_ms": requests_per_ms,
            "num_shards": num_shards,
            "reshard_interval_ms": reshard_interval_ms,
            "reshard_max_shards": reshard_max_shards,
            "quick": quick,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=64, seed=seed)
    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=64)

    def oracle_check(served, stream, expected=None):
        """Byte-identical check against the oracle, skipping shed requests."""
        if expected is None:
            expected = oracle.point_lookup_batch(
                np.maximum(stream.keys, 0).astype(np.uint64)
            )
        rows, counts = served.last_answers
        expected_rows = expected.row_ids.astype(np.int64)
        expected_counts = expected.match_counts.astype(np.int64)
        if stream.keys.dtype.kind == "i":
            # Negative keys sort below the unsigned keyspace: definitional
            # misses, whatever key 0 happens to hold.
            negative = stream.keys < 0
            expected_rows = np.where(negative, -1, expected_rows)
            expected_counts = np.where(negative, 0, expected_counts)
        answered = served.last_outcomes == ANSWERED
        shed_untouched = bool(
            np.all(rows[~answered] == -1) and np.all(counts[~answered] == 0)
        )
        return shed_untouched and byte_identical(
            (rows, counts), (expected_rows, expected_counts), answered
        )

    # (a) Hotspot migration: static range vs static hash vs adaptive range.
    hotspot = shifting_hotspot_stream(
        keyset,
        num_requests,
        num_phases=num_phases,
        requests_per_ms=requests_per_ms,
        seed=seed + 1,
    )
    expected_hotspot = oracle.point_lookup_batch(hotspot.keys.astype(np.uint64))
    deployments = (
        ("static_range", dict(partitioner="range")),
        ("static_hash", dict(partitioner="hash")),
        (
            "adaptive_range",
            dict(
                partitioner="range",
                reshard=True,
                reshard_interval_ms=reshard_interval_ms,
                reshard_max_shards=reshard_max_shards,
                reshard_min_split_entries=64,
            ),
        ),
    )
    for policy, knobs in deployments:
        config = ServeConfig(
            num_shards=num_shards,
            key_bits=64,
            cache_capacity=0,  # every request exercises a shard (oracle 1:1)
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            **knobs,
        )
        served = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
        snapshot = served.serve_stream(hotspot, record_answers=True).snapshot()
        maintenance = served.maintenance.snapshot()
        result.add(
            panel="a_hotspot_migration",
            policy=policy,
            requests=snapshot["requests"],
            latency_p50_ms=snapshot["latency_p50_ms"],
            latency_p99_ms=snapshot["latency_p99_ms"],
            latency_max_ms=snapshot["latency_max_ms"],
            request_skew=snapshot["request_skew"],
            shards_final=served.router.num_shards,
            splits=maintenance["splits_performed"],
            merges=maintenance["merges_performed"],
            reshard_ms=maintenance.get("maintenance_ms_reshard", 0.0),
            unavailability_windows=len(served.metrics.unavailability_windows),
            oracle_identical=oracle_check(served, hotspot, expected_hotspot),
        )

    # (b) Multi-tenant QoS: a bursty flood concentrated on the bottom
    # quarter of the keyspace (one shard under the range partition, which it
    # saturates during every burst) against a well-behaved tenant touching
    # the whole keyspace — so the flood's device backlog is the victim
    # tenant's problem too, unless admission control sheds it.
    flood_rate = 2.0 * requests_per_ms
    specs = (
        TenantSpec(
            tenant=1,
            requests_per_ms=flood_rate,
            # Nearly flat popularity: the flood cycles through its whole
            # slice, so the result cache cannot absorb it.
            zipf_coefficient=0.6,
            keyspace=(0.0, 0.25),
            burst_on_ms=20.0,
            burst_off_ms=20.0,
        ),
        TenantSpec(
            tenant=2,
            requests_per_ms=flood_rate / 16.0,
            zipf_coefficient=1.0,
            keyspace=(0.0, 1.0),
        ),
    )
    tenant_stream = multi_tenant_stream(
        keyset, specs, duration_ms=tenant_duration_ms, seed=seed + 2
    )
    expected_tenants = oracle.point_lookup_batch(tenant_stream.keys.astype(np.uint64))
    qos = (
        TenantQoS(tenant=1, priority=0, rate_limit_per_ms=flood_rate / 8.0, cache_share=0.25),
        TenantQoS(tenant=2, priority=2, cache_share=0.25),
    )
    for policy, tenants, max_queue_depth in (
        ("no_qos", None, 0),
        ("qos", qos, 512),
    ):
        config = ServeConfig(
            num_shards=num_shards,
            key_bits=64,
            cache_capacity=1024,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            tenants=tenants,
            max_queue_depth=max_queue_depth,
        )
        served = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
        snapshot = served.serve_stream(tenant_stream, record_answers=True).snapshot()
        result.add(
            panel="b_multi_tenant_qos",
            policy=policy,
            requests=snapshot["requests"],
            flood_p99_ms=snapshot.get("tenant_1_p99_ms", snapshot["latency_p99_ms"]),
            tenant_p99_ms=snapshot.get("tenant_2_p99_ms", snapshot["latency_p99_ms"]),
            flood_served=snapshot.get("tenant_1_requests", snapshot["requests"]),
            tenant_served=snapshot.get("tenant_2_requests", snapshot["requests"]),
            requests_shed=snapshot.get("requests_shed", 0),
            shed_rate_limit=snapshot.get("tenant_1_shed_rate_limit", 0),
            oracle_identical=oracle_check(served, tenant_stream, expected_tenants),
        )

    # (c) Range hammer with negative int64 keys: static vs adaptive range.
    hammer = range_hammer_stream(
        keyset,
        num_requests // 2,
        requests_per_ms=requests_per_ms,
        seed=seed + 3,
    )
    for policy, reshard in (("static_range", False), ("adaptive_range", True)):
        config = ServeConfig(
            num_shards=num_shards,
            key_bits=64,
            cache_capacity=0,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            reshard=reshard,
            reshard_interval_ms=reshard_interval_ms,
            reshard_max_shards=reshard_max_shards,
            reshard_min_split_entries=64,
        )
        served = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
        snapshot = served.serve_stream(hammer, record_answers=True).snapshot()
        maintenance = served.maintenance.snapshot()
        result.add(
            panel="c_range_hammer",
            policy=policy,
            requests=snapshot["requests"],
            latency_p50_ms=snapshot["latency_p50_ms"],
            latency_p99_ms=snapshot["latency_p99_ms"],
            negative_key_misses=snapshot.get("negative_key_misses", 0),
            shards_final=served.router.num_shards,
            splits=maintenance["splits_performed"],
            merges=maintenance["merges_performed"],
            unavailability_windows=len(served.metrics.unavailability_windows),
            oracle_identical=oracle_check(served, hammer),
        )
    return result


def durability(
    num_keys: int = 1 << 12,
    num_requests: int = 1 << 10,
    num_shards: int = 4,
    replication_factor: int = 3,
    num_update_waves: int = 3,
    requests_per_ms: float = 32.0,
    miss_fraction: float = 0.05,
    max_batch_size: int = 64,
    max_wait_ms: float = 0.5,
    quick: bool = False,
    seed: int = 71,
) -> ExperimentResult:
    """Durability experiment: per-shard WAL + checkpoints under crash weather.

    Three panels over a replicated cgRXu deployment with the durable tier
    (``repro.store``) attached, every answer differentially checked against
    an untouched oracle:

    * ``a_crash_restart`` — whole-process kill weather mid-stream: killed
      replicas lose their in-memory index and restore from checkpoint + WAL
      while serving continues on their peers; acked update waves land
      between kills and must survive every restart byte-for-byte,
    * ``b_cold_start`` — the deployment process "exits" (a fresh store is
      opened over the same directory, with a torn WAL record crafted onto
      one shard) and is rebuilt via ``ShardedIndex.cold_start``: the torn
      tail is truncated, every acknowledged write is recovered, and the
      recovered deployment answers byte-identically,
    * ``c_wal_overhead`` — host wall-clock of the same write+read workload
      with the store detached / attached without fsync / attached with
      fsync: what the durability guarantee costs on the write path.
    """
    if quick:
        num_keys = min(num_keys, 1 << 11)
        num_requests = min(num_requests, 1 << 9)
        num_update_waves = min(num_update_waves, 2)

    result = ExperimentResult(
        name="durability",
        description="Durable serving: WAL + checkpoints, crash/restart recovery",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_shards": num_shards,
            "replication_factor": replication_factor,
            "num_update_waves": num_update_waves,
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
        },
        wall_columns=(
            # recovery_mean_ms/recovery_max_ms time the store's restores on
            # the host (MetricsRegistry.snapshot() reports them).
            "recovery_mean_ms",
            "recovery_max_ms",
            "recovery_wall_ms",
            "cold_start_wall_ms",
            "wall_ms",
            "baseline_wall_ms",
            "overhead_pct",
        ),
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)
    store_root = tempfile.mkdtemp(prefix="repro-durability-")

    def deployment(store_dir, **serve_kwargs):
        factory = sharded_factory(
            inner=cgrxu_factory(128),
            num_shards=num_shards,
            partitioner="range",
            cache_capacity=0,
            replication_factor=replication_factor,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            store_dir=store_dir,
            **serve_kwargs,
        )
        return factory(keyset, RTX_4090)

    def entries_of(served) -> tuple:
        """The deployment's authoritative entries as a key-sorted multiset."""
        keys = np.concatenate(
            [shard.index.keys for shard in served.router.shards]
        )
        rows = np.concatenate(
            [shard.index.row_ids for shard in served.router.shards]
        )
        order = np.lexsort((rows, keys))
        return keys[order], rows[order]

    def oracle_state(oracle_keys, oracle_rows) -> tuple:
        order = np.lexsort((oracle_rows, oracle_keys))
        return oracle_keys[order], oracle_rows[order]

    # (a) Process-kill weather: acked update waves between kill rounds, every
    # restart restored from the durable tier while peers keep serving.
    served = deployment(store_root)
    stream = zipf_request_stream(
        keyset,
        num_requests,
        zipf_coefficient=1.0,
        requests_per_ms=requests_per_ms,
        miss_fraction=miss_fraction,
        seed=seed + 1,
    )
    oracle_keys = keyset.keys.copy()
    oracle_rows = keyset.row_ids.copy()
    rng = np.random.default_rng(seed + 2)
    wave_size = max(1, num_keys // 8)
    next_row = int(oracle_rows.max()) + 1
    previous: dict = {}
    for wave in range(1, num_update_waves + 1):
        insert_keys = random_keys32(rng, wave_size)
        delete_keys = rng.choice(oracle_keys, size=wave_size // 4, replace=False)
        insert_rows = np.arange(next_row, next_row + wave_size, dtype=np.uint32)
        next_row += wave_size
        served.update_batch(
            insert_keys=insert_keys,
            insert_row_ids=insert_rows,
            delete_keys=delete_keys,
        )
        oracle_keys, oracle_rows, _ = apply_update_to_entries(
            oracle_keys, oracle_rows, insert_keys, insert_rows, delete_keys
        )
        # Kill one process per shard (rolling over the replica ids), let the
        # outage end, and recover from disk via the maintenance worker.
        now = served.clock.now_ms
        injector = served.inject_failures(
            [
                FailureEvent(
                    at_ms=now,
                    kind="process_kill",
                    shard_id=shard_id,
                    replica_id=(wave - 1) % replication_factor,
                    duration_ms=2.0,
                )
                for shard_id in range(num_shards)
            ]
        )
        injector.poll(now)
        injector.poll(now + 5.0)
        served.maintenance.run_cycle(now + 5.0)
        replication = served.replication_snapshot()
        recovered_entries = entries_of(served)
        expected = oracle_state(oracle_keys, oracle_rows)
        result.add(
            panel="a_crash_restart",
            wave=wave,
            process_kills=int(replication.get("process_kills", 0)) - int(previous.get("process_kills", 0)),
            durable_restores=int(replication.get("resyncs_durable", 0)) - int(previous.get("resyncs_durable", 0)),
            wal_records_replayed=served.store.counters["records_replayed"],
            acked_writes_lost=int(expected[0].shape[0] - recovered_entries[0].shape[0]),
            entries_identical=byte_identical(recovered_entries, expected),
            answers_identical=probe_identical(served, oracle_keys, oracle_rows, seed + 10 + wave),
        )
        previous = replication
    # ... then serve a read stream through trailing kill weather: recoveries
    # happen while peers keep answering, and every answer matches the oracle.
    weather = failure_schedule(
        num_shards,
        replication_factor,
        duration_ms=stream.duration_ms,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        process_kills_per_s=60.0,
        mean_outage_ms=4.0,
        spare_replica=0,
        seed=seed + 3,
    )
    served.inject_failures(weather)
    stream_oracle = SortedArrayIndex(oracle_keys, oracle_rows, key_bits=32)
    stream_expected = stream_oracle.point_lookup_batch(stream.keys.astype(np.uint32))
    metrics = served.serve_stream(stream, record_answers=True)
    snapshot = metrics.snapshot()
    replication = served.replication_snapshot()
    result.add(
        panel="a_crash_restart",
        wave="stream",
        process_kills=int(replication.get("process_kills", 0)) - int(previous.get("process_kills", 0)),
        durable_restores=int(replication.get("resyncs_durable", 0)) - int(previous.get("resyncs_durable", 0)),
        recoveries=snapshot.get("recoveries", 0),
        recovery_mean_ms=snapshot.get("recovery_mean_ms", 0.0),
        recovery_max_ms=snapshot.get("recovery_max_ms", 0.0),
        latency_p99_ms=snapshot["latency_p99_ms"],
        availability=snapshot.get("availability", 1.0),
        answers_identical=byte_identical(served.last_answers, stream_expected),
    )

    # (b) Cold start: open a fresh store over the same directory (the
    # "process" is gone), tear the final WAL record of shard 0, recover.
    store = DeploymentStore(LocalDirBackend(store_root), key_bits=32)
    torn_wal = store.wal(0)
    torn_lsn = torn_wal.max_lsn() + 1
    record = encode_record(
        torn_lsn,
        np.asarray([7], dtype=np.uint32),
        np.asarray([1], dtype=np.uint32),
        np.empty(0, dtype=np.uint32),
    )
    store.backend.put(torn_wal._name(torn_lsn), record[: len(record) // 2])
    began = time.perf_counter()
    recovered = ShardedIndex.cold_start(
        store,
        factory=cgrxu_factory(128),
        config=ServeConfig(
            replication_factor=replication_factor,
            cache_capacity=0,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
        ),
    )
    cold_start_wall_ms = (time.perf_counter() - began) * 1e3
    report = recovered.last_recovery
    recovered_entries = entries_of(recovered)
    expected = oracle_state(oracle_keys, oracle_rows)
    result.add(
        panel="b_cold_start",
        entries_recovered=report["entries_recovered"],
        wal_records_replayed=report["records_replayed"],
        torn_truncated=report["torn_truncated"],
        corrupt_skipped=report["corrupt_skipped"],
        recovery_wall_ms=report["recovery_wall_ms"],
        cold_start_wall_ms=cold_start_wall_ms,
        acked_writes_lost=int(expected[0].shape[0] - recovered_entries[0].shape[0]),
        entries_identical=byte_identical(recovered_entries, expected),
        answers_identical=probe_identical(recovered, oracle_keys, oracle_rows, seed + 20),
    )
    shutil.rmtree(store_root, ignore_errors=True)

    # (c) What durability costs: wall-clock of one write+read workload with
    # the store off, on without fsync, and on with fsync barriers.
    def timed_workload(store_dir, store_fsync) -> dict:
        subject = deployment(store_dir, store_fsync=store_fsync)
        workload_rng = np.random.default_rng(seed + 5)
        began = time.perf_counter()
        for _ in range(8):
            subject.update_batch(
                insert_keys=random_keys32(workload_rng, 128),
                insert_row_ids=np.arange(128, dtype=np.uint32),
            )
            subject.point_lookup_batch(
                workload_rng.choice(keyset.keys, size=256)
            )
        wall_ms = (time.perf_counter() - began) * 1e3
        wal_bytes = (
            subject.store.counters["wal_bytes"] if subject.store is not None else 0
        )
        fsyncs = (
            subject.store.backend.counters["fsyncs"]
            if subject.store is not None
            else 0
        )
        return {"wall_ms": wall_ms, "wal_bytes": wal_bytes, "fsyncs": fsyncs}

    baseline = timed_workload(None, True)
    for mode, store_fsync in (("wal", False), ("wal+fsync", True)):
        mode_root = tempfile.mkdtemp(prefix="repro-durability-")
        timing = timed_workload(mode_root, store_fsync)
        shutil.rmtree(mode_root, ignore_errors=True)
        result.add(
            panel="c_wal_overhead",
            mode=mode,
            wall_ms=timing["wall_ms"],
            baseline_wall_ms=baseline["wall_ms"],
            overhead_pct=100.0 * (timing["wall_ms"] / baseline["wall_ms"] - 1.0),
            wal_bytes=timing["wal_bytes"],
            fsyncs=timing["fsyncs"],
        )
    return result


def tail_reliability(
    num_keys: int = 1 << 12,
    num_requests: int = 1 << 11,
    num_shards: int = 4,
    replication_factor: int = 3,
    requests_per_ms: float = 64.0,
    miss_fraction: float = 0.05,
    max_batch_size: int = 64,
    max_wait_ms: float = 0.5,
    deadline_ms: float = 2.0,
    hedge_quantile: float = 0.9,
    storm_slow_factor: float = 64.0,
    quick: bool = False,
    seed: int = 71,
) -> ExperimentResult:
    """Tail tolerance: hedging + deadlines holding p99.9 under gray weather.

    Three panels, cache off so every request exercises a replica read and the
    served answers can be byte-compared against a single-instance oracle:

    * ``a_latency_storm`` — the same stream + metastable latency-storm
      weather served by four configurations (no reliability, deadlines only,
      hedged reads only, hedged + deadlines): exact p99/p99.9, hedge
      win/loss accounting, deadline-exceeded fractions, and the oracle check
      over every ``ANSWERED`` request.
    * ``b_degradation`` — correlated whole-group outages with no spare:
      explicit partial results (``UNAVAILABLE`` outcomes) vs stale reads from the
      durable store; stale answers are themselves oracle-checked (no writes
      since the checkpoint, so stale == fresh bytes).
    * ``c_write_safety`` — quorum write waves under the same storm weather
      with the full reliability stack armed: post-wave probes prove zero
      acknowledged-write loss.
    """
    if quick:
        num_requests = min(num_requests, 768)
    result = ExperimentResult(
        name="reliability",
        description="Tail-tolerant serving under gray-failure weather",
        parameters={
            "num_keys": num_keys,
            "num_requests": num_requests,
            "num_shards": num_shards,
            "replication_factor": replication_factor,
            "deadline_ms": deadline_ms,
            "hedge_quantile": hedge_quantile,
            "storm_slow_factor": storm_slow_factor,
            "quick": quick,
        },
    )
    keyset = generate_keys(num_keys, uniformity=0.5, key_bits=32, seed=seed)
    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)
    stream = zipf_request_stream(
        keyset,
        num_requests,
        zipf_coefficient=1.0,
        requests_per_ms=requests_per_ms,
        miss_fraction=miss_fraction,
        seed=seed + 1,
    )
    stream_expected = oracle.point_lookup_batch(stream.keys.astype(np.uint32))

    def deployment(
        reliability: Optional[ReliabilityConfig],
        inner: Optional[IndexFactory] = None,
        **serve_kwargs,
    ):
        factory = sharded_factory(
            inner=inner or cgrx_factory(32),
            num_shards=num_shards,
            partitioner="range",
            cache_capacity=0,
            replication_factor=replication_factor,
            read_policy="round_robin",
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            reliability=reliability,
            **serve_kwargs,
        )
        return factory(keyset, RTX_4090)

    def storm_events(factor_seed: int = 2):
        return failure_schedule(
            num_shards,
            replication_factor,
            duration_ms=stream.duration_ms,
            crashes_per_s=0.0,
            slowdowns_per_s=0.0,
            transients_per_s=0.0,
            latency_storms_per_s=150.0,
            storm_slow_factor=storm_slow_factor,
            mean_storm_ms=20.0,
            seed=seed + factor_seed,
        )

    # (a) The same latency storm, four reliability configurations.
    hedged = ReliabilityConfig(
        hedge_quantile=hedge_quantile, hedge_min_samples=16
    )
    modes = [
        ("baseline", None),
        ("deadline", ReliabilityConfig(deadline_ms=deadline_ms)),
        ("hedged", hedged),
        (
            "hedged+deadline",
            ReliabilityConfig(
                deadline_ms=deadline_ms,
                hedge_quantile=hedge_quantile,
                hedge_min_samples=16,
            ),
        ),
    ]
    for mode, config in modes:
        served = deployment(config)
        served.inject_failures(storm_events())
        metrics = served.serve_stream(stream, record_answers=True)
        latencies = np.asarray(metrics.request_latencies)
        rel_report = served.reliability.snapshot() if served.reliability else {}
        outcomes = served.last_outcomes
        result.add(
            panel="a_latency_storm",
            mode=mode,
            latency_p50_ms=float(np.percentile(latencies, 50)),
            latency_p99_ms=float(np.percentile(latencies, 99)),
            latency_p999_ms=float(np.percentile(latencies, 99.9)),
            hedges=int(rel_report.get("hedges", 0)),
            hedge_wins=int(rel_report.get("hedge_wins", 0)),
            hedge_waste_ms=float(rel_report.get("hedge_waste_ms", 0.0)),
            deadline_exceeded=int((outcomes == DEADLINE_EXCEEDED).sum()),
            complete_fraction=float((outcomes == ANSWERED).mean()),
            complete_answers_identical=byte_identical(
                served.last_answers, stream_expected, outcomes == ANSWERED
            ),
        )

    # (b) Correlated whole-group outages: explicit degradation, two flavors.
    outage_events = failure_schedule(
        num_shards,
        replication_factor,
        duration_ms=stream.duration_ms,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        correlated_outages_per_s=60.0,
        mean_correlated_outage_ms=8.0,
        seed=seed + 5,
    )
    store_root = tempfile.mkdtemp(prefix="repro-reliability-")
    try:
        for mode, stale_reads in (("partial_results", False), ("stale_reads", True)):
            config = ReliabilityConfig(
                deadline_ms=deadline_ms, stale_reads=stale_reads
            )
            serve_kwargs = (
                {"store_dir": f"{store_root}/{mode}", "store_fsync": False}
                if stale_reads
                else {}
            )
            served = deployment(config, **serve_kwargs)
            served.inject_failures(list(outage_events))
            served.serve_stream(stream, record_answers=True)
            outcomes = served.last_outcomes
            result.add(
                panel="b_degradation",
                mode=mode,
                unavailable=int((outcomes == UNAVAILABLE).sum()),
                stale_served=int((outcomes == STALE).sum()),
                deadline_exceeded=int((outcomes == DEADLINE_EXCEEDED).sum()),
                complete_fraction=float((outcomes == ANSWERED).mean()),
                complete_answers_identical=byte_identical(
                    served.last_answers, stream_expected, outcomes == ANSWERED
                ),
                # No writes landed after the checkpoint, so stale bytes must
                # equal fresh bytes wherever a stale answer was served.
                stale_answers_identical=byte_identical(
                    served.last_answers, stream_expected, outcomes == STALE
                ),
            )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    # (c) Acked writes under the storm: the reliability stack must not lose
    # a single acknowledged write (probes by differential oracle).
    served = deployment(
        ReliabilityConfig(
            deadline_ms=deadline_ms,
            hedge_quantile=hedge_quantile,
            hedge_min_samples=16,
        ),
        inner=cgrxu_factory(128),
    )
    rng = np.random.default_rng(seed + 6)
    oracle_keys = keyset.keys.copy()
    oracle_rows = keyset.row_ids.copy()
    next_row = int(oracle_rows.max()) + 1
    wave_size = max(1, num_keys // 8)
    num_waves = 2 if quick else 3
    for wave in range(1, num_waves + 1):
        now = served.clock.now_ms
        injector = served.inject_failures(storm_events(factor_seed=6 + wave))
        injector.poll(now)
        insert_keys = random_keys32(rng, wave_size)
        insert_rows = np.arange(next_row, next_row + wave_size, dtype=np.uint32)
        next_row += wave_size
        acked = served.update_batch(
            insert_keys=insert_keys, insert_row_ids=insert_rows
        )
        oracle_keys, oracle_rows, _ = apply_update_to_entries(
            oracle_keys,
            oracle_rows,
            insert_keys,
            insert_rows,
            np.empty(0, dtype=np.uint32),
        )
        injector.poll(now + 40.0)
        served.maintenance.run_cycle(now + 40.0)
        identical = probe_identical(served, oracle_keys, oracle_rows, seed + 10 + wave)
        result.add(
            panel="c_write_safety",
            wave=wave,
            writes_applied=int(acked.inserted),
            acked_writes_lost=0 if identical else -1,
            answers_identical=identical,
        )
    return result


# --------------------------------------------------------------------------
# Running everything
# --------------------------------------------------------------------------

#: All experiment functions keyed by their identifier.
ALL_EXPERIMENTS = {
    "table_1": table1_feature_matrix,
    "figure_1": figure_01_rx_limitations,
    "figure_9": figure_09_key_mapping_scaling,
    "figure_10": figure_10_naive_vs_optimized,
    "figure_11": figure_11_bucket_size_robustness,
    "figure_12": figure_12_point_lookups_32bit,
    "figure_13": figure_13_point_lookups_64bit,
    "figure_14": figure_14_range_lookups,
    "figure_15": figure_15_batch_size,
    "figure_16": figure_16_hit_ratio,
    "figure_17": figure_17_lookup_skew,
    "figure_18": figure_18_updates,
    "serving": serving_deployment,
    "availability": availability,
    "hotpath": hotpath,
    "lifecycle": lifecycle,
    "obs": observability,
    "adaptive": adaptive,
    "durability": durability,
    "reliability": tail_reliability,
}


def list_experiments() -> List[str]:
    """One ``name — summary`` line per experiment, in registry order."""
    lines = []
    width = max(len(name) for name in ALL_EXPERIMENTS)
    for name, function in ALL_EXPERIMENTS.items():
        doc = (function.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        summary = summary.split(".  ")[0].rstrip(".")
        lines.append(f"{name:<{width}}  {summary}")
    return lines


def check_experiment_names(names: Iterable[str]) -> None:
    """Raise ``KeyError`` naming every unknown experiment and the valid ones."""
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(ALL_EXPERIMENTS))}"
        )


def run_all(
    names: Optional[Iterable[str]] = None, quick: bool = False
) -> List[ExperimentResult]:
    """Run all (or the selected) experiments and return their results.

    Every name is validated before anything runs.  ``quick=True`` is
    forwarded to every experiment that supports a ``quick`` parameter
    (``lifecycle``, ``hotpath``, ``obs``, ``adaptive``, ``durability`` and
    ``reliability``); the others ignore it.
    """
    selected = list(names) if names is not None else list(ALL_EXPERIMENTS)
    check_experiment_names(selected)
    results = []
    for name in selected:
        function = ALL_EXPERIMENTS[name]
        kwargs = {}
        if quick and "quick" in inspect.signature(function).parameters:
            kwargs["quick"] = True
        results.append(function(**kwargs))
    return results


def check_snapshot(result: ExperimentResult, directory: str) -> bool:
    """Print how ``result`` differs from ``DIR/BENCH_<name>.json``; True on a match."""
    path = os.path.join(directory, f"BENCH_{result.name}.json")
    if not os.path.exists(path):
        print(f"{result.name}: no snapshot {path}")
        return False
    with open(path, encoding="utf-8") as handle:
        differences = result.diff(json.load(handle))
    for line in differences:
        print(f"{result.name}: {line}")
    print(f"{result.name}: {len(differences)} difference(s) against {path}")
    return not differences


def main() -> None:
    """Command-line entry point: run and print the selected experiments.

    ``--json`` (working directory) or ``--json=DIR`` additionally writes each
    result as ``BENCH_<name>.json`` — the committed ``BENCH_*.json``
    snapshots are produced exactly this way.  The directory is bound with
    ``=`` so experiment names are never mistaken for an output path.
    ``--check`` (working directory) or ``--check=DIR`` reruns the experiments
    at their defaults and, instead of printing tables, prints every
    difference against ``DIR/BENCH_<name>.json`` (see
    :meth:`ExperimentResult.diff`); it exits 1 on any difference or missing
    snapshot.  ``--quick`` shrinks the workloads of experiments that
    support it (used by the CI perf-smoke job); with ``--check`` it exits 2,
    because quick sizes cannot match a default-size snapshot.  ``--list``
    prints every experiment name with a one-line description and exits.  An
    unknown experiment name prints the valid names to stderr and exits with
    status 2 before anything runs.
    """
    json_dir: Optional[str] = None
    check_dir: Optional[str] = None
    quick = False
    arguments = []
    for argument in sys.argv[1:]:
        if argument == "--json":
            json_dir = "."
        elif argument.startswith("--json="):
            json_dir = argument[len("--json="):] or "."
        elif argument == "--check" or argument.startswith("--check="):
            check_dir = argument[len("--check="):] or "."
        elif argument == "--quick":
            quick = True
        elif argument == "--list":
            for line in list_experiments():
                print(line)
            return
        else:
            arguments.append(argument)
    if check_dir is not None and quick:
        print("repro-bench: --check compares default-size runs; drop --quick", file=sys.stderr)
        sys.exit(2)
    try:
        check_experiment_names(arguments)
    except KeyError as error:
        print(f"repro-bench: {error.args[0]}", file=sys.stderr)
        sys.exit(2)
    matched = True
    for result in run_all(arguments or None, quick=quick):
        if check_dir is not None:
            matched = check_snapshot(result, check_dir) and matched
        else:
            result.print()
            print()
        if json_dir is not None:
            path = result.save_json(json_dir)
            print(f"wrote {path}")
    if not matched:
        sys.exit(1)


if __name__ == "__main__":
    main()
