"""Regression tests pinning ``cancel_opposing_updates`` ordering semantics.

Audit result (documented in Section IV terms): when one update batch inserts
and deletes the same key, each delete *instance* cancels exactly one insert
instance — the **earliest-surviving insert in stable batch order** — and the
**first delete instances** of that key are consumed.  Later duplicate inserts
therefore survive, and leftover deletes (more deletes than inserts) fall
through to pre-existing entries.

Two properties make this safe deployment-wide, and both are pinned here:

* the shard router cancels the *raw* (unsorted) batch before routing, while
  ``CgRXuIndex.update_batch`` radix-sorts its batch *before* cancelling — the
  device sort is stable (duplicates keep batch order), so both paths cancel
  the same instances;
* after cancellation the surviving insert and delete key sets are disjoint,
  so delete-before-insert application order cannot reintroduce divergence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import cancel_opposing_updates as base_cancel
from repro.core.updatable import CgRXuIndex, cancel_opposing_updates
from repro.gpu.sort import device_radix_sort
from repro.serve import ServeConfig, ShardedIndex
from repro.bench.harness import cgrxu_factory
from repro.workloads.keygen import KeySet


def test_core_updatable_reexports_the_shared_helper():
    # The cancellation semantics are defined once and shared: the name
    # imported via repro.core.updatable IS the baselines.base helper.
    assert cancel_opposing_updates is base_cancel


def test_delete_cancels_earliest_insert_in_batch_order():
    """Insert k->100 then k->200, delete one k: the EARLIEST insert dies."""
    insert_keys = np.asarray([7, 7], dtype=np.uint32)
    insert_rows = np.asarray([100, 200], dtype=np.uint32)
    delete_keys = np.asarray([7], dtype=np.uint32)
    kept_keys, kept_rows, kept_deletes = cancel_opposing_updates(
        insert_keys, insert_rows, delete_keys
    )
    np.testing.assert_array_equal(kept_keys, [7])
    np.testing.assert_array_equal(kept_rows, [200])  # the later insert survives
    assert kept_deletes.size == 0


def test_earliest_means_batch_order_even_when_keys_are_unsorted():
    """Stable tie-break: among duplicates, batch position decides, not value
    position — an unsorted batch cancels the same instances as a sorted one."""
    insert_keys = np.asarray([9, 7, 9, 7], dtype=np.uint32)
    insert_rows = np.asarray([1, 2, 3, 4], dtype=np.uint32)
    delete_keys = np.asarray([7, 9], dtype=np.uint32)
    kept_keys, kept_rows, kept_deletes = cancel_opposing_updates(
        insert_keys, insert_rows, delete_keys
    )
    # First 7 (row 2) and first 9 (row 1) are cancelled; rows 3 and 4 survive.
    np.testing.assert_array_equal(np.sort(kept_rows), [3, 4])
    np.testing.assert_array_equal(np.sort(kept_keys), [7, 9])
    assert kept_deletes.size == 0


def test_presorting_with_the_device_sort_cancels_the_same_instances():
    """cgRXu sorts before cancelling; the router cancels raw. Same survivors."""
    insert_keys = np.asarray([9, 7, 9, 7], dtype=np.uint32)
    insert_rows = np.asarray([1, 2, 3, 4], dtype=np.uint32)
    delete_keys = np.asarray([7, 9, 9], dtype=np.uint32)

    raw_keys, raw_rows, raw_deletes = cancel_opposing_updates(
        insert_keys, insert_rows, delete_keys
    )
    sorted_keys, sorted_rows, _ = device_radix_sort(insert_keys, insert_rows)
    pre_keys, pre_rows, pre_deletes = cancel_opposing_updates(
        sorted_keys, sorted_rows, delete_keys
    )
    np.testing.assert_array_equal(np.sort(raw_rows), np.sort(pre_rows))
    np.testing.assert_array_equal(np.sort(raw_keys), np.sort(pre_keys))
    np.testing.assert_array_equal(np.sort(raw_deletes), np.sort(pre_deletes))


def test_surviving_halves_are_disjoint():
    """Post-cancellation, no key appears in both halves (one side exhausts)."""
    rng = np.random.default_rng(5)
    insert_keys = rng.integers(0, 8, size=64, dtype=np.uint64).astype(np.uint32)
    insert_rows = np.arange(64, dtype=np.uint32)
    delete_keys = rng.integers(0, 8, size=48, dtype=np.uint64).astype(np.uint32)
    kept_keys, _, kept_deletes = cancel_opposing_updates(
        insert_keys, insert_rows, delete_keys
    )
    assert not np.intersect1d(kept_keys, kept_deletes).size


def test_excess_deletes_fall_through_to_existing_entries():
    """2 deletes vs 1 insert: one cancels, the leftover hits the old entry."""
    insert_keys = np.asarray([5], dtype=np.uint32)
    insert_rows = np.asarray([500], dtype=np.uint32)
    delete_keys = np.asarray([5, 5], dtype=np.uint32)
    kept_keys, kept_rows, kept_deletes = cancel_opposing_updates(
        insert_keys, insert_rows, delete_keys
    )
    assert kept_keys.size == 0
    np.testing.assert_array_equal(kept_deletes, [5])


def test_cgrxu_live_and_rebuilt_shard_agree_on_opposing_duplicates():
    """End to end: a batch inserting k twice and deleting k once must leave
    the same surviving row on the live cgRXu shard and after a rebuild from
    the authoritative arrays (the background-maintenance path)."""
    keys = np.arange(1, 65, dtype=np.uint32)
    rows = (keys + 1000).astype(np.uint32)
    config = ServeConfig(num_shards=1, partitioner="range", key_bits=32, cache_capacity=0)
    index = ShardedIndex(keys, rows, factory=cgrxu_factory(128), config=config)
    target = np.asarray([40], dtype=np.uint32)

    index.update_batch(
        insert_keys=np.asarray([40, 40], dtype=np.uint32),
        insert_row_ids=np.asarray([7777, 8888], dtype=np.uint32),
        delete_keys=target,
    )
    live = index.point_lookup_batch(target)
    index.router.rebuild_shard(0)
    rebuilt = index.point_lookup_batch(target)
    # The delete cancelled the earliest insert (7777); 1040 and 8888 remain.
    assert int(live.match_counts[0]) == int(rebuilt.match_counts[0]) == 2
    assert int(live.row_ids[0]) == int(rebuilt.row_ids[0]) == 1040 + 8888


def test_cgrxu_direct_update_matches_the_pinned_semantics():
    keys = np.arange(1, 65, dtype=np.uint32)
    rows = (keys + 1000).astype(np.uint32)
    index = cgrxu_factory(128)(
        KeySet(keys=keys, row_ids=rows, key_bits=32, description="pin")
    )
    update = index.update_batch(
        insert_keys=np.asarray([40, 40], dtype=np.uint32),
        insert_row_ids=np.asarray([7777, 8888], dtype=np.uint32),
        delete_keys=np.asarray([40], dtype=np.uint32),
    )
    # One insert and one delete cancelled: net one insert applied, no delete.
    assert (update.inserted, update.deleted) == (1, 0)
    result = index.point_lookup_batch(np.asarray([40], dtype=np.uint32))
    assert int(result.match_counts[0]) == 2
    assert int(result.row_ids[0]) == 1040 + 8888


@pytest.mark.parametrize("key_bits", [32, 64])
def test_cgrx_rebuild_deletes_one_entry_per_delete_instance(key_bits):
    """cgRX's rebuild applies the shared delete rule: each delete instance
    removes the earliest still-present duplicate of its key, and absent keys
    and instances beyond a key's stored copies remove nothing."""
    from repro.core.config import CgRXConfig
    from repro.core.index import CgRXIndex

    base = 1 << 40 if key_bits == 64 else 1 << 20
    keys = (base + np.asarray([40, 5, 9, 40, 12, 5, 40, 9, 5, 40, 60])).astype(
        np.uint64 if key_bits == 64 else np.uint32
    )
    rows = np.arange(100, 100 + keys.shape[0], dtype=np.uint32)
    index = CgRXIndex(keys, rows, CgRXConfig(key_bits=key_bits, bucket_size=2))
    # Two more 9s than stored; 13 and 77 are absent.
    delete_keys = (base + np.asarray([5, 9, 9, 9, 13, 40, 40, 5, 9, 77])).astype(keys.dtype)

    # The model: the build's stable sorted order, one removal per instance.
    order = np.argsort(keys, kind="stable")
    entries = list(zip(keys[order].tolist(), rows[order].tolist()))
    deleted = 0
    for target in delete_keys.tolist():
        for position, (key, _) in enumerate(entries):
            if key == target:
                del entries[position]
                deleted += 1
                break

    update = index.update_batch(delete_keys=delete_keys)
    live_keys, live_rows = index.export_entries()
    assert (update.inserted, update.deleted) == (0, deleted) == (0, 6)
    assert list(zip(live_keys.tolist(), live_rows.tolist())) == entries
