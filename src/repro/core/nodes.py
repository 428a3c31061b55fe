"""Slab-allocated node storage for the updatable index cgRXu (Section IV).

Buckets are linked lists of fixed-size nodes.  Rather than allocating nodes
individually, cgRXu carves them out of two large slabs:

* the **representative node region** holds exactly one node per bucket (the
  head of each list); a representative triangle's primitive index multiplied
  by the node size yields the address of its representative node, and
* the **linked node region** provides the nodes appended when inserts force a
  node to split.

Both regions live permanently on the device and count towards the index's
memory footprint even when nodes are only partially occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.gpu.memory import MemoryFootprint

#: ``next`` pointer value marking the end of a bucket's chain.
NO_NEXT = -1


@dataclass
class NodeView:
    """A lightweight read view of one node (used by tests and debugging)."""

    index: int
    keys: np.ndarray
    row_ids: np.ndarray
    max_key: int
    next_node: int
    size: int


class NodeStorage:
    """Two-region slab of fixed-capacity nodes."""

    def __init__(
        self,
        num_representative_nodes: int,
        node_capacity: int,
        node_bytes: int,
        key_dtype=np.uint64,
        linked_region_initial: int = 0,
    ) -> None:
        if num_representative_nodes < 1:
            raise ValueError("need at least one representative node")
        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")

        self.node_capacity = int(node_capacity)
        self.node_bytes = int(node_bytes)
        self.key_dtype = np.dtype(key_dtype)
        self.num_representative_nodes = int(num_representative_nodes)

        linked_region_initial = max(int(linked_region_initial), self.num_representative_nodes // 4, 16)
        total = self.num_representative_nodes + linked_region_initial

        self._keys = np.zeros((total, self.node_capacity), dtype=self.key_dtype)
        self._row_ids = np.zeros((total, self.node_capacity), dtype=np.uint32)
        self._sizes = np.zeros(total, dtype=np.int32)
        self._max_keys = np.zeros(total, dtype=np.uint64)
        self._next = np.full(total, NO_NEXT, dtype=np.int64)
        #: Number of linked-region nodes handed out so far (high-water mark).
        self._linked_used = 0
        #: Linked-region nodes released by chain compaction, available for
        #: reuse before the bump allocator hands out fresh slots.
        self._free_nodes: List[int] = []

    # ------------------------------------------------------------- allocation

    @property
    def linked_region_capacity(self) -> int:
        """Total linked-region nodes currently reserved (used or not)."""
        return int(self._keys.shape[0]) - self.num_representative_nodes

    @property
    def linked_nodes_used(self) -> int:
        """Linked-region nodes currently *live* (allocated and not released)."""
        return self._linked_used - len(self._free_nodes)

    @property
    def total_nodes(self) -> int:
        """Representative nodes plus live linked nodes."""
        return self.num_representative_nodes + self.linked_nodes_used

    def allocate_linked_node(self) -> int:
        """Hand out a node from the linked region, preferring released ones."""
        if self._free_nodes:
            return self._free_nodes.pop()
        if self._linked_used >= self.linked_region_capacity:
            self._grow_linked_region()
        index = self.num_representative_nodes + self._linked_used
        self._linked_used += 1
        return index

    def release_linked_node(self, index: int) -> None:
        """Return a linked-region node to the allocator (compaction reclaim)."""
        if index < self.num_representative_nodes:
            raise ValueError("representative nodes cannot be released")
        self._keys[index] = 0
        self._row_ids[index] = 0
        self._sizes[index] = 0
        self._max_keys[index] = 0
        self._next[index] = NO_NEXT
        self._free_nodes.append(index)

    def _grow_linked_region(self) -> None:
        """Double the linked region (the paper enlarges the slab when exhausted)."""
        additional = max(self.linked_region_capacity, 16)
        new_total = self._keys.shape[0] + additional
        for attribute, fill in (
            ("_keys", 0),
            ("_row_ids", 0),
            ("_sizes", 0),
            ("_max_keys", 0),
            ("_next", NO_NEXT),
        ):
            old = getattr(self, attribute)
            grown = np.full((new_total,) + old.shape[1:], fill, dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, attribute, grown)

    # ----------------------------------------------------------------- access

    def node_size(self, index: int) -> int:
        return int(self._sizes[index])

    def node_max_key(self, index: int) -> int:
        return int(self._max_keys[index])

    def node_next(self, index: int) -> int:
        return int(self._next[index])

    def node_keys(self, index: int) -> np.ndarray:
        """The occupied key slots of a node (a view, not a copy)."""
        return self._keys[index, : self._sizes[index]]

    def node_row_ids(self, index: int) -> np.ndarray:
        """The occupied rowID slots of a node (a view, not a copy)."""
        return self._row_ids[index, : self._sizes[index]]

    def view(self, index: int) -> NodeView:
        """Materialise a read-only snapshot of a node."""
        return NodeView(
            index=index,
            keys=self.node_keys(index).copy(),
            row_ids=self.node_row_ids(index).copy(),
            max_key=self.node_max_key(index),
            next_node=self.node_next(index),
            size=self.node_size(index),
        )

    # ------------------------------------------------------------- mutations

    def fill_node(
        self, index: int, keys: np.ndarray, row_ids: np.ndarray, max_key: int
    ) -> None:
        """Bulk-fill a node with sorted keys (used during initial construction)."""
        count = int(keys.shape[0])
        if count > self.node_capacity:
            raise ValueError("too many entries for one node")
        self._keys[index, :count] = keys
        self._row_ids[index, :count] = row_ids
        self._sizes[index] = count
        self._max_keys[index] = np.uint64(max_key)
        self._next[index] = NO_NEXT

    def fill_buckets(self, keys: np.ndarray, row_ids: np.ndarray, bucket_size: int) -> None:
        """Bulk-fill nodes ``0..B-1`` with consecutive ``bucket_size`` slices
        of sorted entries (the last slice may be shorter); each node's
        ``maxKey`` is its last key.  Leaves the slabs byte-identical to one
        :meth:`fill_node` call per bucket.
        """
        bucket_size = int(bucket_size)
        if bucket_size > self.node_capacity:
            raise ValueError("too many entries for one node")
        count = int(keys.shape[0])
        full = count // bucket_size
        tail = count - full * bucket_size
        num_buckets = full + int(tail > 0)
        split = full * bucket_size
        self._keys[:full, :bucket_size] = keys[:split].reshape(full, bucket_size)
        self._row_ids[:full, :bucket_size] = row_ids[:split].reshape(full, bucket_size)
        self._keys[full, :tail] = keys[split:]
        self._row_ids[full, :tail] = row_ids[split:]
        self._sizes[:full] = bucket_size
        self._sizes[full:num_buckets] = tail
        ends = np.minimum(np.arange(1, num_buckets + 1) * bucket_size, count) - 1
        self._max_keys[:num_buckets] = keys[ends].astype(np.uint64)
        self._next[:num_buckets] = NO_NEXT

    def insert_into_node(self, index: int, key: int, row_id: int) -> bool:
        """Insert ``key`` into a node keeping it sorted; False when the node is full."""
        size = int(self._sizes[index])
        if size >= self.node_capacity:
            return False
        keys = self._keys[index]
        position = int(np.searchsorted(keys[:size], np.asarray(key, dtype=self.key_dtype)))
        keys[position + 1 : size + 1] = keys[position:size]
        self._row_ids[index, position + 1 : size + 1] = self._row_ids[index, position:size]
        keys[position] = key
        self._row_ids[index, position] = row_id
        self._sizes[index] = size + 1
        return True

    def delete_from_node(self, index: int, key: int) -> bool:
        """Delete one occurrence of ``key`` from a node; False when not present."""
        size = int(self._sizes[index])
        keys = self._keys[index]
        position = int(np.searchsorted(keys[:size], np.asarray(key, dtype=self.key_dtype)))
        if position >= size or keys[position] != np.asarray(key, dtype=self.key_dtype):
            return False
        keys[position : size - 1] = keys[position + 1 : size]
        self._row_ids[index, position : size - 1] = self._row_ids[index, position + 1 : size]
        self._sizes[index] = size - 1
        return True

    def split_node(self, index: int) -> int:
        """Split a full node, moving its upper half into a fresh linked node.

        The new node inherits the old node's ``maxKey`` and its position in
        the chain; the old node's largest remaining key becomes its new
        ``maxKey``.  Returns the index of the new node.
        """
        size = int(self._sizes[index])
        if size < 2:
            raise ValueError("cannot split a node with fewer than two entries")
        new_index = self.allocate_linked_node()
        half = size // 2

        moved_keys = self._keys[index, half:size].copy()
        moved_row_ids = self._row_ids[index, half:size].copy()
        self.fill_node(new_index, moved_keys, moved_row_ids, self.node_max_key(index))

        self._sizes[index] = half
        self._max_keys[index] = self._keys[index, half - 1].astype(np.uint64)
        self._next[new_index] = self._next[index]
        self._next[index] = new_index
        return new_index

    def compact_chain(
        self,
        head: int,
        max_key: int,
        entries: "Tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> Tuple[int, int]:
        """Fold ``head``'s chain into the fewest nodes that hold its entries.

        Entries are re-packed head-first: every node but the chain's final
        one is filled to capacity and surplus linked nodes are released back
        to the allocator.  The final node's ``maxKey`` becomes ``max_key``
        (the bucket's routing upper bound) while interior nodes carry their
        own largest key — the same invariant node splits maintain.  A caller
        that already gathered the chain's ``(keys, row_ids)`` passes them as
        ``entries`` to skip the second walk.  Returns ``(nodes_before,
        nodes_after)``.
        """
        chain = list(self.chain(head))
        keys, row_ids = entries if entries is not None else self.chain_entries(head)
        count = int(keys.shape[0])
        nodes_after = max(1, -(-count // self.node_capacity))
        kept = chain[:nodes_after]
        for position, node in enumerate(kept):
            low = position * self.node_capacity
            high = min(count, low + self.node_capacity)
            node_max = max_key if position == nodes_after - 1 else int(keys[high - 1])
            self.fill_node(node, keys[low:high], row_ids[low:high], node_max)
        for position in range(nodes_after - 1):
            self._next[kept[position]] = kept[position + 1]
        for node in chain[nodes_after:]:
            self.release_linked_node(node)
        return len(chain), nodes_after

    # ------------------------------------------------------------- traversal

    def chain(self, head: int) -> Iterator[int]:
        """Iterate over the node indices of a bucket's chain, head first."""
        index = head
        while index != NO_NEXT:
            yield index
            index = self.node_next(index)

    # ------------------------------------------------------------- SoA access
    #
    # The batch execution engine walks many chains at once; these views expose
    # the slab arrays directly so its kernels can gather node rows without
    # per-node Python calls.

    @property
    def keys_matrix(self) -> np.ndarray:
        """All node key slots as a ``(total, capacity)`` matrix (shared view)."""
        return self._keys

    @property
    def row_ids_matrix(self) -> np.ndarray:
        """All node rowID slots as a ``(total, capacity)`` matrix (shared view)."""
        return self._row_ids

    @property
    def sizes_array(self) -> np.ndarray:
        """Occupied-slot count per node (shared view)."""
        return self._sizes

    @property
    def max_keys_array(self) -> np.ndarray:
        """``maxKey`` per node (shared view)."""
        return self._max_keys

    @property
    def next_array(self) -> np.ndarray:
        """``next`` pointer per node (shared view)."""
        return self._next

    def flatten_chains(self, num_chains: int) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten the first ``num_chains`` chains into one node-order table.

        Returns ``(order, starts)`` where ``order`` lists node indices in
        bucket-major chain order (chain 0 head-to-tail, then chain 1, ...)
        and ``starts[b]`` is chain ``b``'s offset into ``order``
        (``starts[num_chains]`` is the total).  Built with lockstep pointer
        chasing — the cost is O(max chain length) numpy passes, not O(nodes)
        Python iterations.
        """
        heads = np.arange(num_chains, dtype=np.int64)
        lengths = np.ones(num_chains, dtype=np.int64)
        cursor = self._next[heads]
        live = np.nonzero(cursor != NO_NEXT)[0]
        cursor = cursor[live]
        while live.size:
            lengths[live] += 1
            cursor = self._next[cursor]
            keep = cursor != NO_NEXT
            live = live[keep]
            cursor = cursor[keep]

        starts = np.zeros(num_chains + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        order = np.empty(int(starts[-1]), dtype=np.int64)
        live = heads
        cursor = heads.copy()
        level = 0
        while live.size:
            order[starts[live] + level] = cursor
            cursor = self._next[cursor]
            keep = cursor != NO_NEXT
            live = live[keep]
            cursor = cursor[keep]
            level += 1
        return order, starts

    def chain_entries(self, head: int) -> Tuple[np.ndarray, np.ndarray]:
        """All keys and rowIDs of a chain, in sorted order."""
        keys: List[np.ndarray] = []
        row_ids: List[np.ndarray] = []
        for index in self.chain(head):
            keys.append(self.node_keys(index).copy())
            row_ids.append(self.node_row_ids(index).copy())
        if not keys:
            return (
                np.empty(0, dtype=self.key_dtype),
                np.empty(0, dtype=np.uint32),
            )
        return np.concatenate(keys), np.concatenate(row_ids)

    def state_differences(self, other: "NodeStorage") -> List[str]:
        """Names of the slabs and allocator fields that differ from
        ``other``'s, byte for byte (empty when the two are identical).

        Covers every node slot, stale ones included, the free list in order
        and the linked-region size, so engine parity checks can pin the
        whole node state rather than only the entries it exports.
        """
        differing = []
        for name in ("_keys", "_row_ids", "_sizes", "_max_keys", "_next"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if (
                mine.dtype != theirs.dtype
                or mine.shape != theirs.shape
                or mine.tobytes() != theirs.tobytes()
            ):
                differing.append(name)
        for name in ("_free_nodes", "_linked_used"):
            if getattr(self, name) != getattr(other, name):
                differing.append(name)
        return differing

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        """Device bytes of both slab regions (including unused reserved nodes)."""
        footprint = MemoryFootprint()
        footprint.add(
            "representative_node_region", self.num_representative_nodes * self.node_bytes
        )
        footprint.add("linked_node_region", self.linked_region_capacity * self.node_bytes)
        return footprint
