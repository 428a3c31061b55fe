"""Bounding volume hierarchy (BVH) construction.

The BVH plays the role of the acceleration structure that ``optixAccelBuild``
produces on the real hardware.  Its two observable properties drive every
experiment in the paper:

* its **memory footprint**, which scales with the number of triangles (and is
  the main reason RX needs so much memory), and
* its **shape**, which determines how many bounding volumes and triangles a
  lookup ray must be tested against.

The default builder performs a spatial median split on the axis with the
largest centroid extent.  This reproduces the behaviour discussed around
Figure 9 of the paper: without scaling the y/z coordinates of the key
mapping, bounding volumes straddle several rows and the unavoidable x-axis
ray has to test many unrelated triangles; after scaling, the y/z extents
dominate and rows are separated early, so the boxes extend along the x-axis
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.rtx.geometry import Aabb
from repro.rtx.scene import BuildFlags, TriangleScene

#: Bytes per BVH node in the simulated, compacted acceleration structure.
#: Real OptiX BVH layouts are proprietary; 32 bytes per node yields footprints
#: in the same regime as the paper's measurements (a BVH that is small
#: relative to the vertex buffer but grows linearly with the triangle count).
BVH_NODE_BYTES = 32

#: Additional per-primitive bookkeeping inside the acceleration structure
#: (primitive index remapping table).
BVH_PRIMITIVE_BYTES = 4


@dataclass
class BvhBuildConfig:
    """Configuration for :func:`build_bvh`.

    ``max_leaf_size`` mirrors the trade-off a hardware builder makes between
    tree depth and per-leaf intersection tests.  ``method`` selects the split
    strategy: ``"median"`` (spatial median on the largest-extent axis, the
    default) or ``"middle"`` (split at the spatial midpoint, closer to an
    LBVH and slightly cheaper to build).
    """

    max_leaf_size: int = 4
    method: str = "median"
    build_flags: BuildFlags = BuildFlags.NONE

    def __post_init__(self) -> None:
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        if self.method not in ("median", "middle"):
            raise ValueError(f"unknown BVH build method: {self.method!r}")


@dataclass
class BvhNode:
    """A single node of the hierarchy (leaf or interior)."""

    minimum: np.ndarray
    maximum: np.ndarray
    left: int = -1
    right: int = -1
    first_primitive: int = 0
    primitive_count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.primitive_count > 0

    def aabb(self) -> Aabb:
        return Aabb(minimum=self.minimum.copy(), maximum=self.maximum.copy())


@dataclass
class Bvh:
    """A flattened BVH over a :class:`~repro.rtx.scene.TriangleScene`.

    ``primitive_order`` is a permutation of the scene's triangle indices; leaf
    nodes reference contiguous ranges of this permutation.  Traversal code
    lives in :mod:`repro.rtx.traversal`.
    """

    scene: TriangleScene
    node_min: np.ndarray
    node_max: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    node_first: np.ndarray
    node_count: np.ndarray
    primitive_order: np.ndarray
    config: BvhBuildConfig
    #: Number of times the structure has been refit since the full build.
    refit_generation: int = 0

    @property
    def num_nodes(self) -> int:
        return int(self.node_min.shape[0])

    @property
    def num_primitives(self) -> int:
        return int(self.primitive_order.shape[0])

    @property
    def num_leaves(self) -> int:
        return int((self.node_count > 0).sum())

    def node(self, index: int) -> BvhNode:
        """Materialise node ``index`` as a :class:`BvhNode` (for inspection/tests)."""
        return BvhNode(
            minimum=self.node_min[index].copy(),
            maximum=self.node_max[index].copy(),
            left=int(self.node_left[index]),
            right=int(self.node_right[index]),
            first_primitive=int(self.node_first[index]),
            primitive_count=int(self.node_count[index]),
        )

    def root_aabb(self) -> Aabb:
        """Bounding box of the root node."""
        if self.num_nodes == 0:
            return Aabb.empty()
        return Aabb(minimum=self.node_min[0].copy(), maximum=self.node_max[0].copy())

    def depth(self) -> int:
        """Maximum depth of the tree (root has depth 1); 0 for an empty tree."""
        depth = 0
        level = np.zeros(1 if self.num_nodes else 0, dtype=np.int64)
        while level.size:
            depth += 1
            inner = level[self.node_count[level] == 0]
            level = np.concatenate([self.node_left[inner], self.node_right[inner]])
        return depth

    def memory_footprint_bytes(self) -> int:
        """Simulated device footprint of the acceleration structure."""
        return self.num_nodes * BVH_NODE_BYTES + self.num_primitives * BVH_PRIMITIVE_BYTES

    def leaf_primitive_indices(self, node_index: int) -> np.ndarray:
        """Scene-local triangle indices referenced by leaf ``node_index``."""
        first = int(self.node_first[node_index])
        count = int(self.node_count[node_index])
        return self.primitive_order[first : first + count]

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on violation.

        Used by the property-based tests: every primitive appears exactly once
        across leaves, every child box is contained in its parent box, and
        interior nodes have exactly two children.
        """
        if self.num_nodes == 0:
            assert self.num_primitives == 0
            return
        seen = np.zeros(self.num_primitives, dtype=bool)
        stack: List[int] = [0]
        while stack:
            index = stack.pop()
            count = int(self.node_count[index])
            if count > 0:
                prims = self.leaf_primitive_indices(index)
                assert not seen[prims].any(), "primitive referenced by two leaves"
                seen[prims] = True
            else:
                left = int(self.node_left[index])
                right = int(self.node_right[index])
                assert left >= 0 and right >= 0, "interior node missing a child"
                for child in (left, right):
                    assert np.all(self.node_min[child] >= self.node_min[index] - 1e-4)
                    assert np.all(self.node_max[child] <= self.node_max[index] + 1e-4)
                    stack.append(child)
        assert seen.all(), "some primitive is not referenced by any leaf"


def build_bvh(scene: TriangleScene, config: Optional[BvhBuildConfig] = None) -> Bvh:
    """Build a BVH over ``scene`` (the software stand-in for ``optixAccelBuild``).

    The ``median`` split runs in the compiled tier's C builder when a kernel
    backend is available; its arrays equal this module's Python builder's,
    which stays the reference and the no-compiler path.
    """
    config = config or BvhBuildConfig()
    if config.method == "median" and scene.num_triangles:
        from repro.rtx import compiled

        arrays = compiled.build_bvh_median(
            scene.vertices, scene.centroids(), config.max_leaf_size
        )
        if arrays is not None:
            return Bvh(scene, *arrays, config=config)
    return build_bvh_python(scene, config)


def build_bvh_python(scene: TriangleScene, config: Optional[BvhBuildConfig] = None) -> Bvh:
    """The reference builder: a work stack of ``(node, start, end)`` ranges.

    A split allocates both children at once (left, then right) and pushes
    the right child last, so the right subtree is expanded, and its nodes
    numbered, first.  The ``median`` split stably sorts on the first axis of
    maximum centroid extent; a range whose centroids all coincide becomes a
    leaf.  :func:`repro.rtx.compiled.build_bvh_median` must match this
    exactly.
    """
    config = config or BvhBuildConfig()
    num_triangles = scene.num_triangles
    minima, maxima = scene.triangle_aabbs()
    centroids = scene.centroids()

    if num_triangles == 0:
        empty3 = np.zeros((0, 3), dtype=np.float32)
        empty_i = np.zeros(0, dtype=np.int64)
        return Bvh(
            scene=scene,
            node_min=empty3,
            node_max=empty3.copy(),
            node_left=empty_i,
            node_right=empty_i.copy(),
            node_first=empty_i.copy(),
            node_count=empty_i.copy(),
            primitive_order=empty_i.copy(),
            config=config,
        )

    order = np.arange(num_triangles, dtype=np.int64)

    node_min: List[np.ndarray] = []
    node_max: List[np.ndarray] = []
    node_left: List[int] = []
    node_right: List[int] = []
    node_first: List[int] = []
    node_count: List[int] = []

    def add_node() -> int:
        node_min.append(np.zeros(3, dtype=np.float32))
        node_max.append(np.zeros(3, dtype=np.float32))
        node_left.append(-1)
        node_right.append(-1)
        node_first.append(0)
        node_count.append(0)
        return len(node_min) - 1

    root = add_node()
    # Work stack of (node_index, start, end) ranges over ``order``.
    stack: List[Tuple[int, int, int]] = [(root, 0, num_triangles)]

    while stack:
        node_index, start, end = stack.pop()
        prims = order[start:end]
        prim_min = minima[prims]
        prim_max = maxima[prims]
        node_min[node_index] = prim_min.min(axis=0)
        node_max[node_index] = prim_max.max(axis=0)
        count = end - start

        if count <= config.max_leaf_size:
            node_first[node_index] = start
            node_count[node_index] = count
            continue

        cents = centroids[prims]
        extent = cents.max(axis=0) - cents.min(axis=0)
        axis = int(np.argmax(extent))
        if extent[axis] <= 0.0:
            # All centroids coincide: make a leaf to avoid infinite recursion.
            node_first[node_index] = start
            node_count[node_index] = count
            continue

        if config.method == "median":
            local = np.argsort(cents[:, axis], kind="stable")
            order[start:end] = prims[local]
            mid = start + count // 2
        else:  # "middle": split at the spatial midpoint of the centroid extent
            split_value = (cents[:, axis].max() + cents[:, axis].min()) * 0.5
            left_mask = cents[:, axis] <= split_value
            left_count = int(left_mask.sum())
            if left_count == 0 or left_count == count:
                local = np.argsort(cents[:, axis], kind="stable")
                order[start:end] = prims[local]
                mid = start + count // 2
            else:
                order[start:end] = np.concatenate([prims[left_mask], prims[~left_mask]])
                mid = start + left_count

        left_index = add_node()
        right_index = add_node()
        node_left[node_index] = left_index
        node_right[node_index] = right_index
        stack.append((left_index, start, mid))
        stack.append((right_index, mid, end))

    return Bvh(
        scene=scene,
        node_min=np.stack(node_min).astype(np.float32),
        node_max=np.stack(node_max).astype(np.float32),
        node_left=np.array(node_left, dtype=np.int64),
        node_right=np.array(node_right, dtype=np.int64),
        node_first=np.array(node_first, dtype=np.int64),
        node_count=np.array(node_count, dtype=np.int64),
        primitive_order=order,
        config=config,
    )
