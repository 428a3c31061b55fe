"""Software raytracing substrate emulating the parts of NVIDIA OptiX used by RX/cgRX.

The paper relies on four hardware capabilities:

* a vertex buffer of triangles ("geometry acceleration structure" input),
* ``optixAccelBuild`` constructing a bounding volume hierarchy (BVH),
* hardware-accelerated closest-hit ray traversal with ray length limits,
* front-face/back-face classification via the triangle winding order, and
* a *refit* update mode that only rescales bounding volumes without
  restructuring the tree.

This package provides software equivalents with per-ray instrumentation so
that a cost model (:mod:`repro.gpu.cost_model`) can translate traversal work
into simulated GPU time.
"""

from repro.rtx.geometry import (
    Aabb,
    HitRecord,
    Ray,
    Triangle,
    make_key_triangle,
    ray_aabb_intersect,
    ray_triangle_intersect,
)
from repro.rtx.scene import BuildFlags, TriangleScene, VertexBuffer
from repro.rtx.bvh import Bvh, BvhBuildConfig, BvhNode, build_bvh
from repro.rtx.traversal import RayStats, TraversalEngine
from repro.rtx.refit import refit_bvh
from repro.rtx.pipeline import RaytracingPipeline

__all__ = [
    "Aabb",
    "HitRecord",
    "Ray",
    "Triangle",
    "make_key_triangle",
    "ray_aabb_intersect",
    "ray_triangle_intersect",
    "BuildFlags",
    "TriangleScene",
    "VertexBuffer",
    "Bvh",
    "BvhBuildConfig",
    "BvhNode",
    "build_bvh",
    "RayStats",
    "TraversalEngine",
    "refit_bvh",
    "RaytracingPipeline",
]
