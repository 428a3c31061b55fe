"""Compiled hot-path tier: C kernels over arena-packed, pre-bound tables.

Every batched index path makes **one C call per batch** here; the scalar
paths in :mod:`repro.rtx.traversal` and :mod:`repro.core` stay the
reference oracle:

* **Traversal megakernel.**  One loop per ray runs traversal-pop, slab test,
  leaf intersection and stack-push back to back.  The routing below runs it
  in closest-hit mode, tightening the ray's ``t`` on every hit; all-hits
  batches (:func:`trace_axis_all_batch`, RX point lookups) run the same loop
  in collect mode, appending every hit to a caller buffer.
* **Fused point routing.**  :func:`locate_keys_batch` runs the whole ray
  sequence of either scene representation's ``locate_bucket`` per key
  inside one C call: key slicing, the row ray, the next-row and
  leftmost-in-row rays, the next-plane ray with its first row and leftmost
  representative, the float32 hit-point grid snap and the primitive remap.
  The two representations differ only in the lanes their next-row and
  next-plane rays run along (``RouteParams``: the naive markers at x = -1
  and y = -1, the optimized terminators at xmax and ymax).  A point batch
  of either index goes further: ``point_lookup`` runs that routing and,
  per key, cgRXu's chain walk or cgRX's static-bucket search (a binary
  search of the located bucket of the sorted key array, galloping over
  duplicate runs that spill into later buckets) in one C call.  It writes
  the rowID aggregate, the match count and the entries touched, and
  reduces what the batch's kernel record needs (ray totals, chain nodes,
  entries, the divergence sample's warp pacing, the distinct-key count).
  Each key is routed one key ahead of its bucket search, and its bucket's
  lines are prefetched in between, so they load while the next key's rays
  run.  A cgRXu range batch is one ``range_lookup`` call: per range the
  same routing of its low, then the forward chain walk to the first key
  above its high, the rows of every range in one flat buffer with
  per-range offsets, and the range record's reductions (ray totals, chain
  nodes, entries, the distinct lows).
* **BVH build.**  :func:`build_bvh_median` is the ``median``-split builder of
  :func:`repro.rtx.bvh.build_bvh` in C, with identical output arrays.
* **cgRXu node chains.**  The point and range batches, the update
  apply (deletes, inserts, node splits and linked-node allocation) and
  compaction run over the live ``NodeStorage`` slabs.  A compaction pass is
  two calls: ``chain_tails`` reports each selected chain's nodes, entries
  and last key, Python decides the re-anchors, and ``compact_chains``
  re-packs the chains and releases their surplus nodes.  After a split or a
  compaction, ``patch_chains`` re-flattens the chain tables: runs of
  untouched chains are copied whole and only the changed chains are
  re-walked.  Their Python entries are in :mod:`repro.core.compiled`.
* **One 32-byte record per node.**  A visit reads one record: the node's
  exact float32 bounds (promoted to double in-register, exactly like the
  scalar oracle's ``astype(float)``), then its first child or first leaf
  slot, and its triangle count or the precomputed order in which its
  children are pushed.  The records are laid out level by level with a
  node's two children side by side, so a pair shares one 64-byte line.
  Leaf triangle tests read a slot-ordered copy of the centroids and look up
  the scene triangle only on a hit.
* **Shard-local arenas, bound once.**  All node tables live in one reusable
  byte buffer rebuilt in place across build/refit epochs; the scene's
  centroids, primitive indices and flip flags are aliased, not copied.  The
  table pointers are gathered into one C struct when an epoch is packed, so
  a kernel call converts only its per-batch arrays.  Point and range
  batches go further: their key, range-high, answer, row, offset, reduction
  and scratch buffers are owned by the index, and their pointers sit in one
  ``LookupBatch`` struct next to the BVH-table pointers and the chain-table
  pointers (cgRXu) or the sorted key and rowID arrays, read in place
  (cgRX).  Those are re-pointed when the tables are repacked or rebuilt.
  The buffers grow geometrically, only when a batch's keys, ranges or rows
  exceed them, so a call converts nothing.  Arenas and batch buffers are
  host memory, reported by ``compiled_buffers_bytes()`` and never in a
  simulated-device footprint.

The kernels are C compiled at first use with the system C compiler into a
cached shared library and bound through :mod:`ctypes` (no Python dependency
beyond the standard library).  ``REPRO_COMPILED_BACKEND`` selects ``cc`` (the
default) or ``none``.  Without a usable library, callers degrade to the
scalar engine and :func:`record_fallback` issues one ``RuntimeWarning`` per
reason and records a telemetry gauge (see
:func:`repro.core.config.resolve_engine`).

Bit-parity contract
-------------------

The megakernel follows the scalar ``_trace_axis`` stack discipline exactly
(root first, far child pushed before near, visit counted at pop *before* any
test), performs every accepted comparison in IEEE double precision with the
same operand expressions, and applies the same first-minimum tie-break.  The
library is built with ``-ffp-contract=off`` so every operation rounds on its
own, as numpy's do.  Hit records, per-ray node-visit counts and
:class:`~repro.rtx.traversal.RayStats` totals are therefore identical to the
scalar oracle — pinned by the test suite together with a test that the
packed records hold the tree's bounds, topology and push order exactly.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs import profile as _profile
from repro.rtx.traversal import TraversalEngine

#: Fixed traversal stack capacity of the compiled kernels.  Trees deeper than
#: this fall back to the scalar engine (never hit in practice: the stack need
#: is ``depth + 3`` and the builder produces balanced trees).
MAX_STACK = 512

#: Compiler flags of the kernel library.  ``-ffp-contract=off`` forbids fused
#: multiply-adds, so C arithmetic rounds one operation at a time like numpy.
_CC_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# --------------------------------------------------------------------------
# Backend resolution
# --------------------------------------------------------------------------

#: Resolved backend name (``"cc"``) or ``None`` when the compiled tier is
#: unavailable.  ``"unresolved"`` until first probe.
_BACKEND: Optional[str] = "unresolved"
_LIBRARY: Optional[ctypes.CDLL] = None
#: Why the last probe found no backend (``"no_backend"`` or
#: ``"library_load_failed"``).
_UNAVAILABLE_REASON = "no_backend"
#: Fallback reasons already warned about in this process.
_WARNED: set = set()

#: Reason recorded by the most recent :func:`record_fallback` call (tests and
#: diagnostics; the warning and the telemetry gauge are the observable
#: surface).
last_fallback_reason: Optional[str] = None


def reset_backend_cache() -> None:
    """Forget the resolved backend (and the warned fallback reasons) so the
    next probe re-reads the environment."""
    global _BACKEND, _LIBRARY
    _BACKEND = "unresolved"
    _LIBRARY = None
    _WARNED.clear()


def available_backend() -> Optional[str]:
    """The active kernel backend, resolving (and caching) it on first call.

    ``REPRO_COMPILED_BACKEND=none`` disables the tier; otherwise the C
    kernels are compiled with the system compiler (``$CC``, ``cc``, ``gcc``
    or ``clang``).
    """
    global _BACKEND, _LIBRARY, _UNAVAILABLE_REASON
    if _BACKEND != "unresolved":
        return _BACKEND
    _BACKEND = None
    if os.environ.get("REPRO_COMPILED_BACKEND", "").strip().lower() == "none":
        _UNAVAILABLE_REASON = "no_backend"
        return None
    compiler = _compiler()
    if compiler is None:
        _UNAVAILABLE_REASON = "no_backend"
        return None
    library = _load_cc_library(compiler)
    if library is None:
        _UNAVAILABLE_REASON = "library_load_failed"
        return None
    _bind(library)
    _LIBRARY = library
    _BACKEND = "cc"
    return _BACKEND


def library() -> Optional[ctypes.CDLL]:
    """The bound kernel library, or ``None`` when the tier is unavailable."""
    if _BACKEND == "unresolved":
        available_backend()
    return _LIBRARY


def unavailable_reason() -> str:
    """Why :func:`available_backend` found no backend."""
    return _UNAVAILABLE_REASON


def record_fallback(reason: str) -> None:
    """Note a compiled→scalar degradation: warn once per reason, and record
    it on the telemetry surface when a profiler is installed."""
    global last_fallback_reason
    last_fallback_reason = reason
    if reason not in _WARNED:
        _WARNED.add(reason)
        warnings.warn(
            f"compiled engine unavailable ({reason}); running the scalar engine instead",
            RuntimeWarning,
            stacklevel=3,
        )
    prof = _profile.profiler()
    if prof is not None:
        prof.observe_compiled_fallback(reason)


# --------------------------------------------------------------------------
# C kernels
# --------------------------------------------------------------------------

_CC_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_STACK 512

/* One BVH node (CompiledBvhTables.NODE): its exact float32 bounds, then for
   a leaf its first slot (child) and triangle count (meta > 0), for an
   interior node the packed index of its first child (the second is child +
   1) and meta = -1 - bits, bit a set when the first child's min[a] <= the
   second's. */
typedef struct {
    float lo[3], hi[3];
    int32_t child;
    int32_t meta;
} Node;

/* Arena-packed node records and slot tables plus the scene arrays they
   index; filled once per packing epoch by CompiledBvhTables.
   slot_centroids[s] is centroids[order[s]]. */
typedef struct {
    const Node* nodes;
    const double* slot_centroids;
    const int32_t* order;
    const double* centroids;
    const int64_t* primitive_indices;
    const uint8_t* flipped;
    double tolerance;
} BvhTables;

/* Constants of a representation's locate_bucket (see RouteParams): lane_x
   is the grid x of the column the next-row and next-plane rays run along,
   lane_y the grid y of the next-plane ray's row (the naive representation's
   markers at -1, the optimized one's terminators at xmax and ymax). */
typedef struct {
    uint64_t min_rep, max_rep;
    int64_t lane_x, lane_y;
    int64_t row_marker_offset, plane_marker_offset;
    double y_scale, z_scale;
    int32_t x_bits, y_bits, z_bits;
    int32_t multi_line, multi_plane;
} RouteParams;

/* Flattened cgRXu node chains plus the NodeStorage slabs (ChainTables). */
typedef struct {
    const int64_t* order;
    const int64_t* starts;
    const void* keys;
    const uint32_t* row_ids;
    const int32_t* sizes;
    const uint64_t* max_keys;
    const int64_t* next_node;
    int64_t order_len;
    int64_t overflow_bucket;
    int32_t capacity;
    int32_t key_is_64;
} ChainTables;

/* The mutable NodeStorage slabs plus its linked-node allocator (NodeSlabs):
   apply_updates pops free_nodes[0, free_count) from the end and bumps
   linked_used in place; total_nodes is the height of the slabs. */
typedef struct {
    void* keys;
    uint32_t* row_ids;
    int32_t* sizes;
    uint64_t* max_keys;
    int64_t* next_node;
    const int64_t* free_nodes;
    int64_t free_count;
    int64_t linked_used;
    int64_t total_nodes;
    int64_t num_representative;
    int64_t overflow_bucket;
    int32_t capacity;
    int32_t key_is_64;
} NodeSlabs;

/* cgRX's sorted key-rowID array in fixed-size buckets (BucketedKeys), read
   in place. */
typedef struct {
    const void* keys;
    const uint32_t* row_ids;
    int64_t num_entries;
    int64_t bucket_size;
    int32_t key_is_64;
} SortedBuckets;

/* One index's lookup batches (LookupBatch): the tables a batch reads and
   the batch buffers, bound once per index.  Exactly one of chain (cgRXu's
   node chains) and sorted (cgRX's static buckets) is set.  keys holds a
   point batch's keys or a range batch's lows; highs, rows (rows_capacity
   slots) and offsets serve range batches only.  scratch holds four slots
   per key slot (count_distinct's table). */
typedef struct {
    const BvhTables* bvh;
    const RouteParams* route;
    const ChainTables* chain;
    const SortedBuckets* sorted;
    const void* keys;
    const void* highs;
    int64_t* row_ids;
    int64_t* matches;
    int64_t* scanned;
    uint32_t* rows;
    int64_t* offsets;
    uint64_t* scratch;
    int64_t* reductions;
    int64_t rows_capacity;
} LookupBatch;

typedef struct { int64_t rays, nodes, triangle_tests, hits; } RayTotals;

/* Collect-mode output of trace_ray: every hit as (ray, t, triangle) in
   traversal order.  At most `capacity` hits are written; `count` counts
   them all, so the caller can regrow and retry. */
typedef struct {
    int64_t ray, count, capacity;
    int64_t* rays;
    double* ts;
    int64_t* triangles;
} HitBuffer;

static const int PERP_A[3] = {1, 0, 0};
static const int PERP_B[3] = {2, 2, 1};

static inline uint64_t key_at(const void* keys, int is_64, int64_t i)
{
    return is_64 ? ((const uint64_t*)keys)[i] : (uint64_t)((const uint32_t*)keys)[i];
}

/* One +axis ray: TraversalEngine._trace_axis statement for statement.
   Returns 1 when the ray hit anything.  Closest-hit mode (collect == NULL)
   tightens *best_t on every closer hit; collect mode never tightens it and
   appends every hit to the buffer instead. */
static int trace_ray(const BvhTables* T, int axis, double o, double ca, double cb,
                     double* best_t, int64_t* best_tri, int64_t* visits_out,
                     int64_t* tests_out, HitBuffer* collect)
{
    const int perp_a = PERP_A[axis], perp_b = PERP_B[axis];
    const double tolerance = T->tolerance;
    int32_t stack[MAX_STACK];
    int32_t sp = 0;
    stack[sp++] = 0;
    double bt = *best_t;
    int64_t visits = 0, tests = 0, tri_best = 0;
    int has = 0;
    while (sp > 0) {
        const Node* node = T->nodes + stack[--sp];
        visits++;
        if (ca < (double)node->lo[perp_a] - tolerance ||
            ca > (double)node->hi[perp_a] + tolerance)
            continue;
        if (cb < (double)node->lo[perp_b] - tolerance ||
            cb > (double)node->hi[perp_b] + tolerance)
            continue;
        if ((double)node->hi[axis] < o || (double)node->lo[axis] > o + bt)
            continue;
        const int32_t child = node->child, meta = node->meta;
        if (meta > 0) {
            tests += meta;
            for (int32_t s = child; s < child + meta; s++) {
                const double* c = T->slot_centroids + 3 * (int64_t)s;
                if (fabs(c[perp_a] - ca) > tolerance) continue;
                if (fabs(c[perp_b] - cb) > tolerance) continue;
                const double t = c[axis] - o;
                if (t < 0.0 || t > bt) continue;
                const int64_t tri = (int64_t)T->order[s];
                if (collect) {
                    const int64_t i = collect->count++;
                    if (i < collect->capacity) {
                        collect->rays[i] = collect->ray;
                        collect->ts[i] = t;
                        collect->triangles[i] = tri;
                    }
                    has = 1;
                } else if (!has || t < bt) { has = 1; bt = t; tri_best = tri; }
            }
        } else if ((-1 - meta) >> axis & 1) {
            /* The first child starts no farther along the ray: visit it
               next. */
            stack[sp++] = child + 1;
            stack[sp++] = child;
        } else {
            stack[sp++] = child;
            stack[sp++] = child + 1;
        }
    }
    *best_t = bt;
    *best_tri = tri_best;
    *visits_out = visits;
    *tests_out = tests;
    return has;
}

/* All hits of a batch of +axis rays, ray by ray in traversal order, into
   the (capacity)-long hit_rays / hit_t / hit_tri arrays; visits gets the
   per-ray node visits.  Returns the number of hits found (more than
   capacity means the hit arrays were too short).  totals: rays, nodes,
   triangle tests, rays with a hit. */
int64_t trace_axis_all(const BvhTables* T, int32_t axis, int64_t num_rays,
                       const double* origins, const double* tmax, int64_t* visits,
                       int64_t capacity, int64_t* hit_rays, double* hit_t,
                       int64_t* hit_tri, int64_t* totals)
{
    const int perp_a = PERP_A[axis], perp_b = PERP_B[axis];
    HitBuffer collect = {0, 0, capacity, hit_rays, hit_t, hit_tri};
    int64_t nodes = 0, tests_total = 0, hits = 0;
    for (int64_t r = 0; r < num_rays; r++) {
        const double* origin = origins + 3 * r;
        double limit = tmax[r];
        int64_t tri, tests;
        collect.ray = r;
        hits += trace_ray(T, axis, origin[axis], origin[perp_a], origin[perp_b], &limit,
                          &tri, &visits[r], &tests, &collect);
        nodes += visits[r];
        tests_total += tests;
    }
    totals[0] = num_rays;
    totals[1] = nodes;
    totals[2] = tests_total;
    totals[3] = hits;
    return collect.count;
}

/* One ray of the routing sequence from a scene-space origin. */
static int cast(const BvhTables* T, int axis, double x, double y, double z,
                int64_t* tri, int64_t* key_nodes, RayTotals* c)
{
    const double origin[3] = {x, y, z};
    double bt = INFINITY;
    int64_t visits, tests;
    const int has = trace_ray(T, axis, origin[axis], origin[PERP_A[axis]],
                              origin[PERP_B[axis]], &bt, tri, &visits, &tests, NULL);
    c->rays++;
    c->nodes += visits;
    c->triangle_tests += tests;
    c->hits += has;
    *key_nodes += visits;
    return has;
}

/* SceneCaster.hit_grid_*: the float32 hit point, divided back to the grid
   and rounded half to even. */
static inline int64_t snap(double centre, double scale)
{
    return (int64_t)rint((double)(float)centre / scale);
}

static inline int64_t remap(const BvhTables* T, const RouteParams* P, int64_t tri)
{
    const int64_t prim = T->primitive_indices[tri];
    if (prim >= P->plane_marker_offset && P->multi_plane)
        return prim - P->plane_marker_offset + 1;
    if (prim >= P->row_marker_offset)
        return prim - P->row_marker_offset + 1;
    return prim;
}

/* A representation's locate_bucket for one in-range key.  The naive
   representation has no flipped triangles, and its row-ray and leftmost
   hits start at x >= -0.5, past its markers, so neither the flip test nor
   the remap changes its answers. */
static int64_t route(const BvhTables* T, const RouteParams* P, int64_t kx, int64_t ky,
                     int64_t kz, int64_t* kn, RayTotals* c)
{
    int64_t tri;
    /* Ray 1: along +x in the key's own row. */
    if (cast(T, 0, (double)kx - 0.5, (double)ky * P->y_scale, (double)kz * P->z_scale,
             &tri, kn, c))
        return remap(T, P, tri);
    /* Ray 2 (+ ray 3 on a front face): the next populated row. */
    if (P->multi_line &&
        cast(T, 1, (double)P->lane_x, ((double)(ky + 1) - 0.5) * P->y_scale,
             (double)kz * P->z_scale, &tri, kn, c)) {
        if (T->flipped[tri]) return remap(T, P, tri);
        const int64_t row_y = snap(T->centroids[3 * tri + 1], P->y_scale);
        if (cast(T, 0, 0.0 - 0.5, (double)row_y * P->y_scale, (double)kz * P->z_scale,
                 &tri, kn, c))
            return remap(T, P, tri);
        return -1;
    }
    /* Rays 3-5: the next populated plane, its first row, and that row's
       leftmost representative. */
    if (P->multi_plane &&
        cast(T, 2, (double)P->lane_x, (double)P->lane_y * P->y_scale,
             ((double)(kz + 1) - 0.5) * P->z_scale, &tri, kn, c)) {
        const int64_t plane_z = snap(T->centroids[3 * tri + 2], P->z_scale);
        if (cast(T, 1, (double)P->lane_x, (0.0 - 0.5) * P->y_scale,
                 (double)plane_z * P->z_scale, &tri, kn, c)) {
            if (T->flipped[tri]) return remap(T, P, tri);
            const int64_t row_y = snap(T->centroids[3 * tri + 1], P->y_scale);
            if (cast(T, 0, 0.0 - 0.5, (double)row_y * P->y_scale,
                     (double)plane_z * P->z_scale, &tri, kn, c))
                return remap(T, P, tri);
        }
    }
    return -1;
}

/* A representation's locate_bucket for one key: -1 (MISS) above the
   largest representative, 0 below the smallest. */
static int64_t route_key(const BvhTables* T, const RouteParams* P, uint64_t key,
                         int64_t* kn, RayTotals* c)
{
    if (key > P->max_rep) return -1;
    if (key < P->min_rep) return 0;
    const uint64_t x_mask = ((uint64_t)1 << P->x_bits) - 1;
    const uint64_t y_mask = ((uint64_t)1 << P->y_bits) - 1;
    const uint64_t z_mask = ((uint64_t)1 << P->z_bits) - 1;
    const int64_t kx = (int64_t)(key & x_mask);
    const int64_t ky = P->y_bits ? (int64_t)((key >> P->x_bits) & y_mask) : 0;
    const int64_t kz = P->z_bits ? (int64_t)((key >> (P->x_bits + P->y_bits)) & z_mask) : 0;
    return route(T, P, kx, ky, kz, kn, c);
}

/* Bucket ids (-1 = MISS) and per-key node visits for a key batch: out is
   (2, num_keys).  totals: rays, nodes, triangle tests, hits. */
void locate_keys(const BvhTables* T, const RouteParams* P, int64_t num_keys,
                 const uint64_t* keys, int64_t* out, int64_t* totals)
{
    RayTotals c = {0, 0, 0, 0};
    for (int64_t k = 0; k < num_keys; k++) {
        int64_t kn = 0;
        out[k] = route_key(T, P, keys[k], &kn, &c);
        out[num_keys + k] = kn;
    }
    totals[0] = c.rays;
    totals[1] = c.nodes;
    totals[2] = c.triangle_tests;
    totals[3] = c.hits;
}

/* cgRXu point-lookup chain walk of one key (CgRXuIndex._collect): out gets
   rowID sum, matches, nodes visited, entries touched. */
static void walk_point(const ChainTables* C, uint64_t target, int64_t bucket, int64_t* out)
{
    int64_t pos = C->starts[bucket < 0 ? C->overflow_bucket : bucket];
    int64_t visits = 0, touched = 0, matched = 0, rsum = 0;
    while (pos < C->order_len) {
        const int64_t node = C->order[pos];
        visits++;
        const int32_t size = C->sizes[node];
        if (C->max_keys[node] < target && C->next_node[node] != -1) { pos++; continue; }
        const int64_t base = node * (int64_t)C->capacity;
        int64_t left = 0, right = 0;
        for (int32_t i = 0; i < size; i++) {
            const uint64_t value = key_at(C->keys, C->key_is_64, base + i);
            left += value < target;
            right += value <= target;
        }
        const int64_t span = right - left;
        touched += span > 1 ? span : 1;
        if (span > 0) {
            for (int64_t i = left; i < right; i++) rsum += (int64_t)C->row_ids[base + i];
            matched += span;
        }
        if (right < (int64_t)size) break;
        pos++;
    }
    out[0] = rsum;
    out[1] = matched;
    out[2] = visits;
    out[3] = touched;
}

/* First position in [lo, hi) of sorted keys whose key exceeds target (hi
   when none does). */
static inline int64_t upper_bound(const void* keys, int is_64, int64_t lo, int64_t hi,
                                  uint64_t target)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (key_at(keys, is_64, mid) <= target) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* First position in [lo, hi) of sorted keys whose key is at least target. */
static inline int64_t lower_bound(const void* keys, int is_64, int64_t lo, int64_t hi,
                                  uint64_t target)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (key_at(keys, is_64, mid) < target) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* cgRX's post-filter of one key from its located bucket (CgRXIndex.
   _post_filter): out gets rowID sum, matches, 0 (no chain nodes) and
   entries scanned.  A binary search inside the bucket finds the first key
   above the target; a run reaching the bucket's end spills into later
   buckets and is followed by galloping.  The scan counts every entry from
   the bucket start through that first larger key (one past the array end
   when the run ends the array).  A match run that starts before the bucket
   is a miss, as in the reference; no bucket (-1) scans nothing. */
static void search_bucket(const SortedBuckets* S, uint64_t target, int64_t bucket,
                          int64_t* out)
{
    const void* keys = S->keys;
    const int is_64 = S->key_is_64;
    const int64_t n = S->num_entries;
    out[0] = out[1] = out[2] = out[3] = 0;
    if (bucket < 0) return;
    const int64_t start = bucket * S->bucket_size;
    if (start >= n) { out[3] = 1; return; }
    const int64_t end = start + S->bucket_size < n ? start + S->bucket_size : n;
    int64_t right = upper_bound(keys, is_64, start, end, target);
    /* right == lo: every key so far is at most the target; double the
       window until one exceeds it or the array ends. */
    for (int64_t lo = end, step = S->bucket_size; right == lo && lo < n; step *= 2) {
        const int64_t hi = lo + step < n ? lo + step : n;
        right = upper_bound(keys, is_64, lo, hi, target);
        lo = hi;
    }
    out[3] = right - start + 1;
    if (right == start || key_at(keys, is_64, right - 1) != target) return;
    const int64_t left = lower_bound(keys, is_64, start, right, target);
    if (left == start && start > 0 && key_at(keys, is_64, start - 1) == target) return;
    int64_t rsum = 0;
    for (int64_t i = left; i < right; i++) rsum += (int64_t)S->row_ids[i];
    out[0] = rsum;
    out[1] = right - left;
}

/* Prefetch what search_bucket reads first for a key routed to bucket: its
   keys, up to 8 cache lines (a whole bucket of the default 32 keys), and
   its first rowIDs. */
static inline void prefetch_bucket(const SortedBuckets* S, int64_t bucket)
{
    const int64_t start = bucket * S->bucket_size;
    if (bucket < 0 || start >= S->num_entries) return;
    const int64_t width = S->key_is_64 ? 8 : 4;
    const int64_t remaining = S->num_entries - start;
    const int64_t count = S->bucket_size < remaining ? S->bucket_size : remaining;
    const int64_t bytes = count * width < 512 ? count * width : 512;
    const char* first = (const char*)S->keys + start * width;
    for (int64_t offset = 0; offset < bytes; offset += 64) __builtin_prefetch(first + offset);
    __builtin_prefetch(S->row_ids + start);
}

/* Key k's bucket; *kn gets its ray visits. */
static inline int64_t locate_key(const LookupBatch* B, int is_64, int64_t k, int64_t* kn,
                                 RayTotals* c)
{
    *kn = 0;
    return route_key(B->bvh, B->route, key_at(B->keys, is_64, k), kn, c);
}

/* MurmurHash3's 64-bit finalizer. */
static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/* Number of distinct values among keys[0, n) (np.unique(keys).size): an
   open-addressing set with linear probing in scratch.  Its table is the
   smallest power of two >= 2n slots, below 4n, and keys[0] marks an empty
   slot, so keys[0] itself is counted without being stored. */
static int64_t count_distinct(const void* keys, int is_64, int64_t n, uint64_t* scratch)
{
    if (n == 0) return 0;
    int64_t size = 1;
    while (size < 2 * n) size *= 2;
    const uint64_t mask = (uint64_t)size - 1;
    const uint64_t empty = key_at(keys, is_64, 0);
    for (int64_t i = 0; i < size; i++) scratch[i] = empty;
    int64_t distinct = 1;
    for (int64_t i = 1; i < n; i++) {
        const uint64_t key = key_at(keys, is_64, i);
        if (key == empty) continue;
        uint64_t slot = mix64(key) & mask;
        while (scratch[slot] != empty && scratch[slot] != key) slot = (slot + 1) & mask;
        if (scratch[slot] == empty) {
            scratch[slot] = key;
            distinct++;
        }
    }
    return distinct;
}

/* Write a batch's reductions in CompiledLookupBatch.REDUCTIONS order, the
   last one the distinct keys among keys[0, n). */
static void reduce_batch(const LookupBatch* B, int is_64, int64_t n, const RayTotals* c,
                         int64_t deepest, int64_t chain_nodes, int64_t entries,
                         int64_t paced, int64_t sampled)
{
    int64_t* r = B->reductions;
    r[0] = c->rays;
    r[1] = c->nodes;
    r[2] = c->triangle_tests;
    r[3] = c->hits;
    r[4] = deepest;
    r[5] = chain_nodes;
    r[6] = entries;
    r[7] = paced;
    r[8] = sampled;
    r[9] = count_distinct(B->keys, is_64, n, B->scratch);
}

/* A whole point batch (CgRXuIndex / CgRXIndex.point_lookup_batch): per key
   the fused routing, then the chain walk or the bucket search, writing the
   rowID aggregate (-1 without a match), the match count and the entries
   touched or scanned.
   reductions: rays, ray node visits, triangle tests, hits, the deepest
   per-key ray visits, chain nodes, entries, the warp-paced and the plain
   work (ray and chain node visits) of the divergence sample (every
   max(1, n / 4096)-th key, in 32-lane warps; gpu.simt.divergence_factor),
   and the distinct keys. */
void point_lookup(const LookupBatch* B, int64_t num_keys)
{
    const ChainTables* C = B->chain;
    const SortedBuckets* S = B->sorted;
    const int is_64 = C ? C->key_is_64 : S->key_is_64;
    const int64_t sample_every = num_keys / 4096 > 1 ? num_keys / 4096 : 1;
    RayTotals c = {0, 0, 0, 0};
    int64_t deepest = 0, chain_nodes = 0, entries = 0;
    int64_t paced = 0, sampled = 0, warp_max = 0, lanes = 0;
    /* Each key is located one key ahead of its search, so the bucket lines
       prefetched after locating it load while the next key's rays run. */
    int64_t next_kn = 0, next_bucket = 0;
    if (num_keys > 0) {
        next_bucket = locate_key(B, is_64, 0, &next_kn, &c);
        if (S) prefetch_bucket(S, next_bucket);
    }
    for (int64_t k = 0; k < num_keys; k++) {
        const int64_t bucket = next_bucket, kn = next_kn;
        if (k + 1 < num_keys) {
            next_bucket = locate_key(B, is_64, k + 1, &next_kn, &c);
            if (S) prefetch_bucket(S, next_bucket);
        }
        const uint64_t key = key_at(B->keys, is_64, k);
        int64_t walk[4];
        if (C) walk_point(C, key, bucket, walk);
        else search_bucket(S, key, bucket, walk);
        B->row_ids[k] = walk[1] ? walk[0] : -1;
        B->matches[k] = walk[1];
        B->scanned[k] = walk[3];
        if (kn > deepest) deepest = kn;
        chain_nodes += walk[2];
        entries += walk[3];
        if (k % sample_every == 0) {
            const int64_t work = kn + walk[2];
            sampled += work;
            if (work > warp_max) warp_max = work;
            if (++lanes == 32) { paced += 32 * warp_max; warp_max = 0; lanes = 0; }
        }
    }
    paced += lanes * warp_max;
    reduce_batch(B, is_64, num_keys, &c, deepest, chain_nodes, entries, paced, sampled);
}

/* Prefetch what a range walk reads first of chain node `node`: its size and
   the first lines of its keys and rowIDs. */
static inline void prefetch_node(const ChainTables* C, int64_t node)
{
    const int64_t base = node * (int64_t)C->capacity;
    __builtin_prefetch(C->sizes + node);
    __builtin_prefetch((const char*)C->keys + base * (C->key_is_64 ? 8 : 4));
    __builtin_prefetch(C->row_ids + base);
}

/* The forward walk of CgRXuIndex._range_lookup_batch_scalar over the range
   [low, high] from chain position pos: empty nodes skipped,
   max(1, right - left) entries touched per node, rows in walk order (at
   most rows_capacity written in all), stop at the first key above high. */
static inline void walk_range(const LookupBatch* B, int is_64, uint64_t low, uint64_t high,
                              int64_t pos, int64_t* nodes, int64_t* entries, int64_t* written)
{
    const ChainTables* C = B->chain;
    for (; pos < C->order_len; pos++) {
        const int64_t node = C->order[pos];
        (*nodes)++;
        const int32_t size = C->sizes[node];
        if (size == 0) continue;
        const int64_t base = node * (int64_t)C->capacity;
        int64_t left = 0, right = 0;
        for (int32_t i = 0; i < size; i++) {
            const uint64_t value = key_at(C->keys, is_64, base + i);
            left += value < low;
            right += value <= high;
        }
        *entries += right - left > 1 ? right - left : 1;
        for (int64_t i = left; i < right; i++) {
            if (*written < B->rows_capacity) B->rows[*written] = C->row_ids[base + i];
            (*written)++;
        }
        if (right < (int64_t)size) break;
    }
}

/* Ranges a range batch routes ahead of the one it walks: one per dependent
   load a walk starts with (starts, order, the first chain nodes). */
#define RANGE_AHEAD 3

/* A whole cgRXu range batch (CgRXuIndex.range_lookup_batch): per range the
   fused routing of its low, a MISS starting at the overflow bucket, then
   walk_range.  The rows of every range go into one flat buffer,
   offsets[q] to offsets[q + 1] bounding range q's.  Returns the number of
   rows needed.  reductions: as point_lookup's, with no divergence sample
   (0, 0) and the distinct lows.
   The batch is software-pipelined so each of a walk's three dependent
   loads misses while another range's rays run.  Step s routes range s and
   prefetches its starts slot, reads range s - 1's start position and
   prefetches its order slot, reads range s - 2's first chain nodes and
   prefetches them, and walks range s - 3.  Ranges are still routed and
   walked in order, so rows, offsets and reductions are those of routing
   and walking one range at a time; the last RANGE_AHEAD steps drain. */
int64_t range_lookup(const LookupBatch* B, int64_t num_ranges)
{
    const ChainTables* C = B->chain;
    const int is_64 = C->key_is_64;
    RayTotals c = {0, 0, 0, 0};
    int64_t deepest = 0, nodes = 0, entries = 0, written = 0;
    /* ring[q % (RANGE_AHEAD + 1)]: range q's bucket, then its position. */
    int64_t ring[RANGE_AHEAD + 1];
    B->offsets[0] = 0;
    for (int64_t s = 0; s < num_ranges + RANGE_AHEAD; s++) {
        if (s < num_ranges) {
            int64_t kn = 0;
            const int64_t bucket = locate_key(B, is_64, s, &kn, &c);
            if (kn > deepest) deepest = kn;
            int64_t* slot = &ring[s % (RANGE_AHEAD + 1)];
            *slot = bucket < 0 ? C->overflow_bucket : bucket;
            __builtin_prefetch(C->starts + *slot);
        }
        if (s >= 1 && s - 1 < num_ranges) {
            int64_t* slot = &ring[(s - 1) % (RANGE_AHEAD + 1)];
            *slot = C->starts[*slot];
            if (*slot < C->order_len) __builtin_prefetch(C->order + *slot);
        }
        if (s >= 2 && s - 2 < num_ranges) {
            const int64_t pos = ring[(s - 2) % (RANGE_AHEAD + 1)];
            if (pos < C->order_len) prefetch_node(C, C->order[pos]);
        }
        if (s >= RANGE_AHEAD) {
            const int64_t q = s - RANGE_AHEAD;
            walk_range(B, is_64, key_at(B->keys, is_64, q), key_at(B->highs, is_64, q),
                       ring[q % (RANGE_AHEAD + 1)], &nodes, &entries, &written);
            B->offsets[q + 1] = written;
        }
    }
    reduce_batch(B, is_64, num_ranges, &c, deepest, nodes, entries, 0, 0);
    return written;
}

/* searchsorted over a node's occupied (sorted) slots: *left counts the keys
   below target, *right those at most target. */
static inline void node_bounds(const NodeSlabs* S, int64_t node, uint64_t target,
                               int64_t* left, int64_t* right)
{
    const int64_t base = node * (int64_t)S->capacity;
    int64_t l = 0, r = 0;
    for (int32_t i = 0; i < S->sizes[node]; i++) {
        const uint64_t value = key_at(S->keys, S->key_is_64, base + i);
        l += value < target;
        r += value <= target;
    }
    *left = l;
    *right = r;
}

/* Copy `count` key and rowID slots from slot `src` to slot `dst` of the
   slabs (overlapping ranges allowed, like numpy slice assignment). */
static inline void move_slots(const NodeSlabs* S, int64_t dst, int64_t src, int64_t count)
{
    if (count <= 0) return;
    const size_t width = S->key_is_64 ? 8 : 4;
    memmove((char*)S->keys + dst * width, (char*)S->keys + src * width, (size_t)count * width);
    memmove(S->row_ids + dst, S->row_ids + src, (size_t)count * sizeof(uint32_t));
}

/* CgRXuIndex._delete_one: removes the first occurrence of target (the
   NodeStorage.delete_from_node shift; the vacated slot keeps its stale
   value) and returns 1, or 0 on a miss.  Like the point walk, a chain that
   ends without a larger key continues into the next bucket. */
static int delete_one(NodeSlabs* S, int64_t bucket, uint64_t target, int64_t* visited)
{
    for (int64_t current = bucket; current <= S->overflow_bucket; current++) {
        for (int64_t node = current; node != -1; node = S->next_node[node]) {
            (*visited)++;
            const int64_t size = S->sizes[node];
            if (S->max_keys[node] < target && S->next_node[node] != -1) continue;
            int64_t left, right;
            node_bounds(S, node, target, &left, &right);
            if (left < right) {
                const int64_t base = node * (int64_t)S->capacity;
                move_slots(S, base + left, base + left + 1, size - left - 1);
                S->sizes[node] = (int32_t)(size - 1);
                return 1;
            }
            if (right < size) return 0;
        }
    }
    return 0;
}

/* CgRXuIndex._insert_one: the key goes into the first chain node whose
   maxKey covers it (else the last), at its searchsorted-left position.  A
   full node first splits (NodeStorage.split_node: the upper half moves to a
   linked node taken from the end of the free list, else the next unused
   one).  Returns the nodes visited and sets *split, or -1 with nothing
   changed when a split finds the linked region exhausted. */
static int64_t insert_one(NodeSlabs* S, int64_t bucket, uint64_t key, uint32_t row, int* split)
{
    const int64_t capacity = S->capacity;
    int64_t visited = 0, target = bucket;
    for (int64_t node = bucket; node != -1; node = S->next_node[node]) {
        visited++;
        target = node;
        if (S->max_keys[node] >= key) break;
    }
    if (S->sizes[target] >= capacity) {
        int64_t fresh;
        if (S->free_count > 0) {
            fresh = S->free_nodes[--S->free_count];
        } else if (S->num_representative + S->linked_used < S->total_nodes) {
            fresh = S->num_representative + S->linked_used++;
        } else {
            return -1;
        }
        const int64_t size = S->sizes[target], half = size / 2;
        move_slots(S, fresh * capacity, target * capacity + half, size - half);
        S->sizes[fresh] = (int32_t)(size - half);
        S->max_keys[fresh] = S->max_keys[target];
        S->sizes[target] = (int32_t)half;
        S->max_keys[target] = key_at(S->keys, S->key_is_64, target * capacity + half - 1);
        S->next_node[fresh] = S->next_node[target];
        S->next_node[target] = fresh;
        visited++;
        if (key > S->max_keys[target]) target = fresh;
        *split = 1;
    }
    const int64_t base = target * capacity, size = S->sizes[target];
    int64_t position, right;
    node_bounds(S, target, key, &position, &right);
    move_slots(S, base + position + 1, base + position, size - position);
    if (S->key_is_64) ((uint64_t*)S->keys)[base + position] = key;
    else ((uint32_t*)S->keys)[base + position] = (uint32_t)key;
    S->row_ids[base + position] = row;
    S->sizes[target] = (int32_t)(size + 1);
    return visited;
}

/* cgRXu update apply (CgRXuIndex.update_batch's per-bucket loop): per
   touched bucket, its deletes and then its inserts.  slices is
   (num_touched, 5): bucket, then delete and insert [lo, hi) offsets into the
   sorted batches.  Starts at touched position cursor[0]; cursor[1] >= 0
   resumes that bucket at this insert offset, its deletes already done.
   Adds each bucket's nodes visited to work[t], sets split[t] when its chain
   split, and adds inserted, deleted, nodes visited and ops to totals.
   Returns 0 when done, or 1 with cursor at an insert whose split needs a
   linked node the slabs lack: nothing of that insert has run or counted. */
int64_t apply_updates(NodeSlabs* S, int64_t num_touched, const int64_t* slices,
                      const void* delete_keys, const void* insert_keys,
                      const uint32_t* insert_rows, int64_t* cursor, int64_t* work,
                      uint8_t* split, int64_t* totals)
{
    const int64_t start = cursor[0], resume = cursor[1];
    for (int64_t t = start; t < num_touched; t++) {
        const int64_t* slice = slices + 5 * t;
        const int64_t bucket = slice[0];
        int64_t first_insert = slice[3];
        if (t == start && resume >= 0) {
            first_insert = resume;
        } else {
            for (int64_t d = slice[1]; d < slice[2]; d++) {
                int64_t visited = 0;
                totals[1] += delete_one(S, bucket, key_at(delete_keys, S->key_is_64, d), &visited);
                totals[2] += visited;
                totals[3]++;
                work[t] += visited;
            }
        }
        for (int64_t i = first_insert; i < slice[4]; i++) {
            int did_split = 0;
            const int64_t visited = insert_one(
                S, bucket, key_at(insert_keys, S->key_is_64, i), insert_rows[i], &did_split);
            if (visited < 0) {
                cursor[0] = t;
                cursor[1] = i;
                return 1;
            }
            if (did_split) split[t] = 1;
            totals[0]++;
            totals[2] += visited;
            totals[3]++;
            work[t] += visited;
        }
    }
    cursor[0] = num_touched;
    cursor[1] = -1;
    return 0;
}

/* The first call of a cgRXu compaction pass (CgRXuIndex.compact_buckets):
   per bucket, its chain's node count, entry count and last entry's key (0
   for an empty chain). */
void chain_tails(const NodeSlabs* S, int64_t num_buckets, const int64_t* buckets,
                 int64_t* nodes, int64_t* entries, uint64_t* last)
{
    for (int64_t t = 0; t < num_buckets; t++) {
        int64_t count = 0, total = 0;
        uint64_t tail = 0;
        for (int64_t node = buckets[t]; node != -1; node = S->next_node[node]) {
            const int64_t size = S->sizes[node];
            count++;
            total += size;
            if (size > 0) tail = key_at(S->keys, S->key_is_64, node * (int64_t)S->capacity + size - 1);
        }
        nodes[t] = count;
        entries[t] = total;
        last[t] = tail;
    }
}

/* NodeStorage.compact_chain per bucket: the chain's entries[t] entries are
   gathered into scratch_keys / scratch_rows first, then re-packed head-first
   into the fewest nodes, each but the final one full.  Only the first `count`
   slots of a kept node are written (stale slots stay); the final node's
   maxKey is bounds[t], an interior node's its own last key.  Surplus linked
   nodes are zeroed in every slot, unlinked and written to released in bucket,
   then chain order.  Returns the number released, or -1 when a chain holds
   other than nodes[t] nodes and entries[t] entries (chain_tails' counts; that
   bucket is left as it was). */
int64_t compact_chains(NodeSlabs* S, int64_t num_buckets, const int64_t* buckets,
                       const uint64_t* bounds, const int64_t* nodes, const int64_t* entries,
                       void* scratch_keys, uint32_t* scratch_rows, int64_t* released)
{
    const int64_t capacity = S->capacity;
    const int64_t width = S->key_is_64 ? 8 : 4;
    int64_t freed = 0;
    for (int64_t t = 0; t < num_buckets; t++) {
        const int64_t count = entries[t];
        int64_t gathered = 0, walked = 0;
        for (int64_t node = buckets[t]; node != -1; node = S->next_node[node]) {
            const int64_t size = S->sizes[node];
            if (++walked > nodes[t] || gathered + size > count) return -1;
            memcpy((char*)scratch_keys + gathered * width,
                   (char*)S->keys + node * capacity * width, (size_t)(size * width));
            memcpy(scratch_rows + gathered, S->row_ids + node * capacity,
                   (size_t)size * sizeof(uint32_t));
            gathered += size;
        }
        if (walked != nodes[t] || gathered != count) return -1;
        const int64_t kept = count > 0 ? (count + capacity - 1) / capacity : 1;
        int64_t position = 0;
        for (int64_t node = buckets[t]; node != -1; position++) {
            const int64_t following = S->next_node[node];
            if (position < kept) {
                const int64_t low = position * capacity;
                const int64_t high = low + capacity < count ? low + capacity : count;
                memcpy((char*)S->keys + node * capacity * width,
                       (char*)scratch_keys + low * width, (size_t)((high - low) * width));
                memcpy(S->row_ids + node * capacity, scratch_rows + low,
                       (size_t)(high - low) * sizeof(uint32_t));
                S->sizes[node] = (int32_t)(high - low);
                const int final = position == kept - 1;
                S->max_keys[node] = final ? bounds[t] : key_at(scratch_keys, S->key_is_64, high - 1);
                S->next_node[node] = final ? -1 : following;
            } else {
                memset((char*)S->keys + node * capacity * width, 0, (size_t)(capacity * width));
                memset(S->row_ids + node * capacity, 0, (size_t)capacity * sizeof(uint32_t));
                S->sizes[node] = 0;
                S->max_keys[node] = 0;
                S->next_node[node] = -1;
                released[freed++] = node;
            }
            node = following;
        }
    }
    return freed;
}

/* CgRXuIndex._patch_chain_cache: the flattened chain tables (order, starts
   of num_chains chains) after the chains of touched (sorted, distinct bucket
   ids) changed.  Each run of untouched chains is copied with one memcpy and
   its starts shifted; each touched chain is re-walked through next_node.
   Writes at most capacity order entries and returns the number written, or
   -1 when the chains hold more or a run's starts leave the old table. */
int64_t patch_chains(const int64_t* next_node, int64_t num_chains, const int64_t* order,
                     const int64_t* starts, int64_t num_touched, const int64_t* touched,
                     int64_t* new_order, int64_t* new_starts, int64_t capacity)
{
    int64_t written = 0, chain = 0;
    for (int64_t t = 0; t <= num_touched; t++) {
        const int64_t end = t < num_touched ? touched[t] : num_chains;
        const int64_t run = starts[end] - starts[chain], shift = written - starts[chain];
        if (starts[chain] < 0 || run < 0 || starts[end] > starts[num_chains]
            || written + run > capacity) return -1;
        memcpy(new_order + written, order + starts[chain], (size_t)run * sizeof(int64_t));
        for (int64_t c = chain; c < end; c++) new_starts[c] = starts[c] + shift;
        written += run;
        if (end == num_chains) break;
        new_starts[end] = written;
        for (int64_t node = end; node != -1; node = next_node[node]) {
            if (written == capacity) return -1;
            new_order[written++] = node;
        }
        chain = end + 1;
    }
    new_starts[num_chains] = written;
    return written;
}

/* Stable merge sort of idx[0, n) by key[0, n); ties keep their input order
   (numpy's argsort(kind="stable")). */
static void merge_sort(double* key, int64_t* idx, double* tk, int64_t* ti, int64_t n)
{
    if (n <= 16) {
        for (int64_t i = 1; i < n; i++) {
            const double k = key[i];
            const int64_t v = idx[i];
            int64_t j = i;
            while (j > 0 && key[j - 1] > k) { key[j] = key[j - 1]; idx[j] = idx[j - 1]; j--; }
            key[j] = k;
            idx[j] = v;
        }
        return;
    }
    const int64_t h = n / 2;
    merge_sort(key, idx, tk, ti, h);
    merge_sort(key + h, idx + h, tk, ti, n - h);
    if (!(key[h] < key[h - 1])) return;
    memcpy(tk, key, (size_t)h * sizeof(double));
    memcpy(ti, idx, (size_t)h * sizeof(int64_t));
    int64_t i = 0, j = h, k = 0;
    while (i < h && j < n) {
        if (key[j] < tk[i]) { key[k] = key[j]; idx[k++] = idx[j++]; }
        else { key[k] = tk[i]; idx[k++] = ti[i++]; }
    }
    while (i < h) { key[k] = tk[i]; idx[k++] = ti[i++]; }
}

/* build_bvh's "median" split (repro.rtx.bvh).  Node arrays hold 2n - 1
   entries; returns the number of nodes, or -1 when out of memory. */
int64_t build_bvh_median(int64_t n, const float* vertices, const double* centroids,
                         int64_t max_leaf, float* node_min, float* node_max,
                         int64_t* node_left, int64_t* node_right, int64_t* node_first,
                         int64_t* node_count, int64_t* order)
{
    float* tri_min = malloc((size_t)n * 3 * sizeof(float));
    float* tri_max = malloc((size_t)n * 3 * sizeof(float));
    double* keys = malloc((size_t)n * sizeof(double));
    double* tk = malloc((size_t)n * sizeof(double));
    int64_t* ti = malloc((size_t)n * sizeof(int64_t));
    int64_t* stack = malloc((size_t)(n + 1) * 3 * sizeof(int64_t));
    int64_t num_nodes = -1, sp = 0;
    if (!tri_min || !tri_max || !keys || !tk || !ti || !stack) goto done;

    for (int64_t t = 0; t < n; t++) {
        const float* v = vertices + 9 * t;
        for (int d = 0; d < 3; d++) {
            float lo = v[d], hi = v[d];
            for (int k = 1; k < 3; k++) {
                if (v[3 * k + d] < lo) lo = v[3 * k + d];
                if (v[3 * k + d] > hi) hi = v[3 * k + d];
            }
            tri_min[3 * t + d] = lo;
            tri_max[3 * t + d] = hi;
        }
        order[t] = t;
    }

    num_nodes = 1;
    node_left[0] = node_right[0] = -1;
    node_first[0] = node_count[0] = 0;
    stack[0] = 0; stack[1] = 0; stack[2] = n;
    sp = 1;
    while (sp > 0) {
        sp--;
        const int64_t node = stack[3 * sp], start = stack[3 * sp + 1], end = stack[3 * sp + 2];
        const int64_t count = end - start;
        float* mn = node_min + 3 * node;
        float* mx = node_max + 3 * node;
        double cmin[3], cmax[3];
        for (int d = 0; d < 3; d++) {
            const int64_t t = order[start];
            mn[d] = tri_min[3 * t + d];
            mx[d] = tri_max[3 * t + d];
            cmin[d] = cmax[d] = centroids[3 * t + d];
        }
        for (int64_t s = start + 1; s < end; s++) {
            const int64_t t = order[s];
            for (int d = 0; d < 3; d++) {
                if (tri_min[3 * t + d] < mn[d]) mn[d] = tri_min[3 * t + d];
                if (tri_max[3 * t + d] > mx[d]) mx[d] = tri_max[3 * t + d];
                const double c = centroids[3 * t + d];
                if (c < cmin[d]) cmin[d] = c;
                if (c > cmax[d]) cmax[d] = c;
            }
        }
        node_first[node] = 0;
        node_count[node] = 0;
        if (count <= max_leaf) {
            node_first[node] = start;
            node_count[node] = count;
            continue;
        }
        const double extent[3] = {cmax[0] - cmin[0], cmax[1] - cmin[1], cmax[2] - cmin[2]};
        int axis = 0;
        if (extent[1] > extent[axis]) axis = 1;
        if (extent[2] > extent[axis]) axis = 2;
        if (extent[axis] <= 0.0) {
            /* All centroids coincide: make a leaf. */
            node_first[node] = start;
            node_count[node] = count;
            continue;
        }
        for (int64_t s = 0; s < count; s++) keys[s] = centroids[3 * order[start + s] + axis];
        merge_sort(keys, order + start, tk, ti, count);
        const int64_t mid = start + count / 2;
        const int64_t left = num_nodes++, right = num_nodes++;
        node_left[node] = left;
        node_right[node] = right;
        node_left[left] = node_right[left] = node_left[right] = node_right[right] = -1;
        stack[3 * sp] = left; stack[3 * sp + 1] = start; stack[3 * sp + 2] = mid;
        sp++;
        stack[3 * sp] = right; stack[3 * sp + 1] = mid; stack[3 * sp + 2] = end;
        sp++;
    }
done:
    free(tri_min); free(tri_max); free(keys); free(tk); free(ti); free(stack);
    return num_nodes;
}
"""


class BvhTablesStruct(ctypes.Structure):
    """Mirror of the C ``BvhTables`` struct."""

    _fields_ = [
        ("nodes", ctypes.c_void_p),
        ("slot_centroids", ctypes.c_void_p),
        ("order", ctypes.c_void_p),
        ("centroids", ctypes.c_void_p),
        ("primitive_indices", ctypes.c_void_p),
        ("flipped", ctypes.c_void_p),
        ("tolerance", ctypes.c_double),
    ]


class RouteParams(ctypes.Structure):
    """Mirror of the C ``RouteParams`` struct: the constants of one
    representation's point routing (see :func:`locate_keys_batch`)."""

    _fields_ = [
        ("min_rep", ctypes.c_uint64),
        ("max_rep", ctypes.c_uint64),
        ("lane_x", ctypes.c_int64),
        ("lane_y", ctypes.c_int64),
        ("row_marker_offset", ctypes.c_int64),
        ("plane_marker_offset", ctypes.c_int64),
        ("y_scale", ctypes.c_double),
        ("z_scale", ctypes.c_double),
        ("x_bits", ctypes.c_int32),
        ("y_bits", ctypes.c_int32),
        ("z_bits", ctypes.c_int32),
        ("multi_line", ctypes.c_int32),
        ("multi_plane", ctypes.c_int32),
    ]


class ChainTablesStruct(ctypes.Structure):
    """Mirror of the C ``ChainTables`` struct."""

    _fields_ = [
        ("order", ctypes.c_void_p),
        ("starts", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("row_ids", ctypes.c_void_p),
        ("sizes", ctypes.c_void_p),
        ("max_keys", ctypes.c_void_p),
        ("next_node", ctypes.c_void_p),
        ("order_len", ctypes.c_int64),
        ("overflow_bucket", ctypes.c_int64),
        ("capacity", ctypes.c_int32),
        ("key_is_64", ctypes.c_int32),
    ]


class SortedBucketsStruct(ctypes.Structure):
    """Mirror of the C ``SortedBuckets`` struct."""

    _fields_ = [
        ("keys", ctypes.c_void_p),
        ("row_ids", ctypes.c_void_p),
        ("num_entries", ctypes.c_int64),
        ("bucket_size", ctypes.c_int64),
        ("key_is_64", ctypes.c_int32),
    ]


class LookupBatchStruct(ctypes.Structure):
    """Mirror of the C ``LookupBatch`` struct."""

    _fields_ = [
        ("bvh", ctypes.c_void_p),
        ("route", ctypes.c_void_p),
        ("chain", ctypes.c_void_p),
        ("sorted", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("highs", ctypes.c_void_p),
        ("row_ids", ctypes.c_void_p),
        ("matches", ctypes.c_void_p),
        ("scanned", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("scratch", ctypes.c_void_p),
        ("reductions", ctypes.c_void_p),
        ("rows_capacity", ctypes.c_int64),
    ]


class NodeSlabsStruct(ctypes.Structure):
    """Mirror of the C ``NodeSlabs`` struct."""

    _fields_ = [
        ("keys", ctypes.c_void_p),
        ("row_ids", ctypes.c_void_p),
        ("sizes", ctypes.c_void_p),
        ("max_keys", ctypes.c_void_p),
        ("next_node", ctypes.c_void_p),
        ("free_nodes", ctypes.c_void_p),
        ("free_count", ctypes.c_int64),
        ("linked_used", ctypes.c_int64),
        ("total_nodes", ctypes.c_int64),
        ("num_representative", ctypes.c_int64),
        ("overflow_bucket", ctypes.c_int64),
        ("capacity", ctypes.c_int32),
        ("key_is_64", ctypes.c_int32),
    ]


def _bind(lib: ctypes.CDLL) -> None:
    """Declare the kernels' signatures (pointers travel as ``c_void_p``)."""
    p, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
    signatures = {
        "trace_axis_all": ([p, i32, i64, p, p, p, i64, p, p, p, p], i64),
        "locate_keys": ([p, p, i64, p, p, p], None),
        "point_lookup": ([p, i64], None),
        "range_lookup": ([p, i64], i64),
        "apply_updates": ([p, i64, p, p, p, p, p, p, p, p], i64),
        "chain_tails": ([p, i64, p, p, p, p], None),
        "compact_chains": ([p, i64, p, p, p, p, p, p, p], i64),
        "patch_chains": ([p, i64, p, p, i64, p, p, p, i64], i64),
        "build_bvh_median": ([i64, p, p, i64, p, p, p, p, p, p, p], i64),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype


def address(array: np.ndarray) -> int:
    """Data address of a C-contiguous array (the kernels index it raw)."""
    if not array.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous")
    return array.ctypes.data


def check_shapes(*pairs) -> None:
    """Raise unless every ``(array, shape)`` pair matches: the kernels trust
    the lengths they are given."""
    for array, shape in pairs:
        if array.shape != shape:
            raise ValueError(f"kernel array of shape {array.shape}, expected {shape}")


# --------------------------------------------------------------------------
# Building and caching the library
# --------------------------------------------------------------------------


def _cc_cache_dir() -> str:
    configured = os.environ.get("REPRO_CC_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-cgrx-cc-{os.getuid() if hasattr(os, 'getuid') else 0}"
    )


def _compiler() -> Optional[str]:
    """Absolute path of the C compiler (``$CC`` first); symlinks are kept,
    so two paths to one compiler count as two compilers."""
    configured = os.environ.get("CC")
    for name in [configured] if configured else ["cc", "gcc", "clang"]:
        found = shutil.which(name)
        if found:
            return os.path.abspath(found)
    return None


def _cc_library_path(compiler: str) -> str:
    """Cache path of the library, keyed on the source, the compiler's path
    and ``--version`` output, and the flags."""
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        version = b""
    digest = hashlib.sha256()
    for part in (_CC_SOURCE.encode(), compiler.encode(), version, " ".join(_CC_FLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return os.path.join(_cc_cache_dir(), f"kernels-{digest.hexdigest()[:16]}.so")


def _compile(compiler: str, library_path: str) -> bool:
    """Compile the kernels into ``library_path``.

    Source and library are written under per-process temporary names and
    moved into place with ``os.replace``, so concurrent builders never read
    a half-written file.
    """
    directory = os.path.dirname(library_path)
    stem = library_path[: -len(".so")]
    scratch = []
    try:
        os.makedirs(directory, exist_ok=True)
        handle, source_tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(stem) + ".", suffix=".c"
        )
        scratch.append(source_tmp)
        with os.fdopen(handle, "w") as source:
            source.write(_CC_SOURCE)
        library_tmp = source_tmp[: -len(".c")] + ".so"
        scratch.append(library_tmp)
        subprocess.run(
            [compiler, *_CC_FLAGS, "-o", library_tmp, source_tmp, "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(source_tmp, stem + ".c")
        os.replace(library_tmp, library_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for path in scratch:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def _load_cc_library(compiler: str) -> Optional[ctypes.CDLL]:
    """Load the cached kernel library, compiling it when missing.

    A cached library that fails to load (e.g. truncated by a crashed
    builder) is deleted and rebuilt once before giving up.
    """
    library_path = _cc_library_path(compiler)
    for attempt in range(2):
        if not os.path.exists(library_path) and not _compile(compiler, library_path):
            return None
        try:
            return ctypes.CDLL(library_path)
        except OSError:
            if attempt == 0:
                try:
                    os.remove(library_path)
                except OSError:
                    return None
    return None


# --------------------------------------------------------------------------
# Shard-local arena
# --------------------------------------------------------------------------


class Arena:
    """One reusable byte buffer holding a shard's compiled-tier tables.

    ``begin(total)`` opens a packing epoch: the cursor resets and the backing
    buffer grows geometrically only when the new tables need more room, so
    steady-state rebuilds (refits, compactions) write in place with zero
    allocation.  ``alloc`` carves typed views at 64-byte-aligned addresses
    out of the buffer; views from the previous epoch are invalidated by
    design (the tables they belong to are rebuilt in the same pass).
    """

    ALIGNMENT = 64

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.uint8)
        self._cursor = 0
        #: Number of packing epochs (diagnostics; in-place rebuilds keep the
        #: buffer identity while this climbs).
        self.rebuilds = 0

    @classmethod
    def aligned(cls, nbytes: int) -> int:
        """``nbytes`` rounded up to the arena alignment."""
        return (int(nbytes) + cls.ALIGNMENT - 1) // cls.ALIGNMENT * cls.ALIGNMENT

    @property
    def capacity_bytes(self) -> int:
        """Bytes reserved by the backing buffer."""
        return int(self._buffer.nbytes)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by the current epoch's tables."""
        return int(self._cursor)

    def begin(self, total_bytes: int) -> None:
        """Open a packing epoch with room for ``total_bytes`` of tables."""
        total_bytes = int(total_bytes)
        if total_bytes > self._buffer.nbytes:
            new_capacity = max(total_bytes, 2 * int(self._buffer.nbytes))
            # numpy aligns a buffer to 16 bytes: start at the first address
            # that is a multiple of the arena alignment.
            raw = np.empty(new_capacity + self.ALIGNMENT, dtype=np.uint8)
            skip = -raw.ctypes.data % self.ALIGNMENT
            self._buffer = raw[skip : skip + new_capacity]
        self._cursor = 0
        self.rebuilds += 1

    def alloc(self, shape, dtype) -> np.ndarray:
        """Carve an aligned, contiguous ``(shape, dtype)`` view off the buffer."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        start = self.aligned(self._cursor)
        end = start + nbytes
        if end > self._buffer.nbytes:
            raise ValueError(
                f"arena overflow: need {end} bytes, capacity {self._buffer.nbytes} "
                "(begin() was opened with too small a total)"
            )
        view = self._buffer[start:end].view(dtype).reshape(shape)
        self._cursor = end
        return view


# --------------------------------------------------------------------------
# Node records
# --------------------------------------------------------------------------


class CompiledBvhTables:
    """Arena-packed BVH tables consumed by the compiled kernels.

    One 32-byte :attr:`NODE` record per node: the exact ``float32`` bounds,
    then ``child`` and ``meta``.  For a leaf they are its first slot and its
    triangle count.  For an interior node ``child`` is the record of its
    first child, the second child is the next record, and ``meta`` is
    ``-1 - bits``, bit ``a`` set when the first child's ``min[a]`` is at most
    the second's: a ray along ``a`` reads its push order instead of
    comparing the children's bounds.  The root is record 0 and record 1 is
    empty; then, level by level, each interior node's children take the next
    two records, so every pair starts at an even record and shares one
    64-byte line of the arena.  Per leaf slot, the scene triangle
    (``order``) and a ``float64`` copy of its centroid (``slot_centroids``,
    the exact double centre the scalar oracle compares).  The scene's
    centroids, primitive indices and flip flags are aliased, not copied.
    All pointers are bound into one :class:`BvhTablesStruct` here, once per
    packing epoch.
    """

    #: The C ``Node`` record.
    NODE = np.dtype([("lo", "<f4", 3), ("hi", "<f4", 3), ("child", "<i4"), ("meta", "<i4")])

    def __init__(
        self, bvh, arena: Arena, tolerance: float = TraversalEngine.AXIS_HIT_TOLERANCE
    ) -> None:
        self.arena = arena
        self.stack_depth = (bvh.depth() + 3) if bvh.num_nodes else 0
        self.usable = 0 < bvh.num_nodes and self.stack_depth <= MAX_STACK
        if not self.usable:
            return

        num_nodes = bvh.num_nodes
        num_slots = int(bvh.primitive_order.shape[0])
        align = Arena.aligned
        arena.begin(
            align((num_nodes + 1) * self.NODE.itemsize)
            + align(num_slots * 3 * 8)
            + align(num_slots * 4)
        )
        self.nodes = arena.alloc(num_nodes + 1, self.NODE)
        _pack_nodes(bvh, self.nodes)

        scene = bvh.scene
        self.centroids = np.ascontiguousarray(scene.centres, dtype=np.float64)
        self.primitive_indices = np.ascontiguousarray(scene.primitive_indices, dtype=np.int64)
        self.flipped = np.ascontiguousarray(scene.flipped, dtype=bool)
        self.slot_centroids = arena.alloc((num_slots, 3), np.float64)
        np.take(self.centroids, bvh.primitive_order, axis=0, out=self.slot_centroids)
        self.order = arena.alloc(num_slots, np.int32)
        np.copyto(self.order, bvh.primitive_order)

        self.struct = BvhTablesStruct(
            *(
                address(array)
                for array in (
                    self.nodes,
                    self.slot_centroids,
                    self.order,
                    self.centroids,
                    self.primitive_indices,
                    self.flipped,
                )
            ),
            float(tolerance),
        )
        #: Address of :attr:`struct`, passed to every kernel call.
        self.ref = ctypes.addressof(self.struct)


def _pack_nodes(bvh, nodes: np.ndarray) -> None:
    """Write ``bvh``'s nodes into ``nodes`` (``num_nodes + 1``
    :attr:`CompiledBvhTables.NODE` records) in the layout that class
    describes, whatever the builder's node numbering."""
    num_nodes = bvh.num_nodes
    record = np.empty(num_nodes, dtype=np.int64)
    record[0] = 0
    level = np.zeros(1, dtype=np.int64)
    used = 2
    while level.size:
        inner = level[bvh.node_count[level] == 0]
        level = np.stack([bvh.node_left[inner], bvh.node_right[inner]], axis=1).ravel()
        record[level] = np.arange(used, used + level.size)
        used += level.size
    if used != num_nodes + 1:
        raise ValueError("a BVH node is not reachable from the root")

    inner = bvh.node_count == 0
    left, right = bvh.node_left[inner], bvh.node_right[inner]
    bits = (bvh.node_min[left] <= bvh.node_min[right]) @ np.array([1, 2, 4])
    child = bvh.node_first.copy()
    child[inner] = record[left]
    meta = bvh.node_count.copy()
    meta[inner] = -1 - bits
    nodes[1] = 0
    nodes["lo"][record] = bvh.node_min
    nodes["hi"][record] = bvh.node_max
    nodes["child"][record] = child
    nodes["meta"][record] = meta


# --------------------------------------------------------------------------
# Kernel entries
# --------------------------------------------------------------------------


@dataclass
class AxisAllBatch:
    """All-hits results of a batch of axis-aligned rays (flattened, ragged).

    Hits are grouped by ray and sorted by distance within each ray — the same
    order the scalar ``trace_axis_all`` returns, including the stable
    tie-break on traversal order.
    """

    #: Ray id of every hit (grouped, ascending).
    ray: np.ndarray
    #: Hit distances aligned with ``ray``.
    t: np.ndarray
    #: Primitive indices aligned with ``ray``.
    primitive_index: np.ndarray
    #: Front-face flags aligned with ``ray``.
    front_face: np.ndarray
    #: Hit points aligned with ``ray`` (float32 triangle centres).
    point: np.ndarray
    #: Number of hits per ray.
    hit_counts: np.ndarray
    #: Per-ray BVH nodes visited.
    nodes_visited: np.ndarray

    @classmethod
    def empty(cls, num_rays: int) -> "AxisAllBatch":
        """``num_rays`` misses that visited no node."""
        return cls(
            ray=np.empty(0, dtype=np.int64),
            t=np.empty(0, dtype=np.float64),
            primitive_index=np.empty(0, dtype=np.int64),
            front_face=np.empty(0, dtype=bool),
            point=np.zeros((0, 3), dtype=np.float32),
            hit_counts=np.zeros(num_rays, dtype=np.int64),
            nodes_visited=np.zeros(num_rays, dtype=np.int64),
        )


def trace_axis_all_batch(
    tables: CompiledBvhTables,
    axis: int,
    origins: np.ndarray,
    tmax: np.ndarray,
    stats,
) -> AxisAllBatch:
    """All hits of a +``axis`` ray batch: the megakernel in collect mode.

    Requires the kernel library and usable ``tables``.  The C call appends
    hits ray by ray in traversal order into arrays sized for one hit per ray
    (the shape of RX point lookups); a batch that finds more is rerun once
    into exactly sized arrays, and only the final call's totals reach
    ``stats``.  A stable sort by ``(ray, t)`` then gives the scalar
    ``trace_axis_all`` order per ray.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    num_rays = int(origins.shape[0])
    tmax = np.ascontiguousarray(tmax, dtype=np.float64)
    check_shapes((origins, (num_rays, 3)), (tmax, (num_rays,)))
    nodes_visited = np.empty(num_rays, dtype=np.int64)
    totals = np.empty(4, dtype=np.int64)
    size = max(num_rays, 1)
    for _ in range(2):
        ray_ids = np.empty(size, dtype=np.int64)
        ts = np.empty(size, dtype=np.float64)
        triangles = np.empty(size, dtype=np.int64)
        found = _LIBRARY.trace_axis_all(
            tables.ref, axis, num_rays, address(origins), address(tmax),
            address(nodes_visited), size, address(ray_ids), address(ts),
            address(triangles), address(totals),
        )
        if found <= size:
            break
        size = found
    stats.add_totals(*totals.tolist())
    _observe_traversal("compiled_axis_all", nodes_visited, totals)

    # Stable sort by (ray, t): equal-t hits keep traversal order, the same
    # tie-break Python's stable list sort gives the scalar path.
    order = np.lexsort((ts[:found], ray_ids[:found]))
    ray_ids, ts, triangles = ray_ids[order], ts[order], triangles[order]
    return AxisAllBatch(
        ray=ray_ids,
        t=ts,
        primitive_index=tables.primitive_indices[triangles],
        front_face=~tables.flipped[triangles],
        point=tables.centroids[triangles].astype(np.float32),
        hit_counts=np.bincount(ray_ids, minlength=num_rays).astype(np.int64),
        nodes_visited=nodes_visited,
    )


def _observe_traversal(kernel: str, nodes_visited: np.ndarray, totals: np.ndarray) -> None:
    """Feed the profiler's traversal series (kept under the historical
    ``rtx_wavefront_*`` metric names): one "iteration" is the deepest
    per-ray visit count, the lockstep step count of the batch."""
    prof = _profile.profiler()
    if prof is not None:
        num_rays = int(nodes_visited.shape[0])
        iterations = int(nodes_visited.max()) if num_rays else 0
        prof.observe_wavefront(kernel, iterations, num_rays, int(totals[1]))


def locate_keys_batch(
    tables: CompiledBvhTables, params: RouteParams, keys: np.ndarray, stats
) -> Tuple[np.ndarray, np.ndarray]:
    """A scene representation's whole point-routing ray sequence in one C
    call.

    Requires the kernel library and usable ``tables``.  Returns
    ``(bucket_ids, nodes_visited)`` exactly as
    ``SceneRepresentation.locate_bucket_batch`` does; ``stats`` accumulates
    the exact ray totals.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    num_keys = int(keys.shape[0])
    check_shapes((keys, (num_keys,)))
    out = np.empty((2, num_keys), dtype=np.int64)
    totals = np.empty(4, dtype=np.int64)
    _LIBRARY.locate_keys(
        tables.ref, ctypes.addressof(params), num_keys, address(keys), address(out),
        address(totals),
    )
    stats.add_totals(*totals.tolist())
    _observe_traversal("compiled_locate", out[1], totals)
    return out[0], out[1]


def build_bvh_median(
    vertices: np.ndarray, centroids: np.ndarray, max_leaf_size: int
) -> Optional[Tuple[np.ndarray, ...]]:
    """``build_bvh``'s median-split arrays from the C builder.

    Returns ``(node_min, node_max, node_left, node_right, node_first,
    node_count, primitive_order)`` equal to the Python builder's, or
    ``None`` when the kernels are unavailable.
    """
    lib = library()
    num_triangles = int(vertices.shape[0])
    if lib is None or num_triangles == 0:
        return None
    vertices = np.ascontiguousarray(vertices, dtype=np.float32)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    check_shapes((vertices, (num_triangles, 3, 3)), (centroids, (num_triangles, 3)))
    capacity = 2 * num_triangles - 1
    node_min = np.empty((capacity, 3), dtype=np.float32)
    node_max = np.empty((capacity, 3), dtype=np.float32)
    topology = np.empty((4, capacity), dtype=np.int64)
    order = np.empty(num_triangles, dtype=np.int64)
    num_nodes = lib.build_bvh_median(
        num_triangles,
        address(vertices),
        address(centroids),
        int(max_leaf_size),
        address(node_min),
        address(node_max),
        *(address(row) for row in topology),
        address(order),
    )
    if num_nodes < 0:
        raise MemoryError("the C BVH builder ran out of memory")
    return (
        node_min[:num_nodes].copy(),
        node_max[:num_nodes].copy(),
        *(row[:num_nodes].copy() for row in topology),
        order,
    )
