"""Configuration objects for cgRX and cgRXu.

Section V of the paper analyses the impact of every knob below; the defaults
follow the paper's recommendations (optimized representation, scaled key
mapping, bucket size 32, binary search on a row-layout bucket, 128-byte nodes
initially filled to 50% for cgRXu).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Representation(str, Enum):
    """Which 3D scene representation cgRX builds (Section III)."""

    #: Explicit row/plane marker triangles at x = -1 / y = -1.
    NAIVE = "naive"
    #: Moved and auxiliary representatives serve as implicit markers.
    OPTIMIZED = "optimized"


class SearchStrategy(str, Enum):
    """How a bucket is searched after the raytracing stage located it."""

    LINEAR = "linear"
    BINARY = "binary"


class BucketLayout(str, Enum):
    """Physical layout of the key-rowID pairs inside a bucket."""

    #: Keys and rowIDs interleaved per entry (``k0 r0 k1 r1 ...``).
    ROW = "row"
    #: All keys first, then all rowIDs (two parallel arrays).
    COLUMN = "column"


#: Valid batch execution engines.  ``"compiled"`` (the default) answers each
#: hot index path — point routing, cgRXu chain and range walks, closest-hit
#: and all-hits axis-ray traversal — with one call into runtime-compiled C
#: kernels over quantized cache-blocked node tables; ``"scalar"`` keeps the
#: original one-key/one-ray-at-a-time reference paths.  Both produce
#: byte-identical results and identical instrumentation counters; without a
#: C compiler, ``"compiled"`` degrades to ``"scalar"`` with a
#: ``RuntimeWarning`` and a recorded telemetry gauge.
ENGINES = ("scalar", "compiled")


def validate_engine(engine: str) -> str:
    """Validate an engine name (shared by configs, indexes and the router)."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def resolve_engine(engine: str, pipeline=None) -> str:
    """Map a configured engine to the one that will actually execute.

    ``"compiled"`` requires the C kernel library and, when ``pipeline`` is
    given, compiled tables usable for its tree; otherwise the call degrades
    to ``"scalar"`` — same results, same counters — and
    :func:`repro.rtx.compiled.record_fallback` makes the degradation loud:
    one ``RuntimeWarning`` per reason and process, plus a
    ``compiled_engine_fallback`` telemetry gauge when profiling.
    """
    if engine != "compiled":
        return engine
    from repro.rtx import compiled

    if compiled.available_backend() is None:
        compiled.record_fallback(compiled.unavailable_reason())
        return "scalar"
    if pipeline is not None and not pipeline.compiled_ready():
        return "scalar"
    return "compiled"


@dataclass
class CgRXConfig:
    """Configuration of the static cgRX index."""

    #: Number of key-rowID pairs per bucket.  32 optimises throughput per
    #: memory footprint; 256 is the paper's space-efficient alternative.
    bucket_size: int = 32
    #: Scene representation (Section III-A naive vs Section III-B optimized).
    representation: Representation = Representation.OPTIMIZED
    #: Width of the indexed keys in bits (32 or 64).
    key_bits: int = 64
    #: Apply the Section V-A y/z scaling to the key mapping.
    scaled_mapping: bool = True
    #: Search strategy within a bucket.
    search_strategy: SearchStrategy = SearchStrategy.BINARY
    #: Physical bucket layout.
    bucket_layout: BucketLayout = BucketLayout.ROW
    #: Maximum number of triangles per BVH leaf.
    bvh_leaf_size: int = 4
    #: Batch execution engine: ``"compiled"`` (the default: C kernels,
    #: falling back to ``"scalar"`` without a C compiler) or ``"scalar"``
    #: (the reference).
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if self.bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        if self.key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        if self.bvh_leaf_size < 1:
            raise ValueError("bvh_leaf_size must be >= 1")
        if isinstance(self.representation, str):
            self.representation = Representation(self.representation)
        if isinstance(self.search_strategy, str):
            self.search_strategy = SearchStrategy(self.search_strategy)
        if isinstance(self.bucket_layout, str):
            self.bucket_layout = BucketLayout(self.bucket_layout)
        validate_engine(self.engine)

    @property
    def key_bytes(self) -> int:
        """Bytes per key."""
        return self.key_bits // 8

    def describe(self) -> str:
        """Short label such as ``cgRX (32)`` used in benchmark tables."""
        return f"cgRX ({self.bucket_size})"


@dataclass
class CgRXuConfig:
    """Configuration of the node-based updatable cgRXu index (Section IV).

    Compaction escalates a BVH refit to a rebuild at the fixed
    :data:`repro.core.updatable.REFIT_ESCALATION_RATIO`.
    """

    #: Bytes per node.  The paper evaluates nodes matching a 128-byte cache
    #: line ("1 cl") and half a cache line ("0.5 cl").
    node_bytes: int = 128
    #: Fraction of a node filled at bulk-load time (buckets of size N/2).
    initial_fill: float = 0.5
    #: Width of the indexed keys in bits (32 or 64).
    key_bits: int = 64
    #: Apply the Section V-A y/z scaling to the key mapping.
    scaled_mapping: bool = True
    #: Scene representation used for the bucket representatives.
    representation: Representation = Representation.OPTIMIZED
    #: Maximum number of triangles per BVH leaf.
    bvh_leaf_size: int = 4
    #: Batch execution engine: ``"compiled"`` (the default: C kernels,
    #: falling back to ``"scalar"`` without a C compiler) or ``"scalar"``
    #: (the reference).
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if self.node_bytes < 32:
            raise ValueError("node_bytes must be >= 32")
        if not 0.0 < self.initial_fill <= 1.0:
            raise ValueError("initial_fill must be in (0, 1]")
        if self.key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        if isinstance(self.representation, str):
            self.representation = Representation(self.representation)
        validate_engine(self.engine)

    @property
    def key_bytes(self) -> int:
        """Bytes per key."""
        return self.key_bits // 8

    @property
    def rowid_bytes(self) -> int:
        """Bytes per rowID."""
        return 4

    #: Bytes of per-node metadata: maxKey (8), next pointer (4), size (4).
    NODE_HEADER_BYTES = 16

    @property
    def node_capacity(self) -> int:
        """Number of key-rowID entries a node can hold."""
        payload = self.node_bytes - self.NODE_HEADER_BYTES
        per_entry = self.key_bytes + self.rowid_bytes
        capacity = payload // per_entry
        if capacity < 2:
            raise ValueError(
                f"node_bytes={self.node_bytes} too small for keys of {self.key_bits} bits"
            )
        return capacity

    @property
    def initial_bucket_size(self) -> int:
        """Entries per bucket at bulk-load time (``node_capacity * initial_fill``)."""
        return max(1, int(self.node_capacity * self.initial_fill))

    def describe(self) -> str:
        """Short label such as ``cgRXu (1 cl)`` used in benchmark tables."""
        cache_lines = self.node_bytes / 128.0
        if cache_lines == int(cache_lines):
            cache_lines = int(cache_lines)
        return f"cgRXu ({cache_lines} cl)"
