"""Client keys in the indexes' unsigned keyspace.

Stored keys are unsigned, so a negative (signed-dtype) client key sorts
*below* every stored key.  A plain cast would wrap it to the top of the
keyspace instead and, at 32 bits, alias a stored key.  Every lookup
boundary — each bare index (cgRX, cgRXu and every baseline) and the sharded
router — applies one rule: a negative point key is a miss, a negative range low
clamps to 0 and a range whose high end is negative matches nothing.  A
negative point key costs nothing: a bare index answers the batch without
it (:func:`drop_negative_points`, :func:`scatter_answers`), and the
router sends it to no shard (:func:`unsigned_points`).  Unsigned inputs
are told apart by their dtype kind alone and pass through without a scan
of their values.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def routing_keys(keys: np.ndarray) -> np.ndarray:
    """Map client keys into the deployment's unsigned routing keyspace.

    The stored keyspace is unsigned, so a negative (signed-dtype) client key
    sorts *below* every stored key.  A plain ``astype(np.uint64)`` would wrap
    it to the top of the keyspace instead and route it to the wrong shard
    relative to the index's order; clamping to zero keeps the routing order
    consistent (the request lands on the lowest shard, where it misses).
    Unsigned inputs pass through bit-identically.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind == "i":
        return np.maximum(keys, 0).astype(np.uint64)
    return keys.astype(np.uint64)


def negative_key_mask(keys: np.ndarray) -> "np.ndarray | None":
    """Mask of out-of-domain (negative) keys; ``None`` for unsigned input."""
    keys = np.asarray(keys)
    if keys.dtype.kind == "i":
        mask = keys < 0
        return mask if bool(mask.any()) else None
    return None


def unsigned_points(keys, key_dtype) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Point keys in ``key_dtype``, each negative key replaced by 0, and
    the mask of the negative ones (``None`` when there are none): the
    router routes the whole batch and sends the masked keys to no shard."""
    keys = np.asarray(keys)
    negative = negative_key_mask(keys) if keys.dtype.kind == "i" else None
    if negative is not None:
        keys = np.where(negative, 0, keys)
    return np.asarray(keys, dtype=key_dtype), negative


def drop_negative_points(keys, key_dtype) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Point keys in ``key_dtype`` with every negative key left out, and
    the mask of the negative ones over the whole batch (``None`` when there
    are none).  A bare index looks up the kept keys alone and hands its
    result to :func:`scatter_answers`."""
    keys = np.asarray(keys)
    negative = negative_key_mask(keys)
    if negative is not None:
        keys = keys[~negative]
    return np.asarray(keys, dtype=key_dtype), negative


def scatter_answers(result, negative: Optional[np.ndarray]):
    """Spread the point ``result`` of the keys :func:`drop_negative_points`
    kept over the whole batch, a miss in each place ``negative`` masks.
    Returns ``result`` with its answer arrays replaced; its record is the
    kept keys' alone."""
    if negative is not None:
        kept = ~negative
        row_ids = np.full(negative.shape[0], -1, dtype=result.row_ids.dtype)
        match_counts = np.zeros(negative.shape[0], dtype=result.match_counts.dtype)
        row_ids[kept] = result.row_ids
        match_counts[kept] = result.match_counts
        result.row_ids, result.match_counts = row_ids, match_counts
    return result


def unsigned_ranges(lows, highs, key_dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Range bounds in ``key_dtype``: a negative low clamps to 0, and a
    range whose high end is negative becomes the empty range ``[1, 0]``."""
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    if lows.shape != highs.shape:
        raise ValueError("lows and highs must have the same shape")
    if lows.dtype.kind == "i":
        lows = np.maximum(lows, 0)
    empty = negative_key_mask(highs)
    if empty is not None:
        lows = np.where(empty, 1, lows)
        highs = np.maximum(highs, 0)
    return lows.astype(key_dtype, copy=False), highs.astype(key_dtype, copy=False)
