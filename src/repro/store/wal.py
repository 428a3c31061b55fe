"""Per-shard write-ahead log over an object-store backend.

One immutable object per acknowledged write batch, named by its
zero-padded LSN so a plain listing is replay order.  Each record carries a
magic, a format version, the key dtype, the LSN, the batch arrays and a
CRC32 over everything before it — a partial write (a crash mid-put) fails
the checksum and is detected rather than replayed.

Tail handling on read is the crash-recovery contract:

* a corrupt record at the *end* of the log is a **torn tail** — the write
  it belonged to was never acknowledged (the append happens before the
  ack), so the record is truncated (deleted) and recovery proceeds;
* a corrupt record *before* valid ones is real damage — it is skipped and
  counted (``corrupt_skipped``) so the operator sees it, instead of
  aborting recovery of everything behind it.

Checkpoint truncation (:meth:`ShardWal.truncate_through`) deletes records
at or below the checkpoint LSN only, so appends racing a checkpoint are
never lost.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.store.backend import StorageBackend

_MAGIC = b"WALR"
_VERSION = 1
#: magic, version, key-dtype code (bytes per key), lsn, n_insert, n_delete
_HEADER = struct.Struct("<4sHHQII")
_CRC = struct.Struct("<I")


class WalCorruption(ValueError):
    """A WAL or checkpoint record failed structural or checksum validation."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded write batch."""

    lsn: int
    insert_keys: np.ndarray
    insert_row_ids: np.ndarray
    delete_keys: np.ndarray


@dataclass
class WalReadResult:
    """Outcome of reading a shard's log, tail damage accounted."""

    records: List[WalRecord]
    #: Corrupt records found before valid ones (skipped, never fatal).
    corrupt_skipped: int = 0
    #: Corrupt records at the end of the log (deleted as torn writes).
    torn_truncated: int = 0

    @property
    def max_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0


def encode_record(
    lsn: int,
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
    delete_keys: np.ndarray,
) -> bytes:
    """Serialize one write batch into a checksummed WAL record."""
    insert_keys = np.ascontiguousarray(insert_keys)
    delete_keys = np.ascontiguousarray(delete_keys, dtype=insert_keys.dtype)
    insert_row_ids = np.ascontiguousarray(insert_row_ids, dtype=np.uint32)
    key_bytes = insert_keys.dtype.itemsize
    if key_bytes not in (4, 8):
        raise ValueError(f"unsupported key dtype {insert_keys.dtype}")
    if insert_row_ids.shape[0] != insert_keys.shape[0]:
        raise ValueError("insert_row_ids must align with insert_keys")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        key_bytes,
        int(lsn),
        int(insert_keys.shape[0]),
        int(delete_keys.shape[0]),
    )
    payload = (
        header
        + insert_keys.tobytes()
        + insert_row_ids.tobytes()
        + delete_keys.tobytes()
    )
    return payload + _CRC.pack(zlib.crc32(payload))


def decode_record(data: bytes) -> WalRecord:
    """Parse and verify one WAL record; raises :class:`WalCorruption`."""
    if len(data) < _HEADER.size + _CRC.size:
        raise WalCorruption("record shorter than its framing")
    magic, version, key_bytes, lsn, n_insert, n_delete = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _VERSION or key_bytes not in (4, 8):
        raise WalCorruption("bad record header")
    body_size = _HEADER.size + n_insert * (key_bytes + 4) + n_delete * key_bytes
    if len(data) != body_size + _CRC.size:
        raise WalCorruption("record length does not match its header")
    (crc,) = _CRC.unpack_from(data, body_size)
    if zlib.crc32(data[:body_size]) != crc:
        raise WalCorruption("record checksum mismatch")
    key_dtype = np.uint32 if key_bytes == 4 else np.uint64
    offset = _HEADER.size
    insert_keys = np.frombuffer(data, dtype=key_dtype, count=n_insert, offset=offset).copy()
    offset += n_insert * key_bytes
    insert_row_ids = np.frombuffer(data, dtype=np.uint32, count=n_insert, offset=offset).copy()
    offset += n_insert * 4
    delete_keys = np.frombuffer(data, dtype=key_dtype, count=n_delete, offset=offset).copy()
    return WalRecord(
        lsn=int(lsn),
        insert_keys=insert_keys,
        insert_row_ids=insert_row_ids,
        delete_keys=delete_keys,
    )


class ShardWal:
    """One shard's write-ahead log: LSN-named record objects under a prefix."""

    def __init__(self, backend: StorageBackend, prefix: str) -> None:
        self.backend = backend
        self.prefix = prefix.rstrip("/")

    def _name(self, lsn: int) -> str:
        return f"{self.prefix}/{int(lsn):020d}.rec"

    @staticmethod
    def _lsn_of(name: str) -> int:
        return int(name.rsplit("/", 1)[-1].split(".", 1)[0])

    def _record_names(self) -> List[str]:
        return [
            name
            for name in self.backend.list(f"{self.prefix}/")
            if name.endswith(".rec")
        ]

    def append(
        self,
        lsn: int,
        insert_keys: np.ndarray,
        insert_row_ids: np.ndarray,
        delete_keys: np.ndarray,
    ) -> int:
        """Durably append one write batch; returns bytes written."""
        return self.backend.put(
            self._name(lsn), encode_record(lsn, insert_keys, insert_row_ids, delete_keys)
        )

    def record_count(self) -> int:
        return len(self._record_names())

    def max_lsn(self) -> int:
        names = self._record_names()
        return self._lsn_of(names[-1]) if names else 0

    def read(self, truncate_torn: bool = True) -> WalReadResult:
        """Replay the log in LSN order, classifying and handling damage.

        Corrupt records with valid records after them are skipped and
        counted; the maximal corrupt *suffix* is torn-write debris and is
        deleted (when ``truncate_torn``) so the next recovery is clean.
        """
        names = self._record_names()
        decoded: List[Tuple[str, Optional[WalRecord]]] = []
        for name in names:
            try:
                decoded.append((name, decode_record(self.backend.get(name))))
            except WalCorruption:
                decoded.append((name, None))
        last_valid = max(
            (position for position, (_, record) in enumerate(decoded) if record is not None),
            default=-1,
        )
        result = WalReadResult(records=[])
        for position, (name, record) in enumerate(decoded):
            if record is not None:
                result.records.append(record)
            elif position < last_valid:
                result.corrupt_skipped += 1
            else:
                result.torn_truncated += 1
                if truncate_torn:
                    self.backend.delete(name)
        return result

    def truncate_through(self, lsn: int) -> int:
        """Drop records at or below ``lsn`` (checkpointed); returns the count.

        Records with a higher LSN — including appends that raced the
        checkpoint — are untouched.
        """
        removed = 0
        for name in self._record_names():
            if self._lsn_of(name) <= int(lsn):
                removed += int(self.backend.delete(name))
        return removed
