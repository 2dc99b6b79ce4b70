"""Durable record stores for sweep results.

The persistence layer under :mod:`repro.sweep`: a sweep's run records live
in a :class:`RecordStore` — in memory, in the legacy single-JSON checkpoint
blob, or (the durable default) in an append-only directory of checksummed
JSONL shards that survives ``kill -9``, torn writes, flipped bytes and lost
manifests.  :func:`open_store` maps a target (``":memory:"``, ``*.json``
path, directory) to its backend; ``python -m repro.store.audit`` is the
integrity doctor.
"""

from .base import RecordStore, StoreError, open_store
from .legacy import LegacyJSONRecordStore
from .memory import MemoryRecordStore
from .sharded import (ShardedRecordStore, StoreReader, StoreScanReport,
                      scan_store)
from .audit import audit_store

__all__ = [
    "RecordStore",
    "StoreError",
    "open_store",
    "MemoryRecordStore",
    "LegacyJSONRecordStore",
    "ShardedRecordStore",
    "StoreReader",
    "StoreScanReport",
    "scan_store",
    "audit_store",
]
