"""Durable record stores for sweep results.

The persistence layer under :mod:`repro.sweep`, and its only one: a sweep's
run records live in a :class:`RecordStore` — in memory, or (the durable
backend) in an append-only directory of checksummed JSONL shards that
survives ``kill -9``, torn writes, flipped bytes and lost shards.
:func:`open_store` maps a target (``":memory:"`` or a directory) to its
backend; ``python -m repro.store.audit`` is the integrity doctor.
"""

from .base import RecordStore, StoreError, open_store
from .memory import MemoryRecordStore
from .sharded import (ShardedRecordStore, StoreReader, StoreScanReport,
                      scan_store)
from .audit import audit_store

__all__ = [
    "RecordStore",
    "StoreError",
    "open_store",
    "MemoryRecordStore",
    "ShardedRecordStore",
    "StoreReader",
    "StoreScanReport",
    "scan_store",
    "audit_store",
]
