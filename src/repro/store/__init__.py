"""Durable record stores for sweep results.

The persistence layer under :mod:`repro.sweep`, and its only one: a sweep's
run records live in a :class:`ShardedRecordStore` — an append-only directory
of checksummed JSONL shards that survives ``kill -9``, torn writes, flipped
bytes and lost shards.  ``python -m repro.store.audit`` is the integrity
doctor.  :mod:`repro.store.lines` is the durable line log under the shards,
which the service's job journal shares.
"""

from .sharded import (ShardedRecordStore, StoreError, StoreReader,
                      StoreScanReport, scan_store)
from .audit import audit_store

__all__ = [
    "StoreError",
    "ShardedRecordStore",
    "StoreReader",
    "StoreScanReport",
    "scan_store",
    "audit_store",
]
