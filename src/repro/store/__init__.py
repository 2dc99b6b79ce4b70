"""Durable record stores for sweep results.

The persistence layer under :mod:`repro.sweep`, and its only one: a sweep's
run records live in a :class:`ShardedRecordStore` — an append-only directory
of checksummed JSONL shards that survives ``kill -9``, torn writes, flipped
bytes and lost shards.  An open store serves its reads from its own winner
fold; :func:`read_store` is the one read-only pass over a store this
process does not hold open.  ``python -m repro.store.audit`` is the
integrity doctor.  :mod:`repro.store.lines` is the durable line log under
the shards, which the service's job journal shares.
"""

from .sharded import (ShardedRecordStore, StoreError, StoreScanReport,
                      read_store, scan_store)
from .audit import audit_store

__all__ = [
    "StoreError",
    "ShardedRecordStore",
    "StoreScanReport",
    "read_store",
    "scan_store",
    "audit_store",
]
