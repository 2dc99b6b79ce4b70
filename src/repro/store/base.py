"""The record-store contract: collection-style persistence for sweep records.

A :class:`RecordStore` is where a sweep's :class:`~repro.sweep.records
.RunRecord`s (and quarantined :class:`~repro.sweep.records.FailedRun`s) live
while — and after — the sweep executes.  The runner appends outcomes as they
complete, flushes at checkpoint boundaries, and seals the store when the
sweep finishes; readers iterate records back out or materialize a
:class:`~repro.sweep.records.SweepResult` for aggregation.

Two backends implement the contract:

* :class:`~repro.store.memory.MemoryRecordStore` — plain lists, no
  durability; the unit-test and dry-run backend;
* :class:`~repro.store.sharded.ShardedRecordStore` — the durable backend:
  an append-only directory of checksummed JSONL shards with
  record-incremental flush cost.

Durability contract (all backends): a record passed to :meth:`append` is
*acknowledged* once :meth:`flush` returns — after that it must survive a
``kill -9`` (for the backends that persist at all).  Appends between flushes
may be lost by a crash; the sweep layer re-runs them deterministically.

The factory :func:`open_store` maps a persistence target to its backend:
``":memory:"`` → memory, anything else (a directory) → sharded.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Iterator, Optional, Set, Union

from ..sweep.records import FailedRun, RunRecord, SweepResult
from ..sweep.spec import SweepSpec

__all__ = ["RecordStore", "StoreError", "open_store"]


class StoreError(RuntimeError):
    """A record-store invariant broke (sealed-store append, bad layout, ...)."""


class RecordStore(abc.ABC):
    """Append-oriented home of one sweep's run records (see module doc).

    ``spec`` (when known) rides along so :meth:`to_result` can rebuild a
    fully aggregatable :class:`~repro.sweep.records.SweepResult` — bootstrap
    CIs are seeded from the spec's ``master_seed``.
    """

    #: short backend tag surfaced in stats/health payloads.
    kind: str = "abstract"

    spec: Optional[SweepSpec] = None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def append(self, record: RunRecord) -> None:
        """Add one completed record (acknowledged at the next flush)."""

    @abc.abstractmethod
    def append_failed(self, failed: FailedRun) -> None:
        """Add one quarantined run (same durability contract as records)."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Make every append so far durable (fsync / no-op)."""

    @abc.abstractmethod
    def seal(self) -> None:
        """Mark the sweep complete; a sealed store rejects further appends."""

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def iter_records(self) -> Iterator[RunRecord]:
        """All live records, deduplicated, in ``(point_index, seed_index)``
        order.  A record supersedes any failed entry with the same run id."""

    @abc.abstractmethod
    def iter_failed(self) -> Iterator[FailedRun]:
        """Quarantined runs that no later record superseded."""

    @abc.abstractmethod
    def run_ids(self) -> Set[str]:
        """Run ids with a live *record* (failed-only ids excluded — their
        runs are still owed)."""

    @abc.abstractmethod
    def stats(self) -> Dict:
        """Counters for health/monitoring: at least ``kind``, ``records``,
        ``failed``, ``sealed``; durable backends add error/repair counters."""

    @property
    def sealed(self) -> bool:
        return False

    def close(self) -> None:
        """Release file handles; the store can be reopened later."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def to_result(self, spec: Optional[SweepSpec] = None) -> SweepResult:
        """Materialize the store as a :class:`SweepResult` (for aggregation)."""
        return SweepResult(spec=spec if spec is not None else self.spec,
                           records=list(self.iter_records()),
                           failed_runs=list(self.iter_failed()))


def open_store(target: Union[str, "RecordStore"],
               spec: Optional[SweepSpec] = None) -> "RecordStore":
    """Resolve a persistence target to a :class:`RecordStore` backend.

    * an existing :class:`RecordStore` passes through unchanged;
    * ``":memory:"`` → :class:`~repro.store.memory.MemoryRecordStore`;
    * anything else names a directory →
      :class:`~repro.store.sharded.ShardedRecordStore` (created if missing).
    """
    if isinstance(target, RecordStore):
        return target
    from .memory import MemoryRecordStore
    from .sharded import ShardedRecordStore
    path = os.fspath(target)
    if path == ":memory:":
        return MemoryRecordStore(spec=spec)
    return ShardedRecordStore(path, spec=spec)
