"""Durable append-only job journal: the sweep service's write-ahead log.

Every job state transition is journaled *before* the in-memory state (or any
derived work) changes — the WAL discipline.  A daemon killed at any instant
therefore restarts into one of exactly two worlds: the transition is in the
journal (replay applies it) or it is not (the work re-runs; run records are
deterministic, so re-running is harmless).  Either way no answer is lost and
no state is invented.

The journal is a durable line log (:mod:`repro.store.lines`): its line
format, damage rule (torn tail truncated, anything else quarantined to
``<path>.corrupt``) and ``ENOSPC`` backlog are described once in
``docs/architecture.md`` ("Durable line logs").  One line per event::

    {"seq": 12, "ts": 1754550000.123, "event": "running",
     "job_id": "j000003", "data": {...}, "sha256": "<hex>"}

What the journal adds to the line log is its policy:

* ``seq`` is assigned at append and increases strictly by 1; an append
  returns its event even when a full disk deferred the line.  Each append
  is fsync'd before :meth:`JobJournal.append` returns.
* Replay keeps the ordered prefix before the first damaged line or ``seq``
  gap: every event after a broken one is untrustworthy, because ordering
  can no longer be proven.
* :meth:`JobJournal.compact` rewrites the journal as one ``snapshot`` line
  per live job, keeping the ``seq`` counter so replay ordering stays
  monotonic across compactions.

Dying with a non-empty ``ENOSPC`` backlog loses a *suffix* of transitions,
which replay already treats as "the work re-runs" — the contract a kill -9
between append and apply has always had.  Any other ``OSError`` raises
:class:`JournalError`.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..store.lines import Backlog, LineFile, LineScan, atomic_write, render

__all__ = ["JournalEvent", "JobJournal", "JournalError"]

logger = logging.getLogger("repro.service")


class JournalError(RuntimeError):
    """A journal invariant broke (bad seq ordering, unwritable file, ...)."""


@dataclass(frozen=True)
class JournalEvent:
    """One journaled state transition."""

    seq: int
    ts: float
    event: str
    job_id: Optional[str]
    data: Dict = field(default_factory=dict)

    def to_json_dict(self) -> Dict:
        return {"seq": self.seq, "ts": self.ts, "event": self.event,
                "job_id": self.job_id, "data": self.data}

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "JournalEvent":
        return cls(seq=int(payload["seq"]), ts=float(payload["ts"]),
                   event=str(payload["event"]), job_id=payload.get("job_id"),
                   data=payload.get("data") or {})


@dataclass
class JournalStats:
    """Counters of one journal instance's lifetime (for the health endpoint)."""

    appended: int = 0
    replayed: int = 0
    torn_tail_dropped: int = 0
    corrupt_lines: int = 0
    compactions: int = 0
    fsyncs: int = 0
    disk_full_errors: int = 0


class JobJournal:
    """Append-only, fsync'd, per-line-checksummed JSONL event log.

    Thread-safe: the service's scheduler thread and its HTTP handler threads
    append concurrently under one lock, so ``seq`` stays strictly monotonic
    and lines never interleave.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.stats = JournalStats()
        self._lock = threading.Lock()
        self._seq = 0
        self._file = LineFile(path, "journal_torn")
        #: (line, event, job_id) appends a full disk deferred.
        self._backlog = Backlog(self._write, f"journal {path}")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(self) -> List[JournalEvent]:
        """Read every event the journal keeps, repairing the file first
        (see module doc); the next :meth:`append` continues after them."""
        with self._lock:
            self._file.close()
            events: List[JournalEvent] = []
            if os.path.exists(self.path):
                scan = LineScan(self.path, _in_order(), ordered=True)
                scan.repair("journal")
                if scan.damage and scan.torn_tail:
                    self.stats.torn_tail_dropped += 1
                elif scan.damage:
                    self.stats.corrupt_lines += 1
                events = scan.entries
            self._seq = events[-1].seq if events else 0
            self.stats.replayed = len(events)
            return events

    # ------------------------------------------------------------------ #
    # append
    # ------------------------------------------------------------------ #
    def append(self, event: str, job_id: Optional[str] = None,
               **data) -> JournalEvent:
        """Append one event — durably, or deferred when the disk is full.

        Returns once the line is on disk, *or* — on ``ENOSPC`` — once it is
        queued in the in-memory backlog behind every earlier deferred line.
        Callers can observe the degraded mode via :meth:`disk_degraded`.
        """
        with self._lock:
            self._seq += 1
            entry = JournalEvent(seq=self._seq, ts=time.time(), event=event,
                                 job_id=job_id, data=data)
            self._drain((render(entry.to_json_dict()), event, job_id))
            self.stats.appended += 1
            return entry

    def _write(self, deferred: Tuple[bytes, str, Optional[str]]) -> None:
        line, event, job_id = deferred
        self._file.write(line, f"journal:{event}", f"{event}:{job_id or ''}",
                         sync=True)
        self.stats.fsyncs += 1

    def _drain(self, *deferred: Tuple[bytes, str, Optional[str]]) -> None:
        """Write ``deferred`` behind the ENOSPC backlog, counting a refusal."""
        try:
            if not self._backlog.drain(*deferred):
                self.stats.disk_full_errors += 1
        except OSError as error:
            raise JournalError(
                f"journal {self.path!r} append failed: {error}") from error

    def flush_pending(self) -> int:
        """Retry the ENOSPC backlog now; returns the lines still deferred."""
        with self._lock:
            self._drain()
            return len(self._backlog)

    def disk_degraded(self) -> bool:
        """True while deferred appends are waiting for disk space."""
        return bool(self._backlog)

    def pending_lines(self) -> int:
        return len(self._backlog)

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def compact(self, snapshots: Iterable[Dict]) -> int:
        """Atomically rewrite the journal as ``snapshot`` events.

        ``snapshots`` are the caller's per-job state dicts (the registry
        passes one per live job).  The ``seq`` counter continues — snapshot
        lines take the next values — so any observer ordering by ``seq``
        stays consistent across compactions.  Returns the new line count.
        """
        with self._lock:
            lines = []
            for data in snapshots:
                self._seq += 1
                lines.append(render(JournalEvent(
                    seq=self._seq, ts=time.time(), event="snapshot",
                    job_id=data.get("job_id"), data=data).to_json_dict()))
            self._file.close()
            atomic_write(self.path, b"".join(lines))
            # The snapshots describe state *after* every buffered transition
            # applied, so an ENOSPC backlog is superseded by the rewrite.
            self._backlog.clear()
            self.stats.compactions += 1
            logger.info("journal %s: compacted to %d snapshot line(s)",
                        self.path, len(lines))
            return len(lines)

    def close(self) -> None:
        with self._lock:
            try:
                self._drain()
            except JournalError:              # pragma: no cover - best effort
                pass
            self._file.close()


def _in_order():
    """A replay decoder that refuses an event whose ``seq`` does not follow
    the previous one's: a gap means lines were lost."""
    last: Optional[int] = None

    def decode(payload: Dict) -> JournalEvent:
        nonlocal last
        event = JournalEvent.from_json_dict(payload)
        if last is not None and event.seq != last + 1:
            raise ValueError(f"seq jumped {last} -> {event.seq}")
        last = event.seq
        return event
    return decode
