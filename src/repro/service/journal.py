"""Durable append-only job journal: the sweep service's write-ahead log.

Every job state transition is journaled *before* the in-memory state (or any
derived work) changes — the WAL discipline.  A daemon killed at any instant
therefore restarts into one of exactly two worlds: the transition is in the
journal (replay applies it) or it is not (the work re-runs; run records are
deterministic, so re-running is harmless).  Either way no answer is lost and
no state is invented.

File format
-----------
One JSON object per line::

    {"seq": 12, "ts": 1754550000.123, "event": "running",
     "job_id": "j000003", "data": {...}, "sha256": "<hex>"}

``sha256`` is the digest of the line's canonical JSON (sorted keys, compact
separators) with the ``sha256`` field removed — the same convention as the
record-store shards — so any bit damage to a line is detectable.  ``seq`` increases
strictly by 1; a gap means lines were lost.

Durability: each append is written, flushed, and ``fsync``'d before
:meth:`JobJournal.append` returns.  The torn-write chaos fault
(:func:`repro.sweep.faults.journal_fault`) fires between the flush and the
fsync — the window a real crash tears.

Torn-tail tolerance
-------------------
A crash mid-append leaves a truncated (or digest-broken) *final* line.
:meth:`JobJournal.replay` drops it with a warning and remembers the last good
byte offset; opening the journal for append truncates back to that offset so
the next append starts on a clean line boundary.  Damage *before* the tail is
different — an append-only file does not tear mid-file, so that is disk
corruption: replay stops at the first bad line, quarantines the original file
to ``<path>.corrupt`` for post-mortem, and continues with what was recovered
(every line after a broken one is untrustworthy because ordering can no
longer be proven).

Compaction
----------
The journal grows by one line per transition forever; :meth:`compact`
rewrites it as one ``snapshot`` line per live job (atomic temp-file +
``fsync`` + ``os.replace``, like every other durable write in this repo),
preserving the ``seq`` counter so replay ordering stays monotonic across
compactions.

Disk exhaustion
---------------
``ENOSPC`` is an operations event, not a programming error, so it must not
crash the daemon: an append that hits it truncates any partial line back to
the last durable boundary and buffers the rendered line in memory instead
(:attr:`JournalStats.disk_full_errors` counts the hits,
:meth:`disk_degraded` reports the mode).  Every later append first retries
the backlog in FIFO order — ``seq`` stays monotonic on disk — so durability
resumes automatically the moment space returns.  The window's risk is
bounded and crash-shaped: dying with a non-empty backlog loses a *suffix*
of transitions, which replay already treats as "the work re-runs" — exactly
the contract a kill -9 between append and apply has always had.  Any other
``OSError`` still raises :class:`JournalError`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..sweep import faults

__all__ = ["JournalEvent", "JobJournal", "JournalError"]

logger = logging.getLogger("repro.service")


class JournalError(RuntimeError):
    """A journal invariant broke (bad seq ordering, unwritable file, ...)."""


def _line_digest(payload: Dict) -> str:
    canonical = json.dumps(
        {key: value for key, value in payload.items() if key != "sha256"},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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
        self._handle = None
        #: rendered-but-not-yet-durable lines deferred by ENOSPC (FIFO).
        self._pending: Deque[Tuple[bytes, str, Optional[str]]] = deque()
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(self) -> List[JournalEvent]:
        """Read every intact event, tolerating a torn tail (see module doc).

        Also positions the append cursor: the next :meth:`append` continues
        from the last good line (physically truncating a torn tail first).
        """
        with self._lock:
            return self._replay_locked()

    def _replay_locked(self) -> List[JournalEvent]:
        events: List[JournalEvent] = []
        good_offset = 0
        damage: Optional[str] = None
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                offset = 0
                for raw in handle:
                    line_end = offset + len(raw)
                    event, problem = self._parse_line(raw)
                    if event is None:
                        damage = problem
                        break
                    if event.seq != self._last_seq(events) + 1 \
                            and events:
                        damage = (f"seq jumped {self._last_seq(events)} -> "
                                  f"{event.seq}")
                        break
                    events.append(event)
                    good_offset = line_end
                    offset = line_end
        rewritten = False
        if damage is not None:
            rewritten = self._handle_damage(damage, good_offset, events)
        self._seq = self._last_seq(events)
        self.stats.replayed = len(events)
        # A quarantine-rewrite already produced a clean file; otherwise
        # truncate any torn tail back to the last good line boundary.
        self._reopen(None if rewritten else good_offset)
        return events

    @staticmethod
    def _last_seq(events: List[JournalEvent]) -> int:
        return events[-1].seq if events else 0

    def _parse_line(self, raw: bytes):
        """(event, None) for an intact line, (None, reason) otherwise."""
        try:
            text = raw.decode()
            if not text.endswith("\n"):
                return None, "torn tail (no newline)"
            payload = json.loads(text)
            if payload.get("sha256") != _line_digest(payload):
                return None, "line digest mismatch"
            return JournalEvent.from_json_dict(payload), None
        except (ValueError, KeyError, UnicodeDecodeError) as error:
            return None, f"unparseable line ({error})"

    def _handle_damage(self, damage: str, good_offset: int,
                       events: List[JournalEvent]) -> bool:
        """Classify damage: a torn tail is expected, anything deeper is not.

        Returns True when the journal file was quarantined and rewritten
        (mid-file corruption), False for a plain torn tail.
        """
        size = os.path.getsize(self.path)
        trailing = size - good_offset
        # A torn tail is (at most) one damaged line at EOF.  Count the
        # newline-terminated lines beyond the last good offset: more than one
        # line's worth of data means intact-looking lines follow the damage —
        # that is mid-file corruption, not a crash artifact.
        with open(self.path, "rb") as handle:
            handle.seek(good_offset)
            remainder = handle.read()
        tail_lines = remainder.count(b"\n")
        if tail_lines <= 1:
            self.stats.torn_tail_dropped += 1
            logger.warning(
                "journal %s: dropping torn tail (%d byte(s), %s); recovered "
                "%d event(s)", self.path, trailing, damage, len(events))
            return False
        self.stats.corrupt_lines += 1
        corrupt_path = f"{self.path}.corrupt"
        warnings.warn(
            f"journal {self.path!r} is corrupt beyond its tail ({damage}, "
            f"{tail_lines} line(s) after the damage); quarantining the "
            f"original to {corrupt_path!r} and continuing with the "
            f"{len(events)} recovered event(s)", RuntimeWarning, stacklevel=4)
        logger.error(
            "journal %s: mid-file corruption (%s); original quarantined to "
            "%s, %d event(s) recovered", self.path, damage, corrupt_path,
            len(events))
        os.replace(self.path, corrupt_path)
        # Rewrite only the recovered prefix so the journal is intact again.
        self._rewrite(events)
        return True

    def _reopen(self, good_offset: Optional[int]) -> None:
        """(Re)open for append, truncating a torn tail when one was found."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if os.path.exists(self.path) and good_offset is not None \
                and os.path.getsize(self.path) > good_offset:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_offset)
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------ #
    # append
    # ------------------------------------------------------------------ #
    def append(self, event: str, job_id: Optional[str] = None,
               **data) -> JournalEvent:
        """Append one event — durably, or buffered when the disk is full.

        Returns once the line is on disk, *or* — on ``ENOSPC`` — once it is
        queued in the in-memory backlog behind every earlier deferred line
        (see the module doc's *Disk exhaustion* section).  Callers can
        observe the degraded mode via :meth:`disk_degraded`.
        """
        with self._lock:
            self._seq += 1
            entry = JournalEvent(seq=self._seq, ts=time.time(), event=event,
                                 job_id=job_id, data=data)
            line = self._render(entry)
            self._drain_pending_locked()
            if self._pending:
                # Still blocked: keep FIFO order, queue behind the backlog.
                self._pending.append((line, event, job_id))
            else:
                try:
                    self._write_line_locked(line, event, job_id)
                except OSError as error:
                    if error.errno != errno.ENOSPC:
                        raise JournalError(
                            f"journal {self.path!r} append failed: "
                            f"{error}") from error
                    self.stats.disk_full_errors += 1
                    self._pending.append((line, event, job_id))
                    logger.warning(
                        "journal %s: disk full on append of %r; buffering "
                        "(%d line(s) pending)", self.path, event,
                        len(self._pending))
            self.stats.appended += 1
            return entry

    def _write_line_locked(self, line: bytes, event: str,
                           job_id: Optional[str]) -> None:
        """One durable line write; on failure no partial line stays on disk."""
        faults.disk_full_fault(self.path, f"journal:{event}")
        start = self.size_bytes()
        handle = self._append_handle()
        try:
            handle.write(line)
            handle.flush()
            # Chaos site: a crash between write and fsync is exactly a
            # torn write.  The fault tears the line and kills the process.
            faults.journal_fault(self.path, len(line),
                                 f"{event}:{job_id or ''}")
            os.fsync(handle.fileno())
            self.stats.fsyncs += 1
        except OSError:
            self._truncate_back(start)
            raise

    def _truncate_back(self, offset: int) -> None:
        """Drop a possibly-partial write so retries start on a clean boundary.

        Truncation *releases* space, so it succeeds on a full disk; a failure
        here is swallowed because replay's torn-tail handling covers exactly
        this shape of damage anyway.
        """
        try:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if os.path.exists(self.path) \
                    and os.path.getsize(self.path) > offset:
                with open(self.path, "r+b") as handle:
                    handle.truncate(offset)
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:                       # pragma: no cover - best effort
            pass

    def _drain_pending_locked(self) -> None:
        while self._pending:
            line, event, job_id = self._pending[0]
            try:
                self._write_line_locked(line, event, job_id)
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise JournalError(
                        f"journal {self.path!r} backlog flush failed: "
                        f"{error}") from error
                self.stats.disk_full_errors += 1
                return
            self._pending.popleft()

    def flush_pending(self) -> int:
        """Retry the ENOSPC backlog now; returns the lines still deferred."""
        with self._lock:
            self._drain_pending_locked()
            return len(self._pending)

    def disk_degraded(self) -> bool:
        """True while deferred appends are waiting for disk space."""
        return bool(self._pending)

    def pending_lines(self) -> int:
        return len(self._pending)

    @staticmethod
    def _render(entry: JournalEvent) -> bytes:
        payload = entry.to_json_dict()
        payload["sha256"] = _line_digest(payload)
        return (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()

    def _append_handle(self):
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "ab")
        return self._handle

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
            events = []
            for data in snapshots:
                self._seq += 1
                events.append(JournalEvent(
                    seq=self._seq, ts=time.time(), event="snapshot",
                    job_id=data.get("job_id"), data=data))
            self._rewrite(events)
            # The snapshots describe state *after* every buffered transition
            # applied, so an ENOSPC backlog is superseded by the rewrite.
            self._pending.clear()
            self.stats.compactions += 1
            logger.info("journal %s: compacted to %d snapshot line(s)",
                        self.path, len(events))
            return len(events)

    def _rewrite(self, events: List[JournalEvent]) -> None:
        """Atomic whole-file rewrite (tmp + fsync + replace + dir fsync)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "wb") as handle:
            for entry in events:
                handle.write(self._render(entry))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:                       # non-POSIX / odd filesystem
            dir_fd = None
        if dir_fd is not None:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def close(self) -> None:
        with self._lock:
            try:
                self._drain_pending_locked()
            except JournalError:              # pragma: no cover - best effort
                pass
            if self._handle is not None:
                self._handle.close()
                self._handle = None
