"""One durable line log: digested JSONL, its damage rule and its writer.

A record store's shards (:mod:`repro.store.sharded`) and the sweep service's
job journal (:mod:`repro.service.journal`) are files of one format with one
crash handling, implemented here once.  Each log keeps only its own policy
on top; ``docs/architecture.md`` ("Durable line logs") describes the
mechanism with both policies next to it.

Format: one JSON object per line, stored in its payload's key order and
sealed by ``sha256`` — the digest of the line's canonical JSON (sorted keys,
compact separators) without the digest field — so any bit damage shows.  A
line stored with sorted keys verifies the same.

Damage rule (:class:`LineScan`): a file is read line by line, and its log
keeps either every intact line or only the ordered prefix before the first
damaged one.  When only the last line is lost, that is a torn tail — what a
crash mid-append leaves — and :meth:`LineScan.repair` truncates it back.
Any other damage is disk corruption: the file is quarantined to
``<path>.corrupt`` and the kept lines are rewritten atomically.

Appending (:class:`LineFile`): one line per write, flushed to the OS; a
failed write truncates its partial line back, and the torn-write fault site
sits between the write and the fsync.  A write a full disk refused
(``ENOSPC``) waits in a FIFO :class:`Backlog` that every later append and
flush retries, so durability resumes by itself when space returns.

Rewrite (:func:`atomic_write`): tmp + fsync + ``os.replace`` + directory
fsync, the one whole-file write (compaction and quarantine).
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import warnings
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from ..sweep import faults

__all__ = ["Backlog", "LineFile", "LineScan", "atomic_write", "fsync_dir",
           "parse", "render"]

logger = logging.getLogger("repro.store")


def _digest(payload: Dict) -> str:
    canonical = json.dumps(
        {key: value for key, value in payload.items() if key != "sha256"},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def render(payload: Dict) -> bytes:
    """One line: ``payload`` in its own key order, then its digest."""
    return (json.dumps({**payload, "sha256": _digest(payload)},
                       separators=(",", ":")) + "\n").encode()


def parse(raw: bytes, decode: Callable[[Dict], Any]) -> Tuple[Any, str]:
    """``(decode(payload), "")`` for an intact line, ``(None, reason)`` for
    a damaged one.  ``decode`` maps a verified payload to its log's entry;
    a ``KeyError``, ``TypeError`` or ``ValueError`` it raises marks the line
    damaged too."""
    try:
        text = raw.decode()
        if not text.endswith("\n"):
            return None, "torn tail (no newline)"
        payload = json.loads(text)
        if not isinstance(payload, dict) \
                or payload.get("sha256") != _digest(payload):
            return None, "line digest mismatch"
        return decode(payload), ""
    except (KeyError, TypeError, ValueError) as error:
        return None, f"unparseable line ({error})"


def _truncate(path: str, size: int) -> None:
    """Cut ``path`` back to ``size`` bytes, durably (truncation releases
    space, so it works on a full disk)."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


def fsync_dir(directory: str) -> None:
    """fsync a directory, so a new or replaced entry in it is durable."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:                           # non-POSIX / odd filesystem
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write(path: str, data: bytes) -> None:
    """tmp + fsync + ``os.replace`` + directory fsync."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


class LineScan:
    """One read of a line file, and the damage rule over what its log keeps.

    ``ordered`` is the log's policy: an ordered log (the journal) keeps the
    prefix before its first damaged line, because nothing after it can be
    proven in order; an unordered one (a record shard) keeps every intact
    line.  Reading writes nothing; :meth:`repair` applies the rule.
    """

    def __init__(self, path: str, decode: Callable[[Dict], Any],
                 ordered: bool = False) -> None:
        self.path = path
        #: the kept lines' entries, in file order.
        self.entries: List[Any] = []
        #: lines read, a final line without its newline included.
        self.lines = 0
        #: the first damaged line's reason; "" when the file is clean.
        self.damage = ""
        self._spans: List[Tuple[int, int]] = []    # the kept lines' bytes
        self._size = 0
        with open(path, "rb") as handle:
            for raw in handle:
                start, self._size = self._size, self._size + len(raw)
                self.lines += 1
                if ordered and self.damage:
                    continue
                entry, problem = parse(raw, decode)
                if problem:
                    self.damage = self.damage or problem
                else:
                    self.entries.append(entry)
                    self._spans.append((start, self._size))

    @property
    def dropped(self) -> int:
        """Lines the log does not keep."""
        return self.lines - len(self.entries)

    @property
    def torn_tail(self) -> bool:
        """Only the last line is lost: what a crash mid-append leaves."""
        return self.dropped == 1 and self._kept_end() < self._size

    def _kept_end(self) -> int:
        return self._spans[-1][1] if self._spans else 0

    def repair(self, what: str) -> None:
        """Truncate a torn tail back; for any other damage, quarantine the
        file to ``<path>.corrupt`` and rewrite the kept lines in its place.
        ``what`` names the log in the warning and the log message."""
        if not self.damage:
            return
        if self.torn_tail:
            _truncate(self.path, self._kept_end())
            logger.warning(
                "%s %s: torn tail (%s) truncated to %d byte(s), %d line(s) "
                "kept", what, self.path, self.damage, self._kept_end(),
                len(self.entries))
            return
        corrupt_path = f"{self.path}.corrupt"
        warnings.warn(
            f"{what} {self.path!r} is corrupt beyond its tail "
            f"({self.damage}; {self.dropped} line(s) dropped); quarantining "
            f"the original to {corrupt_path!r} and keeping the "
            f"{len(self.entries)} intact line(s)", RuntimeWarning,
            stacklevel=3)
        logger.error(
            "%s %s: mid-file corruption (%s); original quarantined to %s, "
            "%d line(s) kept", what, self.path, self.damage, corrupt_path,
            len(self.entries))
        os.replace(self.path, corrupt_path)
        with open(corrupt_path, "rb") as handle:
            original = handle.read()
        atomic_write(self.path, b"".join(original[start:end]
                                         for start, end in self._spans))


class LineFile:
    """The append handle on one line file.

    ``torn_kind`` is the fault kind that tears this file's lines
    (``"journal_torn"`` or ``"shard_torn"``).  Every write reaches the OS
    before it returns; :meth:`sync` makes the written lines durable.
    """

    def __init__(self, path: str, torn_kind: str) -> None:
        self.path = path
        self.torn_kind = torn_kind
        self._unsynced = 0           # lines written since the last fsync
        self._handle = None
        self._created = False        # this handle made the file

    def _open(self):
        if self._handle is None:
            self._created |= not os.path.exists(self.path)
            self._handle = open(self.path, "ab")
        return self._handle

    def write(self, line: bytes, disk_tag: str, torn_tag: str,
              sync: bool = False) -> None:
        """Append one line, fsync'd before returning when ``sync``.

        ``disk_tag`` and ``torn_tag`` complete the match targets of the
        ``disk_full`` and torn-write faults.  A failed write leaves no
        partial line behind.
        """
        faults.disk_full_fault(self.path, disk_tag)
        handle = self._open()
        start, unsynced = handle.tell(), self._unsynced
        try:
            handle.write(line)
            handle.flush()
            # Torn-write site: between the write and its fsync, the window
            # a real crash tears.  Tears the line and kills the process.
            faults.torn_write_fault(self.torn_kind, self.path, len(line),
                                    torn_tag)
            self._unsynced += 1
            if sync:
                self.sync()
        except OSError:
            self._unsynced = unsynced
            self._truncate_back(start)
            raise

    def sync(self) -> bool:
        """fsync the lines written since the last sync, then the directory
        entry of a file this handle created; True when the file was
        fsync'd."""
        synced = self._unsynced > 0
        if synced:
            os.fsync(self._open().fileno())
            self._unsynced = 0
        if self._created:
            fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._created = False
        return synced

    def _truncate_back(self, offset: int) -> None:
        """Best-effort drop of a partial line: one that survives is a torn
        tail, which the next open's recovery truncates anyway."""
        self.close()
        try:
            if os.path.getsize(self.path) > offset:
                _truncate(self.path, offset)
        except OSError:                       # pragma: no cover - best effort
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Backlog:
    """Writes a full disk refused, kept in order until space returns.

    ``write`` performs one item; the items are the log's own (rendered
    journal lines, shard line requests).  ``ENOSPC`` stops a drain and keeps
    the item first in line; any other ``OSError`` propagates.
    """

    def __init__(self, write: Callable[[Any], None], what: str) -> None:
        self._write = write
        self._what = what
        self._items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def drain(self, *items: Any) -> bool:
        """Queue ``items`` behind the deferred ones, then write in FIFO
        order; False when the disk refused a write."""
        degraded = bool(self._items)
        self._items.extend(items)
        while self._items:
            try:
                self._write(self._items[0])
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                if not degraded:
                    logger.warning(
                        "%s: disk full; deferring %d write(s) until space "
                        "returns", self._what, len(self._items))
                return False
            self._items.popleft()
        return True

    def clear(self) -> None:
        self._items.clear()
