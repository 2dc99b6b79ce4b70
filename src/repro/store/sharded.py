"""The sharded record store: self-describing, append-only JSONL shards.

The record store of :mod:`repro.store`: where a sweep's
:class:`~repro.sweep.records.RunRecord`s (and quarantined
:class:`~repro.sweep.records.FailedRun`s) live while — and after — the sweep
executes.  The runner appends outcomes as they complete, flushes at
checkpoint boundaries and seals the store when the sweep finishes; readers
iterate records back out or materialize a
:class:`~repro.sweep.records.SweepResult` for aggregation.  One sweep's
records live in a directory of shards and nothing else::

    <store>/
      shards/
        shard-000001.jsonl     append-only, per-line sha256
        shard-000002.jsonl     ...
        shard-000002.jsonl.corrupt   quarantined original (post-mortem)

Each shard line is one appended event::

    {"seq": 17, "kind": "record", "data": {<RunRecord JSON>}, "sha256": ..}

``kind`` is ``record`` or ``failed`` (an outcome), ``spec`` (``data`` is the
sweep's pinned spec) or ``seal`` (``data`` is ``{"records": <live record
count>}``).  ``sha256`` is the digest of the line's canonical JSON with the
digest field removed — the same convention as the service journal — so any
bit damage is detectable.  ``seq`` is a store-global append counter: later
lines supersede earlier ones with the same ``run_id`` (and a ``record``
supersedes a ``failed`` entry), which makes duplicate appends and retried
runs harmless by construction.

The shards are the only authority.  The store's spec is its first intact
``spec`` line; once a spec is pinned, every shard file written after starts
with one.  An open pins the caller's spec over shards that carry none only
at the first flush, after the runner has validated the stored records
against it.  The store is sealed while its newest outcome-or-seal line is a
``seal`` whose count matches the live records recovery finds, so a lost
line, a truncated tail or a vanished shard voids the seal and the resume
re-runs what was lost.  A store written before shards carried these lines
(a ``MANIFEST.json`` index beside them) opens spec-less and unsealed, and
the index is ignored and left in place.

Durability: appends buffer in the OS; :meth:`flush` fsyncs the current shard
(the acknowledgement point — the runner flushes at checkpoint boundaries).
The first flush of an open, and the first after a new shard file appears,
also fsyncs ``shards/`` so the file's directory entry is durable.  Cost per
flush is O(appends since the last flush) — flat in total record count.

Recovery (every open): each shard is digest-scanned, and opening writes
nothing unless it finds damage.  A damaged *final* line is a torn write —
truncated back to the last good line, like the journal's torn tail.  Damage
with intact lines after it is disk corruption: the original shard is
quarantined to ``<shard>.corrupt`` and the intact lines rewritten in place.
Unlike the journal, recovery keeps the digest-verified lines *after* the
damage too — journal events are ordered (everything after a broken line is
untrustworthy) but sweep records are independent and self-identifying, so
dropping good records would be waste.

Compaction (:meth:`compact`, or the audit CLI) merges the closed shards
(never the one being appended), dropping superseded lines and keeping the
spec line and the newest seal.

Reading never mutates: :func:`scan_store` digest-verifies every line (the
audit doctor), while :class:`StoreReader` tails a live store, parsing only
the lines appended since its last read (the service's records endpoint).

Disk exhaustion: an append that hits ``ENOSPC`` truncates any partial line
back to the last clean boundary and defers the line to an in-memory backlog
(``disk_full_errors`` counts the hits, :meth:`disk_degraded` reports the
mode); every later append and every :meth:`flush` retries the backlog in
FIFO order, so durability resumes by itself when space returns.  Records
lost with a crashed backlog were never acknowledged by a flush, which keeps
them inside the store's existing re-run-is-harmless contract.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..sweep import faults
from ..sweep.records import FailedRun, RunRecord, SweepResult
from ..sweep.spec import SweepSpec

__all__ = ["ShardedRecordStore", "StoreError", "StoreReader",
           "StoreScanReport", "scan_store"]

logger = logging.getLogger("repro.store")

_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".jsonl"
_OUTCOME_KINDS = ("record", "failed")
_LINE_KINDS = _OUTCOME_KINDS + ("spec", "seal")


class StoreError(RuntimeError):
    """A record-store invariant broke (sealed-store append, bad layout, ...)."""


def _digest(payload: Dict, exclude: str) -> str:
    canonical = json.dumps(
        {key: value for key, value in payload.items() if key != exclude},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _render_line(seq: int, kind: str, data: Dict) -> bytes:
    payload = {"seq": seq, "kind": kind, "data": data}
    payload["sha256"] = _digest(payload, "sha256")
    # The digest canonicalizes (sorted keys) on its own, so the stored line
    # keeps `data`'s insertion order — a record round-trips key-for-key
    # identical to what the runner appended.
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _parse_line(raw: bytes):
    """(``(seq, kind, data)``, None) for an intact line, (None, reason) else."""
    try:
        text = raw.decode()
        if not text.endswith("\n"):
            return None, "torn tail (no newline)"
        payload = json.loads(text)
        if payload.get("sha256") != _digest(payload, "sha256"):
            return None, "line digest mismatch"
        kind = payload.get("kind")
        if kind not in _LINE_KINDS:
            return None, f"unknown line kind {kind!r}"
        return (int(payload["seq"]), kind, payload["data"]), None
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
        return None, f"unparseable line ({error})"


def _fsync_dir(directory: str) -> None:
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:                           # non-POSIX / odd filesystem
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write(path: str, data: bytes) -> None:
    """tmp + fsync + ``os.replace`` + dir fsync — the repo's durable write."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


@dataclass
class _ShardScan:
    """One shard file's digest-scan outcome."""

    path: str
    entries: List[Tuple[int, str, Dict]] = field(default_factory=list)
    damage: Optional[str] = None      #: first damage reason, None when clean
    good_prefix: int = 0              #: byte end of the last good line before damage
    bad_lines: int = 0
    intact_after_damage: int = 0

    @property
    def tail_only(self) -> bool:
        """Damage confined to a single final line — a crash artifact."""
        return (self.damage is not None and self.bad_lines == 1
                and self.intact_after_damage == 0)


def _scan_shard(path: str) -> _ShardScan:
    scan = _ShardScan(path=path)
    offset = 0
    with open(path, "rb") as handle:
        for raw in handle:
            end = offset + len(raw)
            parsed, problem = _parse_line(raw)
            if parsed is None:
                scan.bad_lines += 1
                if scan.damage is None:
                    scan.damage = problem
            else:
                scan.entries.append(parsed)
                if scan.damage is None:
                    scan.good_prefix = end
                else:
                    scan.intact_after_damage += 1
            offset = end
    return scan


def _shard_names(shards_dir: str) -> List[str]:
    """A store's shard file names in append order (none when absent)."""
    try:
        names = os.listdir(shards_dir)
    except FileNotFoundError:
        return []
    return sorted(name for name in names
                  if name.startswith(_SHARD_PREFIX)
                  and name.endswith(_SHARD_SUFFIX))


def _spec_dict(spec: Union[SweepSpec, Dict, None]) -> Optional[Dict]:
    if spec is None:
        return None
    if isinstance(spec, SweepSpec):
        return spec.to_json_dict()
    return dict(spec)


def _canonical(payload: Optional[Dict]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _seal_holds(seal: Optional[Tuple[int, Dict]], last_outcome: int,
                live_records: int, damaged_lines: int = 0) -> bool:
    """A seal vouches for the records it counted: an outcome line after it,
    or a count the shards no longer hold, voids it.  A scan cannot tell
    what a damaged line held, so it may stand for a counted record."""
    if seal is None or seal[0] <= last_outcome:
        return False
    return live_records <= seal[1].get("records", -1) \
        <= live_records + damaged_lines


class ShardedRecordStore:
    """Append-only sharded persistence (see module docstring).

    ``spec`` (given, or read back from the shards) rides along so
    :meth:`to_result` can rebuild a fully aggregatable
    :class:`~repro.sweep.records.SweepResult` — bootstrap CIs are seeded
    from the spec's ``master_seed``.  ``records_per_shard`` bounds a shard's
    outcome lines before the writer rolls to a new one.

    Thread-safe: appends, flushes and compaction serialize on one lock.
    Opening is the recovery path — a store directory that went through a
    ``kill -9``, a torn write, a flipped byte or a lost shard comes back
    usable (with the damage counted in :meth:`stats` and quarantined files
    left for post-mortem).
    """

    def __init__(self, directory: str,
                 spec: Union[SweepSpec, Dict, None] = None,
                 records_per_shard: int = 4096) -> None:
        if records_per_shard < 1:
            raise ValueError("records_per_shard must be a positive line count")
        self.directory = os.path.abspath(os.fspath(directory))
        self.shards_dir = os.path.join(self.directory, "shards")
        self.records_per_shard = records_per_shard
        self._lock = threading.RLock()
        self._handle = None
        self._pending = 0
        self._sealed = False
        self._seq = 0
        self._shards: Set[str] = set()         # shard file names
        self._current: Optional[str] = None    # current shard file name
        self._current_lines = 0                # its outcome lines
        self._current_has_spec = False
        self._record_seq: Dict[str, int] = {}  # run_id -> winning record seq
        self._failed_seq: Dict[str, int] = {}  # run_id -> winning failed seq
        #: lines deferred by ENOSPC: (kind, data, run_id), FIFO.
        self._backlog: Deque[Tuple[str, Dict, str]] = deque()
        #: directories the next flush fsyncs: ``shards/`` for the shard this
        #: open adopts or creates, the store's own for a new ``shards/``.
        self._unsynced_dirs = {self.shards_dir}
        self._counters = {
            "appended_records": 0, "appended_failed": 0, "flushes": 0,
            "fsyncs": 0, "torn_tail_dropped": 0, "corrupt_lines_dropped": 0,
            "shards_quarantined": 0, "compactions": 0, "disk_full_errors": 0,
        }
        if not os.path.isdir(self.shards_dir):
            os.makedirs(self.shards_dir, exist_ok=True)
            self._unsynced_dirs.add(self.directory)
        self._recover(_spec_dict(spec))

    # ------------------------------------------------------------------ #
    # recovery (open)
    # ------------------------------------------------------------------ #
    def _recover(self, given_spec: Optional[Dict]) -> None:
        shard_names = self._list_shards()
        stored_spec: Optional[Dict] = None
        seal: Optional[Tuple[int, Dict]] = None     # the newest seal line
        last_outcome = lines = 0
        has_spec = False
        for name in shard_names:
            lines, has_spec = 0, False
            for seq, kind, data in self._recover_shard(name):
                self._seq = max(self._seq, seq)
                if kind == "spec":
                    has_spec = True
                    if stored_spec is None:
                        stored_spec = data
                elif kind == "seal":
                    if seal is None or seq > seal[0]:
                        seal = (seq, data)
                else:
                    lines += 1
                    last_outcome = max(last_outcome, seq)
                    self._register(seq, kind, data)
        self._shards = set(shard_names)
        self._sealed = _seal_holds(seal, last_outcome, len(self._record_seq))
        if given_spec is not None and stored_spec is not None \
                and _canonical(given_spec) != _canonical(stored_spec):
            raise StoreError(
                f"store {self.directory!r} belongs to a different sweep "
                f"(spec {stored_spec.get('name')!r}); refusing to mix — "
                "point the runner at a fresh directory")
        self._spec_dict = given_spec if given_spec is not None else stored_spec
        self.spec = SweepSpec.from_json_dict(self._spec_dict) \
            if self._spec_dict else None
        # Shards that carry no spec must pass the runner's validation
        # against the caller's first, so a refused resume leaves the store
        # as it found it; the first flush pins it.
        self._pinned_spec = stored_spec if shard_names else self._spec_dict
        if shard_names and lines < self.records_per_shard:
            self._current = shard_names[-1]
            self._current_lines = lines
            self._current_has_spec = has_spec
        else:
            self._start_shard()

    def _recover_shard(self, name: str) -> List[Tuple[int, str, Dict]]:
        path = os.path.join(self.shards_dir, name)
        scan = _scan_shard(path)
        if scan.damage is None:
            return scan.entries
        if scan.tail_only:
            # A crash mid-append: truncate back to the last good line.
            self._counters["torn_tail_dropped"] += 1
            with open(path, "r+b") as handle:
                handle.truncate(scan.good_prefix)
                handle.flush()
                os.fsync(handle.fileno())
            logger.warning(
                "record store %s: shard %s had a torn tail (%s); truncated "
                "to %d byte(s), %d line(s) kept", self.directory, name,
                scan.damage, scan.good_prefix, len(scan.entries))
            return scan.entries
        # Mid-shard corruption: quarantine the original, keep every
        # digest-verified line (records are independent — see module doc).
        corrupt_path = f"{path}.corrupt"
        self._counters["shards_quarantined"] += 1
        self._counters["corrupt_lines_dropped"] += scan.bad_lines
        warnings.warn(
            f"record shard {path!r} is corrupt beyond its tail "
            f"({scan.damage}; {scan.bad_lines} bad line(s)); quarantining "
            f"the original to {corrupt_path!r} and keeping the "
            f"{len(scan.entries)} intact line(s)", RuntimeWarning,
            stacklevel=4)
        logger.error(
            "record store %s: shard %s mid-file corruption (%s); original "
            "quarantined to %s, %d line(s) recovered", self.directory, name,
            scan.damage, corrupt_path, len(scan.entries))
        os.replace(path, corrupt_path)
        _atomic_write(path, b"".join(_render_line(seq, kind, data)
                                     for seq, kind, data in scan.entries))
        return scan.entries

    def _register(self, seq: int, kind: str, data: Dict) -> None:
        run_id = data.get("run_id")
        if run_id is None:
            return
        winners = self._record_seq if kind == "record" else self._failed_seq
        if seq >= winners.get(run_id, -1):
            winners[run_id] = seq

    # ------------------------------------------------------------------ #
    # shard bookkeeping
    # ------------------------------------------------------------------ #
    def _list_shards(self) -> List[str]:
        return _shard_names(self.shards_dir)

    def _start_shard(self) -> None:
        """Name the next shard; its file appears with its first line."""
        highest = 0
        for name in self._shards:
            try:
                highest = max(highest,
                              int(name[len(_SHARD_PREFIX):-len(_SHARD_SUFFIX)]))
            except ValueError:
                continue
        self._current = f"{_SHARD_PREFIX}{highest + 1:06d}{_SHARD_SUFFIX}"
        self._shards.add(self._current)
        self._current_lines = 0
        self._current_has_spec = False

    def _current_path(self) -> str:
        return os.path.join(self.shards_dir, self._current)

    def _shard_handle(self):
        if self._handle is None or self._handle.closed:
            path = self._current_path()
            if not os.path.exists(path):
                self._unsynced_dirs.add(self.shards_dir)
            self._handle = open(path, "ab")
        return self._handle

    def _fsync_current(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            if self._pending:
                os.fsync(self._handle.fileno())
                self._counters["fsyncs"] += 1
                self._pending = 0

    def _sync(self) -> None:
        """fsync the current shard, then any directory with a new entry."""
        self._fsync_current()
        for directory in sorted(self._unsynced_dirs):
            _fsync_dir(directory)
        self._unsynced_dirs.clear()

    def _roll(self) -> None:
        """Close the full shard and name the next."""
        self._fsync_current()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._start_shard()
        faults.service_fault("recordstore:roll")

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, record: RunRecord) -> None:
        """Add one completed record (acknowledged at the next flush)."""
        self._append_line("record", record.to_json_dict(), record.run_id)
        self._counters["appended_records"] += 1

    def append_failed(self, failed: FailedRun) -> None:
        """Add one quarantined run (same durability contract as records)."""
        self._append_line("failed", failed.to_json_dict(), failed.run_id)
        self._counters["appended_failed"] += 1

    def _append_line(self, kind: str, data: Dict, run_id: str = "") -> None:
        with self._lock:
            if self._sealed and kind in _OUTCOME_KINDS:
                raise StoreError(
                    f"store {self.directory!r} is sealed; the sweep is "
                    "complete and rejects new outcomes")
            # Kill-before-write site: the record was never acknowledged, so
            # losing it entirely is within contract.
            faults.service_fault(f"recordstore:append:{run_id}")
            degraded = bool(self._backlog)
            # FIFO behind anything a full disk already deferred.
            self._backlog.append((kind, data, run_id))
            self._drain_backlog_locked()
            if self._backlog and not degraded:
                logger.warning(
                    "record store %s: disk full appending %s %s; deferring "
                    "(%d line(s) backlogged)", self.directory, kind,
                    run_id, len(self._backlog))

    def _write_entry(self, kind: str, data: Dict, run_id: str) -> None:
        """One line, after the pinned spec when the shard lacks it."""
        if kind != "spec" and not self._current_has_spec \
                and self._pinned_spec is not None:
            self._write_line("spec", self._pinned_spec, "")
        seq = self._write_line(kind, data, run_id)
        if kind in _OUTCOME_KINDS:
            self._register(seq, kind, data)
            self._current_lines += 1
            if self._current_lines >= self.records_per_shard:
                self._roll()

    def _write_line(self, kind: str, data: Dict, run_id: str) -> int:
        """One shard-line write under the next ``seq``, which it returns; no
        partial line survives a failure."""
        path = self._current_path()
        faults.disk_full_fault(path, f"shard:{run_id}")
        seq = self._seq + 1
        line = _render_line(seq, kind, data)
        handle = self._shard_handle()
        start = handle.tell()
        try:
            handle.write(line)
            handle.flush()
        except OSError:
            self._truncate_back(path, start)
            raise
        self._seq = seq
        # Torn-write site: between the write and any fsync, like the
        # journal's.  Tears the line and kills the process.
        faults.shard_fault(path, len(line), f"{kind}:{run_id}")
        self._pending += 1
        if kind == "spec":
            self._current_has_spec = True
        return seq

    def _truncate_back(self, path: str, offset: int) -> None:
        """Best-effort drop of a partial line (truncation releases space)."""
        try:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if os.path.exists(path) and os.path.getsize(path) > offset:
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:                       # pragma: no cover - best effort
            pass

    def _drain_backlog_locked(self) -> None:
        while self._backlog:
            try:
                self._write_entry(*self._backlog[0])
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._counters["disk_full_errors"] += 1
                return
            self._backlog.popleft()

    def disk_degraded(self) -> bool:
        """True while ENOSPC-deferred lines are waiting for disk space."""
        with self._lock:
            return bool(self._backlog)

    def flush(self) -> None:
        """Acknowledge everything appended so far (one shard fsync).

        The first flush over shards that carry no spec pins the caller's by
        appending a ``spec`` line.  On a full disk the flush degrades
        instead of raising: the backlog is retried, and while lines are
        still deferred nothing is acknowledged.
        """
        with self._lock:
            try:
                if self._pinned_spec is None and self._spec_dict is not None:
                    # The runner has validated the stored records by now.
                    self._pinned_spec = self._spec_dict
                    self._append_line("spec", self._spec_dict)
                self._drain_backlog_locked()
                self._sync()
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._counters["disk_full_errors"] += 1
                return
            if self._backlog:
                return
            # Kill-after-fsync site: flushed records must survive this.
            faults.service_fault("recordstore:flush")
            self._counters["flushes"] += 1
            if os.path.exists(self._current_path()):
                # Latent-corruption site: flips a byte *after* durability,
                # so the next open must quarantine, not lose the flush.
                faults.shard_corrupt_fault(self._current_path())

    def seal(self) -> None:
        """Append a ``seal`` line counting the live records, and fsync it.

        A seal that still holds appends nothing, so re-running a complete
        sweep over its store writes nothing.
        """
        with self._lock:
            self._drain_backlog_locked()
            if not (self._sealed or self._backlog):
                self._append_line("seal", {"records": len(self._record_seq)})
            if self._backlog:
                raise StoreError(
                    f"store {self.directory!r} cannot seal: {len(self._backlog)}"
                    " line(s) are still deferred by a full disk")
            self._sync()
            self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def close(self) -> None:
        """Release file handles; the store can be reopened later."""
        with self._lock:
            try:
                self._drain_backlog_locked()
            except OSError:                   # pragma: no cover - best effort
                pass
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def _collect(self) -> Tuple[Dict[str, Tuple[int, Dict]],
                                Dict[str, Tuple[int, Dict]]]:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.flush()
            names = self._list_shards()
        records: Dict[str, Tuple[int, Dict]] = {}
        failed: Dict[str, Tuple[int, Dict]] = {}
        for name in names:
            try:
                scan = _scan_shard(os.path.join(self.shards_dir, name))
            except FileNotFoundError:     # compacted away mid-read
                continue
            for seq, kind, data in scan.entries:
                if kind not in _OUTCOME_KINDS:
                    continue
                run_id = data.get("run_id")
                winners = records if kind == "record" else failed
                previous = winners.get(run_id)
                if previous is None or seq >= previous[0]:
                    winners[run_id] = (seq, data)
        for run_id in records:
            failed.pop(run_id, None)
        return records, failed

    def iter_records(self) -> Iterator[RunRecord]:
        """All live records, deduplicated, in ``(point_index, seed_index)``
        order.  A record supersedes any failed entry with the same run id."""
        records, _ = self._collect()
        parsed = [RunRecord.from_json_dict(data)
                  for _, data in records.values()]
        yield from sorted(parsed, key=lambda r: (r.point_index, r.seed_index))

    def iter_failed(self) -> Iterator[FailedRun]:
        """Quarantined runs that no later record superseded."""
        _, failed = self._collect()
        parsed = [FailedRun.from_json_dict(data)
                  for _, data in failed.values()]
        yield from sorted(parsed, key=lambda f: (f.point_index, f.seed_index))

    def run_ids(self) -> Set[str]:
        """Run ids with a live *record* (failed-only ids excluded — their
        runs are still owed)."""
        with self._lock:
            return set(self._record_seq)

    def to_result(self, spec: Optional[SweepSpec] = None) -> SweepResult:
        """Materialize the store as a :class:`SweepResult` (for aggregation)."""
        return SweepResult(spec=spec if spec is not None else self.spec,
                           records=list(self.iter_records()),
                           failed_runs=list(self.iter_failed()))

    def stats(self) -> Dict:
        """Counters for health/monitoring: records, failed, sealed, size and
        the error/repair counters."""
        with self._lock:
            size = 0
            for name in self._list_shards():
                try:
                    size += os.path.getsize(os.path.join(self.shards_dir,
                                                         name))
                except OSError:
                    pass
            live_failed = sum(1 for run_id in self._failed_seq
                              if run_id not in self._record_seq)
            stats = {"kind": "sharded", "records": len(self._record_seq),
                     "failed": live_failed, "sealed": self._sealed,
                     "shards": len(self._shards), "size_bytes": size,
                     "backlog": len(self._backlog)}
            stats.update(self._counters)
            return stats

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Merge the closed shards, dropping superseded lines.

        The merged shard keeps the first ``spec`` line and the newest
        ``seal``.  The current shard is never touched, so compaction can run
        while a sweep appends.  Returns the number of dropped lines.
        Crash-safe by ordering: the merged file replaces the lowest-numbered
        closed shard *atomically* first, then the absorbed shards unlink — a
        crash in between leaves duplicate lines, which the ``seq`` dedup
        makes harmless on the next read/open.
        """
        with self._lock:
            closed = sorted(self._shards - {self._current})
            if not closed:
                return 0
            survivors: List[Tuple[int, str, Dict]] = []
            spec_line = seal_line = None
            total = 0
            for name in closed:
                path = os.path.join(self.shards_dir, name)
                try:
                    scan = _scan_shard(path)
                except FileNotFoundError:
                    continue
                for entry in scan.entries:
                    seq, kind, data = entry
                    total += 1
                    run_id = data.get("run_id")
                    if kind == "spec":
                        spec_line = spec_line or entry
                    elif kind == "seal":
                        if seal_line is None or seq > seal_line[0]:
                            seal_line = entry
                    elif kind == "record":
                        if self._record_seq.get(run_id) == seq:
                            survivors.append(entry)
                    elif run_id not in self._record_seq \
                            and self._failed_seq.get(run_id) == seq:
                        survivors.append(entry)
            if seal_line is not None:
                survivors.append(seal_line)
            survivors.sort(key=lambda entry: entry[0])
            if spec_line is not None:
                survivors.insert(0, spec_line)
            dropped = total - len(survivors)
            if dropped == 0 and len(closed) == 1:
                return 0                      # nothing to merge or drop
            target = closed[0]
            target_path = os.path.join(self.shards_dir, target)
            if survivors:
                _atomic_write(target_path,
                              b"".join(_render_line(seq, kind, data)
                                       for seq, kind, data in survivors))
            else:
                try:
                    os.unlink(target_path)
                except FileNotFoundError:
                    pass
                self._shards.discard(target)
            for name in closed[1:]:
                try:
                    os.unlink(os.path.join(self.shards_dir, name))
                except FileNotFoundError:
                    pass
                self._shards.discard(name)
            self._counters["compactions"] += 1
            logger.info(
                "record store %s: compacted %d shard(s) -> %d line(s) "
                "(%d dropped)", self.directory, len(closed), len(survivors),
                dropped)
            return dropped


# ---------------------------------------------------------------------- #
# read-only scanning (audit CLI) and incremental reading (service paging)
# ---------------------------------------------------------------------- #
@dataclass
class StoreScanReport:
    """A non-mutating integrity scan of a store directory.

    Produced by :func:`scan_store` — nothing on disk changes, so it is safe
    against a live store and is the "diagnose" half of the audit doctor
    (open-for-write is the "repair" half).  A void seal reads as
    ``sealed=False``, not as a problem: the resume is what re-runs the loss.
    A seal over damaged lines still reads as sealed; the damage is the
    problem, and the repair drops those lines and voids the seal.
    """

    directory: str
    sealed: bool = False
    shards: List[Dict] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    failed: List[FailedRun] = field(default_factory=list)
    superseded_lines: int = 0     #: outcome lines a later line superseded
    quarantined_files: int = 0    #: `.corrupt` files present (past damage)
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def to_json_dict(self) -> Dict:
        return {
            "directory": self.directory,
            "clean": self.clean,
            "sealed": self.sealed,
            "shards": self.shards,
            "records": len(self.records),
            "failed": len(self.failed),
            "superseded_lines": self.superseded_lines,
            "quarantined_files": self.quarantined_files,
            "problems": self.problems,
        }


def scan_store(directory: str) -> StoreScanReport:
    """Digest-verify every line of a store directory without touching it."""
    directory = os.path.abspath(os.fspath(directory))
    report = StoreScanReport(directory=directory)
    shards_dir = os.path.join(directory, "shards")
    names = _shard_names(shards_dir)
    try:
        report.quarantined_files = sum(
            1 for name in os.listdir(shards_dir) if name.endswith(".corrupt"))
    except FileNotFoundError:
        pass
    records: Dict[str, Tuple[int, Dict]] = {}
    failed: Dict[str, Tuple[int, Dict]] = {}
    seal: Optional[Tuple[int, Dict]] = None
    outcome_lines = last_outcome = 0
    for name in names:
        scan = _scan_shard(os.path.join(shards_dir, name))
        shard_report = {"name": name, "lines": len(scan.entries),
                        "bad_lines": scan.bad_lines,
                        "torn_tail": bool(scan.damage) and scan.tail_only,
                        "mid_shard_damage": bool(scan.damage)
                        and not scan.tail_only}
        report.shards.append(shard_report)
        if scan.damage is not None:
            kind = "torn tail" if scan.tail_only else "mid-shard corruption"
            report.problems.append(
                f"{name}: {kind} ({scan.damage}; {scan.bad_lines} bad "
                f"line(s))")
        for seq, kind, data in scan.entries:
            if kind == "seal" and (seal is None or seq > seal[0]):
                seal = (seq, data)
            if kind not in _OUTCOME_KINDS:
                continue
            outcome_lines += 1
            last_outcome = max(last_outcome, seq)
            run_id = data.get("run_id")
            winners = records if kind == "record" else failed
            previous = winners.get(run_id)
            if previous is None or seq >= previous[0]:
                winners[run_id] = (seq, data)
    for run_id in records:
        failed.pop(run_id, None)
    report.sealed = _seal_holds(
        seal, last_outcome, len(records),
        sum(shard["bad_lines"] for shard in report.shards))
    report.records = sorted(
        (RunRecord.from_json_dict(data) for _, data in records.values()),
        key=lambda r: (r.point_index, r.seed_index))
    report.failed = sorted(
        (FailedRun.from_json_dict(data) for _, data in failed.values()),
        key=lambda f: (f.point_index, f.seed_index))
    report.superseded_lines = outcome_lines - len(records) - len(failed)
    return report


class StoreReader:
    """An incremental, non-mutating reader of a (possibly live) store.

    Where :func:`scan_store` re-reads and re-digests every line on each
    call, a reader remembers a byte offset per shard and each :meth:`read`
    parses only the *complete* lines (up to the last newline) appended
    since the previous one — so tailing a live store costs O(new lines) per
    read, not O(store).  Each line goes through the same digest check as
    :func:`scan_store`, once, when the reader first reaches it; a complete
    line with a bad digest is skipped, and a torn final line is not served
    until its newline lands.  Later on-disk damage is caught by recovery on
    the store's next writable open and by the audit doctor, not here.

    Records come back in **append order**: a run sits at the position of
    its first ``record`` line and carries its winning (highest-``seq``)
    line, with a ``record`` superseding any ``failed`` line — the same
    winners as :func:`scan_store`.  Paging by offset over that order stays
    exact while the store grows, whatever order runs finish in.

    When a shard it has read disappears, shrinks or is replaced (compaction
    and quarantine rewrite shards), the reader drops its state and re-reads
    from byte 0.  Thread-safe: one lock serializes reads.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(os.fspath(directory))
        self.shards_dir = os.path.join(self.directory, "shards")
        self._lock = threading.Lock()
        #: complete shard lines parsed (and digest-checked) so far.
        self.parsed_lines = 0
        self._reset()

    def _reset(self) -> None:
        self._offsets: Dict[str, Tuple[int, int]] = {}   # name -> (inode, end)
        self._records: List[RunRecord] = []              # append order
        #: run_id -> (winning record seq, index into ``_records``)
        self._winners: Dict[str, Tuple[int, int]] = {}
        self._failed: Dict[str, Tuple[int, FailedRun]] = {}

    def read(self) -> Tuple[List[RunRecord], List[FailedRun]]:
        """``(records, failed)`` as of now, after reading the new lines."""
        with self._lock:
            if not self._advance():
                self._reset()
                self._advance()
            failed = [entry for run_id, (_, entry) in self._failed.items()
                      if run_id not in self._winners]
            return list(self._records), failed

    def _advance(self) -> bool:
        """Consume the complete lines past each offset; False when a shard
        already read has vanished, shrunk or been replaced."""
        names = _shard_names(self.shards_dir)
        if not set(self._offsets) <= set(names):
            return False
        for name in names:
            inode, offset = self._offsets.get(name, (None, 0))
            try:
                with open(os.path.join(self.shards_dir, name), "rb") as handle:
                    status = os.fstat(handle.fileno())
                    if inode is not None and (status.st_ino != inode
                                              or status.st_size < offset):
                        return False
                    if status.st_size == offset:
                        continue
                    handle.seek(offset)
                    chunk = handle.read()
            except FileNotFoundError:         # compacted away mid-read
                if inode is not None:
                    return False
                continue
            end = chunk.rfind(b"\n") + 1
            start = 0
            while start < end:
                stop = chunk.index(b"\n", start) + 1
                self.parsed_lines += 1
                parsed, _ = _parse_line(chunk[start:stop])
                if parsed is not None:
                    self._take(*parsed)
                start = stop
            self._offsets[name] = (status.st_ino, offset + end)
        return True

    def _take(self, seq: int, kind: str, data: Dict) -> None:
        if kind not in _OUTCOME_KINDS:
            return
        run_id = data.get("run_id")
        if kind == "failed":
            if seq >= self._failed.get(run_id, (-1, None))[0]:
                self._failed[run_id] = (seq, FailedRun.from_json_dict(data))
            return
        winner = self._winners.get(run_id)
        if winner is None:
            self._winners[run_id] = (seq, len(self._records))
            self._records.append(RunRecord.from_json_dict(data))
        elif seq >= winner[0]:
            self._winners[run_id] = (seq, winner[1])
            self._records[winner[1]] = RunRecord.from_json_dict(data)
