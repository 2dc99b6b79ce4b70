"""The sharded record store: append-only JSONL shards with self-healing.

The default durable backend of :mod:`repro.store`.  One sweep's records live
in a directory::

    <store>/
      MANIFEST.json            index + spec + seal flag (fsync-then-replace)
      shards/
        shard-000001.jsonl     append-only, per-line sha256
        shard-000002.jsonl     ...
        shard-000002.jsonl.corrupt   quarantined original (post-mortem)

Each shard line is one appended outcome::

    {"seq": 17, "kind": "record", "data": {<RunRecord JSON>}, "sha256": ..}

``sha256`` is the digest of the line's canonical JSON with the digest field
removed — the same convention as the service journal — so any bit damage is
detectable.  ``seq`` is a store-global append counter: later lines supersede
earlier ones with the same ``run_id`` (and a ``record`` supersedes a
``failed`` entry), which makes duplicate appends and retried runs harmless
by construction.

Durability: appends buffer in the OS; :meth:`flush` fsyncs the current shard
(the acknowledgement point — the runner flushes at checkpoint boundaries)
and rewrites the manifest under the journal's fsync-then-replace discipline.
``fsync_interval=n`` additionally fsyncs every ``n`` appends.  Cost per
flush is O(appends since the last flush) + O(shard count) — flat in total
record count.

Recovery (every writable open): each shard is digest-scanned.  A damaged
*final* line is a torn write — truncated back to the last good line, like
the journal's torn tail.  Damage with intact lines after it is disk
corruption: the original shard is quarantined to ``<shard>.corrupt`` and the
intact lines rewritten in place.  Unlike the journal, recovery keeps the
digest-verified lines *after* the damage too — journal events are ordered
(everything after a broken line is untrustworthy) but sweep records are
independent and self-identifying, so dropping good records would be waste.
A missing or corrupt manifest is rebuilt from the shards — the shards, not
the manifest, are the source of truth.  Recovery that drops a line voids a
seal, so the resume re-runs what was lost.  The manifest pins the sweep's
spec; an open pins the caller's spec over existing shards only at the first
flush, after the runner has validated the stored records against it.

Compaction merges the closed shards (never the one being appended), dropping
superseded lines; it runs on demand (:meth:`compact`), from the audit CLI,
or in a background thread once ``auto_compact_shards`` closed shards pile up.

Reading never mutates: :func:`scan_store` digest-verifies every line and
cross-checks the manifest (the audit doctor), while :class:`StoreReader`
tails a live store, parsing only the lines appended since its last read
(the service's records endpoint).

Disk exhaustion: an append that hits ``ENOSPC`` truncates any partial line
back to the last clean boundary and defers the outcome to an in-memory
backlog (``disk_full_errors`` counts the hits, :meth:`disk_degraded` reports
the mode); every later append and every :meth:`flush` retries the backlog in
FIFO order, so durability resumes by itself when space returns.  A manifest
rewrite that hits ``ENOSPC`` is skipped outright — the shards, not the
manifest, are the source of truth, and a stale manifest already self-heals
on the next open.  Records lost with a crashed backlog were never
acknowledged by a flush, which keeps them inside the store's existing
re-run-is-harmless contract.
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
from typing import (Deque, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..sweep import faults
from ..sweep.records import FailedRun, RunRecord
from ..sweep.spec import SweepSpec
from .base import RecordStore, StoreError

__all__ = ["ShardedRecordStore", "StoreReader", "StoreScanReport",
           "scan_store"]

logger = logging.getLogger("repro.store")

MANIFEST_NAME = "MANIFEST.json"
_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".jsonl"
_LINE_KINDS = ("record", "failed")


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


class ShardedRecordStore(RecordStore):
    """Append-only sharded persistence (see module docstring).

    ``records_per_shard`` bounds a shard before the writer rolls to a new
    one; ``fsync_interval`` (None = only :meth:`flush`/:meth:`seal` fsync)
    trades durability lag for throughput; ``auto_compact_shards`` (0 = off)
    starts a background compaction once that many closed shards accumulate.

    Thread-safe: appends, flushes and compaction serialize on one lock.
    Opening is the recovery path — a store directory that went through a
    ``kill -9``, a torn write, a flipped byte or a deleted manifest comes
    back usable (with the damage counted in :meth:`stats` and quarantined
    files left for post-mortem).
    """

    kind = "sharded"

    def __init__(self, directory: str,
                 spec: Union[SweepSpec, Dict, None] = None,
                 records_per_shard: int = 4096,
                 fsync_interval: Optional[int] = None,
                 auto_compact_shards: int = 0) -> None:
        if records_per_shard < 1:
            raise ValueError("records_per_shard must be a positive line count")
        if fsync_interval is not None and fsync_interval < 1:
            raise ValueError("fsync_interval must be a positive append count "
                             "(or None to fsync only on flush)")
        self.directory = os.path.abspath(os.fspath(directory))
        self.shards_dir = os.path.join(self.directory, "shards")
        self.manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        self.records_per_shard = records_per_shard
        self.fsync_interval = fsync_interval
        self.auto_compact_shards = auto_compact_shards
        self._lock = threading.RLock()
        self._handle = None
        self._pending = 0
        self._sealed = False
        self._seq = 0
        self._current: Optional[str] = None    # current shard file name
        self._shard_lines: Dict[str, int] = {}
        self._record_seq: Dict[str, int] = {}  # run_id -> winning record seq
        self._failed_seq: Dict[str, int] = {}  # run_id -> winning failed seq
        self._compactor: Optional[threading.Thread] = None
        #: outcomes deferred by ENOSPC: (seq, kind, data, run_id), FIFO.
        self._backlog: Deque[Tuple[int, str, Dict, str]] = deque()
        self._counters = {
            "appended_records": 0, "appended_failed": 0, "flushes": 0,
            "fsyncs": 0, "torn_tail_dropped": 0, "corrupt_lines_dropped": 0,
            "shards_quarantined": 0, "manifest_rebuilds": 0, "compactions": 0,
            "disk_full_errors": 0,
        }
        os.makedirs(self.shards_dir, exist_ok=True)
        self._recover(_spec_dict(spec))

    # ------------------------------------------------------------------ #
    # recovery (open)
    # ------------------------------------------------------------------ #
    def _recover(self, given_spec: Optional[Dict]) -> None:
        manifest, manifest_problem = self._read_manifest()
        shard_names = self._list_shards()
        for name in shard_names:
            entries = self._recover_shard(name)
            self._shard_lines[name] = len(entries)
            for seq, kind, data in entries:
                self._register(seq, kind, data)
                self._seq = max(self._seq, seq)
        if manifest is not None:
            self._seq = max(self._seq, int(manifest.get("next_seq", 0)))
            # A seal vouches for every record; a dropped line voids it.
            self._sealed = bool(manifest.get("sealed", False)) and not (
                self._counters["torn_tail_dropped"]
                or self._counters["corrupt_lines_dropped"])
        stored_spec = manifest.get("spec") if manifest else None
        if given_spec is not None and stored_spec is not None \
                and _canonical(given_spec) != _canonical(stored_spec):
            raise StoreError(
                f"store {self.directory!r} belongs to a different sweep "
                f"(spec {stored_spec.get('name')!r}); refusing to mix — "
                "point the runner at a fresh directory")
        self._spec_dict = given_spec if given_spec is not None else stored_spec
        self.spec = SweepSpec.from_json_dict(self._spec_dict) \
            if self._spec_dict else None
        # Shards the manifest does not vouch for (a rebuilt manifest, or one
        # written without a spec) must pass the runner's validation first,
        # so a refused resume leaves the store as it found it.
        self._pinned_spec = stored_spec if shard_names else self._spec_dict
        if manifest_problem is not None and shard_names:
            # A store with shards but no (usable) index: self-heal from the
            # shards and make the loss visible in stats.
            self._counters["manifest_rebuilds"] += 1
            logger.warning(
                "record store %s: manifest %s; rebuilt from %d shard(s)",
                self.directory, manifest_problem, len(shard_names))
        if shard_names and self._shard_lines.get(
                shard_names[-1], 0) < self.records_per_shard:
            self._current = shard_names[-1]
        else:
            self._current = self._next_shard_name()
            self._shard_lines.setdefault(self._current, 0)
        self._write_manifest()

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
    # manifest
    # ------------------------------------------------------------------ #
    def _read_manifest(self):
        """(payload, None) when usable; (None, problem) when missing/bad."""
        if not os.path.exists(self.manifest_path):
            return None, "missing"
        try:
            with open(self.manifest_path) as handle:
                payload = json.load(handle)
            if payload.get("version") != 1:
                return None, f"unsupported version {payload.get('version')!r}"
            integrity = payload.get("integrity")
            if integrity is not None and \
                    integrity.get("digest") != _digest(payload, "integrity"):
                return None, "digest mismatch"
            return payload, None
        except (OSError, ValueError) as error:
            return None, f"unreadable ({error})"

    def _write_manifest(self) -> None:
        live_failed = sum(1 for run_id in self._failed_seq
                          if run_id not in self._record_seq)
        payload = {
            "version": 1,
            "format": "sharded-record-store",
            "spec": self._pinned_spec,
            "sealed": self._sealed,
            "next_seq": self._seq,
            "records_per_shard": self.records_per_shard,
            "shards": [{"name": name, "lines": self._shard_lines[name]}
                       for name in sorted(self._shard_lines)],
            "counters": {"records": len(self._record_seq),
                         "failed": live_failed},
        }
        payload["integrity"] = {"algorithm": "sha256",
                                "digest": _digest(payload, "integrity")}
        try:
            faults.disk_full_fault(self.manifest_path, "manifest")
            _atomic_write(self.manifest_path,
                          json.dumps(payload, indent=2).encode())
        except OSError as error:
            if error.errno != errno.ENOSPC:
                raise
            # A stale manifest is already survivable (it rebuilds from the
            # shards on the next open), so a full disk just skips the write.
            self._counters["disk_full_errors"] += 1
            logger.warning(
                "record store %s: disk full writing manifest; leaving the "
                "stale one (shards are the source of truth)", self.directory)
            try:
                os.unlink(f"{self.manifest_path}.tmp")
            except OSError:
                pass
            return
        # Chaos sites: lose the manifest we just wrote (self-heal must cover
        # it), or kill the process right after the rewrite.
        faults.manifest_fault(self.manifest_path)
        faults.service_fault("recordstore:manifest")

    # ------------------------------------------------------------------ #
    # shard bookkeeping
    # ------------------------------------------------------------------ #
    def _list_shards(self) -> List[str]:
        return _shard_names(self.shards_dir)

    def _next_shard_name(self) -> str:
        highest = 0
        for name in self._shard_lines:
            try:
                highest = max(highest,
                              int(name[len(_SHARD_PREFIX):-len(_SHARD_SUFFIX)]))
            except ValueError:
                continue
        return f"{_SHARD_PREFIX}{highest + 1:06d}{_SHARD_SUFFIX}"

    def _current_path(self) -> str:
        return os.path.join(self.shards_dir, self._current)

    def _shard_handle(self):
        if self._handle is None or self._handle.closed:
            self._handle = open(self._current_path(), "ab")
        return self._handle

    def _fsync_current(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            if self._pending:
                os.fsync(self._handle.fileno())
                self._counters["fsyncs"] += 1
                self._pending = 0

    def _roll(self) -> None:
        """Close the full shard and start the next (manifest records it)."""
        self._fsync_current()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._current = self._next_shard_name()
        self._shard_lines[self._current] = 0
        self._write_manifest()
        faults.service_fault("recordstore:roll")
        self._maybe_auto_compact()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, record: RunRecord) -> None:
        self._append_line("record", record.to_json_dict(), record.run_id)
        self._counters["appended_records"] += 1

    def append_failed(self, failed: FailedRun) -> None:
        self._append_line("failed", failed.to_json_dict(), failed.run_id)
        self._counters["appended_failed"] += 1

    def _append_line(self, kind: str, data: Dict, run_id: str) -> None:
        with self._lock:
            if self._sealed:
                raise StoreError(
                    f"store {self.directory!r} is sealed; the sweep is "
                    "complete and rejects new outcomes")
            # Kill-before-write site: the record was never acknowledged, so
            # losing it entirely is within contract.
            faults.service_fault(f"recordstore:append:{run_id}")
            self._seq += 1
            seq = self._seq
            self._register(seq, kind, data)
            self._drain_backlog_locked()
            if self._backlog:
                # Still out of space: keep FIFO order behind the backlog.
                self._backlog.append((seq, kind, data, run_id))
                return
            try:
                self._write_entry(seq, kind, data, run_id)
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._counters["disk_full_errors"] += 1
                self._backlog.append((seq, kind, data, run_id))
                logger.warning(
                    "record store %s: disk full appending %s %s; deferring "
                    "(%d outcome(s) backlogged)", self.directory, kind,
                    run_id, len(self._backlog))

    def _write_entry(self, seq: int, kind: str, data: Dict,
                     run_id: str) -> None:
        """One durable shard-line write; no partial line survives a failure."""
        path = self._current_path()
        faults.disk_full_fault(path, f"shard:{run_id}")
        line = _render_line(seq, kind, data)
        start = os.path.getsize(path) if os.path.exists(path) else 0
        handle = self._shard_handle()
        try:
            handle.write(line)
            handle.flush()
        except OSError:
            self._truncate_back(path, start)
            raise
        # Torn-write site: between the write and any fsync, like the
        # journal's.  Tears the line and kills the process.
        faults.shard_fault(path, len(line), f"{kind}:{run_id}")
        self._pending += 1
        self._shard_lines[self._current] += 1
        if self.fsync_interval is not None \
                and self._pending >= self.fsync_interval:
            self._fsync_current()
        if self._shard_lines[self._current] >= self.records_per_shard:
            self._roll()

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
            seq, kind, data, run_id = self._backlog[0]
            try:
                self._write_entry(seq, kind, data, run_id)
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._counters["disk_full_errors"] += 1
                return
            self._backlog.popleft()

    def disk_degraded(self) -> bool:
        """True while ENOSPC-deferred outcomes are waiting for disk space."""
        with self._lock:
            return bool(self._backlog)

    def flush(self) -> None:
        """Acknowledge everything appended so far (fsync + manifest).

        On a full disk the flush degrades instead of raising: the backlog is
        retried, and when lines are still deferred the manifest rewrite is
        skipped — an acknowledgement it cannot honestly give.
        """
        with self._lock:
            try:
                self._drain_backlog_locked()
                self._fsync_current()
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._counters["disk_full_errors"] += 1
                return
            if self._backlog:
                return
            # Kill-after-fsync site: flushed records must survive this.
            faults.service_fault("recordstore:flush")
            self._pinned_spec = self._spec_dict
            self._write_manifest()
            self._counters["flushes"] += 1
            if os.path.exists(self._current_path()):
                # Latent-corruption site: flips a byte *after* durability,
                # so the next open must quarantine, not lose the flush.
                faults.shard_corrupt_fault(self._current_path())
            self._maybe_auto_compact()

    def seal(self) -> None:
        with self._lock:
            self._drain_backlog_locked()
            if self._backlog:
                raise StoreError(
                    f"store {self.directory!r} cannot seal: {len(self._backlog)}"
                    " outcome(s) are still deferred by a full disk")
            self._fsync_current()
            self._sealed = True
            self._pinned_spec = self._spec_dict
            self._write_manifest()

    @property
    def sealed(self) -> bool:
        return self._sealed

    def close(self) -> None:
        with self._lock:
            try:
                self._drain_backlog_locked()
            except OSError:                   # pragma: no cover - best effort
                pass
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        compactor = self._compactor
        if compactor is not None and compactor.is_alive():
            compactor.join(timeout=5.0)

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
                run_id = data.get("run_id")
                winners = records if kind == "record" else failed
                previous = winners.get(run_id)
                if previous is None or seq >= previous[0]:
                    winners[run_id] = (seq, data)
        for run_id in records:
            failed.pop(run_id, None)
        return records, failed

    def iter_records(self) -> Iterator[RunRecord]:
        records, _ = self._collect()
        parsed = [RunRecord.from_json_dict(data)
                  for _, data in records.values()]
        yield from sorted(parsed, key=lambda r: (r.point_index, r.seed_index))

    def iter_failed(self) -> Iterator[FailedRun]:
        _, failed = self._collect()
        parsed = [FailedRun.from_json_dict(data)
                  for _, data in failed.values()]
        yield from sorted(parsed, key=lambda f: (f.point_index, f.seed_index))

    def run_ids(self) -> Set[str]:
        with self._lock:
            return set(self._record_seq)

    def stats(self) -> Dict:
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
            stats = {"kind": self.kind, "records": len(self._record_seq),
                     "failed": live_failed, "sealed": self._sealed,
                     "shards": len(self._shard_lines), "size_bytes": size,
                     "backlog": len(self._backlog)}
            stats.update(self._counters)
            return stats

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def _maybe_auto_compact(self) -> None:
        if self.auto_compact_shards <= 0:
            return
        closed = [name for name in self._shard_lines if name != self._current]
        if len(closed) < self.auto_compact_shards:
            return
        if self._compactor is not None and self._compactor.is_alive():
            return
        self._compactor = threading.Thread(
            target=self._compact_quietly, name="record-store-compactor",
            daemon=True)
        self._compactor.start()

    def _compact_quietly(self) -> None:
        try:
            self.compact()
        except Exception:                     # pragma: no cover - defensive
            logger.exception("record store %s: background compaction failed",
                             self.directory)

    def compact(self) -> int:
        """Merge the closed shards, dropping superseded lines.

        The current shard is never touched, so compaction can run while a
        sweep appends.  Returns the number of dropped lines.  Crash-safe by
        ordering: the merged file replaces the lowest-numbered closed shard
        *atomically* first, then the absorbed shards unlink — a crash in
        between leaves duplicate lines, which the ``seq`` dedup makes
        harmless on the next read/open.
        """
        with self._lock:
            closed = [name for name in sorted(self._shard_lines)
                      if name != self._current]
            if not closed:
                return 0
            survivors: List[Tuple[int, str, Dict]] = []
            total = 0
            for name in closed:
                path = os.path.join(self.shards_dir, name)
                try:
                    scan = _scan_shard(path)
                except FileNotFoundError:
                    continue
                for seq, kind, data in scan.entries:
                    total += 1
                    run_id = data.get("run_id")
                    if kind == "record":
                        if self._record_seq.get(run_id) == seq:
                            survivors.append((seq, kind, data))
                    elif run_id not in self._record_seq \
                            and self._failed_seq.get(run_id) == seq:
                        survivors.append((seq, kind, data))
            survivors.sort(key=lambda entry: entry[0])
            dropped = total - len(survivors)
            if dropped == 0 and len(closed) == 1:
                return 0                      # nothing to merge or drop
            target = closed[0]
            target_path = os.path.join(self.shards_dir, target)
            if survivors:
                _atomic_write(target_path,
                              b"".join(_render_line(seq, kind, data)
                                       for seq, kind, data in survivors))
                self._shard_lines[target] = len(survivors)
            else:
                try:
                    os.unlink(target_path)
                except FileNotFoundError:
                    pass
                self._shard_lines.pop(target, None)
            for name in closed[1:]:
                try:
                    os.unlink(os.path.join(self.shards_dir, name))
                except FileNotFoundError:
                    pass
                self._shard_lines.pop(name, None)
            self._counters["compactions"] += 1
            self._write_manifest()
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
    (open-for-write is the "repair" half).
    """

    directory: str
    manifest_present: bool = False
    manifest_valid: bool = False
    manifest_problem: Optional[str] = None
    sealed: bool = False
    shards: List[Dict] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    failed: List[FailedRun] = field(default_factory=list)
    superseded_lines: int = 0     #: lines a later seq/record superseded
    quarantined_files: int = 0    #: `.corrupt` files present (past damage)
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def to_json_dict(self) -> Dict:
        return {
            "directory": self.directory,
            "clean": self.clean,
            "manifest": {"present": self.manifest_present,
                         "valid": self.manifest_valid,
                         "problem": self.manifest_problem},
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
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        report.manifest_present = True
        try:
            with open(manifest_path) as handle:
                payload = json.load(handle)
            integrity = payload.get("integrity")
            if payload.get("version") != 1:
                report.manifest_problem = "unsupported version"
            elif integrity is not None and \
                    integrity.get("digest") != _digest(payload, "integrity"):
                report.manifest_problem = "digest mismatch"
            else:
                report.manifest_valid = True
                report.sealed = bool(payload.get("sealed", False))
        except (OSError, ValueError) as error:
            report.manifest_problem = f"unreadable ({error})"
    else:
        report.manifest_problem = "missing"
    manifest_lines: Dict[str, int] = {}
    if report.manifest_valid:
        try:
            for entry in payload.get("shards", ()):
                manifest_lines[entry["name"]] = int(entry["lines"])
        except (KeyError, TypeError, ValueError):
            report.manifest_valid = False
            report.manifest_problem = "malformed shard index"

    try:
        names = sorted(name for name in os.listdir(shards_dir)
                       if name.endswith(_SHARD_SUFFIX)
                       and name.startswith(_SHARD_PREFIX))
        report.quarantined_files = sum(
            1 for name in os.listdir(shards_dir) if name.endswith(".corrupt"))
    except FileNotFoundError:
        names = []
    records: Dict[str, Tuple[int, Dict]] = {}
    failed: Dict[str, Tuple[int, Dict]] = {}
    total_lines = 0
    for name in names:
        scan = _scan_shard(os.path.join(shards_dir, name))
        lines = len(scan.entries)
        total_lines += lines + scan.bad_lines
        shard_report = {"name": name, "lines": lines,
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
        if report.manifest_valid and name in manifest_lines \
                and manifest_lines[name] != lines:
            report.problems.append(
                f"{name}: manifest says {manifest_lines[name]} line(s), "
                f"shard holds {lines}")
        for seq, kind, data in scan.entries:
            run_id = data.get("run_id")
            winners = records if kind == "record" else failed
            previous = winners.get(run_id)
            if previous is None or seq >= previous[0]:
                winners[run_id] = (seq, data)
    if report.manifest_valid:
        for name in manifest_lines:
            if name not in set(names):
                report.problems.append(
                    f"{name}: listed in the manifest but missing on disk")
    if not report.manifest_valid and names:
        report.problems.append(f"manifest {report.manifest_problem}")
    for run_id in records:
        failed.pop(run_id, None)
    report.records = sorted(
        (RunRecord.from_json_dict(data) for _, data in records.values()),
        key=lambda r: (r.point_index, r.seed_index))
    report.failed = sorted(
        (FailedRun.from_json_dict(data) for _, data in failed.values()),
        key=lambda f: (f.point_index, f.seed_index))
    report.superseded_lines = total_lines - sum(
        s["bad_lines"] for s in report.shards) - len(records) - len(failed)
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
