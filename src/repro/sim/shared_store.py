"""On-disk, ``np.memmap``-backed cross-process store for simulation physics.

The process-level :data:`~repro.sim.level_cache.LEVEL_CACHE` stops at the
process boundary: every worker of a :class:`~repro.sweep.runner.PoolExecutor`
fleet re-derives activity and per-(group, level) candidate arrays its
siblings already computed.  This module is the cache's pluggable *backend*
that crosses that boundary: entries are serialized once into flat binary
files under a shared directory and attached by every other process as
**read-only memory-mapped views** — the OS page cache makes a fleet share
one physical copy.

Layout (one directory per store)::

    <digest>.phys  # one entry: a JSON header line, then its arrays
    stats.jsonl    # append-only event log ("store"/"hit" + pid), optional

Each entry file is named by its key's digest and describes itself.  Its first
line is a JSON header — format tag, value kind, meta, each array's
dtype/shape/offset, the payload length and one SHA-256 covering those fields
and the payload — space-padded to a 64-byte boundary.  The payload follows:
the arrays as raw C-order bytes, each 64-byte aligned.

Consistency model — entries are immutable and published without a lock: a
writer writes the whole file under a temp name and ``os.replace``s it onto
``<digest>.phys``, so a reader sees either no file (a miss) or a complete
one.  Two processes racing to store the same key write bit-identical bytes
(entries are deterministic), so last-rename-wins is safe.  A reader checks an
entry's length against its own header on every load and its checksum once per
process; any damage — a header that does not parse, a wrong length, a
checksum mismatch — quarantines the file to ``<digest>.phys.corrupt`` and
reads as a miss, so the engine re-derives the entry and republishes it
(correctness never depends on a hit).  A file whose header carries another
format tag is ignored, not quarantined, and files without the ``.phys``
suffix (an older layout's index and ``.bin`` entries) are never opened.

Keys are the level cache's tuples of primitives, digested via their ``repr``.
Keys carrying a process-local workload identity (the ``("token", n)`` /
``("unshared", ...)`` markers of
:func:`~repro.sim.level_cache.workload_cache_key`) are **refused** — token
numbers collide across processes, and silently sharing them would hand one
workload another's physics.  Sweep-built workloads carry a deterministic
fingerprint instead (``("spec", ...)``) and share freely.

Two value kinds are understood: :class:`~repro.sim.level_cache.LevelEntry`
(a heap group's candidate-failure cycles) and the activity-trace dict
(``{macro_index: trace}``).  Anything else is declined.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..power.vf_table import VFPair
from .level_cache import LevelEntry

__all__ = ["SharedPhysicsStore", "shareable_key"]

logger = logging.getLogger("repro.sim.shared_store")

_ALIGN = 64
_SUFFIX = ".phys"
_FORMAT = "repro-physics/2"
#: Longest header line read, so rejecting a damaged file that lacks a newline
#: reads at most this much.
_MAX_HEADER = 1 << 20

#: Process-local markers of :func:`~repro.sim.level_cache.workload_cache_key`
#: — meaningless (and colliding) in any other process.
_UNSHAREABLE_TAGS = ("token", "unshared")


def shareable_key(key: Hashable) -> bool:
    """Whether a cache key is safe to share across processes.

    True iff the key is built purely from primitives and carries no
    process-local workload identity marker (see module docstring).
    """
    if isinstance(key, tuple):
        if (len(key) == 2 and isinstance(key[0], str)
                and key[0] in _UNSHAREABLE_TAGS):
            return False
        return all(shareable_key(item) for item in key)
    return isinstance(key, (str, int, float, bool, type(None)))


def _digest(key: Hashable) -> str:
    """Stable content digest of a primitives-only key tuple."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:40]


# ---------------------------------------------------------------------- #
# value codecs
# ---------------------------------------------------------------------- #
def _encode(value: object) -> Optional[Tuple[str, Dict, List[Tuple[str, np.ndarray]]]]:
    """``value -> (kind, meta, named arrays)``; None when not understood."""
    if isinstance(value, LevelEntry):
        cand = (np.concatenate(value.fail_cycles).astype(np.int64)
                if value.fail_cycles else np.empty(0, dtype=np.int64))
        offsets = np.zeros(len(value.fail_cycles) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in value.fail_cycles], out=offsets[1:])
        meta = {"pair": [int(value.pair.level), float(value.pair.voltage),
                         float(value.pair.frequency)]}
        return "level", meta, [("cand", np.ascontiguousarray(cand)),
                               ("offsets", offsets)]
    if (isinstance(value, dict) and value
            and all(isinstance(k, (int, np.integer)) for k in value)
            and all(isinstance(v, np.ndarray) and v.ndim == 1
                    for v in value.values())):
        macros = sorted(int(k) for k in value)
        traces = np.ascontiguousarray(
            np.vstack([value[m] for m in macros]))
        return "activity", {"macros": macros}, [("traces", traces)]
    return None


def _decode(kind: str, meta: Dict, arrays: Dict[str, np.ndarray]
            ) -> Optional[Tuple[object, int]]:
    """``(kind, meta, named arrays) -> (value, nbytes)``; None when unknown."""
    if kind == "level":
        # An entry written while entries carried a drop matrix also lists
        # a ``drop`` array; it is not read.
        level, voltage, frequency = meta["pair"]
        cand = arrays["cand"]
        offsets = arrays["offsets"]
        fail_cycles = [cand[offsets[i]:offsets[i + 1]]
                       for i in range(offsets.size - 1)]
        entry = LevelEntry(
            pair=VFPair(level=int(level), voltage=float(voltage),
                        frequency=float(frequency)),
            fail_cycles=fail_cycles)
        return entry, entry.nbytes_estimate()
    if kind == "activity":
        traces = arrays["traces"]
        value = {int(m): traces[i] for i, m in enumerate(meta["macros"])}
        return value, int(traces.nbytes)
    return None


# ---------------------------------------------------------------------- #
# the entry file format
# ---------------------------------------------------------------------- #
class _Damaged(Exception):
    """An entry file that fails its own header's checks."""


def _canonical(fields: Dict) -> bytes:
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


def _checksum(fields: Dict, payload) -> str:
    """SHA-256 over the header fields (canonical JSON) and the payload."""
    digest = hashlib.sha256(_canonical(fields))
    digest.update(payload)
    return digest.hexdigest()


def _pack(kind: str, meta: Dict,
          named_arrays: List[Tuple[str, np.ndarray]]) -> bytes:
    """An entry's file bytes: the padded header line, then the payload."""
    specs: List[Dict] = []
    chunks: List[bytes] = []
    offset = 0
    for name, array in named_arrays:
        pad = (-offset) % _ALIGN
        if pad:
            chunks.append(b"\x00" * pad)
            offset += pad
        raw = array.tobytes()
        specs.append({"name": name, "dtype": array.dtype.str,
                      "shape": list(array.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    fields = {"format": _FORMAT, "kind": kind, "meta": meta,
              "arrays": specs, "payload_bytes": len(payload)}
    header = _canonical({**fields, "sha256": _checksum(fields, payload)})
    header += b" " * (-(len(header) + 1) % _ALIGN) + b"\n"
    return header + payload


def _read_header(handle) -> Optional[Tuple[Dict, int]]:
    """``(header, payload offset)`` of an open entry file.

    None when the header carries another format's tag; :class:`_Damaged`
    when the header line is torn, does not parse or carries no tag.
    """
    line = handle.readline(_MAX_HEADER)
    if not line.endswith(b"\n"):
        raise _Damaged("torn or missing header line")
    try:
        header = json.loads(line)
    except ValueError as error:         # bad JSON and bad UTF-8 alike
        raise _Damaged(f"unparseable header ({error})") from None
    if not isinstance(header, dict) or "format" not in header:
        raise _Damaged("header carries no format tag")
    if header["format"] != _FORMAT:
        return None
    return header, len(line)


def _map_arrays(handle, header: Dict, start: int,
                verify: bool) -> Dict[str, np.ndarray]:
    """The entry's arrays as read-only views of the mapped file.

    Checks the file's length against its header and, with ``verify``, the
    checksum; raises :class:`_Damaged` on any disagreement.
    """
    fields = dict(header)
    try:
        checksum = fields.pop("sha256")
        size = os.fstat(handle.fileno()).st_size
        if size != start + fields["payload_bytes"]:
            raise _Damaged(f"{size} bytes disagree with the header's length")
        payload = np.memmap(handle, dtype=np.uint8, mode="r")[start:]
        if verify and _checksum(fields, payload) != checksum:
            raise _Damaged("checksum mismatch")
        arrays: Dict[str, np.ndarray] = {}
        for spec in fields["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arrays[spec["name"]] = np.frombuffer(
                payload, dtype=np.dtype(spec["dtype"]), count=count,
                offset=spec["offset"]).reshape(shape)
        return arrays
    except (KeyError, TypeError, ValueError) as error:
        raise _Damaged(f"header does not describe the file ({error!r})") \
            from None


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
class SharedPhysicsStore:
    """A directory of memory-mapped physics entries shared by a process fleet.

    Duck-typed as a :class:`~repro.sim.level_cache.ByteBudgetCache` backend:
    ``load(key) -> Optional[(value, nbytes)]`` and ``store(key, value,
    nbytes) -> bool``.  See the module docstring for the on-disk format and
    the consistency model.  ``record_events=True`` (default) appends one line
    per store/cross-load to ``stats.jsonl`` (lock-free ``O_APPEND``; one line
    per entry per process at most) so benchmarks and tests can count
    *cross-worker* reuse after the fleet is gone; pass ``False`` — also
    accepted by :func:`~repro.sim.level_cache.attach_shared_store` — for
    long-lived persistent stores that do not need the audit trail.
    """

    def __init__(self, directory: str, record_events: bool = True) -> None:
        self.directory = directory
        self.record_events = record_events
        self.degraded = False
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            # Unwritable store root: degrade to the process-local cache —
            # every load misses and every store fails (counted), the
            # simulation itself is unaffected.
            self.degraded = True
            logger.warning("shared store directory %r unusable (%s); "
                           "degrading to process-local caching only",
                           directory, error)
        self._events_path = os.path.join(directory, "stats.jsonl")
        #: digests this instance already logged per event kind — one audit
        #: line per (entry, process) even when an oversized-for-memory entry
        #: is re-loaded on every get.
        self._logged: Dict[str, set] = {"hit": set(), "store": set()}
        #: digests whose on-disk bytes this process already checksum-verified
        #: — verification is once per (entry, process), not per load.
        self._verified: set = set()
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.rejected_keys = 0
        self.corrupt_rejected = 0
        self.load_errors = 0
        self.store_errors = 0
        self.event_log_errors = 0

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + _SUFFIX)

    def _entry_names(self) -> List[str]:
        """File names of the published entries (empty when unreadable)."""
        if self.degraded:
            return []
        try:
            return [name for name in os.listdir(self.directory)
                    if name.endswith(_SUFFIX)]
        except OSError:
            return []

    def _log_event(self, event: str, digest: str) -> None:
        if not self.record_events:
            return
        logged = self._logged[event]
        if digest in logged:
            return                          # bounded: one line per entry
        logged.add(digest)
        # Lock-free: O_APPEND writes of one short line are atomic on POSIX,
        # so concurrent workers interleave whole lines.  With the dedup
        # above, volume is bounded by (entries x processes).
        line = json.dumps({"event": event, "digest": digest,
                           "pid": os.getpid()})
        try:
            with open(self._events_path, "a") as handle:
                handle.write(line + "\n")
        except OSError:                     # audit is never worth a crash —
            self.event_log_errors += 1      # but a sick log must be visible
            logged.discard(digest)          # retry the line on the next event

    def read_events(self) -> List[Dict]:
        """All logged store/hit events (for cross-worker reuse accounting)."""
        try:
            with open(self._events_path) as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    def cross_worker_hits(self) -> int:
        """Loads served to a process that never stored that entry itself.

        Racing writers may both publish one digest (permitted — identical
        bytes); a later hit by either of them is *not* cross-worker, so the
        check is membership in the full storer set, not the last storer.
        """
        events = self.read_events()
        stored_by: Dict[str, set] = {}
        for event in events:
            if event["event"] == "store":
                stored_by.setdefault(event["digest"], set()).add(event["pid"])
        return sum(1 for e in events if e["event"] == "hit"
                   and e["digest"] in stored_by
                   and e["pid"] not in stored_by[e["digest"]])

    # ------------------------------------------------------------------ #
    # backend protocol
    # ------------------------------------------------------------------ #
    def load(self, key: Hashable) -> Optional[Tuple[object, int]]:
        """Attach an entry as read-only views; None on a miss or damage.

        Best-effort by contract: any I/O failure (store directory removed
        mid-sweep, permissions, ENOSPC on the audit log) degrades to a miss
        — the engine just recomputes — never to a crashed run.  Swallowed
        failures are counted in ``stats()["load_errors"]``.
        """
        if self.degraded:
            return None
        try:
            return self._load(key)
        except (OSError, ValueError, KeyError, TypeError) as error:
            # OSError: the entry is unreadable; ValueError/KeyError/TypeError:
            # a header that passed its checks but does not decode.
            self.load_errors += 1
            logger.debug("shared store load failed for %r: %r", key, error)
            return None

    def _load(self, key: Hashable) -> Optional[Tuple[object, int]]:
        if not shareable_key(key):
            return None
        self.loads += 1
        digest = _digest(key)
        path = self._entry_path(digest)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return None                     # never published: a plain miss
        with handle:
            try:
                parsed = _read_header(handle)
                if parsed is None:
                    return None             # another format's file: ignored
                header, start = parsed
                arrays = _map_arrays(handle, header, start,
                                     verify=digest not in self._verified)
            except _Damaged as damage:
                self._quarantine(digest, path, damage)
                return None
        self._verified.add(digest)
        decoded = _decode(header["kind"], header["meta"], arrays)
        if decoded is None:
            return None
        self.load_hits += 1
        self._log_event("hit", digest)
        return decoded

    def _quarantine(self, digest: str, path: str, damage: _Damaged) -> None:
        """Take a damaged entry file out of service, keeping evidence.

        The next producer then re-derives and republishes the entry.
        """
        self.corrupt_rejected += 1
        self._verified.discard(digest)
        logger.warning("shared store entry %s is damaged (%s); "
                       "quarantining %s for re-derivation",
                       digest, damage, path)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)             # rename failed: at least unpublish
            except OSError:
                pass

    def store(self, key: Hashable, value: object, nbytes: int) -> bool:
        """Publish an entry (idempotent; refuses process-local keys).

        Best-effort like :meth:`load`: publication failures (directory gone,
        ENOSPC, permissions) report ``False`` instead of raising into the
        simulation — the fleet just loses sharing for that entry.  Swallowed
        failures are counted in ``stats()["store_errors"]``.
        """
        if self.degraded:
            self.store_errors += 1
            return False
        try:
            return self._store(key, value, nbytes)
        except OSError as error:
            self.store_errors += 1
            logger.debug("shared store publish failed for %r: %r", key, error)
            return False

    def _store(self, key: Hashable, value: object, nbytes: int) -> bool:
        if not shareable_key(key):
            self.rejected_keys += 1
            return False
        encoded = _encode(value)
        if encoded is None:
            return False
        digest = _digest(key)
        path = self._entry_path(digest)
        if not os.path.exists(path):
            fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                            prefix=".tmp-" + digest[:8])
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_pack(*encoded))
                # Chaos-harness hook (no-op unarmed): damage the bytes the
                # way a disk fault would, before the rename makes them
                # visible — the check on load is what must catch it.
                from ..sweep.faults import store_fault
                store_fault(tmp_path)
                os.replace(tmp_path, path)
            except OSError:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self.stores += 1
        # Already on disk or not, this process *derived* the entry (puts
        # only follow computation), so record it as a storer: its own later
        # disk reloads are not cross-worker reuse.
        self._log_event("store", digest)
        return True

    def kind_counts(self) -> Dict[str, int]:
        """Published entry counts by kind (``"level"`` / ``"activity"``).

        A scan of the entries' headers.  Lets benchmarks and tests assert
        that a specific physics family — e.g. the ``"model"`` builder's
        compiled-chip activity traces — actually crossed the process
        boundary, not just the level entries.
        """
        counts: Dict[str, int] = {}
        for name in self._entry_names():
            try:
                with open(os.path.join(self.directory, name), "rb") as handle:
                    parsed = _read_header(handle)
            except (OSError, _Damaged):
                continue                    # vanished or damaged: not served
            if parsed is not None:
                kind = parsed[0].get("kind", "unknown")
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def stats(self) -> Dict[str, int]:
        return {
            "directory": self.directory,
            "entries": len(self._entry_names()),
            "loads": self.loads,
            "load_hits": self.load_hits,
            "stores": self.stores,
            "rejected_keys": self.rejected_keys,
            "corrupt_rejected": self.corrupt_rejected,
            "load_errors": self.load_errors,
            "store_errors": self.store_errors,
            "event_log_errors": self.event_log_errors,
            "degraded": self.degraded,
        }
