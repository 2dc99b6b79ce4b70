"""Lease-based single-writer ownership of a service state directory.

Two daemons appending to one journal would interleave seqs, double-run jobs
and corrupt each other's checkpoints — so the state dir is fenced by a lease
file (``LEASE.json``) holding the current owner and its last heartbeat::

    {"owner": "host:pid:8hex", "pid": 1234, "host": "...",
     "heartbeat_ts": 1754550000.123}

Protocol
--------
* **Acquire**: read the file.  A *live* lease (heartbeat younger than the
  TTL, and — when the holder is on this host — its pid still alive) refuses
  the start with :class:`LeaseHeld`; a stale or missing lease is taken over
  by atomically writing our own record (tmp + fsync + ``os.replace``, the
  repo's durable-write discipline).  The same-host pid check makes takeover
  after a ``kill -9`` immediate instead of a full TTL wait; a foreign-host
  holder gets the full TTL benefit of the doubt.
* **Heartbeat**: a daemon thread re-reads and rewrites the file every
  ``ttl / 4``.  Reading *first* is the fencing half: if the file now names a
  different owner (an operator takeover, a split-brain peer — or the
  ``lease_stolen`` chaos fault), the thread must not fight for the file; it
  reports the loss via ``on_lost`` and stops renewing.  The holder is
  expected to stop writing to the state dir — a lease that can be silently
  reclaimed from a live writer is not a lease.
* **Release**: stop the heartbeat and unlink the file iff we still own it.

The lease protects against *daemons*, not against byte-level damage — the
journal's digests and the store's recovery paths handle that layer.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from typing import Callable, Dict, Optional

from ..sweep import faults

__all__ = ["LeaseHeld", "StateDirLease", "LEASE_NAME"]

LEASE_NAME = "LEASE.json"


class LeaseHeld(RuntimeError):
    """The state dir is owned by a live daemon; refusing to double-run it."""

    def __init__(self, message: str, holder: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.holder = dict(holder or {})


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:               # alive, just not ours to signal
        return True
    except OSError:
        return False
    return True


class StateDirLease:
    """One daemon's claim on a state directory (see module doc).

    ``ttl`` is the staleness horizon: a holder that misses heartbeats for a
    full TTL is presumed dead and may be taken over.  ``on_lost`` is called
    (once, from the heartbeat thread) if the lease file stops naming us.
    """

    def __init__(self, directory: str, ttl: float = 2.0,
                 on_lost: Optional[Callable[[Dict], None]] = None) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be a positive number of seconds")
        self.directory = os.path.abspath(os.fspath(directory))
        self.path = os.path.join(self.directory, LEASE_NAME)
        self.ttl = float(ttl)
        self.on_lost = on_lost
        self.owner = (f"{socket.gethostname()}:{os.getpid()}:"
                      f"{uuid.uuid4().hex[:8]}")
        self._host = socket.gethostname()
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.takeovers = 0                #: stale leases displaced on acquire

    # ------------------------------------------------------------------ #
    # file plumbing
    # ------------------------------------------------------------------ #
    def _read(self) -> Optional[Dict]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or "owner" not in payload:
                return None
            return payload
        except (OSError, ValueError):
            return None

    def _live(self, record: Dict) -> bool:
        age = time.time() - float(record.get("heartbeat_ts", 0.0))
        if age > self.ttl:
            return False
        if record.get("host") == self._host:
            # Same host: the pid is checkable, so a kill -9'd holder is
            # detectably dead now — no need to wait out the TTL.
            return _pid_alive(int(record.get("pid", 0)))
        return True

    def _write(self) -> None:
        payload = json.dumps({"owner": self.owner, "pid": os.getpid(),
                              "host": self._host,
                              "heartbeat_ts": time.time()})
        tmp_path = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self) -> "StateDirLease":
        """Claim the state dir, or raise :class:`LeaseHeld` at once.

        A live lease is refused rather than waited out — silently queueing
        two daemons is how split brain starts.
        """
        os.makedirs(self.directory, exist_ok=True)
        record = self._read()
        if record is not None and record.get("owner") != self.owner:
            if self._live(record):
                raise LeaseHeld(
                    f"state dir {self.directory!r} is leased by "
                    f"{record.get('owner')!r} (heartbeat "
                    f"{time.time() - float(record.get('heartbeat_ts', 0)):.1f}s "
                    f"ago, ttl {self.ttl:g}s); refusing to double-run it",
                    holder=record)
            self.takeovers += 1
        self._write()
        self._stop.clear()
        self._lost.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="state-dir-lease", daemon=True)
        self._thread.start()
        return self

    def _heartbeat_loop(self) -> None:
        interval = self.ttl / 4.0
        while not self._stop.wait(interval):
            record = self._read()
            if record is not None and record.get("owner") != self.owner:
                # Fencing: someone else holds the file now.  Do not fight
                # for it — report and stop renewing.
                self._lost.set()
                if self.on_lost is not None:
                    try:
                        self.on_lost(record)
                    except Exception:     # pragma: no cover - callback bug
                        pass
                return
            try:
                self._write()
            except OSError:
                # A full disk must not kill the heartbeat thread; the lease
                # just ages toward staleness until writes succeed again.
                continue
            # Chaos site: steal the lease right after a successful renewal.
            faults.lease_fault(self.path)

    @property
    def lost(self) -> bool:
        """True once the heartbeat observed a foreign owner in the file."""
        return self._lost.is_set()

    def release(self) -> None:
        """Stop heartbeating and drop the file (iff we still own it)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.ttl)
            self._thread = None
        record = self._read()
        if record is not None and record.get("owner") == self.owner:
            try:
                os.unlink(self.path)
            except OSError:               # pragma: no cover - best effort
                pass
