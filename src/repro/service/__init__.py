"""Sweep-as-a-service: a crash-safe daemon over the sweep machinery.

The package turns :mod:`repro.sweep` from a library call into a resident
service: clients submit :class:`~repro.sweep.spec.SweepSpec` jobs over a
thin REST API, a supervised executor fleet stays warm across jobs (a serial
fleet keeps its physics in the daemon's level cache, a pool fleet's workers
in their own), and a durable write-ahead journal of job lifecycles makes the
whole thing ``kill -9``-proof — a restarted daemon replays the journal, re-admits
interrupted jobs, and resumes them from their record stores to results
bit-identical to an uninterrupted run.

Modules:

* :mod:`~repro.service.journal` — fsync'd, per-line-checksummed JSONL WAL
  with torn-tail recovery and compaction;
* :mod:`~repro.service.registry` — the journal-backed job state machine
  (idempotent submission, restart re-admission, circuit-breaker
  ``suspended`` quarantine with an explicit resume);
* :mod:`~repro.service.lease` — single-writer state-dir ownership via a
  heartbeat lease file (stale-lease takeover, stolen-lease fencing);
* :mod:`~repro.service.daemon` — :class:`SweepService`: bounded admission
  queue, resident executor, fair-share multi-job scheduler with per-job fault
  isolation, graceful drain, disk-exhaustion degraded mode, health; per-job
  results persist in sharded record stores (:mod:`repro.store`);
* :mod:`~repro.service.api` — transport-neutral router + stdlib HTTP server;
* :mod:`~repro.service.client` — HTTP and in-process clients.
"""

from .api import ServiceAPI, ServiceHTTPServer, serve_forever
from .client import InProcessClient, ServiceClient, ServiceError
from .daemon import (
    Backpressure,
    ServiceUnavailable,
    SweepService,
    install_signal_handlers,
)
from .journal import JobJournal, JournalError, JournalEvent
from .lease import LeaseHeld, StateDirLease
from .registry import JOB_STATES, TERMINAL_STATES, Job, JobRegistry, JobStateError

__all__ = [
    "SweepService", "Backpressure", "ServiceUnavailable",
    "install_signal_handlers",
    "StateDirLease", "LeaseHeld",
    "ServiceAPI", "ServiceHTTPServer", "serve_forever",
    "ServiceClient", "InProcessClient", "ServiceError",
    "JobJournal", "JournalEvent", "JournalError",
    "Job", "JobRegistry", "JobStateError", "JOB_STATES", "TERMINAL_STATES",
]
