"""The job registry: journal-backed state machine of every service job.

Lifecycle::

    submitted --> admitted --> running --> done
                      ^           |   \\-> failed
                      ^           |   \\-> cancelled
                      |           |   \\-> suspended --(resume)--> admitted
                      |           v
                      +---- (daemon restart re-admits)

``suspended`` is the poison-job quarantine: the scheduler's per-job circuit
breaker parks a job whose runs keep killing or hanging workers (a budget of
fleet rebuilds attributable to that job), with the reason carried on the
``suspend`` event.  Unlike the other non-terminal states it is *sticky
across restarts* — ``recover_interrupted`` deliberately leaves suspended
jobs alone, because re-running a poison job on every daemon start would
defeat the quarantine.  A client-driven ``resume`` re-admits it (recovery
counter untouched: nothing crashed), and ``cancel`` works from suspension.

The journal records lifecycle only: a job's progress lives in its record
store.  The events that bring a job to rest carry its counts, ``running``
carries its store's counters, and an older journal's ``checkpoint`` lines
still replay, updating the counts and leaving the state alone.

Every transition is appended to the :class:`~repro.service.journal.JobJournal`
**before** the in-memory table changes (write-ahead discipline), and replay
applies events through the same ``_apply`` code path as live execution, so a
restarted registry is bit-identical to one that never crashed.

Idempotent submission: clients may supply a ``job_key``; a second submit with
the same key attaches to the existing job (whatever its state) instead of
creating — and because submissions are journaled, the dedup map survives
restarts.  A same-key submit whose spec differs is a conflict, not a silent
attach.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sweep import faults
from .journal import JobJournal

__all__ = ["Job", "JobRegistry", "JobStateError", "JOB_STATES",
           "TERMINAL_STATES"]

logger = logging.getLogger("repro.service")

#: Every resting state a job can occupy.
JOB_STATES = ("submitted", "admitted", "running", "suspended", "done",
              "failed", "cancelled")
#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: event name -> states it may fire from (the state machine's edges).
_ALLOWED_FROM = {
    "admit": ("submitted", "admitted", "running"),   # re-admission on restart
    "running": ("admitted",),
    "done": ("running",),
    "failed": ("running", "admitted"),
    "suspend": ("running",),                 # circuit breaker quarantine
    "resume": ("suspended",),                # explicit client un-quarantine
    "cancel_request": ("submitted", "admitted", "running", "suspended"),
    "cancelled": ("submitted", "admitted", "running", "suspended"),
}

#: the state each event lands in (cancel_request keeps the state).
_LANDS_IN = {
    "admit": "admitted",
    "running": "running",
    "done": "done",
    "failed": "failed",
    "suspend": "suspended",
    "resume": "admitted",
    "cancelled": "cancelled",
}


class JobStateError(RuntimeError):
    """An event fired from a state the machine does not allow."""


def spec_fingerprint(spec_dict: Dict) -> str:
    """Canonical identity of a submitted spec (for job-key conflict checks)."""
    return json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))


@dataclass
class Job:
    """One service job: a submitted sweep and its lifecycle bookkeeping."""

    job_id: str
    job_key: str
    spec: Dict                       #: SweepSpec.to_json_dict() payload
    state: str = "submitted"
    created_ts: float = 0.0
    updated_ts: float = 0.0
    total_runs: int = 0
    records_done: int = 0
    failed_runs: int = 0
    #: daemon restarts that re-admitted this job mid-flight.
    recoveries: int = 0
    error: str = ""
    cancel_requested: bool = False
    #: why the circuit breaker quarantined this job ("" unless suspended).
    suspend_reason: str = ""
    #: times the breaker tripped over the job's lifetime (across resumes).
    suspensions: int = 0
    #: the job's record-store counters at its last ``running`` or resting
    #: event — durability and damage-recovery visibility per job (see
    #: repro.store).
    store_stats: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {key: getattr(self, key) for key in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        """A job from a journaled dict; keys it has no field for (such as an
        older daemon's per-job ``options``) are ignored."""
        return cls(**{key: data[key] for key in cls.__dataclass_fields__
                      if key in data})

    def public_status(self) -> Dict:
        """The status payload served over the API (spec elided to its name)."""
        status = self.to_dict()
        status["sweep"] = status.pop("spec").get("name", "")
        return status


class JobRegistry:
    """In-memory job table kept consistent with the journal (WAL order).

    Thread-safe; every mutation journals first, then applies via the same
    ``_apply`` used during replay.
    """

    def __init__(self, journal: JobJournal) -> None:
        self.journal = journal
        self.jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._submit_count = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, journal: JobJournal) -> "JobRegistry":
        """Replay the journal into a live registry."""
        registry = cls(journal)
        for event in journal.replay():
            registry._apply(event.event, event.job_id, event.data)
        return registry

    def recover_interrupted(self) -> List[Job]:
        """Re-admit jobs a previous daemon left mid-flight.

        Jobs replayed into ``admitted``/``running``/``submitted`` were
        interrupted by the crash (or an unclean stop).  Each is journaled
        back to ``admitted`` — with its recovery counter bumped — and
        returned for the scheduler to queue.  Resume makes the re-run
        cheap: only the runs its record store is missing execute again.
        ``suspended`` jobs stay quarantined: the breaker tripped on their
        *behavior*, which a restart does not change.
        """
        with self._lock:
            interrupted = [job for job in self.jobs.values()
                           if job.state not in TERMINAL_STATES
                           and job.state != "suspended"]
            for job in sorted(interrupted, key=lambda j: j.created_ts):
                self.transition("admit", job.job_id,
                                recoveries=job.recoveries + 1)
                logger.warning(
                    "service: re-admitted interrupted job %s (state was "
                    "journaled mid-flight; recovery #%d)", job.job_id,
                    job.recoveries)
            return interrupted

    def maybe_compact(self, max_bytes: int) -> bool:
        """Compact the journal when it outgrew ``max_bytes`` (0 disables)."""
        with self._lock:
            if max_bytes <= 0 or self.journal.size_bytes() <= max_bytes:
                return False
            self.journal.compact(
                job.to_dict()
                for job in sorted(self.jobs.values(),
                                  key=lambda j: j.created_ts))
            return True

    # ------------------------------------------------------------------ #
    # mutations (journal first, then apply)
    # ------------------------------------------------------------------ #
    def submit(self, spec_dict: Dict, job_key: Optional[str] = None,
               total_runs: int = 0) -> Tuple[Job, bool]:
        """Create (or idempotently attach to) a job; returns (job, created).

        A duplicate ``job_key`` whose spec matches attaches without touching
        the journal — nothing changed, so nothing is logged and nothing
        recomputes.  A duplicate key with a *different* spec raises: silently
        serving job A's records for job B's spec would be corruption.
        """
        with self._lock:
            if job_key is not None and job_key in self._by_key:
                existing = self.jobs[self._by_key[job_key]]
                if spec_fingerprint(existing.spec) != \
                        spec_fingerprint(spec_dict):
                    raise JobStateError(
                        f"job key {job_key!r} is already bound to "
                        f"{existing.job_id} with a different spec — refusing "
                        "the conflicting submission")
                return existing, False
            self._submit_count += 1
            job_id = f"j{self._submit_count:06d}"
            job = Job(job_id=job_id, job_key=job_key or job_id,
                      spec=spec_dict,
                      created_ts=time.time(), updated_ts=time.time(),
                      total_runs=total_runs)
            payload = {key: value for key, value in job.to_dict().items()
                       if key != "job_id"}     # carried by the event itself
            self.journal.append("submit", job_id, **payload)
            faults.service_fault(f"registry:submit:{job_id}")
            self._apply("submit", job_id, job.to_dict())
            return self.jobs[job_id], True

    def transition(self, event: str, job_id: str, **data) -> Job:
        """Journal ``event`` for ``job_id`` and apply it (WAL order).

        The chaos site between the append and the apply is where a daemon
        kill proves the discipline: the journal already holds the event, so
        replay finishes what the crash interrupted.
        """
        with self._lock:
            job = self.get(job_id)
            allowed = _ALLOWED_FROM.get(event)
            if allowed is None:
                raise JobStateError(f"unknown job event {event!r}")
            if job.state not in allowed:
                raise JobStateError(
                    f"event {event!r} is not allowed from state "
                    f"{job.state!r} (job {job_id})")
            self.journal.append(event, job_id, **data)
            faults.service_fault(f"registry:{event}:{job_id}")
            self._apply(event, job_id, data)
            return self.jobs[job_id]

    # ------------------------------------------------------------------ #
    # the one true event application path (live and replay)
    # ------------------------------------------------------------------ #
    def _apply(self, event: str, job_id: Optional[str], data: Dict) -> None:
        if event in ("service_start", "service_stop"):
            return
        if event in ("submit", "snapshot"):
            job = Job.from_dict({**data,
                                 "job_id": job_id or data.get("job_id", "")})
            self.jobs[job.job_id] = job
            self._by_key[job.job_key] = job.job_id
            # Keep ids monotonic across replay/compaction: j000007 -> 7.
            try:
                self._submit_count = max(self._submit_count,
                                         int(job.job_id.lstrip("j")))
            except ValueError:
                pass
            return
        job = self.jobs.get(job_id or "")
        if job is None:
            logger.warning("journal replay: event %r for unknown job %r "
                           "ignored", event, job_id)
            return
        job.updated_ts = time.time()
        # Counts ride on the resting events, store counters on `running`
        # too; an older journal's `checkpoint` lines land in no state.
        if data.get("records_done") is not None:
            job.records_done = int(data["records_done"])
        if data.get("failed_runs") is not None:
            job.failed_runs = int(data["failed_runs"])
        if data.get("store_counters"):
            job.store_stats = dict(data["store_counters"])
        if event == "cancel_request":
            job.cancel_requested = True
            return
        if event == "admit":
            job.recoveries = int(data.get("recoveries", job.recoveries))
        if event == "failed":
            job.error = str(data.get("error", ""))
        if event == "suspend":
            job.suspend_reason = str(data.get("reason", ""))
            job.suspensions += 1
        if event == "resume":
            job.suspend_reason = ""
        landing = _LANDS_IN.get(event)
        if landing is not None:
            job.state = landing

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return job

    def find_by_key(self, job_key: str) -> Optional[Job]:
        with self._lock:
            job_id = self._by_key.get(job_key)
            return self.jobs.get(job_id) if job_id else None

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self.jobs.values(), key=lambda j: j.job_id)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self.jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts
