"""The sweep daemon: a crash-safe, fault-isolated multi-job sweep service.

:class:`SweepService` accepts :class:`~repro.sweep.spec.SweepSpec` jobs and
schedules up to four of them *concurrently* onto one executor
that lives for the daemon's lifetime.  A serial fleet (the default) runs in
the daemon process, whose level cache serves every later job's repeated
physics, as a library sweep's does.  A pool fleet (``processes > 1``) keeps
physics in its workers' own level caches, as a library pool's workers do.
Every lifecycle transition is journaled to the durable write-ahead
:class:`~repro.service.journal.JobJournal`; a job's progress is its record
store's alone, so the journal holds no per-record events.

Scheduling is round-based fair share: each round takes up to
:attr:`SweepService.FAIR_SHARE_QUANTUM` work units from every active job,
executes the mixed slice as one executor pass, and routes each outcome back
to its owning job's :class:`~repro.sweep.runner.SweepPass` — so per-job
progress, checkpointing and record stores stay fully independent while the
fleet interleaves work from all of them.

The robustness contract, end to end:

* **Crash safety** — ``kill -9`` the daemon at any instant, restart it over
  the same data directory, and every admitted job completes with records
  bit-identical to an uninterrupted run: the journal replays the job table,
  interrupted jobs are re-admitted, and each resumes from the records its
  store holds durably (deterministic seeds make re-running the tail
  harmless).
* **Fault isolation (circuit breaker)** — a *poison* job whose runs
  repeatedly kill or hang workers tears the shared fleet down for everyone.
  Each fleet rebuild is attributed to the job(s) whose runs' deadlines
  expired; a job charged with :attr:`SweepService.BREAKER_BUDGET` rebuilds
  is quarantined to the ``suspended`` registry state (its partial records
  stay durable and resumable) while healthy jobs keep executing.
  ``resume()`` lifts the quarantine explicitly; a suspended job stays
  suspended across restarts.
* **Single writer (lease)** — the state dir is fenced by a heartbeat lease
  (:class:`~repro.service.lease.StateDirLease`): a second daemon refuses to
  start over a live lease, a ``kill -9``'d holder is taken over immediately
  (same host) or after the TTL (foreign host), and a daemon that observes
  its lease stolen fences its journal writes and drains.
* **Disk exhaustion** — ``ENOSPC`` on the journal or a record store is a
  degraded mode, not a crash: writes buffer in memory, ``/health`` reports
  ``degraded`` with a reason rollup, admission returns 503, and the backlog
  drains automatically once space returns.
* **Admission control** — the job queue is bounded; a full queue rejects new
  work with :class:`Backpressure` (HTTP 429 + ``retry_after``) instead of
  accepting unbounded liabilities.
* **Idempotent submission** — a client-supplied ``job_key`` makes resubmits
  (retries after a lost response, duplicate users asking the same question)
  attach to the existing job instead of recomputing.
* **Cancellation** — a queued or suspended job cancels instantly; a running
  job drains cleanly (its store flushes, the partial result stays
  resumable).
* **Graceful shutdown** — ``shutdown()`` (wire it to SIGTERM via
  :func:`install_signal_handlers`) stops admitting, flushes every running
  job's store, journals a clean stop, and releases the lease; drained and
  queued jobs re-admit on the next start.
* **Health** — :meth:`SweepService.health` reports fleet liveness, queue
  depth, active jobs, lease state, and journal and record-store counters.

On-disk layout (everything under one ``data_dir``)::

    data_dir/
      LEASE.json               single-writer ownership (repro.service.lease)
      journal.jsonl            the write-ahead job journal (lifecycle only)
      jobs/<job_id>/records/   per-job sharded record store (see repro.store)

Per-job persistence goes through :class:`repro.store.ShardedRecordStore`:
records append as they complete and checkpoints are fsync-batched flushes,
so checkpoint cost stays flat as jobs grow.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..store import ShardedRecordStore, StoreReader
from ..sweep import faults
from ..sweep.records import SweepResult
from ..sweep.runner import Executor, PoolExecutor, SerialExecutor, SweepPass, \
    SweepRunner
from ..sweep.spec import RetryPolicy, RunSpec, SweepSpec
from .journal import JobJournal
from .lease import LeaseHeld, StateDirLease
from .registry import Job, JobRegistry, TERMINAL_STATES

__all__ = ["Backpressure", "LeaseHeld", "ServiceUnavailable",
           "StateDirLease", "SweepService", "install_signal_handlers"]

logger = logging.getLogger("repro.service")


class Backpressure(RuntimeError):
    """The job queue is full — retry after ``retry_after`` seconds (429)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"job queue is full; retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class ServiceUnavailable(RuntimeError):
    """The daemon cannot admit work right now (503): draining, fenced by a
    stolen lease, or degraded by a full disk."""


class _ActiveJob:
    """Scheduler-side state for one job currently sharing the fleet."""

    def __init__(self, job: Job, sweep_pass: SweepPass, pending_items,
                 store) -> None:
        self.job_id = job.job_id
        self.total_runs = job.total_runs
        self.sweep_pass = sweep_pass
        self.pending: deque = deque(pending_items)
        self.store = store
        self.strikes = 0              #: fleet rebuilds attributed to this job
        self.cancelled = False        #: cancel observed mid-round
        self.stalled = False          #: a finalize failed on a full disk
        self.started = time.monotonic()
        #: the records endpoint's incremental reader of this job's store
        #: (created by the first ``records`` call; dropped with the entry).
        self.reader = None

    @property
    def finished(self) -> bool:
        """Every run has an outcome (a record or a quarantined failure)."""
        result = self.sweep_pass.result
        return (result is not None and not self.pending
                and len(result.records) + len(result.failed_runs)
                >= self.total_runs)

    def counts(self) -> Dict:
        """The pass's counts, as the resting events journal them."""
        result = self.sweep_pass.result
        return {"records_done": len(result.records),
                "failed_runs": len(result.failed_runs)}

    def store_counters(self) -> Dict:
        if self.store is None:
            return {}
        return {key: value for key, value in self.store.stats().items()
                if key != "kind"}

    def close_store(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None


class SweepService:
    """The daemon: journal + registry + bounded queue + resident executor.

    Up to :attr:`MAX_CONCURRENT` jobs execute concurrently, interleaved onto
    the fleet in fair-share rounds of :attr:`FAIR_SHARE_QUANTUM` work units
    per job.  Fault isolation between them is the point: each job has its own
    record store, checkpoint cadence and circuit breaker, so one job's
    poison runs or full disk cannot take its neighbours down.  All public
    methods are thread-safe — the HTTP transport calls them from handler
    threads.

    The fleet is ``executor`` when given; otherwise a supervised
    :class:`PoolExecutor` of ``processes`` workers when ``processes > 1``,
    else a :class:`SerialExecutor` in this process.  ``retry_policy`` and
    ``run_timeout`` configure that built fleet: next to an explicit
    ``executor`` they raise ``ValueError``, as does ``run_timeout`` on a
    serial fleet, which cannot time out a run in process.
    """

    #: jobs that run concurrently on the fleet (``/health["max_concurrent"]``)
    MAX_CONCURRENT = 4
    #: work units each active job puts into one fair-share round
    FAIR_SHARE_QUANTUM = 4
    #: fleet rebuilds charged to one job before its breaker trips
    BREAKER_BUDGET = 2
    #: journal bytes past which :meth:`start` compacts the journal
    COMPACT_BYTES = 1 << 20

    def __init__(self, data_dir: str,
                 executor: Optional[Executor] = None,
                 processes: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 run_timeout: Optional[float] = None,
                 max_queue: int = 8,
                 checkpoint_every: int = 4,
                 lease_ttl: float = 2.0) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must admit at least one job")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be a positive "
                             "record count")
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.max_queue = max_queue
        self.checkpoint_every = checkpoint_every
        self.lease_ttl = lease_ttl

        if executor is not None:
            for name, value in (("processes", processes),
                                ("retry_policy", retry_policy),
                                ("run_timeout", run_timeout)):
                if value is not None:
                    raise ValueError(
                        f"{name} configures the fleet SweepService builds; "
                        "configure the explicit executor instead")
        else:
            retry_policy = retry_policy or RetryPolicy(
                max_attempts=3, backoff=0.05, jitter="decorrelated",
                max_backoff=5.0)
            if processes is not None and processes > 1:
                executor = PoolExecutor(
                    processes=processes, retry_policy=retry_policy,
                    run_timeout=run_timeout)
            elif run_timeout is not None:
                raise ValueError(
                    "run_timeout needs a pool fleet (processes > 1): a "
                    "serial fleet cannot time out a run in process")
            else:
                executor = SerialExecutor(retry_policy=retry_policy)
        self.executor = executor
        #: (job id, monotonic time) of the fleet's latest progress beat.
        self._last_progress: Tuple[Optional[str], float] = (None, 0.0)

        self.journal = JobJournal(os.path.join(data_dir, "journal.jsonl"))
        self.registry = JobRegistry.open(self.journal)

        self._queue: deque = deque()
        self._lock = threading.RLock()
        self._draining = threading.Event()
        self._wake = threading.Event()
        self._active_jobs: Dict[str, _ActiveJob] = {}
        self._durations: deque = deque(maxlen=8)
        self._scheduler: Optional[threading.Thread] = None
        self._started_ts: Optional[float] = None
        self._lease: Optional[StateDirLease] = None
        self._lease_lost = threading.Event()
        self._records_cond = threading.Condition()
        self._records_gen = 0         #: bumped on every records notification

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SweepService":
        """Acquire the lease, recover, re-admit interrupted jobs, schedule.

        Raises :class:`~repro.service.lease.LeaseHeld` when another live
        daemon owns the state dir — refusing to double-run it is the whole
        point of the lease.
        """
        if self._scheduler is not None:
            raise RuntimeError("service already started")
        if self._lease is None:
            self._lease = StateDirLease(self.data_dir, ttl=self.lease_ttl,
                                        on_lost=self._on_lease_lost)
        self._lease.acquire()
        self.registry.maybe_compact(self.COMPACT_BYTES)
        self.journal.append("service_start",
                            pid=os.getpid(), data_dir=self.data_dir)
        interrupted = self.registry.recover_interrupted()
        with self._lock:
            for job in interrupted:
                self._queue.append(job.job_id)
        if interrupted:
            logger.warning("service: recovered %d interrupted job(s): %s",
                           len(interrupted),
                           ", ".join(j.job_id for j in interrupted))
        self._started_ts = time.monotonic()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="sweep-service-scheduler",
            daemon=True)
        self._scheduler.start()
        return self

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: drain, flush, journal, release the lease.

        Safe to call more than once.  Running jobs (if any) drain at their
        next round boundary and stay ``running`` in the journal — the next
        :meth:`start` re-admits them and resumes them from their stores.
        """
        self._draining.set()
        self._wake.set()
        faults.service_fault("daemon:drain")
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.join(timeout=timeout)
        if not self._lease_lost.is_set():
            # Fenced when the lease was stolen: the thief owns the journal
            # now, and our stop event would interleave with its appends.
            self.journal.append("service_stop", pid=os.getpid())
        self.journal.close()
        if self._lease is not None:
            self._lease.release()
            self._lease = None
        self._scheduler = None

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _on_lease_lost(self, record: Dict) -> None:
        logger.error("service: state-dir lease lost to %r — fencing the "
                     "journal and draining", record.get("owner"))
        self._lease_lost.set()
        self._draining.set()
        self._wake.set()
        self._notify_records()

    def _notify_records(self) -> None:
        with self._records_cond:
            self._records_gen += 1
            self._records_cond.notify_all()

    # ------------------------------------------------------------------ #
    # client surface
    # ------------------------------------------------------------------ #
    def submit(self, spec_dict: Dict,
               job_key: Optional[str] = None) -> Tuple[Job, bool]:
        """Admit a sweep job; returns ``(job, created)``.

        Raises :class:`Backpressure` when the queue is full (duplicate
        ``job_key`` submissions are exempt — attaching to existing work
        costs nothing) and :class:`ServiceUnavailable` while draining,
        fenced by a stolen lease, or disk-degraded — a full disk must not
        be handed new durability obligations it cannot meet.  The spec is
        validated by round-tripping it through
        :class:`~repro.sweep.spec.SweepSpec` before anything is journaled.
        """
        spec = SweepSpec.from_json_dict(spec_dict)   # validates; raises early
        with self._lock:
            existing = (self.registry.find_by_key(job_key)
                        if job_key is not None else None)
            if existing is None:
                if self._draining.is_set():
                    raise ServiceUnavailable(
                        "service is draining; resubmit after restart")
                # Probe the backlog before judging: admission must resume by
                # itself the moment space returns, not wait for the next
                # scheduler append to happen to drain it.
                self.journal.flush_pending()
                disk_reasons = self._disk_degraded_reasons()
                if disk_reasons:
                    raise ServiceUnavailable(
                        "service is degraded (disk full: "
                        f"{', '.join(disk_reasons)}); retry after space "
                        "is freed")
                if len(self._queue) >= self.max_queue:
                    raise Backpressure(self._retry_after())
            job, created = self.registry.submit(
                spec.to_json_dict(), job_key=job_key, total_runs=spec.n_runs)
            if created:
                self._queue.append(job.job_id)
                self._wake.set()
            return job, created

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: instantly when queued or suspended, by draining
        at the next outcome boundary when running."""
        with self._lock:
            job = self.registry.get(job_id)
            if job.state in TERMINAL_STATES:
                return job
            self.registry.transition("cancel_request", job_id)
            if job.state in ("submitted", "admitted", "suspended"):
                # Not on the fleet: terminal immediately; the scheduler
                # skips it if it is still queued.
                job = self.registry.transition(
                    "cancelled", job_id, **self._stored_counts(job_id))
                self._notify_records()
                return job
            return job    # running: the scheduler drains it mid-round

    def resume(self, job_id: str) -> Job:
        """Lift a suspended (circuit-broken) job back into the queue.

        The quarantine is sticky by design — a poison job must not sneak
        back onto the fleet via crash recovery — so resumption is this
        explicit operator action.  Raises
        :class:`~repro.service.registry.JobStateError` (HTTP 409) unless
        the job is actually suspended.
        """
        with self._lock:
            job = self.registry.transition("resume", job_id)
            self._queue.append(job_id)
            self._wake.set()
        logger.info("service: job %s resumed from suspension", job_id)
        self._notify_records()
        return job

    def status(self, job_id: str) -> Dict:
        return self._public_status(self.registry.get(job_id))

    def jobs(self) -> List[Dict]:
        return [self._public_status(job) for job in self.registry.list_jobs()]

    def _public_status(self, job: Job) -> Dict:
        """A job's status.  Its counts are the journaled ones for a job at
        rest, the pass's for an active job, and one read of its record
        store for any other (queued, or drained by a shutdown)."""
        status = job.public_status()
        if job.state in TERMINAL_STATES or job.state == "suspended":
            return status
        entry = self._active_jobs.get(job.job_id)
        status.update(entry.counts() if entry is not None
                      else self._stored_counts(job.job_id))
        return status

    def _stored_counts(self, job_id: str) -> Dict:
        """The record and failed-run counts the job's store holds."""
        records, failed = StoreReader(self.store_path(job_id)).read()
        return {"records_done": len(records), "failed_runs": len(failed)}

    def result(self, job_id: str, include_records: bool = True) -> Dict:
        """The result payload of a terminal job (records + aggregates).

        Raises ``KeyError`` for unknown jobs and ``RuntimeError`` for jobs
        that have not reached a terminal state (the API maps it to 409).
        """
        job = self.registry.get(job_id)
        if job.state not in TERMINAL_STATES:
            raise RuntimeError(
                f"job {job_id} is {job.state}; results exist only for "
                f"terminal states {TERMINAL_STATES}")
        result = self._load_job_result(job_id)
        payload = result.summary_payload(include_records=include_records)
        payload.update(job.public_status())
        return payload

    def records(self, job_id: str, offset: int = 0, limit: int = 256,
                wait_seq: Optional[int] = None,
                wait_timeout: float = 10.0) -> Dict:
        """A page of a job's records, straight off its record store.

        Unlike :meth:`result`, this works for *any* job state — a running
        job's durable records page out while it executes (the read is
        non-mutating, so it cannot disturb the writer) — and never
        materializes aggregates, so it stays cheap for huge sweeps.

        Records are in append order (a run sits where its first record
        landed), so ``offset`` paging stays exact while the job runs, even
        when runs finish out of order.  An active job's pages come off one
        shared :class:`~repro.store.StoreReader`, so each wakeup parses only
        the lines appended since the previous read, and each line's digest
        is checked once; a job at rest is one fresh read of its store.

        Long-polling: ``wait_seq=n`` blocks (up to ``wait_timeout``
        seconds, capped at 60) until the store holds *more* than ``n``
        records, or the job comes to rest (terminal or suspended) —
        whichever is first.  A client streams a job live by advancing
        ``offset`` and ``wait_seq`` by each page's ``count``, paying one
        request per batch of records instead of one per poll interval, and
        stops at a ``resting`` page once it has ``total_records``.
        ``resting`` is judged before the records are read, so a resting
        page's ``total_records`` is final.
        """
        self.registry.get(job_id)                  # KeyError for unknown ids
        offset = max(0, int(offset))
        limit = max(1, min(int(limit), 4096))
        deadline = None
        if wait_seq is not None:
            wait_seq = max(0, int(wait_seq))
            deadline = time.monotonic() + max(0.0, min(float(wait_timeout),
                                                       60.0))
        reader = self._records_reader(job_id)
        while True:
            with self._records_cond:
                generation = self._records_gen
            job = self.registry.get(job_id)
            resting = (job.state in TERMINAL_STATES
                       or job.state == "suspended")
            records, failed = reader.read()
            if deadline is None or len(records) > wait_seq or resting \
                    or time.monotonic() >= deadline:
                break
            remaining = deadline - time.monotonic()
            with self._records_cond:
                self._records_cond.wait_for(
                    lambda: self._records_gen != generation,
                    timeout=min(0.25, max(0.01, remaining)))
        page = records[offset:offset + limit]
        return {
            "job_id": job_id, "state": job.state, "resting": resting,
            "seq": len(records),
            "total_records": len(records), "total_failed": len(failed),
            "offset": offset, "limit": limit, "count": len(page),
            "records": [record.to_json_dict() for record in page],
        }

    def _records_reader(self, job_id: str) -> StoreReader:
        """The active job's shared reader, or a fresh one for any other."""
        with self._lock:
            entry = self._active_jobs.get(job_id)
            if entry is None:
                return StoreReader(self.store_path(job_id))
            if entry.reader is None:
                entry.reader = StoreReader(self.store_path(job_id))
            return entry.reader

    def _load_job_result(self, job_id: str) -> SweepResult:
        """A job's merged result from its record store (empty before one)."""
        store_dir = self.store_path(job_id)
        if os.path.isdir(store_dir):
            return SweepResult.load_resumable(store_dir)
        return SweepResult()

    #: per-job record-store damage/repair counters rolled up into health.
    _STORE_DAMAGE_KEYS = ("torn_tail_dropped", "corrupt_lines_dropped",
                          "shards_quarantined")

    def _disk_degraded_reasons(self) -> List[str]:
        """Subsystems currently buffering writes because the disk is full."""
        reasons = []
        if self.journal.disk_degraded():
            reasons.append(
                f"journal ({self.journal.pending_lines()} buffered line(s))")
        with self._lock:
            entries = list(self._active_jobs.items())
        for job_id, entry in entries:
            store = entry.store
            if store is not None and store.disk_degraded():
                reasons.append(f"record store {job_id}")
        return reasons

    def health(self) -> Dict:
        """Liveness + load + durability counters, for monitors and tests.

        ``degraded`` aggregates every self-healing subsystem: the journal's
        recovery counters, the per-job record stores' damage counters,
        disk-full write buffering, and a stolen lease — a daemon that
        survived any of them keeps serving, but monitors can see it
        happened.  ``degraded_reasons`` names the live conditions (a stolen
        lease, a full disk) as opposed to the historical counters.  A job's
        store counters arrive with its ``running`` event, so damage the
        store's recovery repaired on open shows while the job runs.
        """
        journal_stats = vars(self.journal.stats).copy()
        journal_stats["size_bytes"] = self.journal.size_bytes()
        journal_stats["pending_lines"] = self.journal.pending_lines()
        with self._lock:
            queue_depth = len(self._queue)
            active_ids = sorted(self._active_jobs)
        record_stores: Dict = {"jobs_with_stats": 0, "compactions": 0}
        record_stores.update({key: 0 for key in self._STORE_DAMAGE_KEYS})
        for job in self.registry.list_jobs():
            if not job.store_stats:
                continue
            record_stores["jobs_with_stats"] += 1
            for key in (*self._STORE_DAMAGE_KEYS, "compactions"):
                record_stores[key] += int(job.store_stats.get(key, 0))
        reasons = []
        if self._lease_lost.is_set():
            reasons.append("lease_stolen")
        reasons.extend(f"disk_full: {what}"
                       for what in self._disk_degraded_reasons())
        degraded = bool(
            reasons
            or journal_stats.get("torn_tail_dropped")
            or journal_stats.get("corrupt_lines")
            or journal_stats.get("disk_full_errors")
            or any(record_stores[key] for key in self._STORE_DAMAGE_KEYS))
        lease = self._lease
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "degraded": degraded,
            "degraded_reasons": reasons,
            "uptime_s": (round(time.monotonic() - self._started_ts, 3)
                         if self._started_ts is not None else None),
            "queue_depth": queue_depth,
            "max_queue": self.max_queue,
            "active_job": active_ids[0] if active_ids else None,
            "active_jobs": active_ids,
            "max_concurrent": self.MAX_CONCURRENT,
            "jobs": self.registry.counts(),
            "fleet": self._fleet_liveness(),
            "scheduler_alive": (self._scheduler is not None
                                and self._scheduler.is_alive()),
            "lease": (None if lease is None else
                      {"owner": lease.owner, "lost": lease.lost,
                       "takeovers": lease.takeovers, "ttl": lease.ttl}),
            "journal": journal_stats,
            "record_stores": record_stores,
        }

    def _fleet_liveness(self) -> Dict:
        """The executor's shape and its latest progress beat: a fleet that
        stops beating while jobs are active is wedged."""
        job_id, ts = self._last_progress
        executor = self.executor
        return {
            "executor": type(executor).__name__,
            "supervised": executor.supervised,
            "processes": executor.processes,
            "last_progress_job": job_id,
            "last_progress_age_s": (round(time.monotonic() - ts, 3)
                                    if job_id is not None else None),
        }

    def store_path(self, job_id: str) -> str:
        """The job's sharded record-store directory (see :mod:`repro.store`)."""
        return os.path.join(self.data_dir, "jobs", job_id, "records")

    def wait_for(self, job_id: str, timeout: float = 60.0,
                 poll: float = 0.02,
                 states: Optional[Tuple[str, ...]] = None) -> Dict:
        """Block until ``job_id`` reaches one of ``states`` (default: any
        terminal state) — a testing/demo aid.  Pass
        ``states=("suspended", *TERMINAL_STATES)`` to also return when the
        circuit breaker quarantines the job."""
        states = TERMINAL_STATES if states is None else states
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in states:
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s")
            time.sleep(poll)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _retry_after(self) -> float:
        """Backpressure hint: queue depth times the recent mean job time."""
        mean = (sum(self._durations) / len(self._durations)
                if self._durations else 1.0)
        with self._lock:
            waiting = len(self._queue) + len(self._active_jobs)
        return round(max(0.1, mean * max(1, waiting)), 3)

    def _scheduler_loop(self) -> None:
        try:
            while not self._draining.is_set():
                self._admit_waiting()
                with self._lock:
                    idle = not self._active_jobs
                if idle:
                    self._wake.wait(0.05)
                    self._wake.clear()
                    continue
                try:
                    self._run_round()
                except Exception:        # pragma: no cover - defensive
                    logger.exception(
                        "service: scheduler round crashed; active jobs stay "
                        "journaled for recovery")
                    time.sleep(0.05)
        finally:
            self._drain_all()

    def _admit_waiting(self) -> None:
        """Move queued jobs into the active set up to
        :attr:`MAX_CONCURRENT`."""
        while True:
            with self._lock:
                if len(self._active_jobs) >= self.MAX_CONCURRENT \
                        or not self._queue:
                    return
                job_id = self._queue.popleft()
                if job_id in self._active_jobs:
                    continue             # duplicate queue entry
            job = self.registry.get(job_id)
            if job.state != "admitted":
                # Cancelled or re-suspended while queued, or a duplicate
                # entry for a job that already ran (recovery re-queues what
                # a pre-start submit already queued).
                continue
            try:
                entry = self._activate(job)
            except Exception:            # pragma: no cover - defensive
                logger.exception("service: job %s failed to activate; it "
                                 "stays journaled for recovery", job_id)
                continue
            if entry is not None:
                with self._lock:
                    self._active_jobs[job_id] = entry

    def _activate(self, job: Job) -> Optional[_ActiveJob]:
        """Open one admitted job's record store, plan its pending work, then
        journal ``running`` with the store's counters.  A failure before
        that lands the job in ``failed``; a crash leaves it ``admitted``."""
        job_id = job.job_id
        store_dir = self.store_path(job_id)
        os.makedirs(os.path.dirname(store_dir), exist_ok=True)
        job_store = None
        try:
            # Spec parsing sits inside the try: a journaled spec that no
            # longer round-trips (schema drift across versions, say) must
            # land the job in `failed`, not wedge it.  So does the store
            # open — an unrecoverably damaged store directory fails the job
            # visibly instead of wedging the scheduler.
            spec = SweepSpec.from_json_dict(job.spec)
            job_store = ShardedRecordStore(store_dir, spec=spec)
            sweep_pass = SweepPass(SweepRunner(spec, self.executor),
                                   store=job_store,
                                   checkpoint_every=self.checkpoint_every)
            pending_items = sweep_pass.prepare()
        except Exception as error:
            logger.exception("service: job %s failed", job_id)
            if job_store is not None:
                job_store.close()
            self.registry.transition("failed", job_id, error=repr(error))
            self._notify_records()
            return None
        entry = _ActiveJob(job, sweep_pass, pending_items, job_store)
        try:
            self.registry.transition("running", job_id,
                                     store_counters=entry.store_counters())
        except Exception:
            entry.close_store()
            raise

        def on_progress(_progress, job_id=job_id) -> None:
            self._last_progress = (job_id, time.monotonic())

        sweep_pass.progress = on_progress
        return entry

    def _run_round(self) -> None:
        """One fair-share round: slice, execute, route, judge.

        Takes up to :attr:`FAIR_SHARE_QUANTUM` runs from every active job
        (round-robin), streams the mixed slice through one executor pass of
        the jobs' :attr:`SweepPass.work_fn`, routes each outcome to its
        owning job's :class:`SweepPass`, then settles the round: breakers
        charged from the pass's fleet-rebuild attribution, cancelled jobs
        drained, complete jobs committed.  A round with nothing to run
        commits what it can, then waits for the scheduler's idle tick, so a
        job whose seal a full disk refused retries without spinning.
        """
        with self._lock:
            round_ids = list(self._active_jobs)
        # Cancel sweep first: a job cancelled while between rounds drains
        # without costing it another slice.
        for job_id in round_ids:
            if self.registry.get(job_id).cancel_requested:
                self._cancel_job(job_id)
        slice_runs: List[RunSpec] = []
        owners: Dict[str, str] = {}
        with self._lock:
            round_ids = list(self._active_jobs)
        for job_id in round_ids:
            entry = self._active_jobs.get(job_id)
            if entry is None:
                continue
            taken = 0
            while entry.pending and taken < self.FAIR_SHARE_QUANTUM:
                run = entry.pending[0]
                if run.run_id in owners:
                    # Two jobs sharing a run id (same spec name) cannot fly
                    # in one slice — ownership would be ambiguous.  Defer
                    # this job's remainder a round.
                    break
                entry.pending.popleft()
                slice_runs.append(run)
                owners[run.run_id] = job_id
                # Every job's pass binds the same per-run work function.
                work_fn = entry.sweep_pass.work_fn
                taken += 1
        if not slice_runs:
            for job_id in round_ids:
                entry = self._active_jobs.get(job_id)
                if entry is not None and not entry.pending:
                    self._finish_job(job_id)
            self._wake.wait(0.05)
            self._wake.clear()
            return
        stream = self.executor.imap_unordered(work_fn, slice_runs)
        interrupted = False
        try:
            for outcome in stream:
                self._route(outcome, owners.get(outcome.run_id))
                if self._draining.is_set():
                    interrupted = True
                    break
        finally:
            stream.close()
        self._charge_breakers(owners)
        for job_id in round_ids:
            entry = self._active_jobs.get(job_id)
            if entry is None:
                continue
            if entry.cancelled \
                    or self.registry.get(job_id).cancel_requested:
                self._cancel_job(job_id)
            elif entry.strikes >= self.BREAKER_BUDGET \
                    and not entry.finished:
                self._suspend_job(job_id)
            elif not interrupted and entry.finished:
                self._finish_job(job_id)

    def _route(self, outcome, owner: Optional[str]) -> None:
        """Fold one outcome into its owning job's pass."""
        entry = self._active_jobs.get(owner) if owner is not None else None
        if entry is None or entry.cancelled:
            return
        if self.registry.get(owner).cancel_requested:
            # Stop folding this job's outcomes right here: its durable
            # records freeze at the cancel point, like the old per-outcome
            # drain.
            entry.cancelled = True
            return
        try:
            entry.sweep_pass.consume(outcome)
        except Exception as error:
            logger.exception("service: job %s failed consuming run %s",
                             owner, outcome.run_id)
            self._fail_job(owner, error)
            return
        self._notify_records()

    def _charge_breakers(self, owners: Dict[str, str]) -> None:
        """Attribute the pass's fleet rebuilds to the jobs that caused them.

        ``ExecutorStats.rebuild_victims`` lists, per teardown, the run ids
        whose deadlines expired (the suspects — innocent in-flight runs are
        requeued but not listed).  Each teardown charges one strike to every
        distinct owning job; :attr:`BREAKER_BUDGET` strikes trip the
        breaker.
        """
        for victim_ids in list(self.executor.stats.rebuild_victims):
            culprits = {owners[rid] for rid in victim_ids if rid in owners}
            for job_id in culprits:
                entry = self._active_jobs.get(job_id)
                if entry is None:
                    continue
                entry.strikes += 1
                logger.warning(
                    "service: job %s charged with a fleet rebuild "
                    "(strike %d/%d)", job_id, entry.strikes,
                    self.BREAKER_BUDGET)

    def _pop_active(self, job_id: str) -> Optional[_ActiveJob]:
        with self._lock:
            entry = self._active_jobs.pop(job_id, None)
        if entry is not None:
            self._durations.append(time.monotonic() - entry.started)
        return entry

    def _settle_store(self, entry: _ActiveJob, stopped: bool) -> Dict:
        """Finalize a departing job's persistence; returns store counters."""
        try:
            entry.sweep_pass.finalize(stopped=stopped)
        finally:
            counters = entry.store_counters()
            entry.close_store()
        return counters

    def _rest(self, entry: _ActiveJob, event: str, stopped: bool,
              **data) -> Dict:
        """Settle a departing job's store and journal the event that brings
        it to rest with its counts; returns the counts.

        The job leaves the active set last, so until the event lands its
        status reads its pass, never its store mid-commit.
        """
        try:
            counters = self._settle_store(entry, stopped=stopped)
            counts = entry.counts()
            self.registry.transition(event, entry.job_id,
                                     store_counters=counters, **counts,
                                     **data)
        finally:
            self._pop_active(entry.job_id)
        self._notify_records()
        return counts

    def _finish_job(self, job_id: str) -> None:
        """Commit one complete job: flush, seal, journal ``done``.

        A full disk at the finish line must not fail the job.  Until the
        seal succeeds the job stays active with its store open, so the
        store's backlog shows in ``degraded_reasons`` and holds admission
        at 503, and every later round retries the seal.  Any other
        finalize failure fails the job.
        """
        entry = self._active_jobs.get(job_id)
        if entry is None:
            return
        try:
            entry.sweep_pass.finalize(stopped=False)
        except Exception as error:
            if not entry.store.disk_degraded():
                logger.exception("service: job %s failed to finalize",
                                 job_id)
                self._fail_job(job_id, error)
                return
            if not entry.stalled:
                logger.warning(
                    "service: job %s could not finalize (%r); retrying "
                    "until the disk recovers", job_id, error)
            entry.stalled = True
            return
        entry.sweep_pass.summarize()
        faults.service_fault(f"daemon:pre_commit:{job_id}")
        counts = self._rest(entry, "done", stopped=False)
        logger.info("service: job %s done (%d records, %d quarantined)",
                    job_id, counts["records_done"], counts["failed_runs"])

    def _cancel_job(self, job_id: str) -> None:
        entry = self._active_jobs.get(job_id)
        if entry is None:
            return
        if entry.finished:
            # The work beat the cancellation: commit it rather than discard
            # a complete, durable result.
            self._finish_job(job_id)
            return
        counts = self._rest(entry, "cancelled", stopped=True)
        logger.info("service: job %s cancelled after draining (%d/%d "
                    "records stored)", job_id, counts["records_done"],
                    entry.total_runs)

    def _suspend_job(self, job_id: str) -> None:
        """Quarantine a poison job; its partial records stay resumable."""
        entry = self._active_jobs.get(job_id)
        if entry is None:
            return
        reason = (f"circuit breaker: {entry.strikes} fleet rebuild(s) "
                  f"attributed to this job (budget {self.BREAKER_BUDGET})")
        counts = self._rest(entry, "suspend", stopped=True, reason=reason)
        logger.warning(
            "service: job %s suspended — %s; %d/%d records stay durable "
            "and resumable", job_id, reason, counts["records_done"],
            entry.total_runs)

    def _fail_job(self, job_id: str, error: Exception) -> None:
        """Journal ``failed`` with the job's counts, after a best-effort
        settle of its store."""
        entry = self._active_jobs[job_id]
        try:
            self._settle_store(entry, stopped=True)
        except Exception:                # pragma: no cover - best effort
            logger.exception("service: job %s store finalize failed during "
                             "failure handling", job_id)
        try:
            self.registry.transition("failed", job_id, error=repr(error),
                                     **entry.counts())
        finally:
            self._pop_active(job_id)
        self._notify_records()

    def _drain_all(self) -> None:
        """Shutdown path: flush every active job's store, leave it
        ``running`` (or end it ``cancelled`` when a cancel was requested).

        The next :meth:`start` re-admits drained jobs and resumes them from
        their stores, which until then also serve their status counts.  When
        the lease was stolen the journal is fenced — stores still flush
        (they are per-job files the thief has not touched yet), but no
        transitions are appended.
        """
        fenced = self._lease_lost.is_set()
        with self._lock:
            job_ids = list(self._active_jobs)
        for job_id in job_ids:
            entry = self._pop_active(job_id)
            if entry is None:
                continue
            try:
                counters = self._settle_store(entry, stopped=True)
            except Exception:            # pragma: no cover - best effort
                logger.exception("service: job %s store flush failed during "
                                 "drain", job_id)
                continue
            if fenced:
                continue
            counts = entry.counts()
            if self.registry.get(job_id).cancel_requested:
                self.registry.transition("cancelled", job_id,
                                         store_counters=counters, **counts)
                continue
            logger.info("service: job %s drained at %d/%d records for "
                        "shutdown", job_id, counts["records_done"],
                        entry.total_runs)
        self._notify_records()


def install_signal_handlers(service: SweepService,
                            signals: Tuple[int, ...] = (signal.SIGTERM,
                                                        signal.SIGINT),
                            on_shutdown: Optional[Callable[[], None]] = None,
                            ) -> None:
    """Wire SIGTERM/SIGINT to a graceful drain (call from the main thread).

    The handler only *requests* the drain (signal handlers must not block);
    the foreground loop — e.g. :func:`repro.service.api.serve_forever` —
    notices ``service.draining`` and performs the actual shutdown.
    """
    def _handler(signum, frame):              # pragma: no cover - signal path
        logger.warning("service: received signal %d; draining", signum)
        service._draining.set()
        service._wake.set()
        if on_shutdown is not None:
            on_shutdown()

    for signum in signals:
        signal.signal(signum, _handler)
