"""Sweep execution: serial and multiprocess executors plus the runner.

The runner turns a :class:`~repro.sweep.spec.SweepSpec` into
:class:`~repro.sweep.records.RunRecord`s through a pluggable *executor*:

* :class:`SerialExecutor` — in-process loop; zero overhead, the baseline;
* :class:`PoolExecutor` — ``multiprocessing.Pool`` with chunked dispatch.
  Runs are embarrassingly parallel (independent simulations), so the pool
  hands the picklable :class:`RunSpec`s to worker processes through one
  lazy ``apply_async`` loop, never more chunks in flight than workers; each
  worker rebuilds (and memoizes) compiled workloads from their specs — see
  :mod:`repro.sweep.builders`.

Both executors stream outcomes through one interface, the generator
``imap_unordered``.  Given no executor, :class:`SweepRunner` and
:func:`run_sweeps` run on a :class:`PoolExecutor` with one worker per CPU
this process may use (its affinity mask, else ``os.cpu_count()``), or on
:class:`SerialExecutor` when that is a single CPU, where a pool only adds
fork and IPC cost (and inside a daemonic process such as a pool worker,
which may not fork).  The default pool is unsupervised — a failing run
raises through with its own type, as under serial execution — and lives for
one pass: it is terminated and joined before ``run()`` returns, so no worker
outlives the call.

Because every run's seed is a pure function of ``(master_seed, point_index,
seed_index)`` and workload construction is deterministic, both executors
produce *bit-identical* records for the same spec; ``tests/test_sweep.py``
enforces this.

Persistence, checkpointing and resume go through one authority, a record
store (``store``; see :mod:`repro.store`).  The runner consumes records
through the executors' streaming ``imap_unordered`` interface and appends
each outcome to the store as it completes; ``checkpoint_every`` completed
records trigger an fsync-batched flush whose cost does not grow with sweep
size, any executor error or interruption flushes what completed, and a
completed pass seals the store.  Resume: a non-empty store's records are the
resume set — the runner re-executes only runs whose records are missing.
Aggregates of a resumed sweep equal a fresh run's exactly (see
:mod:`repro.sweep.records`).

Fault tolerance (supervision): both executors accept a
:class:`~repro.sweep.spec.RetryPolicy`; :class:`PoolExecutor` additionally
accepts a per-run wall-clock ``run_timeout``.  Passing either arms the
*supervised* path — run attempts that raise are retried in place, timed-out
or lost chunks (a hung run, a worker process that died mid-chunk) tear the
fleet down, requeue only the unfinished runs, and rebuild — and runs that
exhaust their attempt budget are quarantined as
:class:`~repro.sweep.records.FailedRun`s in ``SweepResult.failed_runs``
instead of aborting the sweep.  Without either argument both executors keep
their historical raise-through behavior; the pool runs the same dispatch
loop either way, with no deadlines and no retries.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import signal
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Tuple, Union

if TYPE_CHECKING:                             # pragma: no cover - typing only
    from ..store.sharded import ShardedRecordStore

from . import faults
from .builders import build_compiled_workload
from .records import FailedRun, RunRecord, SweepResult
from .spec import EnsembleSpec, RetryPolicy, RunSpec, SweepSpec, \
    group_into_ensembles

__all__ = ["ExecutorStats", "SerialExecutor", "PoolExecutor", "SweepPass",
           "SweepProgress", "SweepRunner", "execute_ensemble", "execute_run",
           "execute_work", "run_sweeps"]

#: Progress/throughput log channel (enable with the standard logging config,
#: e.g. ``logging.getLogger("repro.sweep").setLevel(logging.INFO)``).
logger = logging.getLogger("repro.sweep")

#: One executor outcome: a completed record or a quarantined failure.
RunOutcome = Union[RunRecord, FailedRun]

#: One executor work unit: a single run or a batched ensemble of runs.
WorkItem = Union[RunSpec, EnsembleSpec]


def _member_runs(item: WorkItem) -> List[RunSpec]:
    """The individual runs behind a work item (one for a plain run)."""
    return list(item.runs) if isinstance(item, EnsembleSpec) else [item]


@dataclass
class ExecutorStats:
    """Supervision counters of one executor pass (reset per pass).

    ``retries`` counts in-process retry attempts the executor itself could
    observe (every serial retry; for the pool, only parent-side re-dispatches
    — a worker's in-worker retries happen across the process boundary).
    ``requeues`` counts runs re-dispatched after a deadline expiry or a chunk
    failure, ``rebuilds`` counts fleet teardowns.  Surfaced in the runner's
    checkpoint progress lines and the service's job heartbeats, so a long
    sweep reports degradation while it happens instead of at the post-mortem.

    ``rebuild_victims`` attributes each fleet rebuild: one entry per
    teardown, listing the run ids of the chunks whose deadline *expired*
    (the suspects — innocent in-flight chunks are requeued but not listed).
    The service's per-job circuit breaker folds these back onto jobs: a job
    whose runs keep appearing here is poisoning the shared fleet.
    """

    retries: int = 0
    requeues: int = 0
    rebuilds: int = 0
    rebuild_victims: List[List[str]] = field(default_factory=list)


@dataclass(frozen=True)
class SweepProgress:
    """One streaming progress snapshot (see :meth:`SweepRunner.run`)."""

    completed: int          #: outcomes consumed this pass (records + failed)
    total: int              #: pending work this pass (after resume skipping)
    records: int            #: records in the merged result so far
    failed: int             #: quarantined runs in the merged result so far
    runs_per_s: float       #: this pass's completion throughput
    checkpointed: bool      #: True when this outcome triggered a checkpoint


def _as_outcomes(result) -> List[RunOutcome]:
    """Normalize a work-item result: one outcome, or an ensemble's list."""
    return result if isinstance(result, list) else [result]


def execute_run(run: RunSpec) -> RunRecord:
    """Simulate one run and summarize it (the unit of executor work).

    Module-level so :mod:`multiprocessing` can pickle it by reference; builds
    the compiled workload through the per-process cache.
    """
    from ..sim.runtime import PIMRuntime
    faults.maybe_fail_run(run.run_id)     # chaos-harness hook; no-op unarmed
    compiled = build_compiled_workload(run.workload)
    result = PIMRuntime(compiled, run.runtime_config()).run()
    return RunRecord.from_simulation(run, result)


def execute_ensemble(ensemble: EnsembleSpec,
                     policy: Optional[RetryPolicy] = None,
                     first_attempt: int = 1) -> List[RunOutcome]:
    """Simulate one batched ensemble; one outcome per member run, in order.

    The batch path (:func:`repro.sim.ensemble.run_ensemble`) amortizes
    activity generation and physics derivation across the members and is
    bit-identical to per-run execution, so records are interchangeable with
    :func:`execute_run`'s.  Supervision stays *per member*: each member's
    chaos hook fires under its own ``run_id`` before the batch (fault firing
    is a pure function of ``(plan, run_id, attempt)``, so the probe matches
    what :func:`execute_run` would see), and members whose hook fires — or
    every member, if the batch itself raises — fall back to per-run
    execution: retried and quarantined under ``policy`` when one is given,
    raising through otherwise (the unsupervised serial semantics).
    """
    from ..sim.ensemble import run_ensemble
    runs = list(ensemble.runs)
    healthy: List[RunSpec] = []
    fallback: List[RunSpec] = []
    faults.set_current_attempt(first_attempt)
    try:
        for run in runs:
            try:
                faults.maybe_fail_run(run.run_id)
            except Exception:
                fallback.append(run)
            else:
                healthy.append(run)
    finally:
        faults.set_current_attempt(1)
    outcomes: Dict[str, RunOutcome] = {}
    if healthy:
        try:
            compiled = build_compiled_workload(healthy[0].workload)
            results = run_ensemble(
                compiled, [run.runtime_config() for run in healthy])
        except Exception as error:
            logger.warning(
                "ensemble %s: batched execution failed (%r); falling back "
                "to per-run execution for its %d member(s)",
                ensemble.run_id, error, len(healthy))
            fallback.extend(healthy)
        else:
            for run, result in zip(healthy, results):
                outcomes[run.run_id] = RunRecord.from_simulation(run, result)
    for run in fallback:
        if policy is None:
            outcomes[run.run_id] = execute_run(run)
        else:
            outcomes[run.run_id] = _attempt_run(
                execute_run, run, first_attempt, policy)
    return [outcomes[run.run_id] for run in runs]


def execute_work(item: WorkItem) -> Union[RunRecord, List[RunOutcome]]:
    """Executor work dispatch: a plain run, or a batched ensemble of runs.

    Module-level (picklable by reference) so the pool executors can map it;
    consumers flatten the per-ensemble outcome lists back into run records.
    """
    if isinstance(item, EnsembleSpec):
        return execute_ensemble(item)
    return execute_run(item)


def _attempt_run(fn: Callable[[RunSpec], RunRecord], run: WorkItem,
                 first_attempt: int, policy: RetryPolicy,
                 on_retry: Optional[Callable[[], None]] = None,
                 ) -> Union[RunOutcome, List[RunOutcome]]:
    """Execute one work item under a retry policy, from ``first_attempt``.

    Retries exceptions in place (with the policy's backoff, jittered per
    ``run_id`` when the policy says so) and returns a :class:`FailedRun` when
    the attempt budget is exhausted.  Shared by the serial executor and the
    pool workers, so serial and pool sweeps quarantine identically.  An
    :class:`EnsembleSpec` delegates to :func:`execute_ensemble`, which applies
    the same retry/quarantine semantics per *member* and returns a list of
    outcomes.  ``on_retry`` (when observable — serial execution) is called
    once per re-attempt so the executor's stats can count them.
    """
    if isinstance(run, EnsembleSpec):
        return execute_ensemble(run, policy=policy, first_attempt=first_attempt)
    attempt = first_attempt
    while True:
        if attempt > first_attempt and on_retry is not None:
            on_retry()
        delay = policy.delay_before(attempt, run.run_id)
        if delay > 0:
            time.sleep(delay)
        faults.set_current_attempt(attempt)
        try:
            return fn(run)
        except Exception as error:
            logger.warning("run %s attempt %d/%d failed: %r", run.run_id,
                           attempt, policy.max_attempts, error)
            if attempt >= policy.max_attempts:
                # The final attempt's traceback rides along (bounded tail)
                # so quarantined runs stay diagnosable from the checkpoint;
                # with a chaos plan armed, so does the fault attribution.
                return FailedRun.from_run(
                    run, repr(error), attempts=attempt,
                    traceback=traceback_module.format_exc(),
                    fault=faults.describe_run_faults(run.run_id, attempt))
            attempt += 1
        finally:
            faults.set_current_attempt(1)


class SerialExecutor:
    """Run every simulation in the calling process, in spec order.

    With a :class:`~repro.sweep.spec.RetryPolicy`, failed attempts are
    retried and exhausted runs yielded as :class:`FailedRun`s — the same
    quarantine semantics as the supervised pool (a hung run cannot be
    interrupted in-process, so wall-clock timeouts are pool-only).  Without
    one, exceptions propagate as they always have.
    """

    #: worker count, as for :class:`PoolExecutor`: this process alone.
    processes = 1

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = retry_policy
        #: supervision counters of the most recent pass (see ExecutorStats).
        self.stats = ExecutorStats()

    @property
    def supervised(self) -> bool:
        return self.retry_policy is not None

    def imap_unordered(self, fn: Callable[[RunSpec], RunRecord],
                       runs: Sequence[WorkItem]) -> Iterator[RunOutcome]:
        """Yield records one by one as they complete (spec order here).

        Ensemble work items flatten into their per-member outcomes in place.
        """
        self.stats = ExecutorStats()
        if self.retry_policy is None:
            for run in runs:
                yield from _as_outcomes(fn(run))
            return

        def count_retry() -> None:
            self.stats.retries += 1

        for run in runs:
            yield from _as_outcomes(_attempt_run(fn, run, 1, self.retry_policy,
                                                 on_retry=count_retry))


def _run_chunk(args) -> List[RunOutcome]:
    """Worker-side chunk (top-level so it pickles by reference).

    ``items`` carries ``(run, first_attempt)`` pairs — the supervisor bumps
    ``first_attempt`` when it requeues a run after a timeout or worker death,
    so the total attempt budget spans pool rebuilds.  With no ``policy`` each
    run is called bare and its exception fails the chunk; with one, each run
    goes through the retry loop and quarantine.
    """
    fn, items, policy = args
    if policy is None:
        return [fn(run) for run, _ in items]
    return [_attempt_run(fn, run, first_attempt, policy)
            for run, first_attempt in items]


def _init_worker(directory: Optional[str], record_events: bool) -> None:
    """Pool-worker initializer: default SIGTERM action, shared physics store.

    A forked worker inherits the parent's Python SIGTERM handler.  When the
    parent turns SIGTERM into a drain flag (the daemon's
    ``install_signal_handlers``), ``Pool.terminate()`` cannot stop such a
    worker and its ``join`` blocks forever, so every worker restores the
    default action.  With a ``directory`` the worker also attaches the shared
    physics store.  Top-level so it pickles by reference under any start
    method; runs once per worker process before the first chunk.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if directory is not None:
        from ..sim.level_cache import attach_shared_store
        attach_shared_store(directory, record_events=record_events)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count.

    The one sizing rule for pools: :class:`PoolExecutor`'s ``processes``
    default and the runners' choice of a default executor both read it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


class PoolExecutor:
    """Chunked ``multiprocessing.Pool`` dispatch over worker processes.

    ``processes`` defaults to the CPUs this process may use (its affinity
    mask, else ``os.cpu_count()``); ``chunksize`` defaults to
    ``ceil(n_runs / (4 * processes))`` so each worker receives a handful of
    chunks (amortizing IPC without starving the tail).  Chunks are
    *workload-aligned* — a chunk never spans two distinct
    :class:`~repro.sweep.spec.WorkloadSpec`s — so a worker only constructs the
    workloads of the chunks it actually processes: distinct workloads build in
    parallel across workers, with duplicate builds bounded by the number of
    chunks per workload.

    Every pass runs one dispatch loop (:meth:`imap_unordered`): chunks go
    out through ``apply_async`` lazily, never more in flight than workers, so
    a dispatched chunk is actually executing.  Workers start under the
    platform's default start method — ``fork`` on Linux.  Under ``spawn``
    workers import :mod:`repro.sweep.builders` fresh: the built-in
    ``"model"``/``"synthetic"`` builders are available, but a custom builder
    registered from a script is not — register it at import time of a module
    the workers also import.

    ``shared_cache_dir`` arms the cross-worker physics store
    (:mod:`repro.sim.shared_store`): every worker attaches the directory as
    its level-cache backend at initializer time, so the fleet derives each
    per-(group, level) physics entry once instead of once per worker, and
    attaches everything else as read-only ``np.memmap`` views.  The path is
    created if missing and left in place.  Works under ``fork`` and
    ``spawn`` alike — the store is process-neutral by design.
    ``shared_cache_events=False`` turns off the store's per-entry reuse
    audit log (``stats.jsonl``) — recommended for long-lived persistent
    store directories that do not need the cross-worker accounting.

    Without ``retry_policy`` or ``run_timeout`` a chunk runs its runs bare:
    a run's exception re-raises in the consumer with its own type, as under
    serial execution.  Either argument arms *supervision* on the same loop.
    ``multiprocessing.Pool`` silently loses a chunk when the worker running
    it dies (the pool respawns the worker but the in-flight task's result
    never arrives), so supervision is deadline-based: each dispatched chunk
    gets a wall-clock deadline of ``run_timeout`` seconds per run; an
    expired chunk — hung run or dead worker alike — tears the fleet down,
    requeues its runs as singletons with their attempt count bumped,
    requeues the innocent in-flight chunks unchanged, and rebuilds the pool.
    Exceptions raised *inside* a worker are retried in-worker without any
    teardown.  Runs exhausting ``retry_policy.max_attempts`` (default: 3
    with ``run_timeout`` alone, since hung runs are usually transient) come
    back as :class:`~repro.sweep.records.FailedRun`s.  Detecting kills/hangs
    requires ``run_timeout``; ``retry_policy`` alone only supervises raised
    exceptions.
    """

    def __init__(self, processes: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 shared_cache_dir: Optional[str] = None,
                 shared_cache_events: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 run_timeout: Optional[float] = None) -> None:
        if processes is not None and processes <= 0:
            raise ValueError("processes must be positive")
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be positive seconds")
        self.processes = processes or _usable_cpus()
        self.chunksize = chunksize
        self.shared_cache_dir = shared_cache_dir
        self.shared_cache_events = shared_cache_events
        self.retry_policy = retry_policy
        self.run_timeout = run_timeout
        #: supervision counters of the most recent pass.  Parent-side only:
        #: ``requeues`` and ``rebuilds`` are exact; in-worker retries are
        #: invisible across the process boundary and count 0 here.
        self.stats = ExecutorStats()

    @property
    def supervised(self) -> bool:
        return self.retry_policy is not None or self.run_timeout is not None

    def _make_pool(self, processes: int):
        """A worker pool; see :func:`_init_worker` for each worker's setup."""
        if self.shared_cache_dir is not None:
            os.makedirs(self.shared_cache_dir, exist_ok=True)
        return multiprocessing.Pool(processes=processes,
                                    initializer=_init_worker,
                                    initargs=(self.shared_cache_dir,
                                              self.shared_cache_events))

    def imap_unordered(self, fn: Callable[[RunSpec], RunRecord],
                       runs: Sequence[WorkItem]) -> Iterator[RunOutcome]:
        """Yield outcomes as worker chunks complete, in completion order.

        The one dispatch loop (see the class docstring).  At most
        ``processes`` chunks are ever in flight, so every dispatched chunk
        holds a worker and its deadline (``run_timeout`` x chunk length,
        plus the policy's backoff allowance) bounds real execution, not
        queue wait.  A returning chunk's ``apply_async`` callback puts its
        key on a completion queue, on which the loop blocks until the
        nearest deadline; keys are unique within the pass, so a late
        callback from a torn-down pool is ignored.  Each wakeup finishes
        its bookkeeping (requeues, an expired chunk's teardown) and the
        freed worker slots are refilled before its outcomes are yielded, so
        the workers keep computing while the consumer handles them.
        Outcome order is *not* the spec order — sweep aggregation is
        order-free by contract.
        """
        self.stats = ExecutorStats()
        runs = list(runs)
        if not runs:
            return
        policy = self.retry_policy
        if policy is None and self.run_timeout is not None:
            policy = RetryPolicy()
        processes = min(self.processes, len(runs))
        chunksize = self.chunksize or max(1, ceil(len(runs) / (4 * processes)))
        # Each queue entry is one chunk: [(run, first_attempt), ...].
        # Workload-aligned chunking (expand() emits each workload's runs
        # contiguously, so this groups without reordering results).
        queue: deque = deque()
        for _, group in itertools.groupby(runs, key=lambda run: run.workload):
            items = [(run, 1) for run in group]
            queue.extend(items[start:start + chunksize]
                         for start in range(0, len(items), chunksize))
        returned: SimpleQueue = SimpleQueue()   # keys of returned chunks
        keys = itertools.count()
        in_flight: Dict[int, tuple] = {}    # key -> (handle, items, deadline)
        pool = self._make_pool(processes)
        ready: List[RunOutcome] = []    # the last wakeup's outcomes
        try:
            while True:
                # Refill the free slots before the consumer takes the last
                # wakeup's outcomes, so no worker idles while it appends or
                # flushes them.
                while queue and len(in_flight) < processes:
                    items = queue.popleft()
                    key = next(keys)
                    wake = lambda _, key=key: returned.put(key)
                    handle = pool.apply_async(
                        _run_chunk, ((fn, items, policy),),
                        callback=wake, error_callback=wake)
                    deadline = None
                    if self.run_timeout is not None:
                        # An ensemble item is one dispatch but n_runs
                        # simulations, so its deadline scales with the
                        # member count (getattr: plain runs count as 1).
                        # Backoff allowance uses the policy's worst case
                        # (jittered delays vary per run).
                        budget = sum(
                            (self.run_timeout * policy.max_attempts
                             + sum(policy.max_delay_before(a) for a in
                                   range(first, policy.max_attempts + 1)))
                            * getattr(item, "n_runs", 1)
                            for item, first in items)
                        deadline = time.monotonic() + budget
                    in_flight[key] = (handle, items, deadline)
                yield from ready
                if not in_flight:
                    break
                ready = []
                deadlines = [entry[2] for entry in in_flight.values()
                             if entry[2] is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                try:
                    key = returned.get(timeout=timeout)
                except Empty:                 # the nearest deadline passed
                    key = None
                requeue_single: List[Tuple[RunSpec, int]] = []
                # No key, or a torn-down pool's late callback, pops nothing.
                entry = in_flight.pop(key, None)
                if entry is not None:
                    handle, items, _ = entry
                    try:
                        chunk_results = handle.get()
                    except Exception as error:
                        if policy is None:
                            raise             # unsupervised: raise through
                        # The chunk call itself failed (e.g. the result
                        # did not unpickle) — charge every run an attempt.
                        logger.warning(
                            "supervised chunk of %d item(s) failed to "
                            "return: %r", len(items), error)
                        chunk_traceback = traceback_module.format_exc()
                        for item, first in items:
                            for run in _member_runs(item):
                                if first >= policy.max_attempts:
                                    ready.append(FailedRun.from_run(
                                        run, repr(error), attempts=first,
                                        traceback=chunk_traceback,
                                        fault=faults.describe_run_faults(
                                            run.run_id, first)))
                                else:
                                    requeue_single.append((run, first + 1))
                    else:
                        for item_result in chunk_results:
                            ready.extend(_as_outcomes(item_result))
                now = time.monotonic()
                expired = [key for key, (_, _, deadline) in in_flight.items()
                           if deadline is not None and now > deadline]
                if expired:
                    # A hung run or a dead worker: the pool cannot tell
                    # us which, and a lost chunk would never come back —
                    # tear the fleet down and requeue what is unfinished.
                    self.stats.rebuilds += 1
                    self.stats.rebuild_victims.append(
                        [run.run_id for key in expired
                         for item, _ in in_flight[key][1]
                         for run in _member_runs(item)])
                    logger.warning(
                        "sweep pool: %d chunk(s) exceeded their deadline "
                        "(hung run or dead worker); rebuilding fleet "
                        "(rebuild #%d) and requeueing %d in-flight "
                        "chunk(s)", len(expired), self.stats.rebuilds,
                        len(in_flight))
                    pool.terminate()
                    pool.join()
                    for key, (_, items, _) in in_flight.items():
                        if key not in expired:
                            queue.append(items)     # innocent: as-is
                            continue
                        # Expired ensembles expand into their member
                        # runs: each member requeues (or quarantines)
                        # individually, like the singleton requeue below.
                        for item, first in items:
                            for run in _member_runs(item):
                                if first >= policy.max_attempts:
                                    ready.append(FailedRun.from_run(
                                        run,
                                        f"timed out or lost with a dead "
                                        f"worker after {first} attempt(s) "
                                        f"(run_timeout="
                                        f"{self.run_timeout}s)",
                                        attempts=first,
                                        fault=faults.describe_run_faults(
                                            run.run_id, first)))
                                else:
                                    requeue_single.append((run, first + 1))
                    in_flight.clear()
                    pool = self._make_pool(processes)
                # Expired runs requeue as singletons so one bad run no
                # longer drags chunk-mates through every retry.
                self.stats.requeues += len(requeue_single)
                queue.extend([pair] for pair in requeue_single)
        finally:
            pool.terminate()
            pool.join()


Executor = Union[SerialExecutor, PoolExecutor]


def _default_executor() -> Executor:
    """A pool over the usable CPUs; the serial loop on a single CPU, or in a
    daemonic process (a pool worker), which may not start children."""
    if _usable_cpus() > 1 and not multiprocessing.current_process().daemon:
        return PoolExecutor()
    return SerialExecutor()


class SweepPass:
    """One persistence-managed execution pass over a sweep's pending work.

    The decomposition of :meth:`SweepRunner.run` into explicit phases:
    :meth:`prepare` (expand the spec, merge/validate resumed records, open
    the store, compute the pending work items), :meth:`consume` (per-outcome
    bookkeeping, quarantine and checkpoint flushing) and
    :meth:`finalize`/:meth:`summarize` (persist, seal a complete pass,
    report).  :meth:`SweepRunner.run` is a thin loop over these phases; the
    service daemon drives them directly so it can interleave work units from
    *several* jobs onto one shared executor pass while every job keeps its
    own independent resume/checkpoint/seal lifecycle — library and service
    execution share one code path and cannot drift apart.
    """

    def __init__(self, runner: "SweepRunner",
                 checkpoint_every: Optional[int] = None,
                 progress: Optional[Callable[[SweepProgress], None]] = None,
                 store: Union[None, str, "ShardedRecordStore"] = None) -> None:
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be a positive record count")
        if checkpoint_every is not None and store is None:
            raise ValueError("checkpoint_every requires a store — there is "
                             "nowhere to write the checkpoints")
        self.runner = runner
        self.spec = runner.spec
        self.executor = runner.executor
        self.checkpoint_every = checkpoint_every
        self.progress = progress
        self.store = store
        self.record_store: Optional["ShardedRecordStore"] = None
        self.store_opened_here = False
        self.result: Optional[SweepResult] = None
        self.work_fn: Callable = execute_run
        self.runs: List[RunSpec] = []
        self.pending: List[RunSpec] = []
        self.pending_items: Sequence[WorkItem] = []
        self.completed = 0
        self._since_checkpoint = 0
        self._started = 0.0
        self._finalized = False

    # ------------------------------------------------------------------ #
    # phase 1: resume-merge and work planning
    # ------------------------------------------------------------------ #
    def prepare(self) -> Sequence[WorkItem]:
        """Expand, open the store, resume; returns the pending work items."""
        runner = self.runner
        self.runs = self.spec.expand()
        by_id = {run.run_id: run for run in self.runs}

        prior: List[RunRecord] = []
        if self.store is not None:
            from ..store import ShardedRecordStore  # lazy: import cycle
            if isinstance(self.store, ShardedRecordStore):
                self.record_store = self.store
            else:
                self.record_store = ShardedRecordStore(self.store,
                                                       spec=self.spec)
                self.store_opened_here = True
            # What the store holds is the resume set.
            prior = runner._validated_prior(
                self.record_store.iter_records(), by_id)

        done = {record.run_id for record in prior}
        self.pending = [run for run in self.runs if run.run_id not in done]
        self.result = SweepResult(spec=self.spec, records=list(prior))
        self.work_fn = execute_run
        self.pending_items = self.pending
        if runner.ensembles and self.pending:
            cap = 16 if runner.ensembles is True else int(runner.ensembles)
            self.pending_items = group_into_ensembles(self.pending,
                                                      max_members=cap)
            self.work_fn = execute_work
        self._started = time.perf_counter()
        return self.pending_items

    # ------------------------------------------------------------------ #
    # phase 2: per-outcome consumption
    # ------------------------------------------------------------------ #
    def consume(self, record: RunOutcome) -> SweepProgress:
        """Fold one flat executor outcome in; checkpoint when due.

        Returns the progress snapshot (taken *after* any checkpoint flush it
        triggered, so ``checkpointed=True`` means the records are durable)
        and forwards it to the ``progress`` callback when one is set.
        """
        if isinstance(record, FailedRun):
            self.result.failed_runs.append(record)
            if self.record_store is not None:
                self.record_store.append_failed(record)
            logger.warning(
                "sweep %s: run %s quarantined after %d "
                "attempt(s): %s", self.spec.name, record.run_id,
                record.attempts, record.error)
        else:
            self.result.add(record)
            if self.record_store is not None:
                self.record_store.append(record)
        self._since_checkpoint += 1
        self.completed += 1
        elapsed = time.perf_counter() - self._started
        rate = self.completed / elapsed if elapsed > 0 else 0.0
        # checkpoint_every implies a store (checked in __init__).
        checkpointed = (self.checkpoint_every is not None
                        and self._since_checkpoint >= self.checkpoint_every)
        if checkpointed:
            self.record_store.flush()
            self._since_checkpoint = 0
            stats = self.executor.stats
            logger.info(
                "sweep %s: checkpoint at %d/%d runs (%.2f runs/s, "
                "%d failed, %d retried, %d requeued, %d fleet "
                "rebuild(s))", self.spec.name, self.completed,
                len(self.pending), rate, len(self.result.failed_runs),
                stats.retries, stats.requeues, stats.rebuilds)
        snapshot = SweepProgress(
            completed=self.completed, total=len(self.pending),
            records=len(self.result.records),
            failed=len(self.result.failed_runs),
            runs_per_s=rate, checkpointed=checkpointed)
        if self.progress is not None:
            self.progress(snapshot)
        return snapshot

    # ------------------------------------------------------------------ #
    # phase 3: persistence finalization and reporting
    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        """Every run of the spec has a record (failed runs do not count)."""
        return self.result is not None \
            and len(self.result.records) == len(self.runs)

    def finalize(self, stopped: bool) -> None:
        """Persist whatever completed; seal the store on a full pass.

        Idempotent once it succeeds, and safe after a mid-pass exception:
        the final result on success, the freshest checkpoint on an executor
        error, interruption or a deliberate drain (``stopped=True`` never
        seals).  A failed finalize (a full disk refusing the seal) may be
        retried over a store the caller keeps open.
        """
        if self._finalized or self.result is None:
            return
        if self.record_store is not None:
            try:
                self.record_store.flush()
                if not stopped and len(self.result.records) == len(self.runs):
                    # Every run of the spec has a record: the sweep is
                    # complete, and the seal rejects stray late appends.
                    self.record_store.seal()
            finally:
                if self.store_opened_here:
                    self.record_store.close()
        self._finalized = True

    def summarize(self) -> SweepResult:
        """Final logs + canonical record order; returns the merged result."""
        if self.completed:
            elapsed = time.perf_counter() - self._started
            logger.info("sweep %s: %d runs in %.2fs (%.2f runs/s)",
                        self.spec.name, self.completed, elapsed,
                        self.completed / elapsed if elapsed > 0 else 0.0)
        if self.result.failed_runs:
            logger.warning(
                "sweep %s: completed with %d quarantined run(s): %s",
                self.spec.name, len(self.result.failed_runs),
                ", ".join(f.run_id for f in self.result.failed_runs))
        self.result.records = self.result.sorted_records()
        return self.result


class SweepRunner:
    """Expands a :class:`SweepSpec` and drives an executor over its runs.

    ``executor`` defaults to a :class:`PoolExecutor` over the CPUs this
    process may use, or to :class:`SerialExecutor` on a single CPU (see the
    module docstring); the choice is made here and is visible as
    ``runner.executor``.

    ``ensembles`` switches the executor work unit from single runs to
    :class:`~repro.sweep.spec.EnsembleSpec` batches: pending runs sharing a
    grid point's physics (same workload, horizon and flip statistics — see
    :func:`~repro.sweep.spec.batch_key`) execute through the batched
    ensemble engine, which amortizes activity generation and physics
    derivation across members while producing records bit-identical to
    per-run execution.  ``True`` caps batches at 16 members; an integer sets
    the cap.  Resume, checkpointing, retry and quarantine semantics are
    unchanged and stay per member run.
    """

    def __init__(self, spec: SweepSpec, executor: Optional[Executor] = None,
                 ensembles: Union[bool, int] = False) -> None:
        self.spec = spec
        self.executor = executor or _default_executor()
        self.ensembles = ensembles

    def _validated_prior(self, records: Iterable[RunRecord],
                         by_id: Dict[str, RunSpec]) -> List[RunRecord]:
        """Resumed records that belong to this spec, derivation-checked.

        A record whose stored seed or grid point disagrees with this spec's
        derivation (a different ``master_seed``, or an edited grid reusing
        the same sweep name) raises rather than silently mixing ensembles;
        records of runs the spec no longer contains are dropped.
        """
        prior: List[RunRecord] = []
        for record in records:
            expected = by_id.get(record.run_id)
            if expected is None:
                continue
            if record.seed != expected.seed:
                raise ValueError(
                    f"resumed record {record.run_id!r} was produced with "
                    f"seed {record.seed}, but this spec derives "
                    f"{expected.seed} — refusing to mix ensembles")
            if record.point_key != expected.point_key:
                raise ValueError(
                    f"resumed record {record.run_id!r} was produced at "
                    f"grid point {dict(record.point_key)}, but this spec "
                    f"places it at {dict(expected.point_key)} — the grid "
                    f"changed; refusing to mix sweeps")
            prior.append(record)
        return prior

    def run(self, checkpoint_every: Optional[int] = None,
            progress: Optional[Callable[[SweepProgress], None]] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            store: Union[None, str, "ShardedRecordStore"] = None
            ) -> SweepResult:
        """Execute all (remaining) runs and return the merged result.

        Persistence: ``store`` (a directory path, or an open
        :class:`~repro.store.ShardedRecordStore`, which the pass leaves open)
        is the sweep's one persistence authority.  Every outcome appends as
        it completes, ``checkpoint_every=k`` flushes (one shard fsync) every
        ``k`` outcomes, and a full pass seals the store.  Independent of
        ``checkpoint_every``, the outcomes completed so far are flushed even
        if a run raises (or the process is interrupted with
        ``KeyboardInterrupt``), so resuming picks up where execution stopped.

        Resume: a non-empty store resumes implicitly.  Its records whose
        ``run_id`` belongs to this spec are kept and their runs skipped; a
        stored record whose seed or grid point disagrees with this spec's
        derivation (a different ``master_seed``, or an edited grid reusing
        the same sweep name) raises rather than silently mixing ensembles.
        A sharded store directory opens through its recovery (torn tails
        truncated, corrupt shards quarantined, a seal that lost a line or a
        shard voided, so the lost runs re-run) and refuses outright a spec
        other than the one its shards pin.  Runs
        a supervised executor quarantined (``FailedRun``) land in
        ``result.failed_runs`` — and a resumed store's quarantined runs are
        *retried*, not carried forward (under whatever
        :class:`RetryPolicy` *this* execution's executor carries — a fresh
        budget, so runs exhausted under an old policy get their new
        chances).

        Streaming hooks, for a library caller that watches or stops a
        sweep (the service daemon drives a :class:`SweepPass` directly and
        sets its ``progress``): ``progress`` is called with a
        :class:`SweepProgress` snapshot after every consumed outcome —
        *after* any checkpoint flush it triggered, so a callback observing
        ``checkpointed=True`` can rely on the records being durable.
        ``should_stop`` is polled after each outcome; returning True drains
        the sweep cleanly — the executor
        stream is closed (its fleet torn down), everything completed so far
        is persisted, and the partial result returns.  Resuming it later
        completes the sweep bit-identically.

        Internally this is a thin loop over a :class:`SweepPass` — the
        prepare/consume/finalize decomposition the service daemon drives
        directly when it interleaves several jobs onto one executor.
        """
        sweep_pass = SweepPass(self, checkpoint_every=checkpoint_every,
                               progress=progress, store=store)
        pending_items = sweep_pass.prepare()
        stream = self.executor.imap_unordered(sweep_pass.work_fn,
                                              pending_items)
        stopped = False
        try:
            for outcome in stream:
                sweep_pass.consume(outcome)
                if should_stop is not None and should_stop():
                    stopped = True
                    logger.info(
                        "sweep %s: stop requested — draining at %d/%d runs",
                        self.spec.name, sweep_pass.completed,
                        len(sweep_pass.pending))
                    break
        finally:
            # A drain, or an error raised on this side of the stream, leaves
            # the executor stream open: closing it tears the pool down
            # (GeneratorExit reaches the pool's finally) before run()
            # returns instead of at garbage collection.
            stream.close()
            # Persist whatever completed — the final result on success, the
            # freshest checkpoint on an executor error or interruption.
            sweep_pass.finalize(stopped)
        return sweep_pass.summarize()


def run_sweeps(specs: Sequence[SweepSpec],
               executor: Optional[Executor] = None) -> Dict[str, SweepResult]:
    """Execute several sweeps through one executor pass, keyed by spec name.

    Paper harnesses often need *coupled* grids (e.g. the Sec. 6.6 headline
    pairs the baseline compile with the DVFS controller and the AIM compile
    with the booster), which a single cartesian product cannot express.  This
    helper expands every spec, streams the union of runs through one
    executor pass so a pool parallelizes across sweeps, and routes each
    outcome back to its spec by ``run_id``.  Spec names must be unique (they
    prefix the run ids).  ``executor`` defaults as in :class:`SweepRunner`: a
    one-pass pool over the usable CPUs, serial on a single CPU.
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"sweep names must be unique, got {names}")
    executor = executor or _default_executor()

    results = {spec.name: SweepResult(spec=spec) for spec in specs}
    all_runs: List[RunSpec] = []
    owner: Dict[str, SweepResult] = {}
    for spec in specs:
        expanded = spec.expand()
        all_runs.extend(expanded)
        owner.update((run.run_id, results[spec.name]) for run in expanded)

    stream = executor.imap_unordered(execute_run, all_runs)
    try:
        for outcome in stream:
            result = owner[outcome.run_id]
            if isinstance(outcome, FailedRun):
                result.failed_runs.append(outcome)
            else:
                result.add(outcome)
    finally:
        stream.close()
    for result in results.values():
        result.records = result.sorted_records()
    return results
