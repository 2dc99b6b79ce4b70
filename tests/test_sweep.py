"""Tests for the parallel multi-seed sweep subsystem (:mod:`repro.sweep`).

The load-bearing guarantees:

* expansion is deterministic and seeds depend only on ``(master_seed,
  point_index, seed_index)``;
* the pool executor reproduces serial sweeps **bit-for-bit**;
* resuming from a partial record store yields the same records *and* the
  same aggregates (bootstrap CIs included) as an uninterrupted run;
* a 2-point mini-sweep (the ``sweep_smoke`` marker) exercises the whole path
  within tier-1 time budgets.
"""

import functools
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.sim import CompiledWorkload
from repro.store import ShardedRecordStore, StoreError, scan_store
from repro.sweep import (
    METRIC_NAMES,
    FaultSpec,
    InjectedFault,
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    SweepResult,
    WorkloadSpec,
    build_compiled_workload,
    execute_run,
    injected_faults,
    register_workload_builder,
    run_seed,
    run_sweeps,
)
from repro.sweep import runner as runner_module

#: Fast synthetic workload on a tiny chip: builds in milliseconds, no QAT.
TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2, banks=4,
                    rows=8, n_operators=4, label="tiny")


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(name="t", workloads=(TINY,), controllers=("booster",),
                    betas=(10, 50), cycles=200, seeds=2, master_seed=7)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def records_as_dicts(result: SweepResult):
    return [r.to_json_dict() for r in result.sorted_records()]


def strip_store_lines(directory: str, *kinds: str) -> None:
    """Delete a record store's shard lines of the given kinds.  Whole lines
    go, so every remaining line keeps its digest."""
    shards = os.path.join(directory, "shards")
    for name in os.listdir(shards):
        path = os.path.join(shards, name)
        with open(path, "rb") as handle:
            lines = handle.readlines()
        with open(path, "wb") as handle:
            handle.writelines(line for line in lines
                              if json.loads(line)["kind"] not in kinds)


class TestSpec:
    def test_expand_grid_shape_and_ids(self):
        spec = tiny_spec(controllers=("dvfs", "booster"), seeds=3)
        runs = spec.expand()
        assert spec.n_points == 4 and spec.n_runs == 12 and len(runs) == 12
        assert len({r.run_id for r in runs}) == 12
        assert all(r.run_id.startswith("t/") for r in runs)

    def test_seeds_depend_only_on_coordinates(self):
        spec = tiny_spec()
        again = tiny_spec()
        assert [r.seed for r in spec.expand()] == [r.seed for r in again.expand()]
        # Different master seed -> different ensemble.
        shifted = tiny_spec(master_seed=8)
        assert [r.seed for r in spec.expand()] != [r.seed for r in shifted.expand()]
        # The derivation is the documented SeedSequence contract.
        first = spec.expand()[0]
        assert first.seed == run_seed(7, first.point_index, first.seed_index)

    def test_point_key_excludes_seed(self):
        runs = tiny_spec(seeds=3).expand()
        by_point = {}
        for run in runs:
            by_point.setdefault(run.point_index, set()).add(run.point_key)
        assert all(len(keys) == 1 for keys in by_point.values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(seeds=0)
        with pytest.raises(ValueError):
            tiny_spec(cycles=0)

    def test_spec_json_roundtrip(self):
        spec = tiny_spec(flip_means=(0.5, 0.7), monitor_noises=(0.0, 0.003))
        assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec


class TestBuilders:
    def test_synthetic_builder_is_deterministic_and_cached(self):
        first = build_compiled_workload(TINY)
        assert isinstance(first, CompiledWorkload)
        assert build_compiled_workload(TINY) is first          # per-process memo
        assert len(first.tasks) == 4
        # qk_t operators mark their group input-determined.
        assert any(first.group_input_determined.values())

    def test_unknown_builder_raises(self):
        bad = WorkloadSpec(builder="no-such-builder")
        with pytest.raises(KeyError, match="no-such-builder"):
            build_compiled_workload(bad)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_workload_builder("synthetic", lambda spec: None)

    def test_execute_run_metrics_complete(self):
        record = execute_run(tiny_spec().expand()[0])
        assert set(record.metrics) == set(METRIC_NAMES)
        assert record.metrics["effective_tops"] > 0
        assert record.metrics["worst_ir_drop"] > 0


class TestDeterminism:
    def test_serial_rerun_is_identical(self):
        spec = tiny_spec()
        a = SweepRunner(spec, SerialExecutor()).run()
        b = SweepRunner(spec, SerialExecutor()).run()
        assert records_as_dicts(a) == records_as_dicts(b)

    def test_pool_matches_serial_bit_for_bit(self):
        spec = tiny_spec(seeds=3)
        serial = SweepRunner(spec, SerialExecutor()).run()
        pool = SweepRunner(spec, PoolExecutor(processes=2, chunksize=1)).run()
        assert records_as_dicts(serial) == records_as_dicts(pool)

    def test_run_sweeps_parallelizes_coupled_grids(self):
        specs = [tiny_spec(name="a", controllers=("dvfs",)),
                 tiny_spec(name="b", controllers=("booster",))]
        results = run_sweeps(specs, executor=SerialExecutor())
        assert set(results) == {"a", "b"}
        for name, result in results.items():
            assert all(r.run_id.startswith(f"{name}/") for r in result.records)
        # DVFS at the signoff level never raises IRFailures.
        dvfs_points = results["a"].aggregate()
        assert all(p.stats["total_failures"].mean == 0 for p in dvfs_points)
        with pytest.raises(ValueError, match="unique"):
            run_sweeps([tiny_spec(), tiny_spec()])


class TestAggregation:
    def test_point_statistics_and_bootstrap_ci(self):
        result = SweepRunner(tiny_spec(seeds=4), SerialExecutor()).run()
        for point in result.aggregate():
            assert point.n_seeds == 4
            for stats in point.stats.values():
                assert stats.n == 4
                assert stats.std >= 0.0
                assert stats.ci_low <= stats.mean + 1e-12
                assert stats.ci_high >= stats.mean - 1e-12

    def test_single_seed_degenerate_ci(self):
        result = SweepRunner(tiny_spec(seeds=1), SerialExecutor()).run()
        point = result.aggregate()[0]
        stats = point.stats["effective_tops"]
        assert stats.std == 0.0
        assert stats.ci_low == stats.mean == stats.ci_high

    def test_select_and_point_lookup(self):
        result = SweepRunner(tiny_spec(), SerialExecutor()).run()
        assert len(result.select(beta=10)) == 1
        assert result.point(beta=10).axes["beta"] == 10
        with pytest.raises(KeyError):
            result.point(workload="tiny")        # both betas match

    def test_beta_ordering_matches_runtime(self):
        """The sweep reproduces the Fig. 18 shape: small beta -> more failures."""
        result = SweepRunner(tiny_spec(seeds=3), SerialExecutor()).run()
        failures = {p.axes["beta"]: p.stats["total_failures"].mean
                    for p in result.aggregate()}
        assert failures[10] >= failures[50]


class TestPersistenceAndResume:
    def test_resume_partial_store_matches_fresh(self, tmp_path):
        spec = tiny_spec(seeds=3)
        fresh = SweepRunner(spec, SerialExecutor()).run()

        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, spec=spec)
        for record in fresh.sorted_records()[: len(fresh.records) // 2]:
            store.append(record)
        store.flush()
        store.close()

        resumed = SweepRunner(spec, SerialExecutor()).run(store=directory)
        assert records_as_dicts(resumed) == records_as_dicts(fresh)

        # Aggregates (bootstrap CIs included) are bit-identical too.
        for a, b in zip(fresh.aggregate(), resumed.aggregate()):
            assert a.stats == b.stats
        # The store pins the spec, so its content reads back aggregatable.
        stored = SweepResult.load_resumable(directory)
        assert stored.spec == spec
        assert records_as_dicts(stored) == records_as_dicts(fresh)

    def test_resume_rejects_foreign_master_seed(self, tmp_path):
        directory = str(tmp_path / "store")
        seen = []
        SweepRunner(tiny_spec(master_seed=7), SerialExecutor()).run(
            store=directory, checkpoint_every=1, progress=seen.append,
            should_stop=lambda: len(seen) >= 2)
        other = SweepRunner(tiny_spec(master_seed=8), SerialExecutor())
        with pytest.raises(StoreError, match="different sweep"):
            other.run(store=directory)
        # Without the spec line's pin, the stored seeds refuse the resume.
        strip_store_lines(directory, "spec")
        with pytest.raises(ValueError, match="refusing to mix"):
            other.run(store=directory)
        # The refused resume left the store to its own sweep.
        resumed = SweepRunner(tiny_spec(master_seed=7), SerialExecutor()) \
            .run(store=directory)
        fresh = SweepRunner(tiny_spec(master_seed=7), SerialExecutor()).run()
        assert records_as_dicts(resumed) == records_as_dicts(fresh)
        assert scan_store(directory).sealed

    @pytest.mark.parametrize("edit", [
        dict(betas=(20, 60)),
        dict(cycles=400),
        dict(recompute_cycles=48),
        dict(workloads=(WorkloadSpec(builder="synthetic", groups=4,
                                     macros_per_group=2, banks=4, rows=8,
                                     n_operators=4, label="tiny"),)),
    ], ids=["betas", "cycles", "recompute", "workload-same-label"])
    def test_resume_rejects_changed_grid(self, tmp_path, edit):
        """Editing the grid or workload definition while keeping name/master
        seed must not pass stale records off as results for the new spec."""
        directory = str(tmp_path / "store")
        SweepRunner(tiny_spec(), SerialExecutor()).run(store=directory)
        edited = SweepRunner(tiny_spec(**edit), SerialExecutor())
        with pytest.raises(StoreError, match="different sweep"):
            edited.run(store=directory)
        strip_store_lines(directory, "spec")
        with pytest.raises(ValueError, match="grid changed"):
            edited.run(store=directory)

    def test_resume_ignores_records_of_other_sweeps(self, tmp_path):
        directory = str(tmp_path / "store")
        SweepRunner(tiny_spec(name="other"), SerialExecutor()).run(
            store=directory)
        runner = SweepRunner(tiny_spec(), SerialExecutor())
        with pytest.raises(StoreError, match="different sweep"):
            runner.run(store=directory)
        # Without the other sweep's pin and seal, its records are ignored.
        strip_store_lines(directory, "spec", "seal")
        result = runner.run(store=directory)
        assert len(result.records) == tiny_spec().n_runs


@pytest.mark.sweep_smoke
def test_mini_sweep_smoke():
    """Tier-1 smoke: a 2-point mini-sweep through the full runner path.

    Mirrors what ``pytest benchmarks/ --smoke`` exercises at scale, but with a
    synthetic workload and a short horizon so it stays well under a second.
    """
    spec = SweepSpec(name="smoke", workloads=(TINY,),
                     controllers=("dvfs", "booster"), betas=(50,), cycles=120,
                     seeds=1, master_seed=0)
    result = SweepRunner(spec, SerialExecutor()).run()
    points = result.aggregate()
    assert spec.n_points == 2 and len(points) == 2
    booster = result.point(controller="booster")
    dvfs = result.point(controller="dvfs")
    assert dvfs.stats["total_failures"].mean == 0
    assert booster.stats["average_macro_power_mw"].mean <= \
        dvfs.stats["average_macro_power_mw"].mean


class StopAfter(Exception):
    """Injected executor failure for the kill/resume checkpointing tests."""


class ExplodingExecutor(SerialExecutor):
    """Serial executor that dies after yielding ``after`` records."""

    def __init__(self, after: int) -> None:
        super().__init__()
        self.after = after

    def imap_unordered(self, fn, runs):
        for index, run in enumerate(runs):
            if index >= self.after:
                raise StopAfter(f"killed after {self.after} records")
            yield fn(run)


class TestIncrementalCheckpointing:
    def test_kill_mid_pass_then_resume_matches_fresh(self, tmp_path):
        """A sweep killed mid-executor-pass leaves a resumable checkpoint, and
        resuming completes to the exact fresh-run records and aggregates."""
        spec = tiny_spec(seeds=3)                      # 6 runs
        fresh = SweepRunner(spec, SerialExecutor()).run()

        directory = str(tmp_path / "store")
        with pytest.raises(StopAfter):
            SweepRunner(spec, ExplodingExecutor(after=4)).run(
                store=directory, checkpoint_every=1)

        partial = SweepResult.load_resumable(directory)
        assert len(partial.records) == 4               # flushed before the crash

        resumed = SweepRunner(spec, SerialExecutor()).run(store=directory)
        assert records_as_dicts(resumed) == records_as_dicts(fresh)
        for a, b in zip(fresh.aggregate(), resumed.aggregate()):
            assert a.stats == b.stats
        # The store holds the complete sweep.
        assert len(SweepResult.load_resumable(directory).records) \
            == spec.n_runs

    def test_crash_without_checkpoint_every_still_saves_progress(self, tmp_path):
        """Even with no periodic interval, completed records are persisted on
        an executor error (the finally-flush kill protection)."""
        spec = tiny_spec(seeds=2)                      # 4 runs
        directory = str(tmp_path / "store")
        with pytest.raises(StopAfter):
            SweepRunner(spec, ExplodingExecutor(after=3)).run(store=directory)
        assert len(SweepResult.load_resumable(directory).records) == 3

    def test_periodic_checkpoints_written_during_pass(self, tmp_path, monkeypatch):
        flushes = []
        original = ShardedRecordStore.flush

        def counting_flush(self):
            flushes.append(len(self.run_ids()))
            original(self)

        monkeypatch.setattr(ShardedRecordStore, "flush", counting_flush)
        spec = tiny_spec(seeds=2)                      # 4 runs
        SweepRunner(spec, SerialExecutor()).run(store=str(tmp_path / "store"),
                                                checkpoint_every=2)
        # Two periodic flushes (after 2 and 4 records) plus the finally-flush.
        assert flushes == [2, 4, 4]

    def test_checkpoint_every_validation(self, tmp_path):
        directory = str(tmp_path / "store")
        with pytest.raises(ValueError, match="checkpoint_every"):
            SweepRunner(tiny_spec(), SerialExecutor()).run(store=directory,
                                                           checkpoint_every=0)
        # Checkpointing without a destination is a silent no-op trap: reject.
        with pytest.raises(ValueError, match="store"):
            SweepRunner(tiny_spec(), SerialExecutor()).run(checkpoint_every=5)

    def test_pool_imap_streams_and_matches_serial(self, tmp_path):
        spec = tiny_spec(seeds=2)
        serial = SweepRunner(spec, SerialExecutor()).run()
        directory = str(tmp_path / "store")
        pool = SweepRunner(spec, PoolExecutor(processes=2, chunksize=1)).run(
            store=directory, checkpoint_every=1)
        assert records_as_dicts(pool) == records_as_dicts(serial)
        assert records_as_dicts(SweepResult.load_resumable(directory)) \
            == records_as_dicts(serial)

    def test_serial_imap_unordered_streams_lazily(self):
        spec = tiny_spec()
        runs = spec.expand()
        iterator = SerialExecutor().imap_unordered(execute_run, runs)
        first = next(iterator)
        assert first.run_id == runs[0].run_id          # nothing else ran yet


def mark_and_sleep(directory: str, run) -> str:
    """Pool work function: leave a marker file, then hold the worker 0.2 s."""
    open(os.path.join(directory, run.run_id.replace("/", "-")), "w").close()
    time.sleep(0.2)
    return run.run_id


class TestPoolDispatch:
    def test_pool_never_holds_more_chunks_than_workers(self, tmp_path):
        """Chunks go out lazily, and a freed slot is refilled before the
        consumer gets the outcomes: while it holds the first outcome of a
        2-worker pool, exactly three chunks have started (the returned one
        plus two in flight), never a fourth."""
        runs = tiny_spec(seeds=3).expand()             # 6 runs
        stream = PoolExecutor(processes=2, chunksize=1).imap_unordered(
            functools.partial(mark_and_sleep, str(tmp_path)), runs)
        try:
            first = next(stream)
            time.sleep(0.1)
            assert len(os.listdir(tmp_path)) == 3
            rest = list(stream)
        finally:
            stream.close()
        assert sorted([first] + rest) == sorted(run.run_id for run in runs)
        assert len(os.listdir(tmp_path)) == len(runs)
        assert multiprocessing.active_children() == []


def usable_cpus() -> int:
    """The CPUs this process may run on, read without the runner's helper."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_sweep_in_worker(run):
    """Pool work function: a default sweep inside a (daemonic) pool worker."""
    runner = SweepRunner(tiny_spec(seeds=1))
    return type(runner.executor).__name__, len(runner.run().records)


def sigterm_is_default(run) -> bool:
    """Pool work function: does this worker keep the default SIGTERM action?"""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestDefaultExecutor:
    """No executor given: a one-pass pool over the usable CPUs, serial on
    one CPU (CI also runs ``test_default_follows_usable_cpus`` pinned to a
    single CPU with ``taskset -c 0``)."""

    def test_default_follows_usable_cpus(self):
        runner = SweepRunner(tiny_spec())
        assert isinstance(runner.executor, SerialExecutor) == \
            (usable_cpus() == 1)
        if isinstance(runner.executor, PoolExecutor):
            assert runner.executor.processes == usable_cpus()
            assert not runner.executor.supervised

    def test_default_is_a_pool_on_several_cpus(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_usable_cpus", lambda: 3)
        executor = SweepRunner(tiny_spec()).executor
        assert isinstance(executor, PoolExecutor)
        assert executor.processes == 3
        assert PoolExecutor().processes == 3          # one sizing rule

    def test_default_is_serial_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_usable_cpus", lambda: 1)
        assert isinstance(SweepRunner(tiny_spec()).executor, SerialExecutor)

    def test_default_is_serial_inside_a_pool_worker(self, monkeypatch):
        """A daemonic pool worker may not start children of its own."""
        monkeypatch.setattr(runner_module, "_usable_cpus", lambda: 2)
        outcomes = list(PoolExecutor(processes=1).imap_unordered(
            default_sweep_in_worker, tiny_spec().expand()[:1]))
        assert outcomes == [("SerialExecutor", 2)]

    def test_default_run_matches_serial_and_leaves_no_worker(self,
                                                             monkeypatch):
        monkeypatch.setattr(runner_module, "_usable_cpus", lambda: 2)
        spec = tiny_spec(seeds=3)
        serial = SweepRunner(spec, SerialExecutor()).run()
        assert records_as_dicts(SweepRunner(spec).run()) == \
            records_as_dicts(serial)
        assert multiprocessing.active_children() == []
        other = tiny_spec(name="other")
        results = run_sweeps([spec, other])
        assert records_as_dicts(results["t"]) == records_as_dicts(serial)
        assert records_as_dicts(results["other"]) == records_as_dicts(
            SweepRunner(other, SerialExecutor()).run())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "serial"])
    def test_failing_run_raises_through_and_keeps_completed_records(
            self, tmp_path, monkeypatch, cpus):
        """The default pool is unsupervised: the run's own exception type
        reaches the caller, and what completed before it is in the store."""
        monkeypatch.setattr(runner_module, "_usable_cpus", lambda: cpus)
        spec = tiny_spec(seeds=3)                      # 6 runs
        serial = {record.run_id: record.to_json_dict() for record in
                  SweepRunner(spec, SerialExecutor()).run().records}
        last = spec.expand()[-1].run_id
        directory = str(tmp_path / "store")
        consumed = []
        with injected_faults(FaultSpec(kind="raise", match=last)):
            with pytest.raises(InjectedFault):
                SweepRunner(spec).run(store=directory,
                                      progress=consumed.append)
        stored = scan_store(directory).records
        # Two workers finish at least four of the five runs dispatched
        # before the failing one; the serial loop finishes all five.
        assert len(stored) == len(consumed) >= 4
        assert all(record.to_json_dict() == serial[record.run_id]
                   for record in stored)
        assert last not in {record.run_id for record in stored}
        assert multiprocessing.active_children() == []

    def test_pool_workers_restore_default_sigterm(self):
        """A parent SIGTERM handler (the daemon's drain flag) must not
        reach the workers, or ``Pool.terminate()`` could never stop them."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            flags = list(PoolExecutor(processes=2).imap_unordered(
                sigterm_is_default, tiny_spec().expand()[:2]))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert flags == [True, True]


class TestSharedSeedMode:
    def test_shared_seeds_equal_across_points(self):
        spec = tiny_spec(seeds=2, seed_mode="shared",
                         controllers=("dvfs", "booster"))
        runs = spec.expand()
        by_seed_index = {}
        for run in runs:
            by_seed_index.setdefault(run.seed_index, set()).add(run.seed)
        # One seed per ensemble member, shared by every grid point ...
        assert all(len(seeds) == 1 for seeds in by_seed_index.values())
        # ... and distinct between members.
        assert len({seeds.pop() for seeds in by_seed_index.values()}) == 2

    def test_shared_differs_from_per_point_derivation(self):
        shared = tiny_spec(seed_mode="shared").expand()
        per_point = tiny_spec().expand()
        assert [r.seed for r in shared] != [r.seed for r in per_point]

    def test_seed_mode_json_roundtrip_and_validation(self):
        spec = tiny_spec(seed_mode="shared")
        assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec
        # Legacy payloads without the field load as per_point.
        payload = tiny_spec().to_json_dict()
        del payload["seed_mode"]
        assert SweepSpec.from_json_dict(payload).seed_mode == "per_point"
        with pytest.raises(ValueError, match="seed_mode"):
            tiny_spec(seed_mode="chaotic")

    def test_shared_mode_sweep_is_deterministic(self):
        spec = tiny_spec(seed_mode="shared")
        a = SweepRunner(spec, SerialExecutor()).run()
        b = SweepRunner(spec, SerialExecutor()).run()
        assert records_as_dicts(a) == records_as_dicts(b)


class TestOperatorRows:
    def test_operator_rows_create_multi_macro_sets(self):
        spec = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                            banks=4, rows=8, operator_rows=16, n_operators=2,
                            label="two-tile")
        compiled = build_compiled_workload(spec)
        assert len(compiled.tasks) == 4                # two tiles per operator
        set_sizes = {}
        for task in compiled.tasks:
            set_sizes[task.set_id] = set_sizes.get(task.set_id, 0) + 1
        assert sorted(set_sizes.values()) == [2, 2]

    def test_default_operator_rows_single_tile(self):
        compiled = build_compiled_workload(TINY)
        assert len(compiled.tasks) == TINY.n_operators


# --------------------------------------------------------------------- #
# retry backoff jitter
# --------------------------------------------------------------------- #
class TestRetryBackoffJitter:
    def test_first_attempt_and_zero_backoff_never_wait(self):
        policy = RetryPolicy(backoff=1.0, jitter="decorrelated")
        assert policy.delay_before(1, "t/p0000/s000") == 0.0
        assert RetryPolicy(jitter="decorrelated").delay_before(5, "x") == 0.0

    def test_linear_ramp_is_the_default_and_unchanged(self):
        policy = RetryPolicy(backoff=0.5)
        assert policy.delay_before(2) == 0.5
        assert policy.delay_before(4) == 1.5
        assert policy.max_delay_before(4) == 1.5

    def test_decorrelated_is_deterministic_and_salted(self):
        policy = RetryPolicy(backoff=0.2, jitter="decorrelated",
                             jitter_salt=3)
        delay = policy.delay_before(3, "t/p0001/s000")
        assert delay == policy.delay_before(3, "t/p0001/s000")
        salted = RetryPolicy(backoff=0.2, jitter="decorrelated",
                             jitter_salt=4)
        assert salted.delay_before(3, "t/p0001/s000") != delay

    def test_decorrelated_decorrelates_across_runs(self):
        policy = RetryPolicy(backoff=0.2, jitter="decorrelated")
        delays = {policy.delay_before(2, f"t/p{i:04d}/s000")
                  for i in range(8)}
        assert len(delays) == 8      # no retry lockstep across the fleet

    def test_decorrelated_is_bounded(self):
        policy = RetryPolicy(backoff=0.2, jitter="decorrelated",
                             max_backoff=1.0)
        for attempt in range(2, 8):
            for token in ("a", "b", "c"):
                delay = policy.delay_before(attempt, token)
                assert policy.backoff <= delay <= policy.max_backoff
                assert delay <= policy.max_delay_before(attempt)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter="full")
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff=0.0)


# --------------------------------------------------------------------- #
# streaming progress + cooperative stop (the service layer's hooks)
# --------------------------------------------------------------------- #
class TestProgressStreaming:
    def test_progress_snapshots_stream_per_record(self, tmp_path):
        snapshots = []
        result = SweepRunner(tiny_spec(), SerialExecutor()).run(
            store=str(tmp_path / "store"), checkpoint_every=2,
            progress=snapshots.append)
        assert [s.completed for s in snapshots] == [1, 2, 3, 4]
        assert all(s.total == 4 and s.failed == 0 for s in snapshots)
        assert [s.checkpointed for s in snapshots] == \
            [False, True, False, True]
        assert snapshots[-1].records == len(result.records) == 4
        assert all(s.runs_per_s >= 0 for s in snapshots)

    def test_checkpointed_flag_means_the_file_is_durable(self, tmp_path):
        directory = str(tmp_path / "store")
        seen = []

        def probe(progress):
            # scan_store never mutates, so it reads beside the live writer.
            if progress.checkpointed:
                seen.append(len(scan_store(directory).records))

        SweepRunner(tiny_spec(), SerialExecutor()).run(
            store=directory, checkpoint_every=1, progress=probe)
        assert seen == [1, 2, 3, 4]

    def test_should_stop_drains_and_resume_completes(self, tmp_path):
        directory = str(tmp_path / "store")
        fresh = SweepRunner(tiny_spec(), SerialExecutor()).run()
        completed = []
        partial = SweepRunner(tiny_spec(), SerialExecutor()).run(
            store=directory, checkpoint_every=1,
            progress=lambda s: completed.append(s.completed),
            should_stop=lambda: len(completed) >= 2)
        assert len(partial.records) == 2
        assert len(SweepResult.load_resumable(directory).records) == 2
        resumed = SweepRunner(tiny_spec(), SerialExecutor()).run(
            store=directory)
        assert [r.to_json_dict() for r in resumed.sorted_records()] == \
            [r.to_json_dict() for r in fresh.sorted_records()]
