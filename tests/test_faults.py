"""Chaos tests: the fault-injection harness and the fault-tolerance layer.

The load-bearing guarantees:

* injection is deterministic (pure function of salt/fault/target/attempt)
  and **never active by default**;
* supervised executors retry transient failures — raised exceptions, killed
  workers, hung runs — and the recovered sweep's records are *bit-identical*
  to a fault-free serial baseline;
* permanent failures are quarantined into ``SweepResult.failed_runs``
  (carried through the record store, excluded from aggregation) instead of
  aborting the sweep;
* record-store and physics-store corruption is detected by content digests
  and recovered from (shard quarantine / entry re-derivation), keeping
  resumes and shared-store sweeps equivalent to undamaged runs.

The headline all-faults-armed equivalence test doubles as the CI ``chaos``
leg's core; ``REPRO_CHAOS=1`` widens the parametrization.
"""

import logging
import os
import warnings

import pytest

from repro.sim.level_cache import (
    attach_shared_store,
    clear_level_cache,
    detach_shared_store,
)
from repro.store import scan_store
from repro.sweep import (
    FailedRun,
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepRunner,
    SweepResult,
    SweepSpec,
    WorkloadSpec,
    run_sweeps,
)
from repro.sweep import faults
from repro.sweep.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    injected_faults,
    maybe_fail_run,
)

CHAOS_EXTENDED = bool(os.environ.get("REPRO_CHAOS"))

#: Fast synthetic workload on a tiny chip: builds in milliseconds, no QAT.
TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2, banks=4,
                    rows=8, n_operators=4, label="tiny")


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(name="t", workloads=(TINY,), controllers=("booster",),
                    betas=(10, 50), cycles=120, seeds=2, master_seed=7)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def records_as_dicts(result: SweepResult):
    return [r.to_json_dict() for r in result.sorted_records()]


@pytest.fixture(autouse=True)
def disarmed():
    """No fault plan (programmatic or env-cached) leaks across tests."""
    faults.disarm_faults()
    yield
    faults.disarm_faults()


@pytest.fixture
def baseline():
    """Fault-free serial records of the default tiny spec."""
    return SweepRunner(tiny_spec(), SerialExecutor()).run()


# --------------------------------------------------------------------- #
# the registry itself
# --------------------------------------------------------------------- #
class TestFaultRegistry:
    def test_never_active_by_default(self):
        assert active_plan() is None
        maybe_fail_run("t/p0000/s000")          # must be a no-op

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", times=0)

    def test_raise_fires_on_match_only(self):
        with injected_faults(FaultSpec(kind="raise", match="p0001")):
            maybe_fail_run("t/p0000/s000")      # no match: silent
            with pytest.raises(InjectedFault):
                maybe_fail_run("t/p0001/s000")

    def test_times_bounds_by_attempt_number(self):
        """A ``times=1`` fault fires on attempt 1 and spares every retry —
        stateless in the attempt, so it survives worker death."""
        with injected_faults(FaultSpec(kind="raise", times=1)):
            with pytest.raises(InjectedFault):
                maybe_fail_run("t/p0000/s000")
            faults.set_current_attempt(2)
            try:
                maybe_fail_run("t/p0000/s000")  # retry: clean
            finally:
                faults.set_current_attempt(1)
            with pytest.raises(InjectedFault):
                maybe_fail_run("t/p0000/s000")  # attempt 1 again: fires again

    def test_probability_thinning_is_deterministic(self):
        fault = FaultSpec(kind="raise", probability=0.5)
        plan_a = FaultPlan([fault], salt=1)
        targets = [f"t/p{i:04d}/s000" for i in range(400)]
        picked_a = [t for t in targets if plan_a._selects(fault, t)]
        assert picked_a == [t for t in targets if plan_a._selects(fault, t)]
        assert 0.3 < len(picked_a) / len(targets) < 0.7
        picked_b = [t for t in targets
                    if FaultPlan([fault], salt=2)._selects(fault, t)]
        assert picked_a != picked_b             # the salt reshuffles selection

    def test_env_arming_and_json_roundtrip(self, monkeypatch):
        plan = FaultPlan([FaultSpec(kind="raise", match="p0002", times=2)],
                         salt=5)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        monkeypatch.setattr(faults, "_env_plan", faults._UNSET)
        armed = active_plan()
        assert armed is not None
        assert armed.salt == 5 and armed.faults == plan.faults

    def test_shard_corrupt_fault_is_counter_gated(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"x" * 100)
        with injected_faults(FaultSpec(kind="shard_corrupt", times=1)):
            faults.shard_corrupt_fault(path)
            flipped = open(path, "rb").read()
            assert flipped != b"x" * 100 and len(flipped) == 100
            faults.shard_corrupt_fault(path)    # budget spent: no-op
            assert open(path, "rb").read() == flipped


# --------------------------------------------------------------------- #
# retry and quarantine
# --------------------------------------------------------------------- #
class TestSerialRetryQuarantine:
    def test_transient_raise_retried_bit_identical(self, baseline):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=3))
        with injected_faults(FaultSpec(kind="raise", match="p0001/s000",
                                       times=1)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert not result.failed_runs
        assert records_as_dicts(result) == records_as_dicts(baseline)

    def test_permanent_raise_quarantined_not_fatal(self, baseline):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2))
        with injected_faults(FaultSpec(kind="raise", match="p0001/s000",
                                       times=99)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert [f.run_id for f in result.failed_runs] == ["t/p0001/s000"]
        assert result.failed_runs[0].attempts == 2
        assert "InjectedFault" in result.failed_runs[0].error
        assert len(result.records) == len(baseline.records) - 1
        # Aggregation runs over what completed; the damaged point has n-1.
        by_point = {s.point_index: s.n_seeds for s in result.aggregate()}
        assert by_point == {0: 2, 1: 1}

    def test_no_policy_keeps_raise_through_semantics(self):
        with injected_faults(FaultSpec(kind="raise", match="p0000/s000")):
            with pytest.raises(InjectedFault):
                SweepRunner(tiny_spec(), SerialExecutor()).run()

    def test_failed_runs_survive_checkpoints_and_resume_retries_them(
            self, tmp_path, baseline):
        directory = str(tmp_path / "store")
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=1))
        with injected_faults(FaultSpec(kind="raise", match="p0000/s001",
                                       times=99)):
            first = SweepRunner(tiny_spec(), executor).run(store=directory)
        assert len(first.failed_runs) == 1
        assert len(SweepResult.load_resumable(directory).failed_runs) == 1
        # Resume with the fault gone: the quarantined run is retried, not
        # carried forward, and the merged result matches the fault-free one.
        resumed = SweepRunner(tiny_spec(), executor).run(store=directory)
        assert not resumed.failed_runs
        assert records_as_dicts(resumed) == records_as_dicts(baseline)


POLICY = RetryPolicy(max_attempts=2)


class TestSupervisedPool:
    def test_supervised_fault_free_bit_identical(self, baseline):
        executor = PoolExecutor(processes=2, chunksize=1,
                                retry_policy=RetryPolicy(max_attempts=3),
                                run_timeout=60.0)
        result = SweepRunner(tiny_spec(), executor).run()
        assert not result.failed_runs
        assert records_as_dicts(result) == records_as_dicts(baseline)

    def test_worker_kill_recovered_bit_identical(self, baseline):
        """An injected ``os._exit`` mid-run silently loses the in-flight pool
        task; the deadline watchdog must rebuild the fleet and requeue."""
        executor = PoolExecutor(processes=2, chunksize=1,
                                retry_policy=POLICY, run_timeout=0.75)
        with injected_faults(FaultSpec(kind="kill", match="p0000/s001",
                                       times=1)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert not result.failed_runs
        assert records_as_dicts(result) == records_as_dicts(baseline)

    def test_hung_run_recovered_bit_identical(self, baseline):
        executor = PoolExecutor(processes=2, chunksize=1,
                                retry_policy=POLICY, run_timeout=0.75)
        with injected_faults(FaultSpec(kind="hang", match="p0001/s001",
                                       times=1, hang_seconds=60.0)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert not result.failed_runs
        assert records_as_dicts(result) == records_as_dicts(baseline)

    def test_permanent_kill_quarantined(self, baseline):
        executor = PoolExecutor(processes=2, chunksize=1,
                                retry_policy=POLICY, run_timeout=0.75)
        with injected_faults(FaultSpec(kind="kill", match="p0001/s000",
                                       times=99)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert [f.run_id for f in result.failed_runs] == ["t/p0001/s000"]
        assert "timed out or lost" in result.failed_runs[0].error
        assert len(result.records) == len(baseline.records) - 1

    def test_run_sweeps_routes_outcomes_by_run_id(self):
        """``run_sweeps`` streams both specs through one pass and routes
        each outcome to its spec by ``run_id``: a quarantined run lands in
        its own spec's ``failed_runs`` only."""
        specs = [tiny_spec(name="a"), tiny_spec(name="b")]
        victim = specs[1].expand()[1].run_id
        executor = PoolExecutor(processes=2, chunksize=1,
                                retry_policy=RetryPolicy(max_attempts=1))
        with injected_faults(FaultSpec(kind="raise", match=victim)):
            results = run_sweeps(specs, executor)
        assert results["a"].failed_runs == []
        assert [f.run_id for f in results["b"].failed_runs] == [victim]
        for spec in specs:
            serial = records_as_dicts(
                SweepRunner(spec, SerialExecutor()).run())
            assert records_as_dicts(results[spec.name]) == \
                [record for record in serial if record["run_id"] != victim]


# --------------------------------------------------------------------- #
# the headline acceptance test: everything armed at once
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("salt", [0] + ([1, 2] if CHAOS_EXTENDED else []))
def test_chaos_equivalence_all_faults_armed(tmp_path, salt):
    """Worker kill + hung run + transient raise + record-shard corruption +
    physics-store byte-flips, all at once: the supervised pool sweep
    completes via retry/recovery and its records are bit-identical to a
    fault-free serial baseline."""
    clear_level_cache()
    detach_shared_store()
    # Every worker process flips its own first publish, and the kill and
    # the deadline rebuilds start new workers, so several entries end up
    # quarantined.  Runs publish only their activity (candidate masks stay
    # in process), one entry per run under per-point seeds: two controllers
    # make eight, so the warm pass still finds intact entries to load.
    spec = tiny_spec(seeds=2, controllers=("booster", "dvfs"))
    baseline = SweepRunner(spec, SerialExecutor()).run()
    clear_level_cache()

    record_dir = str(tmp_path / "records")
    store_dir = str(tmp_path / "store")
    executor = PoolExecutor(processes=2, chunksize=1,
                            retry_policy=RetryPolicy(max_attempts=2),
                            run_timeout=0.9,
                            shared_cache_dir=store_dir)
    plan = [
        FaultSpec(kind="kill", match="p0000/s000", times=1),
        FaultSpec(kind="hang", match="p0001/s001", times=1, hang_seconds=60.0),
        FaultSpec(kind="raise", match="p0000/s001", times=1),
        FaultSpec(kind="shard_corrupt", times=1),
        FaultSpec(kind="store_flip", times=1),
    ]
    try:
        with injected_faults(*plan, salt=salt), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = SweepRunner(spec, executor).run(
                store=record_dir, checkpoint_every=1)
    finally:
        clear_level_cache()
        detach_shared_store()

    assert not result.failed_runs
    assert records_as_dicts(result) == records_as_dicts(baseline)
    # The physics store survived the byte-flips: a warm serial pass over it
    # (fresh in-memory cache, faults disarmed) loads its entries and still
    # reproduces the baseline, so a flipped entry is quarantined, never
    # served.
    store = attach_shared_store(store_dir)
    try:
        warm = SweepRunner(spec, SerialExecutor()).run()
    finally:
        clear_level_cache()
        detach_shared_store()
    assert records_as_dicts(warm) == records_as_dicts(baseline)
    assert store.stats()["load_hits"] > 0
    assert [n for n in os.listdir(store_dir) if n.endswith(".corrupt")]
    # The record store quarantines the flipped line on reopen, and the
    # resume re-runs what it ate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resumed = SweepRunner(spec, SerialExecutor()).run(store=record_dir)
    assert records_as_dicts(resumed) == records_as_dicts(baseline)
    assert scan_store(record_dir).sealed


# --------------------------------------------------------------------- #
# checkpoint loading
# --------------------------------------------------------------------- #
class TestCheckpointIntegrity:
    def test_load_resumable_missing_is_callers_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SweepResult.load_resumable(str(tmp_path / "nope"))


# --------------------------------------------------------------------- #
# retry budgets across resume + supervision telemetry
# --------------------------------------------------------------------- #
class TestRetryBudgetsAndTelemetry:
    def test_resume_retries_exhausted_runs_under_new_policy(
            self, tmp_path, baseline):
        """A new RetryPolicy on resume grants quarantined runs a fresh budget.

        The fault fires on attempts 1-2; the first pass allows only 2, so
        the run exhausts and quarantines.  Resuming under ``max_attempts=3``
        (with jittered backoff, for good measure) retries it from attempt 1
        — attempt 3 clears the fault — and the merged result is bit-identical
        to the fault-free baseline.
        """
        directory = str(tmp_path / "store")
        with injected_faults(FaultSpec(kind="raise", match="p0000/s001",
                                       times=2)):
            tight = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2))
            first = SweepRunner(tiny_spec(), tight).run(store=directory)
            assert [f.run_id for f in first.failed_runs] == ["t/p0000/s001"]
            assert first.failed_runs[0].attempts == 2
            assert tight.stats.retries == 1

            generous = SerialExecutor(retry_policy=RetryPolicy(
                max_attempts=3, backoff=0.001, jitter="decorrelated",
                jitter_salt=11))
            resumed = SweepRunner(tiny_spec(), generous).run(store=directory)
        assert not resumed.failed_runs
        assert generous.stats.retries == 2
        assert records_as_dicts(resumed) == records_as_dicts(baseline)

    def test_checkpoint_log_reports_retry_totals(self, tmp_path, caplog):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=3))
        with injected_faults(FaultSpec(kind="raise", match="p0000/s000",
                                       times=1)):
            with caplog.at_level(logging.INFO, logger="repro.sweep"):
                SweepRunner(tiny_spec(), executor).run(
                    store=str(tmp_path / "store"), checkpoint_every=1)
        lines = [r.message for r in caplog.records
                 if "checkpoint at" in r.message]
        assert lines
        assert "0 failed, 1 retried" in lines[-1]

    def test_checkpoint_log_reports_failure_totals(self, tmp_path, caplog):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=1))
        with injected_faults(FaultSpec(kind="raise", match="p0000/s000",
                                       times=9)):
            with caplog.at_level(logging.INFO, logger="repro.sweep"):
                SweepRunner(tiny_spec(), executor).run(
                    store=str(tmp_path / "store"), checkpoint_every=1)
        lines = [r.message for r in caplog.records
                 if "checkpoint at" in r.message]
        assert lines
        assert "1 failed, 0 retried" in lines[-1]


# --------------------------------------------------------------------- #
# fault attribution (FailedRun.fault)
# --------------------------------------------------------------------- #
class TestFaultAttribution:
    def test_describe_run_faults_is_pure_and_parent_computable(self):
        """Attribution is a pure function of the plan — computable from any
        process holding it, including the parent of a killed worker."""
        with injected_faults(FaultSpec(kind="kill", match="p0001", times=2),
                             FaultSpec(kind="raise", match="p0001", times=1)):
            assert faults.describe_run_faults("t/p0001/s000", 3) == \
                "kill@1,raise@1,kill@2"
            assert faults.describe_run_faults("t/p0000/s000", 3) == ""
        assert faults.describe_run_faults("t/p0001/s000", 3) == ""

    def test_failed_run_carries_fault_attribution(self):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2))
        with injected_faults(FaultSpec(kind="raise", match="p0001/s000",
                                       times=99)):
            result = SweepRunner(tiny_spec(), executor).run()
        assert [f.fault for f in result.failed_runs] == ["raise@1,raise@2"]
        # Round-trips through JSON; payloads predating the field still load.
        payload = result.failed_runs[0].to_json_dict()
        assert FailedRun.from_json_dict(payload).fault == "raise@1,raise@2"
        payload.pop("fault")
        assert FailedRun.from_json_dict(payload).fault == ""
