"""Tests for the crash-safe sweep service (:mod:`repro.service`).

The load-bearing guarantees:

* the job journal is a real WAL: fsync'd appends, per-line digests, a
  ``seq`` gap treated as damage — and replay reconstructs the registry
  through the same apply path live execution uses (the damage rule and the
  ENOSPC backlog it shares with the record shards are tested over both logs
  in ``tests/test_store.py::TestLineLogs``);
* ``kill -9`` at the nastiest instants (right after a durable record-store
  flush the journal never hears of, mid-journal-append torn writes, after
  the ``done`` append but before the in-memory apply) + restart yields
  records **bit-identical** to an uninterrupted run — exercised in real
  subprocesses, since the faults ``os._exit`` the daemon;
* the journal records lifecycle only: a job's progress counts come from its
  pass while it runs and from its record store otherwise;
* submission is idempotent (job keys dedupe across restarts), admission is
  bounded (429-style backpressure with a retry-after hint), cancellation and
  graceful shutdown drain cleanly to resumable checkpoints;
* the REST surface speaks the same contract over HTTP and in-process.

Chaos-extended cases (more kill sites, submit storms over HTTP) run when
``REPRO_CHAOS=1`` — CI's chaos job sets it.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.service import (
    Backpressure,
    InProcessClient,
    JobJournal,
    JobRegistry,
    JobStateError,
    ServiceAPI,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    ServiceUnavailable,
    SweepService,
)
from repro.sweep import (
    FaultSpec,
    PoolExecutor,
    SerialExecutor,
    SweepResult,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
)
from repro.sweep import faults
from repro.sweep.faults import KILL_EXIT_CODE
from repro.sweep.runner import _usable_cpus
from repro.sweep.spec import RetryPolicy
from tests.helpers import legacy_line

CHAOS_EXTENDED = bool(os.environ.get("REPRO_CHAOS"))

#: Fast synthetic workload on a tiny chip: builds in milliseconds, no QAT.
TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2, banks=4,
                    rows=8, n_operators=4, label="tiny")


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(name="t", workloads=(TINY,), controllers=("booster",),
                    betas=(10, 50), cycles=120, seeds=2, master_seed=7)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def wide_spec(**overrides) -> SweepSpec:
    """A 16-run sweep: wide enough to catch mid-flight (cancel/drain/kill)."""
    return tiny_spec(betas=(10, 30, 50, 70), seeds=4, **overrides)


def records_as_dicts(result: SweepResult):
    return [r.to_json_dict() for r in result.sorted_records()]


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm_faults()
    yield
    faults.disarm_faults()


@pytest.fixture(scope="module")
def baseline():
    return SweepRunner(tiny_spec(), SerialExecutor()).run()


@pytest.fixture(scope="module")
def wide_baseline():
    return SweepRunner(wide_spec(), SerialExecutor()).run()


def service_records(data_dir: str, job_id: str) -> SweepResult:
    """A job's persisted records, read back from its record store."""
    return SweepResult.load_resumable(
        os.path.join(data_dir, "jobs", job_id, "records"))


# --------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------- #
class TestJobJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.append("submit", "j1", total_runs=4)
        journal.append("running", "j1")
        journal.append("done", "j1", records_done=4)
        journal.close()

        events = JobJournal(path).replay()
        assert [e.event for e in events] == ["submit", "running", "done"]
        assert [e.seq for e in events] == [1, 2, 3]
        assert events[0].data["total_runs"] == 4

    def test_every_line_carries_a_valid_digest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.append("submit", "j1")
        journal.close()
        payload = json.loads(open(path).read())
        assert len(payload.pop("sha256")) == 64

    def test_digest_damage_at_tail_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.append("submit", "j1")
        journal.append("running", "j1")
        journal.close()
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1].replace(b'"event":"running"',
                                      b'"event":"runninh"')
        with open(path, "wb") as handle:
            handle.writelines(lines)

        reopened = JobJournal(path)
        assert [e.event for e in reopened.replay()] == ["submit"]
        assert reopened.stats.torn_tail_dropped == 1
        reopened.close()

    def test_seq_gap_is_damage(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        for event in ("submit", "running", "done"):
            journal.append(event, "j1")
        journal.close()
        with open(path, "rb") as handle:
            lines = handle.readlines()
        with open(path, "wb") as handle:
            handle.writelines([lines[0], lines[2]])     # drop seq 2

        reopened = JobJournal(path)
        assert [e.event for e in reopened.replay()] == ["submit"]
        reopened.close()

    def test_nothing_after_a_damaged_first_line_is_kept(self, tmp_path):
        """Replay keeps the ordered prefix before the damage: with the first
        line damaged that prefix is empty, however intact the rest."""
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        for event in ("submit", "running", "done"):
            journal.append(event, "j1")
        journal.close()
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[0] = b'{"garbage": true}\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)

        reopened = JobJournal(path)
        with pytest.warns(RuntimeWarning, match="quarantining"):
            assert reopened.replay() == []
        assert reopened.stats.corrupt_lines == 1
        assert reopened.append("submit", "j2").seq == 1
        reopened.close()
        assert [e.job_id for e in JobJournal(path).replay()] == ["j2"]

    def test_compaction_preserves_seq_monotonicity(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        for event in ("submit", "running", "done"):
            journal.append(event, "j1")
        journal.compact([{"job_id": "j1", "state": "done"}])
        entry = journal.append("submit", "j2")
        journal.close()
        events = JobJournal(path).replay()
        assert [e.event for e in events] == ["snapshot", "submit"]
        assert events[0].seq == 4 and entry.seq == 5


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestJobRegistry:
    def open_registry(self, tmp_path) -> JobRegistry:
        return JobRegistry.open(JobJournal(str(tmp_path / "j.jsonl")))

    def test_lifecycle_happy_path(self, tmp_path):
        registry = self.open_registry(tmp_path)
        job, created = registry.submit({"name": "s"}, total_runs=4)
        assert created and job.state == "admitted"
        registry.transition("running", job.job_id)
        final = registry.transition("done", job.job_id, records_done=4,
                                    failed_runs=0)
        assert final.state == "done" and final.records_done == 4

    def test_illegal_transitions_rejected(self, tmp_path):
        registry = self.open_registry(tmp_path)
        job, _ = registry.submit({"name": "s"})
        with pytest.raises(JobStateError):
            registry.transition("done", job.job_id)      # not running yet
        with pytest.raises(JobStateError):
            registry.transition("nonsense", job.job_id)
        with pytest.raises(KeyError):
            registry.transition("admit", "j999999")

    def test_replay_reconstructs_identical_state(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        registry = JobRegistry.open(JobJournal(path))
        job, _ = registry.submit({"name": "s"}, job_key="k", total_runs=4)
        registry.transition("admit", job.job_id)
        registry.transition("running", job.job_id,
                            store_counters={"torn_tail_dropped": 1})
        registry.transition("suspend", job.job_id, reason="test",
                            records_done=2, failed_runs=1)
        registry.journal.close()

        replayed = JobRegistry.open(JobJournal(path))
        original = registry.get(job.job_id).to_dict()
        restored = replayed.get(job.job_id).to_dict()
        # updated_ts is wall-clock at apply time; everything else matches.
        original.pop("updated_ts"), restored.pop("updated_ts")
        assert restored == original
        assert replayed.find_by_key("k").job_id == job.job_id

    def test_idempotent_submit_and_spec_conflict(self, tmp_path):
        registry = self.open_registry(tmp_path)
        first, created = registry.submit({"name": "a"}, job_key="k")
        again, attached = registry.submit({"name": "a"}, job_key="k")
        assert created and not attached
        assert again.job_id == first.job_id
        with pytest.raises(JobStateError, match="different spec"):
            registry.submit({"name": "b"}, job_key="k")

    def test_recover_interrupted_readmits_and_counts(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        registry = JobRegistry.open(JobJournal(path))
        running, _ = registry.submit({"name": "a"}, job_key="a")
        registry.transition("admit", running.job_id)
        registry.transition("running", running.job_id)
        finished, _ = registry.submit({"name": "b"}, job_key="b")
        registry.transition("admit", finished.job_id)
        registry.transition("running", finished.job_id)
        registry.transition("done", finished.job_id)
        registry.journal.close()

        replayed = JobRegistry.open(JobJournal(path))
        interrupted = replayed.recover_interrupted()
        assert [j.job_id for j in interrupted] == [running.job_id]
        recovered = replayed.get(running.job_id)
        assert recovered.state == "admitted" and recovered.recoveries == 1
        assert replayed.get(finished.job_id).state == "done"

    def test_compaction_roundtrip_and_id_monotonicity(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        registry = JobRegistry.open(JobJournal(path))
        for key in ("a", "b"):
            job, _ = registry.submit({"name": key}, job_key=key)
            registry.transition("admit", job.job_id)
        assert registry.maybe_compact(max_bytes=1)
        assert not registry.maybe_compact(max_bytes=1 << 30)
        registry.journal.close()

        replayed = JobRegistry.open(JobJournal(path))
        assert {j.job_key for j in replayed.list_jobs()} == {"a", "b"}
        assert [j.state for j in replayed.list_jobs()] == \
            ["admitted", "admitted"]
        # Fresh ids continue after the compacted ones: no reuse.
        newer, _ = replayed.submit({"name": "c"}, job_key="c")
        assert newer.job_id == "j000003"

    def test_journal_with_checkpoint_lines_replays(self, tmp_path):
        """A journal from before ``checkpoint`` was deleted replays: its
        checkpoint lines update the counts and land in no state, a
        snapshot's ``checkpoints`` key is ignored, and a new checkpoint is
        refused."""
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.compact([{"job_id": "j000001", "job_key": "snap",
                          "spec": {"name": "s"}, "state": "admitted",
                          "total_runs": 4, "records_done": 1,
                          "checkpoints": 3}])
        journal.append("running", "j000001")
        journal.append("checkpoint", "j000001", records_done=2,
                       failed_runs=1,
                       store_counters={"torn_tail_dropped": 1})
        journal.close()

        registry = JobRegistry.open(JobJournal(path))
        job = registry.get("j000001")
        assert job.state == "running"
        assert (job.records_done, job.failed_runs) == (2, 1)
        assert job.store_stats == {"torn_tail_dropped": 1}
        assert "checkpoints" not in job.to_dict()
        with pytest.raises(JobStateError):
            registry.transition("checkpoint", job.job_id, records_done=3)
        assert registry.get("j000001").records_done == 2
        registry.journal.close()
        assert [e.event for e in JobJournal(path).replay()] == \
            ["snapshot", "running", "checkpoint"]

    def test_journal_with_submit_then_admit_replays(self, tmp_path):
        """A job once entered the queue through two lines: a ``submit``
        that landed it in ``submitted``, then an ``admit``.  A journal in
        that shape — and in that era's sorted-key line format — replays,
        and so does a ``submit`` a crash left without its ``admit``; a
        restart re-admits both."""
        path = str(tmp_path / "j.jsonl")
        old_lines = [
            ("submit", "j000001", {"job_key": "pair", "spec": {"name": "a"},
                                   "state": "submitted", "created_ts": 1.0,
                                   "total_runs": 4}),
            ("admit", "j000001", {}),
            ("submit", "j000002", {"job_key": "alone", "spec": {"name": "b"},
                                   "state": "submitted", "created_ts": 2.0,
                                   "total_runs": 4}),
        ]
        with open(path, "wb") as handle:
            for seq, (event, job_id, data) in enumerate(old_lines, 1):
                handle.write(legacy_line(
                    {"seq": seq, "ts": 1.0, "event": event,
                     "job_id": job_id, "data": data}, sort_keys=True))

        registry = JobRegistry.open(JobJournal(path))
        assert [(j.job_key, j.state) for j in registry.list_jobs()] == \
            [("pair", "admitted"), ("alone", "submitted")]
        interrupted = registry.recover_interrupted()
        assert [j.job_id for j in interrupted] == ["j000001", "j000002"]
        assert [(j.state, j.recoveries) for j in registry.list_jobs()] == \
            [("admitted", 1), ("admitted", 1)]
        job, created = registry.submit({"name": "c"}, job_key="new")
        assert created and (job.job_id, job.state) == ("j000003", "admitted")
        registry.journal.close()
        assert [e.event for e in JobJournal(path).replay()] == \
            ["submit", "admit", "submit", "admit", "admit", "submit"]

    def test_journal_with_per_job_options_replays(self, tmp_path, baseline):
        """Jobs once carried per-job ``options``; a journal whose ``submit``
        and ``snapshot`` lines still hold them replays with the field
        ignored, and a daemon runs both jobs to the serial records."""
        spec = tiny_spec().to_json_dict()
        options = {"ensembles": True, "checkpoint_every": 1}
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        journal.compact([{"job_id": "j000001", "job_key": "snap",
                          "spec": spec, "options": options,
                          "state": "admitted", "total_runs": 4}])
        journal.append("submit", "j000002", job_key="sub", spec=spec,
                       options=options, state="submitted", total_runs=4)
        journal.close()

        replayed = JobRegistry.open(
            JobJournal(str(tmp_path / "journal.jsonl")))
        assert [j.job_key for j in replayed.list_jobs()] == ["snap", "sub"]
        assert all("options" not in j.to_dict()
                   for j in replayed.list_jobs())
        replayed.journal.close()

        service = SweepService(str(tmp_path)).start()
        try:
            for job_id in ("j000001", "j000002"):
                assert service.wait_for(job_id, timeout=60)["state"] == "done"
        finally:
            service.shutdown(timeout=30)
        for job_id in ("j000001", "j000002"):
            stored = service_records(str(tmp_path), job_id)
            assert records_as_dicts(stored) == records_as_dicts(baseline)


# --------------------------------------------------------------------- #
# service core (in-process)
# --------------------------------------------------------------------- #
class TestServiceLifecycle:
    def test_submit_run_result_roundtrip(self, tmp_path, baseline):
        service = SweepService(str(tmp_path), checkpoint_every=2).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job = client.submit(tiny_spec(), job_key="k1")
            assert job["created"] and job["state"] == "admitted"
            final = client.wait(job["job_id"])
            assert final["state"] == "done"
            assert final["records_done"] == tiny_spec().n_runs
            payload = client.result(job["job_id"])
            assert payload["n_records"] == tiny_spec().n_runs
            assert [r["run_id"] for r in payload["records"]] == \
                [r["run_id"] for r in records_as_dicts(baseline)]
            slim = client.result(job["job_id"], include_records=False)
            assert "records" not in slim and slim["points"]
            # Bit-identical to the library path.
            stored = service_records(str(tmp_path), job["job_id"])
            assert records_as_dicts(stored) == records_as_dicts(baseline)
        finally:
            service.shutdown(timeout=30)

    def test_duplicate_job_key_attaches(self, tmp_path):
        service = SweepService(str(tmp_path)).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            first = client.submit(tiny_spec(), job_key="dup")
            again = client.submit(tiny_spec(), job_key="dup")
            assert first["created"] and not again["created"]
            assert again["job_id"] == first["job_id"]
            client.wait(first["job_id"])
            # Attaching after completion serves the existing result too.
            late = client.submit(tiny_spec(), job_key="dup")
            assert not late["created"] and late["state"] == "done"
        finally:
            service.shutdown(timeout=30)

    def test_conflicting_spec_for_key_is_409(self, tmp_path):
        # Scheduler intentionally not started: pure admission-layer test.
        service = SweepService(str(tmp_path))
        client = InProcessClient(ServiceAPI(service))
        client.submit(tiny_spec(), job_key="k")
        with pytest.raises(ServiceError) as info:
            client.submit(tiny_spec(master_seed=8), job_key="k")
        assert info.value.status == 409
        service.journal.close()

    def test_backpressure_rejects_with_retry_after(self, tmp_path):
        service = SweepService(str(tmp_path), max_queue=2)   # not started
        client = InProcessClient(ServiceAPI(service))
        client.submit(tiny_spec(), job_key="a")
        client.submit(tiny_spec(), job_key="b")
        with pytest.raises(ServiceError) as info:
            client.submit(tiny_spec(), job_key="c")
        assert info.value.status == 429
        assert info.value.retry_after > 0
        # A duplicate of admitted work is exempt: attaching costs nothing.
        attached = client.submit(tiny_spec(), job_key="a")
        assert not attached["created"]
        service.journal.close()

    def test_submit_storm_admits_exactly_the_queue_bound(self, tmp_path):
        service = SweepService(str(tmp_path), max_queue=3)   # not started
        spec = tiny_spec().to_json_dict()
        outcomes = []

        def storm(index: int) -> None:
            try:
                _, created = service.submit(spec, job_key=f"k{index}")
                outcomes.append(("admitted", created))
            except Backpressure as error:
                outcomes.append(("rejected", error.retry_after))

        threads = [threading.Thread(target=storm, args=(i,))
                   for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        admitted = [o for o in outcomes if o[0] == "admitted"]
        rejected = [o for o in outcomes if o[0] == "rejected"]
        assert len(admitted) == 3 and len(rejected) == 9
        assert all(hint > 0 for _, hint in rejected)
        service.journal.close()
        # The storm's journal replays to a consistent registry.
        replayed = JobRegistry.open(
            JobJournal(str(tmp_path / "journal.jsonl")))
        assert len(replayed.list_jobs()) == 3
        assert all(j.state == "admitted" for j in replayed.list_jobs())

    def test_cancel_queued_job_is_instant(self, tmp_path):
        service = SweepService(str(tmp_path), max_queue=4)   # not started
        client = InProcessClient(ServiceAPI(service))
        job = client.submit(tiny_spec(), job_key="q")
        cancelled = client.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        service.journal.close()

    def test_cancel_running_job_drains_cleanly(self, tmp_path):
        service = SweepService(str(tmp_path), checkpoint_every=1).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job = client.submit(wide_spec(), job_key="c")
            deadline = time.monotonic() + 60
            while client.status(job["job_id"])["records_done"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            client.cancel(job["job_id"])
            final = client.wait(job["job_id"])
            assert final["state"] == "cancelled"
            assert final["cancel_requested"]
            assert 1 <= final["records_done"] < wide_spec().n_runs
            # The partial work is checkpointed, not lost.
            partial = service_records(str(tmp_path), job["job_id"])
            assert len(partial.records) == final["records_done"]
        finally:
            service.shutdown(timeout=30)

    @pytest.mark.parametrize("extra", [
        {"options": {"ensembles": True}},
        {"options": {"checkpoint_every": 1}},
        {"priority": 1},
    ], ids=["ensembles-option", "checkpoint-option", "unknown-field"])
    def test_submit_body_beyond_spec_and_job_key_is_400(self, tmp_path,
                                                        extra):
        service = SweepService(str(tmp_path))    # not started
        status, payload, _ = ServiceAPI(service).handle(
            "POST", "/jobs", {"spec": tiny_spec().to_json_dict(), **extra})
        assert status == 400
        assert next(iter(extra)) in payload["error"]
        assert service.jobs() == []
        service.journal.close()

    def test_result_before_terminal_is_409(self, tmp_path):
        service = SweepService(str(tmp_path), max_queue=4)   # not started
        client = InProcessClient(ServiceAPI(service))
        job = client.submit(tiny_spec(), job_key="r")
        with pytest.raises(ServiceError) as info:
            client.result(job["job_id"])
        assert info.value.status == 409
        service.journal.close()

    def test_draining_service_is_503(self, tmp_path):
        service = SweepService(str(tmp_path))
        service._draining.set()
        client = InProcessClient(ServiceAPI(service))
        with pytest.raises(ServiceError) as info:
            client.submit(tiny_spec(), job_key="late")
        assert info.value.status == 503
        service.journal.close()

    def test_health_reports_fleet_queue_and_store(self, tmp_path):
        """``/health`` reports the fleet, the queue and the journal and
        record-store counters; no daemon keeps a physics store, so there is
        no ``store`` key and no ``data_dir/store``."""
        service = SweepService(str(tmp_path)).start()
        try:
            health = InProcessClient(ServiceAPI(service)).health()
            assert health["status"] == "ok"
            assert health["scheduler_alive"]
            assert health["queue_depth"] == 0
            assert health["fleet"]["executor"] == "SerialExecutor"
            assert health["fleet"]["supervised"]
            assert "store" not in health
            assert not os.path.exists(tmp_path / "store")
            assert health["journal"]["appended"] >= 1
            assert set(health["jobs"]) == {"submitted", "admitted", "running",
                                           "suspended", "done", "failed",
                                           "cancelled"}
            assert health["degraded_reasons"] == []
            assert health["lease"] and not health["lease"]["lost"]
            assert health["active_jobs"] == []
        finally:
            service.shutdown(timeout=30)

    @pytest.mark.parametrize("processes", [None, 1])
    def test_run_timeout_on_a_serial_fleet_raises(self, tmp_path, processes):
        """A serial fleet cannot time out a run in process, so a
        ``run_timeout`` it would silently drop is refused."""
        with pytest.raises(ValueError, match="run_timeout"):
            SweepService(str(tmp_path), processes=processes,
                         run_timeout=1.0)

    @pytest.mark.parametrize("name, value", [
        ("processes", 2),
        ("retry_policy", RetryPolicy(max_attempts=2)),
        ("run_timeout", 1.0),
    ], ids=["processes", "retry_policy", "run_timeout"])
    def test_fleet_argument_next_to_an_executor_raises(self, tmp_path,
                                                       name, value):
        """``processes``, ``retry_policy`` and ``run_timeout`` configure
        the fleet the service builds; an explicit executor would ignore
        them."""
        with pytest.raises(ValueError, match=name):
            SweepService(str(tmp_path), executor=SerialExecutor(),
                         **{name: value})

    def test_health_reports_default_pool_worker_count(self, tmp_path):
        """A default ``PoolExecutor`` runs one worker per usable CPU, and
        the fleet's liveness reports that count rather than 1."""
        service = SweepService(str(tmp_path), executor=PoolExecutor())
        fleet = service.health()["fleet"]
        assert fleet["executor"] == "PoolExecutor"
        assert fleet["processes"] == _usable_cpus()

    def test_graceful_shutdown_drains_and_restart_completes(
            self, tmp_path, wide_baseline):
        # The second run sleeps, so the drain lands mid-flight however fast
        # the other 15 runs are; the restart runs disarmed.
        with faults.injected_faults(FaultSpec(
                kind="hang", match="t/p0000/s001", hang_seconds=0.5)):
            service = SweepService(str(tmp_path), checkpoint_every=1).start()
            job_id = None
            try:
                job, _ = service.submit(wide_spec().to_json_dict(),
                                        job_key="g")
                job_id = job.job_id
                deadline = time.monotonic() + 60
                while service.status(job_id)["records_done"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            finally:
                service.shutdown(timeout=60)
        drained = service.status(job_id)
        assert drained["state"] == "running"          # journaled mid-flight
        assert drained["records_done"] >= 1

        resumed = SweepService(str(tmp_path), checkpoint_every=4).start()
        try:
            final = resumed.wait_for(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["recoveries"] == 1
            stored = service_records(str(tmp_path), job_id)
            assert records_as_dicts(stored) == records_as_dicts(wide_baseline)
        finally:
            resumed.shutdown(timeout=30)

    def test_failing_spec_lands_in_failed(self, tmp_path):
        service = SweepService(str(tmp_path)).start()
        try:
            spec = tiny_spec().to_json_dict()
            spec["seeds"] = 0       # no longer round-trips through SweepSpec
            # Bypass submit-time validation to hit the execution error path
            # (models a journaled spec from an older, looser schema).
            job, _ = service.registry.submit(spec, job_key="bad",
                                             total_runs=4)
            service.registry.transition("admit", job.job_id)
            with service._lock:
                service._queue.append(job.job_id)
            service._wake.set()
            final = service.wait_for(job.job_id, timeout=60)
            assert final["state"] == "failed"
            assert final["error"]
        finally:
            service.shutdown(timeout=30)


class TestLifecycleJournal:
    """The journal records lifecycle only; a job's progress counts come
    from its pass while it runs and from its record store otherwise."""

    def test_finished_job_journals_lifecycle_only(self, tmp_path):
        service = SweepService(str(tmp_path), checkpoint_every=1).start()
        try:
            job, _ = service.submit(tiny_spec().to_json_dict(), job_key="l")
            assert service.wait_for(job.job_id)["state"] == "done"
        finally:
            service.shutdown(timeout=30)
        assert [e["event"] for e in journal_events(str(tmp_path))
                if e.get("job_id") == job.job_id] == \
            ["submit", "running", "done"]
        assert sorted(os.listdir(tmp_path)) == ["jobs", "journal.jsonl"]

    def test_status_counts_track_the_store_between_flushes(self, tmp_path):
        """``records_done`` follows every run, not every fourth one."""
        gate = threading.Semaphore(0)

        class SteppedExecutor(SerialExecutor):
            """Runs one work unit per ``gate`` release."""

            def imap_unordered(self, fn, runs):
                for run in runs:
                    assert gate.acquire(timeout=30)
                    yield fn(run)

        spec = tiny_spec(seeds=3)
        service = SweepService(str(tmp_path), executor=SteppedExecutor(),
                               checkpoint_every=4).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job_id = client.submit(spec, job_key="steps")["job_id"]
            seen = []
            for seq in range(spec.n_runs):
                gate.release()
                page = client.records(job_id, wait_seq=seq, wait_timeout=30)
                assert page["total_records"] == seq + 1
                seen.append(client.status(job_id)["records_done"])
            assert client.wait(job_id)["records_done"] == spec.n_runs
        finally:
            service.shutdown(timeout=30)
        assert seen == list(range(1, spec.n_runs + 1))

    def test_store_repair_reaches_health_while_the_job_runs(self, tmp_path,
                                                            baseline):
        """A job whose store recovery drops a torn tail shows it in
        ``/health`` from its ``running`` event, before any run finishes."""
        from repro.store import ShardedRecordStore
        release = threading.Event()

        class HoldFirstExecutor(SerialExecutor):
            def imap_unordered(self, fn, runs):
                assert release.wait(timeout=30)
                yield from super().imap_unordered(fn, runs)

        spec = tiny_spec()
        service = SweepService(str(tmp_path), executor=HoldFirstExecutor())
        job, _ = service.submit(spec.to_json_dict(), job_key="torn")
        store = ShardedRecordStore(service.store_path(job.job_id), spec=spec)
        store.append(baseline.records[0])  # one run done before a crash
        store.flush()
        store.close()
        shards = os.path.join(service.store_path(job.job_id), "shards")
        (shard,) = os.listdir(shards)
        with open(os.path.join(shards, shard), "ab") as handle:
            handle.write(b'{"seq": 2, "kind": "rec')     # a torn append
        service.start()
        try:
            deadline = time.monotonic() + 30
            while job.job_id not in service.health()["active_jobs"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            health = service.health()
            assert service.status(job.job_id)["records_done"] == 1
            release.set()
            assert service.wait_for(job.job_id)["state"] == "done"
        finally:
            release.set()
            service.shutdown(timeout=30)
        assert health["degraded"]
        assert health["record_stores"]["torn_tail_dropped"] == 1


# --------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------- #
class TestHTTPTransport:
    def test_rest_roundtrip(self, tmp_path, baseline):
        service = SweepService(str(tmp_path), checkpoint_every=2).start()
        http = ServiceHTTPServer(service).start()
        try:
            client = ServiceClient(http.url)
            job = client.submit(tiny_spec(), job_key="h")
            assert job["created"]
            again = client.submit(tiny_spec(), job_key="h")
            assert not again["created"]
            final = client.wait(job["job_id"])
            assert final["state"] == "done"
            payload = client.result(job["job_id"], include_records=False)
            assert payload["n_records"] == tiny_spec().n_runs
            assert "records" not in payload
            assert client.health()["status"] == "ok"
            assert any(j["job_id"] == job["job_id"] for j in client.jobs())
        finally:
            http.stop()
            service.shutdown(timeout=30)

    def test_http_error_contract(self, tmp_path):
        service = SweepService(str(tmp_path), max_queue=1)   # not started
        http = ServiceHTTPServer(service).start()
        try:
            client = ServiceClient(http.url)
            with pytest.raises(ServiceError) as info:
                client.status("j999999")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client._request("POST", "/jobs", {"not_spec": 1})
            assert info.value.status == 400
            client.submit(tiny_spec(), job_key="only")
            with pytest.raises(ServiceError) as info:
                client.submit(tiny_spec(master_seed=9), job_key="other")
            assert info.value.status == 429
            assert info.value.retry_after > 0
        finally:
            http.stop()
            service.journal.close()


# --------------------------------------------------------------------- #
# daemon chaos: kill -9 + restart => bit-identical records
# --------------------------------------------------------------------- #
def _daemon_once(data_dir, spec_dict, fault_dicts, job_key):
    """Child-process body: run one daemon pass over ``data_dir``.

    Arms the given fault plan (disarming anything inherited first), submits
    — or, after a restart, attaches to — the job, waits for it, and shuts
    down gracefully.  An armed ``daemon_kill``/``journal_torn`` fault
    ``os._exit(KILL_EXIT_CODE)``s somewhere in the middle, which is the
    point.
    """
    faults.disarm_faults()
    if fault_dicts:
        faults.arm_faults(*[FaultSpec(**f) for f in fault_dicts])
    service = SweepService(data_dir, checkpoint_every=1).start()
    job, _created = service.submit(spec_dict, job_key=job_key)
    service.wait_for(job.job_id, timeout=120)
    service.shutdown(timeout=60)
    os._exit(0)


def run_daemon_once(data_dir: str, spec: SweepSpec, fault_dicts=(),
                    job_key: str = "chaos") -> int:
    context = multiprocessing.get_context("fork")
    child = context.Process(
        target=_daemon_once,
        args=(data_dir, spec.to_json_dict(), list(fault_dicts), job_key))
    child.start()
    child.join(timeout=180)
    if child.is_alive():                      # pragma: no cover - deadline
        child.kill()
        child.join()
        pytest.fail("daemon child did not exit within the deadline")
    return child.exitcode


KILL_SITES = [
    # Right after a durable record-store flush (a sweep checkpoint) that the
    # journal never hears of: its next commit is the job's `done`.
    pytest.param({"kind": "daemon_kill", "match": "recordstore:flush"},
                 id="between-checkpoint-and-journal-commit"),
    # Torn write in the middle of a journal append (a `running` event).
    pytest.param({"kind": "journal_torn", "match": "#running"},
                 id="mid-journal-append-torn"),
    # The done event hit the journal but the crash beat the in-memory apply.
    pytest.param({"kind": "daemon_kill", "match": "registry:done"},
                 id="after-done-append",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
    # The done append itself tears.
    pytest.param({"kind": "journal_torn", "match": "#done"},
                 id="done-append-torn",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
    # Kill between the submit append and its apply.
    pytest.param({"kind": "daemon_kill", "match": "registry:submit"},
                 id="mid-submit",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
    # Kill as the graceful drain starts.
    pytest.param({"kind": "daemon_kill", "match": "daemon:drain"},
                 id="mid-drain",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
]


class TestDaemonChaos:
    @pytest.mark.parametrize("fault", KILL_SITES)
    def test_kill_restart_is_bit_identical(self, tmp_path, baseline, fault):
        data_dir = str(tmp_path / "svc")
        spec = tiny_spec()
        first = run_daemon_once(data_dir, spec, [fault])
        assert first == KILL_EXIT_CODE, \
            f"fault {fault} never fired (exit {first})"
        # Restart over the same data dir, no faults: recovery must finish
        # the job and the records must match an uninterrupted serial run.
        second = run_daemon_once(data_dir, spec, [])
        assert second == 0

        registry = JobRegistry.open(
            JobJournal(os.path.join(data_dir, "journal.jsonl")))
        job = registry.find_by_key("chaos")
        assert job is not None and job.state == "done"
        stored = service_records(data_dir, job.job_id)
        assert records_as_dicts(stored) == records_as_dicts(baseline)
        assert len({r.run_id for r in stored.records}) == spec.n_runs

    def test_recovery_is_attributed_in_job_status(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        spec = tiny_spec()
        fault = {"kind": "daemon_kill", "match": "recordstore:flush"}
        assert run_daemon_once(data_dir, spec, [fault]) == KILL_EXIT_CODE
        assert run_daemon_once(data_dir, spec, []) == 0
        registry = JobRegistry.open(
            JobJournal(os.path.join(data_dir, "journal.jsonl")))
        job = registry.find_by_key("chaos")
        # The restart re-admitted the interrupted job exactly once, and the
        # idempotent resubmission in the second child attached instead of
        # creating a twin.
        assert job.recoveries == 1
        assert len(registry.list_jobs()) == 1

    @pytest.mark.skipif(not CHAOS_EXTENDED, reason="REPRO_CHAOS=1 only")
    def test_double_kill_then_recovery(self, tmp_path, baseline):
        """Two crashes at different sites back to back still converge."""
        data_dir = str(tmp_path / "svc")
        spec = tiny_spec()
        first = {"kind": "daemon_kill", "match": "recordstore:flush"}
        torn = {"kind": "journal_torn", "match": "#running"}
        assert run_daemon_once(data_dir, spec, [first]) == KILL_EXIT_CODE
        assert run_daemon_once(data_dir, spec, [torn]) == KILL_EXIT_CODE
        assert run_daemon_once(data_dir, spec, []) == 0
        registry = JobRegistry.open(
            JobJournal(os.path.join(data_dir, "journal.jsonl")))
        job = registry.find_by_key("chaos")
        assert job.state == "done" and job.recoveries == 2
        stored = service_records(data_dir, job.job_id)
        assert records_as_dicts(stored) == records_as_dicts(baseline)


# --------------------------------------------------------------------- #
# multi-job scheduling: fair share, isolation, circuit breaker, lease,
# disk-exhaustion degraded mode (PR 10)
# --------------------------------------------------------------------- #
def second_spec(**overrides) -> SweepSpec:
    """A second 16-run sweep with its own name (distinct run-id namespace)."""
    defaults = dict(name="u", master_seed=11)
    defaults.update(overrides)
    return wide_spec(**defaults)


@pytest.fixture(scope="module")
def second_baseline():
    return SweepRunner(second_spec(), SerialExecutor()).run()


def journal_events(data_dir: str):
    events = []
    with open(os.path.join(data_dir, "journal.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                events.append(json.loads(line))
    return events


class TestMultiJobScheduling:
    def test_two_jobs_interleave_and_both_complete(self, tmp_path,
                                                   wide_baseline,
                                                   second_baseline):
        yielded = []

        class RecordingExecutor(SerialExecutor):
            def imap_unordered(self, fn, runs):
                for outcome in super().imap_unordered(fn, runs):
                    yielded.append(outcome.run_id)
                    yield outcome

        service = SweepService(str(tmp_path), executor=RecordingExecutor(),
                               checkpoint_every=1).start()
        try:
            a, _ = service.submit(wide_spec().to_json_dict(), job_key="a")
            b, _ = service.submit(second_spec().to_json_dict(), job_key="b")
            final_a = service.wait_for(a.job_id, timeout=120)
            final_b = service.wait_for(b.job_id, timeout=120)
            assert final_a["state"] == "done"
            assert final_b["state"] == "done"
            stored_a = service_records(str(tmp_path), a.job_id)
            stored_b = service_records(str(tmp_path), b.job_id)
            assert records_as_dicts(stored_a) == \
                records_as_dicts(wide_baseline)
            assert records_as_dicts(stored_b) == \
                records_as_dicts(second_baseline)
        finally:
            service.shutdown(timeout=30)
        # Fair share actually interleaved: the fleet's first 16 runs hold
        # runs of both sweeps — a serializing scheduler would run all 16 of
        # the first job's before any of the second's.
        assert len(yielded) == 32
        assert {run_id.split("/")[0] for run_id in yielded[:16]} == \
            {"t", "u"}

    def test_run_id_collision_defers_not_corrupts(self, tmp_path, baseline):
        """Two jobs over the *same spec name* share run ids; the slice
        builder must never fly ambiguous ownership in one pass."""
        service = SweepService(str(tmp_path), checkpoint_every=2).start()
        try:
            a, _ = service.submit(tiny_spec().to_json_dict(), job_key="a")
            b, _ = service.submit(tiny_spec(master_seed=7).to_json_dict(),
                                  job_key="b")
            # Same fingerprint jobs under different keys are distinct jobs.
            assert a.job_id != b.job_id
            assert service.wait_for(a.job_id)["state"] == "done"
            assert service.wait_for(b.job_id)["state"] == "done"
            for job_id in (a.job_id, b.job_id):
                stored = service_records(str(tmp_path), job_id)
                assert records_as_dicts(stored) == records_as_dicts(baseline)
        finally:
            service.shutdown(timeout=30)

    def test_failed_runs_record_which_fault_fired(self, tmp_path):
        """Satellite: quarantined runs name the injected fault that killed
        them (site@attempt), when a plan is armed."""
        from repro.store import scan_store
        spec = tiny_spec()
        run_id = spec.expand()[0].run_id
        service = SweepService(
            str(tmp_path), checkpoint_every=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.01))
        with faults.injected_faults(
                FaultSpec(kind="raise", match=run_id, times=2)):
            service.start()
            try:
                job, _ = service.submit(spec.to_json_dict(), job_key="f")
                final = service.wait_for(job.job_id, timeout=60)
            finally:
                service.shutdown(timeout=30)
        assert final["state"] == "done"
        assert final["failed_runs"] == 1
        report = scan_store(service.store_path(job.job_id))
        assert [f.run_id for f in report.failed] == [run_id]
        assert report.failed[0].fault == "raise@1,raise@2"

    def test_result_lists_the_quarantined_runs(self, tmp_path):
        """A finished job's result names each quarantined run, in process
        and over HTTP; the count of them is ``n_failed``."""
        spec = tiny_spec()
        run_id = spec.expand()[0].run_id
        service = SweepService(
            str(tmp_path), checkpoint_every=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.01))
        with faults.injected_faults(
                FaultSpec(kind="raise", match=run_id, times=2)):
            service.start()
            http = ServiceHTTPServer(service).start()
            try:
                job, _ = service.submit(spec.to_json_dict(), job_key="q")
                assert service.wait_for(job.job_id, timeout=60)["state"] \
                    == "done"
                payloads = [
                    InProcessClient(ServiceAPI(service)).result(job.job_id),
                    ServiceClient(http.url).result(job.job_id)]
            finally:
                http.stop()
                service.shutdown(timeout=30)
        for payload in payloads:
            assert payload["n_failed"] == 1
            assert payload["n_records"] == spec.n_runs - 1
            assert payload["records_done"] == spec.n_runs - 1
            assert len(payload["records"]) == spec.n_runs - 1
            assert payload["updated_ts"] > 0
            [failed] = payload["failed_runs"]
            assert failed["run_id"] == run_id
            assert "InjectedFault" in failed["error"]
            assert failed["attempts"] == 2
            assert failed["fault"] == "raise@1,raise@2"
        assert payloads[0] == payloads[1]


class TestCircuitBreaker:
    def _poison_service(self, data_dir: str) -> SweepService:
        from repro.sweep import PoolExecutor
        policy = RetryPolicy(max_attempts=2, backoff=0.01)
        executor = PoolExecutor(processes=2, retry_policy=policy,
                                run_timeout=1.0)
        return SweepService(data_dir, executor=executor, checkpoint_every=4)

    def test_poison_job_quarantined_healthy_job_unharmed(
            self, tmp_path, wide_baseline):
        """The tentpole chaos scenario, phase 1: a job whose runs kill
        workers trips the breaker and lands in ``suspended``; a healthy
        concurrent job completes bit-identically."""
        from repro.store import scan_store
        poison = second_spec(name="poison")
        service = self._poison_service(str(tmp_path))
        with faults.injected_faults(
                FaultSpec(kind="kill", match="poison", times=3)):
            service.start()
            try:
                bad, _ = service.submit(poison.to_json_dict(), job_key="bad")
                good, _ = service.submit(wide_spec().to_json_dict(),
                                         job_key="good")
                suspended = service.wait_for(
                    bad.job_id, timeout=120,
                    states=("suspended", "done", "failed", "cancelled"))
                healthy = service.wait_for(good.job_id, timeout=120)
            finally:
                service.shutdown(timeout=60)
        assert suspended["state"] == "suspended"
        assert "circuit breaker" in suspended["suspend_reason"]
        assert suspended["suspensions"] == 1
        assert healthy["state"] == "done"
        stored = service_records(str(tmp_path), good.job_id)
        assert records_as_dicts(stored) == records_as_dicts(wide_baseline)
        # Satellite: the quarantined runs are attributed to the kill fault.
        report = scan_store(service.store_path(bad.job_id))
        assert report.failed, "poison runs should be quarantined in-store"
        assert all(f.fault.startswith("kill@") for f in report.failed)

        # Phase 2: suspension is sticky across restarts — the breaker
        # tripped on behavior, which a restart does not change.
        resumed_service = SweepService(str(tmp_path),
                                       checkpoint_every=4).start()
        try:
            assert resumed_service.status(bad.job_id)["state"] == "suspended"
            health = resumed_service.health()
            assert health["jobs"]["suspended"] == 1

            # Phase 3: the explicit resume path retries the quarantined
            # runs (faults disarmed now) to a bit-identical full result.
            resumed_service.resume(bad.job_id)
            final = resumed_service.wait_for(bad.job_id, timeout=120)
            assert final["state"] == "done"
            poison_baseline = SweepRunner(poison, SerialExecutor()).run()
            stored = service_records(str(tmp_path), bad.job_id)
            assert records_as_dicts(stored) == \
                records_as_dicts(poison_baseline)
        finally:
            resumed_service.shutdown(timeout=60)

    def test_resume_requires_suspended_state(self, tmp_path):
        service = SweepService(str(tmp_path))     # not started
        client = InProcessClient(ServiceAPI(service))
        job = client.submit(tiny_spec(), job_key="r")
        with pytest.raises(ServiceError) as info:
            client.resume(job["job_id"])
        assert info.value.status == 409
        service.journal.close()

    def test_cancel_suspended_job_is_instant(self, tmp_path):
        """A quarantined job cancels without touching the fleet."""
        service = SweepService(str(tmp_path))     # not started
        job, _ = service.submit(tiny_spec().to_json_dict(), job_key="s")
        service.registry.transition("running", job.job_id)
        service.registry.transition("suspend", job.job_id, reason="test")
        cancelled = service.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        service.journal.close()


class TestStateDirLease:
    def test_second_daemon_refused_then_allowed_after_shutdown(
            self, tmp_path):
        from repro.service import LeaseHeld
        first = SweepService(str(tmp_path), lease_ttl=5.0).start()
        try:
            second = SweepService(str(tmp_path), lease_ttl=5.0)
            with pytest.raises(LeaseHeld) as info:
                second.start()
            assert "leased by" in str(info.value)
            second.journal.close()
        finally:
            first.shutdown(timeout=30)
        third = SweepService(str(tmp_path), lease_ttl=5.0).start()
        third.shutdown(timeout=30)

    def test_takeover_of_dead_same_host_holder_is_immediate(self, tmp_path):
        """A kill -9'd holder leaves a fresh-looking lease; the same-host
        pid liveness check lets the restart take over without a TTL wait."""
        from repro.service.lease import LEASE_NAME
        # Forge a lease held by a dead pid with a *fresh* heartbeat.
        dead = {"owner": "host:999999:dead", "pid": 999_999,
                "host": __import__("socket").gethostname(),
                "heartbeat_ts": time.time()}
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), LEASE_NAME), "w") as fh:
            json.dump(dead, fh)
        started = time.monotonic()
        service = SweepService(str(tmp_path), lease_ttl=30.0).start()
        try:
            assert time.monotonic() - started < 5.0
            assert service.health()["lease"]["takeovers"] == 1
        finally:
            service.shutdown(timeout=30)

    def test_foreign_host_holder_needs_ttl_expiry(self, tmp_path):
        from repro.service import LeaseHeld
        from repro.service.lease import LEASE_NAME
        foreign = {"owner": "elsewhere:1:abc", "pid": 1,
                   "host": "some-other-host",
                   "heartbeat_ts": time.time()}
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), LEASE_NAME), "w") as fh:
            json.dump(foreign, fh)
        service = SweepService(str(tmp_path), lease_ttl=0.3)
        with pytest.raises(LeaseHeld):
            service.start()                      # heartbeat still fresh
        time.sleep(0.4)                          # now older than the TTL
        service.start()
        service.shutdown(timeout=30)

    def test_stolen_lease_fences_and_drains(self, tmp_path):
        """The ``lease_stolen`` chaos fault rewrites the lease under a live
        daemon; the holder must fence itself instead of fighting."""
        service = SweepService(str(tmp_path), lease_ttl=0.2)
        with faults.injected_faults(FaultSpec(kind="lease_stolen")):
            service.start()
            deadline = time.monotonic() + 10
            while not service._lease_lost.is_set():
                assert time.monotonic() < deadline, "theft never observed"
                time.sleep(0.02)
        health = service.health()
        assert health["status"] == "draining"
        assert health["degraded"]
        assert "lease_stolen" in health["degraded_reasons"]
        with pytest.raises(ServiceUnavailable):
            service.submit(tiny_spec().to_json_dict(), job_key="late")
        service.shutdown(timeout=30)
        # Fenced: no service_stop was appended over the thief's journal.
        assert all(e["event"] != "service_stop"
                   for e in journal_events(str(tmp_path)))


class TestDiskExhaustion:
    def test_degraded_admission_returns_503_then_recovers(self, tmp_path):
        """Service level: a full disk stops *new* admissions (503), keeps
        the daemon alive, and admission resumes once space returns."""
        service = SweepService(str(tmp_path))    # not started: deterministic
        with faults.injected_faults(
                FaultSpec(kind="disk_full", match="journal:", times=4)):
            # This submit's journal appends hit ENOSPC and buffer.
            job, created = service.submit(tiny_spec().to_json_dict(),
                                          job_key="first")
            assert created and service.journal.disk_degraded()
            health = service.health()
            assert health["degraded"]
            assert any("journal" in r for r in health["degraded_reasons"])
            with pytest.raises(ServiceUnavailable) as info:
                service.submit(second_spec().to_json_dict(), job_key="second")
            assert "disk full" in str(info.value)
            # Idempotent re-attach to existing work stays allowed.
            again, created = service.submit(tiny_spec().to_json_dict(),
                                            job_key="first")
            assert not created and again.job_id == job.job_id
        # Space restored: the next append drains the backlog...
        service.submit(second_spec().to_json_dict(), job_key="second")
        assert not service.journal.disk_degraded()
        assert not service.health()["degraded_reasons"]
        service.journal.close()
        # ...and nothing was lost or duplicated across the outage.
        replayed = JobRegistry.open(
            JobJournal(str(tmp_path / "journal.jsonl")))
        assert len(replayed.list_jobs()) == 2
        assert all(j.state == "admitted" for j in replayed.list_jobs())

    def test_job_survives_store_enospc_and_audits_clean(self, tmp_path):
        """A record store hitting ENOSPC mid-job degrades (backlog) instead
        of failing the job; once space returns the job completes and its
        store passes the audit doctor."""
        from repro.store.audit import main as audit_main
        service = SweepService(str(tmp_path), checkpoint_every=1)
        with faults.injected_faults(
                FaultSpec(kind="disk_full", match="shard:", times=3)):
            service.start()
            try:
                job, _ = service.submit(wide_spec().to_json_dict(),
                                        job_key="d")
                final = service.wait_for(job.job_id, timeout=120)
            finally:
                service.shutdown(timeout=60)
        assert final["state"] == "done"
        store_dir = service.store_path(job.job_id)
        assert audit_main([store_dir]) == 0
        stored = service_records(str(tmp_path), job.job_id)
        baseline = SweepRunner(wide_spec(), SerialExecutor()).run()
        assert records_as_dicts(stored) == records_as_dicts(baseline)


    def test_job_whose_seal_fails_at_the_finish_ends_done(self, tmp_path,
                                                          baseline):
        """A full disk that outlasts a job's runs refuses its seal.  The
        job stays active with its store open and seals once space returns,
        instead of staying ``running`` for good."""
        from repro.store import scan_store
        service = SweepService(str(tmp_path), checkpoint_every=1)
        with faults.injected_faults(
                FaultSpec(kind="disk_full", match="shard:", times=20)):
            service.start()
            try:
                job, _ = service.submit(tiny_spec().to_json_dict(),
                                        job_key="seal")
                final = service.wait_for(job.job_id, timeout=60)
                health = service.health()
            finally:
                service.shutdown(timeout=60)
        assert final["state"] == "done"
        assert health["active_jobs"] == [] and not health["degraded_reasons"]
        stored = service_records(str(tmp_path), job.job_id)
        assert records_as_dicts(stored) == records_as_dicts(baseline)
        assert scan_store(service.store_path(job.job_id)).sealed

    def test_seal_failing_on_a_healthy_disk_fails_the_job(self, tmp_path,
                                                          baseline,
                                                          monkeypatch):
        """Only a full disk holds a job at the finish; a seal that fails
        for any other reason lands the job in ``failed``, with its records
        kept resumable, instead of retrying for good."""
        from repro.store import ShardedRecordStore

        def broken_seal(self):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(ShardedRecordStore, "seal", broken_seal)
        service = SweepService(str(tmp_path)).start()
        try:
            job, _ = service.submit(tiny_spec().to_json_dict(),
                                    job_key="eio")
            final = service.wait_for(job.job_id, timeout=60)
        finally:
            service.shutdown(timeout=30)
        assert final["state"] == "failed"
        assert "Input/output error" in final["error"]
        stored = service_records(str(tmp_path), job.job_id)
        assert records_as_dicts(stored) == records_as_dicts(baseline)


class TestLongPollRecords:
    def test_wait_seq_blocks_until_new_records(self, tmp_path):
        service = SweepService(str(tmp_path), checkpoint_every=1).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job = client.submit(wide_spec(), job_key="lp")
            # Long-poll from zero: returns as soon as any record lands.
            page = client.records(job["job_id"], wait_seq=0, wait_timeout=30)
            assert page["seq"] >= 1
            assert page["total_records"] == page["seq"]
            # Stream the rest: each call waits for progress past `seq`.
            seq = page["seq"]
            deadline = time.monotonic() + 60
            while not page["resting"]:
                assert time.monotonic() < deadline
                page = client.records(job["job_id"], wait_seq=seq,
                                      wait_timeout=30)
                assert page["seq"] >= seq        # never goes backwards
                seq = page["seq"]
            assert seq == wide_spec().n_runs
            assert client.status(job["job_id"])["state"] == "done"
        finally:
            service.shutdown(timeout=30)

    def test_wait_seq_on_resting_job_returns_immediately(self, tmp_path):
        service = SweepService(str(tmp_path)).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job = client.submit(tiny_spec(), job_key="done")
            client.wait(job["job_id"])
            started = time.monotonic()
            page = client.records(job["job_id"],
                                  wait_seq=tiny_spec().n_runs + 10,
                                  wait_timeout=30)
            assert time.monotonic() - started < 5.0
            assert page["resting"] and page["state"] == "done"
            assert page["seq"] == tiny_spec().n_runs
        finally:
            service.shutdown(timeout=30)

    def test_runs_finishing_out_of_order_page_exactly_once(self, tmp_path):
        """A later run that completes first must not be paged again (and
        the earlier one skipped) once the earlier run lands behind it."""
        release = threading.Event()

        class LaterFirstExecutor(SerialExecutor):
            def imap_unordered(self, fn, runs):
                earlier, later = runs
                yield fn(later)
                assert release.wait(timeout=30)
                yield fn(earlier)

        spec = tiny_spec(seeds=1)
        service = SweepService(str(tmp_path),
                               executor=LaterFirstExecutor()).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job_id = client.submit(spec, job_key="ooo")["job_id"]
            first = client.records(job_id, wait_seq=0, wait_timeout=30)
            assert first["count"] == 1 and not first["resting"]
            release.set()
            client.wait(job_id)
            second = client.records(job_id, offset=first["seq"])
        finally:
            service.shutdown(timeout=30)
        paged = [record["run_id"]
                 for record in first["records"] + second["records"]]
        expected = [run.run_id for run in spec.expand()]
        assert paged == expected[::-1]

    def test_resting_page_carries_the_final_record_count(self, tmp_path,
                                                         monkeypatch):
        """The job's last record and ``done`` landing right after a page's
        read must not yield a resting page that is missing that record."""
        from repro.service import daemon
        from repro.store import ShardedRecordStore

        release = threading.Event()
        armed = threading.Event()
        spec = tiny_spec()

        class HoldLastExecutor(SerialExecutor):
            def imap_unordered(self, fn, runs):
                *head, last = runs
                for run in head:
                    yield fn(run)
                assert release.wait(timeout=30)
                yield fn(last)

        service = SweepService(str(tmp_path),
                               executor=HoldLastExecutor()).start()

        class LateStore(ShardedRecordStore):
            """Lets the last run and ``done`` land right after one read of
            the active job's fold."""

            def outcomes(self):
                view = super().outcomes()
                if armed.is_set() and not release.is_set():
                    release.set()
                    service.wait_for(job_id, timeout=30)
                return view

        monkeypatch.setattr(daemon, "ShardedRecordStore", LateStore)
        try:
            client = InProcessClient(ServiceAPI(service))
            job_id = client.submit(spec, job_key="stale")["job_id"]
            seq, pages = 0, []
            while True:
                if seq == spec.n_runs - 1:
                    armed.set()
                page = client.records(job_id, offset=seq, wait_seq=seq,
                                      wait_timeout=30)
                pages.append(page)
                seq += page["count"]
                if page["resting"] and seq >= page["total_records"]:
                    break
        finally:
            service.shutdown(timeout=30)
        assert release.is_set()                 # the race was forced
        assert seq == spec.n_runs
        assert [page["total_records"] for page in pages
                if page["resting"]] == [spec.n_runs]

    def test_wait_seq_over_http(self, tmp_path):
        service = SweepService(str(tmp_path)).start()
        http = ServiceHTTPServer(service).start()
        try:
            client = ServiceClient(http.url)
            job = client.submit(tiny_spec(), job_key="h")
            page = client.records(job["job_id"], wait_seq=0, wait_timeout=30)
            assert page["seq"] >= 1
        finally:
            http.stop()
            service.shutdown(timeout=30)


class TestRegistryEventOrderProperty:
    """Satellite: randomized interleavings of multi-job lifecycle events
    never reach an illegal state and never lose (or fork) a journal seq."""

    EVENTS = ("admit", "running", "suspend", "resume",
              "cancel_request", "cancelled", "done", "failed")
    STATES = ("submitted", "admitted", "running", "suspended", "done",
              "failed", "cancelled")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_interleaved_event_orders_stay_legal(self, tmp_path, seed):
        import random
        rng = random.Random(seed)
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        registry = JobRegistry.open(journal)
        job_ids = []
        for i in range(3):
            job, _ = registry.submit({"spec": i}, job_key=f"k{i}")
            job_ids.append(job.job_id)
        applied = rejected = 0
        for _ in range(200):
            event = rng.choice(self.EVENTS)
            job_id = rng.choice(job_ids)
            kwargs = {}
            if event in ("done", "cancelled"):
                kwargs = {"records_done": rng.randrange(10)}
            elif event == "suspend":
                kwargs = {"reason": "prop", "records_done": rng.randrange(10)}
            elif event == "failed":
                kwargs = {"error": "prop"}
            before = journal._seq
            try:
                registry.transition(event, job_id, **kwargs)
                applied += 1
            except JobStateError:
                rejected += 1
                # A rejected event must leave no journal trace.
                assert journal._seq == before
            state = registry.get(job_id).state
            assert state in self.STATES
        assert applied and rejected        # the mix exercised both paths
        journal.close()
        # Replay reconstructs the exact same job table...
        replayed = JobRegistry.open(JobJournal(path))
        for job_id in job_ids:
            live, back = registry.get(job_id), replayed.get(job_id)
            assert live.state == back.state
            assert live.records_done == back.records_done
            assert live.suspensions == back.suspensions
            assert live.suspend_reason == back.suspend_reason
            assert live.cancel_requested == back.cancel_requested
        # ...and the journal has a gapless, strictly increasing seq chain.
        seqs = [e["seq"] for e in journal_events(str(tmp_path))]
        assert seqs == list(range(1, len(seqs) + 1))


# --------------------------------------------------------------------- #
# multi-job daemon chaos: kill -9 with two concurrent jobs
# --------------------------------------------------------------------- #
def _multi_daemon_once(data_dir, spec_dicts, fault_dicts, job_keys):
    faults.disarm_faults()
    if fault_dicts:
        faults.arm_faults(*[FaultSpec(**f) for f in fault_dicts])
    service = SweepService(data_dir, checkpoint_every=1).start()
    job_ids = [service.submit(spec, job_key=key)[0].job_id
               for spec, key in zip(spec_dicts, job_keys)]
    for job_id in job_ids:
        service.wait_for(job_id, timeout=120)
    with open(os.path.join(data_dir, "disk_full_errors"), "w") as handle:
        handle.write(str(service.health()["journal"]["disk_full_errors"]))
    service.shutdown(timeout=60)
    os._exit(0)


def run_multi_daemon_once(data_dir, specs, fault_dicts=(),
                          job_keys=("chaos-a", "chaos-b")) -> int:
    context = multiprocessing.get_context("fork")
    child = context.Process(
        target=_multi_daemon_once,
        args=(data_dir, [s.to_json_dict() for s in specs],
              list(fault_dicts), list(job_keys)))
    child.start()
    child.join(timeout=180)
    if child.is_alive():                      # pragma: no cover - deadline
        child.kill()
        child.join()
        pytest.fail("daemon child did not exit within the deadline")
    return child.exitcode


MULTI_KILL_SITES = [
    pytest.param({"kind": "daemon_kill", "match": "recordstore:flush"},
                 id="between-checkpoint-and-journal-commit"),
    pytest.param({"kind": "journal_torn", "match": "#running"},
                 id="mid-journal-append-torn",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
    pytest.param({"kind": "daemon_kill", "match": "registry:done"},
                 id="after-done-append",
                 marks=pytest.mark.skipif(not CHAOS_EXTENDED,
                                          reason="REPRO_CHAOS=1 only")),
]


class TestMultiJobDaemonChaos:
    @pytest.mark.parametrize("fault", MULTI_KILL_SITES)
    def test_kill_restart_completes_both_jobs_bit_identical(
            self, tmp_path, baseline, fault):
        data_dir = str(tmp_path / "svc")
        specs = [tiny_spec(), tiny_spec(name="t2", master_seed=13)]
        first = run_multi_daemon_once(data_dir, specs, [fault])
        assert first == KILL_EXIT_CODE, \
            f"fault {fault} never fired (exit {first})"
        second = run_multi_daemon_once(data_dir, specs, [])
        assert second == 0
        registry = JobRegistry.open(
            JobJournal(os.path.join(data_dir, "journal.jsonl")))
        baselines = {
            "chaos-a": baseline,
            "chaos-b": SweepRunner(specs[1], SerialExecutor()).run(),
        }
        for key, expected in baselines.items():
            job = registry.find_by_key(key)
            assert job is not None and job.state == "done"
            stored = service_records(data_dir, job.job_id)
            assert records_as_dicts(stored) == records_as_dicts(expected)

    def test_disk_full_daemon_survives_in_one_pass(self, tmp_path, baseline):
        """ENOSPC on the journal's ``running`` appends must not crash the
        child: both jobs finish in a single daemon pass (exit 0, no
        restart), and every armed failure fired."""
        data_dir = str(tmp_path / "svc")
        specs = [tiny_spec(), tiny_spec(name="t2", master_seed=13)]
        fault = {"kind": "disk_full", "match": "journal:running",
                 "times": 3}
        assert run_multi_daemon_once(data_dir, specs, [fault]) == 0
        with open(os.path.join(data_dir, "disk_full_errors")) as handle:
            assert int(handle.read()) == fault["times"]
        registry = JobRegistry.open(
            JobJournal(os.path.join(data_dir, "journal.jsonl")))
        for key in ("chaos-a", "chaos-b"):
            job = registry.find_by_key(key)
            assert job is not None and job.state == "done"
        stored = service_records(data_dir,
                                 registry.find_by_key("chaos-a").job_id)
        assert records_as_dicts(stored) == records_as_dicts(baseline)
