"""Crash-safe sweep service: submit, kill -9 the daemon, restart, recover.

The demo walks the whole robustness story of :mod:`repro.service`:

1. start a sweep daemon over a data directory and submit *two* beta-sweep
   jobs through the REST client (idempotently — resubmitting the same job
   key attaches instead of recomputing); the fair-share scheduler
   interleaves their work units onto one resident fleet;
2. ``kill -9`` the daemon at the nastiest instant — right after a durable
   record-store flush that the journal, which records lifecycle only, never
   hears of — via the deterministic fault registry;
3. restart the daemon over the same data directory: the lease left by the
   dead holder is taken over immediately, the journal replays, both
   interrupted jobs are re-admitted and resumed from their own sharded
   record stores to records **bit-identical** to uninterrupted serial runs;
4. run the store audit doctor (``python -m repro.store.audit``) over every
   per-job record store and assert each is durable-clean;
5. along the way, exercise backpressure (bounded admission queue), the
   health endpoint, and graceful shutdown.

Run with:  python examples/sweep_service_demo.py
CI runs ``python examples/sweep_service_demo.py --smoke`` as its service
smoke leg — same flow, asserting instead of narrating.
"""

import multiprocessing
import os
import sys
import tempfile

from repro.service import (
    Backpressure,
    InProcessClient,
    JobJournal,
    JobRegistry,
    ServiceAPI,
    SweepService,
)
from repro.store.audit import main as audit_main
from repro.sweep import (
    FaultSpec,
    SerialExecutor,
    SweepResult,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    faults,
)

TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                    banks=4, rows=8, n_operators=4, label="tiny")
SPEC = SweepSpec(name="service-demo", workloads=(TINY,),
                 controllers=("booster",), betas=(10, 50), cycles=120,
                 seeds=2, master_seed=7)
SPEC_B = SweepSpec(name="service-demo-b", workloads=(TINY,),
                   controllers=("booster",), betas=(20, 70), cycles=120,
                   seeds=2, master_seed=11)
JOB_KEY = "beta-window-demo"
#: Both jobs run *concurrently* on the shared fleet, fair-share interleaved.
JOBS = ((JOB_KEY, SPEC), ("beta-window-demo-b", SPEC_B))


def daemon_pass(data_dir: str, kill_after_store_flush: bool):
    """One daemon lifetime: start, submit (or re-attach), wait, shut down."""
    faults.disarm_faults()
    if kill_after_store_flush:
        faults.arm_faults(FaultSpec(kind="daemon_kill",
                                    match="recordstore:flush"))
    service = SweepService(data_dir, checkpoint_every=1).start()
    job_ids = []
    for job_key, spec in JOBS:
        job, created = service.submit(spec.to_json_dict(), job_key=job_key)
        print(f"  submitted {job.job_id} (created={created}, "
              f"state={job.state}, recoveries={job.recoveries})")
        job_ids.append(job.job_id)
    for job_id in job_ids:
        service.wait_for(job_id, timeout=120)
    service.shutdown(timeout=60)
    os._exit(0)


def run_daemon(data_dir: str, kill: bool) -> int:
    context = multiprocessing.get_context("fork")
    child = context.Process(target=daemon_pass, args=(data_dir, kill))
    child.start()
    child.join(timeout=180)
    if child.is_alive():
        child.kill()
        child.join()
        raise RuntimeError("daemon pass wedged")
    return child.exitcode


def show_backpressure(data_dir: str) -> int:
    """A scheduler-less service fills its queue, then rejects politely."""
    service = SweepService(data_dir, max_queue=2)     # scheduler not started
    client = InProcessClient(ServiceAPI(service))
    client.submit(SPEC, job_key="storm-a")
    client.submit(SPEC, job_key="storm-b")
    rejected = 0
    try:
        service.submit(SPEC.to_json_dict(), job_key="storm-c")
    except Backpressure as error:
        rejected += 1
        print(f"  third submission rejected: retry after "
              f"{error.retry_after:.1f}s (429 over HTTP)")
    health = client.health()
    print(f"  health: queue {health['queue_depth']}/{health['max_queue']}, "
          f"journal {health['journal']['appended']} event(s) appended")
    service.journal.close()
    return rejected


def main() -> int:
    smoke = "--smoke" in sys.argv
    baselines = {job_key: SweepRunner(spec, SerialExecutor()).run()
                 for job_key, spec in JOBS}

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "svc")

        print("== pass 1: daemon killed right after a durable store flush ==")
        code = run_daemon(data_dir, kill=True)
        print(f"  daemon exited with status {code} "
              f"(expected {faults.KILL_EXIT_CODE} - SIGKILL site fired)")
        assert code == faults.KILL_EXIT_CODE

        print("== pass 2: restart over the same data dir ==")
        code = run_daemon(data_dir, kill=False)
        assert code == 0

        journal = JobJournal(os.path.join(data_dir, "journal.jsonl"))
        registry = JobRegistry.open(journal)
        store_dirs = []
        for job_key, spec in JOBS:
            job = registry.find_by_key(job_key)
            print(f"  {job.job_id}: state={job.state}, "
                  f"records={job.records_done}/{job.total_runs}, "
                  f"recoveries={job.recoveries}")
            assert job.state == "done" and job.recoveries == 1

            store_dir = os.path.join(data_dir, "jobs", job.job_id, "records")
            store_dirs.append(store_dir)
            stored = SweepResult.load_resumable(store_dir)
            expected = baselines[job_key]
            identical = (
                [r.to_json_dict() for r in stored.sorted_records()]
                == [r.to_json_dict() for r in expected.sorted_records()])
            print(f"  records bit-identical to uninterrupted serial run: "
                  f"{identical}")
            assert identical
        journal.close()

        print("== store audit doctor (every per-job store) ==")
        for store_dir in store_dirs:
            assert audit_main([store_dir]) == 0, \
                f"record store {store_dir} failed its audit"

        print("== admission control ==")
        assert show_backpressure(os.path.join(tmp, "storm")) == 1

    print("OK" if smoke else "\nAll recovered. kill -9 is survivable.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
