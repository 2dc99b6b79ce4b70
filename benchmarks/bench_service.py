"""Fair-share latency of the multi-job sweep service.

One measurement, one ``BENCH_runtime.json`` section (``service``): a long
sweep job and a short one are submitted back-to-back to a single daemon
(the short one *second*, the unfavourable order), and the harness stamps
when each reaches ``done``.  Under the round-based fair-share scheduler
the short job's work units interleave with the long job's from the first
round, so its completion time is a small fraction of the long job's; under
FIFO job scheduling it would have waited for the entire long sweep and the
ratio would be ~1.0.

The bar, env-overridable for runner tuning:

* ``REPRO_BENCH_SERVICE_FAIR_MAX`` (default 0.75) — the short job's
  completion time divided by the long job's must stay below it.  The grids
  are sized so the expected ratio is ~0.45 in smoke mode and ~0.25 in the
  full run; the bar exists to catch a regression to head-of-line blocking,
  not to measure the scheduler finely.

The same pass asserts correctness alongside the timing: the short job's
records are bit-identical to an uninterrupted serial run of its spec, and
the daemon ends healthy (not degraded).
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.service import TERMINAL_STATES, SweepService
from repro.sweep import SerialExecutor, SweepResult, SweepRunner, SweepSpec, \
    WorkloadSpec

from common import SMOKE, update_bench_runtime

pytestmark = [pytest.mark.perf, pytest.mark.sweep]

TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                    banks=4, rows=8, n_operators=4, label="tiny")
#: The long job: enough fair-share rounds for head-of-line blocking to show.
LONG_SPEC = SweepSpec(
    name="bench-long", workloads=(TINY,), controllers=("booster",),
    betas=(10, 20, 30) if SMOKE else (10, 20, 30, 40, 50, 60),
    cycles=120, seeds=4, master_seed=7)
#: The short job: one fair-share quantum's worth of work.
SHORT_SPEC = SweepSpec(
    name="bench-short", workloads=(TINY,), controllers=("booster",),
    betas=(15, 55), cycles=120, seeds=1, master_seed=11)

FAIR_MAX = float(os.environ.get("REPRO_BENCH_SERVICE_FAIR_MAX", "0.75"))


def _wait_done(service, job_id: str, deadline: float) -> float:
    """Poll until ``job_id`` is terminal; return the completion stamp."""
    while True:
        status = service.status(job_id)
        if status["state"] in TERMINAL_STATES:
            assert status["state"] == "done", status
            return time.monotonic()
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {status['state']}")
        time.sleep(0.005)


def test_short_job_is_not_blocked_by_long_job(tmp_path):
    baseline = SweepRunner(SHORT_SPEC, SerialExecutor()).run()

    service = SweepService(str(tmp_path / "svc"),
                           checkpoint_every=4).start()
    try:
        start = time.monotonic()
        long_job, _ = service.submit(LONG_SPEC.to_json_dict(),
                                     job_key="bench-long")
        short_job, _ = service.submit(SHORT_SPEC.to_json_dict(),
                                      job_key="bench-short")
        deadline = start + 600.0
        t_short = _wait_done(service, short_job.job_id, deadline) - start
        t_long = _wait_done(service, long_job.job_id, deadline) - start

        stored = SweepResult.load_resumable(
            service.store_path(short_job.job_id))
        assert ([r.to_json_dict() for r in stored.sorted_records()]
                == [r.to_json_dict() for r in baseline.sorted_records()])
        health = service.health()
        assert not health["degraded"], health
    finally:
        service.shutdown(timeout=60)

    ratio = t_short / t_long if t_long > 0 else float("inf")
    long_runs = LONG_SPEC.n_runs
    short_runs = SHORT_SPEC.n_runs

    print()
    print(format_table(
        ["job", "runs", "done at (s)"],
        [["long", str(long_runs), f"{t_long:.2f}"],
         ["short (submitted 2nd)", str(short_runs), f"{t_short:.2f}"]],
        title="fair-share completion latency"))
    print(f"short/long completion ratio: {ratio:.2f} (bar <{FAIR_MAX:.2f}; "
          f"FIFO would be ~1.0)")

    update_bench_runtime({"service": {
        "long_runs": long_runs, "short_runs": short_runs,
        "t_long_s": t_long, "t_short_s": t_short, "ratio": ratio,
        "bars": {"fair_max": FAIR_MAX},
        "smoke": SMOKE,
    }})

    assert ratio < FAIR_MAX, (
        f"short job finished at {ratio:.2f} of the long job's completion "
        f"time (bar <{FAIR_MAX:.2f}) — fair-share interleaving has "
        "regressed toward head-of-line blocking")
