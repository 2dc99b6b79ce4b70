"""Golden sweep records: the engine's outputs pinned in a checked-in fixture.

A small failure-dense grid — an independent-groups workload (the closed-form
timeline kernels) and a Set-straddling one (the coupled-group heap
scheduler), every controller x mode, two betas, two seeds — runs eight ways:
``traces`` full or none, each per run and through the batched ensemble
engine, each on ``SerialExecutor`` and on the runner's default executor (a
pool over the usable CPUs, serial on one CPU).  Every way must reproduce
``fixtures/golden_records.json``:

* a sha256 over each record's discrete fields (run id, seed, grid point,
  total failures, total stall cycles) matches exactly;
* every float metric matches to 1e-9 rtol, the record contract's own
  tolerance (an exact float digest would break on the last bits a different
  BLAS build can change).

The fixture is regenerated only when a change is *meant* to move records::

    PYTHONPATH=src python -m tests.test_golden_records
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.sweep import SerialExecutor, SweepRunner, SweepSpec

from tests.helpers import straddling_sets_spec, synthetic_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_records.json")

#: Record metrics pinned bit for bit (all others to ``RTOL``).
DISCRETE = ("total_failures", "total_stall_cycles")
RTOL = 1e-9

INDEPENDENT = synthetic_spec("golden-independent")     # 4-macro groups
COUPLED = straddling_sets_spec("golden-coupled")


def golden_spec(traces: str) -> SweepSpec:
    return SweepSpec(
        name="golden", workloads=(INDEPENDENT, COUPLED),
        controllers=("dvfs", "booster_safe", "booster"),
        modes=("low_power", "sprint"), betas=(4, 20), cycles=400,
        recompute_cycles=10, flip_means=(0.8,), monitor_noises=(0.01,),
        seeds=2, traces=traces)


def run_grid(traces: str, ensembles: bool, serial: bool = True):
    executor = SerialExecutor() if serial else None    # None: the default
    result = SweepRunner(golden_spec(traces), executor,
                         ensembles=ensembles).run()
    assert not result.failed_runs
    return result.sorted_records()


def discrete_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        line = [record.run_id, record.seed,
                [[axis, value] for axis, value in record.point_key]]
        line += [int(record.metrics[name]) for name in DISCRETE]
        digest.update(json.dumps(line).encode() + b"\n")
    return digest.hexdigest()


def golden_payload(records) -> dict:
    return {
        "runs": len(records),
        "total_failures": sum(int(r.metrics["total_failures"])
                              for r in records),
        "discrete_sha256": discrete_digest(records),
        "float_metrics": {
            r.run_id: {name: value for name, value in r.metrics.items()
                       if name not in DISCRETE}
            for r in records},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def grid_ways():
    """(traces, ensembles, serial) cases; the serial ids carry no suffix."""
    for serial in (True, False):
        for ensembles in (False, True):
            for traces in ("full", "none"):
                label = f"{traces}-{'ensembles' if ensembles else 'per-run'}"
                if not serial:
                    label += "-default-executor"
                yield pytest.param(traces, ensembles, serial, id=label)


@pytest.mark.parametrize("traces, ensembles, serial", grid_ways())
def test_records_match_golden(golden, traces, ensembles, serial):
    records = run_grid(traces, ensembles, serial)
    observed = golden_payload(records)
    assert observed["runs"] == golden["runs"]
    assert observed["total_failures"] == golden["total_failures"]
    assert observed["discrete_sha256"] == golden["discrete_sha256"]
    for run_id, expected in golden["float_metrics"].items():
        for name, value in expected.items():
            got = observed["float_metrics"][run_id][name]
            assert np.isclose(got, value, rtol=RTOL, atol=0.0), \
                (run_id, name, got, value)


def write_fixture() -> None:
    payload = golden_payload(run_grid("full", ensembles=False))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}: {payload['runs']} runs, "
          f"{payload['total_failures']} failures")


if __name__ == "__main__":
    write_fixture()
