"""Closed-form timeline kernels + cross-worker shared physics store.

Two measurements, two ``BENCH_runtime.json`` sections (merge-preserving —
``bench_runtime_perf`` and ``bench_stress_failures`` own the others):

* ``kernels`` — a failure-dense no-level-change scenario (``booster_safe`` on
  the 64-macro reference geometry, elevated activity and monitor noise, a
  recompute window squeezed to 2 cycles so tens of thousands of failures are
  *selected*, not merely suppressed), plus ``dvfs`` and full ``booster`` for
  the record.  The event engine's one closed-form timeline kernel (the span
  kernel, every controller; warm level cache — the steady state of a sweep)
  is timed against the reference oracle, with oracle equivalence asserted
  in the same run.

* ``shared_store`` — the same shared-seed beta grid executed through a
  two-worker :class:`~repro.sweep.runner.PoolExecutor` three times: once with
  private per-worker caches, then twice over one ``shared_cache_dir`` (the
  first fleet populates the store, the second — fresh worker pids — must
  serve its physics from it: cross-worker reuse by construction, not by
  scheduling luck).  All three record sets must be bit-identical and the
  store must show cross-worker hits.
"""

import gc
import shutil
import tempfile
import time

import numpy as np
import pytest

from repro.analysis import format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sim import RuntimeConfig, clear_level_cache
from repro.sim.engine import run_vectorized
from repro.sim.runtime import PIMRuntime
from repro.sim.shared_store import SharedPhysicsStore
from repro.sweep import (
    PoolExecutor,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    build_compiled_workload,
)

from common import (
    QAT_EPOCHS,
    SMOKE,
    smoke_grid,
    stress_workload_spec,
    update_bench_runtime,
)

pytestmark = pytest.mark.perf

#: The failure-dense no-level-change operating point (see module docstring).
KERNEL_CYCLES = 800 if SMOKE else 8000
KERNEL_FLIP_MEAN = 0.9
KERNEL_MONITOR_NOISE = 0.035
KERNEL_RECOMPUTE = 2
KERNEL_SEED = 3

#: The shared-store pool sweep: a shared-seed beta grid, two workers.
STORE_BETAS = smoke_grid((4, 5, 6, 8))
STORE_CYCLES = KERNEL_CYCLES // 2
STORE_PROCESSES = 2


def _config(controller: str, engine: str = "vectorized") -> RuntimeConfig:
    return RuntimeConfig(cycles=KERNEL_CYCLES, controller=controller,
                         mode=BoosterMode.LOW_POWER, beta=5,
                         recompute_cycles=KERNEL_RECOMPUTE,
                         flip_mean=KERNEL_FLIP_MEAN,
                         monitor_noise=KERNEL_MONITOR_NOISE,
                         seed=KERNEL_SEED, engine=engine)


def _assert_equivalent(reference, candidate, label: str) -> None:
    """The discrete-outcome slice of the engine-equivalence contract."""
    assert reference.total_failures == candidate.total_failures, label
    assert reference.total_stall_cycles == candidate.total_stall_cycles, label
    assert np.array_equal(reference.chip_drop_trace,
                          candidate.chip_drop_trace), label
    for ref, cand in zip(reference.macro_results, candidate.macro_results):
        assert ref.failures == cand.failures, label
        assert ref.stall_cycles == cand.stall_cycles, label
        assert np.array_equal(ref.drop_trace, cand.drop_trace), label
    for ref, cand in zip(reference.group_results, candidate.group_results):
        assert np.array_equal(ref.level_trace, cand.level_trace), label
        assert ref.final_level == cand.final_level, label


def _best_of(fn, repeats: int = 5) -> float:
    """Best wall time over ``repeats``, with the GC parked.

    The kernel timings run in the same process as the other harnesses, whose
    caches keep millions of objects alive; a generational collection landing
    inside a timed region would charge their bookkeeping to this measurement.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _measure_controller(compiled, controller: str) -> dict:
    runtime = PIMRuntime(compiled, _config(controller))
    reference = PIMRuntime(compiled, _config(controller, "reference")).run()
    clear_level_cache()
    kernel = run_vectorized(runtime)
    _assert_equivalent(reference, kernel, f"{controller}/kernel")

    # Warm level cache: the steady state of any sweep, so the timing
    # isolates the event path.
    start = time.perf_counter()
    PIMRuntime(compiled, _config(controller, "reference")).run()
    reference_seconds = time.perf_counter() - start
    kernel_seconds = _best_of(lambda: run_vectorized(runtime))
    return {
        "failures": kernel.total_failures,
        "stall_cycles": kernel.total_stall_cycles,
        "reference_seconds": reference_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup_vs_reference": reference_seconds / kernel_seconds,
        "equivalence_asserted": True,
    }


def test_kernel_timeline_speedup(benchmark):
    compiled = build_compiled_workload(stress_workload_spec())

    def run():
        report = {
            "scenario": {
                "workload": "stress@64 (synthetic, 2-macro sets, sequential)",
                "cycles": KERNEL_CYCLES,
                "flip_mean": KERNEL_FLIP_MEAN,
                "monitor_noise": KERNEL_MONITOR_NOISE,
                "recompute_cycles": KERNEL_RECOMPUTE,
                "seed": KERNEL_SEED,
            },
            "controllers": {
                controller: _measure_controller(compiled, controller)
                for controller in ("booster_safe", "dvfs", "booster")},
        }
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    update_bench_runtime({"kernels": report})

    print()
    rows = []
    for controller, data in report["controllers"].items():
        rows.append([controller, str(data["failures"]),
                     f"{data['reference_seconds']:.3f}",
                     f"{data['kernel_seconds']:.3f}",
                     format_ratio(data["speedup_vs_reference"])])
    print(format_table(
        ["controller", "failures", "reference s", "kernel s", "vs reference"],
        rows,
        title=f"Closed-form timeline kernels — {KERNEL_CYCLES} cycles x 64 "
              "macros (BENCH_runtime.json: kernels)"))

    safe = report["controllers"]["booster_safe"]
    assert all(data["equivalence_asserted"]
               for data in report["controllers"].values())
    assert safe["failures"] > (1000 if SMOKE else 10000)   # failure-dense


def _pool_sweep(spec, shared_dir):
    clear_level_cache()
    executor = PoolExecutor(processes=STORE_PROCESSES,
                            shared_cache_dir=shared_dir)
    start = time.perf_counter()
    result = SweepRunner(spec, executor).run()
    return result, time.perf_counter() - start


def _model_store_fleet():
    """A small ``"model"`` (QAT) workload fleet over one shared store.

    Covers the compiled-chip *activity* sharing: the workload's realized-Rtog
    traces carry the spec's content-derived fingerprint, so they publish into
    the store and are served to workers that never derived them.  A beta pair
    under shared seeds means the whole fleet needs exactly one activity
    derivation.
    """
    workload = WorkloadSpec(builder="model", model="resnet18",
                            qat_epochs=QAT_EPOCHS, groups=8,
                            macros_per_group=2, banks=4, rows=32,
                            label="resnet18@model-store")
    spec = SweepSpec(name="store-model", workloads=(workload,),
                     controllers=("booster",), modes=(BoosterMode.LOW_POWER,),
                     betas=smoke_grid((40, 60)), cycles=STORE_CYCLES // 2,
                     seeds=1, master_seed=0, seed_mode="shared")
    build_compiled_workload(workload)   # parent-side QAT (forked workers inherit)
    private, _ = _pool_sweep(spec, None)
    shared_dir = tempfile.mkdtemp(prefix="repro-bench-model-store-")
    try:
        populate, _ = _pool_sweep(spec, shared_dir)
        warm, _ = _pool_sweep(spec, shared_dir)
        store = SharedPhysicsStore(shared_dir)
        kinds = store.kind_counts()
        cross_hits = store.cross_worker_hits()
    finally:
        shutil.rmtree(shared_dir, ignore_errors=True)
    records = [r.to_json_dict() for r in private.sorted_records()]
    identical = (records == [r.to_json_dict()
                             for r in populate.sorted_records()]
                 and records == [r.to_json_dict()
                                 for r in warm.sorted_records()])
    return {
        "workload": workload.label,
        "n_runs": spec.n_runs,
        "activity_entries": kinds.get("activity", 0),
        "level_entries": kinds.get("level", 0),
        "cross_worker_hits": cross_hits,
        "records_identical": identical,
    }


def test_shared_store_cross_worker_reuse(benchmark):
    workload = stress_workload_spec(label="store-sweep@64")
    spec = SweepSpec(name="store-beta", workloads=(workload,),
                     controllers=("booster",), modes=(BoosterMode.LOW_POWER,),
                     betas=STORE_BETAS, cycles=STORE_CYCLES,
                     flip_means=(KERNEL_FLIP_MEAN,),
                     monitor_noises=(KERNEL_MONITOR_NOISE,), seeds=1,
                     master_seed=0, seed_mode="shared")
    build_compiled_workload(workload)   # exclude compile cost

    def run():
        private, private_seconds = _pool_sweep(spec, None)
        shared_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            # Two fleets over one store: the first populates it, the second
            # (fresh worker pids) must serve its physics from the first's
            # entries — cross-worker reuse by construction, not by race.
            shared, populate_seconds = _pool_sweep(spec, shared_dir)
            again, warm_seconds = _pool_sweep(spec, shared_dir)
            store = SharedPhysicsStore(shared_dir)
            stats = store.stats()
            cross_hits = store.cross_worker_hits()
        finally:
            shutil.rmtree(shared_dir, ignore_errors=True)
        records = [r.to_json_dict() for r in private.sorted_records()]
        identical = (records == [r.to_json_dict()
                                 for r in shared.sorted_records()]
                     and records == [r.to_json_dict()
                                     for r in again.sorted_records()])
        return {
            "betas": list(STORE_BETAS),
            "cycles": STORE_CYCLES,
            "n_runs": spec.n_runs,
            "seed_mode": spec.seed_mode,
            "pool_processes": STORE_PROCESSES,
            "private_cache_seconds": private_seconds,
            "shared_store_populate_seconds": populate_seconds,
            "shared_store_warm_seconds": warm_seconds,
            "store_entries": stats["entries"],
            "cross_worker_hits": cross_hits,
            "records_identical": identical,
            "model_builder": _model_store_fleet(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    update_bench_runtime({"shared_store": report})

    print()
    print(format_table(
        ["beta grid", "private s", "populate s", "warm s", "entries",
         "x-worker hits", "identical"],
        [[f"{len(report['betas'])} betas @{report['cycles']}",
          f"{report['private_cache_seconds']:.3f}",
          f"{report['shared_store_populate_seconds']:.3f}",
          f"{report['shared_store_warm_seconds']:.3f}",
          str(report["store_entries"]), str(report["cross_worker_hits"]),
          str(report["records_identical"])]],
        title="Cross-worker shared physics store, 2-worker pool "
              "(BENCH_runtime.json: shared_store)"))

    model = report["model_builder"]
    print(format_table(
        ["model fleet", "runs", "activity entries", "level entries",
         "x-worker hits", "identical"],
        [[model["workload"], str(model["n_runs"]),
          str(model["activity_entries"]), str(model["level_entries"]),
          str(model["cross_worker_hits"]), str(model["records_identical"])]],
        title="QAT-workload activity sharing through the store "
              "(BENCH_runtime.json: shared_store.model_builder)"))

    assert report["records_identical"]
    assert report["store_entries"] > 0
    assert report["cross_worker_hits"] > 0
    # The "model" builder's compiled-chip activity crosses the store too.
    assert model["records_identical"]
    assert model["activity_entries"] > 0
    assert model["cross_worker_hits"] > 0
