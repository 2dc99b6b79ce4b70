"""High-failure-rate stress benchmark: the event engine's failure path.

The paper's Algorithm-2 evaluation leans on exactly the regime where event
processing dominates the vectorized engine: aggressive a-levels, small beta
windows, elevated activity and monitor noise (the Fig. 18/19/20 stress
points).  This harness pins that regime down as a benchmark:

* **Scenario** — the 64-macro reference geometry filled with a synthetic
  two-macro-Set workload (``common.stress_workload_spec``), run with elevated
  ``flip_mean``/``monitor_noise`` and a small beta so IRFailures arrive every
  few cycles per group (tens of thousands over the horizon).
* **Contenders** — the event engine (the closed-form timeline kernels of
  :mod:`repro.sim.kernels` plus the heap scheduler) with a warm
  process-level level cache — the steady state of any sweep — the same
  engine cold (cache disabled), and the reference oracle.  The ledger keeps
  the engine's historical ``batched_*`` field names.
* **Contract** — the engine must agree with the oracle bit-for-bit on
  failures, stalls, drop traces and level traces *in this same run*; the
  recorded speedups only count because of it.
* **Cross-run cache reuse** — a shared-seed beta grid through ``SweepRunner``
  (``seed_mode="shared"``: one (workload, seed) across every beta point) runs
  once with the level cache disabled and once enabled; records must be
  bit-identical and the enabled pass must report cache hits.

Results are written to the ``stress`` section of ``BENCH_runtime.json``
(merge-preserving — ``bench_runtime_perf`` owns the other sections).
"""

import time

import numpy as np
import pytest

from repro.analysis import format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sim import (
    RuntimeConfig,
    clear_level_cache,
    level_cache_stats,
    set_level_cache_budget,
)
from repro.sim.engine import run_vectorized
from repro.sim.runtime import PIMRuntime
from repro.sweep import (
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    build_compiled_workload,
)

from common import SMOKE, smoke_grid, stress_workload_spec, update_bench_runtime

pytestmark = pytest.mark.perf

#: The high-failure-rate operating point (see module docstring).
STRESS_CYCLES = 800 if SMOKE else 8000
STRESS_BETA = 5
STRESS_FLIP_MEAN = 0.78
STRESS_MONITOR_NOISE = 0.010
STRESS_SEED = 3

#: The shared-seed beta grid of the cache-reuse measurement.
CACHE_SWEEP_BETAS = smoke_grid((4, 5, 6, 8))
CACHE_SWEEP_CYCLES = STRESS_CYCLES // 2


def _stress_config(engine: str = "vectorized") -> RuntimeConfig:
    return RuntimeConfig(cycles=STRESS_CYCLES, controller="booster",
                         mode=BoosterMode.LOW_POWER, beta=STRESS_BETA,
                         flip_mean=STRESS_FLIP_MEAN,
                         monitor_noise=STRESS_MONITOR_NOISE,
                         seed=STRESS_SEED, engine=engine)


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


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_cache_reuse() -> dict:
    """Shared-seed beta grid: disabled-cache vs. enabled-cache serial sweeps."""
    workload = stress_workload_spec(label="stress-sweep@64")
    spec = SweepSpec(name="stress-beta", workloads=(workload,),
                     controllers=("booster",), modes=(BoosterMode.LOW_POWER,),
                     betas=CACHE_SWEEP_BETAS, cycles=CACHE_SWEEP_CYCLES,
                     flip_means=(STRESS_FLIP_MEAN,),
                     monitor_noises=(STRESS_MONITOR_NOISE,), seeds=1,
                     master_seed=0, seed_mode="shared")
    build_compiled_workload(workload)   # exclude compile cost from both passes

    old_budget = set_level_cache_budget(0)
    try:
        # Discarded warm-up: fills any lazy one-time state, so the two
        # timed passes differ only in the level cache under measurement.
        # The level cache is the only place activity is kept (flip matrices
        # are not memoized), so with it disabled every run of the grid also
        # regenerates its activity: this side of the bar now times the
        # shared seed's activity as well as its physics.
        SweepRunner(spec, SerialExecutor()).run()
        start = time.perf_counter()
        disabled = SweepRunner(spec, SerialExecutor()).run()
        disabled_seconds = time.perf_counter() - start
    finally:
        set_level_cache_budget(old_budget)

    clear_level_cache()
    start = time.perf_counter()
    enabled = SweepRunner(spec, SerialExecutor()).run()
    enabled_seconds = time.perf_counter() - start
    stats = level_cache_stats()

    identical = [r.to_json_dict() for r in disabled.sorted_records()] == \
        [r.to_json_dict() for r in enabled.sorted_records()]
    return {
        "betas": list(CACHE_SWEEP_BETAS),
        "cycles": CACHE_SWEEP_CYCLES,
        "n_runs": spec.n_runs,
        "seed_mode": spec.seed_mode,
        "cache_disabled_seconds": disabled_seconds,
        "cache_enabled_seconds": enabled_seconds,
        "speedup": disabled_seconds / enabled_seconds,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_entries": stats["entries"],
        "cache_bytes": stats["bytes"],
        "records_identical": identical,
    }


def test_stress_failure_path(benchmark):
    compiled = build_compiled_workload(stress_workload_spec())

    def run():
        runtime = PIMRuntime(compiled, _stress_config())

        # Correctness first: the engine against the oracle, on exactly the
        # benchmarked scenario.
        reference = PIMRuntime(compiled, _stress_config("reference")).run()
        clear_level_cache()
        result = run_vectorized(runtime)
        _assert_equivalent(reference, result, "event engine")

        # Timings, each side the best of three.  The level cache is warm
        # after the runs above, so ``batched_warm`` measures the steady
        # state of a sweep; ``batched_cold`` disables the cache.
        reference_seconds = _best_of(
            lambda: PIMRuntime(compiled, _stress_config("reference")).run())
        batched_warm = _best_of(lambda: run_vectorized(runtime))
        old_budget = set_level_cache_budget(0)
        try:
            batched_cold = _best_of(lambda: run_vectorized(runtime))
        finally:
            set_level_cache_budget(old_budget)

        macro_cycles = STRESS_CYCLES * len(result.macro_results)
        return {
            "scenario": {
                "workload": "stress@64 (synthetic, 2-macro sets, sequential)",
                "loaded_macros": len(result.macro_results),
                "cycles": STRESS_CYCLES,
                "beta": STRESS_BETA,
                "flip_mean": STRESS_FLIP_MEAN,
                "monitor_noise": STRESS_MONITOR_NOISE,
                "seed": STRESS_SEED,
                "failures": result.total_failures,
                "stall_cycles": result.total_stall_cycles,
            },
            "reference_seconds": reference_seconds,
            "batched_cold_seconds": batched_cold,
            "batched_warm_seconds": batched_warm,
            "speedup_vs_reference": reference_seconds / batched_warm,
            "batched_macro_cycles_per_sec": macro_cycles / batched_warm,
            "equivalence_asserted": True,
            "sweep_cache": _sweep_cache_reuse(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    update_bench_runtime({"stress": report})

    scenario = report["scenario"]
    print()
    reference_seconds = report["reference_seconds"]
    print(format_table(
        ["engine", "seconds", "vs reference"],
        [["reference loop", f"{reference_seconds:.3f}", "1.00x"],
         ["event engine, cold cache", f"{report['batched_cold_seconds']:.3f}",
          format_ratio(reference_seconds / report["batched_cold_seconds"])],
         ["event engine, warm cache", f"{report['batched_warm_seconds']:.3f}",
          format_ratio(report["speedup_vs_reference"])]],
        title=f"Stress scenario: {scenario['failures']} failures over "
              f"{scenario['cycles']} cycles x {scenario['loaded_macros']} macros "
              "(BENCH_runtime.json: stress)"))
    cache = report["sweep_cache"]
    print(format_table(
        ["beta grid", "no-cache s", "cached s", "speedup", "hits", "identical"],
        [[f"{len(cache['betas'])} betas @{cache['cycles']}",
          f"{cache['cache_disabled_seconds']:.3f}",
          f"{cache['cache_enabled_seconds']:.3f}",
          format_ratio(cache["speedup"]), str(cache["cache_hits"]),
          str(cache["records_identical"])]],
        title="Shared-seed beta-grid sweep: cross-run level-cache reuse"))

    # Correctness bars hold in every mode; the perf bar only in the full
    # configuration (smoke horizons have too little failure work to amortize).
    assert report["equivalence_asserted"]
    assert cache["records_identical"]
    assert cache["cache_hits"] > 0
    if not SMOKE:
        assert cache["speedup"] > 1.0, cache
