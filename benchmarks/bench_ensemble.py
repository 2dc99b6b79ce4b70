"""Batch-of-runs ensemble engine vs per-run kernel execution.

One measurement, one ``BENCH_runtime.json`` section (``ensemble``): an
8-seed failure-dense ``booster`` ensemble on the 64-macro reference geometry
(the ``stress@64`` synthetic fill), resolved two ways from a *cold* start —
per-run kernel execution (one :class:`~repro.sim.runtime.PIMRuntime` per
seed) and the batched :func:`~repro.sim.ensemble.run_ensemble` pass.  Cold
means the level cache, the only place activity and physics are kept, is
cleared before every timed iteration: this is the first-sight sweep regime
the ensemble engine targets, where AR(1) activity generation and per-level
physics dominate and batching amortizes them across the seed ensemble.

The bar: ensemble ≥ 1.5x over per-run kernel execution
(``REPRO_BENCH_ENSEMBLE_BAR_MIN`` overrides), with bit-for-bit record
equivalence between the two paths asserted in the same run.
"""

import gc
import os
import time

import pytest

from repro.analysis import format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sim import RuntimeConfig, clear_level_cache, run_ensemble
from repro.sim.runtime import PIMRuntime
from repro.sweep import build_compiled_workload, run_seed

from common import SMOKE, stress_workload_spec, update_bench_runtime

pytestmark = pytest.mark.perf

#: The failure-dense ensemble operating point (matches the ``kernels``
#: section's stress regime so the two ledgers describe one scenario family).
ENSEMBLE_SEEDS = 2 if SMOKE else 8
ENSEMBLE_CYCLES = 800 if SMOKE else 8000
ENSEMBLE_FLIP_MEAN = 0.9
ENSEMBLE_MONITOR_NOISE = 0.035
#: Frontier jump per selected failure.  32 keeps every member deep in the
#: failure-dense regime (>7000 failures per member at the reference chip)
#: while leaving the boost ladder's level dwells sparse enough that the
#: ensemble's candidate masks — not the inherently sequential span walk —
#: decide the matchup.
ENSEMBLE_RECOMPUTE = 32

#: Ensemble-speedup bar over per-run kernel execution; overridable from the
#: environment so the hosted-runner configuration can be tuned without a
#: code change.
ENSEMBLE_BAR_MIN = float(os.environ.get("REPRO_BENCH_ENSEMBLE_BAR_MIN", "1.5"))


def _configs():
    """The seed ensemble: identical physics knobs, per-seed RNG streams."""
    return [RuntimeConfig(cycles=ENSEMBLE_CYCLES, controller="booster",
                          mode=BoosterMode.LOW_POWER, beta=5,
                          recompute_cycles=ENSEMBLE_RECOMPUTE,
                          flip_mean=ENSEMBLE_FLIP_MEAN,
                          monitor_noise=ENSEMBLE_MONITOR_NOISE,
                          seed=run_seed(0, 0, index), traces="none")
            for index in range(ENSEMBLE_SEEDS)]


def _cold():
    """First-sight state: no cached activity or physics."""
    clear_level_cache()


def _per_run(compiled):
    return [PIMRuntime(compiled, config).run() for config in _configs()]


def _batched(compiled):
    return run_ensemble(compiled, _configs())


def _interleaved_best_of_cold(fns, repeats: int = 5):
    """Per-function best cold wall time over ``repeats`` rounds, GC parked.

    The functions are timed back to back *within* each round, and the order
    alternates between rounds: on a shared machine the throughput drifts on
    a seconds timescale, and sequential per-function phases let that drift
    land entirely on one side of the ratio, while a fixed within-round
    order still biases whichever slot catches the fast moments.
    Alternation over enough rounds gives every function its share of the
    same machine moments before the bests are compared.  The caches are
    cleared *outside* the clock: the measurement is the simulation work
    from a cold start, not the cost of forgetting."""
    bests = [float("inf")] * len(fns)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for r in range(repeats):
            order = range(len(fns)) if r % 2 == 0 \
                else range(len(fns) - 1, -1, -1)
            for i in order:
                _cold()
                start = time.perf_counter()
                fns[i]()
                bests[i] = min(bests[i], time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return bests


def _assert_bit_identical(per_run, batched) -> None:
    """The ensemble equivalence contract on scalar records: every field of
    every member, bit for bit (the two paths execute identical float
    arithmetic in identical order, so even the reductions match exactly)."""
    assert len(per_run) == len(batched)
    for ref, ens in zip(per_run, batched):
        assert ref.total_failures == ens.total_failures
        assert ref.total_stall_cycles == ens.total_stall_cycles
        for a, b in zip(ref.macro_results, ens.macro_results):
            assert (a.macro_index, a.failures, a.stall_cycles) == \
                (b.macro_index, b.failures, b.stall_cycles)
            assert a.worst_drop == b.worst_drop
            assert a.peak_rtog == b.peak_rtog
            assert a.mean_rtog == b.mean_rtog
            assert a.mean_drop == b.mean_drop
            assert a.energy.dynamic_energy == b.energy.dynamic_energy
            assert a.energy.static_energy == b.energy.static_energy
            assert a.energy.elapsed_time == b.energy.elapsed_time
            assert a.energy.completed_macs == b.energy.completed_macs
        for a, b in zip(ref.group_results, ens.group_results):
            assert (a.group_id, a.safe_level, a.final_level, a.failures) == \
                (b.group_id, b.safe_level, b.final_level, b.failures)
            assert a.mean_level == b.mean_level


def test_ensemble_engine_speedup(benchmark):
    compiled = build_compiled_workload(stress_workload_spec())

    def run():
        # Equivalence first, outside the timed region, in the same run.
        _cold()
        reference = _per_run(compiled)
        _cold()
        batched = _batched(compiled)
        _assert_bit_identical(reference, batched)

        per_run_seconds, ensemble_seconds = _interleaved_best_of_cold(
            [lambda: _per_run(compiled), lambda: _batched(compiled)])
        return {
            "scenario": {
                "workload": "stress@64 (synthetic, 2-macro sets, sequential)",
                "controller": "booster",
                "n_seeds": ENSEMBLE_SEEDS,
                "cycles": ENSEMBLE_CYCLES,
                "flip_mean": ENSEMBLE_FLIP_MEAN,
                "monitor_noise": ENSEMBLE_MONITOR_NOISE,
                "recompute_cycles": ENSEMBLE_RECOMPUTE,
                "traces": "none",
            },
            "failures_per_member": [r.total_failures for r in batched],
            "per_run_cold_seconds": per_run_seconds,
            "ensemble_cold_seconds": ensemble_seconds,
            "speedup_ensemble_vs_per_run": per_run_seconds / ensemble_seconds,
            "equivalence_asserted": True,
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    update_bench_runtime({"ensemble": report})

    print()
    print(format_table(
        ["seeds", "cycles", "per-run s", "ensemble s", "speedup",
         "identical"],
        [[str(ENSEMBLE_SEEDS), str(ENSEMBLE_CYCLES),
          f"{report['per_run_cold_seconds']:.3f}",
          f"{report['ensemble_cold_seconds']:.3f}",
          format_ratio(report["speedup_ensemble_vs_per_run"]),
          str(report["equivalence_asserted"])]],
        title="Batch-of-runs ensemble engine, cold start "
              "(BENCH_runtime.json: ensemble)"))

    assert report["equivalence_asserted"]
    assert min(report["failures_per_member"]) > (100 if SMOKE else 1000)
    if not SMOKE:
        assert report["speedup_ensemble_vs_per_run"] >= ENSEMBLE_BAR_MIN, \
            report
