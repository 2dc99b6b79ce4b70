"""Runtime-engine performance: vectorized vs. reference simulation speed.

This harness starts the repo's performance trajectory for the cycle-level
runtime.  It times both engines on

* the ``bench_sec66_headline`` configuration — the exact simulate() calls the
  Sec. 6.6 headline makes (DVFS baseline + full-AIM booster, low-power and
  sprint, both HW workloads) at the benchmark's 600-cycle horizon;
* a long 5000-cycle horizon (the reference loop's cost grows linearly, the
  vectorized engine's event cost stays sparse);
* the paper-scale 64-macro reference chip, which only became benchable with
  the vectorized engine;
* the :mod:`repro.sweep` runner: serial vs. ``multiprocessing.Pool`` executors
  over a beta x seed grid on the reference chip (the sweeps themselves are
  embarrassingly parallel, so pool throughput tracks the core count);
* process start-up (``test_startup_imports``, the ``startup`` section): the
  wall seconds and resident memory of ``import repro.sweep`` and ``import
  repro.service`` in fresh interpreters, and the scipy modules they load.

Results (cycles/second per engine, speedups, sweep throughput, and the
equivalence of the aggregate failure counts) are written to
``BENCH_runtime.json`` at the repo root so future PRs can track the trajectory.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sweep import (
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    build_compiled_workload,
)

from common import (
    HW_WORKLOADS,
    REFERENCE_CHIP,
    REFERENCE_TABLE,
    SIM_CYCLES,
    SMOKE,
    SWEEP_MASTER_SEED,
    assert_records_equal,
    compiled_workload,
    reference_chip_workload,
    reference_workload_spec,
    run_sim,
    smoke_grid,
    update_bench_runtime,
)

pytestmark = pytest.mark.perf

#: The sweep-throughput grid: >= 8 points (beta x seed) on the 64-macro chip.
SWEEP_BETAS = smoke_grid((10, 30, 50, 70))
SWEEP_SEEDS = 2 if len(SWEEP_BETAS) < 4 else 4
#: ``REPRO_BENCH_POOL_BAR=1`` arms the wall-clock pool-speedup assertion even
#: in smoke mode (the multicore-CI configuration): the sweep keeps the long
#: horizon so one run stays a meaningful unit of pool work, and the
#: cpu_count-tiered bars below are enforced.
POOL_BAR = os.environ.get("REPRO_BENCH_POOL_BAR", "").lower() in \
    ("1", "true", "yes")
#: Long horizon so one run is a meaningful unit of pool work.
SWEEP_CYCLES = SIM_CYCLES if SMOKE and not POOL_BAR else max(SIM_CYCLES, 5000)

#: Materialization benchmark: the scalar-record fast path (traces="none") vs
#: full-trace materialization on the reference chip.  Long horizon so the
#: per-run trace gathers dominate over setup.
MAT_CYCLES = SIM_CYCLES if SMOKE else 8000
MAT_SEEDS = 1 if SMOKE else 3

#: Smoke bars, overridable from the environment so the hosted-runner
#: configuration can be tuned without a code change.
POOL_BAR_MIN = os.environ.get("REPRO_BENCH_POOL_BAR_MIN")
#: Ceiling on the supervised pool's fault-free overhead vs. the plain pool
#: (fractional: 0.05 == 5%).  Overridable for noisy shared runners.
SUPERVISED_MAX_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_SUPERVISED_MAX_OVERHEAD", "0.05"))
#: Alternating plain/supervised pool passes; the overhead bar compares the
#: fastest of each, since one pass's run-to-run spread exceeds the bar.
OVERHEAD_PASSES = 3

#: The imports a sweep or service process starts with, and how many fresh
#: interpreters time each one.
STARTUP_IMPORTS = ("repro.sweep", "repro.service")
STARTUP_INTERPRETERS = 2 if SMOKE else 5
#: One fresh interpreter's ``import {module}``: the import's wall seconds,
#: the process's VmRSS after it, and the scipy modules and packages loaded.
#: The verify skill's start-up probe is the same line.
STARTUP_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import {module}; "
    "s = time.perf_counter() - t; "
    "rss = next(int(l.split()[1]) for l in open('/proc/self/status') "
    "if l.startswith('VmRSS:')); "
    "scipy = [m for m in sys.modules if m.startswith('scipy')]; "
    "print(json.dumps({{'seconds': round(s, 3), "
    "'vmrss_mb': round(rss / 1024, 1), 'scipy_modules': len(scipy), "
    "'scipy_packages': sorted(m for m in scipy "
    "if hasattr(sys.modules[m], '__path__'))}}))")


def _materialization_spec(controller: str, traces: str) -> SweepSpec:
    workload = reference_workload_spec("vit", mode=BoosterMode.LOW_POWER,
                                       label="vit@64")
    return SweepSpec(name=f"mat-{controller}", workloads=(workload,),
                     controllers=(controller,),
                     modes=(BoosterMode.LOW_POWER,), betas=(50,),
                     cycles=MAT_CYCLES, seeds=MAT_SEEDS,
                     master_seed=SWEEP_MASTER_SEED, traces=traces)


def _time_materialization():
    """Full-trace vs scalar-record sweep wall time on the reference chip.

    Both modes run the same closed-form scalar pass; a full-trace run then
    builds the per-cycle level traces, evaluates Eq. 2 over each group's
    activity and level trace for the drop traces, takes the chip-drop
    trace and copies the activity traces, so ``full_seconds -
    none_seconds`` is what those traces cost.  ``booster_safe`` and ``dvfs`` (no failures at all) are
    materialization-dominated; ``booster`` is event-path heavy, so its
    ratio is smaller.  The two modes' records are asserted exactly equal in
    the same run.
    """
    build_compiled_workload(
        reference_workload_spec("vit", mode=BoosterMode.LOW_POWER,
                                label="vit@64"))
    report = {"cycles": MAT_CYCLES, "seeds": MAT_SEEDS, "workload": "vit@64",
              "controllers": {}}
    for controller in ("booster_safe", "dvfs", "booster"):
        spec_full = _materialization_spec(controller, "full")
        spec_none = _materialization_spec(controller, "none")
        # Warm pass: populate the level cache and activity aggregates (the
        # steady state of any sweep), and assert record equality.
        full_result = SweepRunner(spec_full, SerialExecutor()).run()
        none_result = SweepRunner(spec_none, SerialExecutor()).run()
        assert_records_equal(full_result, none_result)

        full_seconds = min(
            _timed(lambda: SweepRunner(spec_full, SerialExecutor()).run())
            for _ in range(3))
        none_seconds = min(
            _timed(lambda: SweepRunner(spec_none, SerialExecutor()).run())
            for _ in range(3))
        report["controllers"][controller] = {
            "n_runs": spec_full.n_runs,
            "full_seconds": full_seconds,
            "none_seconds": none_seconds,
            "speedup": full_seconds / none_seconds,
            "records_equal": True,
        }
    return report


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _time_sweep_executors():
    """Serial vs. pool wall time on the beta x seed grid (records must match)."""
    workload = reference_workload_spec("vit", mode=BoosterMode.LOW_POWER,
                                       label="vit@64")
    spec = SweepSpec(name="perf-sweep", workloads=(workload,),
                     controllers=("booster",), modes=(BoosterMode.LOW_POWER,),
                     betas=SWEEP_BETAS, cycles=SWEEP_CYCLES, seeds=SWEEP_SEEDS,
                     master_seed=SWEEP_MASTER_SEED)
    # Warm the per-process workload cache: the serial pass then measures pure
    # simulation, and fork-started pool workers inherit the compiled image.
    build_compiled_workload(workload)

    start = time.perf_counter()
    serial_result = SweepRunner(spec, SerialExecutor()).run()
    serial_time = time.perf_counter() - start
    serial_dicts = [r.to_json_dict() for r in serial_result.sorted_records()]

    def timed_pass(executor):
        start = time.perf_counter()
        result = SweepRunner(spec, executor).run()
        seconds = time.perf_counter() - start
        return seconds, serial_dicts == [
            r.to_json_dict() for r in result.sorted_records()]

    # The plain pool alternated with the supervised pool (retry policy +
    # deadline watchdog) on the same fault-free scenario.  Both pools run
    # the same dispatch loop, so the difference is the retry and deadline
    # bookkeeping alone, which must stay in the noise.  The speedup and
    # the pool bar read the first plain pass only.
    processes = os.cpu_count() or 1
    pool_passes, supervised_passes = [], []
    for _ in range(OVERHEAD_PASSES):
        pool_passes.append(timed_pass(PoolExecutor(processes=processes)))
        supervised_passes.append(timed_pass(PoolExecutor(
            processes=processes, retry_policy=RetryPolicy(max_attempts=3),
            run_timeout=300.0)))
    pool_time = pool_passes[0][0]
    pool_best = min(seconds for seconds, _ in pool_passes)
    supervised_best = min(seconds for seconds, _ in supervised_passes)
    return {
        "n_points": spec.n_points,
        "n_runs": spec.n_runs,
        "cycles": SWEEP_CYCLES,
        "serial_seconds": serial_time,
        "pool_seconds": pool_time,
        "speedup": serial_time / pool_time,
        "serial_runs_per_sec": spec.n_runs / serial_time,
        "pool_runs_per_sec": spec.n_runs / pool_time,
        "pool_pass_seconds": [seconds for seconds, _ in pool_passes],
        "supervised_pass_seconds": [seconds
                                    for seconds, _ in supervised_passes],
        "pool_best_seconds": pool_best,
        "supervised_best_seconds": supervised_best,
        "supervised_overhead": supervised_best / pool_best - 1.0,
        "supervised_records_identical": all(
            same for _, same in supervised_passes),
        "cpu_count": os.cpu_count(),
        "pool_processes": processes,
        "records_identical": all(same for _, same in pool_passes),
    }


def _time_startup():
    """:data:`STARTUP_PROBE` for each of :data:`STARTUP_IMPORTS`, medians.

    One untimed interpreter per import first compiles the bytecode, so the
    timed ones pay what every later process start pays.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    section = {"interpreters": STARTUP_INTERPRETERS, "imports": {}}
    for module in STARTUP_IMPORTS:
        command = [sys.executable, "-c", STARTUP_PROBE.format(module=module)]
        probes = [json.loads(subprocess.run(
            command, env=env, check=True, capture_output=True, text=True,
            timeout=120).stdout) for _ in range(STARTUP_INTERPRETERS + 1)][1:]
        assert all(p["scipy_packages"] == probes[0]["scipy_packages"]
                   for p in probes), probes
        section["imports"][module] = {
            "median_seconds": statistics.median(p["seconds"] for p in probes),
            "median_vmrss_mb": statistics.median(p["vmrss_mb"]
                                                 for p in probes),
            "scipy_modules": probes[0]["scipy_modules"],
            "scipy_packages": probes[0]["scipy_packages"],
        }
    return section


#: (label, controller, lhr, wds, mapping) — the headline's four simulate()
#: calls per model (baseline = DVFS on the unoptimized compile, AIM = booster
#: on the full-AIM compile), for both modes.
HEADLINE_RUNS = [
    ("baseline", "dvfs", False, None, "sequential"),
    ("aim", "booster", True, 16, "hr_aware"),
]


def _time_portfolio(engine: str, cycles: int, repeats: int = 3):
    """Best-of-N wall time + aggregate outcome checksum for one engine."""
    best = float("inf")
    checksum = None
    for _ in range(repeats):
        total = 0.0
        failures = 0
        stalls = 0
        macro_cycles = 0
        for model in HW_WORKLOADS:
            for _, controller, lhr, wds, mapping in HEADLINE_RUNS:
                for mode in (BoosterMode.LOW_POWER, BoosterMode.SPRINT):
                    compiled = compiled_workload(model, lhr=lhr, wds_delta=wds,
                                                 mapping=mapping, mode=mode)
                    start = time.perf_counter()
                    result = run_sim(compiled, controller=controller, mode=mode,
                                     cycles=cycles, engine=engine)
                    total += time.perf_counter() - start
                    failures += result.total_failures
                    stalls += result.total_stall_cycles
                    macro_cycles += cycles * len(result.macro_results)
        best = min(best, total)
        checksum = (failures, stalls)
    return best, checksum, macro_cycles


def test_runtime_engine_speedup(benchmark):
    def run():
        report = {"sim_cycles": SIM_CYCLES, "horizons": {}}
        for cycles in (SIM_CYCLES, 5000):
            ref_time, ref_checksum, macro_cycles = _time_portfolio("reference", cycles)
            vec_time, vec_checksum, _ = _time_portfolio("vectorized", cycles)
            assert ref_checksum == vec_checksum, \
                "engines disagree on failures/stalls"
            report["horizons"][str(cycles)] = {
                "reference_seconds": ref_time,
                "vectorized_seconds": vec_time,
                "speedup": ref_time / vec_time,
                "reference_macro_cycles_per_sec": macro_cycles / ref_time,
                "vectorized_macro_cycles_per_sec": macro_cycles / vec_time,
                "failures": ref_checksum[0],
                "stall_cycles": ref_checksum[1],
            }

        # Paper-scale 64-macro chip, vectorized engine only for the trajectory
        # (plus one reference timing so the speedup there is on record too).
        compiled = reference_chip_workload("resnet18")
        start = time.perf_counter()
        result = run_sim(compiled, controller="booster", mode=BoosterMode.LOW_POWER,
                         cycles=SIM_CYCLES, engine="vectorized",
                         table=REFERENCE_TABLE)
        vec_time = time.perf_counter() - start
        start = time.perf_counter()
        ref_result = run_sim(compiled, controller="booster",
                             mode=BoosterMode.LOW_POWER, cycles=SIM_CYCLES,
                             engine="reference", table=REFERENCE_TABLE)
        ref_time = time.perf_counter() - start
        assert ref_result.total_failures == result.total_failures
        report["reference_chip"] = {
            "total_macros": REFERENCE_CHIP.total_macros,
            "loaded_macros": len(result.macro_results),
            "vectorized_seconds": vec_time,
            "reference_seconds": ref_time,
            "speedup": ref_time / vec_time,
            "macro_cycles_per_sec": SIM_CYCLES * len(result.macro_results) / vec_time,
        }

        report["sweep_throughput"] = _time_sweep_executors()
        report["materialization"] = _time_materialization()
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    # Merge-preserve: other harnesses own their own sections (e.g. the
    # ``stress`` section written by bench_stress_failures).
    update_bench_runtime(report)

    headline = report["horizons"][str(SIM_CYCLES)]
    long_run = report["horizons"]["5000"]
    print()
    print(format_table(
        ["configuration", "ref s", "vec s", "speedup", "vec macro-cyc/s"],
        [[f"headline @{SIM_CYCLES}", f"{headline['reference_seconds']:.3f}",
          f"{headline['vectorized_seconds']:.3f}",
          format_ratio(headline["speedup"]),
          f"{headline['vectorized_macro_cycles_per_sec']:.2e}"],
         ["portfolio @5000", f"{long_run['reference_seconds']:.3f}",
          f"{long_run['vectorized_seconds']:.3f}",
          format_ratio(long_run["speedup"]),
          f"{long_run['vectorized_macro_cycles_per_sec']:.2e}"],
         [f"64-macro chip @{SIM_CYCLES}",
          f"{report['reference_chip']['reference_seconds']:.3f}",
          f"{report['reference_chip']['vectorized_seconds']:.3f}",
          format_ratio(report["reference_chip"]["speedup"]),
          f"{report['reference_chip']['macro_cycles_per_sec']:.2e}"]],
        title="Runtime engine performance (BENCH_runtime.json)"))

    sweep = report["sweep_throughput"]
    print(format_table(
        ["sweep grid", "serial s", "pool s", "speedup", "best pool s",
         "best superv s", "superv ovh", "cores"],
        [[f"{sweep['n_points']} pts x {sweep['n_runs'] // sweep['n_points']} seeds"
          f" @{sweep['cycles']}",
          f"{sweep['serial_seconds']:.3f}", f"{sweep['pool_seconds']:.3f}",
          format_ratio(sweep["speedup"]),
          f"{sweep['pool_best_seconds']:.3f}",
          f"{sweep['supervised_best_seconds']:.3f}",
          f"{sweep['supervised_overhead']:+.1%}",
          f"{sweep['cpu_count']}"]],
        title="Sweep-runner executor throughput (BENCH_runtime.json)"))

    mat = report["materialization"]
    print(format_table(
        ["controller", "runs", "full s", "none s", "speedup"],
        [[controller, str(data["n_runs"]), f"{data['full_seconds']:.3f}",
          f"{data['none_seconds']:.3f}", format_ratio(data["speedup"])]
         for controller, data in mat["controllers"].items()],
        title=f"Scalar-record fast path, vit@64 x {mat['cycles']} cycles "
              "(BENCH_runtime.json: materialization)"))

    # The tentpole acceptance bar: >= 20x on the Sec. 6.6 headline settings.
    # Smoke mode shrinks the horizon (less to amortize), so only the full
    # configuration enforces the perf bars; correctness bars always hold.
    assert sweep["records_identical"]
    assert sweep["supervised_records_identical"]
    # Supervised execution (retries + deadline watchdog) must not tax the
    # fault-free path: <= 5% overhead vs. the plain pool, fastest pass
    # against fastest pass, with a small absolute grace so scheduler jitter
    # on sub-second smoke sweeps cannot fail the relative bar (the full
    # configuration's long horizon makes the relative term dominant).
    overhead_budget = SUPERVISED_MAX_OVERHEAD * sweep["pool_best_seconds"] \
        + (0.25 if SMOKE else 0.0)
    assert sweep["supervised_best_seconds"] - sweep["pool_best_seconds"] \
        <= overhead_budget, sweep
    if not SMOKE:
        assert headline["speedup"] >= 20.0, headline
        assert long_run["speedup"] >= 20.0, long_run
        assert report["reference_chip"]["speedup"] >= 10.0
        # Skipping the trace gathers must save time on every controller
        # (record equality asserted in-run).
        for data in mat["controllers"].values():
            assert data["none_seconds"] < data["full_seconds"], mat

    # Wall-clock pool speedup is only a meaningful bar when the machine has
    # cores to use (the records equality above always is).  Armed outside
    # smoke mode, or in smoke with REPRO_BENCH_POOL_BAR=1 — the multicore-CI
    # configuration.  The thresholds default to the values below and are
    # overridable with REPRO_BENCH_POOL_BAR_MIN, so the first green
    # hosted-runner run can be tuned without a code change (shared CI
    # runners are noisy).
    if not SMOKE or POOL_BAR:
        if (sweep["cpu_count"] or 1) >= 4:
            default_bar = 1.5 if (POOL_BAR and SMOKE) else 2.0
            bar = float(POOL_BAR_MIN) if POOL_BAR_MIN else default_bar
            assert sweep["speedup"] > bar, sweep
        elif (sweep["cpu_count"] or 1) >= 2:
            bar = float(POOL_BAR_MIN) if POOL_BAR_MIN else 1.15
            assert sweep["speedup"] > bar, sweep


def test_startup_imports():
    """Process start-up: the ``startup`` section of ``BENCH_runtime.json``."""
    section = _time_startup()
    update_bench_runtime({"startup": section})
    print()
    print(format_table(
        ["import", "median s", "VmRSS MB", "scipy modules", "scipy packages"],
        [[f"import {module}", f"{data['median_seconds']:.3f}",
          f"{data['median_vmrss_mb']:.1f}", str(data["scipy_modules"]),
          ", ".join(data["scipy_packages"])]
         for module, data in section["imports"].items()],
        title=f"Start-up, medians of {section['interpreters']} fresh "
              "interpreters (BENCH_runtime.json: startup)"))
