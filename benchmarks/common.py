"""Shared, cached building blocks for the benchmark harnesses.

Every benchmark regenerates one paper table or figure.  The expensive inputs
(QAT runs, compiled workloads) are cached at module level so that the full
``pytest benchmarks/ --benchmark-only`` sweep stays within a few minutes while
each harness still exercises the real code paths.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.ir_booster import BoosterMode
from repro.models import get_model_spec
from repro.pim.config import ChipConfig, small_chip_config
from repro.power.vf_table import VFTable
from repro.quant import QATConfig, QATResult, run_qat
from repro.sim import CompiledWorkload, CompilerConfig, RuntimeConfig, compile_workload, simulate
from repro.sim.results import SimulationResult
from repro.sweep import WorkloadSpec
from repro.workloads import WorkloadProfile, build_workload_profile

#: Models used by the hardware-facing experiments (one conv, one transformer),
#: matching the paper's choice of ResNet18 and ViT as representatives.
HW_WORKLOADS = ("resnet18", "vit")

#: All six workloads of the software experiments (Table 2, Fig. 13).
SW_WORKLOADS = ("resnet18", "mobilenetv2", "yolov5", "vit", "llama3", "gpt2")

#: Geometry used by the benchmark harnesses: smaller than the 64-macro reference
#: chip so sweeps finish quickly, but with the same group structure.
BENCH_CHIP: ChipConfig = small_chip_config(groups=8, macros_per_group=2, banks=4, rows=32)
BENCH_TABLE = VFTable(nominal_voltage=BENCH_CHIP.nominal_voltage,
                      nominal_frequency=BENCH_CHIP.nominal_frequency,
                      signoff_ir_drop=BENCH_CHIP.signoff_ir_drop)

#: The paper's 64-macro reference geometry (16 groups x 4 macros), benchable
#: with the vectorized engine (see bench_runtime_perf).
REFERENCE_CHIP: ChipConfig = small_chip_config(groups=16, macros_per_group=4,
                                               banks=4, rows=32)
REFERENCE_TABLE = VFTable(nominal_voltage=REFERENCE_CHIP.nominal_voltage,
                          nominal_frequency=REFERENCE_CHIP.nominal_frequency,
                          signoff_ir_drop=REFERENCE_CHIP.signoff_ir_drop)

#: Smoke mode (``pytest benchmarks/ --smoke`` or ``REPRO_BENCH_SMOKE=1``):
#: short horizons, single-seed ensembles, truncated sweep grids, so the whole
#: benchmark suite doubles as a quick CI sanity pass.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")

QAT_EPOCHS = 2
#: Simulation horizon of the paper-figure harnesses.  The vectorized engine
#: made long horizons cheap, so this sits well above the seed repo's 600.
SIM_CYCLES = 300 if SMOKE else 2000
#: Seed-ensemble size of the sweep-based harnesses (mean +- bootstrap CI).
N_SEEDS = 1 if SMOKE else 3
#: Master seed every benchmark sweep derives its per-run seeds from.
SWEEP_MASTER_SEED = 0


def smoke_grid(values: tuple) -> tuple:
    """Truncate a sweep axis to 2 points in smoke mode."""
    return values[:2] if SMOKE else values


#: The repo-root performance ledger shared by the perf harnesses.
BENCH_RUNTIME_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                                  "BENCH_runtime.json")


def _git_commit() -> Optional[str]:
    """Short HEAD hash, ``-dirty``-suffixed when the tree has local changes.

    The dirty marker matters for the ledger's provenance: benchmarks are
    typically run *before* committing the change that produced the numbers,
    and stamping the bare parent hash would attribute them to code that
    never contained the change.  Returns None outside a git checkout.
    """
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
        if out.returncode != 0 or not out.stdout.strip():
            return None
        commit = out.stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=cwd,
                                capture_output=True, text=True, timeout=10)
        if status.returncode == 0 and status.stdout.strip():
            commit += "-dirty"
        return commit
    except (OSError, subprocess.SubprocessError):
        return None


def update_bench_runtime(sections: Dict[str, object]) -> Dict[str, object]:
    """Merge ``sections`` into ``BENCH_runtime.json`` (atomic replace).

    Several harnesses contribute to the ledger (``bench_runtime_perf`` owns
    the engine/sweep sections, ``bench_stress_failures`` the ``stress``
    section); merging instead of overwriting keeps every section current with
    its own harness.  Every write also stamps the top-level ``"recorded"``
    map with the producing git commit, an ISO-8601 UTC date and the
    machine's ``cpu_count`` per section (kept *outside* the section
    payloads, whose schemas stay untouched), so the ledger reads as a perf
    trajectory: each section says which commit produced it, when, and on how
    many cores — numbers from different core counts are not comparable.
    Smoke passes (short horizons, truncated grids) merge in memory but never
    persist — their numbers would overwrite the trajectory with meaningless
    values on every CI sanity run.  Returns the merged report.
    """
    try:
        with open(BENCH_RUNTIME_PATH) as handle:
            report = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        report = {}
    stamp = {
        "commit": _git_commit(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cpu_count": os.cpu_count(),
    }
    recorded = report.setdefault("recorded", {})
    for name, section in sections.items():
        report[name] = section
        recorded[name] = stamp
    if SMOKE:
        return report
    tmp_path = BENCH_RUNTIME_PATH + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(report, handle, indent=2)
    os.replace(tmp_path, BENCH_RUNTIME_PATH)
    return report


def assert_traces_equivalent(spec) -> None:
    """Run ``spec`` on both materialization paths and compare the records.

    Used by the figure harnesses *outside* their benchmark-timed regions:
    the sweeps themselves run on the scalar fast path, and this re-runs the
    (cheapest) spec serially with ``traces="none"`` and ``traces="full"`` to
    assert record equivalence in the same test run without inflating the
    recorded sweep timings.
    """
    from dataclasses import replace

    from repro.sweep import SerialExecutor, SweepRunner
    fast = SweepRunner(replace(spec, traces="none"), SerialExecutor()).run()
    full = SweepRunner(replace(spec, traces="full"), SerialExecutor()).run()
    assert_records_equivalent(full, fast)


def assert_records_equivalent(first, second, rtol: float = 1e-9) -> None:
    """Scalar-record equivalence between two sweep results.

    Discrete metrics (failures, stall cycles) must be bit-identical; float
    metrics equal to ``rtol`` (the trace-free fast path computes them
    closed-form per span, reassociating float reductions).
    """
    first_records = first.sorted_records()
    second_records = second.sorted_records()
    assert len(first_records) == len(second_records)
    for a, b in zip(first_records, second_records):
        assert a.run_id == b.run_id and a.seed == b.seed
        assert a.point_key == b.point_key
        for name, value in a.metrics.items():
            other = b.metrics[name]
            if name in ("total_failures", "total_stall_cycles"):
                assert value == other, (a.run_id, name, value, other)
            else:
                assert np.isclose(value, other, rtol=rtol, atol=0.0), \
                    (a.run_id, name, value, other)


def stress_workload_spec(label: str = "stress@64", **overrides) -> WorkloadSpec:
    """The high-failure-rate benchmark workload: a synthetic fill of the
    paper's 64-macro reference geometry (16 groups x 4 macros) with two-macro
    logical Sets, so IRFailures stall whole Sets without any QAT cost.
    """
    params = dict(builder="synthetic", groups=16, macros_per_group=4, banks=4,
                  rows=16, operator_rows=32, n_operators=32, code_spread=30.0,
                  mapping="sequential", label=label)
    params.update(overrides)
    return WorkloadSpec(**params)


def reference_workload_spec(model: str, lhr: bool = True,
                            wds_delta: Optional[int] = 16,
                            mapping: str = "hr_aware",
                            mode: str = BoosterMode.LOW_POWER,
                            label: str = "") -> WorkloadSpec:
    """Spec for the paper-scale 64-macro reference chip (16 groups x 4 macros).

    Mirrors :func:`reference_chip_workload`: no per-operator task cap, so the
    workload fills the chip.
    """
    return WorkloadSpec(builder="model", model=model, lhr=lhr,
                        wds_delta=wds_delta, mapping=mapping, mode=mode,
                        max_tasks_per_operator=None, qat_epochs=QAT_EPOCHS,
                        groups=16, macros_per_group=4, banks=4, rows=32,
                        label=label or f"{model}@64")


@lru_cache(maxsize=None)
def qat_result(model: str, lhr: bool) -> QATResult:
    """Cached QAT run (baseline or +LHR) for one workload."""
    spec = get_model_spec(model)
    config = QATConfig(bits=8, epochs=QAT_EPOCHS, learning_rate=3e-3,
                       lhr_lambda=2.0 if lhr else 0.0, seed=0)
    return run_qat(spec, config)


@lru_cache(maxsize=None)
def workload_profile(model: str, lhr: bool) -> WorkloadProfile:
    """Cached operator profile built from the (cached) QAT result."""
    result = qat_result(model, lhr)
    spec = get_model_spec(model)
    return build_workload_profile(result.model, name=model, family=spec.family,
                                  codes_by_layer=result.weight_codes(), bits=8,
                                  attention_seq_len=16, seed=0)


@lru_cache(maxsize=None)
def compiled_workload(model: str, lhr: bool, wds_delta: Optional[int],
                      mapping: str = "sequential",
                      mode: str = BoosterMode.LOW_POWER) -> CompiledWorkload:
    """Cached compilation of one workload variant onto the benchmark chip."""
    profile = workload_profile(model, lhr)
    config = CompilerConfig(bits=8, wds_delta=wds_delta, mapping_strategy=mapping,
                            mode=mode, max_tasks_per_operator=2, seed=0)
    return compile_workload(profile, BENCH_CHIP, BENCH_TABLE, config)


@lru_cache(maxsize=None)
def reference_chip_workload(model: str, lhr: bool = True,
                            wds_delta: Optional[int] = 16,
                            mapping: str = "hr_aware",
                            mode: str = BoosterMode.LOW_POWER) -> CompiledWorkload:
    """Cached compilation onto the paper-scale 64-macro reference chip.

    Operators are tiled without a per-operator cap so the workload fills the
    chip (the compiler downsamples to the 64-macro capacity).
    """
    profile = workload_profile(model, lhr)
    config = CompilerConfig(bits=8, wds_delta=wds_delta, mapping_strategy=mapping,
                            mode=mode, max_tasks_per_operator=None, seed=0)
    return compile_workload(profile, REFERENCE_CHIP, REFERENCE_TABLE, config)


def run_sim(compiled: CompiledWorkload, controller: str, mode: str,
            beta: int = 50, cycles: int = SIM_CYCLES, seed: int = 0,
            engine: str = "vectorized",
            table: Optional[VFTable] = None) -> SimulationResult:
    """One runtime simulation with the benchmark defaults."""
    config = RuntimeConfig(cycles=cycles, controller=controller, mode=mode, beta=beta,
                           seed=seed, engine=engine)
    return simulate(compiled, config, table=table or BENCH_TABLE)


def baseline_simulation(model: str, mode: str = BoosterMode.LOW_POWER,
                        cycles: int = SIM_CYCLES) -> SimulationResult:
    """The un-optimized reference: baseline QAT, no WDS, sequential mapping, DVFS."""
    compiled = compiled_workload(model, lhr=False, wds_delta=None, mapping="sequential")
    return run_sim(compiled, controller="dvfs", mode=mode, cycles=cycles)


def aim_simulation(model: str, mode: str = BoosterMode.LOW_POWER, beta: int = 50,
                   cycles: int = SIM_CYCLES) -> SimulationResult:
    """The full-AIM configuration: LHR + WDS(16) + HR-aware mapping + IR-Booster."""
    compiled = compiled_workload(model, lhr=True, wds_delta=16, mapping="hr_aware",
                                 mode=mode)
    return run_sim(compiled, controller="booster", mode=mode, beta=beta, cycles=cycles)
