"""Parallel multi-seed parameter sweeps over the cycle-level runtime.

The paper's figures are sweeps over independent simulations: Fig. 18 sweeps
the Algorithm-2 beta window, Sec. 6.6 sweeps a workload/controller portfolio,
Figs. 19/20 sweep ablation steps.  This package makes those first-class:

* :class:`~repro.sweep.spec.SweepSpec` — a declarative cartesian grid
  (workloads x controllers x modes x betas x stress knobs) with a seed
  ensemble, expanded into picklable :class:`~repro.sweep.spec.RunSpec`s with
  ``SeedSequence``-derived per-run seeds;
* :class:`~repro.sweep.runner.SweepRunner` — executes runs through a pluggable
  executor (:class:`~repro.sweep.runner.SerialExecutor` or the chunked
  :class:`~repro.sweep.runner.PoolExecutor`); workers rebuild workloads from
  specs (:mod:`repro.sweep.builders`) so nothing heavyweight crosses the pipe;
* :class:`~repro.sweep.records.SweepResult` — per-point mean/std and bootstrap
  confidence intervals over the seed ensemble, a one-way JSON export, and
  resume from a partial record store (:mod:`repro.store`, the one
  persistence authority) that aggregates identically to a fresh run.

Serial and pool execution are bit-for-bit equivalent for the same spec and
master seed; ``tests/test_sweep.py`` enforces the contract.

Fault tolerance: executors armed with a
:class:`~repro.sweep.spec.RetryPolicy` (and, for the pool, a per-run
``run_timeout``) retry transient failures, survive hung runs and dead
workers by rebuilding the fleet, and quarantine runs that exhaust their
budget into :attr:`SweepResult.failed_runs` — see
:mod:`repro.sweep.runner` and the deterministic chaos harness in
:mod:`repro.sweep.faults`.
"""

from .builders import (
    build_compiled_workload,
    clear_workload_cache,
    register_workload_builder,
)
from .faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    arm_faults,
    disarm_faults,
    injected_faults,
)
from .records import (
    METRIC_NAMES,
    FailedRun,
    MetricStats,
    PointSummary,
    RunRecord,
    SweepResult,
    bound_traceback,
)
from .runner import (
    ExecutorStats,
    PoolExecutor,
    SerialExecutor,
    SweepProgress,
    SweepRunner,
    execute_ensemble,
    execute_run,
    execute_work,
    run_sweeps,
)
from .spec import (
    EnsembleSpec,
    RetryPolicy,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    batch_key,
    ensemble_seed,
    group_into_ensembles,
    run_seed,
)

__all__ = [
    "SweepSpec", "RunSpec", "WorkloadSpec", "run_seed", "ensemble_seed",
    "EnsembleSpec", "batch_key", "group_into_ensembles",
    "SweepRunner", "SerialExecutor", "PoolExecutor", "execute_run", "run_sweeps",
    "execute_ensemble", "execute_work", "ExecutorStats", "SweepProgress",
    "SweepResult", "RunRecord", "FailedRun", "MetricStats", "PointSummary",
    "METRIC_NAMES", "RetryPolicy", "bound_traceback",
    "register_workload_builder", "build_compiled_workload", "clear_workload_cache",
    "FaultSpec", "FaultPlan", "InjectedFault",
    "arm_faults", "disarm_faults", "injected_faults",
]
