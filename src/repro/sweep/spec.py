"""Declarative sweep specifications.

The paper's headline experiments (the Sec. 6.6 portfolio, the Fig. 18 beta
trade-off, the Fig. 19/20 ablations) are all parameter sweeps over independent
simulations.  A :class:`SweepSpec` describes such a sweep declaratively — a
cartesian grid over workloads, controllers, modes, beta windows, stress knobs
and a seed ensemble — and expands into a flat list of :class:`RunSpec`s, the
unit of work the :class:`~repro.sweep.runner.SweepRunner` dispatches.

Everything in this module is a plain frozen dataclass of primitives so that
specs pickle cheaply across :mod:`multiprocessing` boundaries.  Workers never
receive a compiled workload: they receive the :class:`WorkloadSpec` and build
(and cache) the chip image themselves — see :mod:`repro.sweep.builders`.

Determinism contract
--------------------
Every run's simulation seed is derived as::

    SeedSequence(master_seed, spawn_key=(point_index, seed_index))

so a run's seed depends only on the sweep's ``master_seed``, its grid-point
index and its position in the seed ensemble — not on execution order, executor
choice (serial vs. pool), chunking, or which runs were resumed from a partial
result file.  This is what makes the pool executor reproduce serial sweeps
bit-for-bit.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["WorkloadSpec", "RunSpec", "SweepSpec", "EnsembleSpec",
           "RetryPolicy", "run_seed", "ensemble_seed", "group_into_ensembles"]


def run_seed(master_seed: int, point_index: int, seed_index: int) -> int:
    """The deterministic simulation seed of one run (see module docstring)."""
    sequence = np.random.SeedSequence(master_seed,
                                      spawn_key=(point_index, seed_index))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def ensemble_seed(master_seed: int, seed_index: int) -> int:
    """The shared (common-random-numbers) seed of one ensemble member.

    Used by ``SweepSpec(seed_mode="shared")``: every grid point's ``k``-th
    ensemble run draws the same seed, so points differ *only* in their
    configuration.  Distinct from any :func:`run_seed` derivation (the spawn
    key has a different shape).
    """
    sequence = np.random.SeedSequence(master_seed, spawn_key=(seed_index,))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def _jitter_unit(salt: int, token: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for backoff jitter.

    A pure function of ``(salt, token, attempt)`` — no RNG state, so a
    retried run computes the same delay in whichever process (or pool
    rebuild) dispatches it, and tests can pin exact delays.
    """
    digest = hashlib.sha256(f"{salt}|{token}|{attempt}".encode())
    return int.from_bytes(digest.digest()[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised executors retry a failing run.

    A run *attempt* fails when :func:`~repro.sweep.runner.execute_run` raises,
    when it exceeds the executor's per-run wall-clock timeout, or when the
    worker process executing it dies.  The policy allows ``max_attempts``
    attempts total; a run that exhausts them is quarantined as a
    :class:`~repro.sweep.records.FailedRun` instead of aborting the sweep.
    ``backoff`` seconds (times the number of failures so far, linear) pass
    before each re-dispatch — a courtesy pause for faults caused by transient
    resource pressure.

    ``jitter="decorrelated"`` spreads those pauses so a fleet of workers that
    all failed on the same shared-store hiccup does not retry in lockstep
    (and hiccup again): each retry's delay follows the decorrelated-jitter
    recurrence ``d(a) = min(max_backoff, uniform(backoff, 3 * d(a-1)))``,
    with the uniforms drawn deterministically from ``(jitter_salt, run_id,
    attempt)`` — per-run-decorrelated but bit-reproducible, so chaos tests
    stay exact.  The default ``"none"`` keeps the historical linear ramp.

    Frozen and scalar-only so it pickles across the pool boundary like every
    other spec in this module.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    #: "none" (linear ``backoff * (attempt - 1)`` ramp) or "decorrelated".
    jitter: str = "none"
    #: upper clamp of any single jittered delay, in seconds.
    max_backoff: float = 30.0
    #: reshuffles the deterministic jitter draws (like a fault-plan salt).
    jitter_salt: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be a positive attempt budget")
        if self.backoff < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.jitter not in ("none", "decorrelated"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}; "
                             "expected 'none' or 'decorrelated'")
        if self.max_backoff <= 0:
            raise ValueError("max_backoff must be positive seconds")

    def delay_before(self, attempt: int, token: str = "") -> float:
        """Seconds to pause before dispatching ``attempt`` (1-based).

        ``token`` decorrelates jittered delays across runs (executors pass
        the ``run_id``); it is ignored under ``jitter="none"``.
        """
        if attempt <= 1 or self.backoff == 0:
            return 0.0
        if self.jitter == "none":
            return self.backoff * (attempt - 1)
        delay = self.backoff
        for a in range(2, attempt + 1):
            u = _jitter_unit(self.jitter_salt, token, a)
            delay = min(self.max_backoff,
                        self.backoff + u * (3.0 * delay - self.backoff))
        return delay

    def max_delay_before(self, attempt: int) -> float:
        """Upper bound of :meth:`delay_before` over every token.

        The supervised pool budgets chunk deadlines before it knows which
        jittered delays will actually be drawn, so it must assume the worst.
        """
        if attempt <= 1 or self.backoff == 0:
            return 0.0
        if self.jitter == "none":
            return self.backoff * (attempt - 1)
        return min(self.max_backoff, self.backoff * 3.0 ** (attempt - 1))


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative, picklable recipe for one compiled workload.

    The spec names a registered *builder* (see :mod:`repro.sweep.builders`)
    plus everything that builder needs to reconstruct the exact chip image in a
    worker process: the model/profile parameters, the compiler knobs and the
    chip geometry.  Building is deterministic — two processes given the same
    spec produce identical compiled workloads.

    Builders:

    * ``"model"`` — QAT-train a model-zoo network (``model``/``lhr``/
      ``qat_epochs``) and compile it (mirrors ``benchmarks/common.py``);
    * ``"synthetic"`` — random Laplace-code operators, no training; used by
      tests and examples where compile cost must stay in milliseconds.
    """

    builder: str = "model"
    #: model-zoo name ("resnet18", "vit", ...) for the "model" builder.
    model: str = "resnet18"
    lhr: bool = True                       #: LHR-regularized QAT (lambda=2.0)?
    wds_delta: Optional[int] = 16          #: WDS shift; None disables WDS.
    mapping: str = "hr_aware"              #: task-mapping strategy.
    mode: str = "low_power"                #: mapping-evaluator objective.
    bits: int = 8
    max_tasks_per_operator: Optional[int] = 2
    qat_epochs: int = 2
    qat_learning_rate: float = 3e-3
    attention_seq_len: int = 16
    #: chip geometry (``small_chip_config`` arguments).
    groups: int = 8
    macros_per_group: int = 2
    banks: int = 4
    rows: int = 32
    compile_seed: int = 0
    #: "synthetic" builder: number of operators and their Laplace spread.
    n_operators: int = 4
    code_spread: float = 20.0
    #: "synthetic" builder: rows per operator (defaults to the chip's macro
    #: rows).  Larger values tile one operator across several macros, creating
    #: multi-macro logical Sets whose recompute stalls propagate — and, when
    #: the tile count does not divide the group size, Sets that straddle group
    #: boundaries (the engine's coupled-group path).
    operator_rows: Optional[int] = None
    #: display name; auto-derived when empty.
    label: str = ""

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        wds = f"wds{self.wds_delta}" if self.wds_delta is not None else "nowds"
        lhr = "lhr" if self.lhr else "base"
        return f"{self.model}:{lhr}+{wds}:{self.mapping}"


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved simulation: a grid point plus one ensemble seed.

    ``point_key`` identifies the grid point (everything except the seed) as a
    canonical tuple of ``(axis, value)`` pairs; records of the same point are
    aggregated together across the seed ensemble.  It captures the *complete*
    run identity — including ``recompute_cycles`` and a fingerprint of every
    :class:`WorkloadSpec` field — so resuming a sweep whose spec was edited in
    any way that changes simulation outcomes is detected and rejected, not
    silently satisfied by stale records.
    """

    run_id: str
    point_index: int
    seed_index: int
    seed: int                              #: RuntimeConfig.seed for this run.
    workload: WorkloadSpec
    controller: str
    mode: str
    beta: int
    cycles: int
    recompute_cycles: int = 12
    flip_mean: float = 0.6
    flip_std: float = 0.15
    flip_correlation: float = 0.7
    monitor_noise: float = 0.003
    #: result materialization (``RuntimeConfig.traces``).  Sweeps default to
    #: the scalar fast path — records hold only scalar metrics, so the
    #: trace-free run returns the same records while skipping every trace
    #: gather.  Deliberately *not* part of ``point_key``: it changes how
    #: results materialize, not what they are.
    traces: str = "none"

    @property
    def point_key(self) -> Tuple[Tuple[str, object], ...]:
        return (
            ("workload", self.workload.name),
            ("workload_config", workload_fingerprint(self.workload)),
            ("controller", self.controller),
            ("mode", self.mode),
            ("beta", self.beta),
            ("cycles", self.cycles),
            ("recompute_cycles", self.recompute_cycles),
            ("flip_mean", self.flip_mean),
            ("flip_std", self.flip_std),
            ("flip_correlation", self.flip_correlation),
            ("monitor_noise", self.monitor_noise),
        )

    def runtime_config(self):
        """The :class:`~repro.sim.runtime.RuntimeConfig` this run simulates."""
        from ..sim.runtime import RuntimeConfig
        return RuntimeConfig(
            cycles=self.cycles, controller=self.controller, mode=self.mode,
            beta=self.beta, recompute_cycles=self.recompute_cycles,
            flip_mean=self.flip_mean, flip_std=self.flip_std,
            flip_correlation=self.flip_correlation,
            monitor_noise=self.monitor_noise, seed=self.seed,
            traces=self.traces)


@dataclass(frozen=True)
class EnsembleSpec:
    """A batch of :class:`RunSpec`s resolved in one ensemble-engine pass.

    The runner's work unit for batched execution
    (:func:`~repro.sweep.runner.execute_ensemble`): all member runs share
    the compiled workload and the activity-stacking axes
    (:data:`~repro.sim.ensemble.ENSEMBLE_SHARED_FIELDS`), which is exactly
    what :func:`group_into_ensembles` guarantees.  Members typically form a
    grid point's seed ensemble, or — under ``seed_mode="shared"`` — a
    shared-seed beta/controller grid slice.  Records stay per member
    (bit-identical to per-run execution), so resume, retry supervision and
    failure quarantine all keep their per-run granularity.

    Duck-typed like a :class:`RunSpec` where the executors care: ``run_id``
    labels the batch in timeout/quarantine reporting and ``workload`` drives
    the pool's chunk planning, so a whole ensemble always lands on one
    worker with its chip image.
    """

    runs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("an EnsembleSpec needs at least one member run")
        first = self.runs[0]
        for run in self.runs:
            if batch_key(run) != batch_key(first):
                raise ValueError(
                    "ensemble members must share the workload and activity "
                    f"axes: {run.run_id} does not batch with {first.run_id}")

    @property
    def workload(self) -> WorkloadSpec:
        return self.runs[0].workload

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def run_id(self) -> str:
        first = self.runs[0].run_id
        if len(self.runs) == 1:
            return first
        return f"{first}(+{len(self.runs) - 1})"


def batch_key(run: RunSpec) -> Tuple:
    """Everything two runs must share to execute in one ensemble batch:
    the workload identity plus the activity-stacking axes (the sweep-level
    mirror of :data:`repro.sim.ensemble.ENSEMBLE_SHARED_FIELDS`;
    ``input_determined_hr`` is not a sweep axis)."""
    return (workload_fingerprint(run.workload), run.cycles, run.flip_mean,
            run.flip_std, run.flip_correlation)


def group_into_ensembles(runs: List[RunSpec],
                         max_members: int = 16) -> List[EnsembleSpec]:
    """Group runs into :class:`EnsembleSpec` batches of compatible members.

    Grouping is by :func:`batch_key` (workload + activity axes), preserving
    expansion order within each batch and capping batches at ``max_members``
    (bounding the stacked activity/physics working set).  A partial sweep —
    resume leaves arbitrary subsets pending — simply yields smaller batches;
    singletons are valid ensembles.
    """
    if max_members < 1:
        raise ValueError("max_members must be positive")
    by_key: Dict[Tuple, List[RunSpec]] = {}
    order: List[Tuple] = []
    for run in runs:
        key = batch_key(run)
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(run)
    ensembles: List[EnsembleSpec] = []
    for key in order:
        members = by_key[key]
        for start in range(0, len(members), max_members):
            ensembles.append(EnsembleSpec(
                runs=tuple(members[start:start + max_members])))
    return ensembles


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian sweep grid plus a seed ensemble.

    The grid is the product ``workloads x controllers x modes x betas x
    flip_means x flip_stds x flip_correlations x monitor_noises``; every grid
    point is simulated ``seeds`` times with :func:`run_seed`-derived seeds.
    ``expand()`` returns the runs in a deterministic order (itertools.product
    order, seeds innermost), but nothing downstream depends on that order.
    """

    name: str = "sweep"
    workloads: Tuple[WorkloadSpec, ...] = (WorkloadSpec(),)
    controllers: Tuple[str, ...] = ("booster",)
    modes: Tuple[str, ...] = ("low_power",)
    betas: Tuple[int, ...] = (50,)
    cycles: int = 2000
    recompute_cycles: int = 12
    #: stress axes: activity statistics and monitor sensing noise.
    flip_means: Tuple[float, ...] = (0.6,)
    flip_stds: Tuple[float, ...] = (0.15,)
    flip_correlations: Tuple[float, ...] = (0.7,)
    monitor_noises: Tuple[float, ...] = (0.003,)
    #: seed-ensemble size per grid point and the sweep's master seed.
    seeds: int = 1
    master_seed: int = 0
    #: result materialization for every run (``RuntimeConfig.traces``);
    #: ``"none"`` (default) is the scalar-record fast path — sweep records
    #: are scalar-only, so nothing is lost and every trace gather is
    #: skipped.  ``"full"`` also gathers the traces; its records are
    #: exactly the same.
    traces: str = "none"
    #: seed derivation: "per_point" (default — every run draws an independent
    #: seed from its grid coordinates) or "shared" (common random numbers —
    #: every grid point's k-th ensemble run uses the same seed, so points
    #: differ only in configuration).  Shared seeds reduce the variance of
    #: cross-point comparisons (e.g. the Fig. 18 beta trade-off) and let the
    #: engine's process-level level cache (:mod:`repro.sim.level_cache`) reuse
    #: the per-(group, level) physics across every point of the grid — and,
    #: under ``PoolExecutor(shared_cache_dir=...)``, across every *worker* of
    #: a pool fleet through the on-disk store
    #: (:mod:`repro.sim.shared_store`).  The paper-figure harnesses (Fig. 18,
    #: Fig. 19-20) run shared since PR 4.
    seed_mode: str = "per_point"

    def __post_init__(self) -> None:
        if self.seeds <= 0:
            raise ValueError("seeds must be a positive ensemble size")
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.seed_mode not in ("per_point", "shared"):
            raise ValueError(f"unknown seed_mode {self.seed_mode!r}; "
                             "expected 'per_point' or 'shared'")
        if self.traces not in ("full", "none"):
            raise ValueError(f"unknown traces mode {self.traces!r}; "
                             "expected 'full' or 'none'")

    @property
    def n_points(self) -> int:
        return (len(self.workloads) * len(self.controllers) * len(self.modes)
                * len(self.betas) * len(self.flip_means) * len(self.flip_stds)
                * len(self.flip_correlations) * len(self.monitor_noises))

    @property
    def n_runs(self) -> int:
        return self.n_points * self.seeds

    def expand(self) -> List[RunSpec]:
        """Expand the grid into :class:`RunSpec`s (one per point per seed)."""
        runs: List[RunSpec] = []
        grid = itertools.product(
            self.workloads, self.controllers, self.modes, self.betas,
            self.flip_means, self.flip_stds, self.flip_correlations,
            self.monitor_noises)
        shared = self.seed_mode == "shared"
        for point_index, (workload, controller, mode, beta, flip_mean,
                          flip_std, flip_correlation, monitor_noise) in enumerate(grid):
            for seed_index in range(self.seeds):
                runs.append(RunSpec(
                    run_id=f"{self.name}/p{point_index:04d}/s{seed_index:03d}",
                    point_index=point_index, seed_index=seed_index,
                    seed=(ensemble_seed(self.master_seed, seed_index) if shared
                          else run_seed(self.master_seed, point_index, seed_index)),
                    workload=workload, controller=controller, mode=mode,
                    beta=beta, cycles=self.cycles,
                    recompute_cycles=self.recompute_cycles,
                    flip_mean=flip_mean, flip_std=flip_std,
                    flip_correlation=flip_correlation,
                    monitor_noise=monitor_noise, traces=self.traces))
        return runs

    def to_json_dict(self) -> Dict:
        """JSON-serializable description (persisted alongside the records)."""
        return {
            "name": self.name,
            "workloads": [vars_of(w) for w in self.workloads],
            "controllers": list(self.controllers),
            "modes": list(self.modes),
            "betas": list(self.betas),
            "cycles": self.cycles,
            "recompute_cycles": self.recompute_cycles,
            "flip_means": list(self.flip_means),
            "flip_stds": list(self.flip_stds),
            "flip_correlations": list(self.flip_correlations),
            "monitor_noises": list(self.monitor_noises),
            "seeds": self.seeds,
            "master_seed": self.master_seed,
            "seed_mode": self.seed_mode,
            "traces": self.traces,
        }

    @classmethod
    def from_json_dict(cls, data: Dict) -> "SweepSpec":
        workloads = tuple(WorkloadSpec(**w) for w in data["workloads"])
        return cls(
            name=data["name"], workloads=workloads,
            controllers=tuple(data["controllers"]), modes=tuple(data["modes"]),
            betas=tuple(int(b) for b in data["betas"]), cycles=int(data["cycles"]),
            recompute_cycles=int(data["recompute_cycles"]),
            flip_means=tuple(data["flip_means"]),
            flip_stds=tuple(data["flip_stds"]),
            flip_correlations=tuple(data["flip_correlations"]),
            monitor_noises=tuple(data["monitor_noises"]),
            seeds=int(data["seeds"]), master_seed=int(data["master_seed"]),
            seed_mode=data.get("seed_mode", "per_point"),
            traces=data.get("traces", "none"))


def vars_of(spec: WorkloadSpec) -> Dict:
    """``dataclasses.asdict`` without the deep copies (all fields are scalars)."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def workload_fingerprint(spec: WorkloadSpec) -> str:
    """Canonical string over every field of a :class:`WorkloadSpec`.

    Stored in each record's ``point_key`` so a resumed sweep whose workload
    definition changed (even under an unchanged ``label``) is rejected.
    ``repr`` round-trips floats exactly, so the fingerprint is stable across
    processes and JSON serialization.
    """
    return "|".join(f"{name}={value!r}"
                    for name, value in sorted(vars_of(spec).items()))
