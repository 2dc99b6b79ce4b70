"""Batch-of-runs ensemble engine: the one event flow of the vectorized engine.

A sweep grid point is simulated many times — once per seed of its ensemble,
or once per beta of a shared-seed grid — and every one of those runs repeats
work that is identical or near-identical across the batch: compiling nothing
new, but regenerating AR(1) flip streams, re-deriving per-(group, level)
Eq.-2 physics, rebuilding controller/monitor state, and walking the event
kernels one run at a time.  :func:`run_ensemble` executes all members of one
grid point together through :func:`run_engines`, which is also how a lone
run executes (:func:`~repro.sim.engine.run_vectorized` passes a batch of
one):

* **activity** — every member's per-macro flip streams are generated in a
  single :func:`~repro.workloads.generator.flip_factor_matrix` call over the
  concatenated seed list, in processing order, and each distinct activity
  key's block is clipped into its own ``(rows, cycles)`` activity matrix.
  The AR(1) recurrence is sequential in *cycles* but embarrassingly
  parallel in *rows*, so batching members into one ``lfilter`` call
  amortizes the dominant cold-run cost; row ``i`` still consumes exactly
  the per-seed RNG stream a lone run would, so traces stay bit-identical.
  Members sharing a seed (a beta grid) share one generation.
* **physics** — a span group binds every level it visits as a candidate
  byte mask that the level cache shares across runs
  (:class:`~repro.sim.engine._LazyLevelStreams`).  A member whose levels
  never change (``dvfs``, ``booster_safe``) gets each span group's one
  level's mask extended to the horizon in one window up front
  (:meth:`~repro.sim.engine._VectorizedEngine._prebuild_streams`); a
  ``booster`` member's span kernel grows each mask over expanding cycle
  windows as it reaches it.  Groups under the heap scheduler derive the
  per-member candidate cycles of their initial level, and of a
  ``booster`` member's safe level (the heap scheduler bisects per-row
  cycle lists).  No member keeps a drop matrix: a full-trace member
  evaluates Eq. 2 over its activity and level trace at materialization.
* **events** — every member runs each independent group through the one
  span kernel, group-major so each group's shared structures and masks
  stay hot; Algorithm-2 state is sequential per run, so the kernel runs
  per member.  Set-coupled groups, and a group with more Sets than a mask
  byte codes, run each member's heap scheduler.  The routing depends on
  the workload alone, so every member of a batch routes alike.

Equivalence contract: for every member, the returned
:class:`~repro.sim.results.SimulationResult` is *bit-identical in every
discrete field* (failures, stalls, level breaks, candidate selections) to
the reference loop (``engine="reference"``) with the same config, and float
reductions (energy, drop statistics) agree to 1e-9 rtol — enforced by the
oracle-chain differential tests (``tests/test_sim_engine.py``) — and a
member's result is the same whether it ran alone or batched.

Members may differ in ``seed``, ``beta``, ``controller``, ``mode``,
``monitor_noise``, ``recompute_cycles`` and ``traces``; they must share the
activity-stacking axes (``cycles`` and the flip statistics) and the
compiled workload.  The sweep runner groups eligible
:class:`~repro.sweep.spec.RunSpec`s into
:class:`~repro.sweep.spec.EnsembleSpec` work units per ``point_key`` family
(see :mod:`repro.sweep.runner`).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..workloads.generator import flip_factor_matrix
from .compiler import CompiledWorkload
from .engine import ActivityTraces, _VectorizedEngine
# The runs-axis kernels have no caller: every independent group runs the
# span kernel.  Both stay importable from this module only because
# e2ebench/tracer.py wraps them under this path.
from .kernels import resume_frontiers_runs, select_failures_runs  # noqa: F401
from .level_cache import LEVEL_CACHE
from .results import SimulationResult
from .runtime import PIMRuntime, RuntimeConfig

__all__ = ["run_ensemble", "ENSEMBLE_SHARED_FIELDS"]

#: ``RuntimeConfig`` fields every ensemble member must share — the axes the
#: batched activity generation stacks over.  Everything else (seed, beta,
#: controller, mode, monitor noise, recompute window, traces) may vary.
ENSEMBLE_SHARED_FIELDS = ("cycles", "flip_mean", "flip_std",
                          "flip_correlation", "input_determined_hr")


def run_ensemble(compiled: CompiledWorkload,
                 configs: List[RuntimeConfig], *,
                 table=None, ir_model=None,
                 energy_model=None) -> List[SimulationResult]:
    """Simulate every config of one grid point in a single batched pass.

    Returns one :class:`SimulationResult` per config, in order, each
    bit-identical (discrete fields; energy to 1e-9 rtol) to a lone
    ``PIMRuntime(compiled, cfg).run()``.  All configs must use the
    vectorized engine and agree on :data:`ENSEMBLE_SHARED_FIELDS`.
    """
    if not configs:
        return []
    base = configs[0]
    for cfg in configs:
        cfg.validate()
        if cfg.engine != "vectorized":
            raise ValueError(
                "run_ensemble requires engine='vectorized' members; "
                f"got {cfg.engine!r} (run reference members individually)")
        for name in ENSEMBLE_SHARED_FIELDS:
            if getattr(cfg, name) != getattr(base, name):
                raise ValueError(
                    f"ensemble members must share {name!r}: "
                    f"{getattr(cfg, name)!r} != {getattr(base, name)!r}")

    return run_engines([
        _VectorizedEngine(PIMRuntime(compiled, cfg, table=table,
                                     ir_model=ir_model,
                                     energy_model=energy_model))
        for cfg in configs])


def run_engines(engines: List[_VectorizedEngine]) -> List[SimulationResult]:
    """Drive fresh engines through the phases together and return their
    results in order: structure, batched activity, physics prebuild, initial
    binds, batched events, materialization.

    The one event flow of the vectorized engine: a lone run
    (:func:`~repro.sim.engine.run_vectorized`) passes a batch of one.
    Members must agree on :data:`ENSEMBLE_SHARED_FIELDS` and the compiled
    workload (:func:`run_ensemble` checks).
    """
    for engine in engines:
        engine._setup_structure()
    _batch_activity(engines)
    _prebuild_physics(engines)
    for engine in engines:
        engine._bind_caches()
    _run_events_batch(engines)
    return [engine.materialize() for engine in engines]


# ---------------------------------------------------------------------- #
# batched setup
# ---------------------------------------------------------------------- #
def _batch_activity(engines: List[_VectorizedEngine]) -> None:
    """Generate every member's activity in one flip-matrix call.

    Distinct activity keys (distinct seeds, typically) are concatenated
    into one seed list, each block in its owner's processing order, and
    each block is clipped into its owner's own ``(rows, cycles)`` matrix
    (so evicting a key frees its bytes); the per-macro traces cached under
    the key are row views of it (:class:`~repro.sim.engine.ActivityTraces`).
    Members sharing a key (a shared-seed beta grid) share one generation,
    even with the cache disabled.
    """
    pending: Dict[tuple, List[_VectorizedEngine]] = {}
    for engine in engines:
        traces = LEVEL_CACHE.get(engine._activity_key)
        if traces is not None:
            engine._bind_activity(traces)
        else:
            pending.setdefault(engine._activity_key, []).append(engine)
    if pending:
        seeds: List[int] = []
        hrs: List[float] = []
        for members in pending.values():
            member_seeds, member_hrs = members[0]._activity_rows()
            seeds.extend(member_seeds)
            hrs.extend(member_hrs)
        cfg = engines[0].cfg
        flips = flip_factor_matrix(
            seeds, cfg.cycles, mean=cfg.flip_mean, std=cfg.flip_std,
            correlation=cfg.flip_correlation)
        row_hrs = np.asarray(hrs)[:, None]
        lo = 0
        for key, members in pending.items():
            owner = members[0]
            hi = lo + owner.n_rows
            matrix = np.clip(row_hrs[lo:hi] * flips[lo:hi], 0.0, 1.0)
            matrix.setflags(write=False)
            lo = hi
            traces = ActivityTraces(owner.proc_order, matrix)
            LEVEL_CACHE.put(key, traces, matrix.nbytes)
            for engine in members:
                engine._bind_activity(traces)


def _prebuild_physics(engines: List[_VectorizedEngine]) -> None:
    """Derive every member's certain-to-visit levels up front.

    A heap group takes the ``_cache`` derivation of its initial level
    and, in a stepping (``booster``) member, of its safe level: the levels
    the heap scheduler is certain to visit (every IRFailure lands on safe).
    A member whose levels never change gets each span group's one level as
    a full-horizon candidate mask (``_prebuild_streams``); a ``booster``
    member's span groups prebuild nothing, since the span kernel binds
    every level it visits.  Every entry and mask lands in the engine's
    private memo, so the batch is immune to shared-cache eviction pressure.
    """
    for engine in engines:
        for gid in engine.heap_groups:
            engine._cache(gid, engine.level[gid])
            if engine.stepping:
                engine._cache(gid, engine.controller.state(gid).safe_level)
        if not engine.stepping:
            for gid in engine.span_groups:
                engine._prebuild_streams(gid, engine.level[gid])


# ---------------------------------------------------------------------- #
# batched events
# ---------------------------------------------------------------------- #
def _run_events_batch(engines: List[_VectorizedEngine]) -> None:
    """Event processing for the whole batch: every member's span kernel,
    group-major so each group's shared Set structures and candidate masks
    stay hot, then each member's heap scheduler and the final controller
    flush."""
    for gid in engines[0].span_groups if engines else ():
        for engine in engines:
            engine._run_group_span_kernel(gid)
    for engine in engines:
        if engine.heap_groups:
            engine._run_events_heap(engine.heap_groups)
        engine._finish_events()
