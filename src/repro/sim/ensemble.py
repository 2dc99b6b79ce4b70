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
* **physics** — a member whose levels never change (``dvfs``,
  ``booster_safe``) gets its one level per group built up front,
  *directly*: for independent groups one full-matrix monitor compare per
  (group, level) plus one transposed ``nonzero`` per Set yields the packed
  key streams already in merge order, and the per-row candidates from the
  same mask (:meth:`~repro.sim.engine._VectorizedEngine._prebuild_streams`).
  A ``booster`` member's span groups prebuild nothing: the span kernel binds
  every level it visits, its safe level included, as a candidate byte mask
  that grows over expanding cycle windows and that the level cache shares
  across runs (:class:`~repro.sim.engine._LazyLevelStreams`).  Groups under
  the heap scheduler go through the full cache derivation of their initial
  level, and of a ``booster`` member's safe level (the heap scheduler
  bisects per-row cycle lists).
* **events** — members whose level never changes (``dvfs``,
  ``booster_safe``) resolve each group through the *runs-axis* timeline
  kernels (:func:`~repro.sim.kernels.select_failures_runs`, re-armed via
  :func:`~repro.sim.kernels.resume_frontiers_runs`): one call selects every
  member's failure timeline for a Set.  ``booster`` members keep their
  per-member span kernel (Algorithm-2 state is inherently sequential per
  run) but run group-major so each group's shared structures stay hot.
  Set-coupled groups, and a ``booster`` group with more Sets than a mask
  byte codes, run each member's heap scheduler.

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
from .kernels import (
    EXHAUSTED_KEY,
    frontier_key,
    resume_frontiers_runs,
    select_failures_runs,
)
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
    """Derive every member's certain-to-visit level entries up front.

    A member whose levels never change gets each group's one level: an
    independent group's streams are built directly (``_prebuild_streams``:
    keys land pre-sorted, bit-identical to the merge), a heap group takes
    the full ``_cache`` derivation.  A stepping (``booster``) member's heap
    groups take ``_cache`` of their initial and safe levels, the levels the
    heap scheduler is certain to visit (every IRFailure lands on safe); its
    span groups prebuild nothing, since the span kernel binds every level
    it visits as a candidate mask.  Every entry lands in the engine's
    private memo, so the batch is immune to shared-cache eviction pressure.
    """
    for engine in engines:
        heap = set(engine.heap_groups)
        for gid in engine.groups:
            level = engine.level[gid]
            if gid in heap:
                engine._cache(gid, level)
                if engine.stepping:
                    engine._cache(
                        gid, engine.controller.state(gid).safe_level)
            elif not engine.stepping:
                engine._prebuild_streams(gid, level)


# ---------------------------------------------------------------------- #
# batched events
# ---------------------------------------------------------------------- #
def _run_group_kernel_runs(members: List[_VectorizedEngine],
                           gid: int) -> None:
    """Closed-form timeline of one no-level-change group for every member.

    ``dvfs`` and ``booster_safe`` groups never change level, so each
    logical Set's whole failure timeline is one greedy min-gap selection
    over its merged candidate stream (see :mod:`repro.sim.kernels`).  Every
    member's timeline for each Set is resolved in one
    :func:`select_failures_runs` call over the members' candidate streams;
    :func:`resume_frontiers_runs` pre-peeks the batch so exhausted members
    skip selection.  Per-member decoding goes through the engine's own
    ``_apply_set_selection``, which logs failures and stall windows as
    array chunks.
    """
    first = members[0]
    set_arrays = first._group_sets(gid)
    shift = first.row_shift
    last_cycles = [-1] * len(members)
    for s, set_rows in enumerate(set_arrays):
        streams = [engine.cur_cache[gid].merged[s] for engine in members]
        frontiers = [frontier_key(engine.scan_from[gid], -1, shift)
                     for engine in members]
        next_keys, _ = resume_frontiers_runs(streams, frontiers)
        live = [i for i, key in enumerate(next_keys) if key < EXHAUSTED_KEY]
        if not live:
            continue
        outs, _ = select_failures_runs(
            [streams[i] for i in live],
            [members[i].n for i in live],
            [members[i].cfg.recompute_cycles for i in live],
            [frontiers[i] for i in live])
        for i, out in zip(live, outs):
            f = members[i]._apply_set_selection(set_rows, out)
            if f > last_cycles[i]:
                last_cycles[i] = f
    for i, engine in enumerate(members):
        if last_cycles[i] >= 0:
            engine.scan_from[gid] = last_cycles[i] + 1


def _run_events_batch(engines: List[_VectorizedEngine]) -> None:
    """Event processing for the whole batch: independent groups through the
    timeline kernels (runs-axis for no-level-change members, the span
    kernel per ``booster`` member), heap groups through each member's heap
    scheduler, then the final controller flush."""
    flat = [engine for engine in engines if not engine.stepping]
    stepping = [engine for engine in engines if engine.stepping]
    if flat:
        for gid in flat[0].independent_groups:
            _run_group_kernel_runs(flat, gid)
    if stepping:
        # Group-major: each group's shared Set structures and candidate
        # masks stay hot across the per-member span kernels.
        for gid in stepping[0].span_groups:
            for engine in stepping:
                engine._run_group_span_kernel(gid)
    for engine in engines:
        if engine.heap_groups:
            engine._run_events_heap(engine.heap_groups)
        engine._finish_events()
