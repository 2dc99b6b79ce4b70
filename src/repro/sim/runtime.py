"""Cycle-level runtime: executes a compiled workload under a power controller.

This is the reproduction of the paper's inference phase (Sec. 5.2.2, 5.5.2):

* every loaded macro produces a per-cycle realized Rtog — its (post-WDS) weight
  HR modulated by a temporally correlated input flip factor (input-determined
  operators use an unknown-in-advance ~50 % HR);
* each macro group runs at the V-f pair chosen by the active controller:
  the DVFS baseline (always the 100 % signoff level), IR-Booster restricted to
  its software safe level, or the full IR-Booster with Algorithm-2 aggressive
  adjustment driven by the IR monitors;
* a macro whose IR-drop exceeds the drop its current level was signed off for
  raises IRFailure: the Booster Controller drops the group back to its safe
  level and the macro — plus every other macro of the same logical Set — stalls
  for a recompute window (Fig. 11);
* per-cycle energy, useful MACs and IR-drop are accumulated into
  :class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from ..core.ir_booster import BoosterMode, IRBoosterController
from ..power.energy import EnergyBreakdown, EnergyModel
from ..power.ir_drop import IRDropModel
from ..power.monitor import IRMonitor
from ..power.vf_table import VFPair, VFTable
from ..workloads.generator import flip_factor_matrix
from .compiler import CompiledWorkload
from .engine import ENGINES, run_vectorized
from .results import SimulationResult, assemble_result, attach_traces

__all__ = ["RuntimeConfig", "PIMRuntime", "simulate", "CONTROLLERS",
           "ENGINES", "TRACE_MODES"]

#: Available power-control strategies.
CONTROLLERS = ("dvfs", "booster_safe", "booster")

#: Result materialization modes (``RuntimeConfig.traces``).
TRACE_MODES = ("full", "none")


@dataclass
class RuntimeConfig:
    """Parameters of one simulation run.

    All randomness (activity streams, monitor sensing noise) derives from
    ``seed`` alone, so two runs with equal configs are bit-identical — on
    either engine, in any process.  The sweep runner
    (:mod:`repro.sweep`) builds these from declarative grid points.

    Units: one *cycle* is one macro wave slot at the group's current
    frequency; voltages are volts, frequencies GHz, IR-drops volts.
    """

    #: simulation horizon in cycles (every loaded macro sees all of them).
    cycles: int = 2000
    #: power-control strategy, one of :data:`CONTROLLERS`: ``"dvfs"`` (always
    #: the 100 % signoff level), ``"booster_safe"`` (IR-Booster pinned to the
    #: software safe level) or ``"booster"`` (full Algorithm-2 adjustment).
    controller: str = "booster"
    #: V-f pair preference per level: "sprint" (max frequency) or "low_power"
    #: (min voltage) — Sec. 5.5.1.
    mode: str = BoosterMode.LOW_POWER
    #: Algorithm-2 safe-window length in cycles: failure-free cycles required
    #: before re-entering the aggressive level (Fig. 18 sweeps this).
    beta: int = 50
    #: stall per IRFailure in cycles (V-f switch + redo wave, Fig. 11); the
    #: whole logical Set of the failing macro stalls for this window.
    recompute_cycles: int = 12
    #: stationary mean of the AR(1) input flip factor (fraction, 0-1).
    flip_mean: float = 0.6
    #: stationary standard deviation of the flip factor.
    flip_std: float = 0.15
    #: lag-1 autocorrelation of the flip factor in [0, 1).
    flip_correlation: float = 0.7
    #: std-dev (volts) of the IR monitors' per-sample sensing noise.
    monitor_noise: float = 0.003
    #: HR assumed for runtime-generated in-memory data (QK^T / SV), ~50 %.
    input_determined_hr: float = 0.5
    #: master seed of the run; every macro/monitor stream derives from it.
    seed: int = 0
    #: one of :data:`~repro.sim.engine.ENGINES` — "vectorized" (default) or
    #: the original "reference" loop kept as the behavioural oracle.
    engine: str = "vectorized"
    #: result materialization, one of :data:`TRACE_MODES`.  The vectorized
    #: engine always computes the scalar fields (failures, stalls, mean/worst
    #: drop, the full energy breakdown) closed-form per level-stable span.
    #: ``"full"`` (default) also gathers every per-cycle trace; ``"none"``
    #: is the scalar-record fast path, which skips the trace gathers and
    #: leaves every trace field ``None``.  Both modes give exactly the same
    #: scalars.  Sweeps default to ``"none"`` since records are scalar-only.
    #: The reference engine ignores this field (it is the behavioural
    #: oracle and always materializes traces).
    traces: str = "full"

    def validate(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}; known: {CONTROLLERS}")
        if self.mode not in (BoosterMode.SPRINT, BoosterMode.LOW_POWER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cycles <= 0 or self.beta <= 0 or self.recompute_cycles < 0:
            raise ValueError("cycles and beta must be positive; recompute_cycles >= 0")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; known: {ENGINES}")
        if self.traces not in TRACE_MODES:
            raise ValueError(f"unknown traces mode {self.traces!r}; "
                             f"known: {TRACE_MODES}")


@lru_cache(maxsize=64)
def _default_table(nominal_voltage: float, nominal_frequency: float,
                   signoff_ir_drop: float) -> VFTable:
    """The default V-f table of a chip operating point, built once per
    process: a table is immutable after construction (its neighbour-level
    memos are pure), so every run of one chip can share it."""
    return VFTable(nominal_voltage=nominal_voltage,
                   nominal_frequency=nominal_frequency,
                   signoff_ir_drop=signoff_ir_drop)


class PIMRuntime:
    """Drives a :class:`CompiledWorkload` cycle by cycle under a controller.

    The V-f table, IR-drop model and energy model default to the compiled
    workload's chip configuration (nominal 0.75 V / 1 GHz, 140 mV signoff
    drop on the paper's reference chip); pass explicit instances to explore
    other operating corners.  Default runtimes of one chip operating point
    share one table.
    """

    def __init__(self, compiled: CompiledWorkload, config: Optional[RuntimeConfig] = None,
                 table: Optional[VFTable] = None,
                 ir_model: Optional[IRDropModel] = None,
                 energy_model: Optional[EnergyModel] = None) -> None:
        config = config or RuntimeConfig()
        config.validate()
        self.compiled = compiled
        self.config = config
        chip_cfg = compiled.chip_config
        self.table = table or _default_table(
            chip_cfg.nominal_voltage, chip_cfg.nominal_frequency,
            chip_cfg.signoff_ir_drop)
        self.ir_model = ir_model or IRDropModel(
            supply_voltage=chip_cfg.nominal_voltage,
            signoff_drop=chip_cfg.signoff_ir_drop,
            nominal_frequency=chip_cfg.nominal_frequency)
        self.energy_model = energy_model or EnergyModel(
            nominal_voltage=chip_cfg.nominal_voltage,
            nominal_frequency=chip_cfg.nominal_frequency)

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #
    def _activity_inputs(self) -> tuple:
        """``(macro_indices, seeds, hrs)`` driving the activity traces.

        The per-macro flip seeds (``seed + 17 * (macro_index + 1)``) and
        effective HRs in assignment order — shared between
        :meth:`_macro_activity_traces` and the ensemble engine's batched
        cross-run activity generation (:mod:`repro.sim.ensemble`).
        """
        rng_base = self.config.seed
        macro_indices: List[int] = []
        seeds: List[int] = []
        hrs: List[float] = []
        for task_id, macro_index in self.compiled.mapping.assignment.items():
            task = self.compiled.tasks[task_id]
            macro_indices.append(macro_index)
            seeds.append(rng_base + 17 * (macro_index + 1))
            hrs.append(self.config.input_determined_hr
                       if task.input_determined else task.hamming_rate)
        return macro_indices, seeds, hrs

    def _macro_activity_traces(self) -> Dict[int, np.ndarray]:
        """Per-macro realized Rtog trace over the simulation horizon.

        All macros' AR(1) flip sequences are generated in one batched
        :func:`flip_factor_matrix` call (row ``i`` still consumes the same
        per-macro seeded stream as an individual ``flip_factor_sequence``).
        """
        macro_indices, seeds, hrs = self._activity_inputs()
        flips = flip_factor_matrix(
            seeds, self.config.cycles, mean=self.config.flip_mean,
            std=self.config.flip_std, correlation=self.config.flip_correlation)
        return {macro_index: np.clip(hr * flips[i], 0.0, 1.0)
                for i, (macro_index, hr) in enumerate(zip(macro_indices, hrs))}

    def _group_members(self, macro_indices: List[int]) -> Dict[int, List[int]]:
        """Group id -> loaded macro indices, in first-encounter order."""
        chip_cfg = self.compiled.chip_config
        members: Dict[int, List[int]] = {}
        for macro_index in macro_indices:
            gid, _ = chip_cfg.macro_location(macro_index)
            members.setdefault(gid, []).append(macro_index)
        return members

    def _logical_sets(self) -> tuple:
        """(macro -> set id, set id -> member macros): the recompute domains."""
        macro_set: Dict[int, int] = {}
        set_members: Dict[int, List[int]] = {}
        for task_id, macro_index in self.compiled.mapping.assignment.items():
            set_id = self.compiled.tasks[task_id].set_id
            macro_set[macro_index] = set_id
            set_members.setdefault(set_id, []).append(macro_index)
        return macro_set, set_members

    def _macs_per_cycle(self) -> Dict[int, float]:
        """Useful MACs a macro completes per unstalled cycle (bit-serial)."""
        macs: Dict[int, float] = {}
        for task_id, macro_index in self.compiled.mapping.assignment.items():
            task = self.compiled.tasks[task_id]
            macs[macro_index] = task.macs_per_wave / max(1, task.bits)
        return macs

    def _controller(self) -> Optional[IRBoosterController]:
        if self.config.controller == "dvfs":
            return None
        controller = IRBoosterController(self.table, beta=self.config.beta,
                                         mode=self.config.mode)
        for group_id in self.compiled.used_groups:
            controller.configure_group(
                group_id, self.compiled.group_hr[group_id],
                self.compiled.group_input_determined.get(group_id, False))
            if self.config.controller == "booster_safe":
                # Safe-only operation: pin the level to the safe level (used by
                # the ablation to isolate the software methods from Alg. 2).
                state = controller.state(group_id)
                state.a_level = state.safe_level
                state.level = state.safe_level
        return controller

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the configured engine and return the run's results.

        ``engine="vectorized"`` (default) runs the event-driven array engine of
        :mod:`repro.sim.engine`; ``engine="reference"`` runs the original
        cycle-by-cycle Python loop, kept as the behavioural oracle the
        vectorized engine is tested against.

        Equivalence guarantee: for equal configs the engines agree bit-for-bit
        on failures, stalls, drop/level/chip traces and Rtog activity; energy
        and mean drop agree to floating-point summation order (1e-9 rtol)
        because the vectorized engine closes them over level-stable spans.
        ``tests/test_sim_engine.py`` enforces this across all controllers,
        modes, seeds and stress settings.  The call is deterministic in
        ``config.seed`` and side-effect-free on the compiled workload, so runs
        can be distributed freely (see :mod:`repro.sweep`).
        """
        if self.config.engine == "vectorized":
            return run_vectorized(self)
        return self._run_reference()

    def _run_reference(self) -> SimulationResult:
        cfg = self.config
        activity = self._macro_activity_traces()
        controller = self._controller()
        # Monitors are internal to the run: per-sample reading capture stays
        # off so long horizons don't accumulate unreachable Python objects.
        monitors = {gid: IRMonitor(sensing_noise=cfg.monitor_noise, seed=cfg.seed + gid,
                                   record_readings=False)
                    for gid in self.compiled.used_groups}

        # Per-macro bookkeeping.
        macro_indices = sorted(activity)
        energy: Dict[int, EnergyBreakdown] = {m: EnergyBreakdown() for m in macro_indices}
        drop_traces: Dict[int, List[float]] = {m: [] for m in macro_indices}
        failures: Dict[int, int] = {m: 0 for m in macro_indices}
        stall_remaining: Dict[int, int] = {m: 0 for m in macro_indices}
        stall_total: Dict[int, int] = {m: 0 for m in macro_indices}
        level_traces: Dict[int, List[int]] = {gid: [] for gid in self.compiled.used_groups}
        chip_drop_trace: List[float] = []

        # Logical sets: macros computing tiles of the same operator.
        macro_set, set_members = self._logical_sets()
        macs_per_cycle = self._macs_per_cycle()
        group_members = self._group_members(macro_indices)

        for cycle in range(cfg.cycles):
            cycle_failures: Dict[int, bool] = {gid: False for gid in group_members}
            worst_drop_this_cycle = 0.0

            # Resolve each group's operating point for this cycle.
            group_pairs: Dict[int, VFPair] = {}
            for gid in group_members:
                if controller is None:
                    # The DVFS baseline is the signoff operating point: the
                    # 100 %-level pair at the nominal frequency (0.75 V / 1 GHz
                    # on the paper's reference chip).
                    pair = self.table.nominal_dvfs_pair()
                    level_traces[gid].append(100)
                else:
                    state = controller.state(gid)
                    level_traces[gid].append(state.level)
                    pair = controller.vf_pair(gid)
                group_pairs[gid] = pair

            # Evaluate every loaded macro.
            for gid, members in group_members.items():
                pair = group_pairs[gid]
                # A pair signed off for level L tolerates the drop that an
                # activity of L percent produces at its V/f — evaluated with the
                # same Eq.-2 model the macros see, so "rtog <= level" can never
                # raise a spurious IRFailure.
                allowed_drop = self.ir_model.drop(
                    min(pair.level, 100) / 100.0, pair.voltage, pair.frequency)
                for macro_index in members:
                    rtog_now = float(activity[macro_index][cycle])
                    drop = self.ir_model.drop(rtog_now, pair.voltage, pair.frequency)
                    drop_traces[macro_index].append(drop)
                    worst_drop_this_cycle = max(worst_drop_this_cycle, drop)

                    stalled = stall_remaining[macro_index] > 0
                    if stalled:
                        stall_remaining[macro_index] -= 1
                        stall_total[macro_index] += 1
                    else:
                        # IRFailure detection through the group's monitor.
                        effective_v = pair.voltage - drop
                        threshold_v = pair.voltage - allowed_drop
                        failed = monitors[gid].sample(cycle, effective_v, threshold_v)
                        if failed:
                            failures[macro_index] += 1
                            cycle_failures[gid] = True
                            # The whole logical Set stalls while this macro recomputes.
                            for member in set_members.get(macro_set[macro_index], []):
                                stall_remaining[member] = max(
                                    stall_remaining[member], cfg.recompute_cycles)
                            stalled = True

                    self.energy_model.accumulate_cycle(
                        energy[macro_index], pair.voltage, pair.frequency,
                        activity=rtog_now, macs_completed=macs_per_cycle[macro_index],
                        stalled=stalled)

            chip_drop_trace.append(worst_drop_this_cycle)

            # Advance Algorithm 2 once per group per cycle.
            if controller is not None and cfg.controller == "booster":
                for gid in group_members:
                    controller.step(gid, ir_failure=cycle_failures[gid])

        # The scalar statistics are reduced from the run's own traces.
        drops = {m: np.asarray(trace) for m, trace in drop_traces.items()}
        levels = {gid: np.asarray(trace) for gid, trace in level_traces.items()}
        result = assemble_result(
            self.compiled, cfg, energy,
            {m: float(trace.mean()) for m, trace in drops.items()},
            {m: float(trace.max()) for m, trace in drops.items()},
            {m: float(trace.mean()) for m, trace in activity.items()},
            {m: float(trace.max()) for m, trace in activity.items()},
            failures, stall_total,
            {gid: float(trace.mean()) for gid, trace in levels.items()},
            controller, group_members)
        return attach_traces(result, activity, drops, levels,
                             np.asarray(chip_drop_trace))


def simulate(compiled: CompiledWorkload, config: Optional[RuntimeConfig] = None,
             **kwargs) -> SimulationResult:
    """Convenience wrapper: build a :class:`PIMRuntime` and run it."""
    return PIMRuntime(compiled, config, **kwargs).run()

