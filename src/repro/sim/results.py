"""Result containers produced by the cycle-level simulation.

These are plain dataclasses so that benchmarks, tests and EXPERIMENTS.md can
consume them without knowing anything about the runtime internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..power.energy import EnergyBreakdown

__all__ = ["MacroResult", "GroupResult", "SimulationResult", "assemble_result",
           "attach_traces"]


@dataclass
class MacroResult:
    """Per-macro statistics for one simulation run.

    The scalar statistics are always set.  The per-cycle traces are set
    when the run materialized them (the reference engine, or
    ``RuntimeConfig.traces == "full"``) and are ``None`` otherwise.
    """

    macro_index: int
    group_id: int
    task_id: Optional[int]
    hamming_rate: float
    energy: EnergyBreakdown
    failures: int
    stall_cycles: int
    rtog_peak: float
    rtog_mean: float
    drop_peak: float                   #: volts
    drop_mean: float                   #: volts
    rtog_trace: Optional[np.ndarray] = None   #: per-cycle realized Rtog
    drop_trace: Optional[np.ndarray] = None   #: per-cycle IR-drop in volts

    @property
    def peak_rtog(self) -> float:
        return self.rtog_peak

    @property
    def mean_rtog(self) -> float:
        return self.rtog_mean

    @property
    def worst_drop(self) -> float:
        return self.drop_peak

    @property
    def mean_drop(self) -> float:
        return self.drop_mean

    @property
    def average_power_mw(self) -> float:
        return self.energy.average_power_mw


@dataclass
class GroupResult:
    """Per-group statistics: levels visited, failures, final state.

    ``level_trace`` is set alongside the macros' traces, and is ``None``
    otherwise; ``level_mean`` is always set.
    """

    group_id: int
    safe_level: int
    final_level: int
    failures: int
    level_mean: float
    level_trace: Optional[np.ndarray] = None

    @property
    def mean_level(self) -> float:
        return self.level_mean


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run."""

    controller: str                     #: "dvfs", "booster" or "booster_safe"
    mode: str                           #: "sprint" or "low_power"
    cycles: int
    macro_results: List[MacroResult] = field(default_factory=list)
    group_results: List[GroupResult] = field(default_factory=list)
    #: per-cycle worst macro drop; set alongside the macros' traces.
    chip_drop_trace: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # chip-level aggregates
    # ------------------------------------------------------------------ #
    @property
    def worst_ir_drop(self) -> float:
        """Worst macro IR-drop seen anywhere during the run (volts)."""
        drops = [m.worst_drop for m in self.macro_results]
        return float(max(drops)) if drops else 0.0

    @property
    def mean_ir_drop(self) -> float:
        drops = [m.mean_drop for m in self.macro_results]
        return float(np.mean(drops)) if drops else 0.0

    @property
    def average_macro_power_mw(self) -> float:
        """Mean per-macro power in mW over macros that carried work."""
        powers = [m.average_power_mw for m in self.macro_results if m.task_id is not None]
        return float(np.mean(powers)) if powers else 0.0

    @property
    def effective_tops(self) -> float:
        """Chip throughput after stalls/recomputes (sum of macro throughputs)."""
        return float(sum(m.energy.effective_tops for m in self.macro_results))

    @property
    def total_failures(self) -> int:
        return int(sum(m.failures for m in self.macro_results))

    @property
    def total_stall_cycles(self) -> int:
        return int(sum(m.stall_cycles for m in self.macro_results))

    @property
    def total_energy(self) -> float:
        return float(sum(m.energy.total_energy for m in self.macro_results))

    @property
    def energy_efficiency_tops_per_watt(self) -> float:
        total_power = sum(m.energy.average_power for m in self.macro_results
                          if m.task_id is not None)
        if total_power <= 0:
            return 0.0
        return self.effective_tops / total_power

    def mitigation_vs(self, baseline: "SimulationResult") -> float:
        """Fractional IR-drop mitigation relative to a baseline run."""
        if baseline.worst_ir_drop <= 0:
            return 0.0
        return (baseline.worst_ir_drop - self.worst_ir_drop) / baseline.worst_ir_drop

    def speedup_vs(self, baseline: "SimulationResult") -> float:
        if baseline.effective_tops <= 0:
            return 0.0
        return self.effective_tops / baseline.effective_tops

    def efficiency_gain_vs(self, baseline: "SimulationResult") -> float:
        """Energy-efficiency improvement factor (per-macro mW, lower is better)."""
        if self.average_macro_power_mw <= 0:
            return 0.0
        return baseline.average_macro_power_mw / self.average_macro_power_mw


def assemble_result(compiled, config, energy: Dict[int, EnergyBreakdown],
                    drop_mean: Dict[int, float], drop_peak: Dict[int, float],
                    rtog_mean: Dict[int, float], rtog_peak: Dict[int, float],
                    failures: Dict[int, int], stall_total: Dict[int, int],
                    group_level_means: Dict[int, float], controller,
                    group_members: Dict[int, List[int]]
                    ) -> "SimulationResult":
    """Build a :class:`SimulationResult` from per-macro and per-group scalar
    accumulators, with every trace field ``None``.

    Shared by both simulation engines; a run that materializes traces adds
    them with :func:`attach_traces`.  Groups appear in
    ``group_level_means`` order; ``group_members`` maps a group id to its
    loaded macro indices and tallies the DVFS baseline's per-group
    failures.
    """
    chip_cfg = compiled.chip_config
    macro_task = {m: t for t, m in compiled.mapping.assignment.items()}
    macro_results: List[MacroResult] = []
    for macro_index in sorted(energy):
        gid, _ = chip_cfg.macro_location(macro_index)
        task_id = macro_task.get(macro_index)
        hr = compiled.tasks[task_id].hamming_rate if task_id is not None else 0.0
        macro_results.append(MacroResult(
            macro_index=macro_index, group_id=gid, task_id=task_id,
            hamming_rate=hr, energy=energy[macro_index],
            failures=failures[macro_index],
            stall_cycles=stall_total[macro_index],
            rtog_peak=float(rtog_peak[macro_index]),
            rtog_mean=float(rtog_mean[macro_index]),
            drop_peak=float(drop_peak[macro_index]),
            drop_mean=float(drop_mean[macro_index])))

    group_results: List[GroupResult] = []
    for gid in group_level_means:
        if controller is not None:
            state = controller.state(gid)
            safe = state.safe_level
            final = state.level
            group_fail = state.failures
        else:
            safe = 100
            final = 100
            group_fail = sum(failures[m] for m in group_members.get(gid, ()))
        group_results.append(GroupResult(
            group_id=gid, safe_level=safe, final_level=final,
            failures=group_fail, level_mean=float(group_level_means[gid])))

    return SimulationResult(
        controller=config.controller, mode=config.mode, cycles=config.cycles,
        macro_results=macro_results, group_results=group_results)


def attach_traces(result: SimulationResult, rtog: Dict[int, np.ndarray],
                  drop: Dict[int, np.ndarray], levels: Dict[int, np.ndarray],
                  chip_drop: np.ndarray) -> SimulationResult:
    """Set ``result``'s per-cycle traces in place and return it: each
    macro's Rtog and drop trace, each group's level trace (keyed by macro
    index and group id) and the chip-wide worst drop."""
    for macro in result.macro_results:
        macro.rtog_trace = rtog[macro.macro_index]
        macro.drop_trace = drop[macro.macro_index]
    for group in result.group_results:
        group.level_trace = levels[group.group_id]
    result.chip_drop_trace = chip_drop
    return result
