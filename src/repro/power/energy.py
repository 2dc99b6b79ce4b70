"""Energy, power and throughput accounting for the PIM chip.

The paper reports three hardware-facing metrics (Sec. 6.6, 6.8):

* per-macro power consumption in mW (energy-efficiency comparisons),
* effective computation power in TOPS after stalls/recomputes,
* overhead fractions of the added hardware (shift compensator, IR monitor).

The model is the standard architectural one: dynamic power follows
``C_eff * V^2 * f`` scaled by the activity (Rtog), static power follows a
leakage term proportional to ``V``; the constants are calibrated so a macro at
the nominal operating point and the signoff activity draws the paper's
~4.3 mW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyModel", "EnergyBreakdown", "OverheadReport"]


@dataclass
class EnergyBreakdown:
    """Energy/power totals accumulated over a simulation run."""

    dynamic_energy: float = 0.0       #: joules
    static_energy: float = 0.0        #: joules
    elapsed_time: float = 0.0         #: seconds
    completed_macs: float = 0.0       #: useful MAC operations

    @property
    def total_energy(self) -> float:
        return self.dynamic_energy + self.static_energy

    @property
    def average_power(self) -> float:
        """Watts averaged over the elapsed time."""
        if self.elapsed_time <= 0:
            return 0.0
        return self.total_energy / self.elapsed_time

    @property
    def average_power_mw(self) -> float:
        return self.average_power * 1e3

    @property
    def effective_tops(self) -> float:
        """Useful throughput (2 ops per MAC) discounted by stalls/recomputes."""
        if self.elapsed_time <= 0:
            return 0.0
        return 2.0 * self.completed_macs / self.elapsed_time / 1e12

    @property
    def energy_per_mac(self) -> float:
        if self.completed_macs <= 0:
            return 0.0
        return self.total_energy / self.completed_macs

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dynamic_energy=self.dynamic_energy + other.dynamic_energy,
            static_energy=self.static_energy + other.static_energy,
            elapsed_time=max(self.elapsed_time, other.elapsed_time),
            completed_macs=self.completed_macs + other.completed_macs,
        )


@dataclass
class OverheadReport:
    """Area/power overhead of the AIM hardware additions (paper Sec. 6.10.2)."""

    shift_compensator_area: float = 0.0018
    shift_compensator_power: float = 0.008
    ir_monitor_area: float = 0.001
    ir_monitor_power: float = 0.005
    controller_area: float = 0.0002     #: reuse of the existing RISC-V core
    controller_power: float = 0.001

    @property
    def total_area_fraction(self) -> float:
        return self.shift_compensator_area + self.ir_monitor_area + self.controller_area

    @property
    def total_power_fraction(self) -> float:
        return self.shift_compensator_power + self.ir_monitor_power + self.controller_power


class EnergyModel:
    """Per-macro power/energy model calibrated to the paper's reference design."""

    def __init__(self, nominal_voltage: float = 0.75, nominal_frequency: float = 1.0e9,
                 nominal_macro_power: float = 4.2978e-3, static_power_fraction: float = 0.12,
                 nominal_activity: float = 1.0) -> None:
        """``nominal_macro_power`` is the paper's baseline per-macro power (watts)."""
        self.nominal_voltage = nominal_voltage
        self.nominal_frequency = nominal_frequency
        self.static_power_fraction = static_power_fraction
        dynamic_nominal = nominal_macro_power * (1.0 - static_power_fraction)
        static_nominal = nominal_macro_power * static_power_fraction
        # P_dyn = k_dyn * activity * V^2 * f  ;  P_static = k_static * V
        self._k_dynamic = dynamic_nominal / (
            nominal_activity * nominal_voltage ** 2 * nominal_frequency)
        self._k_static = static_nominal / nominal_voltage

    # -- instantaneous power ---------------------------------------------------- #
    def dynamic_power(self, voltage: float, frequency: float, activity: float) -> float:
        """Watts of switching power for one macro at the given operating point."""
        if activity < 0:
            raise ValueError("activity must be non-negative")
        return self._k_dynamic * activity * voltage ** 2 * frequency

    def static_power(self, voltage: float) -> float:
        """Watts of leakage power for one macro."""
        return self._k_static * voltage

    def macro_power(self, voltage: float, frequency: float, activity: float) -> float:
        return self.dynamic_power(voltage, frequency, activity) + self.static_power(voltage)

    def macro_power_mw(self, voltage: float, frequency: float, activity: float) -> float:
        return self.macro_power(voltage, frequency, activity) * 1e3

    # -- accumulation ------------------------------------------------------------ #
    #: Fraction of the dynamic power a stalled macro still burns (clock tree, idle).
    STALL_DYNAMIC_FRACTION = 0.15

    def accumulate_cycle(self, breakdown: EnergyBreakdown, voltage: float, frequency: float,
                         activity: float, macs_completed: float,
                         stalled: bool = False) -> None:
        """Add one macro-cycle of energy (and work, unless stalled) to ``breakdown``."""
        cycle_time = 1.0 / frequency
        breakdown.static_energy += self.static_power(voltage) * cycle_time
        if not stalled:
            breakdown.dynamic_energy += \
                self.dynamic_power(voltage, frequency, activity) * cycle_time
            breakdown.completed_macs += macs_completed
        else:
            # A stalled macro still burns some clock-tree/idle dynamic power.
            breakdown.dynamic_energy += \
                self.STALL_DYNAMIC_FRACTION * \
                self.dynamic_power(voltage, frequency, activity) * cycle_time
        breakdown.elapsed_time += cycle_time

    def span_breakdowns(self, span_rows: np.ndarray, voltages: np.ndarray,
                        frequencies: np.ndarray, lengths: np.ndarray,
                        activity_span_sums: np.ndarray,
                        stalled_activity_v2: np.ndarray,
                        worked_cycles: np.ndarray,
                        macs_per_cycle_rows: np.ndarray) -> list:
        """Closed-form row breakdowns from a table of level-stable spans.

        One entry per ``(row, span)`` pair: ``span_rows`` names each
        entry's row, ``voltages``/``frequencies``/``lengths`` describe its
        span and ``activity_span_sums`` is the row's activity summed over
        it (from cached prefix sums).  Per row, ``stalled_activity_v2`` is
        the row's ``sum(activity * V^2)`` over its energy-stalled cycles
        (recompute windows plus failure cycles) and ``worked_cycles`` its
        unstalled cycle count.  Returns one fresh :class:`EnergyBreakdown`
        per row.  Per cycle the dynamic energy is ``k_dyn * act * V^2`` and
        a stalled cycle burns :data:`STALL_DYNAMIC_FRACTION` of it, so each
        row's run reduces to one weighted ``bincount`` over its entries
        plus the stall correction; static energy and elapsed time are
        ``bincount`` sums of the span terms.  Matches looped
        :meth:`accumulate_cycle` up to floating-point summation order.
        """
        rows = len(worked_cycles)
        voltages = np.asarray(voltages, dtype=np.float64)
        inverse_f = 1.0 / np.asarray(frequencies, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.float64)
        dynamic = self._k_dynamic * (
            np.bincount(span_rows, np.asarray(activity_span_sums,
                                              dtype=np.float64)
                        * voltages ** 2, minlength=rows)
            - (1.0 - self.STALL_DYNAMIC_FRACTION)
            * np.asarray(stalled_activity_v2, dtype=np.float64))
        static = self._k_static * np.bincount(
            span_rows, lengths * voltages * inverse_f, minlength=rows)
        elapsed = np.bincount(span_rows, lengths * inverse_f, minlength=rows)
        return [EnergyBreakdown(dynamic_energy=float(dynamic[i]),
                                static_energy=float(static[i]),
                                elapsed_time=float(elapsed[i]),
                                completed_macs=float(macs_per_cycle_rows[i])
                                * int(worked_cycles[i]))
                for i in range(rows)]
