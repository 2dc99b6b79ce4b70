"""Architecture-level IR-drop model implementing Equation 2 of the paper.

    IR-drop = dV_static + dV_dynamic
    dV_static  ~= k_lk * I_lk * R_lk
    dV_dynamic ~= (k_sc * I_sc * R_sc + k_sw * I_sw * R_sw) * Rtog

The model is calibrated so that the signoff worst case (every bank toggling
every cycle, Rtog = 100 %) reproduces the paper's 140 mV drop at a 0.75 V
supply, with roughly 10 % of the drop static and 90 % dynamic — consistent with
the paper's observation that dynamic IR-drop dominates in the macros.

Two views are provided:

* :class:`IRDropModel` — the lumped per-macro Eq. 2 estimate used by the
  cycle-level runtime (fast; preserves the Rtog partial order);
* :func:`chip_ir_drop_map` — the spatial view combining per-macro demand
  currents with the :class:`~repro.power.pdn.PowerDeliveryNetwork`, used for
  the Fig. 16 heat maps and Fig. 17 bump traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .pdn import PDNResult, PowerDeliveryNetwork

__all__ = ["IRDropModel", "chip_ir_drop_map"]


@dataclass
class IRDropModel:
    """Lumped Eq.-2 IR-drop model for one macro."""

    supply_voltage: float = 0.75
    signoff_drop: float = 0.140           #: worst-case drop (V) at Rtog = 100 %
    static_fraction: float = 0.10         #: share of the signoff drop that is static
    #: scaling of dynamic current with voltage and frequency relative to nominal
    nominal_frequency: float = 1.0e9

    def __post_init__(self) -> None:
        if not 0 < self.static_fraction < 1:
            raise ValueError("static fraction must be in (0, 1)")
        if self.signoff_drop <= 0 or self.signoff_drop >= self.supply_voltage:
            raise ValueError("signoff drop must be positive and below the supply")

    # -- components ---------------------------------------------------------- #
    @property
    def static_drop(self) -> float:
        """dV_static: leakage-driven drop, independent of activity."""
        return self.signoff_drop * self.static_fraction

    @property
    def dynamic_drop_at_signoff(self) -> float:
        """dV_dynamic at Rtog = 100 %, nominal V and f."""
        return self.signoff_drop * (1.0 - self.static_fraction)

    # -- evaluation ------------------------------------------------------------ #
    def drop(self, rtog: float, voltage: Optional[float] = None,
             frequency: Optional[float] = None) -> float:
        """IR-drop (volts) of a macro running at ``rtog`` activity.

        Dynamic current scales with the operating voltage and frequency
        (C·V·f), so running a macro at a reduced voltage or frequency shrinks
        the dynamic component proportionally — the effect IR-Booster exploits.
        """
        if not 0.0 <= rtog <= 1.0:
            raise ValueError("rtog must be a fraction in [0, 1]")
        voltage = self.supply_voltage if voltage is None else voltage
        frequency = self.nominal_frequency if frequency is None else frequency
        scale = (voltage / self.supply_voltage) * (frequency / self.nominal_frequency)
        return self.static_drop + self.dynamic_drop_at_signoff * rtog * scale

    def drop_array(self, rtog: np.ndarray, voltage: Optional[float] = None,
                   frequency: Optional[float] = None) -> np.ndarray:
        """Vectorized :meth:`drop` over an array of Rtog values."""
        rtog = np.asarray(rtog, dtype=np.float64)
        if rtog.size and (rtog.min() < 0 or rtog.max() > 1):
            raise ValueError("rtog values must be fractions in [0, 1]")
        voltage = self.supply_voltage if voltage is None else voltage
        frequency = self.nominal_frequency if frequency is None else frequency
        scale = (voltage / self.supply_voltage) * (frequency / self.nominal_frequency)
        return self.static_drop + self.dynamic_drop_at_signoff * rtog * scale

    def drop_sum(self, rtog_sum: np.ndarray, cycles: np.ndarray,
                 voltage: Optional[np.ndarray] = None,
                 frequency: Optional[np.ndarray] = None) -> np.ndarray:
        """Summed IR-drop over ``cycles`` cycles whose Rtog sums to
        ``rtog_sum``, elementwise.

        Eq. 2 is affine in Rtog, so the sum of :meth:`drop_array` over a
        span closes over the span's activity sum alone:
        ``static * cycles + dynamic * rtog_sum * scale``.  Equal to the
        per-cycle sum up to floating-point summation order.
        """
        voltage = self.supply_voltage if voltage is None else voltage
        frequency = self.nominal_frequency if frequency is None else frequency
        scale = (voltage / self.supply_voltage) \
            * (frequency / self.nominal_frequency)
        return self.static_drop * np.asarray(cycles, dtype=np.float64) \
            + self.dynamic_drop_at_signoff * np.asarray(rtog_sum) * scale

    def macro_current(self, rtog: float, voltage: Optional[float] = None,
                      frequency: Optional[float] = None,
                      equivalent_resistance: float = 0.5) -> float:
        """Demand current (amperes) implied by the drop across the macro's PDN path.

        Used to drive the spatial PDN model; ``equivalent_resistance`` is the
        lumped rail resistance between the bumps and the macro (ohms).
        """
        return self.drop(rtog, voltage, frequency) / equivalent_resistance

    def effective_voltage(self, rtog: float, voltage: Optional[float] = None,
                          frequency: Optional[float] = None) -> float:
        """Voltage actually seen by the macro's cells: supply minus IR-drop."""
        voltage = self.supply_voltage if voltage is None else voltage
        return voltage - self.drop(rtog, voltage, frequency)

    def mitigation(self, baseline_rtog: float, improved_rtog: float,
                   baseline_vf: Tuple[float, float] = None,
                   improved_vf: Tuple[float, float] = None) -> float:
        """Fractional IR-drop mitigation between two operating conditions."""
        b_voltage, b_frequency = baseline_vf if baseline_vf else (None, None)
        i_voltage, i_frequency = improved_vf if improved_vf else (None, None)
        before = self.drop(baseline_rtog, b_voltage, b_frequency)
        after = self.drop(improved_rtog, i_voltage, i_frequency)
        if before <= 0:
            return 0.0
        return (before - after) / before


def chip_ir_drop_map(model: IRDropModel, pdn: PowerDeliveryNetwork,
                     macro_rtog: Sequence[float],
                     macro_positions: Sequence[Tuple[int, int]],
                     voltages: Optional[Sequence[float]] = None,
                     frequencies: Optional[Sequence[float]] = None,
                     equivalent_resistance: float = 0.5) -> PDNResult:
    """Spatial IR-drop map for one chip snapshot (Fig. 16 view).

    Each macro's Eq.-2 drop is converted to a demand current and injected at its
    floorplan node; the PDN solve then yields the full-chip voltage/IR-drop map
    including coupling between neighbouring macros.
    """
    macro_rtog = list(macro_rtog)
    voltages = list(voltages) if voltages is not None else [None] * len(macro_rtog)
    frequencies = list(frequencies) if frequencies is not None else [None] * len(macro_rtog)
    currents = [
        model.macro_current(r, v, f, equivalent_resistance)
        for r, v, f in zip(macro_rtog, voltages, frequencies)
    ]
    return pdn.solve_for_macros(currents, macro_positions)
