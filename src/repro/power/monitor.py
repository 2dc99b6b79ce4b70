"""IR monitor: the on-chip voltage sensor that raises IRFailure signals.

The paper embeds simplified VCO-based voltage monitors between each macro group
and its LDO (Sec. 5.5.2, Fig. 10-(b)).  The monitor compares the effective
supply voltage of the group against the minimum voltage the currently selected
V-f pair was signed off for; dropping below that threshold (plus a small sensor
margin) raises ``IRFailure``, which the Booster Controller turns into a level
change and a recompute.

The behavioural model keeps the two properties that matter to Algorithm 2:

* detection is *thresholded* — small excursions within the signed-off margin
  never fire;
* detection is *noisy* — a configurable Gaussian sensing error means operating
  exactly at the margin produces stochastic failures, whose rate grows with the
  overshoot.  This is what creates the beta trade-off of Fig. 18.

The sensing error is modelled per *cycle*, not per sample: the monitor is one
physical sensor, so every comparison made against it within the same cycle sees
the same sensed value.  The noise stream is indexed by cycle number — cycle
``c`` always consumes the ``c``-th draw of the monitor's RNG regardless of how
many (or how few) samples were actually taken — which keeps seeded runs
reproducible across simulation engines that sample the monitor in different
orders or skip stalled cycles entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["IRMonitorReading", "IRMonitor"]


@dataclass
class IRMonitorReading:
    """One sampling of a group's supply state."""

    cycle: int
    effective_voltage: float
    threshold_voltage: float
    failure: bool

    @property
    def margin(self) -> float:
        """Positive margin means the group is operating safely."""
        return self.effective_voltage - self.threshold_voltage


class IRMonitor:
    """Per-group threshold voltage monitor with cycle-indexed sensing noise.

    ``record_readings`` keeps the per-sample :class:`IRMonitorReading` history
    (handy for analysis and tests, but one Python object per sample).  Long
    simulation runs disable it — failure statistics stay available through the
    counters either way.  ``max_readings`` bounds the history when recording is
    on: the most recent readings win.
    """

    def __init__(self, min_voltage_margin: float = 0.0, sensing_noise: float = 0.004,
                 seed: int = 0, record_readings: bool = True,
                 max_readings: Optional[int] = None) -> None:
        if max_readings is not None and max_readings <= 0:
            raise ValueError("max_readings must be positive (or None for unbounded)")
        self.min_voltage_margin = min_voltage_margin
        self.sensing_noise = sensing_noise
        self.record_readings = record_readings
        self.max_readings = max_readings
        self._seed = seed
        self.readings: List[IRMonitorReading] = []
        self._reset_stream()

    def _reset_stream(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._next_cycle = 0
        self._current_noise = 0.0
        self._samples = 0
        self._failures = 0

    def reset(self) -> None:
        self.readings.clear()
        self._reset_stream()

    # ------------------------------------------------------------------ #
    # noise stream
    # ------------------------------------------------------------------ #
    def noise_at(self, cycle: int) -> float:
        """Sensing error for ``cycle`` (the ``cycle``-th draw of the stream).

        Cycles must be visited in non-decreasing order; skipped cycles still
        consume their draw so the stream stays aligned with the cycle index.
        """
        if self.sensing_noise <= 0:
            return 0.0
        if cycle < self._next_cycle - 1:
            raise ValueError(
                f"monitor noise stream already advanced past cycle {cycle}")
        if cycle >= self._next_cycle:
            draws = self._rng.normal(0.0, self.sensing_noise,
                                     size=cycle - self._next_cycle + 1)
            self._current_noise = float(draws[-1])
            self._next_cycle = cycle + 1
        return self._current_noise

    def noise_for_cycles(self, cycles: int) -> np.ndarray:
        """The next ``cycles`` per-cycle noise values as one array.

        Equivalent to ``[noise_at(c) for c in range(next, next + cycles)]`` but
        drawn in a single batch; used by the vectorized simulation engine.
        """
        if cycles <= 0:
            return np.zeros(0)
        if self.sensing_noise <= 0:
            return np.zeros(cycles)
        draws = self._rng.normal(0.0, self.sensing_noise, size=cycles)
        self._current_noise = float(draws[-1])
        self._next_cycle += cycles
        return draws

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self, cycle: int, effective_voltage: float, threshold_voltage: float) -> bool:
        """Return True when an IRFailure must be raised for this cycle."""
        sensed = effective_voltage + self.noise_at(cycle)
        failure = bool(sensed < threshold_voltage + self.min_voltage_margin)
        self._samples += 1
        self._failures += failure
        if self.record_readings:
            self.readings.append(IRMonitorReading(
                cycle=cycle, effective_voltage=effective_voltage,
                threshold_voltage=threshold_voltage, failure=failure))
            if self.max_readings is not None and len(self.readings) > self.max_readings:
                del self.readings[:len(self.readings) - self.max_readings]
        return failure

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def failure_count(self) -> int:
        return self._failures

    @property
    def failure_rate(self) -> float:
        if self._samples == 0:
            return 0.0
        return self._failures / self._samples

    @property
    def overhead_area_fraction(self) -> float:
        """Paper Sec. 6.10.2: the simplified monitor costs < 0.1 % chip area."""
        return 0.001

    @property
    def overhead_power_fraction(self) -> float:
        """Paper Sec. 6.10.2: the simplified monitor costs < 0.5 % chip power."""
        return 0.005
