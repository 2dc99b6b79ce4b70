"""IR-Booster: software-guided dynamic V-f level selection (paper Sec. 5.5).

IR-Booster extends DVFS with the architecture-level IR-drop margin exposed by
Rtog/HR.  Its three decisions are reproduced here:

* **safe level** — from the group's worst weight HR (HRG), rounded up to the
  nearest 5 % table level; groups above 60 % or holding input-determined
  operators fall back to the 100 % DVFS level (Sec. 5.5.1);
* **initial aggressive level (a-level0)** — the profiling-derived Table 1
  mapping from safe level to the first aggressive level to try;
* **runtime level adjustment** — Algorithm 2: IRFailures bounce the group back
  to its safe level (and lower the a-level when failures come too quickly),
  while long failure-free stretches first restore and then raise the a-level.

The controller is deliberately a pure state machine: the runtime tells it, per
cycle, whether an IRFailure occurred and whether a frequency synchronization
with another macro of the same logical Set forced a level change; the
controller answers with the level to use next cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..power.vf_table import VFPair, VFTable

__all__ = [
    "A_LEVEL_INIT",
    "safe_level_from_hr",
    "initial_aggressive_level",
    "BoosterMode",
    "GroupBoosterState",
    "IRBoosterController",
]

#: Paper Table 1: initial aggressive level (percent) for each safe level (percent).
A_LEVEL_INIT: Dict[int, int] = {
    100: 60,
    60: 40,
    55: 35,
    50: 35,
    45: 35,
    40: 30,
    35: 30,
    30: 25,
    25: 20,
    20: 20,
}

#: Operating modes (Sec. 5.5.1): throughput-first or energy-first pair choice.
class BoosterMode:
    SPRINT = "sprint"
    LOW_POWER = "low_power"


def safe_level_from_hr(hr: float, table: VFTable,
                       input_determined: bool = False) -> int:
    """Safe Rtog level for a macro group given its worst weight HR.

    Input-determined operators (QK^T / SV) and HR above the 60 % table ceiling
    revert to the 100 % DVFS level, exactly as described in Sec. 5.5.1.
    """
    if input_determined:
        return 100
    if hr <= 0.0:
        return min(table.booster_levels())
    level = table.nearest_level_at_or_above(hr)
    if level == 100 or hr * 100.0 > max(table.booster_levels()):
        return 100
    return level


def initial_aggressive_level(safe_level: int, table: VFTable) -> int:
    """Table-1 lookup of the a-level0 for a safe level (clamped into the table)."""
    if safe_level in A_LEVEL_INIT:
        candidate = A_LEVEL_INIT[safe_level]
    else:
        # Unlisted safe levels (possible with custom tables): keep ~70 % of it.
        candidate = int(round(safe_level * 0.7 / 5.0) * 5)
    booster_levels = table.booster_levels()
    candidate = max(min(candidate, max(booster_levels)), min(booster_levels))
    # Snap onto an existing level.
    return min(booster_levels, key=lambda lvl: abs(lvl - candidate))


@dataclass
class GroupBoosterState:
    """Algorithm-2 state for one macro group."""

    safe_level: int
    a_level: int
    level: int
    safe_counter: int = 0
    failures: int = 0
    level_ups: int = 0
    level_downs: int = 0


class IRBoosterController:
    """Per-group implementation of Algorithm 2 plus V-f pair selection.

    ``beta`` is the safe-window length in cycles: after an IRFailure a group
    runs at its safe level for ``beta`` failure-free cycles before re-entering
    the aggressive level, and raises the a-level after ``2 * beta`` more.
    ``mode`` picks the V-f pair at a level: "sprint" prefers the highest
    frequency, "low_power" the lowest voltage (Sec. 5.5.1).

    The controller is a pure, deterministic state machine — no internal RNG —
    so both simulation engines (and every sweep worker process) drive bit-
    identical level sequences from the same failure inputs.  The closed-form
    fast-forward helpers (:meth:`cycles_to_next_transition`,
    :meth:`advance_nofail`) are what the vectorized engine uses to jump
    between events; they are step-for-step equivalent to repeated
    ``step(ir_failure=False)`` calls.
    """

    def __init__(self, table: VFTable, beta: int = 50,
                 mode: str = BoosterMode.SPRINT) -> None:
        if beta <= 0:
            raise ValueError("beta must be a positive cycle count")
        self.table = table
        self.beta = beta
        self.mode = mode
        self._groups: Dict[int, GroupBoosterState] = {}

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def configure_group(self, group_id: int, group_hr: float,
                        input_determined: bool = False) -> GroupBoosterState:
        """Initialize a group's state from its worst HR (lines 1-2 of Alg. 2)."""
        safe = safe_level_from_hr(group_hr, self.table, input_determined)
        a_level = initial_aggressive_level(safe, self.table)
        state = GroupBoosterState(safe_level=safe, a_level=a_level, level=a_level)
        self._groups[group_id] = state
        return state

    def state(self, group_id: int) -> GroupBoosterState:
        return self._groups[group_id]

    def group_ids(self) -> List[int]:
        return sorted(self._groups)

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def step(self, group_id: int, ir_failure: bool,
             frequency_sync_level: Optional[int] = None) -> int:
        """Advance one cycle of Algorithm 2 for one group; returns the new level.

        ``frequency_sync_level`` models lines 11-13: when another macro of the
        same logical Set forces a frequency change, the group adopts that level
        and resets its safe counter.
        """
        state = self._groups[group_id]
        if ir_failure:
            state.failures += 1
            state.level = state.safe_level                      # line 5
            if state.safe_counter < 0.2 * self.beta:            # lines 6-9
                state.a_level = self._level_down(state.a_level)
                state.level_downs += 1
            state.safe_counter = 0                              # line 10
        elif frequency_sync_level is not None:
            state.level = frequency_sync_level                  # lines 11-13
            state.safe_counter = 0
        else:
            state.safe_counter += 1                             # line 15
            if state.safe_counter == self.beta:                 # lines 16-18
                state.level = state.a_level
            if state.safe_counter > 2 * self.beta:              # lines 19-23
                state.a_level = self._level_up(state.a_level, state.safe_level)
                state.level = state.a_level
                state.level_ups += 1
                state.safe_counter = self.beta
        return state.level

    # ------------------------------------------------------------------ #
    # failure-free fast-forward (used by the vectorized simulation engine)
    # ------------------------------------------------------------------ #
    def _transition_gap(self, counter: int) -> int:
        """Failure-free steps from ``counter`` to the next level assignment."""
        if counter < self.beta:
            return self.beta - counter
        return 2 * self.beta + 1 - counter

    def cycles_to_next_transition(self, group_id: int) -> int:
        """Failure-free steps until Algorithm 2 next assigns ``state.level``.

        With no IRFailures the only cycles at which :meth:`step` touches the
        group's level are ``safe_counter == beta`` (restore the a-level, lines
        16-18) and ``safe_counter > 2 * beta`` (raise the a-level, lines
        19-23), so the gap to the next one is closed-form.
        """
        return self._transition_gap(self._groups[group_id].safe_counter)

    def advance_nofail(self, group_id: int, steps: int) -> List[Tuple[int, int]]:
        """Advance ``steps`` failure-free cycles of Algorithm 2 in O(steps/beta).

        Equivalent to calling ``step(group_id, ir_failure=False)`` ``steps``
        times, but jumping from level transition to level transition instead of
        iterating cycles.  Returns the transitions as ``(step_offset, level)``
        pairs (1-based: offset ``k`` means the level applies after the ``k``-th
        step).
        """
        state = self._groups[group_id]
        transitions: List[Tuple[int, int]] = []
        done = 0
        while True:
            counter = state.safe_counter
            gap = self._transition_gap(counter)
            if done + gap > steps:
                break
            done += gap
            if counter < self.beta:                     # lines 16-18
                state.level = state.a_level
            else:                                       # lines 19-23
                state.a_level = self._level_up(state.a_level, state.safe_level)
                state.level = state.a_level
                state.level_ups += 1
            state.safe_counter = self.beta
            transitions.append((done, state.level))
        state.safe_counter += steps - done
        return transitions

    def advance_to_transition(self, group_id: int) -> Tuple[int, int, int]:
        """Jump straight to (and apply) the next failure-free level transition.

        Equivalent to ``advance_nofail(group_id, cycles_to_next_transition(
        group_id))`` but in one call with no inner loop: after any transition
        the safe counter sits at ``beta``, so the follow-up gap is always
        ``beta + 1``.  Returns ``(steps_advanced, new_level, next_gap)``.  The
        batched simulation engine uses this for the scheduled Algorithm-2
        events between failures.
        """
        state = self._groups[group_id]
        beta = self.beta
        counter = state.safe_counter
        if counter < beta:                              # lines 16-18
            steps = beta - counter
            state.level = state.a_level
        else:                                           # lines 19-23
            steps = 2 * beta + 1 - counter
            state.a_level = self._level_up(state.a_level, state.safe_level)
            state.level = state.a_level
            state.level_ups += 1
        state.safe_counter = beta
        return steps, state.level, beta + 1

    def advance_steady_transitions(self, group_id: int, count: int) -> None:
        """Apply ``count`` consecutive steady no-op transitions in bulk.

        Valid only in the post-transition steady state — safe counter at
        ``beta`` (where every call lands it) with the a-level at its own
        ``level_below`` clamp — where each transition takes the else branch
        (lines 19-23) and changes nothing but the level-up count: the level
        stays put and every gap is ``beta + 1``.  Bit-identical to calling
        :meth:`advance_to_transition` ``count`` times.
        """
        self._groups[group_id].level_ups += count

    def apply_failures_at_cycles(self, group_id: int,
                                 cycles: Sequence[int]) -> Tuple[int, int]:
        """Apply one whole *safe-level failure run* in a single vectorized call.

        ``cycles`` are the strictly increasing, non-negative cycle offsets
        (relative to the group's current state) of consecutive IRFailures
        under the *no-transition contract*: the first failure arrives before
        the next scheduled Algorithm-2 transition and every later one within
        ``beta`` cycles of its predecessor, so the whole run plays out on the
        failure branch alone (lines 4-10) — after the first failure the group
        sits at its safe level and each further failure merely pushes the
        next transition out.  Equivalent to failure-free :meth:`step` calls
        across each gap and one failing :meth:`step` per failure, but
        resolved in closed form over the failure-count thresholds with no
        per-event Python:

        * ``failures`` grows by ``len(cycles)``;
        * the a-level steps toward safe once per failure whose preceding
          failure-free gap is shorter than ``0.2 * beta`` — the downgrade
          count is one thresholded comparison over the gap array, and the
          resulting a-level is a single index walk up the table's booster
          levels (saturating at the ceiling, like repeated
          :meth:`_level_down`);
        * the level ends at the safe level with a zeroed safe counter.

        Returns ``(level, next_gap)`` — the level after the last failure and
        the distance from it to the next scheduled transition (always
        ``beta``).  Raises ``ValueError`` when the contract is violated (a
        transition would fire inside the run); the caller must split the
        batch at the first ``beta``-long gap.  The vectorized simulation
        engine drives this from its booster span kernel, one call per
        safe-level span, and from its heap scheduler, one call per failure
        (the heap applies scheduled transitions as their own events first,
        so a lone failure always keeps the contract);
        ``tests/test_core_ir_booster.py`` pins it to the looped per-cycle
        :meth:`step`.
        """
        state = self._groups[group_id]
        count = len(cycles)
        if count == 0:
            return state.level, self._transition_gap(state.safe_counter)
        beta = self.beta
        threshold = 0.2 * beta
        if count < 64:
            # Scalar path: typical safe runs hold a handful of failures, where
            # per-call numpy overhead would dominate the closed form.
            prev = -1
            downs = 0
            counter = state.safe_counter
            first_gap = self._transition_gap(counter)
            for cycle in cycles:
                cycle = int(cycle)
                gap = counter + cycle if prev < 0 else cycle - prev - 1
                if prev < 0:
                    if cycle < 0 or cycle >= first_gap:
                        raise ValueError(
                            "a scheduled transition fires inside the failure "
                            "run; split the batch at the first beta-long "
                            "failure-free gap" if cycle >= 0 else
                            "cycles must be strictly increasing non-negative "
                            "offsets")
                elif gap < 0:
                    raise ValueError(
                        "cycles must be strictly increasing non-negative "
                        "offsets")
                elif gap >= beta:
                    raise ValueError(
                        "a scheduled transition fires inside the failure run; "
                        "split the batch at the first beta-long failure-free "
                        "gap")
                if gap < threshold:
                    downs += 1
                prev = cycle
        else:
            offsets = np.asarray(cycles, dtype=np.int64)
            diffs = np.diff(offsets)
            if offsets[0] < 0 or (diffs.size and int(diffs.min()) <= 0):
                raise ValueError(
                    "cycles must be strictly increasing non-negative offsets")
            gaps = np.empty(offsets.size, dtype=np.int64)
            gaps[0] = state.safe_counter + int(offsets[0])
            gaps[1:] = diffs - 1
            if int(offsets[0]) >= self._transition_gap(state.safe_counter) or \
                    (diffs.size and int(diffs.max()) > self.beta):
                raise ValueError(
                    "a scheduled transition fires inside the failure run; "
                    "split the batch at the first beta-long failure-free gap")
            downs = int((gaps < threshold).sum())
        state.failures += count
        if downs:
            levels = self.table.booster_levels()        # sorted ascending
            try:
                index = levels.index(state.a_level)
            except ValueError:
                # Off-table a-level (hand-edited state): fall back to the
                # stepwise walk, which snaps onto the table immediately.
                for _ in range(downs):
                    state.a_level = self._level_down(state.a_level)
            else:
                state.a_level = levels[min(index + downs, len(levels) - 1)]
            state.level_downs += downs
        state.level = state.safe_level
        state.safe_counter = 0
        return state.level, self.beta

    def _level_down(self, level: int) -> int:
        """More conservative for the *a-level*: in the paper's convention a
        "level down" after rapid failures means a less aggressive (higher Rtog)
        level, i.e. one step toward the safe level."""
        return self.table.level_above(level)

    def _level_up(self, level: int, safe_level: int) -> int:
        """More aggressive: one step toward lower Rtog levels (lower V / higher f)."""
        return self.table.level_below(level)

    # ------------------------------------------------------------------ #
    # V-f pair selection
    # ------------------------------------------------------------------ #
    def vf_pair(self, group_id: int) -> VFPair:
        """The V-f pair for the group's current level under the active mode."""
        state = self._groups[group_id]
        level = state.level if state.level in self.table.levels else 100
        return self.table.select_pair(level, self.mode)

    def safe_vf_pair(self, group_id: int) -> VFPair:
        state = self._groups[group_id]
        level = state.safe_level if state.safe_level in self.table.levels else 100
        return self.table.select_pair(level, self.mode)
