"""Tests for IR-Booster: safe levels, Table 1 a-levels, and Algorithm 2."""

import pytest

from repro.core.ir_booster import (
    A_LEVEL_INIT,
    BoosterMode,
    IRBoosterController,
    initial_aggressive_level,
    safe_level_from_hr,
)
from repro.power.vf_table import VFTable


@pytest.fixture
def table() -> VFTable:
    return VFTable()


class TestSafeLevel:
    def test_rounds_up_to_next_5_percent(self, table):
        """Paper example: HRG = 47.5 % -> safe level 50 %."""
        assert safe_level_from_hr(0.475, table) == 50

    def test_exact_level_kept(self, table):
        assert safe_level_from_hr(0.40, table) == 40

    def test_above_60_reverts_to_dvfs(self, table):
        assert safe_level_from_hr(0.65, table) == 100
        assert safe_level_from_hr(0.99, table) == 100

    def test_input_determined_always_dvfs(self, table):
        assert safe_level_from_hr(0.2, table, input_determined=True) == 100

    def test_very_low_hr_clamps_to_lowest_level(self, table):
        assert safe_level_from_hr(0.01, table) == 20
        assert safe_level_from_hr(0.0, table) == 20


class TestInitialALevel:
    def test_table1_values(self, table):
        for safe, expected in A_LEVEL_INIT.items():
            assert initial_aggressive_level(safe, table) == expected

    def test_a_level_never_exceeds_safe_level(self, table):
        for safe, a_level in A_LEVEL_INIT.items():
            if safe != 100:
                assert a_level <= safe


class TestAlgorithm2:
    def make_controller(self, table, beta=10):
        controller = IRBoosterController(table, beta=beta, mode=BoosterMode.SPRINT)
        controller.configure_group(0, group_hr=0.47)   # safe 50, a-level0 35
        return controller

    def test_initialization(self, table):
        controller = self.make_controller(table)
        state = controller.state(0)
        assert state.safe_level == 50
        assert state.a_level == 35
        assert state.level == 35

    def test_failure_returns_to_safe_level(self, table):
        controller = self.make_controller(table)
        level = controller.step(0, ir_failure=True)
        assert level == 50
        assert controller.state(0).safe_counter == 0

    def test_rapid_failures_back_off_a_level(self, table):
        controller = self.make_controller(table, beta=10)
        # Algorithm 2 initializes SafeCounter to 0, so a failure right after
        # start counts as "too soon" and immediately backs the a-level off.
        controller.step(0, ir_failure=True)
        assert controller.state(0).a_level == 40      # one step toward safe
        # A second rapid failure backs it off again.
        controller.step(0, ir_failure=True)
        assert controller.state(0).a_level == 45
        assert controller.state(0).level_downs == 2

    def test_returns_to_a_level_after_beta_safe_cycles(self, table):
        controller = self.make_controller(table, beta=5)
        controller.step(0, ir_failure=True)            # at safe level 50; a-level backs to 40
        for _ in range(4):
            controller.step(0, ir_failure=False)
        assert controller.state(0).level == 50          # not yet back
        controller.step(0, ir_failure=False)             # safe_counter hits beta
        assert controller.state(0).level == controller.state(0).a_level == 40

    def test_level_up_after_two_beta_safe_cycles(self, table):
        controller = self.make_controller(table, beta=5)
        for _ in range(11):                              # > 2 * beta safe cycles
            controller.step(0, ir_failure=False)
        state = controller.state(0)
        assert state.a_level == 30                       # one step more aggressive
        assert state.level == 30
        assert state.level_ups == 1
        assert state.safe_counter == 5                   # reset to beta

    def test_frequency_sync_overrides_level(self, table):
        controller = self.make_controller(table)
        level = controller.step(0, ir_failure=False, frequency_sync_level=45)
        assert level == 45
        assert controller.state(0).safe_counter == 0

    def test_a_level_stays_within_table(self, table):
        controller = self.make_controller(table, beta=2)
        for _ in range(200):                             # push aggression to the floor
            controller.step(0, ir_failure=False)
        assert controller.state(0).a_level == min(table.booster_levels())

    def test_failure_counters(self, table):
        controller = self.make_controller(table)
        controller.step(0, ir_failure=True)
        controller.step(0, ir_failure=True)
        assert controller.state(0).failures == 2

    def test_invalid_beta(self, table):
        with pytest.raises(ValueError):
            IRBoosterController(table, beta=0)


class TestVFPairSelection:
    def test_sprint_pairs_prefer_frequency(self, table):
        controller = IRBoosterController(table, beta=10, mode=BoosterMode.SPRINT)
        controller.configure_group(0, group_hr=0.35)
        pair = controller.vf_pair(0)
        assert pair.frequency == max(p.frequency for p in table.pairs_for_level(pair.level))

    def test_low_power_pairs_prefer_low_energy(self, table):
        controller = IRBoosterController(table, beta=10, mode=BoosterMode.LOW_POWER)
        controller.configure_group(0, group_hr=0.35)
        pair = controller.vf_pair(0)
        level_pairs = table.pairs_for_level(pair.level)
        assert pair.dynamic_power_factor == min(p.dynamic_power_factor for p in level_pairs)

    def test_safe_pair_uses_safe_level(self, table):
        controller = IRBoosterController(table, beta=10)
        controller.configure_group(0, group_hr=0.47)
        assert controller.safe_vf_pair(0).level == 50

    def test_input_determined_group_uses_dvfs_pair(self, table):
        controller = IRBoosterController(table, beta=10)
        controller.configure_group(1, group_hr=0.3, input_determined=True)
        assert controller.state(1).safe_level == 100
        # Its initial aggressive level is still a booster level (Table 1: 100 -> 60).
        assert controller.state(1).a_level == 60


class TestBatchedControllerOps:
    """The closed-form batch counterparts of step(): step-for-step equivalent
    to looped per-cycle execution, at every phase of Algorithm 2."""

    def make_pair(self, table, beta=9, hr=0.42):
        controllers = []
        for _ in range(2):
            controller = IRBoosterController(table, beta=beta)
            controller.configure_group(0, group_hr=hr)
            controllers.append(controller)
        return controllers

    def snapshot(self, controller):
        state = controller.state(0)
        return (state.safe_level, state.a_level, state.level,
                state.safe_counter, state.failures, state.level_ups,
                state.level_downs)

    @staticmethod
    def fail_after(controller, gap):
        """``gap`` failure-free cycles, then one failure, the way the heap
        scheduler applies them: each scheduled transition inside the gap as
        its own event, then the failure as a one-failure run.  Returns the
        gap's level breaks (``advance_nofail``'s convention), the level after
        the failure and the gap to the next transition."""
        done, transitions = 0, []
        while controller.cycles_to_next_transition(0) <= gap - done:
            steps, level, _ = controller.advance_to_transition(0)
            done += steps
            transitions.append((done, level))
        level, next_gap = controller.apply_failures_at_cycles(0, [gap - done])
        return transitions, level, next_gap

    @pytest.mark.parametrize("gap", [0, 1, 3, 8, 9, 17, 19, 40])
    def test_advance_and_fail_matches_stepwise(self, table, gap):
        fast, slow = self.make_pair(table)
        # Shift phase with a couple of failures first, then compare the
        # heap scheduler's update against advance + step at several gap
        # lengths, those that cross scheduled transitions included.
        for controller in (fast, slow):
            controller.step(0, ir_failure=True)
        for _ in range(3):
            transitions, level, next_gap = self.fail_after(fast, gap)
            observed = []
            for _ in range(gap):
                slow.step(0, ir_failure=False)
                observed.append(slow.state(0).level)
            slow.step(0, ir_failure=True)
            assert self.snapshot(fast) == self.snapshot(slow)
            assert level == slow.state(0).level
            assert next_gap == slow.cycles_to_next_transition(0)
            for offset, lvl in transitions:
                assert observed[offset - 1] == lvl

    def test_advance_to_transition_matches_advance_nofail(self, table):
        fast, slow = self.make_pair(table, beta=6)
        for i in range(25):
            expected_gap = slow.cycles_to_next_transition(0)
            steps, level, next_gap = fast.advance_to_transition(0)
            transitions = slow.advance_nofail(0, expected_gap)
            assert steps == expected_gap
            assert self.snapshot(fast) == self.snapshot(slow)
            assert level == slow.state(0).level
            assert next_gap == slow.cycles_to_next_transition(0)
            assert transitions and transitions[-1][1] == level
            if i % 7 == 3:                       # shift phase with a failure
                fast.step(0, ir_failure=True)
                slow.step(0, ir_failure=True)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_apply_failures_matches_looped_step(self, table, seed):
        """Property test: random failure offsets over a horizon, applied as
        ``advance_nofail`` across each failure-free gap (and the tail) and
        a one-failure ``apply_failures_at_cycles`` per failure — the final
        state and the per-cycle levels reproduce the looped reference."""
        import numpy as np
        rng = np.random.default_rng(seed)
        total = 400
        n_fails = int(rng.integers(1, 40))
        offsets = sorted(rng.choice(total, size=n_fails, replace=False).tolist())

        batch, looped = self.make_pair(table, beta=int(rng.integers(3, 30)))
        initial_level = batch.state(0).level
        breaks, prev = [], 0
        for cycle in offsets + [total]:
            breaks.extend((prev + offset, lvl) for offset, lvl
                          in batch.advance_nofail(0, cycle - prev))
            if cycle < total:
                level, _ = batch.apply_failures_at_cycles(0, [0])
                breaks.append((cycle + 1, level))
            prev = cycle + 1

        fails = set(offsets)
        stepwise = []
        for cycle in range(total):
            looped.step(0, ir_failure=cycle in fails)
            stepwise.append(looped.state(0).level)
        assert self.snapshot(batch) == self.snapshot(looped)

        # Reconstruct the per-cycle level trace from the break list.
        level = initial_level
        reconstructed = []
        by_offset = {}
        for offset, lvl in breaks:
            by_offset[offset] = lvl              # last break at an offset wins
        for cycle in range(1, total + 1):
            if cycle in by_offset:
                level = by_offset[cycle]
            reconstructed.append(level)
        assert reconstructed == stepwise

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 11])
    def test_apply_failures_at_cycles_matches_looped_step(self, table, seed):
        """Property test: random safe-level failure runs (every inter-failure
        gap shorter than beta) — one vectorized call reproduces the looped
        per-cycle reference state exactly, including a-level downgrades."""
        import numpy as np
        rng = np.random.default_rng(seed)
        beta = int(rng.integers(3, 30))
        batch, looped = self.make_pair(table, beta=beta)
        # Shift the phase randomly (failure-free steps plus maybe a failure).
        warm = int(rng.integers(0, 2 * beta))
        for controller in (batch, looped):
            for _ in range(warm):
                controller.step(0, ir_failure=False)
        # Build a run obeying the no-transition contract.
        first_gap = batch.cycles_to_next_transition(0)
        offsets = [int(rng.integers(0, first_gap))]
        for _ in range(int(rng.integers(0, 30))):
            offsets.append(offsets[-1] + 1 + int(rng.integers(0, beta)))
        level, next_gap = batch.apply_failures_at_cycles(0, offsets)

        fails = set(offsets)
        for cycle in range(offsets[-1] + 1):
            looped.step(0, ir_failure=cycle in fails)
        assert self.snapshot(batch) == self.snapshot(looped)
        assert level == looped.state(0).level
        assert next_gap == looped.cycles_to_next_transition(0)

    def test_apply_failures_at_cycles_numpy_path_matches_scalar(self, table):
        """Long runs take the vectorized numpy path; same state machine."""
        import numpy as np
        rng = np.random.default_rng(7)
        beta = 13
        batch, looped = self.make_pair(table, beta=beta)
        offsets = [int(rng.integers(0, beta))]
        for _ in range(199):                     # >= the scalar-path cutoff
            offsets.append(offsets[-1] + 1 + int(rng.integers(0, beta)))
        batch.apply_failures_at_cycles(0, np.asarray(offsets))
        fails = set(offsets)
        for cycle in range(offsets[-1] + 1):
            looped.step(0, ir_failure=cycle in fails)
        assert self.snapshot(batch) == self.snapshot(looped)

    def test_apply_failures_at_cycles_rejects_contract_violations(self, table):
        controller, _ = self.make_pair(table, beta=5)
        with pytest.raises(ValueError):
            controller.apply_failures_at_cycles(0, [3, 3])   # not increasing
        with pytest.raises(ValueError):
            controller.apply_failures_at_cycles(0, [-1])     # negative offset
        with pytest.raises(ValueError):
            # First failure lands beyond the next scheduled transition.
            controller.apply_failures_at_cycles(0, [50])
        with pytest.raises(ValueError):
            # A beta-long failure-free gap inside the run.
            controller.apply_failures_at_cycles(0, [1, 8])

    def test_apply_failures_at_cycles_empty_is_noop(self, table):
        controller, _ = self.make_pair(table, beta=5)
        before = self.snapshot(controller)
        level, gap = controller.apply_failures_at_cycles(0, [])
        assert self.snapshot(controller) == before
        assert level == controller.state(0).level
        assert gap == controller.cycles_to_next_transition(0)
