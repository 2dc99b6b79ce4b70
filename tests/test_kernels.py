"""Tests for the closed-form failure-timeline kernels.

Two layers: direct unit tests of the greedy min-gap selection
(:mod:`repro.sim.kernels`) against a brute-force model of the reference
semantics, and randomized end-to-end property tests over the shared corpus
(``tests.helpers``) asserting the full oracle chain — the reference against
a cold lone run, a repeated lone run and a batch, bit for bit — on
failure-dense workloads across all controllers,
including multi-macro Sets and group-straddling Sets (which route around the
kernels through the heap scheduler, and must keep agreeing when both paths
mix in one run).
"""

import numpy as np
import pytest

from repro.sim.kernels import frontier_key, merge_candidates, select_failures
from repro.sweep import build_compiled_workload

from tests.helpers import (
    DVFS_DENSE_STRESS,
    assert_oracle_chain,
    corpus_scenarios,
    random_runtime_kwargs,
    random_workload_spec,
    synthetic_spec,
)

SHIFT = 4                                  # test streams use rows < 16


def decode(keys, shift=SHIFT):
    mask = (1 << shift) - 1
    return [(key >> shift, key & mask) for key in keys]


# ---------------------------------------------------------------------- #
# the selection rule, modelled brute-force
# ---------------------------------------------------------------------- #
def brute_force_select(per_row, n_cycles, recompute):
    """Reference-loop semantics for one Set at a constant level.

    Walks every cycle and every row in visit order, maintaining per-row
    stall-until bounds exactly as the runtime does: a failure at ``(f, r)``
    stalls rows ``<= r`` from ``f + 1`` and rows ``> r`` from ``f``.
    """
    stall_until = [0] * len(per_row)
    candidates = [set(c) for c in per_row]
    selected = []
    for cycle in range(n_cycles):
        for row, cand in enumerate(candidates):
            if stall_until[row] > cycle or cycle not in cand:
                continue
            selected.append((cycle, row))
            if recompute > 0:
                for other in range(len(per_row)):
                    start = cycle + 1 if other <= row else cycle
                    stall_until[other] = max(stall_until[other],
                                             start + recompute)
    return selected


class TestSelectFailures:
    def make_merged(self, per_row):
        return merge_candidates([np.asarray(c, dtype=np.int64)
                                 for c in per_row],
                                list(range(len(per_row))), SHIFT)

    def select(self, merged, end_cycle, recompute, start_cycle=0):
        start = frontier_key(start_cycle, -1, SHIFT)
        keys, frontier = select_failures(merged, end_cycle, recompute, start)
        return decode(keys), frontier

    @pytest.mark.parametrize("recompute", [0, 1, 3, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force(self, recompute, seed):
        rng = np.random.default_rng(seed)
        n_cycles = 300
        rows = int(rng.integers(1, 5))
        per_row = [np.flatnonzero(rng.random(n_cycles) < 0.25)
                   for _ in range(rows)]
        merged = self.make_merged(per_row)
        selected, _ = self.select(merged, n_cycles, recompute)
        assert selected == brute_force_select(per_row, n_cycles, recompute)

    def test_zero_recompute_selects_every_candidate(self):
        merged = self.make_merged([[1, 5, 9], [1, 2, 9]])
        selected, _ = self.select(merged, 10, 0)
        assert selected == [(1, 0), (1, 1), (2, 1), (5, 0), (9, 0), (9, 1)]

    def test_frontier_resumes_across_spans(self):
        """Splitting the horizon at arbitrary points must not change the
        selection — the frontier key is the whole carry-over state."""
        rng = np.random.default_rng(7)
        per_row = [np.flatnonzero(rng.random(400) < 0.3) for _ in range(3)]
        merged = self.make_merged(per_row)
        whole, _ = self.select(merged, 400, 5)
        for split in (0, 1, 57, 123, 399, 400):
            first, frontier = self.select(merged, split, 5)
            rest_keys, _ = select_failures(merged, 400, 5, frontier)
            # Candidates in [split, frontier) are suppressed by the stall
            # window that straddles the split, never by the split itself.
            assert first + decode(rest_keys) == whole

    def test_end_cycle_bounds_selection(self):
        merged = self.make_merged([[2, 4, 6, 8]])
        selected, _ = self.select(merged, 5, 1)
        assert [c for c, _ in selected] == [2, 4]

    def test_merge_candidates_orders_ties_by_row(self):
        merged = merge_candidates(
            [np.array([3, 7]), np.array([3, 5])], [10, 20], shift=6)
        mask = (1 << 6) - 1
        assert [key >> 6 for key in merged.keys_list] == [3, 3, 5, 7]
        assert [key & mask for key in merged.keys_list] == [10, 20, 20, 10]
        assert merged.shift == 6

    def test_empty_input(self):
        merged = merge_candidates([], [], SHIFT)
        start = frontier_key(0, -1, SHIFT)
        keys, frontier = select_failures(merged, 100, 5, start)
        assert not list(keys)
        assert frontier == start


# ---------------------------------------------------------------------- #
# end-to-end equivalence properties
# ---------------------------------------------------------------------- #
class TestKernelEngineEquivalence:
    """Randomized failure-dense checks of every engine variant against the
    reference oracle."""

    def synthetic(self, label, **overrides):
        return build_compiled_workload(synthetic_spec(label, **overrides))

    @pytest.mark.parametrize("controller", ["dvfs", "booster_safe", "booster"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_failure_dense_all_controllers(self, controller, seed):
        compiled = self.synthetic("kernel-dense")
        result = assert_oracle_chain(
            compiled, cycles=600, controller=controller, beta=4,
            recompute_cycles=3, flip_mean=0.85, monitor_noise=0.02, seed=seed)
        if controller != "dvfs":
            assert result.total_failures > 100      # the stress must bite

    @pytest.mark.parametrize("recompute", [0, 1, 25])
    def test_recompute_extremes(self, recompute):
        """R=0 (all candidates fail), R=1 (densest windows) and a window
        longer than the beta period (group-wide overlapping stalls); the
        ``dvfs`` signoff level only fails densely at a harsher point."""
        compiled = self.synthetic("kernel-recompute")
        stress = dict(flip_mean=0.85, monitor_noise=0.02)
        for controller, settings in (("booster_safe", stress),
                                     ("booster", stress),
                                     ("dvfs", DVFS_DENSE_STRESS)):
            result = assert_oracle_chain(
                compiled, cycles=500, controller=controller, beta=6,
                recompute_cycles=recompute, seed=2, **settings)
            if controller == "dvfs":
                assert result.total_failures > 100

    def test_multi_macro_sets(self):
        """Four-macro Sets: within-cycle suppression spans several rows."""
        compiled = self.synthetic("kernel-multimacro", operator_rows=32,
                                  n_operators=6)
        for controller in ("booster_safe", "booster"):
            result = assert_oracle_chain(
                compiled, cycles=700, controller=controller, beta=5,
                recompute_cycles=4, flip_mean=0.85, monitor_noise=0.02,
                seed=3)
            assert result.total_failures > 50

    def test_group_straddling_sets_mix_kernel_and_heap(self):
        """Two-macro Sets over 3-macro groups: straddling Sets force the heap
        scheduler while contained groups still take the kernels — both paths
        in one run, against the oracle, with and without level changes."""
        compiled = self.synthetic("kernel-straddle", groups=6,
                                  macros_per_group=3, n_operators=9)
        for controller, stress in (
                ("booster", dict(flip_mean=0.8, monitor_noise=0.01)),
                ("dvfs", DVFS_DENSE_STRESS)):
            result = assert_oracle_chain(
                compiled, cycles=700, controller=controller, beta=4,
                recompute_cycles=10, seed=7, **stress)
            assert result.total_failures > 50, controller
            assert result.total_stall_cycles > 0, controller

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_stress_grid(self, seed):
        """Random stress points: geometry and knobs drawn from the shared
        corpus distribution (coupling regime cycles with the seed)."""
        rng = np.random.default_rng(100 + seed)
        coupling = ("contained", "mixed", "straddling")[seed % 3]
        compiled = build_compiled_workload(random_workload_spec(
            f"kernel-rand-{seed}", rng, coupling=coupling))
        assert_oracle_chain(compiled, **random_runtime_kwargs(rng))


class TestOracleChainCorpus:
    """The unified differential test: every engine variant — the reference,
    a cold lone run (windowed ladder levels), the same run repeated (cached
    candidate masks) and a batch — over the one seeded scenario corpus
    (geometry x controller x mode x stress x coupling).  The test id predates
    the retirement of superseded event loops from the chain."""

    @pytest.mark.parametrize("scenario", corpus_scenarios(),
                             ids=lambda s: s.label)
    def test_five_engine_variants_agree(self, scenario):
        assert_oracle_chain(scenario.compiled(), **scenario.kwargs)
