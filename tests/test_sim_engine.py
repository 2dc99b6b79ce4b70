"""Equivalence and unit tests for the vectorized simulation engine.

The vectorized engine (``repro.sim.engine``) must reproduce the reference
cycle-by-cycle loop bit-for-bit: identical failures, stalls, level traces,
drop traces and chip traces, with energy equal up to floating-point summation
order.  These tests sweep all three controllers, both modes and several seeds,
plus stress settings (small beta, long recompute windows, zero noise) that
exercise the within-cycle stall-propagation corner cases.
"""

import numpy as np
import pytest

from repro.core.ir_booster import BoosterMode, IRBoosterController
from repro.pim.config import small_chip_config
from repro.power.energy import EnergyBreakdown, EnergyModel
from repro.power.monitor import IRMonitor
from repro.power.vf_table import VFTable
from repro.sim import (
    CompilerConfig,
    RuntimeConfig,
    PIMRuntime,
    clear_level_cache,
    compile_workload,
    level_cache_stats,
    set_level_cache_budget,
    simulate,
)
from repro.sim.engine import (
    MAX_MASK_SETS,
    ActivityTraces,
    _LazyLevelStreams,
    _VectorizedEngine,
)
from repro.sim.ensemble import run_engines
from repro.sim.level_cache import LEVEL_CACHE, LevelEntry
from repro.sweep import WorkloadSpec, build_compiled_workload
from repro.sweep.records import METRIC_NAMES
from repro.workloads import flip_factor_matrix, flip_factor_sequence
from repro.workloads.profiles import WorkloadProfile

from tests.helpers import (
    DVFS_DENSE_STRESS,
    FAILURE_DENSE_STRESS,
    assert_oracle_chain,
    assert_results_equivalent,
    contained_sets_spec,
    make_operator,
    straddling_sets_spec,
    synthetic_spec,
)


@pytest.fixture(scope="module")
def engine_compiled():
    """A mixed workload on an 8-group chip (multi-macro logical sets)."""
    chip = small_chip_config(groups=8, macros_per_group=2, banks=4, rows=8)
    table = VFTable(nominal_voltage=chip.nominal_voltage,
                    nominal_frequency=chip.nominal_frequency,
                    signoff_ir_drop=chip.signoff_ir_drop)
    rows, cols = chip.macro.rows, chip.macro.banks
    operators = [
        make_operator("conv1", rows * 2, cols, kind="conv", seed=1),
        make_operator("conv2", rows * 2, cols, kind="conv", seed=2),
        make_operator("fc", rows * 2, cols, kind="linear", seed=3),
        make_operator("attn.qk_t", rows * 2, cols, kind="qk_t", seed=4, spread=40.0),
    ]
    profile = WorkloadProfile(name="engine-test", family="mixed", operators=operators)
    compiled = compile_workload(profile, chip, table,
                                CompilerConfig(mapping_strategy="sequential",
                                               max_tasks_per_operator=2))
    return compiled, table


class TestEngineEquivalence:
    @pytest.mark.parametrize("controller", ["dvfs", "booster_safe", "booster"])
    @pytest.mark.parametrize("mode", [BoosterMode.LOW_POWER, BoosterMode.SPRINT])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_engines_agree(self, engine_compiled, controller, mode, seed):
        compiled, table = engine_compiled
        kwargs = dict(cycles=400, controller=controller, mode=mode, seed=seed)
        reference = simulate(compiled, RuntimeConfig(engine="reference", **kwargs),
                             table=table)
        vectorized = simulate(compiled, RuntimeConfig(engine="vectorized", **kwargs),
                              table=table)
        assert_results_equivalent(reference, vectorized)

    def test_engines_agree_under_failure_pressure(self, engine_compiled):
        """Small beta + long recompute stalls: many overlapping Set stalls."""
        compiled, table = engine_compiled
        kwargs = dict(cycles=500, controller="booster", beta=10,
                      recompute_cycles=25, monitor_noise=0.006, seed=5)
        reference = simulate(compiled, RuntimeConfig(engine="reference", **kwargs),
                             table=table)
        vectorized = simulate(compiled, RuntimeConfig(engine="vectorized", **kwargs),
                              table=table)
        assert reference.total_failures > 0            # the stress must bite
        assert_results_equivalent(reference, vectorized)

    def test_engines_agree_without_noise(self, engine_compiled):
        compiled, table = engine_compiled
        for controller in ("dvfs", "booster_safe", "booster"):
            kwargs = dict(cycles=300, controller=controller, monitor_noise=0.0,
                          seed=2)
            reference = simulate(compiled, RuntimeConfig(engine="reference", **kwargs),
                                 table=table)
            vectorized = simulate(compiled, RuntimeConfig(engine="vectorized",
                                                          **kwargs), table=table)
            assert_results_equivalent(reference, vectorized)

    def test_engines_agree_zero_recompute(self, engine_compiled):
        compiled, table = engine_compiled
        kwargs = dict(cycles=300, controller="booster", recompute_cycles=0, seed=1)
        reference = simulate(compiled, RuntimeConfig(engine="reference", **kwargs),
                             table=table)
        vectorized = simulate(compiled, RuntimeConfig(engine="vectorized", **kwargs),
                              table=table)
        assert_results_equivalent(reference, vectorized)

    def test_vectorized_is_default_engine(self):
        assert RuntimeConfig().engine == "vectorized"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(engine="warp").validate()


def coupling_of(compiled, config, table=None):
    """(independent, coupled) group counts the engine derives for a workload."""
    engine = _VectorizedEngine(PIMRuntime(compiled, config, table=table))
    engine._setup_structure()
    return len(engine.independent_groups), len(engine.coupled_groups)


class TestFailureDenseEquivalence:
    """Forced high-failure-density configs: the event engine, alone (cold
    and repeated) and batched, must reproduce the reference oracle bit-for-bit,
    across the independent-group (timeline kernels) and coupled-group (heap
    scheduler) code paths."""

    STRESS = FAILURE_DENSE_STRESS

    def triangulate(self, compiled, table=None, **kwargs):
        return assert_oracle_chain(compiled, table=table, **kwargs)

    def test_high_density_mixed_sets(self, engine_compiled):
        compiled, table = engine_compiled
        result = self.triangulate(compiled, table=table, cycles=600, **self.STRESS)
        assert result.total_failures > 100          # the stress must bite

    def test_high_density_zero_recompute(self, engine_compiled):
        compiled, table = engine_compiled
        kwargs = dict(self.STRESS, recompute_cycles=0)
        result = self.triangulate(compiled, table=table, cycles=500, **kwargs)
        assert result.total_failures > 100
        assert result.total_stall_cycles == 0

    def test_high_density_booster_safe(self, engine_compiled):
        compiled, table = engine_compiled
        kwargs = dict(self.STRESS, controller="booster_safe")
        self.triangulate(compiled, table=table, cycles=500, **kwargs)

    def test_independent_groups_take_batched_path(self):
        """Group-contained Sets (sequential mapping, even tiling): every group
        resolves through the per-group timeline kernels."""
        compiled = build_compiled_workload(synthetic_spec("engine-independent"))
        kwargs = dict(cycles=700, **self.STRESS)
        independent, coupled = coupling_of(compiled, RuntimeConfig(**kwargs))
        assert coupled == 0 and independent > 0
        result = self.triangulate(compiled, **kwargs)
        assert result.total_failures > 100

    def test_straddling_sets_take_heap_path(self):
        """Two-macro Sets over three-macro groups straddle group boundaries,
        forcing the coupled-group heap scheduler (cross-group stalls)."""
        compiled = build_compiled_workload(
            synthetic_spec("engine-straddle", macros_per_group=3,
                           n_operators=9))
        kwargs = dict(cycles=700, **self.STRESS)
        independent, coupled = coupling_of(compiled, RuntimeConfig(**kwargs))
        assert coupled > 0
        result = self.triangulate(compiled, **kwargs)
        assert result.total_failures > 50
        assert result.total_stall_cycles > 0

    def test_mixed_independent_and_coupled(self):
        """hr_aware mapping scatters Sets: some groups couple, and the run
        mixes both event paths in one simulation."""
        compiled = build_compiled_workload(
            synthetic_spec("engine-mixed", groups=8, n_operators=14,
                           mapping="hr_aware"))
        kwargs = dict(cycles=600, **self.STRESS)
        self.triangulate(compiled, **kwargs)


@pytest.fixture
def fresh_level_cache():
    """Isolate and restore the process-level physics cache around a test."""
    clear_level_cache()
    yield
    clear_level_cache()


class TestLevelCacheSharing:
    """The process-level per-(group, level) physics cache: reuse across runs
    must be invisible in the results, and the cache must stay keyed on
    everything the physics depends on."""

    def make_compiled(self, label="cache-w"):
        return build_compiled_workload(
            synthetic_spec(label, groups=4, macros_per_group=2,
                           n_operators=4))

    def run_once(self, compiled, **kwargs):
        return simulate(compiled, RuntimeConfig(**kwargs))

    def test_cross_run_reuse_is_bit_identical(self, fresh_level_cache):
        compiled = self.make_compiled()
        kwargs = dict(cycles=400, controller="booster", flip_mean=0.75,
                      monitor_noise=0.008, seed=1)
        cold = self.run_once(compiled, beta=10, **kwargs)
        assert level_cache_stats()["entries"] > 0
        before = level_cache_stats()["hits"]
        warm_other_beta = self.run_once(compiled, beta=40, **kwargs)
        assert level_cache_stats()["hits"] > before     # physics reused

        # The beta=40 run with a *disabled* cache must match bit-for-bit.
        old_budget = set_level_cache_budget(0)
        try:
            clean = self.run_once(compiled, beta=40, **kwargs)
        finally:
            set_level_cache_budget(old_budget)
        assert_results_equivalent(clean, warm_other_beta)
        # And beta actually matters (the runs are genuinely different).
        assert not np.array_equal(cold.group_results[0].level_trace,
                                  warm_other_beta.group_results[0].level_trace)

    def test_seed_and_noise_key_isolation(self, fresh_level_cache):
        """Runs differing only in seed (or noise level) never share entries:
        results equal a fresh-process run exactly."""
        compiled = self.make_compiled()
        base = dict(cycles=300, controller="booster", beta=8, flip_mean=0.75)
        first = self.run_once(compiled, monitor_noise=0.008, seed=1, **base)
        second = self.run_once(compiled, monitor_noise=0.008, seed=2, **base)
        third = self.run_once(compiled, monitor_noise=0.002, seed=1, **base)
        old_budget = set_level_cache_budget(0)
        try:
            for warm, kwargs in [
                    (first, dict(monitor_noise=0.008, seed=1)),
                    (second, dict(monitor_noise=0.008, seed=2)),
                    (third, dict(monitor_noise=0.002, seed=1))]:
                clean = self.run_once(compiled, **base, **kwargs)
                assert_results_equivalent(clean, warm)
        finally:
            set_level_cache_budget(old_budget)

    def test_zero_budget_disables_storage(self, fresh_level_cache):
        compiled = self.make_compiled()
        old_budget = set_level_cache_budget(0)
        try:
            self.run_once(compiled, cycles=200, controller="booster", seed=0)
            stats = level_cache_stats()
            assert stats["entries"] == 0 and stats["bytes"] == 0
        finally:
            set_level_cache_budget(old_budget)

    def test_cached_traces_are_rows_of_the_engine_matrix(self,
                                                        fresh_level_cache):
        """The per-macro traces cached under the activity key are row views
        of the engine's stacked matrix: one buffer per key, charged once,
        with no separate stacked entry (here for a batch of two seeds)."""
        compiled = self.make_compiled()
        engines = [_VectorizedEngine(PIMRuntime(compiled, RuntimeConfig(
            cycles=200, controller="booster", seed=seed, traces="none")))
            for seed in (0, 1)]
        run_engines(engines)
        for engine in engines:
            traces = LEVEL_CACHE.get(engine._activity_key)
            assert traces is engine.activity
            assert engine.A.shape == (engine.n_rows, 200)
            assert not engine.A.flags.writeable
            for row, macro in enumerate(engine.proc_order):
                assert np.shares_memory(traces[macro], engine.A)
                assert np.array_equal(traces[macro], engine.A[row])
            assert LEVEL_CACHE._sizes[engine._activity_key] \
                == engine.A.nbytes
        assert not np.shares_memory(engines[0].A, engines[1].A)
        assert {key[0] for key in LEVEL_CACHE._entries
                if isinstance(key[0], str)} == {
            "activity", "activity_prefix", "activity_stats", "candidates"}

    def test_budget_eviction_is_lru_and_bounded(self, fresh_level_cache):
        compiled = self.make_compiled()
        self.run_once(compiled, cycles=300, controller="booster", seed=0)
        stats = level_cache_stats()
        assert 0 < stats["bytes"] <= stats["budget_bytes"]
        # Shrinking the budget evicts down to the new bound immediately.
        old_budget = set_level_cache_budget(stats["bytes"] // 2)
        try:
            assert level_cache_stats()["bytes"] <= stats["bytes"] // 2
        finally:
            set_level_cache_budget(old_budget)

    def test_builder_fingerprint_shares_across_rebuilds(self, fresh_level_cache):
        """Two compiled instances of the same WorkloadSpec share entries via
        the builder-attached fingerprint (the sweep-worker pattern)."""
        from repro.sweep import clear_workload_cache
        compiled_a = self.make_compiled(label="cache-fp")
        self.run_once(compiled_a, cycles=200, controller="booster", seed=3)
        misses_before = level_cache_stats()["misses"]
        clear_workload_cache()                     # force a fresh build
        compiled_b = self.make_compiled(label="cache-fp")
        assert compiled_a is not compiled_b
        assert compiled_a.cache_key == compiled_b.cache_key
        self.run_once(compiled_b, cycles=200, controller="booster", seed=3)
        assert level_cache_stats()["misses"] == misses_before


class TestCandidateMasks:
    """The span kernel binds every level it visits as a windowed candidate
    byte mask, cached in the level cache and shared by every later run on
    the same physics.  Neither windowing nor sharing may move a result
    bit."""

    KWARGS = dict(cycles=600, controller="booster", beta=4,
                  recompute_cycles=4, flip_mean=0.8, monitor_noise=0.01,
                  seed=2)

    @staticmethod
    def cached_masks():
        return {key: value for key, value in LEVEL_CACHE._entries.items()
                if key[0] == "candidates"}

    @staticmethod
    def metrics(result):
        return {name: getattr(result, name) for name in METRIC_NAMES}

    @pytest.mark.parametrize("traces", ["full", "none"])
    def test_one_mask_per_visited_level_reused_by_a_repeat(
            self, fresh_level_cache, traces):
        compiled = build_compiled_workload(contained_sets_spec("masks"))
        kwargs = dict(self.KWARGS, traces=traces)
        # The levels each group visits, from the oracle (no level cache).
        reference = simulate(compiled, RuntimeConfig(engine="reference",
                                                     **kwargs))
        visited = {(g.group_id, int(level)) for g in reference.group_results
                   for level in np.unique(g.level_trace)}
        assert any(level != g.safe_level for g in reference.group_results
                   for level in np.unique(g.level_trace))  # groups climbed

        cold = simulate(compiled, RuntimeConfig(**kwargs))
        masks = self.cached_masks()
        assert {(key[2], key[3]) for key in masks} == visited
        assert not [key for key, value in LEVEL_CACHE._entries.items()
                    if isinstance(value, LevelEntry)]

        warm = simulate(compiled, RuntimeConfig(**kwargs))
        again = self.cached_masks()
        assert again.keys() == masks.keys()
        assert all(again[key] is masks[key] for key in masks)
        assert self.metrics(warm) == self.metrics(cold)
        assert self.metrics(cold) == pytest.approx(self.metrics(reference),
                                                   rel=1e-9)

    @pytest.mark.parametrize("controller", ["dvfs", "booster_safe"])
    def test_one_full_horizon_mask_per_group_without_level_changes(
            self, fresh_level_cache, controller):
        """A run whose levels never change binds each group's one level as
        one candidate mask derived over the whole horizon up front, and
        builds no candidate-bearing entry; at a failure-dense point it
        matches the oracle chain."""
        compiled = build_compiled_workload(contained_sets_spec("masks"))
        kwargs = dict(self.KWARGS, controller=controller, **DVFS_DENSE_STRESS)
        result = assert_oracle_chain(compiled, **kwargs)
        assert result.total_failures > 50

        clear_level_cache()
        simulate(compiled, RuntimeConfig(**kwargs))
        masks = self.cached_masks()
        assert sorted(key[2] for key in masks) == \
            sorted(g.group_id for g in result.group_results)
        assert all(streams.upto == kwargs["cycles"]
                   for streams in masks.values())
        assert not [key for key, value in LEVEL_CACHE._entries.items()
                    if isinstance(value, LevelEntry)]

    @pytest.mark.parametrize("spec", [
        contained_sets_spec("masks-full"),
        synthetic_spec("masks-full-2sets")], ids=["one-set", "two-sets"])
    def test_refilled_mask_equals_full_horizon_fail_mask(
            self, fresh_level_cache, spec):
        compiled = build_compiled_workload(spec)
        engine = _VectorizedEngine(PIMRuntime(compiled, RuntimeConfig(
            traces="none", **dict(self.KWARGS, cycles=3000))))
        run_engines([engine])
        masks = self.cached_masks().values()
        assert any(streams.upto < engine.n for streams in masks)  # windowed
        for streams in masks:
            gid, pair = streams.gid, streams.pair
            lo, hi = engine.group_rows[gid]
            width = hi - lo
            assert streams.refill(engine, 1, engine.n * width) \
                == engine.n * width
            assert streams.upto == engine.n
            codes = np.zeros(width, dtype=np.uint8)
            for code, rows in enumerate(engine._group_sets(gid), 1):
                codes[rows - lo] = code
            drop = engine.ir_model.drop_array(engine.A[lo:hi], pair.voltage,
                                              pair.frequency)
            full = engine._fail_mask(gid, pair, drop)
            assert bytes(streams.mask) == (full.T * codes).tobytes()

    def test_group_beyond_a_mask_byte_matches_reference(
            self, fresh_level_cache):
        """One group of 260 one-macro Sets: more Set codes than a byte
        holds, so the group runs under the heap scheduler whatever the
        controller (each at a point where it fails)."""
        compiled = build_compiled_workload(synthetic_spec(
            "masks-wide", groups=1, macros_per_group=260, operator_rows=8,
            n_operators=260))
        for controller, stress in (("booster", {}),
                                   ("booster_safe", DVFS_DENSE_STRESS),
                                   ("dvfs", DVFS_DENSE_STRESS)):
            kwargs = dict(FAILURE_DENSE_STRESS, cycles=300,
                          controller=controller, **stress)
            engine = _VectorizedEngine(PIMRuntime(compiled,
                                                  RuntimeConfig(**kwargs)))
            engine._setup_structure()
            assert len(engine._group_sets(0)) > MAX_MASK_SETS
            assert engine.span_groups == [] and engine.heap_groups == [0], \
                controller
            result = assert_oracle_chain(compiled, **kwargs)
            assert result.total_failures > 100, controller


class TestNoDropMatrix:
    """Eq. 2 is the engine's only description of a level's drop: a
    full-trace run evaluates it over each group's activity and level
    trace, so the level cache holds activity forms and candidates, never a
    drop matrix, and the drop traces keep the reference loop's bits."""

    #: the level cache's values other than entries, by their key's tag
    KINDS = {"activity": ActivityTraces, "activity_prefix": np.ndarray,
             "activity_stats": tuple, "candidates": _LazyLevelStreams}

    @pytest.mark.parametrize("spec, kwargs, heap", [
        (contained_sets_spec("no-drop"), FAILURE_DENSE_STRESS, False),
        (contained_sets_spec("no-drop"),
         dict(FAILURE_DENSE_STRESS, controller="dvfs", **DVFS_DENSE_STRESS),
         False),
        (straddling_sets_spec("no-drop-heap"), FAILURE_DENSE_STRESS, True),
    ], ids=["span-booster", "span-dvfs", "heap-booster"])
    def test_full_trace_runs_keep_no_drop_matrix(self, fresh_level_cache,
                                                 spec, kwargs, heap):
        compiled = build_compiled_workload(spec)
        kwargs = dict(kwargs, cycles=600, traces="full")
        reference = simulate(compiled, RuntimeConfig(engine="reference",
                                                     **kwargs))
        assert reference.total_failures > 50
        for _ in range(2):                      # cold, then warm
            assert_results_equivalent(
                reference, simulate(compiled, RuntimeConfig(**kwargs)))

        entries = 0
        for key, value in LEVEL_CACHE._entries.items():
            assert key[0] != "drop_stack"
            if isinstance(value, LevelEntry):
                entries += 1
                assert set(vars(value)) == {"pair", "fail_cycles",
                                            "_fail_lists"}
                assert all(cycles.ndim == 1 for cycles in value.fail_cycles)
            else:
                assert isinstance(value, self.KINDS[key[0]]), key[0]
        assert (entries > 0) == heap            # only heap groups read them


class TestDefaultVFTable:
    def test_default_runtimes_of_one_chip_share_a_table(self):
        compiled = build_compiled_workload(contained_sets_spec("vf-share"))
        first = PIMRuntime(compiled, RuntimeConfig(cycles=100))
        second = PIMRuntime(compiled, RuntimeConfig(cycles=200, seed=3))
        assert first.table is second.table
        chip = compiled.chip_config
        assert first.table.nominal_voltage == chip.nominal_voltage
        assert first.table.signoff_ir_drop == chip.signoff_ir_drop

    def test_explicit_table_is_honoured(self):
        compiled = build_compiled_workload(contained_sets_spec("vf-share"))
        table = VFTable(nominal_voltage=0.8)
        runtime = PIMRuntime(compiled, RuntimeConfig(cycles=100), table=table)
        assert runtime.table is table
        assert PIMRuntime(compiled, RuntimeConfig()).table is not table


class TestAdvanceNofail:
    def make_controller(self, beta=7):
        table = VFTable()
        controller = IRBoosterController(table, beta=beta)
        controller.configure_group(0, group_hr=0.42)
        return controller

    def clone_states(self, controller):
        state = controller.state(0)
        return (state.safe_level, state.a_level, state.level, state.safe_counter,
                state.failures, state.level_ups, state.level_downs)

    @pytest.mark.parametrize("spans", [
        [30], [1, 1, 1, 5], [100], [7, 14, 15, 16], [3, 40, 2, 60],
    ])
    def test_matches_stepwise_execution(self, spans):
        """advance_nofail == the same number of step() calls, at any phase."""
        fast = self.make_controller()
        slow = self.make_controller()
        for span in spans:
            transitions = fast.advance_nofail(0, span)
            observed = []
            for _ in range(span):
                slow.step(0, ir_failure=False)
                observed.append(slow.state(0).level)
            assert self.clone_states(fast) == self.clone_states(slow)
            # Every reported transition matches the stepwise level at the
            # same offset, and between transitions the level is constant.
            for offset, level in transitions:
                assert observed[offset - 1] == level
            # interleave a failure to shift the phase
            fast.step(0, ir_failure=True)
            slow.step(0, ir_failure=True)
            assert self.clone_states(fast) == self.clone_states(slow)

    def test_level_trace_reconstruction(self):
        """The transitions reconstruct the exact per-cycle level trace."""
        fast = self.make_controller(beta=5)
        slow = self.make_controller(beta=5)
        n = 60
        stepwise = []
        for _ in range(n):
            stepwise.append(slow.state(0).level)
            slow.step(0, ir_failure=False)
        trace = []
        level = fast.state(0).level
        transitions = fast.advance_nofail(0, n)
        breaks = {offset: lvl for offset, lvl in transitions}
        for cycle in range(n):
            if cycle in breaks:
                level = breaks[cycle]
            trace.append(level)
        assert trace == stepwise

    def test_zero_steps_is_noop(self):
        controller = self.make_controller()
        before = self.clone_states(controller)
        assert controller.advance_nofail(0, 0) == []
        assert self.clone_states(controller) == before


class TestBatchedPrimitives:
    def test_flip_factor_matrix_matches_sequence(self):
        seeds = [17, 34, 51, 9]
        matrix = flip_factor_matrix(seeds, 256, mean=0.55, std=0.2,
                                    correlation=0.8)
        assert matrix.shape == (4, 256)
        for i, seed in enumerate(seeds):
            row = flip_factor_sequence(256, mean=0.55, std=0.2, correlation=0.8,
                                       seed=seed)
            assert np.array_equal(matrix[i], row)

    def test_flip_factor_matrix_cached_and_readonly(self):
        a = flip_factor_matrix([1, 2], 64)
        with pytest.raises(ValueError):
            a[0, 0] = 0.5

    def test_monitor_noise_is_cycle_indexed(self):
        sequential = IRMonitor(sensing_noise=0.01, seed=42)
        skipping = IRMonitor(sensing_noise=0.01, seed=42)
        dense = [sequential.noise_at(c) for c in range(20)]
        # Sampling only every third cycle must see the same per-cycle values.
        sparse = {c: skipping.noise_at(c) for c in range(0, 20, 3)}
        for cycle, value in sparse.items():
            assert value == dense[cycle]

    def test_monitor_batch_matches_scalar_sampling(self):
        """The engine's batched noise stream and its vectorized failure
        compare reproduce the scalar monitor cycle for cycle."""
        noise = IRMonitor(sensing_noise=0.01, seed=7).noise_for_cycles(200)
        scalar = IRMonitor(sensing_noise=0.01, seed=7)
        assert np.array_equal(noise, [scalar.noise_at(c) for c in range(200)])
        sampler = IRMonitor(sensing_noise=0.01, seed=7)
        rng = np.random.default_rng(0)
        effective = 0.65 + rng.normal(0.0, 0.01, size=200)
        expected = [sampler.sample(c, float(effective[c]), 0.65)
                    for c in range(200)]
        assert np.array_equal(effective + noise < 0.65, expected)
        assert sampler.failure_count == int(np.sum(expected))

    def test_monitor_reading_cap(self):
        monitor = IRMonitor(sensing_noise=0.0, max_readings=10)
        for cycle in range(50):
            monitor.sample(cycle, 0.7, 0.65)
        assert len(monitor.readings) == 10
        assert monitor.readings[-1].cycle == 49
        assert monitor.failure_count == 0                # counters still global

    def test_accumulate_cycles_matches_scalar(self):
        """The engine's closed-form span accumulation, one span per cycle,
        equals looped scalar accumulation."""
        model = EnergyModel()
        rng = np.random.default_rng(3)
        n = 300
        activity = rng.uniform(0.1, 0.9, size=n)
        stalled = rng.random(n) < 0.2
        voltages = rng.choice([0.71, 0.68, 0.75], size=n)
        frequencies = rng.choice([0.9e9, 1.0e9, 1.1e9], size=n)
        scalar = EnergyBreakdown()
        for act, stall, volt, freq in zip(activity, stalled, voltages,
                                          frequencies):
            model.accumulate_cycle(scalar, float(volt), float(freq),
                                   float(act), 2.5, stalled=bool(stall))
        (spanned,) = model.span_breakdowns(
            np.zeros(n, dtype=np.int64), voltages, frequencies, np.ones(n),
            activity, np.array([np.sum((activity * voltages ** 2)[stalled])]),
            np.array([n - stalled.sum()]), np.array([2.5]))
        assert spanned.dynamic_energy == pytest.approx(scalar.dynamic_energy)
        assert spanned.static_energy == pytest.approx(scalar.static_energy)
        assert spanned.elapsed_time == pytest.approx(scalar.elapsed_time)
        assert spanned.completed_macs == pytest.approx(scalar.completed_macs)


def test_vectorized_results_stay_independently_mutable(fresh_level_cache):
    """Cached activity traces are shared read-only inside the engine, but the
    results hand out private writable copies (the PR-2 API)."""
    spec = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                        banks=4, rows=8, n_operators=4, label="mutable-res")
    compiled = build_compiled_workload(spec)
    config = dict(cycles=120, controller="booster", seed=0)
    first = simulate(compiled, RuntimeConfig(**config))
    second = simulate(compiled, RuntimeConfig(**config))   # warm-cache run
    trace = second.macro_results[0].rtog_trace
    assert trace is not first.macro_results[0].rtog_trace
    original = first.macro_results[0].rtog_trace.copy()
    trace *= 0.5                                           # must not raise
    assert np.array_equal(first.macro_results[0].rtog_trace, original)
