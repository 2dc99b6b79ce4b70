"""Scalar-record fast path (``RuntimeConfig.traces == "none"``) equivalence.

The scalar materialization must produce scalar records equivalent to the
full-trace reference loop — discrete fields (failures, stalls, levels)
bit-identical, float reductions (energy, mean drop, elapsed time) to 1e-9
rtol, and extremal statistics (worst drop, peak Rtog) exactly equal — across
all three controllers, both operating modes, both sweep seed modes, the
shared-corpus stress axes, and every engine variant of the oracle chain,
including workloads whose logical Sets straddle group boundaries (the
coupled-group heap path).  The vectorized engine's full-trace runs take the
same scalar pass plus the trace gathers, so every scalar they report equals
the trace-free run's exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.sim import PIMRuntime, RuntimeConfig, simulate
from repro.sim.engine import _VectorizedEngine
from repro.sim.ensemble import run_engines
from repro.sweep import (
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    build_compiled_workload,
)
from repro.sweep.records import METRIC_NAMES

from tests.helpers import (
    ENGINE_VARIANTS,
    EXACT_METRICS,
    STRESS_AXES,
    assert_results_equivalent,
    assert_scalar_equivalent,
    assert_trace_modes_agree,
    assert_trace_modes_equal,
    contained_sets_spec,
    corpus_scenarios,
    run_engine_variant,
    straddling_sets_spec,
    synthetic_spec,
)


def contained_sets_workload(label="scalar-contained"):
    """Independent groups only (Sets inside groups): the kernel paths."""
    return build_compiled_workload(contained_sets_spec(label))


def straddling_sets_workload(label="scalar-straddle"):
    """Two-macro Sets over three-macro groups: the coupled heap path."""
    return build_compiled_workload(straddling_sets_spec(label))


class TestScalarEquivalence:
    @pytest.mark.parametrize("controller", ["dvfs", "booster_safe", "booster"])
    @pytest.mark.parametrize("mode", ["low_power", "sprint"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_controllers_modes_seeds(self, controller, mode, seed):
        compiled = contained_sets_workload()
        assert_trace_modes_agree(compiled, cycles=400, controller=controller,
                                 mode=mode, seed=seed)

    @pytest.mark.parametrize("stress", STRESS_AXES)
    def test_stress_axes(self, stress):
        compiled = contained_sets_workload()
        assert_trace_modes_agree(compiled, cycles=500, controller="booster",
                                 seed=7, **stress)

    @pytest.mark.parametrize("controller", ["dvfs", "booster_safe", "booster"])
    def test_group_straddling_sets(self, controller):
        """Coupled groups run the heap scheduler; the scalar materialization
        consumes its scalar logs identically."""
        compiled = straddling_sets_workload()
        full = assert_trace_modes_agree(
            compiled, cycles=500, controller=controller, beta=4,
            recompute_cycles=10, flip_mean=0.8, monitor_noise=0.01, seed=7)
        if controller != "dvfs":                 # the stress must bite
            assert full.total_failures > 50

    @pytest.mark.parametrize("controller", ["booster_safe", "booster"])
    def test_engine_variants_agree(self, controller):
        """Every engine variant matches the reference on scalar records:
        windowed and cached ladder streams and a batch all feed the same
        scalar materialization."""
        compiled = contained_sets_workload()
        kwargs = dict(cycles=500, controller=controller, beta=4,
                      recompute_cycles=10, flip_mean=0.8, monitor_noise=0.01,
                      seed=7)
        reference = run_engine_variant(compiled, "reference", **kwargs)
        for variant in ENGINE_VARIANTS[1:]:
            result = run_engine_variant(compiled, variant, traces="none",
                                        **kwargs)
            assert_scalar_equivalent(reference, result)

    @pytest.mark.parametrize("scenario", corpus_scenarios()[:3],
                             ids=lambda s: s.label)
    def test_scalar_corpus_scenarios(self, scenario):
        """Corpus draws through the scalar fast path: every engine variant
        must match the full-trace reference."""
        compiled = scenario.compiled()
        reference = run_engine_variant(compiled, "reference",
                                       **scenario.kwargs)
        for variant in ENGINE_VARIANTS[1:]:
            result = run_engine_variant(compiled, variant, traces="none",
                                        **scenario.kwargs)
            assert_scalar_equivalent(reference, result)

    def test_booster_windows_crossing_level_spans(self):
        """The stress@64 shape under a long recompute window: windows
        outlast the booster's level spans, so the scalar materialization's
        stall corrections split one window over several table entries."""
        compiled = build_compiled_workload(synthetic_spec(
            "scalar-stress64", groups=16, rows=16, operator_rows=32,
            n_operators=32))
        kwargs = dict(cycles=2000, controller="booster", recompute_cycles=32,
                      beta=10, flip_mean=0.9, monitor_noise=0.035, seed=5)
        reference = simulate(compiled,
                             RuntimeConfig(engine="reference", **kwargs))
        full = simulate(compiled, RuntimeConfig(traces="full", **kwargs))
        engine = _VectorizedEngine(PIMRuntime(
            compiled, RuntimeConfig(traces="none", **kwargs)))
        scalar, = run_engines([engine])
        assert_results_equivalent(reference, full)
        assert_trace_modes_equal(full, scalar)

        # Level spans crossed by each logged recompute window.
        rows, starts = engine._logged_stall_windows()
        ends = np.minimum(starts + kwargs["recompute_cycles"], engine.n)
        crossed = []
        for gid in engine.groups:
            lo, hi = engine.group_rows[gid]
            mine = (rows >= lo) & (rows < hi)
            span_starts, _, _ = engine._group_spans(gid)
            crossed.append(
                np.searchsorted(span_starts, ends[mine] - 1, side="right")
                - np.searchsorted(span_starts, starts[mine], side="right")
                + 1)
        assert np.concatenate(crossed).max() >= 3

    @pytest.mark.parametrize("controller", ["dvfs", "booster"])
    def test_workload_without_loaded_macros(self, controller):
        """No loaded macro: an empty span table materializes empty records."""
        compiled = build_compiled_workload(
            synthetic_spec("scalar-empty", n_operators=0))
        full = assert_trace_modes_agree(compiled, cycles=50,
                                        controller=controller)
        assert full.macro_results == []

    def test_reference_engine_ignores_traces(self):
        """The oracle always materializes traces, whatever the config says."""
        compiled = contained_sets_workload()
        result = simulate(compiled, RuntimeConfig(
            cycles=200, controller="booster", seed=0, engine="reference",
            traces="none"))
        assert result.macro_results[0].drop_trace is not None

    def test_unknown_traces_mode_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(traces="some").validate()


class TestSweepTraces:
    def spec(self, traces, seed_mode="per_point"):
        workload = WorkloadSpec(
            builder="synthetic", groups=4, macros_per_group=2, banks=4,
            rows=8, operator_rows=16, n_operators=4, code_spread=30.0,
            mapping="sequential", label="scalar-sweep")
        return SweepSpec(name="scalar-sweep", workloads=(workload,),
                         controllers=("booster", "booster_safe", "dvfs"),
                         betas=(5, 20), cycles=300, flip_means=(0.8,),
                         monitor_noises=(0.01,), seeds=2, master_seed=3,
                         seed_mode=seed_mode, traces=traces)

    def test_sweeps_default_to_scalar_fast_path(self):
        assert SweepSpec().traces == "none"
        run = self.spec("none").expand()[0]
        assert run.traces == "none"
        assert run.runtime_config().traces == "none"

    @pytest.mark.parametrize("seed_mode", ["per_point", "shared"])
    def test_records_equivalent_both_seed_modes(self, seed_mode):
        """Both trace modes give exactly the same records, and every record
        matches the reference loop's run of the same config."""
        spec = self.spec("none", seed_mode)
        full = SweepRunner(self.spec("full", seed_mode),
                           SerialExecutor()).run()
        scalar = SweepRunner(spec, SerialExecutor()).run()
        assert ([record.to_json_dict() for record in full.sorted_records()]
                == [record.to_json_dict()
                    for record in scalar.sorted_records()])
        runs = {run.run_id: run for run in spec.expand()}
        for fast in scalar.sorted_records():
            run = runs[fast.run_id]
            reference = simulate(
                build_compiled_workload(run.workload),
                dataclasses.replace(run.runtime_config(), engine="reference"))
            for name in METRIC_NAMES:
                value = getattr(reference, name)
                if name in EXACT_METRICS:
                    assert value == fast.metrics[name], (fast.run_id, name)
                else:
                    assert np.isclose(value, fast.metrics[name], rtol=1e-9,
                                      atol=0.0), (fast.run_id, name)

    def test_traces_survive_json_roundtrip(self):
        spec = self.spec("full")
        restored = SweepSpec.from_json_dict(spec.to_json_dict())
        assert restored.traces == "full"
        assert restored == spec
        # Pre-traces result files default to the fast path on load.
        data = spec.to_json_dict()
        del data["traces"]
        assert SweepSpec.from_json_dict(data).traces == "none"

    def test_traces_not_part_of_point_key(self):
        """Traces change materialization, not identity: a run sits at the
        same grid point under either mode."""
        full_run = self.spec("full").expand()[0]
        none_run = self.spec("none").expand()[0]
        assert full_run.point_key == none_run.point_key

    def test_unknown_traces_rejected(self):
        with pytest.raises(ValueError):
            self.spec("deep")
