"""Shared test helpers (imported as ``tests.helpers``).

Besides the operator factories, this module is the *property-test corpus* for
the simulation engine suites: one seeded source of randomized scenarios
(geometry x controller x mode x stress x straddling-Sets) plus the engine
oracle chain — ``reference -> lone-cold -> lone-repeat -> batch`` — and the
equivalence assertions the chain is judged by.  ``tests/test_kernels.py``,
``tests/test_sim_engine.py`` and ``tests/test_scalar_records.py`` all draw
from here, so every suite stresses the same scenario space and a new engine
variant only has to join the chain once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.pim.dataflow import Operator


def make_operator(name: str, rows: int, cols: int, kind: str = "conv", bits: int = 8,
                  seed: int = 0, spread: float = 20.0, wds_delta: int = 0) -> Operator:
    """Random integer operator with a zero-centred, bell-shaped code distribution.

    ``spread`` is the Laplace scale of the codes: small spreads give low-HR
    operators, large spreads give high-HR operators, which lets tests construct
    workloads with controlled HR contrast.
    """
    generator = np.random.default_rng(seed)
    qmax = (1 << (bits - 1)) - 1
    codes = np.clip(np.round(generator.laplace(0.0, spread, size=(rows, cols))),
                    -qmax - 1, qmax).astype(np.int64)
    return Operator(name=name, kind=kind, codes=codes, bits=bits, wds_delta=wds_delta)


def bell_shaped_codes(size, spread: float = 15.0, seed: int = 0, bits: int = 8) -> np.ndarray:
    """Laplace-distributed integer codes clipped to the two's-complement range."""
    generator = np.random.default_rng(seed)
    qmax = (1 << (bits - 1)) - 1
    return np.clip(np.round(generator.laplace(0.0, spread, size=size)),
                   -qmax - 1, qmax).astype(np.int64)


# ---------------------------------------------------------------------- #
# scenario corpus: workloads
# ---------------------------------------------------------------------- #
def synthetic_spec(label: str, **overrides):
    """The suites' canonical synthetic workload: contained 2-macro Sets on an
    even tiling (every group takes the kernel paths) unless overridden."""
    from repro.sweep import WorkloadSpec
    params = dict(builder="synthetic", groups=6, macros_per_group=4, banks=4,
                  rows=8, operator_rows=16, n_operators=12, code_spread=30.0,
                  mapping="sequential", label=label)
    params.update(overrides)
    return WorkloadSpec(**params)


def contained_sets_spec(label: str = "corpus-contained", **overrides):
    """Independent groups only (Sets inside groups): the kernel paths."""
    return synthetic_spec(label, macros_per_group=2, n_operators=6, **overrides)


def straddling_sets_spec(label: str = "corpus-straddle", **overrides):
    """Two-macro Sets over three-macro groups: the coupled heap path."""
    return synthetic_spec(label, macros_per_group=3, n_operators=9, **overrides)


def random_workload_spec(label: str, rng: np.random.Generator,
                         coupling: str = "contained"):
    """Draw a synthetic workload geometry from the corpus distribution.

    ``coupling`` selects the event path mix: ``"contained"`` keeps every
    logical Set inside a group (Set size divides the group), ``"straddling"``
    forces 2-macro Sets across 3-macro groups (the heap scheduler), and
    ``"mixed"`` scatters Sets with the hr_aware mapping so both paths run in
    one simulation.
    """
    rows = 8
    if coupling == "straddling":
        macros_per_group, set_size, mapping = 3, 2, "sequential"
    elif coupling == "mixed":
        macros_per_group = int(rng.integers(2, 5))
        set_size = int(rng.choice([1, 2]))
        mapping = "hr_aware"
    elif coupling == "contained":
        macros_per_group = int(rng.choice([2, 4]))
        set_size = int(rng.choice(
            [size for size in (1, 2, 4) if macros_per_group % size == 0]))
        mapping = "sequential"
    else:
        raise ValueError(f"unknown coupling {coupling!r}")
    return synthetic_spec(
        label,
        groups=int(rng.integers(3, 8)),
        macros_per_group=macros_per_group,
        operator_rows=rows * set_size,
        n_operators=int(rng.integers(4, 14)),
        mapping=mapping)


# ---------------------------------------------------------------------- #
# scenario corpus: runtime knobs
# ---------------------------------------------------------------------- #
#: The suites' shared failure-dense stress point (booster, tight beta, long
#: recompute windows): dense enough that equivalence bugs cannot hide.
FAILURE_DENSE_STRESS = dict(controller="booster", beta=4, recompute_cycles=10,
                            flip_mean=0.8, monitor_noise=0.01, seed=7)

#: Flip and noise settings at which even the ``dvfs`` signoff level fails
#: densely (``FAILURE_DENSE_STRESS``'s barely bite it).
DVFS_DENSE_STRESS = dict(flip_mean=0.9, monitor_noise=0.035)

#: Stress axes for trace-vs-scalar and engine-variant sweeps: each entry
#: isolates one regime (dense bursts, long stalls, zero recompute, zero
#: noise, heavy-tailed flips).
STRESS_AXES = (
    dict(beta=4, recompute_cycles=10, flip_mean=0.8, monitor_noise=0.01),
    dict(beta=10, recompute_cycles=25, flip_mean=0.75, monitor_noise=0.006),
    dict(recompute_cycles=0, flip_mean=0.8, monitor_noise=0.01),
    dict(monitor_noise=0.0),
    dict(flip_std=0.3, flip_correlation=0.9, monitor_noise=0.008),
)


def random_runtime_kwargs(rng: np.random.Generator) -> Dict:
    """Draw runtime knobs (controller x mode x stress) from the corpus
    distribution; ~half the draws land in failure-dense territory."""
    kwargs = dict(
        cycles=int(rng.integers(200, 600)),
        controller=str(rng.choice(["dvfs", "booster_safe", "booster"])),
        mode=str(rng.choice(["low_power", "sprint"])),
        beta=int(rng.integers(3, 30)),
        recompute_cycles=int(rng.integers(0, 15)),
        flip_mean=float(rng.uniform(0.6, 0.9)),
        flip_std=float(rng.uniform(0.1, 0.3)),
        flip_correlation=float(rng.uniform(0.5, 0.9)),
        monitor_noise=float(rng.uniform(0.0, 0.025)),
        seed=int(rng.integers(0, 1000)),
    )
    if rng.random() < 0.5:                      # force a failure-dense point
        kwargs.update(beta=int(rng.integers(3, 8)),
                      flip_mean=float(rng.uniform(0.8, 0.9)),
                      monitor_noise=float(rng.uniform(0.01, 0.025)))
    return kwargs


@dataclass(frozen=True)
class Scenario:
    """One corpus draw: a workload spec plus the runtime kwargs to run it."""
    label: str
    workload: object                            # WorkloadSpec
    kwargs: Dict

    def compiled(self):
        from repro.sweep import build_compiled_workload
        return build_compiled_workload(self.workload)


def corpus_scenarios(count: int = 9, master_seed: int = 2025) -> Tuple[Scenario, ...]:
    """The seeded scenario corpus: ``count`` deterministic draws cycling
    through the contained/straddling/mixed coupling regimes."""
    couplings = ("contained", "straddling", "mixed")
    scenarios = []
    for index in range(count):
        rng = np.random.default_rng((master_seed, index))
        coupling = couplings[index % len(couplings)]
        workload = random_workload_spec(f"corpus-{index}-{coupling}", rng,
                                        coupling=coupling)
        kwargs = random_runtime_kwargs(rng)
        scenarios.append(Scenario(
            label=f"{index}-{coupling}-{kwargs['controller']}",
            workload=workload, kwargs=kwargs))
    return tuple(scenarios)


# ---------------------------------------------------------------------- #
# the engine oracle chain
# ---------------------------------------------------------------------- #
#: Every engine variant, oracle first.  The event engine is one flow (a lone
#: run is a batch of one); its variants differ in what the process-level
#: level cache holds and in the batch size:
#:
#: * ``lone-cold`` — a lone run on a cleared cache, which derives every
#:   level it visits; a span group binds each as a candidate mask, refilled
#:   window by window as a ``booster`` run reaches it;
#: * ``lone-repeat`` — the same run repeated, which binds the cold run's
#:   cached entries and candidate masks, the masks already refilled;
#: * ``batch`` — a batch of two members (a second seed), compared on its
#:   first member: batched activity and the span kernels run group-major.
#:
#: Every variant must stay bit-identical on discrete outcomes.
ENGINE_VARIANTS = ("reference", "lone-cold", "lone-repeat", "batch")


def run_engine_variant(compiled, variant: str, table=None, **kwargs):
    """Run one simulation through the named engine variant."""
    from repro.sim import (PIMRuntime, RuntimeConfig, clear_level_cache,
                           run_ensemble, simulate)
    from repro.sim.engine import run_vectorized
    if variant == "reference":
        return simulate(compiled, RuntimeConfig(engine="reference", **kwargs),
                        table=table)
    config = RuntimeConfig(**kwargs)
    if variant in ("lone-cold", "lone-repeat"):
        clear_level_cache()
        result = run_vectorized(PIMRuntime(compiled, config, table=table))
        if variant == "lone-repeat":
            result = run_vectorized(PIMRuntime(compiled, config, table=table))
        return result
    if variant == "batch":
        other = dataclasses.replace(config, seed=config.seed + 1)
        return run_ensemble(compiled, [config, other], table=table)[0]
    raise ValueError(f"unknown engine variant {variant!r}")


def assert_oracle_chain(compiled, table=None, **kwargs):
    """Assert every engine variant reproduces the reference oracle.

    Returns the reference result so callers can add scenario-specific
    assertions (e.g. that the stress actually bit).
    """
    reference = run_engine_variant(compiled, "reference", table=table, **kwargs)
    for variant in ENGINE_VARIANTS[1:]:
        result = run_engine_variant(compiled, variant, table=table, **kwargs)
        assert_results_equivalent(reference, result)
    return reference


# ---------------------------------------------------------------------- #
# equivalence assertions
# ---------------------------------------------------------------------- #
def assert_results_equivalent(reference, vectorized):
    """Exact equality on discrete outcomes, traces and extremal statistics;
    tight allclose on energy, mean drop and mean level.

    The vectorized engine computes its scalars closed-form while the
    reference loop reduces its own traces, so this checks the scalar
    materialization against an independent source.
    """
    assert len(reference.macro_results) == len(vectorized.macro_results)
    for ref, vec in zip(reference.macro_results, vectorized.macro_results):
        assert ref.macro_index == vec.macro_index
        assert ref.failures == vec.failures
        assert ref.stall_cycles == vec.stall_cycles
        assert np.array_equal(ref.rtog_trace, vec.rtog_trace)
        assert np.array_equal(ref.drop_trace, vec.drop_trace)
        # Extremal statistics pick existing floats: exactly equal.
        assert ref.worst_drop == vec.worst_drop
        assert ref.peak_rtog == vec.peak_rtog
        assert ref.mean_rtog == vec.mean_rtog
        assert np.isclose(ref.mean_drop, vec.mean_drop, rtol=1e-9, atol=0.0)
        assert np.isclose(ref.energy.dynamic_energy, vec.energy.dynamic_energy,
                          rtol=1e-9)
        assert np.isclose(ref.energy.static_energy, vec.energy.static_energy,
                          rtol=1e-9)
        assert np.isclose(ref.energy.elapsed_time, vec.energy.elapsed_time,
                          rtol=1e-9)
        assert np.isclose(ref.energy.completed_macs, vec.energy.completed_macs,
                          rtol=1e-9)
    assert len(reference.group_results) == len(vectorized.group_results)
    for ref, vec in zip(reference.group_results, vectorized.group_results):
        assert ref.group_id == vec.group_id
        assert ref.safe_level == vec.safe_level
        assert ref.final_level == vec.final_level
        assert ref.failures == vec.failures
        assert np.array_equal(ref.level_trace, vec.level_trace)
        assert np.isclose(ref.mean_level, vec.mean_level, rtol=1e-12,
                          atol=0.0)
    assert np.array_equal(reference.chip_drop_trace, vectorized.chip_drop_trace)


#: Discrete record metrics that must be bit-identical across trace modes.
EXACT_METRICS = ("total_failures", "total_stall_cycles")


def assert_scalar_equivalent(reference, scalar, rtol=1e-9):
    """Scalar (``traces="none"``) result vs the reference loop's: the
    record-level contract — discrete fields bit-identical, float reductions
    to ``rtol``, extremal statistics exactly equal."""
    from repro.sweep.records import METRIC_NAMES
    assert scalar.chip_drop_trace is None
    assert len(reference.macro_results) == len(scalar.macro_results)
    for ref, fast in zip(reference.macro_results, scalar.macro_results):
        assert fast.rtog_trace is None and fast.drop_trace is None
        assert ref.macro_index == fast.macro_index
        assert ref.failures == fast.failures
        assert ref.stall_cycles == fast.stall_cycles
        # Extremal statistics pick existing floats: exactly equal.
        assert ref.worst_drop == fast.worst_drop
        assert ref.peak_rtog == fast.peak_rtog
        assert ref.mean_rtog == fast.mean_rtog
        assert np.isclose(ref.mean_drop, fast.mean_drop, rtol=rtol, atol=0.0)
        assert np.isclose(ref.energy.dynamic_energy, fast.energy.dynamic_energy,
                          rtol=rtol)
        assert np.isclose(ref.energy.static_energy, fast.energy.static_energy,
                          rtol=rtol)
        assert np.isclose(ref.energy.elapsed_time, fast.energy.elapsed_time,
                          rtol=rtol)
        assert ref.energy.completed_macs == fast.energy.completed_macs
    assert len(reference.group_results) == len(scalar.group_results)
    for ref, fast in zip(reference.group_results, scalar.group_results):
        assert fast.level_trace is None
        assert ref.group_id == fast.group_id
        assert ref.safe_level == fast.safe_level
        assert ref.final_level == fast.final_level
        assert ref.failures == fast.failures
        assert np.isclose(ref.mean_level, fast.mean_level, rtol=1e-12,
                          atol=0.0)
    for name in METRIC_NAMES:
        ref_value = getattr(reference, name)
        fast_value = getattr(scalar, name)
        if name in EXACT_METRICS:
            assert ref_value == fast_value, name
        else:
            assert np.isclose(ref_value, fast_value, rtol=rtol, atol=0.0), name


def scalar_fields(result) -> Dict:
    """Every scalar a result reports, keyed by ``(owner, field)``: each
    macro's energy components, failures, stalls and drop and Rtog
    statistics, each group's levels and failures, and the record metrics."""
    from repro.sweep.records import METRIC_NAMES
    fields = {}
    for macro in result.macro_results:
        owner = ("macro", macro.macro_index)
        for name, value in dataclasses.asdict(macro.energy).items():
            fields[owner + (name,)] = value
        for name in ("failures", "stall_cycles", "mean_drop", "worst_drop",
                     "mean_rtog", "peak_rtog"):
            fields[owner + (name,)] = getattr(macro, name)
    for group in result.group_results:
        owner = ("group", group.group_id)
        for name in ("safe_level", "final_level", "failures", "mean_level"):
            fields[owner + (name,)] = getattr(group, name)
    for name in METRIC_NAMES:
        fields[("record", name)] = getattr(result, name)
    return fields


def assert_trace_modes_equal(full, scalar):
    """A vectorized full-trace result and its trace-free twin: both take the
    same scalar pass, so every scalar field is exactly equal, and the
    trace-free result carries no trace."""
    assert scalar.chip_drop_trace is None
    assert all(macro.rtog_trace is None and macro.drop_trace is None
               for macro in scalar.macro_results)
    assert all(group.level_trace is None for group in scalar.group_results)
    full_fields, scalar_fields_ = scalar_fields(full), scalar_fields(scalar)
    assert full_fields.keys() == scalar_fields_.keys()
    differ = [key for key in full_fields
              if full_fields[key] != scalar_fields_[key]]
    assert not differ, differ


def assert_trace_modes_agree(compiled, **kwargs):
    """Run ``compiled`` on the reference loop and on the vectorized engine
    under both trace modes: the full-trace run must match the reference
    (:func:`assert_results_equivalent`) and the trace-free run must report
    exactly its scalars (:func:`assert_trace_modes_equal`).

    Returns the full-trace vectorized result.
    """
    from repro.sim import RuntimeConfig, simulate
    reference = simulate(compiled, RuntimeConfig(engine="reference", **kwargs))
    full = simulate(compiled, RuntimeConfig(traces="full", **kwargs))
    scalar = simulate(compiled, RuntimeConfig(traces="none", **kwargs))
    assert_results_equivalent(reference, full)
    assert_trace_modes_equal(full, scalar)
    return full
