"""Figures 19 and 20: component ablation and energy-efficiency stacking.

Expected shapes (paper):
* Fig. 19 — every added component (LHR -> +WDS -> +IR-Booster) improves IR-drop,
  power and effective TOPS over the baseline; conv workloads gain relatively
  more from LHR/WDS while transformer workloads lean on IR-Booster (their
  attention matmuls are input-determined);
* Fig. 20 — IR-Booster alone already improves energy efficiency (1.5-2.1x in the
  paper); adding LHR and then WDS increases the gain further.

Rebased onto the :mod:`repro.sweep` runner on the 64-macro reference chip: each
ablation step is one coupled sweep (compile variant paired with its
controller), every point an ``N_SEEDS`` ensemble.  Workload compiles are shared
between steps through the per-process builder cache.

Seeds are *shared* across ablation steps (``seed_mode="shared"``, common
random numbers): every step of a stack sees the same stochastic inputs, so
the step-to-step deltas the figures assert are differences of configuration,
not of seed draw — a deliberate re-baseline over the PR-2/PR-3 ``per_point``
records (noted in CHANGES.md).
"""

import pytest

from repro.analysis import format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sweep import SweepSpec, run_sweeps

from common import (
    HW_WORKLOADS,
    N_SEEDS,
    SIM_CYCLES,
    SWEEP_MASTER_SEED,
    assert_traces_equivalent,
    reference_workload_spec,
)

pytestmark = pytest.mark.sweep

#: Ablation steps: (label, lhr, wds_delta, mapping, controller)
STEPS = (
    ("baseline", False, None, "sequential", "dvfs"),
    ("+LHR", True, None, "sequential", "booster_safe"),
    ("+WDS(16)", True, 16, "sequential", "booster_safe"),
    ("+IR-Booster", True, 16, "hr_aware", "booster"),
)

#: Fig. 20 stacking: (label, lhr, wds_delta) — all run under the booster.
STACKING = (
    ("IR-Booster", False, None),
    ("IR-Booster+LHR", True, None),
    ("IR-Booster+LHR+WDS", True, 16),
)

MODE = BoosterMode.LOW_POWER


def _step_spec(name: str, lhr, wds, mapping, controller) -> SweepSpec:
    workloads = tuple(
        reference_workload_spec(model, lhr=lhr, wds_delta=wds, mapping=mapping,
                                mode=MODE, label=model)
        for model in HW_WORKLOADS)
    return SweepSpec(name=name, workloads=workloads, controllers=(controller,),
                     modes=(MODE,), betas=(50,), cycles=SIM_CYCLES,
                     seeds=N_SEEDS, master_seed=SWEEP_MASTER_SEED,
                     seed_mode="shared")


def test_fig19_ablation(benchmark):
    specs = [_step_spec(f"fig19/{label}", lhr, wds, mapping, controller)
             for label, lhr, wds, mapping, controller in STEPS]

    def run():
        results = run_sweeps(specs)
        data = {}
        for model in HW_WORKLOADS:
            data[model] = {
                label: results[f"fig19/{label}"].point(workload=model).stats
                for label, *_ in STEPS}
        return data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    # Scalar fast path (traces="none" by default): record equivalence
    # against the full-trace path, asserted on the baseline step outside
    # the timed region.
    assert_traces_equivalent(specs[0])
    print()
    for model, rows in data.items():
        table_rows = []
        for label, stats in rows.items():
            table_rows.append([label, f"{stats['worst_ir_drop'].mean * 1e3:.1f}",
                               f"{stats['average_macro_power_mw'].mean:.3f}",
                               f"{stats['effective_tops'].mean:.3f}"])
        print(format_table(["configuration", "worst IR-drop (mV)", "macro power (mW)",
                            "effective TOPS"], table_rows,
                           title=f"Fig 19 ablation — {model} @64-macro chip "
                                 "(low-power mode, ensemble means)"))

    for model, rows in data.items():
        baseline = rows["baseline"]
        full = rows["+IR-Booster"]
        # Each metric improves end to end.
        assert full["worst_ir_drop"].mean < baseline["worst_ir_drop"].mean, model
        assert full["average_macro_power_mw"].mean < \
            baseline["average_macro_power_mw"].mean, model
        # LHR/WDS monotonically reduce the drop among the software-only steps.
        assert rows["+WDS(16)"]["worst_ir_drop"].mean <= \
            rows["+LHR"]["worst_ir_drop"].mean + 1e-6, model


def test_fig20_energy_efficiency_stacking(benchmark):
    specs = [_step_spec("fig20/dvfs-baseline", False, None, "sequential", "dvfs")]
    specs += [_step_spec(f"fig20/{label}", lhr, wds, "sequential", "booster")
              for label, lhr, wds in STACKING]

    def run():
        results = run_sweeps(specs)
        gains = {}
        for model in HW_WORKLOADS:
            base_power = results["fig20/dvfs-baseline"].point(workload=model) \
                .stats["average_macro_power_mw"].mean
            gains[model] = {
                label: base_power / results[f"fig20/{label}"].point(workload=model)
                .stats["average_macro_power_mw"].mean
                for label, *_ in STACKING}
        return gains

    gains = benchmark.pedantic(run, rounds=1, iterations=1)
    # Scalar fast path: record equivalence on the DVFS baseline sweep,
    # outside the timed region.
    assert_traces_equivalent(specs[0])
    print()
    print(format_table(
        ["model", "IR-Booster", "+LHR", "+LHR+WDS"],
        [[m, format_ratio(g["IR-Booster"]), format_ratio(g["IR-Booster+LHR"]),
          format_ratio(g["IR-Booster+LHR+WDS"])] for m, g in gains.items()],
        title="Fig 20: energy-efficiency improvement over DVFS baseline "
              "@64-macro chip"))
    for model, g in gains.items():
        assert g["IR-Booster"] > 1.0, model
        assert g["IR-Booster+LHR+WDS"] >= g["IR-Booster"] - 0.05, model
