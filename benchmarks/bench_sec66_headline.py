"""Section 6.6 headline results: IR-drop mitigation, energy efficiency, speedup.

Expected shape (paper): on the 7nm 256-TOPS design AIM reduces the macro
IR-drop from the 140 mV signoff worst case to 43-58 mV (58.5-69.2 % mitigation),
improves per-macro energy efficiency by 1.91-2.29x, and raises effective
throughput by 1.129-1.152x.  The behavioural chip here is smaller, so the
absolute numbers differ, but AIM must mitigate IR-drop well below signoff,
cut per-macro power by roughly 2x in low-power mode, and gain >1x throughput in
sprint mode.

Rebased onto the :mod:`repro.sweep` runner and promoted to the paper-scale
64-macro reference chip: the portfolio (2 models x {baseline, AIM} x
{low-power, sprint}) is two coupled sweeps — the baseline compile is paired
with the DVFS controller and the full-AIM compile with the booster — each grid
point simulated over an ``N_SEEDS`` ensemble.
"""

import pytest

from repro.analysis import format_percent, format_ratio, format_table
from repro.core.ir_booster import BoosterMode
from repro.sweep import SweepSpec, run_sweeps

from common import (
    HW_WORKLOADS,
    N_SEEDS,
    REFERENCE_CHIP,
    SIM_CYCLES,
    SWEEP_MASTER_SEED,
    assert_traces_equivalent,
    reference_workload_spec,
)

pytestmark = pytest.mark.sweep

MODES = (BoosterMode.LOW_POWER, BoosterMode.SPRINT)


def _portfolio_specs():
    """One baseline sweep + one AIM sweep per mode (compile mode follows)."""
    specs = []
    for mode in MODES:
        baseline_workloads = tuple(
            reference_workload_spec(model, lhr=False, wds_delta=None,
                                    mapping="sequential", mode=mode,
                                    label=f"{model}:base")
            for model in HW_WORKLOADS)
        aim_workloads = tuple(
            reference_workload_spec(model, lhr=True, wds_delta=16,
                                    mapping="hr_aware", mode=mode,
                                    label=f"{model}:aim")
            for model in HW_WORKLOADS)
        common_axes = dict(modes=(mode,), betas=(50,), cycles=SIM_CYCLES,
                           seeds=N_SEEDS, master_seed=SWEEP_MASTER_SEED)
        specs.append(SweepSpec(name=f"sec66-base-{mode}",
                               workloads=baseline_workloads,
                               controllers=("dvfs",), **common_axes))
        specs.append(SweepSpec(name=f"sec66-aim-{mode}",
                               workloads=aim_workloads,
                               controllers=("booster",), **common_axes))
    return specs


def test_sec66_headline(benchmark):
    specs = _portfolio_specs()

    def run():
        results = run_sweeps(specs)
        rows = {}
        for model in HW_WORKLOADS:
            lp, sp = MODES
            base_lp = results[f"sec66-base-{lp}"].point(workload=f"{model}:base")
            aim_lp = results[f"sec66-aim-{lp}"].point(workload=f"{model}:aim")
            base_sp = results[f"sec66-base-{sp}"].point(workload=f"{model}:base")
            aim_sp = results[f"sec66-aim-{sp}"].point(workload=f"{model}:aim")
            signoff = REFERENCE_CHIP.signoff_ir_drop
            rows[model] = {
                "mitigation_lp":
                    1.0 - aim_lp.stats["worst_ir_drop"].mean / signoff,
                "mitigation_sp":
                    1.0 - aim_sp.stats["worst_ir_drop"].mean / signoff,
                "efficiency": base_lp.stats["average_macro_power_mw"].mean
                    / aim_lp.stats["average_macro_power_mw"].mean,
                "speedup": aim_sp.stats["effective_tops"].mean
                    / base_sp.stats["effective_tops"].mean,
                "baseline_power_mw": base_lp.stats["average_macro_power_mw"].mean,
                "aim_power_mw": aim_lp.stats["average_macro_power_mw"].mean,
                "aim_power_ci": (aim_lp.stats["average_macro_power_mw"].ci_low,
                                 aim_lp.stats["average_macro_power_mw"].ci_high),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Scalar fast path (traces="none" by default): record equivalence
    # against the full-trace path, asserted on the baseline portfolio
    # outside the timed region.
    assert_traces_equivalent(specs[0])
    print()
    print(format_table(
        ["model", "IR mitigation (LP)", "IR mitigation (sprint)", "energy eff.",
         "speedup", "macro mW base", "macro mW AIM (95% CI)"],
        [[m, format_percent(r["mitigation_lp"]), format_percent(r["mitigation_sp"]),
          format_ratio(r["efficiency"]), format_ratio(r["speedup"]),
          f"{r['baseline_power_mw']:.3f}",
          f"{r['aim_power_mw']:.3f} [{r['aim_power_ci'][0]:.3f}, "
          f"{r['aim_power_ci'][1]:.3f}]"]
         for m, r in rows.items()],
        title="Sec 6.6 headline on the 64-macro chip "
              "(paper: 58.5-69.2% mitigation, 1.91-2.29x, 1.129-1.152x)"))

    for model, r in rows.items():
        assert r["mitigation_lp"] > 0.4, model          # large mitigation vs signoff
        assert r["efficiency"] > 1.5, model             # ~2x energy efficiency
        assert r["speedup"] > 1.05, model               # >1.05x sprint-mode speedup
