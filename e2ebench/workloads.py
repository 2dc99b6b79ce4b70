"""The benchmark's workloads: the sweeps each one submits, from its seed.

Every workload uses default settings only (default executor, no
``ensembles=`` option, default ``SweepService(data_dir)``), so a later change
to a default or the removal of a knob shows in the numbers.  The workload
seed becomes each spec's ``master_seed``; the program receives only the
generated specs.  Why each workload exists is recorded in BENCHMARK.json
and README.md.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sweep import SweepSpec, WorkloadSpec

#: ``kind`` of each workload: a library call or a daemon behind HTTP.
KINDS: Dict[str, str] = {
    "stress-events": "library",
    "tiny-streamed": "daemon",
}

#: The ``stress@64`` synthetic fill: the paper's 64-macro reference
#: geometry (16 groups x 4 macros) with two-macro logical Sets.
STRESS64 = WorkloadSpec(builder="synthetic", groups=16, macros_per_group=4,
                        banks=4, rows=16, operator_rows=32, n_operators=32,
                        code_spread=30.0, mapping="sequential",
                        label="stress@64")

#: A 2x2-macro chip whose runs are a few milliseconds of engine work.
TINY2X2 = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                       banks=4, rows=8, n_operators=4, label="tiny2x2")


def _tiny(name: str, betas: Tuple[int, ...], seed: int) -> SweepSpec:
    """A Fig-18-style shared-seed sweep of short runs on the tiny chip."""
    return SweepSpec(name=name, workloads=(TINY2X2,),
                     controllers=("booster", "dvfs"),
                     modes=("low_power", "sprint"), betas=betas, cycles=400,
                     monitor_noises=(0.003, 0.02), seeds=1,
                     master_seed=seed, seed_mode="shared")


def specs(workload: str, seed: int) -> Tuple[SweepSpec, ...]:
    """The sweeps ``workload`` submits, in submission order."""
    if workload == "stress-events":
        return (SweepSpec(name="stress-events", workloads=(STRESS64,),
                          controllers=("booster",), betas=(10, 50, 90),
                          cycles=8000, recompute_cycles=32,
                          flip_means=(0.9,), monitor_noises=(0.035,),
                          seeds=8, master_seed=seed),)
    if workload == "tiny-streamed":
        # The long job is tailed by the watcher; the short one is submitted
        # right behind it and shares the fleet in fair-share rounds.
        return (_tiny("tiny-long", tuple(range(10, 250, 10)), seed),
                _tiny("tiny-short", tuple(range(15, 95, 10)), seed + 1))
    raise KeyError(f"unknown workload {workload!r}; "
                   f"expected one of {sorted(KINDS)}")
