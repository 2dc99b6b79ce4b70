"""Parallel multi-seed beta sweep: Fig. 18 in miniature, via ``repro.sweep``.

Sweeps the Algorithm-2 beta window for IR-Booster on a QAT-trained ViT,
simulating every grid point over a seed ensemble, in parallel across CPU
cores, and prints each point's mean and bootstrap 95 % confidence interval.
Also demonstrates checkpoint/resume: the sweep persists into a record store
(a temporary directory) and is re-run over it — the second invocation
executes nothing and aggregates identically.

Run with:  python examples/beta_sweep_portfolio.py
"""

import os
import tempfile

from repro.sweep import PoolExecutor, SerialExecutor, SweepRunner, SweepSpec, WorkloadSpec


def main() -> None:
    # The full paper flow per worker: QAT (+LHR), WDS(16), HR-aware mapping,
    # compiled onto a reduced 16-macro chip so the example stays quick.
    workload = WorkloadSpec(builder="model", model="vit", lhr=True,
                            wds_delta=16, mapping="hr_aware",
                            groups=8, macros_per_group=2, banks=4, rows=32,
                            label="vit")

    spec = SweepSpec(name="beta-sweep", workloads=(workload,),
                     controllers=("booster",), modes=("sprint",),
                     betas=(10, 30, 50, 70, 90), cycles=1000,
                     seeds=3, master_seed=0)

    cores = os.cpu_count() or 1
    executor = PoolExecutor() if cores >= 2 else SerialExecutor()
    print(f"{spec.n_runs} runs ({spec.n_points} grid points x {spec.seeds} seeds) "
          f"on {cores} core(s) ...")

    with tempfile.TemporaryDirectory(prefix="beta_sweep-") as store:
        result = SweepRunner(spec, executor).run(store=store)

        print(f"\n{'beta':>6} | {'IRFailures (mean [95% CI])':>30} | "
              f"{'stall cycles':>12} | {'mean IR-drop (mV)':>18}")
        for point in result.aggregate():
            failures = point.stats["total_failures"]
            stalls = point.stats["total_stall_cycles"]
            drop = point.stats["mean_ir_drop"]
            print(f"{point.axes['beta']:>6} | "
                  f"{failures.mean:8.1f} [{failures.ci_low:6.1f}, {failures.ci_high:6.1f}] | "
                  f"{stalls.mean:12.1f} | {drop.mean * 1e3:18.2f}")

        # Resume: every record already exists in the store, so this executes
        # zero simulations and aggregates bit-identically.
        resumed = SweepRunner(spec, SerialExecutor()).run(store=store)
        assert [r.run_id for r in resumed.sorted_records()] == \
            [r.run_id for r in result.sorted_records()]
        print(f"\nResumed from {store}: {len(resumed.records)} records, "
              "0 re-executed.")


if __name__ == "__main__":
    main()
