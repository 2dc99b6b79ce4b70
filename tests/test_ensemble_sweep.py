"""Ensemble work units in the sweep stack.

Three contracts:

* :class:`~repro.sweep.spec.EnsembleSpec` grouping — pending runs batch by
  shared physics (:func:`~repro.sweep.spec.batch_key`), preserve expansion
  order, respect the member cap, and refuse mixed-physics members;
* cross-executor determinism — one randomized mini-sweep executed serial,
  pooled, supervised-pool-with-injected-faults and ensemble-batched (serial
  and pooled) produces bit-identical records and aggregates on every path;
* seed derivation — ``run_seed``/``ensemble_seed`` golden values are pinned
  and their ``SeedSequence`` spawn-key shapes stay disjoint, so no future
  refactor can silently reshuffle every sweep in the repo.
"""

import dataclasses

import numpy as np
import pytest

from repro.sim import clear_level_cache
from repro.store import ShardedRecordStore
from repro.sweep import (
    EnsembleSpec,
    PoolExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    batch_key,
    ensemble_seed,
    execute_ensemble,
    execute_run,
    group_into_ensembles,
    run_seed,
)
from repro.sweep.faults import FaultSpec, injected_faults


def mini_spec(seed_mode="per_point", traces="none"):
    """A randomized mini-sweep: two controllers x two betas x three seeds on
    one synthetic workload — big enough to exercise grouping, small enough
    for four executor passes in one test."""
    workload = WorkloadSpec(builder="synthetic", groups=4, macros_per_group=4,
                            banks=4, rows=8, operator_rows=16, n_operators=8,
                            code_spread=30.0, mapping="sequential",
                            label="ens-sweep")
    return SweepSpec(name="ens", workloads=(workload,),
                     controllers=("booster", "dvfs"), betas=(5, 20),
                     cycles=400, flip_means=(0.8,), monitor_noises=(0.01,),
                     seeds=3, master_seed=13, seed_mode=seed_mode,
                     traces=traces)


class TestEnsembleSpec:
    def test_grouping_preserves_order_and_physics(self):
        runs = mini_spec().expand()
        ensembles = group_into_ensembles(runs)
        flattened = [run for ens in ensembles for run in ens.runs]
        assert flattened == list(runs)             # expansion order kept
        assert sum(ens.n_runs for ens in ensembles) == len(runs)
        for ens in ensembles:
            keys = {batch_key(run) for run in ens.runs}
            assert len(keys) == 1

    def test_member_cap(self):
        runs = mini_spec().expand()
        ensembles = group_into_ensembles(runs, max_members=4)
        assert all(ens.n_runs <= 4 for ens in ensembles)
        assert sum(ens.n_runs for ens in ensembles) == len(runs)
        with pytest.raises(ValueError):
            group_into_ensembles(runs, max_members=0)

    def test_singleton_and_run_id(self):
        runs = mini_spec().expand()
        single = EnsembleSpec(runs=(runs[0],))
        assert single.n_runs == 1
        assert single.run_id == runs[0].run_id
        pair = EnsembleSpec(runs=tuple(runs[:2]))
        assert pair.run_id == f"{runs[0].run_id}(+1)"
        assert pair.workload == runs[0].workload

    def test_mixed_physics_rejected(self):
        runs = mini_spec().expand()
        other = dataclasses.replace(runs[1], flip_mean=0.42)
        with pytest.raises(ValueError):
            EnsembleSpec(runs=(runs[0], other))
        with pytest.raises(ValueError):
            EnsembleSpec(runs=())

    def test_execute_ensemble_matches_execute_run(self):
        runs = mini_spec().expand()[:4]
        clear_level_cache()
        batched = execute_ensemble(EnsembleSpec(runs=tuple(runs)))
        clear_level_cache()
        for run, record in zip(runs, batched):
            assert dataclasses.asdict(record) == \
                dataclasses.asdict(execute_run(run))


class TestCrossExecutorDeterminism:
    """The same mini-sweep must be bit-identical on every execution path."""

    @staticmethod
    def records_of(result):
        return {r.run_id: dataclasses.asdict(r) for r in result.records}

    @staticmethod
    def aggregates_of(result):
        return [dataclasses.asdict(point)
                for point in result.aggregate(bootstrap_resamples=50)]

    @pytest.mark.parametrize("seed_mode", ["per_point", "shared"])
    def test_all_paths_bit_identical(self, seed_mode):
        spec = mini_spec(seed_mode=seed_mode)
        policy = RetryPolicy(max_attempts=3)
        fault = FaultSpec(kind="raise", match="s001", times=1)

        clear_level_cache()
        baseline = SweepRunner(spec, SerialExecutor()).run()
        passes = {}
        clear_level_cache()
        passes["pool"] = SweepRunner(spec, PoolExecutor(processes=2)).run()
        clear_level_cache()
        with injected_faults(fault):
            passes["supervised+faults"] = SweepRunner(
                spec, PoolExecutor(processes=2, retry_policy=policy,
                                   run_timeout=60.0)).run()
        clear_level_cache()
        passes["ensemble-serial"] = SweepRunner(
            spec, SerialExecutor(), ensembles=True).run()
        clear_level_cache()
        passes["ensemble-pool"] = SweepRunner(
            spec, PoolExecutor(processes=2), ensembles=4).run()
        clear_level_cache()
        with injected_faults(fault):
            passes["ensemble-supervised+faults"] = SweepRunner(
                spec, PoolExecutor(processes=2, retry_policy=policy,
                                   run_timeout=60.0), ensembles=True).run()

        base_records = self.records_of(baseline)
        base_aggregates = self.aggregates_of(baseline)
        for name, result in passes.items():
            assert not result.failed_runs, name
            assert self.records_of(result) == base_records, name
            assert self.aggregates_of(result) == base_aggregates, name

    def test_ensemble_resume_completes_partial_groups(self, tmp_path):
        """A store from a per-run pass resumes under ensemble batching
        (partial groups) with bit-identical final records."""
        spec = mini_spec()
        clear_level_cache()
        baseline = SweepRunner(spec, SerialExecutor()).run()
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, spec=spec)
        for record in baseline.sorted_records()[: len(baseline.records) // 2]:
            store.append(record)
        store.flush()
        store.close()
        clear_level_cache()
        resumed = SweepRunner(spec, SerialExecutor(), ensembles=True) \
            .run(store=directory)
        assert self.records_of(resumed) == self.records_of(baseline)


class TestSeedDerivation:
    """Golden-value pins: these constants are the repo's reproducibility
    anchor — a change here reshuffles every sweep ever recorded."""

    GOLDEN_RUN_SEEDS = {
        (0, 0, 0): 4088532484,
        (0, 0, 1): 3581274545,
        (0, 1, 0): 3953331965,
        (7, 3, 2): 4014525388,
    }
    GOLDEN_ENSEMBLE_SEEDS = {
        (0, 0): 3757552657,
        (0, 1): 673228719,
        (7, 2): 3831650445,
        (11, 0): 213907198,
    }

    def test_run_seed_golden_values(self):
        for args, expected in self.GOLDEN_RUN_SEEDS.items():
            assert run_seed(*args) == expected, args

    def test_ensemble_seed_golden_values(self):
        for args, expected in self.GOLDEN_ENSEMBLE_SEEDS.items():
            assert ensemble_seed(*args) == expected, args

    def test_spawn_key_shapes_stay_disjoint(self):
        """``run_seed`` spawns with a 2-tuple key and ``ensemble_seed`` with
        a 1-tuple, so the two derivations can never collide — even at the
        same indices."""
        for master in (0, 7, 11):
            for a in range(4):
                for b in range(4):
                    assert run_seed(master, a, b) != ensemble_seed(master, a)
                    assert run_seed(master, a, b) != ensemble_seed(master, b)

    def test_seed_values_fit_uint32(self):
        for master in (0, 1, 123456789):
            assert 0 <= run_seed(master, 5, 9) < 2 ** 32
            assert 0 <= ensemble_seed(master, 5) < 2 ** 32
