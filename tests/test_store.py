"""Tests for the durable sharded record store (:mod:`repro.store`).

The load-bearing guarantees:

* the store honours its contract — append/iter round-trips, a later
  record supersedes an earlier failure for the same run, sealed stores
  refuse writes — and a sweep pass takes it as a directory or as an open
  store;
* the sharded store is a real append-only log: per-line sha256 digests,
  torn tails truncated, mid-shard corruption quarantined to ``.corrupt``
  with every intact line kept (before *and* after the damage);
* the shards describe themselves: a ``spec`` line pins the sweep, a
  ``seal`` line counts its records, opening a clean store writes nothing,
  and a sealed store that loses a line or a shard reopens unsealed;
* ``kill -9`` at the nastiest instants — mid-append, right after the
  fsync, inside the shard write itself, mid-seal — loses **no
  acknowledged record**, and a resumed sweep is bit-identical to an
  uninterrupted serial run — even when recovery had to drop a line of a
  sealed store;
* the audit doctor diagnoses without mutating and repairs through the
  same recovery path a writable open uses.

Chaos-extended cases run when ``REPRO_CHAOS=1`` — CI's chaos job sets it.
"""

import json
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.service import JobJournal
from repro.store import (
    ShardedRecordStore,
    StoreError,
    StoreReader,
    audit_store,
    scan_store,
)
from repro.store.audit import main as audit_main
from repro.store.sharded import _render_line
from repro.sweep import (
    METRIC_NAMES,
    FailedRun,
    FaultSpec,
    MetricStats,
    RunRecord,
    SerialExecutor,
    SweepResult,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    bound_traceback,
)
from repro.sweep import faults
from repro.sweep.faults import KILL_EXIT_CODE
from repro.sweep.records import _bootstrap_ci
from repro.sweep.runner import SweepPass
from tests.helpers import legacy_line

CHAOS_EXTENDED = bool(os.environ.get("REPRO_CHAOS"))

TINY = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2, banks=4,
                    rows=8, n_operators=4, label="tiny")


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(name="t", workloads=(TINY,), controllers=("booster",),
                    betas=(10, 50), cycles=120, seeds=2, master_seed=7)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def records_as_dicts(result_or_records):
    if isinstance(result_or_records, SweepResult):
        return [r.to_json_dict() for r in result_or_records.sorted_records()]
    return [r.to_json_dict() for r in result_or_records]


def make_record(point_index: int, seed_index: int, **metric_overrides):
    metrics = {name: float(point_index * 100 + seed_index)
               for name in METRIC_NAMES}
    metrics.update(metric_overrides)
    return RunRecord(
        run_id=f"t/p{point_index:04d}/s{seed_index:03d}",
        point_index=point_index, seed_index=seed_index,
        seed=1000 + point_index * 10 + seed_index,
        point_key=(("workload", "tiny"), ("beta", point_index)),
        metrics=metrics)


def make_failed(point_index: int, seed_index: int, traceback: str = ""):
    return FailedRun(
        run_id=f"t/p{point_index:04d}/s{seed_index:03d}",
        point_index=point_index, seed_index=seed_index,
        error="InjectedFault('boom')", attempts=3, traceback=traceback)


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm_faults()
    yield
    faults.disarm_faults()


@pytest.fixture(scope="module")
def baseline():
    return SweepRunner(tiny_spec(), SerialExecutor()).run()


# --------------------------------------------------------------------- #
# the store contract
# --------------------------------------------------------------------- #
BACKENDS = [
    pytest.param(lambda tmp: ShardedRecordStore(str(tmp / "store")),
                 id="sharded"),
]


class TestStoreContract:
    @pytest.mark.parametrize("factory", BACKENDS)
    def test_append_iter_roundtrip_sorted(self, tmp_path, factory):
        store = factory(tmp_path)
        try:
            for point, seed in [(1, 1), (0, 0), (1, 0), (0, 1)]:
                store.append(make_record(point, seed))
            store.flush()
            got = list(store.iter_records())
            assert [(r.point_index, r.seed_index) for r in got] \
                == [(0, 0), (0, 1), (1, 0), (1, 1)]
            assert records_as_dicts(got) == records_as_dicts(
                sorted((make_record(p, s) for p, s in
                        [(0, 0), (0, 1), (1, 0), (1, 1)]),
                       key=lambda r: (r.point_index, r.seed_index)))
            assert store.run_ids() == {r.run_id for r in got}
        finally:
            store.close()

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_record_supersedes_failure(self, tmp_path, factory):
        store = factory(tmp_path)
        try:
            store.append_failed(make_failed(0, 0))
            store.append(make_record(0, 1))
            assert [f.run_id for f in store.iter_failed()] == ["t/p0000/s000"]
            # A retry later in the pass succeeds: the failure disappears.
            store.append(make_record(0, 0))
            store.flush()
            assert list(store.iter_failed()) == []
            assert store.run_ids() == {"t/p0000/s000", "t/p0000/s001"}
            stats = store.stats()
            assert stats["records"] == 2 and stats["failed"] == 0
        finally:
            store.close()

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_seal_refuses_further_writes(self, tmp_path, factory):
        store = factory(tmp_path)
        try:
            store.append(make_record(0, 0))
            assert not store.sealed
            store.seal()
            assert store.sealed
            with pytest.raises(StoreError, match="sealed"):
                store.append(make_record(0, 1))
            with pytest.raises(StoreError, match="sealed"):
                store.append_failed(make_failed(0, 1))
        finally:
            store.close()

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_to_result_materializes_records(self, tmp_path, factory):
        store = factory(tmp_path)
        try:
            store.append(make_record(0, 1))
            store.append(make_record(0, 0))
            result = store.to_result()
            assert isinstance(result, SweepResult)
            assert records_as_dicts(result) == records_as_dicts(
                [make_record(0, 0), make_record(0, 1)])
        finally:
            store.close()

    def test_open_store_factory_mapping(self, tmp_path, monkeypatch):
        """A pass opens a directory as a sharded store and closes it when it
        finalizes; an open store passes through untouched and stays open."""
        closed = []
        close = ShardedRecordStore.close
        monkeypatch.setattr(ShardedRecordStore, "close",
                            lambda store: (closed.append(store), close(store)))
        runner = SweepRunner(tiny_spec(), SerialExecutor())
        opened = SweepPass(runner, store=str(tmp_path / "storedir"))
        opened.prepare()
        assert isinstance(opened.record_store, ShardedRecordStore)
        opened.finalize(stopped=True)
        assert closed == [opened.record_store]
        store = ShardedRecordStore(str(tmp_path / "open"), spec=tiny_spec())
        handed = SweepPass(runner, store=store)
        handed.prepare()
        assert handed.record_store is store
        handed.finalize(stopped=True)
        assert closed == [opened.record_store]
        store.close()


# --------------------------------------------------------------------- #
# sharded mechanics: rolling, byte-fidelity, compaction
# --------------------------------------------------------------------- #
class TestShardedMechanics:
    def test_rolls_shards_and_reopens_with_seq_continuity(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, records_per_shard=3)
        for seed in range(5):
            store.append(make_record(0, seed))
        store.flush()
        assert store.stats()["shards"] >= 2
        store.close()

        reopened = ShardedRecordStore(directory, records_per_shard=3)
        try:
            assert len(list(reopened.iter_records())) == 5
            # Appends after reopen must not collide with recovered seqs:
            # a re-append of s000 supersedes, new records extend.
            reopened.append(make_record(0, 0))
            reopened.append(make_record(0, 5))
            reopened.flush()
            assert len(list(reopened.iter_records())) == 6
            assert reopened.stats()["records"] == 6
        finally:
            reopened.close()
        assert scan_store(directory).clean

    def test_load_resumable_reads_each_line_once_after_recovery(
            self, tmp_path, baseline, monkeypatch):
        """Opening digests every line once (recovery), and materializing the
        result reads the shards once more: records and failed runs come from
        one fold, not one scan each."""
        from repro.store import lines
        directory = str(tmp_path / "store")
        SweepRunner(tiny_spec(), SerialExecutor()).run(store=directory)
        stored_lines = sum(shard["lines"]
                           for shard in scan_store(directory).shards)
        real_parse, parsed = lines.parse, []

        def counting_parse(raw, decode):
            parsed.append(raw)
            return real_parse(raw, decode)

        monkeypatch.setattr(lines, "parse", counting_parse)
        result = SweepResult.load_resumable(directory)
        assert records_as_dicts(result) == records_as_dicts(baseline)
        assert len(parsed) == 2 * stored_lines

    def test_a_read_racing_a_compaction_misses_nothing(self, tmp_path,
                                                       monkeypatch):
        """A compaction that absorbs shards between two shard reads of
        ``to_result`` or ``scan_store`` makes them read again, instead of
        skipping the absorbed shards' records or raising."""
        from repro.store import sharded
        directory = str(tmp_path / "store")
        writer = ShardedRecordStore(directory, records_per_shard=2)
        for seed in range(7):
            writer.append(make_record(0, seed))
        writer.flush()
        reader = ShardedRecordStore(directory, records_per_shard=2)
        real_scan, scans = sharded.LineScan, []

        def scan_then_compact(*args):
            scans.append(real_scan(*args))
            if len(scans) == 1:
                writer.compact()
            return scans[-1]

        monkeypatch.setattr(sharded, "LineScan", scan_then_compact)
        assert len(reader.to_result().records) == 7
        assert writer.stats()["compactions"] == 1
        scans.clear()
        writer.append(make_record(0, 7))          # rolls a new closed shard
        writer.append(make_record(0, 8))
        report = scan_store(directory)
        assert writer.stats()["compactions"] == 2
        assert report.clean and len(report.records) == 9
        assert len(report.shards) == len(os.listdir(reader.shards_dir))
        writer.close()
        reader.close()

    def test_records_roundtrip_byte_identical(self, tmp_path):
        """Stored records re-serialize to the same bytes they went in as —
        metric insertion order included."""
        directory = str(tmp_path / "store")
        record = make_record(2, 1)
        store = ShardedRecordStore(directory)
        store.append(record)
        store.flush()
        store.close()
        reopened = ShardedRecordStore(directory)
        try:
            got = list(reopened.iter_records())
        finally:
            reopened.close()
        assert json.dumps([r.to_json_dict() for r in got]) \
            == json.dumps([record.to_json_dict()])

    def test_non_finite_metrics_survive_shards(self, tmp_path):
        directory = str(tmp_path / "store")
        weird = make_record(0, 0, worst_ir_drop=float("nan"),
                            effective_tops=float("inf"))
        nasty = {name: -float("inf") for name in METRIC_NAMES}
        store = ShardedRecordStore(directory)
        store.append(weird)
        store.append(RunRecord(run_id="t/p0000/s001", point_index=0,
                               seed_index=1, seed=3,
                               point_key=(("beta", 10),), metrics=nasty))
        store.flush()
        store.close()
        reopened = ShardedRecordStore(directory)
        try:
            first, second = list(reopened.iter_records())
        finally:
            reopened.close()
        assert math.isnan(first.metrics["worst_ir_drop"])
        assert first.metrics["effective_tops"] == float("inf")
        assert all(v == -float("inf") for v in second.metrics.values())
        assert scan_store(directory).clean

    def test_compact_drops_superseded_lines(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, records_per_shard=2)
        store.append_failed(make_failed(0, 0))
        for _ in range(3):                    # 3 superseding rewrites
            store.append(make_record(0, 0))
        store.append(make_record(0, 1))
        store.flush()
        before = scan_store(directory)
        assert before.superseded_lines > 0
        dropped = store.compact()
        assert dropped > 0
        assert store.stats()["compactions"] == 1
        assert records_as_dicts(list(store.iter_records())) \
            == records_as_dicts([make_record(0, 0), make_record(0, 1)])
        store.close()
        after = scan_store(directory)
        assert after.clean
        assert records_as_dicts(after.records) \
            == records_as_dicts([make_record(0, 0), make_record(0, 1)])

    def test_spec_mismatch_refuses_to_mix_sweeps(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, spec=tiny_spec())
        store.append(make_record(0, 0))
        store.flush()
        store.close()
        with pytest.raises(StoreError, match="different sweep"):
            ShardedRecordStore(directory, spec=tiny_spec(master_seed=99))


# --------------------------------------------------------------------- #
# sharded recovery: torn tails, corruption
# --------------------------------------------------------------------- #
def _populated_store(directory: str, n: int = 4,
                     records_per_shard: int = 4096) -> None:
    store = ShardedRecordStore(directory, records_per_shard=records_per_shard)
    for seed in range(n):
        store.append(make_record(0, seed))
    store.flush()
    store.close()


def _single_shard(directory: str) -> str:
    shards = sorted(os.listdir(os.path.join(directory, "shards")))
    assert len(shards) == 1
    return os.path.join(directory, "shards", shards[0])


class TestShardedRecovery:
    def test_scan_store_diagnoses_without_mutating(self, tmp_path):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=3)
        shard = _single_shard(directory)
        with open(shard, "r+b") as handle:
            handle.truncate(os.path.getsize(shard) - 5)
        before = open(shard, "rb").read()
        report = scan_store(directory)
        assert not report.clean
        assert any("torn tail" in problem for problem in report.problems)
        assert len(report.records) == 2       # intact lines still served
        assert open(shard, "rb").read() == before     # nothing touched


# --------------------------------------------------------------------- #
# the shards describe themselves: spec and seal lines
# --------------------------------------------------------------------- #
def _shard_kinds(path: str):
    with open(path, "rb") as handle:
        return [json.loads(line)["kind"] for line in handle]


def _snapshot(directory: str):
    """Every path under ``directory``: listings, inodes, mtimes, bytes."""
    state = {directory: sorted(os.listdir(directory))}
    for root, dirs, files in os.walk(directory):
        for name in dirs:
            path = os.path.join(root, name)
            state[path] = sorted(os.listdir(path))
        for name in files:
            path = os.path.join(root, name)
            status = os.stat(path)
            with open(path, "rb") as handle:
                state[path] = (status.st_ino, status.st_mtime_ns,
                               handle.read())
    return state


class TestSpecAndSealLines:
    def test_sweep_store_pins_spec_and_ends_with_seal(self, tmp_path):
        directory = str(tmp_path / "store")
        SweepRunner(tiny_spec(), SerialExecutor()).run(store=directory)
        assert os.listdir(directory) == ["shards"]
        kinds = _shard_kinds(_single_shard(directory))
        assert kinds == ["spec"] + ["record"] * 4 + ["seal"]
        store = ShardedRecordStore(directory)
        try:
            assert store.spec == tiny_spec() and store.sealed
        finally:
            store.close()

    def test_opening_a_store_writes_nothing(self, tmp_path):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        SweepRunner(spec, SerialExecutor()).run(store=directory)
        before = _snapshot(directory)
        ShardedRecordStore(directory).close()
        assert _snapshot(directory) == before
        SweepResult.load_resumable(directory)
        assert _snapshot(directory) == before
        # Re-running the complete sweep: its seal holds, nothing appends.
        SweepRunner(spec).run(store=directory)
        assert _snapshot(directory) == before

    def test_sealed_store_reads_back_only_its_records(self, tmp_path,
                                                      baseline):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        SweepRunner(spec, SerialExecutor()).run(store=directory)
        expected = json.dumps(records_as_dicts(baseline))
        reader = StoreReader(directory)
        records, failed = reader.read()
        assert json.dumps(records_as_dicts(SweepResult(
            records=records))) == expected
        assert failed == []
        assert reader.parsed_lines == spec.n_runs + 2
        store = ShardedRecordStore(directory)
        try:
            assert json.dumps(records_as_dicts(
                list(store.iter_records()))) == expected
            assert list(store.iter_failed()) == []
        finally:
            store.close()
        report = scan_store(directory)
        assert json.dumps(records_as_dicts(report.records)) == expected
        assert report.failed == [] and report.superseded_lines == 0
        assert report.sealed and report.clean

    def test_compact_keeps_the_spec_line_and_the_newest_seal(self, tmp_path):
        directory = str(tmp_path / "store")
        spec = tiny_spec().to_json_dict()
        os.makedirs(os.path.join(directory, "shards"))
        record = lambda point, seed: make_record(point, seed).to_json_dict()
        # A seal that a later re-run of p0/s0 voided, then a fresh seal.
        shards = {
            "shard-000001.jsonl": [
                (1, "spec", spec), (2, "record", record(0, 0)),
                (3, "seal", {"records": 1}), (4, "record", record(0, 0))],
            "shard-000002.jsonl": [
                (5, "spec", spec), (6, "record", record(0, 1)),
                (7, "record", record(1, 0)), (8, "seal", {"records": 3})],
        }
        for name, lines in shards.items():
            with open(os.path.join(directory, "shards", name), "wb") as handle:
                handle.writelines(_render_line(*line) for line in lines)
        before = scan_store(directory)
        assert before.sealed and before.superseded_lines == 1

        store = ShardedRecordStore(directory, records_per_shard=2)
        try:
            assert store.sealed
            assert store.compact() == 3       # p0/s0@2, seal@3, spec@5
        finally:
            store.close()
        merged = os.path.join(directory, "shards", "shard-000001.jsonl")
        assert os.listdir(os.path.join(directory, "shards")) \
            == ["shard-000001.jsonl"]
        with open(merged, "rb") as handle:
            assert [(json.loads(line)["seq"], json.loads(line)["kind"])
                    for line in handle] == [(1, "spec"), (4, "record"),
                                            (6, "record"), (7, "record"),
                                            (8, "seal")]
        after = scan_store(directory)
        assert after.clean and after.sealed and after.superseded_lines == 0
        assert records_as_dicts(after.records) == records_as_dicts(
            [make_record(0, 0), make_record(0, 1), make_record(1, 0)])
        reopened = ShardedRecordStore(directory)
        try:
            assert reopened.sealed and reopened.spec == tiny_spec()
        finally:
            reopened.close()


class TestSealedStoreLosses:
    """A seal vouches for the records it counted, so a sealed store that
    loses a shard or a line reopens unsealed and its resume re-runs exactly
    the loss."""

    @staticmethod
    def assert_resume_reruns_the_loss(directory: str, baseline) -> None:
        spec = tiny_spec()
        store = ShardedRecordStore(directory)
        sealed, held = store.sealed, len(store.run_ids())
        store.close()
        seen = []
        resumed = SweepRunner(spec, SerialExecutor()).run(
            store=directory, progress=seen.append)
        assert not sealed
        assert len(seen) == spec.n_runs - held
        assert json.dumps(records_as_dicts(resumed)) \
            == json.dumps(records_as_dicts(baseline))
        stored = SweepResult.load_resumable(directory)
        assert json.dumps(records_as_dicts(stored)) \
            == json.dumps(records_as_dicts(baseline))
        report = scan_store(directory)
        assert report.clean and report.sealed

    def test_lost_closed_shard_voids_the_seal(self, tmp_path, baseline):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, spec=tiny_spec(),
                                   records_per_shard=2)
        SweepRunner(tiny_spec(), SerialExecutor()).run(store=store)
        store.close()
        assert scan_store(directory).sealed
        os.unlink(os.path.join(directory, "shards", "shard-000001.jsonl"))
        self.assert_resume_reruns_the_loss(directory, baseline)

    @pytest.mark.parametrize("tail_lines", [1, 2])
    def test_truncation_at_a_line_boundary_voids_the_seal(
            self, tmp_path, baseline, tail_lines):
        directory = str(tmp_path / "store")
        SweepRunner(tiny_spec(), SerialExecutor()).run(store=directory)
        shard = _single_shard(directory)
        with open(shard, "rb") as handle:
            lines = handle.readlines()
        with open(shard, "r+b") as handle:
            handle.truncate(sum(len(line) for line in lines[:-tail_lines]))
        # Whole lines went: no shard holds a torn or damaged line.
        assert not any(shard["bad_lines"]
                       for shard in scan_store(directory).shards)
        self.assert_resume_reruns_the_loss(directory, baseline)


class TestPreChangeStore:
    """A store from before spec and seal lines — record lines plus a
    version-1 ``MANIFEST.json`` index — resumes with no migration."""

    @pytest.mark.parametrize("held", [2, 4], ids=["partial", "complete"])
    def test_resumes_bit_identically_then_seals(self, tmp_path, baseline,
                                                held):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        os.makedirs(os.path.join(directory, "shards"))
        shard = os.path.join(directory, "shards", "shard-000001.jsonl")
        with open(shard, "wb") as handle:
            for seq, record in enumerate(baseline.sorted_records()[:held], 1):
                handle.write(_render_line(seq, "record",
                                          record.to_json_dict()))
        index = os.path.join(directory, "MANIFEST.json")
        with open(index, "w") as handle:
            json.dump({"version": 1, "format": "sharded-record-store",
                       "spec": spec.to_json_dict(),
                       "sealed": held == spec.n_runs, "next_seq": held,
                       "records_per_shard": 4096,
                       "shards": [{"name": "shard-000001.jsonl",
                                   "lines": held}],
                       "counters": {"records": held, "failed": 0}},
                      handle, indent=2)
        with open(index, "rb") as handle:
            index_bytes = handle.read()
        store = ShardedRecordStore(directory)
        try:
            assert store.spec is None and not store.sealed
        finally:
            store.close()

        resumed = SweepRunner(spec, SerialExecutor()).run(store=directory)
        assert json.dumps(records_as_dicts(resumed)) \
            == json.dumps(records_as_dicts(baseline))
        # Only the re-run records, the pin and the seal were appended.
        assert _shard_kinds(shard) == ["record"] * spec.n_runs \
            + ["spec", "seal"]
        with open(index, "rb") as handle:
            assert handle.read() == index_bytes
        report = scan_store(directory)
        assert report.clean and report.sealed
        reopened = ShardedRecordStore(directory)
        try:
            assert reopened.spec == spec and reopened.sealed
        finally:
            reopened.close()


# --------------------------------------------------------------------- #
# audit doctor CLI
# --------------------------------------------------------------------- #
class TestAuditCLI:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=2)
        assert audit_main([directory]) == 0
        assert "clean" in capsys.readouterr().out

    def test_damaged_store_exits_one_and_repair_heals(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=3)
        shard = _single_shard(directory)
        with open(shard, "r+b") as handle:
            handle.truncate(os.path.getsize(shard) - 5)
        assert audit_main([directory]) == 1   # diagnose only: still damaged
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert audit_main(["--repair", "--compact", directory]) == 0
        capsys.readouterr()
        assert audit_main([directory]) == 0   # now durable-clean
        assert scan_store(directory).clean

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=2)
        assert audit_main(["--json", directory]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["scan"]["records"] == 2

    def test_audit_store_reports_repair_actions(self, tmp_path):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=3)
        shard = _single_shard(directory)
        with open(shard, "r+b") as handle:   # tear the last line mid-write
            handle.truncate(os.path.getsize(shard) - 5)
        report = audit_store(directory, repair=True)
        assert report["scan"]["clean"] is False       # as found
        assert report["repair"]["torn_tail_dropped"] == 1
        assert report["rescan"]["clean"] is True
        assert report["rescan"]["records"] == 2
        assert report["clean"] is True        # the verdict is post-repair


# --------------------------------------------------------------------- #
# runner integration: the store as persistence authority
# --------------------------------------------------------------------- #
class TestRunnerStoreIntegration:
    def test_full_run_through_store_is_bit_identical(self, tmp_path,
                                                     baseline):
        directory = str(tmp_path / "store")
        result = SweepRunner(tiny_spec(), SerialExecutor()).run(
            store=directory, checkpoint_every=1)
        assert json.dumps(records_as_dicts(result)) \
            == json.dumps(records_as_dicts(baseline))
        store = ShardedRecordStore(directory)
        try:
            assert store.sealed
            assert json.dumps(records_as_dicts(list(store.iter_records()))) \
                == json.dumps(records_as_dicts(baseline))
        finally:
            store.close()
        assert scan_store(directory).clean

    def test_interrupt_and_implicit_resume_is_bit_identical(self, tmp_path,
                                                            baseline):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        seen = []
        partial = SweepRunner(spec, SerialExecutor()).run(
            store=directory, checkpoint_every=1,
            should_stop=lambda: len(seen) >= 2,
            progress=lambda p: seen.append(p))
        assert 0 < len(partial.records) < spec.n_runs

        resumed = SweepRunner(spec, SerialExecutor()).run(
            store=directory, checkpoint_every=1)
        assert json.dumps(records_as_dicts(resumed)) \
            == json.dumps(records_as_dicts(baseline))
        def aggregate_rows(result):
            return [(s.point_index, st.mean, st.std, st.ci_low, st.ci_high)
                    for s in result.aggregate()
                    for st in [s.stats["worst_ir_drop"]]]
        assert json.dumps(aggregate_rows(resumed)) \
            == json.dumps(aggregate_rows(baseline))

    def test_checkpoint_every_requires_a_destination(self):
        runner = SweepRunner(tiny_spec(), SerialExecutor())
        with pytest.raises(ValueError, match="checkpoint_every"):
            runner.run(checkpoint_every=1)


# --------------------------------------------------------------------- #
# chaos: kill -9 at the store's named fault sites
# --------------------------------------------------------------------- #
def _sweep_once(store_dir, spec_dict, fault_dicts):
    """Child-process body: one sweep pass persisting through the store."""
    faults.disarm_faults()
    if fault_dicts:
        faults.arm_faults(*[FaultSpec(**f) for f in fault_dicts])
    spec = SweepSpec.from_json_dict(spec_dict)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        SweepRunner(spec, SerialExecutor()).run(
            store=store_dir, checkpoint_every=1)
    os._exit(0)


def run_sweep_once(store_dir: str, spec: SweepSpec, fault_dicts=()) -> int:
    context = multiprocessing.get_context("fork")
    child = context.Process(
        target=_sweep_once,
        args=(store_dir, spec.to_json_dict(), list(fault_dicts)))
    child.start()
    child.join(timeout=180)
    if child.is_alive():                      # pragma: no cover - deadline
        child.kill()
        child.join()
        pytest.fail("sweep child did not exit within the deadline")
    return child.exitcode


#: (fault, run_ids whose flush() returned before the kill — the
#: *acknowledged* records that must survive the crash verbatim).
ACKED_FIRST_TWO = ("t/p0000/s000", "t/p0000/s001")
ACKED_ALL = ACKED_FIRST_TWO + ("t/p0001/s000", "t/p0001/s001")
STORE_KILL_SITES = [
    # Kill *before* the third record's append: the two acknowledged
    # (flushed) records must survive verbatim.
    pytest.param({"kind": "daemon_kill",
                  "match": "recordstore:append:t/p0001/s000"},
                 ACKED_FIRST_TWO, id="before-append"),
    # Torn write inside the shard append itself, then kill.
    pytest.param({"kind": "shard_torn", "match": "#record:t/p0001/s000"},
                 ACKED_FIRST_TWO, id="mid-shard-write-torn"),
    # Kill inside the first flush, right after its fsync: nothing was
    # acknowledged yet, but recovery must still work.
    pytest.param({"kind": "daemon_kill", "match": "recordstore:flush"},
                 (), id="after-fsync"),
    # Torn seal line, then kill: every record was flushed before the seal,
    # and the restart reseals.
    pytest.param({"kind": "shard_torn", "match": "#seal:"},
                 ACKED_ALL, id="mid-seal-torn"),
]


class TestStoreChaos:
    @pytest.mark.parametrize("fault,acked", STORE_KILL_SITES)
    def test_kill_resume_is_bit_identical(self, tmp_path, baseline, fault,
                                          acked):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        first = run_sweep_once(directory, spec, [fault])
        assert first == KILL_EXIT_CODE, \
            f"fault {fault} never fired (exit {first})"

        # No acknowledged record lost: everything the killed pass flushed
        # is still there, byte-identical to the uninterrupted baseline.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            survivor = ShardedRecordStore(directory)
        try:
            surviving = {r.run_id: r.to_json_dict()
                         for r in survivor.iter_records()}
        finally:
            survivor.close()
        by_id = {r.run_id: r.to_json_dict()
                 for r in baseline.sorted_records()}
        assert set(acked) <= set(surviving)
        for run_id, payload in surviving.items():
            assert json.dumps(payload) == json.dumps(by_id[run_id])

        # Restart with no faults: recovery + resume completes the sweep.
        assert run_sweep_once(directory, spec, []) == 0
        stored = SweepResult.load_resumable(directory)
        assert json.dumps(records_as_dicts(stored)) \
            == json.dumps(records_as_dicts(baseline))
        assert scan_store(directory).sealed
        report = audit_store(directory)
        assert report["clean"], report

    def test_latent_shard_corruption_heals_on_resume(self, tmp_path,
                                                     baseline):
        """``shard_corrupt`` models disk damage, not a crash: the pass is
        interrupted, a byte flips, and the next open quarantines the shard
        and re-runs only what the corruption ate."""
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        seen = []
        faults.arm_faults(FaultSpec(kind="shard_corrupt", match="shard-"))
        try:
            SweepRunner(spec, SerialExecutor()).run(
                store=directory, checkpoint_every=1,
                should_stop=lambda: len(seen) >= 2,
                progress=lambda p: seen.append(p))
        finally:
            faults.disarm_faults()

        with pytest.warns(RuntimeWarning, match="quarantining"):
            resumed = SweepRunner(spec, SerialExecutor()).run(
                store=directory, checkpoint_every=1)
        assert json.dumps(records_as_dicts(resumed)) \
            == json.dumps(records_as_dicts(baseline))
        report = scan_store(directory)
        assert report.clean and report.quarantined_files == 1

    def test_corruption_in_a_sealed_store_reopens_it(self, tmp_path,
                                                    baseline):
        """A byte flipped in a completed store: recovery drops the line, so
        the seal no longer vouches for every record.  The resume re-runs
        the loss and seals again."""
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        faults.arm_faults(FaultSpec(kind="shard_corrupt", match="shard-"))
        try:
            SweepRunner(spec, SerialExecutor()).run(
                store=directory, checkpoint_every=1)
        finally:
            faults.disarm_faults()
        assert scan_store(directory).sealed

        with pytest.warns(RuntimeWarning, match="quarantining"):
            resumed = SweepRunner(spec, SerialExecutor()).run(
                store=directory)
        assert json.dumps(records_as_dicts(resumed)) \
            == json.dumps(records_as_dicts(baseline))
        report = scan_store(directory)
        assert report.clean and report.sealed
        assert len(report.records) == spec.n_runs

    @pytest.mark.skipif(not CHAOS_EXTENDED, reason="REPRO_CHAOS=1 only")
    def test_double_kill_then_resume(self, tmp_path, baseline):
        directory = str(tmp_path / "store")
        spec = tiny_spec()
        torn = {"kind": "shard_torn", "match": "#record:t/p0000/s001"}
        flush = {"kind": "daemon_kill", "match": "recordstore:flush"}
        assert run_sweep_once(directory, spec, [torn]) == KILL_EXIT_CODE
        assert run_sweep_once(directory, spec, [flush]) == KILL_EXIT_CODE
        assert run_sweep_once(directory, spec, []) == 0
        stored = SweepResult.load_resumable(directory)
        assert json.dumps(records_as_dicts(stored)) \
            == json.dumps(records_as_dicts(baseline))


# --------------------------------------------------------------------- #
# satellite: record serialization edge cases
# --------------------------------------------------------------------- #
class TestRecordSerialization:
    def test_run_record_roundtrip_with_non_finite_metrics(self):
        record = make_record(0, 0, worst_ir_drop=float("nan"),
                             effective_tops=float("inf"),
                             total_energy=-float("inf"))
        wire = json.loads(json.dumps(record.to_json_dict()))
        back = RunRecord.from_json_dict(wire)
        assert math.isnan(back.metrics["worst_ir_drop"])
        assert back.metrics["effective_tops"] == float("inf")
        assert back.metrics["total_energy"] == -float("inf")
        assert back.run_id == record.run_id
        assert back.point_key == record.point_key

    def test_failed_run_roundtrip_keeps_bounded_traceback(self):
        trace = "\n".join(f"frame {i}" for i in range(50))
        failed = FailedRun.from_run(
            type("Run", (), {"run_id": "t/p0000/s000", "point_index": 0,
                             "seed_index": 0})(),
            error="boom", attempts=2, traceback=trace)
        assert failed.traceback.startswith("... (30 leading lines dropped)")
        assert failed.traceback.endswith("frame 49")
        back = FailedRun.from_json_dict(
            json.loads(json.dumps(failed.to_json_dict())))
        assert back == failed

    def test_failed_run_pre_traceback_payloads_still_load(self):
        payload = make_failed(0, 0).to_json_dict()
        del payload["traceback"]
        assert FailedRun.from_json_dict(payload).traceback == ""

    def test_metric_stats_roundtrip_with_non_finite_values(self):
        stats = MetricStats(mean=float("nan"), std=float("inf"),
                            ci_low=-float("inf"), ci_high=float("nan"), n=3)
        wire = json.loads(json.dumps({
            "mean": stats.mean, "std": stats.std, "ci_low": stats.ci_low,
            "ci_high": stats.ci_high, "n": stats.n}))
        back = MetricStats(**wire)
        assert math.isnan(back.mean) and back.std == float("inf")
        assert back.ci_low == -float("inf") and math.isnan(back.ci_high)
        assert back.n == 3

    def test_bound_traceback_char_cap_and_empty(self):
        assert bound_traceback("") == ""
        assert bound_traceback(None) == ""
        giant = "x" * 10000
        bounded = bound_traceback(giant, max_lines=5, max_chars=100)
        assert bounded.startswith("... (truncated)\n")
        assert len(bounded) <= 100 + len("... (truncated)\n")


class TestBootstrapDegenerates:
    def test_empty_values(self):
        rng = np.random.default_rng(0)
        assert _bootstrap_ci(np.array([]), rng, 50, 0.95) == (0.0, 0.0)

    def test_single_value(self):
        rng = np.random.default_rng(0)
        assert _bootstrap_ci(np.array([3.5]), rng, 50, 0.95) == (3.5, 3.5)

    def test_identical_values_collapse(self):
        rng = np.random.default_rng(0)
        low, high = _bootstrap_ci(np.array([2.0] * 8), rng, 50, 0.95)
        assert low == high == 2.0

    def test_non_finite_values_propagate_without_crashing(self):
        rng = np.random.default_rng(0)
        low, high = _bootstrap_ci(np.array([1.0, float("nan")]), rng, 50,
                                  0.95)
        assert math.isnan(low) or math.isnan(high) \
            or (low <= 1.0 <= high)


class TestShardedDiskExhaustion:
    """ENOSPC on the shard log is a degraded mode, not a crash.  The backlog
    itself is tested over both logs in :class:`TestLineLogs`; this is the
    store's policy on top of it."""

    def test_flush_and_seal_wait_for_the_backlog(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory)
        with faults.injected_faults(
                FaultSpec(kind="disk_full", match="shard:", times=4)):
            store.append(make_record(0, 0))
            store.append_failed(make_failed(0, 1))
            assert store.stats()["backlog"] == 2
            # A flush during the outage must not pretend durability: the
            # backlog stays deferred and nothing is acknowledged.
            store.flush()
            assert store.disk_degraded() and store.stats()["flushes"] == 0
            # Sealing would be a lie while outcomes are deferred.
            with pytest.raises(StoreError, match="cannot seal"):
                store.seal()
        store.append(make_record(1, 0))          # space is back: drains
        store.flush()
        store.seal()
        store.close()
        report = scan_store(directory)
        assert {(r.point_index, r.seed_index) for r in report.records} == \
            {(0, 0), (1, 0)}
        assert [(f.point_index, f.seed_index) for f in report.failed] == \
            [(0, 1)]
        assert report.sealed and audit_main([directory]) == 0


# --------------------------------------------------------------------- #
# the durable line log, through both of its logs
# --------------------------------------------------------------------- #
class _JournalLog:
    """The job journal as a line log: its entries are ``mark`` events."""

    torn_kind, disk_tag = "journal_torn", "journal:"
    #: the journal keeps the ordered prefix before mid-file damage.
    kept_after_damage = [0]
    quarantine_counters = {"corrupt_lines": 1}

    def __init__(self, tmp_path) -> None:
        self.path = str(tmp_path / "journal.jsonl")
        self.log = None

    def open(self):
        self.log = JobJournal(self.path)
        return [event.data["n"] for event in self.log.replay()]

    def append(self, n: int) -> None:
        self.log.append("mark", f"j{n}", n=n)

    def flush(self) -> None:
        self.log.flush_pending()

    def close(self) -> None:
        self.log.close()

    def stats(self):
        return vars(self.log.stats)

    def backlog(self) -> int:
        return self.log.pending_lines()

    @staticmethod
    def torn_match(n: int) -> str:
        return f"#mark:j{n}"

    @staticmethod
    def legacy(seq: int, n: int) -> bytes:
        return legacy_line({"seq": seq, "ts": 1.0, "event": "mark",
                            "job_id": f"j{n}", "data": {"n": n}},
                           sort_keys=True)


class _ShardLog:
    """A record store's shard as a line log: its entries are records."""

    torn_kind, disk_tag = "shard_torn", "shard:"
    #: a store keeps every intact line, after the damage too.
    kept_after_damage = [0, 2, 3, 4]
    quarantine_counters = {"shards_quarantined": 1,
                           "corrupt_lines_dropped": 1}

    def __init__(self, tmp_path) -> None:
        self.directory = str(tmp_path / "store")
        self.path = os.path.join(self.directory, "shards",
                                 "shard-000001.jsonl")
        self.log = None

    def open(self):
        self.log = ShardedRecordStore(self.directory)
        return [record.seed_index for record in self.log.iter_records()]

    def append(self, n: int) -> None:
        self.log.append(make_record(0, n))

    def flush(self) -> None:
        self.log.flush()

    def close(self) -> None:
        self.log.flush()
        self.log.close()

    def stats(self):
        return self.log.stats()

    def backlog(self) -> int:
        return self.log.stats()["backlog"]

    @staticmethod
    def torn_match(n: int) -> str:
        return f"#record:t/p0000/s{n:03d}"

    @staticmethod
    def legacy(seq: int, n: int) -> bytes:
        return legacy_line({"seq": seq, "kind": "record",
                            "data": make_record(0, n).to_json_dict()},
                           sort_keys=False)


def _append_torn(make_log, tmp_path, n: int) -> None:
    """Child-process body: append ``0..n`` with the ``n``-th append armed to
    tear, which kills the process."""
    faults.disarm_faults()
    log = make_log(tmp_path)
    faults.arm_faults(FaultSpec(kind=log.torn_kind, match=log.torn_match(n)))
    log.open()
    for k in range(n + 1):
        log.append(k)
    os._exit(0)


@pytest.fixture(params=[_JournalLog, _ShardLog], ids=["journal", "shard"])
def line_log(request):
    return request.param


class TestLineLogs:
    """The job journal and a record shard share one line log
    (:mod:`repro.store.lines`): one damage rule, one torn-write site, one
    ENOSPC backlog.  Each test drives both logs; only the policy differs."""

    def test_torn_tail_is_truncated(self, tmp_path, line_log):
        log = line_log(tmp_path)
        assert log.open() == []
        for n in range(4):
            log.append(n)
        log.close()
        with open(log.path, "r+b") as handle:   # tear the last line
            handle.truncate(os.path.getsize(log.path) - 7)

        assert log.open() == [0, 1, 2]
        assert log.stats()["torn_tail_dropped"] == 1
        assert not os.path.exists(log.path + ".corrupt")
        # Appends continue on the clean line boundary the truncation left.
        log.append(3)
        log.close()
        assert log.open() == [0, 1, 2, 3]
        assert log.stats()["torn_tail_dropped"] == 0
        log.close()

    def test_mid_file_damage_is_quarantined(self, tmp_path, line_log):
        log = line_log(tmp_path)
        log.open()
        for n in range(5):
            log.append(n)
        log.close()
        with open(log.path, "rb") as handle:
            lines = handle.readlines()
        # One flipped byte in line 1 of 5, its newline intact.
        lines[1] = lines[1][:10] + b"\x00" + lines[1][11:]
        with open(log.path, "wb") as handle:
            handle.writelines(lines)

        with pytest.warns(RuntimeWarning,
                          match="corrupt beyond its tail.*quarantining"):
            assert log.open() == log.kept_after_damage
        stats = log.stats()
        assert {key: stats[key] for key in log.quarantine_counters} \
            == log.quarantine_counters
        with open(log.path + ".corrupt", "rb") as handle:
            assert handle.read() == b"".join(lines)   # kept for post-mortem
        log.append(5)
        log.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # the rewrite is intact
            assert log.open() == log.kept_after_damage + [5]
        log.close()

    def test_enospc_backlog_drains_in_order(self, tmp_path, line_log):
        log = line_log(tmp_path)
        log.open()
        log.append(0)
        with faults.injected_faults(
                FaultSpec(kind="disk_full", match=log.disk_tag, times=3)):
            log.append(1)          # refused: deferred
            log.append(2)          # the retry is refused; queued behind it
            log.flush()            # retried and refused again
            assert log.log.disk_degraded() and log.backlog() == 2
            assert log.stats()["disk_full_errors"] == 3
        log.append(3)              # space is back: the backlog drains first
        assert not log.log.disk_degraded() and log.backlog() == 0
        log.close()
        with open(log.path, "rb") as handle:
            assert [json.loads(line)["seq"] for line in handle] == \
                [1, 2, 3, 4]
        assert log.open() == [0, 1, 2, 3]
        log.close()

    def test_torn_write_kills_and_the_log_recovers(self, tmp_path,
                                                   line_log):
        child = multiprocessing.get_context("fork").Process(
            target=_append_torn, args=(line_log, tmp_path, 2))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == KILL_EXIT_CODE

        log = line_log(tmp_path)
        assert log.open() == [0, 1]
        assert log.stats()["torn_tail_dropped"] == 1
        log.append(2)
        log.close()
        assert log.open() == [0, 1, 2]
        log.close()

    def test_lines_written_in_the_legacy_format_open(self, tmp_path,
                                                     line_log):
        """Before the logs shared one writer, the journal stored its keys
        sorted and the shards in insertion order.  Such lines open to the
        same entries, stay untouched, and take appends after them."""
        log = line_log(tmp_path)
        legacy = b"".join(log.legacy(seq, n) for seq, n in
                          enumerate(range(3), 1))
        os.makedirs(os.path.dirname(log.path), exist_ok=True)
        with open(log.path, "wb") as handle:
            handle.write(legacy)

        assert log.open() == [0, 1, 2]
        stats = log.stats()
        assert stats["torn_tail_dropped"] == 0
        assert all(stats[key] == 0 for key in log.quarantine_counters)
        log.append(3)
        log.close()
        assert log.open() == [0, 1, 2, 3]
        log.close()
        with open(log.path, "rb") as handle:
            assert handle.read().startswith(legacy)


# --------------------------------------------------------------------- #
# incremental reader (the service's records endpoint)
# --------------------------------------------------------------------- #
def _as_set(items):
    return {json.dumps(item.to_json_dict(), sort_keys=True) for item in items}


def _shard_lines(directory: str) -> int:
    return sum(shard["lines"] + shard["bad_lines"]
               for shard in scan_store(directory).shards)


class TestStoreReader:
    """``StoreReader`` serves the same winners as ``scan_store`` while it
    parses each shard line once, in append order."""

    @staticmethod
    def assert_matches_scan(reader: StoreReader, directory: str):
        records, failed = reader.read()
        report = scan_store(directory)
        assert _as_set(records) == _as_set(report.records)
        assert _as_set(failed) == _as_set(report.failed)
        return records, failed

    def test_superseded_duplicate_record(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory)
        reader = StoreReader(directory)
        store.append(make_record(0, 0))
        store.append(make_record(0, 1))
        self.assert_matches_scan(reader, directory)
        store.append(make_record(0, 0, effective_tops=-1.0))
        records, _ = self.assert_matches_scan(reader, directory)
        # The rerun keeps its first position and carries the newest line.
        assert [r.seed_index for r in records] == [0, 1]
        assert records[0].metrics["effective_tops"] == -1.0
        assert reader.parsed_lines == 3
        store.close()

    def test_failed_line_superseded_by_record(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory)
        reader = StoreReader(directory)
        store.append_failed(make_failed(0, 0))
        store.append(make_record(0, 1))
        records, failed = self.assert_matches_scan(reader, directory)
        assert len(records) == 1 and len(failed) == 1
        store.append(make_record(0, 0))
        records, failed = self.assert_matches_scan(reader, directory)
        # A run sits at its first *record* line, not its failed one.
        assert [r.seed_index for r in records] == [1, 0]
        assert failed == []
        store.close()

    def test_line_without_newline_waits_until_complete(self, tmp_path):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=3)
        shard = _single_shard(directory)
        with open(shard, "r+b") as handle:     # the last write is torn
            raw = handle.read()
            torn = len(raw) - 9
            handle.truncate(torn)
        reader = StoreReader(directory)
        records, _ = self.assert_matches_scan(reader, directory)
        assert len(records) == 2
        with open(shard, "ab") as handle:      # the write completes
            handle.write(raw[torn:])
        records, _ = self.assert_matches_scan(reader, directory)
        assert len(records) == 3
        assert reader.parsed_lines == 3        # the torn tail parsed once

    def test_complete_line_with_bad_digest_is_skipped(self, tmp_path):
        directory = str(tmp_path / "store")
        _populated_store(directory, n=3)
        shard = _single_shard(directory)
        with open(shard, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"seed":', b'"seed":1', 1)
        with open(shard, "wb") as handle:
            handle.write(b"".join(lines))
        reader = StoreReader(directory)
        records, _ = self.assert_matches_scan(reader, directory)
        assert [r.seed_index for r in records] == [0, 2]
        assert reader.parsed_lines == 3

    def test_shard_roll(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, records_per_shard=2)
        reader = StoreReader(directory)
        for seed in range(5):
            store.append(make_record(0, seed))
            self.assert_matches_scan(reader, directory)
        assert store.stats()["shards"] >= 3
        assert reader.parsed_lines == 5
        store.close()

    def test_compaction_between_reads_rereads_from_zero(self, tmp_path):
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, records_per_shard=2)
        store.append_failed(make_failed(0, 0))
        for _ in range(3):
            store.append(make_record(0, 0))
        store.append(make_record(0, 1))
        store.flush()
        reader = StoreReader(directory)
        before, _ = self.assert_matches_scan(reader, directory)
        parsed = reader.parsed_lines
        assert store.compact() > 0
        after, _ = self.assert_matches_scan(reader, directory)
        assert _as_set(after) == _as_set(before)
        # Every surviving line was parsed again, from byte 0.
        assert reader.parsed_lines == parsed + _shard_lines(directory)
        store.close()

    def test_out_of_order_appends_page_exactly_once(self, tmp_path):
        """Offset paging over append order never repeats or skips a run,
        even when runs land out of their (point, seed) order."""
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory)
        reader = StoreReader(directory)
        seen = []
        for point, seed in [(1, 1), (0, 1), (1, 0), (0, 0)]:
            store.append(make_record(point, seed))
            records, _ = reader.read()
            seen.extend(records[len(seen):len(seen) + 2])
        store.close()
        assert [(r.point_index, r.seed_index) for r in seen] == \
            [(1, 1), (0, 1), (1, 0), (0, 0)]

    def test_concurrent_readers_share_one_reader_safely(self, tmp_path):
        """Threads (more than cores) reading one reader while a writer
        appends: every line is parsed once and every view is a prefix of
        the final append order."""
        directory = str(tmp_path / "store")
        store = ShardedRecordStore(directory, records_per_shard=16)
        reader = StoreReader(directory)
        done = threading.Event()
        views = [[] for _ in range(6)]

        def poll(seen):
            while not done.is_set():
                view = [r.run_id for r in reader.read()[0]]
                if not seen or view != seen[-1]:
                    seen.append(view)

        threads = [threading.Thread(target=poll, args=(seen,))
                   for seen in views]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for point in range(40):
                for seed in (1, 0):
                    store.append(make_record(point, seed))
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            store.close()
        assert not any(thread.is_alive() for thread in threads)
        final = [r.run_id for r in self.assert_matches_scan(reader,
                                                            directory)[0]]
        assert len(final) == 80
        assert reader.parsed_lines == _shard_lines(directory) == 80
        for seen in views:
            for view in seen:
                assert view == final[:len(view)]

    def test_long_poll_stream_parses_each_line_once(self, tmp_path,
                                                    monkeypatch):
        """Streaming an N-record daemon job by long-poll parses N lines in
        total; re-scanning the store per wakeup would parse ~N^2/2."""
        from repro.service import InProcessClient, ServiceAPI, SweepService
        from repro.service import daemon

        readers = []

        class CountedReader(StoreReader):
            def __init__(self, directory):
                super().__init__(directory)
                readers.append(self)

        gate = threading.Semaphore(0)

        class SteppedExecutor(SerialExecutor):
            """Runs one work unit per ``gate`` release."""

            def imap_unordered(self, fn, runs):
                for run in runs:
                    assert gate.acquire(timeout=30)
                    yield fn(run)

        monkeypatch.setattr(daemon, "StoreReader", CountedReader)
        spec = tiny_spec(betas=(10, 30, 50, 70), seeds=3)
        service = SweepService(str(tmp_path), executor=SteppedExecutor(),
                               checkpoint_every=1).start()
        try:
            client = InProcessClient(ServiceAPI(service))
            job_id = client.submit(spec, job_key="cost")["job_id"]
            deadline = time.monotonic() + 30
            while job_id not in service.health()["active_jobs"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            seq = 0
            while seq < spec.n_runs:
                gate.release()
                page = client.records(job_id, offset=seq, limit=4096,
                                      wait_seq=seq, wait_timeout=30)
                seq += page["count"]
            client.wait(job_id)
        finally:
            service.shutdown(timeout=30)
        assert len(readers) == 1               # the job's one shared reader
        lines = _shard_lines(service.store_path(job_id))
        assert lines == spec.n_runs + 2        # the spec and seal lines too
        # The seal may land after the reader's last read; no line parses
        # twice.
        assert lines - 1 <= readers[0].parsed_lines <= lines
