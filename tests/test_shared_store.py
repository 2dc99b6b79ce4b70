"""Tests for the cross-worker shared physics store.

Lifecycle (attach/detach), value roundtrips as read-only views, the
self-describing entry file (checksummed header, damage quarantined, other
formats and the previous layout ignored), key-shareability filtering,
concurrent readers and lock-free concurrent publishers, and the end-to-end
contract: a pool sweep with ``shared_cache_dir`` produces records
bit-identical to the private-cache run while actually sharing entries across
workers.
"""

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.power.vf_table import VFPair
from repro.sim import (
    RuntimeConfig,
    attach_shared_store,
    clear_level_cache,
    detach_shared_store,
    level_cache_stats,
    simulate,
)
from repro.sim.level_cache import ByteBudgetCache, LEVEL_CACHE, LevelEntry
from repro.sim.shared_store import SharedPhysicsStore, shareable_key
from repro.sweep import (
    PoolExecutor,
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    build_compiled_workload,
)


@pytest.fixture
def fresh_cache():
    """Isolate the process-level cache and detach any store around a test."""
    clear_level_cache()
    detach_shared_store()
    yield
    clear_level_cache()
    detach_shared_store()


def sample_entry(members=3, cycles=50, seed=0):
    rng = np.random.default_rng(seed)
    fail_cycles = [np.flatnonzero(rng.random(cycles) < 0.2)
                   for _ in range(members)]
    return LevelEntry(pair=VFPair(level=40, voltage=0.68, frequency=1.1e9),
                      fail_cycles=fail_cycles)


SPEC_KEY = ("spec", "w|fingerprint")


def level_key(tag="a"):
    return ((SPEC_KEY, 400, 0.6, 0.15, 0.7, 0.003, 1, 0.5), 0, 40, 0.68, tag)


def entry_path(directory):
    """The one published entry file of a store directory."""
    names = [n for n in os.listdir(directory) if n.endswith(".phys")]
    assert len(names) == 1
    return os.path.join(str(directory), names[0])


def corrupt_files(directory):
    return [n for n in os.listdir(directory) if n.endswith(".corrupt")]


def rewrite(path, edit):
    """Replace a file's bytes with ``edit(bytes)``."""
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(edit(raw))


def flip_byte(raw, at):
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]


def write_pre_change_layout(directory):
    """Rewrite a store's entries into the previous on-disk layout.

    That layout kept each entry's arrays headerless in ``<digest>.bin`` and
    described them all in one ``index.json`` (plus a ``.lock`` file).
    Returns the number of entries rewritten.
    """
    entries = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".phys"):
            continue
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            blob = handle.read()
        digest = name[:-len(".phys")]
        with open(os.path.join(directory, digest + ".bin"), "wb") as handle:
            handle.write(blob)
        entries[digest] = {
            "file": digest + ".bin", "size": len(blob),
            "kind": header["kind"], "meta": header["meta"],
            "arrays": header["arrays"], "pid": os.getpid(),
            "sha256": hashlib.sha256(blob).hexdigest()}
        os.unlink(path)
    with open(os.path.join(directory, "index.json"), "w") as handle:
        json.dump({"version": 1, "entries": entries}, handle)
    open(os.path.join(directory, ".lock"), "a").close()
    return len(entries)


def _publish(directory, items, barrier):
    """Child process of the concurrent-publish test: store ``items``."""
    store = SharedPhysicsStore(directory)
    barrier.wait(timeout=60)
    for tag, seed in items:
        if not store.store(level_key(tag), sample_entry(seed=seed), 1000):
            raise SystemExit(1)


class TestShareableKeys:
    def test_spec_fingerprints_share(self):
        assert shareable_key(level_key())

    def test_token_and_unshared_markers_refused(self):
        assert not shareable_key((("token", 3), 0, 40))
        assert not shareable_key((("unshared", 1), 0))
        assert not shareable_key(((("token", 0), 17), "x"))

    def test_non_primitives_refused(self):
        assert not shareable_key((object(), 1))


class TestStoreRoundtrip:
    def test_level_entry_roundtrip_readonly(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert store.store(level_key(), entry, 1000)

        other = SharedPhysicsStore(str(tmp_path))
        loaded = other.load(level_key())
        assert loaded is not None
        value, nbytes = loaded
        assert nbytes > 0
        assert value.pair == entry.pair
        assert len(value.fail_cycles) == len(entry.fail_cycles)
        for got, want in zip(value.fail_cycles, entry.fail_cycles):
            assert np.array_equal(got, want)
        assert value.fail_lists == entry.fail_lists
        # Attached arrays are read-only views of the mapped file.
        assert not value.fail_cycles[0].flags.writeable
        with pytest.raises(ValueError):
            value.fail_cycles[0][0] = 1

    def test_entry_with_a_drop_array_still_loads(self, tmp_path):
        """An entry published while level entries carried a drop matrix
        lists a ``drop`` array beside its candidates: it loads, and the
        drop is not read."""
        from repro.sim.shared_store import _digest, _pack
        entry = sample_entry()
        cand = np.concatenate(entry.fail_cycles).astype(np.int64)
        offsets = np.cumsum([0] + [c.size for c in entry.fail_cycles])
        with open(os.path.join(str(tmp_path), _digest(level_key())
                               + ".phys"), "wb") as handle:
            handle.write(_pack("level", {"pair": [40, 0.68, 1.1e9]}, [
                ("drop", np.random.default_rng(0).random((3, 50))),
                ("cand", cand), ("offsets", offsets.astype(np.int64))]))
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert value.pair == entry.pair
        assert value.fail_lists == entry.fail_lists

    def test_activity_dict_roundtrip(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        rng = np.random.default_rng(1)
        activity = {3: rng.random(64), 11: rng.random(64)}
        key = ("activity", SPEC_KEY, 64, 0.6, 0.15, 0.7, 1, 0.5)
        assert store.store(key, activity, 1024)
        value, _ = SharedPhysicsStore(str(tmp_path)).load(key)
        assert sorted(value) == [3, 11]
        for macro in activity:
            assert np.array_equal(value[macro], activity[macro])
        assert not value[3].flags.writeable

    def test_store_is_idempotent(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert store.store(level_key(), entry, 1000)
        assert store.store(level_key(), entry, 1000)
        assert store.stats()["entries"] == 1

    def test_unshareable_key_not_stored(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        key = ((("token", 1), 400), 0, 40, 0.68, "a")
        assert not store.store(key, sample_entry(), 1000)
        assert store.load(key) is None
        assert store.stats()["entries"] == 0
        assert store.rejected_keys == 1

    def test_unknown_value_kind_declined(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert not store.store(level_key(), {"not": "physics"}, 10)

    def test_miss_on_absent_key(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.load(level_key("missing")) is None

    def test_concurrent_readers_share_one_file(self, tmp_path):
        """Two attached stores map the same published bytes."""
        writer = SharedPhysicsStore(str(tmp_path))
        writer.store(level_key(), sample_entry(seed=5), 1000)
        readers = [SharedPhysicsStore(str(tmp_path)) for _ in range(2)]
        values = [r.load(level_key())[0] for r in readers]
        assert values[0].fail_lists == values[1].fail_lists
        # Same backing file on disk — one physical copy for the fleet.
        entry_path(tmp_path)

    def test_entry_visible_to_earlier_attachers(self, tmp_path):
        """A store attached before a sibling published still sees the entry:
        a load opens the digest's file, there is no snapshot to go stale."""
        early = SharedPhysicsStore(str(tmp_path))
        assert early.load(level_key()) is None
        SharedPhysicsStore(str(tmp_path)).store(level_key(),
                                                sample_entry(), 1000)
        assert early.load(level_key()) is not None

    def test_concurrent_publishers_lose_nothing(self, tmp_path):
        """Two processes publish at once without a lock — 40 keys each plus
        10 both publish: every entry lands intact and no temp file stays."""
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        shared = [(f"both-{i}", 1000 + i) for i in range(10)]
        own = [[(f"w{w}-{i}", 100 * w + i) for i in range(40)]
               for w in range(2)]
        workers = [context.Process(target=_publish,
                                   args=(str(tmp_path), shared + own[w],
                                         barrier))
                   for w in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
            assert worker.exitcode == 0

        fresh = SharedPhysicsStore(str(tmp_path))
        assert fresh.stats()["entries"] == 90
        for tag, seed in shared + own[0] + own[1]:
            value, _ = fresh.load(level_key(tag))
            want = sample_entry(seed=seed)
            assert value.fail_lists == want.fail_lists
        assert fresh.stats()["corrupt_rejected"] == 0
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp")]
        # Each publisher logged every entry it derived as one whole line.
        stores = [e for e in fresh.read_events() if e["event"] == "store"]
        assert len(stores) == 100


class TestStaleIndexRejection:
    """Entry files that no longer hold what was published — truncated,
    missing, or written in another format — are misses, never served."""

    def test_truncated_data_file_rejected(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        store.store(level_key(), entry, 1000)
        path = entry_path(tmp_path)
        size = os.path.getsize(path)
        # A torn header line, then a header whose length check fails.
        for cut in (8, size - 1):
            with open(path, "r+b") as handle:
                handle.truncate(cut)
            reader = SharedPhysicsStore(str(tmp_path))
            assert reader.load(level_key()) is None
            assert reader.stats()["corrupt_rejected"] == 1
            assert not os.path.exists(path)           # quarantined
            assert reader.store(level_key(), entry, 1000)
            assert reader.stores == 1                 # republished
            assert os.path.getsize(path) == size
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert value.fail_lists == entry.fail_lists

    def test_missing_data_file_rejected(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        os.unlink(entry_path(tmp_path))
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stats()["corrupt_rejected"] == 0   # a plain miss
        assert reader.store(level_key(), sample_entry(), 1000)
        assert reader.stores == 1
        assert SharedPhysicsStore(str(tmp_path)).load(level_key()) is not None

    def test_stale_entry_can_be_republished(self, tmp_path):
        """The process that published an entry publishes it again once its
        file is gone: nothing in memory vouches for a file on disk."""
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        os.unlink(entry_path(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        assert store.stores == 2                      # actually rewritten
        assert SharedPhysicsStore(str(tmp_path)).load(level_key()) is not None

    def test_unknown_format_version_ignored(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        path = entry_path(tmp_path)
        rewrite(path, lambda raw: raw.replace(b'"repro-physics/2"',
                                              b'"repro-physics/9"', 1))
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stats()["corrupt_rejected"] == 0
        assert os.path.exists(path) and not corrupt_files(tmp_path)
        assert reader.kind_counts() == {}


class TestByteBudgetCacheBackend:
    def test_rejected_counter_counts_oversized_puts(self):
        cache = ByteBudgetCache(100)
        cache.put("small", "v", 10)
        cache.put("big", "v", 1000)
        stats = cache.stats()
        assert stats["rejected"] == 1
        assert stats["entries"] == 1
        cache.clear()
        assert cache.stats()["rejected"] == 0

    def test_zero_budget_counts_every_put_as_rejected(self):
        cache = ByteBudgetCache(0)
        cache.put("a", "v", 1)
        assert cache.stats()["rejected"] == 1

    def test_backend_hit_promotes_into_memory(self, tmp_path):
        backend = SharedPhysicsStore(str(tmp_path))
        backend.store(level_key(), sample_entry(), 1000)
        cache = ByteBudgetCache(1 << 20, backend=backend)
        assert cache.get(level_key()) is not None
        stats = cache.stats()
        assert stats["backend_hits"] == 1 and stats["misses"] == 0
        # Second get is a pure in-memory hit.
        assert cache.get(level_key()) is not None
        assert cache.stats()["hits"] == 1
        assert "backend" in stats

    def test_puts_flow_through_to_backend(self, tmp_path):
        backend = SharedPhysicsStore(str(tmp_path))
        cache = ByteBudgetCache(1 << 20, backend=backend)
        cache.put(level_key(), sample_entry(), 1000)
        assert backend.stats()["entries"] == 1


def store_workload(label="store-w"):
    return WorkloadSpec(builder="synthetic", groups=4, macros_per_group=2,
                        banks=4, rows=8, operator_rows=16, n_operators=4,
                        code_spread=30.0, mapping="sequential", label=label)


class TestLevelCacheIntegration:
    def test_attach_detach_lifecycle(self, fresh_cache, tmp_path):
        store = attach_shared_store(str(tmp_path))
        assert LEVEL_CACHE.backend is store
        assert "backend" in level_cache_stats()
        detach_shared_store()
        assert LEVEL_CACHE.backend is None
        assert "backend" not in level_cache_stats()

    def test_cross_process_reuse_is_bit_identical(self, fresh_cache, tmp_path):
        """Simulate a worker handoff: populate the store, wipe the in-memory
        cache (a fresh process), rerun — backend hits, identical results."""
        compiled = build_compiled_workload(store_workload())
        config = dict(cycles=400, controller="booster", beta=6,
                      flip_mean=0.8, monitor_noise=0.01, seed=2)
        attach_shared_store(str(tmp_path))
        first = simulate(compiled, RuntimeConfig(**config))
        clear_level_cache()                    # memory gone, disk remains
        second = simulate(compiled, RuntimeConfig(**config))
        assert level_cache_stats()["backend_hits"] > 0
        detach_shared_store()
        clear_level_cache()
        private = simulate(compiled, RuntimeConfig(**config))
        for warm in (first, second):
            assert warm.total_failures == private.total_failures
            assert warm.total_stall_cycles == private.total_stall_cycles
            for a, b in zip(warm.macro_results, private.macro_results):
                assert np.array_equal(a.drop_trace, b.drop_trace)
                assert a.failures == b.failures
            for a, b in zip(warm.group_results, private.group_results):
                assert np.array_equal(a.level_trace, b.level_trace)

    def test_zero_budget_bypasses_backend(self, fresh_cache, tmp_path):
        """``set_level_cache_budget(0)`` means *cold*: an attached store
        must neither serve nor receive entries, so cache-disabled timing
        runs stay honest inside store-attached workers."""
        from repro.sim import set_level_cache_budget
        compiled = build_compiled_workload(store_workload("store-cold"))
        config = RuntimeConfig(cycles=200, controller="booster", seed=0)
        store = attach_shared_store(str(tmp_path))
        simulate(compiled, config)             # populate the store
        assert store.stats()["entries"] > 0
        clear_level_cache()
        loads_before = store.loads
        old_budget = set_level_cache_budget(0)
        try:
            simulate(compiled, config)
            stats = level_cache_stats()
            assert stats["backend_hits"] == 0
            assert stats["entries"] == 0
            assert store.loads == loads_before    # backend never consulted
        finally:
            set_level_cache_budget(old_budget)
        simulate(compiled, config)             # re-enabled: served from disk
        assert level_cache_stats()["backend_hits"] > 0

    def test_store_io_failure_degrades_to_recompute(self, fresh_cache,
                                                    tmp_path):
        """Losing the store directory mid-sweep must not crash a run —
        the backend is best-effort by contract."""
        import shutil
        compiled = build_compiled_workload(store_workload("store-gone"))
        config = RuntimeConfig(cycles=200, controller="booster", seed=0)
        attach_shared_store(str(tmp_path / "volatile"))
        baseline = simulate(compiled, config)
        shutil.rmtree(tmp_path / "volatile")   # operator cleanup mid-run
        clear_level_cache()
        survived = simulate(compiled, config)  # must not raise
        assert survived.total_failures == baseline.total_failures
        for a, b in zip(baseline.macro_results, survived.macro_results):
            assert np.array_equal(a.drop_trace, b.drop_trace)

    def test_adhoc_workloads_share_by_content(self, fresh_cache, tmp_path):
        """Compiled images without a builder fingerprint derive a
        content-derived identity the store accepts: their physics publishes,
        and a content-identical rebuild maps to the same shareable keys."""
        from repro.sim.level_cache import workload_cache_key
        compiled = build_compiled_workload(store_workload("store-token"))
        adhoc = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        assert getattr(adhoc, "cache_key", None) is None
        store = attach_shared_store(str(tmp_path))
        simulate(adhoc, RuntimeConfig(cycles=200, controller="booster",
                                      seed=0))
        assert store.stats()["entries"] > 0
        assert store.rejected_keys == 0
        # A second, independently constructed content-identical image hashes
        # to the same ("content", ...) identity — the cross-process pattern.
        rebuilt = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        key = workload_cache_key(rebuilt)
        assert key[0] == "content"
        assert key == workload_cache_key(adhoc)
        assert shareable_key(key)

    def test_undigestible_workloads_never_cross_processes(
            self, fresh_cache, tmp_path, monkeypatch):
        """When no content digest can be derived the key falls back to a
        process-local token — the store must refuse it."""
        from repro.sim import level_cache as level_cache_module

        def refuse(compiled):
            raise TypeError("undigestible")

        monkeypatch.setattr(level_cache_module, "content_fingerprint", refuse)
        compiled = build_compiled_workload(store_workload("store-token2"))
        compiled = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        assert getattr(compiled, "cache_key", None) is None
        store = attach_shared_store(str(tmp_path))
        simulate(compiled, RuntimeConfig(cycles=200, controller="booster",
                                         seed=0))
        assert store.stats()["entries"] == 0
        assert store.rejected_keys > 0


def store_sweep_spec():
    return SweepSpec(
        name="store-sweep", workloads=(store_workload("store-pool"),),
        controllers=("booster",), modes=("low_power",), betas=(5, 9),
        cycles=300, flip_means=(0.8,), monitor_noises=(0.01,), seeds=2,
        master_seed=0, seed_mode="shared")


class TestPoolExecutorSharedStore:
    def test_shared_dir_records_match_serial(self, fresh_cache, tmp_path):
        spec = store_sweep_spec()
        serial = SweepRunner(spec, SerialExecutor()).run()
        clear_level_cache()
        executor = PoolExecutor(processes=2, shared_cache_dir=str(tmp_path))
        pool = SweepRunner(spec, executor).run()
        assert [r.to_json_dict() for r in serial.sorted_records()] == \
            [r.to_json_dict() for r in pool.sorted_records()]
        store = SharedPhysicsStore(str(tmp_path))
        assert store.stats()["entries"] > 0
        # A second fleet over the same store must reuse the first fleet's
        # entries (fresh worker pids — cross-worker by construction) and
        # still reproduce the records bit for bit.
        clear_level_cache()
        again = SweepRunner(spec, executor).run()
        assert [r.to_json_dict() for r in pool.sorted_records()] == \
            [r.to_json_dict() for r in again.sorted_records()]
        assert store.cross_worker_hits() > 0

    def test_booster_fleet_publishes_activity_only(self, fresh_cache,
                                                  tmp_path):
        """A booster run prebuilds no level: its span kernel derives every
        level it visits as a candidate mask, which stays in-process, and
        only heap groups build level entries.  So a pool fleet of booster
        runs on independent groups shares activity alone."""
        SweepRunner(store_sweep_spec(), PoolExecutor(
            processes=2, shared_cache_dir=str(tmp_path))).run()
        counts = SharedPhysicsStore(str(tmp_path)).kind_counts()
        assert counts.get("activity", 0) >= 1
        assert "level" not in counts

    def test_explicit_dir_left_in_place(self, fresh_cache, tmp_path):
        spec = store_sweep_spec()
        target = tmp_path / "physics"
        SweepRunner(spec, PoolExecutor(
            processes=2, shared_cache_dir=str(target))).run()
        assert target.is_dir()
        assert SharedPhysicsStore(str(target)).stats()["entries"] > 0

    def test_events_can_be_disabled(self, fresh_cache, tmp_path):
        spec = store_sweep_spec()
        SweepRunner(spec, PoolExecutor(
            processes=2, shared_cache_dir=str(tmp_path),
            shared_cache_events=False)).run()
        assert SharedPhysicsStore(str(tmp_path)).stats()["entries"] > 0
        assert not (tmp_path / "stats.jsonl").exists()


class TestStoreHardening:
    """Checksum quarantine, swallowed-error counters and graceful
    degradation — the store half of the fault-tolerance layer."""

    def test_corrupt_entry_quarantined_and_republishable(self, tmp_path):
        writer = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert writer.store(level_key(), entry, 1000)
        path = entry_path(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            handle.write(b"\xff")

        reader = SharedPhysicsStore(str(tmp_path))    # no verification memo
        assert reader.load(level_key()) is None       # corruption -> miss
        assert reader.stats()["corrupt_rejected"] == 1
        assert os.path.exists(path + ".corrupt")      # post-mortem evidence
        # Recovery is miss + republish: the slot is free again.
        assert reader.store(level_key(), entry, 1000)
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert value.fail_lists == entry.fail_lists

    def test_verification_memoized_per_process(self, tmp_path):
        writer = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert writer.store(level_key(), entry, 1000)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is not None
        assert len(reader._verified) == 1
        # Subsequent loads skip the hash — even past a payload byte flipped
        # behind the verified file's back; a fresh instance re-verifies.
        path = entry_path(tmp_path)
        rewrite(path, lambda raw: flip_byte(raw, len(raw) - 1))
        assert reader.load(level_key()) is not None
        assert SharedPhysicsStore(str(tmp_path))._verified == set()
        assert SharedPhysicsStore(str(tmp_path)).load(level_key()) is None

    def test_event_log_errors_counted(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        os.makedirs(str(tmp_path / "stats.jsonl"))    # appends now raise
        assert store.store(level_key(), sample_entry(), 1000)
        assert store.stats()["event_log_errors"] >= 1

    def test_load_errors_counted_for_unreadable_entry(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        path = entry_path(tmp_path)
        os.unlink(path)
        os.makedirs(path)                             # opens now raise
        assert store.load(level_key()) is None
        stats = store.stats()
        assert stats["load_errors"] == 1
        assert stats["corrupt_rejected"] == 0

    def test_unusable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = SharedPhysicsStore(str(blocker / "sub"))
        assert store.degraded
        assert store.load(level_key()) is None
        assert not store.store(level_key(), sample_entry(), 1000)
        assert store.stats()["degraded"]
        assert store.stats()["store_errors"] == 1

    def test_checksum_recorded_on_publish(self, tmp_path):
        """The header carries one SHA-256 over its other fields (canonical
        JSON) and the payload, which starts 64-byte aligned."""
        store = SharedPhysicsStore(str(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        with open(entry_path(tmp_path), "rb") as handle:
            line = handle.readline()
            payload = handle.read()
        assert len(line) % 64 == 0
        header = json.loads(line)
        checksum = header.pop("sha256")
        assert header["format"] == "repro-physics/2"
        assert header["kind"] == "level"
        assert header["payload_bytes"] == len(payload)
        fields = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode()
        assert checksum == hashlib.sha256(fields + payload).hexdigest()

    @pytest.mark.parametrize("damage", [
        lambda raw: flip_byte(raw, 10),
        # Still valid JSON: only the checksum over the fields catches it.
        lambda raw: raw.replace(b'"pair":[40,', b'"pair":[41,', 1),
    ], ids=["flipped-byte", "edited-field"])
    def test_flipped_header_byte_is_caught(self, tmp_path, damage):
        writer = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert writer.store(level_key(), entry, 1000)
        path = entry_path(tmp_path)
        rewrite(path, damage)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stats()["corrupt_rejected"] == 1
        assert corrupt_files(tmp_path) == [os.path.basename(path)
                                           + ".corrupt"]
        assert reader.store(level_key(), entry, 1000)
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert value.pair == entry.pair

    @pytest.mark.parametrize("header", [b"not json", b'{"formal":1}'],
                             ids=["unparseable", "untagged"])
    def test_malformed_header_counted_and_quarantined(self, tmp_path,
                                                      header):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        path = entry_path(tmp_path)
        rewrite(path, lambda raw: header + b"\n" + raw.split(b"\n", 1)[1])
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stats()["corrupt_rejected"] == 1
        assert not os.path.exists(path) and corrupt_files(tmp_path)


class TestPreChangeLayout:
    """A store directory written in the previous layout — headerless
    ``<digest>.bin`` files listed in one index file — is ignored, not
    quarantined: its entries miss and are republished in the new format."""

    def test_loads_miss_and_republish(self, tmp_path):
        entry = sample_entry()
        assert SharedPhysicsStore(str(tmp_path)).store(level_key(), entry,
                                                       1000)
        assert write_pre_change_layout(str(tmp_path)) == 1
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.stats()["entries"] == 0
        assert reader.load(level_key()) is None
        stats = reader.stats()
        assert stats["corrupt_rejected"] == 0 and stats["load_errors"] == 0
        assert not corrupt_files(tmp_path)
        assert reader.store(level_key(), entry, 1000)
        assert reader.stores == 1
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert value.fail_lists == entry.fail_lists


class TestDaemonPhysicsStore:
    """No daemon keeps a physics store: a serial daemon's physics stays in
    its level cache and a pool daemon's in its workers' caches, as a
    library sweep's do."""

    def test_default_daemon_attaches_no_store(self, fresh_cache, tmp_path):
        from repro.service import SweepService
        from repro.sweep import SweepResult
        spec = store_sweep_spec()
        serial = SweepRunner(spec, SerialExecutor()).run()
        for processes in (None, 2):
            clear_level_cache()
            data_dir = str(tmp_path / f"processes-{processes}")
            service = SweepService(data_dir, processes=processes).start()
            try:
                job, _ = service.submit(spec.to_json_dict(), job_key="k")
                assert service.wait_for(job.job_id, timeout=120)["state"] \
                    == "done"
                assert "store" not in service.health()
            finally:
                service.shutdown(timeout=30)
            assert LEVEL_CACHE.backend is None
            assert not os.path.exists(os.path.join(data_dir, "store"))
            if processes is None:
                assert level_cache_stats()["entries"] > 0   # in process
            stored = SweepResult.load_resumable(service.store_path(job.job_id))
            assert [r.to_json_dict() for r in stored.sorted_records()] == \
                [r.to_json_dict() for r in serial.sorted_records()]
