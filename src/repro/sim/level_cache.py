"""Process-level, byte-budgeted cache for per-(group, level) simulation physics.

Sweeps simulate the same ``(workload, seed, stress settings)`` many times —
once per beta, per controller, per mode — and every one of those runs derives
*identical* per-(group, level) candidate failures from Eq. 2 and the monitor
noise.  Only the *event dynamics* differ between such runs.  This module
holds those candidates in a process-level LRU keyed on everything the
physics actually depends on, so a Fig.-18 beta grid (or a multi-controller
point) derives each group's candidates once per process instead of once per
run.  A heap-scheduled group keeps per-row candidate cycles
(:class:`LevelEntry`); a span group keeps one candidate byte mask per
(group, level), under the level's physics key led by ``"candidates"``
(:class:`~repro.sim.engine._LazyLevelStreams`): a mask grows in place as
runs refill it, is charged its full-horizon size up front, and is never
published to a shared store.  No drop matrix is kept: Eq. 2 is evaluated
where a candidate window or a full-trace run's drop trace needs it.
Entries are immutable, eviction is byte-budgeted, and correctness never
depends on a hit.  The engine keeps each run's activity here too — the
per-macro traces as row views of one stacked matrix, its prefix sums and
row statistics, under keys led by ``"activity"`` — and nowhere else: the
flip matrices the activity derives from are not memoized.

Key derivation
--------------
An entry key is ``(share_key, group_id, pair.level, pair.voltage,
pair.frequency)`` where ``share_key`` covers the workload identity, the
IR-model calibration and every :class:`~repro.sim.runtime.RuntimeConfig` field
that shapes the activity matrix or the monitor noise (cycles, flip statistics,
monitor noise, seed, input-determined HR).  The workload identity is, in
preference order:

* ``compiled.cache_key`` — set by :mod:`repro.sweep.builders` to the
  :func:`~repro.sweep.spec.workload_fingerprint` of the producing
  :class:`~repro.sweep.spec.WorkloadSpec`.  Builders are deterministic, so two
  compiled instances of the same spec (e.g. in a long-lived sweep worker)
  share entries;
* a per-object token attached on first sight — object identity without the
  ``id()`` reuse hazard, so ad-hoc compiled workloads (benchmark ``lru_cache``
  images, test fixtures) still share across repeated runs of the same object.

Notably *absent* from the key: ``beta``, ``recompute_cycles``, the controller
and the mode.  They steer which levels are visited and when, not what a
level's physics looks like — that independence is what makes the cross-run
reuse large.  (The mode does pick the V-f pair, but the pair's
``(level, voltage, frequency)`` is part of the key, so distinct modes simply
key distinct entries.)
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..power.vf_table import VFPair

__all__ = [
    "ByteBudgetCache",
    "LEVEL_CACHE",
    "LevelEntry",
    "attach_shared_store",
    "clear_level_cache",
    "content_fingerprint",
    "detach_shared_store",
    "level_cache_stats",
    "set_level_cache_budget",
    "workload_cache_key",
]


@dataclass
class LevelEntry:
    """A heap-scheduled group's candidate-failure cycles at one V-f pair
    over the full horizon.

    Entries are immutable once built and shared across runs through
    :data:`LEVEL_CACHE` — and, when a shared store is attached, across
    *processes* as read-only ``np.memmap`` views (see
    :mod:`repro.sim.shared_store`).  The heap scheduler bisects
    :attr:`fail_lists`, the per-member plain-list mirror of the candidates,
    built lazily per process.
    """

    pair: VFPair
    #: per member, sorted candidate cycle indices
    fail_cycles: List[np.ndarray]
    _fail_lists: Optional[List[List[int]]] = field(default=None, compare=False)

    @property
    def fail_lists(self) -> List[List[int]]:
        """Per member, the candidate cycles as plain Python lists (a scalar
        list ``bisect`` beats a scalar ``searchsorted`` several-fold in the
        event hot paths).  Converted on first use and memoized."""
        lists = self._fail_lists
        if lists is None:
            lists = [cycles.tolist() for cycles in self.fail_cycles]
            self._fail_lists = lists
        return lists

    def nbytes_estimate(self) -> int:
        """Byte-budget charge for this entry, wherever it was built.

        Candidate bytes count 7x: the arrays themselves (1x) plus the
        lazily-built plain ``fail_lists`` of boxed ints — a deliberate
        overestimate that sets the eviction pace and therefore peak memory.
        The engine and the shared store both charge through this one
        estimator so locally-built and backend-loaded entries weigh the same
        under LRU eviction.
        """
        return int(7 * sum(cycles.nbytes for cycles in self.fail_cycles)
                   + 512)


class ByteBudgetCache:
    """An LRU mapping with a byte budget, hit/miss counters and an optional
    storage backend.

    Values are opaque; the caller supplies each entry's size estimate.  A
    ``budget_bytes`` of 0 disables in-memory storage entirely (every ``get``
    misses), which the benchmarks use to measure cold-path behaviour.
    Single-threaded by design — the simulation engines run one per process.

    A *backend* (duck-typed: ``load(key) -> Optional[(value, nbytes)]``,
    ``store(key, value, nbytes) -> bool``) extends the cache beyond the
    process: on an in-memory miss the backend is consulted (a hit is counted
    in ``backend_hits`` and promoted into memory), and every ``put`` is
    offered to the backend as well.  :mod:`repro.sim.shared_store` provides
    the on-disk ``np.memmap`` backend that lets a pool-executor fleet share
    one physics store across workers.
    """

    def __init__(self, budget_bytes: int, backend: Optional[object] = None) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.budget_bytes = budget_bytes
        self.backend = backend
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.backend_hits = 0
        self.rejected = 0
        self.backend_errors = 0

    def get(self, key: Hashable) -> Optional[object]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        # ``budget_bytes == 0`` means "cache disabled" — the cold-path
        # measurement mode — so an attached backend must not quietly serve
        # warm entries either.
        if self.backend is not None and self.budget_bytes > 0:
            # A raising backend degrades to a miss (the engine recomputes);
            # ``SharedPhysicsStore`` already swallows its own I/O failures,
            # so this guards third-party duck-typed backends.
            try:
                loaded = self.backend.load(key)
            except Exception:
                self.backend_errors += 1
                loaded = None
            if loaded is not None:
                value, nbytes = loaded
                self.backend_hits += 1
                # Promotion is best-effort: an oversized backend entry is
                # still served, it just stays disk-only (not a rejected put).
                self._insert(key, value, nbytes, count_rejection=False)
                return value
        self.misses += 1
        return None

    def _insert(self, key: Hashable, value: object, nbytes: int,
                count_rejection: bool = True) -> None:
        if nbytes > self.budget_bytes:
            # Oversized put (or in-memory storage disabled): surfaced via
            # ``rejected`` so a misconfigured budget shows up in stats()
            # instead of reading as a mysterious 0-hit cache.
            if count_rejection:
                self.rejected += 1
            return
        if key in self._entries:
            self._bytes -= self._sizes[key]
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._sizes[key] = nbytes
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and self._entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted_key)

    def put(self, key: Hashable, value: object, nbytes: int) -> None:
        self._insert(key, value, nbytes)
        if self.backend is not None and self.budget_bytes > 0:
            try:
                self.backend.store(key, value, nbytes)
            except Exception:               # see get(): degrade, don't crash
                self.backend_errors += 1

    def set_budget(self, budget_bytes: int) -> int:
        """Change the byte budget, evicting down to it; returns the old one."""
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        old = self.budget_bytes
        self.budget_bytes = budget_bytes
        while self._bytes > budget_bytes and self._entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted_key)
        return old

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.backend_hits = 0
        self.rejected = 0
        self.backend_errors = 0

    def stats(self) -> Dict[str, int]:
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "budget_bytes": self.budget_bytes,
            "rejected": self.rejected,
            "backend_hits": self.backend_hits,
            "backend_errors": self.backend_errors,
        }
        if self.backend is not None:
            stats["backend"] = self.backend.stats()
        return stats


#: Default budget: comfortably holds the activity, prefix sums, candidate
#: masks and entries of dozens of reference-chip runs while bounding long
#: multi-workload sweeps.  Each value is charged its own estimate (an
#: activity matrix its bytes, a mask its full-horizon bytes, an entry
#: :meth:`LevelEntry.nbytes_estimate`); the budget and those charges
#: together set how much physics a process keeps.
_DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024

#: The process-level cache instance shared by every simulation engine run.
LEVEL_CACHE = ByteBudgetCache(_DEFAULT_BUDGET_BYTES)


def clear_level_cache() -> None:
    """Drop all shared level-cache entries and reset the counters."""
    LEVEL_CACHE.clear()


def level_cache_stats() -> Dict[str, int]:
    """Hit/miss/occupancy counters of the process-level cache."""
    return LEVEL_CACHE.stats()


def set_level_cache_budget(budget_bytes: int) -> int:
    """Set the cache byte budget (0 disables storage); returns the old budget.

    Shrinking the budget evicts immediately.  The benchmarks use
    ``set_level_cache_budget(0)`` to time the cache-disabled path and restore
    the previous budget afterwards; a zero budget also bypasses any attached
    shared-store backend, so "disabled" genuinely means cold.
    """
    return LEVEL_CACHE.set_budget(budget_bytes)


def attach_shared_store(directory: str, record_events: bool = True):
    """Attach an on-disk shared physics store as the cache's backend.

    ``directory`` is created if missing.  Returns the attached
    :class:`~repro.sim.shared_store.SharedPhysicsStore`.  Pool-executor
    workers call this in their initializer
    (``PoolExecutor(shared_cache_dir=...)``) so a whole fleet shares one
    cross-process copy of the per-(group, level) physics; arrays loaded from
    the store are read-only ``np.memmap`` views.  ``record_events=False``
    skips the store's reuse audit log.
    """
    from .shared_store import SharedPhysicsStore
    store = SharedPhysicsStore(directory, record_events=record_events)
    LEVEL_CACHE.backend = store
    return store


def detach_shared_store() -> None:
    """Detach the shared store (in-memory entries stay valid)."""
    LEVEL_CACHE.backend = None


_TOKENS = count()


def content_fingerprint(compiled) -> str:
    """Deterministic digest of everything a chip image's physics depends on.

    Covers the chip geometry and operating point, the task-to-macro
    assignment and, per task, the loaded weight codes plus every field the
    activity and candidate-failure physics read (set partition, bits, WDS
    shift, input-determinedness, post-WDS HR, MACs per wave) — so two
    *independently built* images with identical content (e.g. a benchmark's
    ``lru_cache`` QAT compile rebuilt in another process) hash alike and can
    share cached physics, including through the cross-process
    :class:`~repro.sim.shared_store.SharedPhysicsStore`.  Content that only
    matters after simulation (e.g. the raw chip object) is excluded.
    """
    chip = compiled.chip_config
    digest = hashlib.sha256()
    digest.update(repr((
        compiled.profile_name, chip.groups, chip.group.macros,
        chip.macro.banks, chip.macro.rows, chip.macro.bank.weight_bits,
        chip.nominal_voltage, chip.nominal_frequency,
        chip.signoff_ir_drop)).encode())
    for task_id, macro_index in sorted(compiled.mapping.assignment.items()):
        task = compiled.tasks[task_id]
        digest.update(repr((
            task_id, macro_index, task.set_id, task.bits, task.wds_delta,
            bool(task.input_determined), float(task.hamming_rate),
            float(task.macs_per_wave), task.codes.shape)).encode())
        digest.update(np.ascontiguousarray(task.codes).tobytes())
    return digest.hexdigest()


def workload_cache_key(compiled) -> Tuple[str, object]:
    """A stable, hashable identity for a compiled workload's physics.

    Prefers the builder-attached ``cache_key`` (a deterministic fingerprint
    of the producing :class:`~repro.sweep.spec.WorkloadSpec`); otherwise
    derives a :func:`content_fingerprint` on first sight and memoizes it on
    the object — a content-derived identity that the cross-process shared
    store accepts, so ad-hoc compiled QAT images (benchmark ``lru_cache``
    compiles, test fixtures) share physics across processes too.  Objects
    whose content cannot be digested fall back to a process-local token
    (shared within the process, refused by the store).
    """
    key = getattr(compiled, "cache_key", None)
    if key is not None:
        return ("spec", key)
    fingerprint = getattr(compiled, "_content_fingerprint", None)
    if fingerprint is not None:
        return ("content", fingerprint)
    try:
        fingerprint = content_fingerprint(compiled)
    except (AttributeError, TypeError):    # undigestible content
        token = getattr(compiled, "_level_cache_token", None)
        if token is None:
            token = next(_TOKENS)
            try:
                compiled._level_cache_token = token
            except AttributeError:         # unsettable object: never share
                return ("unshared", object())
        return ("token", token)
    try:
        compiled._content_fingerprint = fingerprint
    except AttributeError:
        pass            # unsettable: still shareable, re-derived per call
    return ("content", fingerprint)
