"""Vectorized event-driven simulation engine for the cycle-level runtime.

The reference engine in :mod:`repro.sim.runtime` walks ``for cycle -> for group
-> for macro`` in pure Python: every cycle re-evaluates scalar Eq.-2 drops,
monitor comparisons and per-macro energy.  This module replaces that with an
*event-driven* formulation built on one observation: a group's V-f level only
changes at controller events — an IRFailure, or an Algorithm-2 beta-window
boundary.  Between two events every quantity of the simulation is a closed-form
array expression over the ``(n_macros, cycles)`` activity matrix, generated
once per activity key and cached in the level cache:

* the per-macro IR-drop is Eq. 2, ``static + dynamic * rtog * scale(V, f)``,
  a closed form the engine evaluates only where it needs it — over a cycle
  window of a group's activity, or over a group's rows with per-cycle V and
  f for a full-trace run's drop traces — and never keeps as a matrix;
* the monitor decision is a thresholded comparison against the group's
  cycle-indexed noise stream (see :class:`~repro.power.monitor.IRMonitor`), so
  *candidate failure cycles* per (group, level) are precomputable with one
  vectorized compare, shared through the process-level
  :mod:`~repro.sim.level_cache` so repeated runs on the same ``(workload,
  seed, stress settings)`` — a beta grid, a controller comparison — reuse
  them;
* energy closes over level-stable spans: a span's activity sum (two gathers
  of cached prefix sums) times ``V^2``, and its length times ``V/f``
  (:meth:`~repro.power.energy.EnergyModel.span_breakdowns`).

A lone run (:func:`run_vectorized`) is a batch of one through the phases of
:func:`repro.sim.ensemble.run_engines`.  Every level a span group visits is
bound as one candidate byte mask per (group, level) that the level cache
shares across runs (:class:`_LazyLevelStreams`): a ``booster`` run's span
kernel derives each over doubling windows as it reaches it, and a run whose
levels never change prebuilds each group's one level over the full horizon
in one window.

Event processing is split by *recompute-stall coupling*.  Stalls propagate
within a failing macro's logical Set, so a group whose Sets all live inside its
own row range can never interact with any other group: each such *independent*
group's entire failure timeline resolves through one closed-form kernel
(:meth:`_VectorizedEngine._run_group_span_kernel`), the greedy min-gap
selection of :mod:`repro.sim.kernels` resumed across level-stable spans, one
``bytearray.find`` per peek into the current level's candidate mask, with
each *safe-level failure run* (consecutive failures all within ``beta`` of
each other) chained in a tight controller-free inner loop and applied to
Algorithm 2 in one vectorized :meth:`~repro.core.ir_booster.\
IRBoosterController.apply_failures_at_cycles` call.  A group whose level
never changes (``dvfs``, ``booster_safe``) is the same kernel with no
scheduled transition: its one level is its safe level and the whole horizon
is one failure run, applied to no controller.  Groups whose Sets straddle
group boundaries are *coupled* and run under a lazy-invalidation heap
scheduler that interleaves their events in global cycle order, as does a
group with more Sets than a mask byte codes (:data:`MAX_MASK_SETS`); the
routing depends on the workload alone.  Failure
cycles are replayed with the exact scalar ordering of the reference loop
(failures propagate recompute stalls to the failing macro's logical Set
*within* the cycle, which suppresses later samples).  Materialization
computes every scalar record field closed-form in one pass over a table of
every row's level-stable spans, from the cached activity prefix sums, the
spans' peak activity and the logged recompute windows and failure points
(:meth:`_VectorizedEngine._materialize_scalar`).  ``traces="none"`` — the
scalar-record fast path sweeps run on — stops there; ``traces="full"``
(default) then builds the per-cycle level traces, evaluates Eq. 2 over each
group's activity and level trace for its drop traces, and takes the chip
trace as their per-cycle max (:meth:`_VectorizedEngine._materialize`), so a
run's scalars are the same in both modes.

This is the one event path; the reference loop in :mod:`repro.sim.runtime`
is its oracle.  Bit-for-bit equivalence with it (same seed, same failures,
same stalls, same drop and level traces; energy and mean drop equal up to
floating-point summation order) is enforced by ``tests/test_sim_engine.py``
and the oracle chain of
``tests/test_kernels.py``, and golden sweep records
(``tests/test_golden_records.py``) pin the outputs themselves.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..power.monitor import IRMonitor
from ..power.vf_table import VFPair
# ``merge_candidates`` and ``select_failures`` have no caller: every
# independent group runs the span kernel.  Both stay importable from this
# module only because e2ebench/tracer.py wraps them under this path.
from .kernels import merge_candidates, select_failures  # noqa: F401
from .level_cache import LEVEL_CACHE, LevelEntry, workload_cache_key
from .results import SimulationResult, assemble_result, attach_traces

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import PIMRuntime

__all__ = ["ENGINES", "run_vectorized"]

#: Available simulation engines (``RuntimeConfig.engine``).
ENGINES = ("vectorized", "reference")

#: Most Sets a group's candidate mask codes: one byte per candidate, code 0
#: meaning none.  A group with more runs under the heap scheduler.
MAX_MASK_SETS = 255


class ActivityTraces(dict):
    """Per-macro realized-Rtog traces as row views of one ``(rows, cycles)``
    matrix in processing order.

    The level-cache value under a run's activity key: consumers (and the
    shared store) read it per macro, the engine's array passes read
    :attr:`matrix`, and both share one buffer, charged once.
    """

    __slots__ = ("matrix",)

    def __init__(self, macros: List[int], matrix: np.ndarray) -> None:
        super().__init__(zip(macros, matrix))
        self.matrix = matrix


class _LazyLevelStreams:
    """One ``(group, level)``'s windowed candidate mask.

    A cycle-major ``bytearray`` over the group's rows: the byte at
    ``cycle * width + local_row`` holds the row's Set code (the Set's
    1-based position in :meth:`_VectorizedEngine._group_sets` order) where
    the engine's candidate comparison fails at this level, and 0 elsewhere.
    Mask positions order exactly like the kernels' packed ``(cycle, row)``
    keys, so the span kernel keeps each Set's frontier as a position and a
    peek is one ``mask.find(code, pos)``: a ``memchr`` over bytes in place
    of a boxed key stream per Set.

    The span kernel binds boost-ladder levels thousands of times but
    consumes only a handful of candidates per bind before the level drops
    back to safe, so the mask is derived lazily: :meth:`refill` extends it
    over doubling windows of whole cycles, contiguously from cycle 0, until
    the peeked Set has a candidate or the horizon ends.  A group whose
    level never changes walks its whole horizon, so its one level is
    extended to the horizon in one window up front
    (:meth:`_VectorizedEngine._prebuild_streams`).  A window applies the
    engine's own candidate expression (:meth:`_VectorizedEngine.\
_fail_mask`) to a column window of the group's activity (:meth:`extend`);
    ``drop_array`` and the comparison are elementwise, so every byte equals
    the full-horizon mask's.

    The mask holds no engine arrays: :meth:`refill` reads the calling
    engine's activity block and noise.  So it is cached in the level cache
    under a ``"candidates"``-led physics key
    (:meth:`_VectorizedEngine._candidates`), where every run on the same
    physics (a shared-seed beta grid) finds it from the first sight and
    extends the same bytes in place.

    The class name predates the mask; e2ebench/tracer.py wraps
    :meth:`refill` under it.
    """

    __slots__ = ("gid", "lo", "hi", "pair", "codes", "mask", "upto", "step")

    #: first-window cycle count; each consecutive refill doubles the
    #: window (capped) so sparse masks converge in a few passes.
    WINDOW = 512
    WINDOW_MAX = 4096

    def __init__(self, gid: int, lo: int, hi: int, pair: VFPair,
                 codes: np.ndarray) -> None:
        self.gid = gid
        self.lo = lo
        self.hi = hi
        self.pair = pair
        #: per local row, its Set code (``uint8``)
        self.codes = codes
        self.mask = bytearray()
        #: cycles derived so far (the mask holds ``upto * width`` bytes)
        self.upto = 0
        self.step = self.WINDOW

    def extend(self, engine: "_VectorizedEngine", end: int) -> None:
        """Derive the mask's cycles ``upto .. end`` in one window."""
        upto, pair = self.upto, self.pair
        drop = engine.ir_model.drop_array(
            engine.A[self.lo:self.hi, upto:end], pair.voltage, pair.frequency)
        fail = engine._fail_mask(self.gid, pair, drop, upto)
        self.mask += (fail.T * self.codes).tobytes()
        self.upto = end

    def refill(self, engine: "_VectorizedEngine", code: int, pos: int) -> int:
        """Extend the mask until Set ``code`` has a candidate at or after
        position ``pos``; return that position, or ``n * width`` when the
        horizon holds none.  Only called when ``mask.find`` missed."""
        mask = self.mask
        width = self.hi - self.lo
        n = engine.n
        step = self.step
        found = -1
        while found < 0 and self.upto < n:
            start = self.upto
            self.extend(engine, min(start + step, n))
            found = mask.find(code, max(pos, start * width))
            if step < self.WINDOW_MAX:
                step <<= 1
        self.step = step
        return found if found >= 0 else n * width


class _VectorizedEngine:
    """One simulation run's event-driven state, built fresh per run and
    driven through its phases by :func:`repro.sim.ensemble.run_engines`."""

    def __init__(self, runtime: "PIMRuntime") -> None:
        self.runtime = runtime
        self.cfg = runtime.config
        self.compiled = runtime.compiled
        self.table = runtime.table
        self.ir_model = runtime.ir_model
        self.energy_model = runtime.energy_model
        self.n = self.cfg.cycles

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def _setup_structure(self) -> None:
        """Everything up to (but excluding) the physics and the initial binds.

        The batch flow interleaves: structure first for every member, then
        one batched activity generation and physics prebuild across the
        whole batch, then the (now cache-hitting) per-member binds.
        """
        runtime, cfg = self.runtime, self.cfg
        # The realized-Rtog traces are pure functions of the workload and the
        # flip statistics — shared across runs like the level physics (a beta
        # grid reuses them for every point) under this key, the only place
        # they are kept: the flip matrices they derive from are not memoized.
        activity_key = ("activity", workload_cache_key(self.compiled),
                        cfg.cycles, cfg.flip_mean, cfg.flip_std,
                        cfg.flip_correlation, cfg.seed, cfg.input_determined_hr)
        self._activity_key = activity_key
        #: per-macro traces and their ``(n_rows, cycles)`` stacked matrix
        #: (:meth:`_bind_activity`); a miss is generated for the whole batch
        #: by :func:`repro.sim.ensemble._batch_activity`.
        self.activity: Optional[Dict[int, np.ndarray]] = None
        self.A: Optional[np.ndarray] = None
        #: the matrix's ``(n_rows, cycles + 1)`` prefix sums and per-row
        #: mean and max, bound with it for the scalar materialization.
        self.prefix: Optional[np.ndarray] = None
        self.rtog_means: Optional[np.ndarray] = None
        self.rtog_peaks: Optional[np.ndarray] = None
        self.controller = runtime._controller()

        # Group membership in the reference engine's processing order: groups
        # in first-encounter order over sorted macro indices, members sorted.
        self.macro_indices = sorted(
            macro for macro in runtime.compiled.mapping.assignment.values())
        self.group_members = runtime._group_members(self.macro_indices)
        self.groups: List[int] = list(self.group_members)

        # Row layout: the activity matrix keeps macros in processing order, so
        # a row index doubles as the reference loop's within-cycle visit order
        # and each group's members occupy one contiguous row range.
        proc_order: List[int] = [m for gid in self.groups
                                 for m in self.group_members[gid]]
        self.proc_order = proc_order
        self.row_of = {m: r for r, m in enumerate(proc_order)}
        self.n_rows = len(proc_order)
        self.group_rows: Dict[int, Tuple[int, int]] = {}
        start = 0
        for gid in self.groups:
            count = len(self.group_members[gid])
            self.group_rows[gid] = (start, start + count)
            start += count
        self.group_of_row: List[int] = [0] * self.n_rows
        for gid, (lo, hi) in self.group_rows.items():
            for row in range(lo, hi):
                self.group_of_row[row] = gid

        # Logical sets (recompute stalls propagate set-wide), as row indices.
        macro_set, set_members = runtime._logical_sets()
        self.set_of_row = [macro_set[m] for m in proc_order]
        self.set_rows = {sid: sorted(self.row_of[m] for m in members)
                         for sid, members in set_members.items()}

        # Stall-coupling analysis: a group is *independent* when every logical
        # Set touching its rows lives entirely inside the group, so its failure
        # timeline cannot interact with any other group's and resolves in one
        # per-group timeline-kernel pass.  Sets that straddle group boundaries
        # couple all their groups into the heap-scheduled event loop.
        coupled = set()
        for rows in self.set_rows.values():
            touched = {self.group_of_row[row] for row in rows}
            if len(touched) > 1:
                coupled.update(touched)
        self.coupled_groups = [gid for gid in self.groups if gid in coupled]
        self.independent_groups = [gid for gid in self.groups
                                   if gid not in coupled]

        macs = runtime._macs_per_cycle()
        self.macs_per_cycle = np.array([macs[m] for m in proc_order]) \
            if proc_order else np.zeros(0)

        # Cycle-indexed monitor noise, one stream per group (same construction
        # as the reference engine's monitors), generated lazily: a run whose
        # level physics all hit the shared cache never touches the noise RNG.
        self.noise: Dict[int, np.ndarray] = {}
        self.min_voltage_margin = 0.0

        # Everything the per-(group, level) physics depends on — the key under
        # which entries are shared across runs (see repro.sim.level_cache).
        ir = self.ir_model
        self._share_key = (
            workload_cache_key(self.compiled), cfg.cycles, cfg.flip_mean,
            cfg.flip_std, cfg.flip_correlation, cfg.monitor_noise, cfg.seed,
            cfg.input_determined_hr, ir.supply_voltage, ir.signoff_drop,
            ir.static_fraction, ir.nominal_frequency, self.min_voltage_margin)

        # Controller-facing state.
        self.level: Dict[int, int] = {}
        for gid in self.groups:
            if self.controller is None:
                self.level[gid] = 100
            else:
                self.level[gid] = self.controller.state(gid).level
        # Level breaks as parallel (cycle, level) lists: int appends during
        # event processing, one C-level np.array conversion at materialization.
        self.break_cycles: Dict[int, List[int]] = {
            gid: [0] for gid in self.groups}
        self.break_levels: Dict[int, List[int]] = {
            gid: [self.level[gid]] for gid in self.groups}

        self._caches: Dict[Tuple[int, int], LevelEntry] = {}
        self._masks: Dict[Tuple[int, int], _LazyLevelStreams] = {}

        # Event bookkeeping.
        inf = self.n
        #: whether Algorithm 2 moves the groups' levels (``booster``);
        #: ``dvfs`` and ``booster_safe`` groups keep their initial level.
        self.stepping = self.cfg.controller == "booster"
        #: independent groups the span kernel runs, and the groups the heap
        #: scheduler runs: the coupled ones and any independent group with
        #: more Sets than a mask byte codes.  Both are functions of the
        #: workload alone, so every member of a batch routes alike.
        self.span_groups = [
            gid for gid in self.independent_groups
            if len({self.set_of_row[row] for row in range(
                *self.group_rows[gid])}) <= MAX_MASK_SETS]
        span = set(self.span_groups)
        self.heap_groups = [gid for gid in self.groups if gid not in span]
        self.synced = {gid: 0 for gid in self.groups}
        self.scan_from = {gid: 0 for gid in self.groups}
        self.next_sched = {
            gid: (self.controller.cycles_to_next_transition(gid)
                  if self.stepping else inf)
            for gid in self.groups}
        self.stall_end = [0] * self.n_rows
        # Recompute windows and failure points are *logged* during event
        # processing (every window spans `recompute_cycles`); the scalar
        # materialization merges each row's windows and charges them, and
        # the failure points, to the level-stable spans they fall in.
        self.stall_log_rows: List[int] = []
        self.stall_log_starts: List[int] = []
        self.fail_log_rows: List[int] = []
        self.fail_log_cycles: List[int] = []
        # Closed-form kernel paths log whole selections as array chunks
        # (scalar appends would dominate their runtime); materialization
        # concatenates chunks and scalar logs alike.
        self.stall_chunk_rows: List[np.ndarray] = []
        self.stall_chunk_starts: List[np.ndarray] = []
        self.fail_chunk_rows: List[np.ndarray] = []
        self.fail_chunk_cycles: List[np.ndarray] = []
        self._group_sets_memo: Dict[int, List[np.ndarray]] = {}
        self.fail_counts = [0] * self.n_rows
        self.next_fail: Dict[int, int] = {}

    def _bind_caches(self) -> None:
        """Bind each heap group's initial-level entry, whose per-row
        candidate lists the heap scheduler bisects (derived on a cache
        miss).

        Span groups bind nothing here: the span kernel binds every level it
        visits itself, as a candidate mask (see :meth:`_candidates`).
        """
        #: the active level's cache per heap group (refreshed on level
        #: changes)
        self.cur_cache = {gid: self._cache(gid, self.level[gid])
                          for gid in self.heap_groups}

    # ------------------------------------------------------------------ #
    # cross-run-shared activity forms
    # ------------------------------------------------------------------ #
    def _activity_rows(self) -> Tuple[List[int], List[float]]:
        """Flip seeds and effective HRs of the activity rows, in processing
        order (the reference engine's draws, reordered)."""
        macros, seeds, hrs = self.runtime._activity_inputs()
        at = {macro: i for i, macro in enumerate(macros)}
        order = [at[macro] for macro in self.proc_order]
        return [seeds[i] for i in order], [hrs[i] for i in order]

    def _bind_activity(self, traces: Dict[int, np.ndarray]) -> None:
        """Adopt the run's per-macro traces and their stacked matrix, and
        bind the prefix sums and row stats the scalar materialization reads.

        Traces built by this engine are row views of one matrix
        (:class:`ActivityTraces`); traces a shared store loaded are stacked
        here in processing order.  The prefix sums and stats are looked up
        (and built on a miss) once per run, here, next to the matrix's
        generation: deferred to materialization, they
        cost a serial 24-run stress@64 sweep 48,000 more minor page faults
        (120,000 against 72,000) and about 3% of its end-to-end time.
        """
        A = getattr(traces, "matrix", None)
        if A is None:
            A = np.vstack([traces[m] for m in self.proc_order])
            A.setflags(write=False)
        self.activity = traces
        self.A = A
        self.prefix = self._activity_prefix()
        self.rtog_means, self.rtog_peaks = self._activity_stats()

    def _activity_prefix(self) -> np.ndarray:
        """``(n_rows, cycles + 1)`` activity prefix sums (cache-shared).

        The scalar materialization turns any span's per-row activity sum
        into two gathers, so warm runs never scan the activity matrix.
        """
        key = ("activity_prefix",) + self._activity_key[1:]
        prefix = LEVEL_CACHE.get(key)
        if prefix is None:
            A = self.A
            prefix = np.zeros((self.n_rows, self.n + 1))
            np.cumsum(A, axis=1, out=prefix[:, 1:])
            prefix.setflags(write=False)
            LEVEL_CACHE.put(key, prefix, prefix.nbytes)
        return prefix

    def _activity_stats(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``(mean, max)`` of the activity matrix (cache-shared)."""
        key = ("activity_stats",) + self._activity_key[1:]
        stats = LEVEL_CACHE.get(key)
        if stats is None:
            A = self.A
            means = A.mean(axis=1) if A.size else np.zeros(self.n_rows)
            maxes = A.max(axis=1) if A.size else np.zeros(self.n_rows)
            means.setflags(write=False)
            maxes.setflags(write=False)
            stats = (means, maxes)
            LEVEL_CACHE.put(key, stats, means.nbytes + maxes.nbytes)
        return stats

    # ------------------------------------------------------------------ #
    # per-(group, level) caches
    # ------------------------------------------------------------------ #
    def _noise(self, gid: int) -> np.ndarray:
        """The group's cycle-indexed monitor-noise stream (lazily generated).

        A run whose level physics all hit the shared cache never touches the
        noise RNG — the candidate cycles already bake the stream in.
        """
        noise = self.noise.get(gid)
        if noise is None:
            monitor = IRMonitor(sensing_noise=self.cfg.monitor_noise,
                                seed=self.cfg.seed + gid, record_readings=False)
            noise = monitor.noise_for_cycles(self.n)
            self.noise[gid] = noise
        return noise

    def _pair_for(self, level: int) -> VFPair:
        if self.controller is None:
            return self.table.nominal_dvfs_pair()
        lookup = level if level in self.table.levels else 100
        return self.table.select_pair(lookup, self.cfg.mode)

    def _fail_mask(self, gid: int, pair: VFPair, drop: np.ndarray,
                   start: int = 0) -> np.ndarray:
        """The boolean candidate mask at ``pair`` — exactly the reference
        comparison: ``(V - drop) + noise < (V - allowed) + margin`` — for
        the drop columns of cycles ``start`` onward.  Shared by the heap
        groups' entries and the candidate masks' windows, so every consumer
        evaluates bit-identical floats."""
        allowed_drop = self.ir_model.drop(
            min(pair.level, 100) / 100.0, pair.voltage, pair.frequency)
        threshold = (pair.voltage - allowed_drop) + self.min_voltage_margin
        noise = self._noise(gid)[start:start + drop.shape[1]]
        return (pair.voltage - drop) + noise < threshold

    def _physics_key(self, gid: int, pair: VFPair) -> tuple:
        """The level-cache key of one (group, pair)'s physics.  The physics
        depends on the pair, not the Algorithm-2 level that selected it, so
        it is keyed by (V, f, signoff level)."""
        return (self._share_key, gid, pair.level, pair.voltage,
                pair.frequency)

    def _physics_cache(self, gid: int, level: int) -> LevelEntry:
        """A heap group's per-row candidate cycles at ``level``: the level
        cache's entry, or on a miss one derived from Eq. 2 over the group's
        rows and the candidate comparison (:meth:`_fail_mask`).  The drop
        matrix is not kept.

        Only heap groups read entries; span groups consume their
        candidates through masks (:meth:`_candidates`).
        """
        pair = self._pair_for(level)
        key = self._physics_key(gid, pair)
        entry = LEVEL_CACHE.get(key)
        if entry is None:
            lo, hi = self.group_rows[gid]
            drop = self.ir_model.drop_array(self.A[lo:hi], pair.voltage,
                                            pair.frequency)
            entry = LevelEntry(pair=pair, fail_cycles=[
                np.nonzero(row)[0]
                for row in self._fail_mask(gid, pair, drop)])
            LEVEL_CACHE.put(key, entry, entry.nbytes_estimate())
        return entry

    def _cache(self, gid: int, level: int) -> LevelEntry:
        """A heap group's entry at ``level``, memoized for the run so the
        batch is immune to shared-cache eviction (:meth:`_physics_cache`
        derives it)."""
        key = (gid, level)
        entry = self._caches.get(key)
        if entry is None:
            entry = self._caches[key] = self._physics_cache(gid, level)
        return entry

    def _candidates(self, gid: int, level: int) -> _LazyLevelStreams:
        """A span group's candidate mask at ``level``: the level cache's
        under the ``"candidates"``-led physics key, or a new empty one,
        held by the engine for the rest of the run.

        The mask grows in place as runs refill it, so it is charged its
        full-horizon size up front; a shared store never publishes it.
        """
        streams = self._masks.get((gid, level))
        if streams is not None:
            return streams
        pair = self._pair_for(level)
        key = ("candidates",) + self._physics_key(gid, pair)
        streams = LEVEL_CACHE.get(key)
        if streams is None:
            lo, hi = self.group_rows[gid]
            codes = np.zeros(hi - lo, dtype=np.uint8)
            for code, set_rows in enumerate(self._group_sets(gid), 1):
                codes[set_rows - lo] = code
            streams = _LazyLevelStreams(gid, lo, hi, pair, codes)
            LEVEL_CACHE.put(key, streams, (hi - lo) * self.n + 512)
        self._masks[(gid, level)] = streams
        return streams

    def _prebuild_streams(self, gid: int, level: int) -> _LazyLevelStreams:
        """The candidate mask of a span group's one level in a run whose
        levels never change, extended to the horizon in one window.

        The span kernel walks such a group's whole horizon at that level,
        so the doubling windows of :meth:`_LazyLevelStreams.refill` would
        only split the same bytes over more ``drop_array`` calls.  A mask
        an earlier run left short is extended from where it stopped.
        (e2ebench/tracer.py times this method under its name.)
        """
        streams = self._candidates(gid, level)
        if streams.upto < self.n:
            streams.extend(self, self.n)
        return streams

    # ------------------------------------------------------------------ #
    # event queries
    # ------------------------------------------------------------------ #
    def _query_next_fail(self, gid: int) -> int:
        """First cycle >= scan_from with a non-stalled candidate failure.

        Valid until the group's level actually changes (the caller recomputes
        then) — scheduled Algorithm-2 transitions that keep the level are
        no-ops for failure candidates.  One ``bisect`` per member on the
        cached candidate lists.
        """
        lo, _ = self.group_rows[gid]
        base = self.scan_from[gid]
        stall_end = self.stall_end
        best = self.n
        for local, lst in enumerate(self.cur_cache[gid].fail_lists):
            first = stall_end[lo + local]
            if first < base:
                first = base
            if first >= best:
                continue
            j = bisect_left(lst, first)
            if j < len(lst) and lst[j] < best:
                best = lst[j]
        return best

    # ------------------------------------------------------------------ #
    # closed-form kernel paths (independent groups)
    # ------------------------------------------------------------------ #
    def _group_sets(self, gid: int) -> List[np.ndarray]:
        """The group's logical Sets as sorted global-row arrays.

        First-row order (deterministic); only called for *independent*
        groups, whose Sets are contained in the group by definition.
        """
        cached = self._group_sets_memo.get(gid)
        if cached is None:
            lo, hi = self.group_rows[gid]
            seen = set()
            cached = []
            for row in range(lo, hi):
                sid = self.set_of_row[row]
                if sid not in seen:
                    seen.add(sid)
                    cached.append(np.asarray(self.set_rows[sid],
                                             dtype=np.int64))
            self._group_sets_memo[gid] = cached
        return cached

    def _run_group_span_kernel(self, gid: int) -> None:
        """Kernel-driven timeline for a stall-independent group.

        Between level breaks the group is exactly a no-level-change span, so
        each Set advances by the greedy min-gap rule of
        :mod:`repro.sim.kernels` through the current level's candidate mask
        (:class:`_LazyLevelStreams`) with the kernel's frontier, kept as a
        mask position: the first position still eligible.  A Set's peek is
        one ``mask.find(code, frontier)``, refilling the mask on a miss
        short of the horizon, and each Set caches its next candidate per
        level, so the frequent safe <-> a-level flips mostly revalidate with
        one compare.  The frontier encodes the Set's stall windows and
        survives level changes unchanged (stalls are level-independent).

        Failures arrive in *safe-level runs*: an IRFailure always lands the
        group on its safe level, every further failure keeps it there while
        pushing the next scheduled transition out, and the run ends exactly
        at the first ``beta``-long failure-free gap.  Each run is chained in
        a tight inner loop that never touches the controller, then applied
        to Algorithm 2 with one vectorized ``apply_failures_at_cycles``
        call; selections accumulate as mask positions and are decoded once
        per Set at the end (``cycle = pos // width``, ``row = lo + pos %
        width``).  Event ordering matches the reference loop exactly
        (scheduled transitions before failure detection at the same cycle).

        A group whose level never changes (``dvfs``, ``booster_safe``) runs
        this same kernel with no scheduled transition: its one level is its
        safe level, ``beta`` is the horizon, so the whole run is one failure
        run, and no Algorithm-2 call is made.
        """
        n = self.n
        recompute = self.cfg.recompute_cycles
        controller = self.controller if self.stepping else None
        stall_end = self.stall_end
        fail_counts = self.fail_counts
        break_cycles = self.break_cycles[gid]
        break_levels = self.break_levels[gid]
        set_arrays = self._group_sets(gid)
        k = len(set_arrays)
        set_row_lists = [arr.tolist() for arr in set_arrays]
        lo, hi = self.group_rows[gid]
        width = hi - lo
        # A selection at position p moves its Set's frontier to the first
        # position after (cycle + recompute, row): the kernels' min-gap rule.
        jump = recompute * width + 1

        level = self.level[gid]
        scan_from = self.scan_from[gid]
        synced = self.synced[gid]
        next_sched = self.next_sched[gid]

        # Per-Set frontier position (level-independent eligibility bound)
        # plus, *per level*, the candidate mask, each Set's cached next
        # candidate position in it and the mask's refill handle.  A cached
        # position stays valid as long as it still clears the (only-growing)
        # frontier; UNPEEKED forces the first look, and ``n * width`` (the
        # horizon's end, whose cycle is ``n``) means "none left".
        UNPEEKED = -1
        fps = [scan_from * width] * k
        next_f = [n] * k                    # next eligible candidate *cycle*
        level_state: Dict[int, Tuple] = {}

        # NOTE: the warm path of this function (the per-set revalidation
        # loop) is deliberately inlined at its two hot call sites below —
        # the transition branch and the failure branch — because the call
        # overhead alone is measurable at one invocation per level flip.
        # A change to the eligibility logic here must be applied to all
        # three copies.
        def bind(to_level: int, from_cycle: int) -> Tuple:
            state = level_state.get(to_level)
            if state is None:
                streams = self._candidates(gid, to_level)
                state = (streams.mask, [UNPEEKED] * k, streams)
                level_state[to_level] = state
            mask, next_pos, streams = state
            base = from_cycle * width
            for s in range(k):
                fp = fps[s]
                if fp < base:
                    fp = base
                    fps[s] = fp
                p = next_pos[s]
                if p < fp:
                    p = mask.find(s + 1, fp)
                    if p < 0:
                        p = streams.refill(self, s + 1, fp)
                    next_pos[s] = p
                next_f[s] = p // width
            return state

        mask, next_pos, streams = bind(level, scan_from)
        if controller is None:
            # ``next_sched`` is the horizon: the transition branch only ends
            # the loop, and the one failure run chains to the horizon.
            beta, safe = n, level
        else:
            beta = controller.beta
            gstate = controller.state(gid)
            safe = gstate.safe_level
            advance_to_transition = controller.advance_to_transition
            advance_steady_transitions = \
                controller.advance_steady_transitions
            apply_failures_at_cycles = controller.apply_failures_at_cycles
            lvl_below = controller.table.level_below
        #: per Set, every selected position of the whole run, in time order —
        #: decoded and logged as one array chunk at the end (per-failure
        #: scalar logging would dominate the failure hot path); the last
        #: one alone determines the Set's final stall bound.
        span_pos: List[List[int]] = [[] for _ in range(k)]
        single = k == 1
        pair = k == 2
        sets_range = range(k)

        while True:
            if single:
                f = next_f[0]
            elif pair:
                f = next_f[0]
                f2 = next_f[1]
                if f2 < f:
                    f = f2
            else:
                f = min(next_f) if k else n
            if next_sched <= f:
                if next_sched >= n:
                    break
                t = next_sched
                _, new_level, gap = advance_to_transition(gid)
                synced = t
                next_sched = t + gap
                if new_level != level:
                    level = new_level
                    break_cycles.append(t)
                    break_levels.append(new_level)
                    scan_from = t
                    # Inlined warm-path bind (one call per level flip makes
                    # the call overhead itself measurable; ``bind`` handles
                    # a level's first visit in the run).
                    state = level_state.get(new_level)
                    if state is None:
                        mask, next_pos, streams = bind(new_level, t)
                    else:
                        mask, next_pos, streams = state
                        base = t * width
                        for s in sets_range:
                            fp = fps[s]
                            if fp < base:
                                fp = base
                                fps[s] = fp
                            p = next_pos[s]
                            if p < fp:
                                p = mask.find(s + 1, fp)
                                if p < 0:
                                    p = streams.refill(self, s + 1, fp)
                                next_pos[s] = p
                            next_f[s] = p // width
                elif gstate.a_level == lvl_below(gstate.a_level):
                    # Steady ladder floor: the safe counter sits at ``beta``
                    # (every transition lands it there) and the a-level is
                    # its own clamp, so until the next failure — or the
                    # horizon — every scheduled transition is the same
                    # no-op else-branch step at the same ``beta + 1`` gap.
                    # Apply them in bulk instead of one controller
                    # round-trip (and one loop pass) each.
                    t_max = f if f < n else n - 1
                    if next_sched <= t_max:
                        count = (t_max - next_sched) // gap + 1
                        advance_steady_transitions(gid, count)
                        synced = next_sched + (count - 1) * gap
                        next_sched = synced + gap
                continue
            if f >= n:
                break

            # Failure cycle f opens a *safe-level failure run*: an IRFailure
            # always lands the group on its safe level, every further
            # failure keeps it there while pushing the next scheduled
            # transition out, and the run ends exactly at the first
            # beta-long failure-free gap.  The inner loop chains through the
            # run without touching the controller — cycle f consumes the
            # current level's mask, the rest the safe level's — and the
            # whole run is then applied to Algorithm 2 in one closed-form
            # ``apply_failures_at_cycles`` call: no per-failure controller
            # round-trip, no per-failure transition bookkeeping.
            run_base = synced
            run_offsets: List[int] = [f - run_base]
            cur = f
            while True:
                # Every Set whose next eligible candidate sits at ``cur``
                # fails (within a cycle, positions follow the reference
                # loop's member visit order).
                for s in sets_range:
                    if next_f[s] != cur:
                        continue
                    code = s + 1
                    p = next_pos[s]
                    acc = span_pos[s]
                    acc.append(p)
                    if recompute == 0:
                        # No stall window: every later same-cycle candidate
                        # of the Set fails as well.
                        cycle_end = (cur + 1) * width
                        q = mask.find(code, p + 1, cycle_end)
                        while q >= 0:
                            acc.append(q)
                            p = q
                            q = mask.find(code, p + 1, cycle_end)
                    fp = p + jump
                    fps[s] = fp
                    p = mask.find(code, fp)
                    if p < 0:
                        p = streams.refill(self, code, fp)
                    next_pos[s] = p
                    next_f[s] = p // width
                if cur == f and safe != level:
                    # First failure of the run: the level drops to safe and
                    # the chain continues on the safe level's mask (inlined
                    # warm-path bind, as in the transition branch).
                    level = safe
                    break_cycles.append(f + 1)
                    break_levels.append(safe)
                    state = level_state.get(safe)
                    if state is None:
                        mask, next_pos, streams = bind(safe, f + 1)
                    else:
                        mask, next_pos, streams = state
                        base = (f + 1) * width
                        for s in sets_range:
                            fp = fps[s]
                            if fp < base:
                                fp = base
                                fps[s] = fp
                            p = next_pos[s]
                            if p < fp:
                                p = mask.find(s + 1, fp)
                                if p < 0:
                                    p = streams.refill(self, s + 1, fp)
                                next_pos[s] = p
                            next_f[s] = p // width
                if single:
                    nf = next_f[0]
                elif pair:
                    nf = next_f[0]
                    f2 = next_f[1]
                    if f2 < nf:
                        nf = f2
                else:
                    nf = min(next_f)
                if nf - cur > beta or nf >= n:
                    break                   # the next transition fires first
                cur = nf
                run_offsets.append(nf - run_base)
            # One controller call for the whole run (failures are per
            # *cycle*: several Sets failing the same cycle are one
            # Algorithm-2 event, exactly as in the reference loop).
            if controller is not None:
                _, gap = apply_failures_at_cycles(gid, run_offsets)
                next_sched = cur + 1 + gap
            synced = cur + 1
            scan_from = cur + 1

        if recompute > 0:
            # Selections are time-ordered per Set, so its last one alone
            # determines the final stall bound per row.
            for s in range(k):
                if span_pos[s]:
                    c, local = divmod(span_pos[s][-1], width)
                    r = lo + local
                    for row in set_row_lists[s]:
                        end = c + recompute + (1 if row <= r else 0)
                        if end > stall_end[row]:
                            stall_end[row] = end

        # Decode and log every selection as one array chunk per Set (the
        # heap scheduler logs its failures as scalars instead).
        for s in range(k):
            acc = span_pos[s]
            if not acc:
                continue
            sel_c, sel_r = np.divmod(np.asarray(acc, dtype=np.int64), width)
            sel_r += lo
            self.fail_chunk_rows.append(sel_r)
            self.fail_chunk_cycles.append(sel_c)
            for row, count in zip(*(arr.tolist() for arr in
                                    np.unique(sel_r, return_counts=True))):
                fail_counts[row] += count
            if recompute > 0:
                set_rows = set_arrays[s]
                starts = sel_c[:, None] + (set_rows[None, :] <= sel_r[:, None])
                self.stall_chunk_rows.append(np.tile(set_rows, sel_c.size))
                self.stall_chunk_starts.append(starts.ravel())

        # Write back for the common controller flush.
        self.level[gid] = level
        self.scan_from[gid] = scan_from
        self.synced[gid] = synced
        self.next_sched[gid] = next_sched

    # ------------------------------------------------------------------ #
    # heap-scheduled event loop (coupled and oversized groups)
    # ------------------------------------------------------------------ #
    def _push_next_fail(self, gid: int, heap: list, gpos: Dict[int, int]) -> None:
        nf = self._query_next_fail(gid)
        self.next_fail[gid] = nf
        if nf < self.n:
            heapq.heappush(heap, (nf, 1, gpos[gid]))

    def _apply_scheduled_heap(self, gid: int, cycle: int, heap: list,
                              gpos: Dict[int, int]) -> None:
        """Algorithm-2 transition whose new level first applies at ``cycle``."""
        _, new_level, gap = self.controller.advance_to_transition(gid)
        self.synced[gid] = cycle
        next_sched = cycle + gap
        self.next_sched[gid] = next_sched
        if next_sched < self.n:
            heapq.heappush(heap, (next_sched, 0, gpos[gid]))
        if new_level != self.level[gid]:
            # Candidate failures depend on the level; rescan from this cycle.
            self.level[gid] = new_level
            self.cur_cache[gid] = self._cache(gid, new_level)
            self.break_cycles[gid].append(cycle)
            self.break_levels[gid].append(new_level)
            self.scan_from[gid] = cycle
            self._push_next_fail(gid, heap, gpos)

    def _process_failure_cycle_heap(self, cycle: int, fail_gids: List[int],
                                    heap: list, gpos: Dict[int, int]) -> None:
        """Replay one cycle with the reference loop's exact visit order."""
        recompute = self.cfg.recompute_cycles
        stall_end = self.stall_end
        group_of_row, n = self.group_of_row, self.n
        failed_groups: List[int] = []
        affected: set = set()
        for gid in fail_gids:
            lo, _ = self.group_rows[gid]
            group_failed = False
            for local, lst in enumerate(self.cur_cache[gid].fail_lists):
                row = lo + local
                if stall_end[row] > cycle:
                    continue               # stalled (possibly just this cycle)
                j = bisect_left(lst, cycle)
                if j >= len(lst) or lst[j] != cycle:
                    continue               # no candidate failure this cycle
                # IRFailure: the whole logical Set stalls for the recompute
                # window.  Members the reference loop already visited this
                # cycle (row <= failing row) begin stalling next cycle; later
                # members stall immediately, which suppresses their sample.
                group_failed = True
                self.fail_counts[row] += 1
                self.fail_log_rows.append(row)
                self.fail_log_cycles.append(cycle)
                for member_row in self.set_rows[self.set_of_row[row]]:
                    if recompute > 0:
                        start = cycle + 1 if member_row <= row else cycle
                        end = start + recompute
                        self.stall_log_rows.append(member_row)
                        self.stall_log_starts.append(start)
                        if end > stall_end[member_row]:
                            stall_end[member_row] = end
                    affected.add(group_of_row[member_row])
            if group_failed:
                failed_groups.append(gid)
            self.scan_from[gid] = cycle + 1
            affected.add(gid)

        if self.stepping:
            for gid in failed_groups:
                # Advance the lazily-tracked Algorithm-2 state to this cycle,
                # then apply the failure branch, in one closed-form call (the
                # reference engine's ``controller.step(gid, ir_failure=True)``).
                # The scheduled transitions up to this cycle were applied as
                # their own events, so the gap crosses none.
                new_level, gap = self.controller.apply_failures_at_cycles(
                    gid, [cycle - self.synced[gid]])
                self.synced[gid] = cycle + 1
                if new_level != self.level[gid]:
                    self.level[gid] = new_level
                    self.cur_cache[gid] = self._cache(gid, new_level)
                    self.break_cycles[gid].append(cycle + 1)
                    self.break_levels[gid].append(new_level)
                next_sched = cycle + 1 + gap
                self.next_sched[gid] = next_sched
                if next_sched < n:
                    heapq.heappush(heap, (next_sched, 0, gpos[gid]))
        for gid in affected:
            self._push_next_fail(gid, heap, gpos)

    def _run_events_heap(self, gids: List[int]) -> None:
        """Event loop over ``gids`` driven by a lazy-invalidation min-heap.

        Heap entries are ``(cycle, kind, group_position)`` with kind 0 =
        scheduled transition, 1 = candidate failure; an entry is stale (and
        discarded on pop) when the group's current ``next_sched``/``next_fail``
        no longer matches.  Scheduled transitions at a cycle are applied before
        failure detection at that cycle, exactly as in the reference loop.
        """
        n = self.n
        next_sched, next_fail = self.next_sched, self.next_fail
        gpos = {gid: i for i, gid in enumerate(gids)}
        heap: List[Tuple[int, int, int]] = []
        for gid in gids:
            if next_sched[gid] < n:
                heapq.heappush(heap, (next_sched[gid], 0, gpos[gid]))
            self._push_next_fail(gid, heap, gpos)
        while heap:
            cycle = heap[0][0]
            if cycle >= n:
                break
            sched_gids: List[int] = []
            fail_candidates: List[int] = []
            while heap and heap[0][0] == cycle:
                _, kind, gp = heapq.heappop(heap)
                gid = gids[gp]
                if kind == 0:
                    if next_sched[gid] == cycle and gid not in sched_gids:
                        sched_gids.append(gid)
                elif gid not in fail_candidates:
                    fail_candidates.append(gid)
            for gid in sched_gids:
                self._apply_scheduled_heap(gid, cycle, heap, gpos)
            # Failures are collected *after* the scheduled transitions: a level
            # change at this cycle already moved the group's candidates.
            fail_set = {gid for gid in fail_candidates if next_fail[gid] == cycle}
            fail_set.update(gid for gid in sched_gids if next_fail[gid] == cycle)
            if fail_set:
                fail_gids = sorted(fail_set, key=gpos.__getitem__)
                self._process_failure_cycle_heap(cycle, fail_gids, heap, gpos)

    def _finish_events(self) -> None:
        """Flush the remaining failure-free steps so final controller state
        (final level, counters) matches the reference engine."""
        if self.stepping:
            for gid in self.groups:
                self.controller.advance_nofail(gid, self.n - self.synced[gid])
                self.synced[gid] = self.n

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def _logged_failures(self) -> Tuple[np.ndarray, np.ndarray]:
        """All logged failure points as ``(rows, cycles)`` arrays (chunked
        kernel logs first, then the event loops' scalar logs)."""
        rows_parts = list(self.fail_chunk_rows)
        cycles_parts = list(self.fail_chunk_cycles)
        if self.fail_log_rows:
            rows_parts.append(np.asarray(self.fail_log_rows, dtype=np.int64))
            cycles_parts.append(np.asarray(self.fail_log_cycles,
                                           dtype=np.int64))
        if not rows_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(cycles_parts)

    def _logged_stall_windows(self) -> Tuple[np.ndarray, np.ndarray]:
        """All logged recompute windows as ``(rows, starts)`` arrays."""
        rows_parts = list(self.stall_chunk_rows)
        starts_parts = list(self.stall_chunk_starts)
        if self.stall_log_rows:
            rows_parts.append(np.asarray(self.stall_log_rows, dtype=np.int64))
            starts_parts.append(np.asarray(self.stall_log_starts,
                                           dtype=np.int64))
        if not rows_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(starts_parts)

    def _group_spans(self, gid: int) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
        """The group's level-stable spans as ``(starts, ends, levels)``."""
        starts = np.array(self.break_cycles[gid], dtype=np.int64)
        levels = np.array(self.break_levels[gid], dtype=np.int64)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = self.n
        keep = ends > starts
        if not keep.all():
            starts, ends, levels = starts[keep], ends[keep], levels[keep]
        return starts, ends, levels

    def _level_vf(self, levels: np.ndarray) -> Tuple[np.ndarray,
                                                     np.ndarray]:
        """Voltage and frequency tables indexed by level number, filled at
        the visited ``levels``."""
        visited = np.bincount(levels)
        level_v, level_f = np.zeros(visited.size), np.ones(visited.size)
        for level in np.flatnonzero(visited).tolist():
            pair = self._pair_for(level)
            level_v[level], level_f[level] = pair.voltage, pair.frequency
        return level_v, level_f

    def _materialize_scalar(self) -> SimulationResult:
        """The scalar materialization every run takes (all of it under
        ``RuntimeConfig.traces == "none"``).

        One pass over a single row-major table of ``(row, span)`` entries —
        each activity row against every level-stable span of its group —
        computes every scalar record field closed-form.  Eq. 2 is affine in
        Rtog, so a span's drop sum closes over the cached activity prefix
        sums; it never falls as Rtog rises, and rounding never reverses that
        order, so a span's worst drop is exactly ``drop_array`` of its peak
        activity — one ``np.maximum.reduceat`` over the stacked matrix for
        the whole table.  Stall and failure energy corrections decompose the
        engine's logged recompute windows and failure points over the same
        table's entries, and every per-row total is a ``bincount``
        (:meth:`~repro.power.energy.EnergyModel.span_breakdowns` for energy).
        No trace is gathered and no activity copy is made: every trace field
        is ``None``.  :meth:`_materialize` attaches the traces to this same
        result, so both trace modes report identical scalars.
        """
        n, n_rows = self.n, self.n_rows
        recompute = self.cfg.recompute_cycles
        # Flat views.  A *key* ``row * width + cycle`` indexes the activity
        # prefix sums directly (row stride ``n + 1``).
        width = n + 1
        prefix = self.prefix.reshape(-1)
        activity = self.A.reshape(-1)
        groups = self.groups

        # Every group's level-stable spans, concatenated in group (= row)
        # order, with each visited level's V-f pair.
        starts = np.fromiter(chain.from_iterable(
            self.break_cycles[gid] for gid in groups), dtype=np.int64)
        levels = np.fromiter(chain.from_iterable(
            self.break_levels[gid] for gid in groups), dtype=np.int64)
        break_counts = [len(self.break_cycles[gid]) for gid in groups]
        span_group = np.repeat(np.arange(len(groups)), break_counts)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[np.cumsum(break_counts, dtype=np.int64) - 1] = n
        keep = ends > starts
        starts, levels, span_group = starts[keep], levels[keep], \
            span_group[keep]
        lengths = ends[keep] - starts
        level_sums = np.bincount(span_group, levels * lengths,
                                 minlength=len(groups))
        level_v, level_f = self._level_vf(levels)

        # The row-major (row, span) table: row r takes each span of its
        # group in cycle order, so the entries' start keys ascend and every
        # row's entries are one contiguous run starting at ``row_first``.
        group_spans = np.bincount(span_group, minlength=len(groups))
        row_group = np.repeat(np.arange(len(groups)), [
            hi - lo for lo, hi in (self.group_rows[gid] for gid in groups)])
        row_spans = group_spans[row_group]
        row_first = np.cumsum(row_spans) - row_spans
        t_row = np.repeat(np.arange(n_rows), row_spans)
        t_span = np.arange(t_row.size) + np.repeat(
            (np.cumsum(group_spans) - group_spans)[row_group] - row_first,
            row_spans)
        t_start, t_len = starts.take(t_span), lengths.take(t_span)
        t_level = levels.take(t_span)
        t_v, t_f = level_v.take(t_level), level_f.take(t_level)
        v2 = t_v ** 2
        keys = t_row * width + t_start
        end_keys = keys + t_len
        act = prefix.take(end_keys) - prefix.take(keys)
        peaks = np.maximum.reduceat(activity, t_row * n + t_start)
        worst = self.ir_model.drop_array(peaks, t_v, t_f)
        drop_peaks = np.maximum.reduceat(worst, row_first)
        drop_sums = np.bincount(
            t_row, self.ir_model.drop_sum(act, t_len, t_v, t_f),
            minlength=n_rows)

        # Merge the logged recompute windows per row (windows overlap; both
        # the stall totals and the energy corrections need the union).
        # Every window spans ``recompute`` cycles, clipped at the horizon,
        # so once sorted by start key their end keys ascend too, and a
        # window extends the merged one before it unless it starts at or
        # past that one's end.
        stall_rows, stall_starts = self._logged_stall_windows()
        w_keys = np.sort(stall_rows * width + stall_starts)
        w_end_keys = np.minimum(w_keys + recompute,
                                w_keys // width * width + n)
        fresh = np.ones(w_keys.size, dtype=bool)
        fresh[1:] = w_keys[1:] >= w_end_keys[:-1]
        first = np.flatnonzero(fresh)
        m_keys = w_keys[first]
        m_end_keys = np.maximum.reduceat(w_end_keys, first)
        m_rows = m_keys // width
        stall_counts = np.bincount(m_rows, m_end_keys - m_keys,
                                   minlength=n_rows).astype(np.int64)

        # Stall/failure energy corrections: sum(activity * V^2) over the
        # energy-stalled cycles.  Each merged window splits into one piece
        # per table entry it crosses (almost always one or two); a failure
        # point falls in exactly one entry.
        first = np.searchsorted(keys, m_keys, side="right") - 1
        pieces = np.searchsorted(keys, m_end_keys - 1, side="right") - first
        p_window = np.repeat(np.arange(first.size), pieces)
        p_entry = np.arange(p_window.size) + np.repeat(
            first - (np.cumsum(pieces) - pieces), pieces)
        p_lo = np.maximum(m_keys.take(p_window), keys.take(p_entry))
        p_hi = np.minimum(m_end_keys.take(p_window), end_keys.take(p_entry))
        fail_rows, fail_cycles = self._logged_failures()
        f_entry = np.searchsorted(keys, fail_rows * width + fail_cycles,
                                  side="right") - 1
        stalled_v2 = np.bincount(
            np.concatenate((m_rows.take(p_window), fail_rows)),
            np.concatenate((
                v2.take(p_entry) * (prefix.take(p_hi) - prefix.take(p_lo)),
                activity.take(fail_rows * n + fail_cycles)
                * v2.take(f_entry))),
            minlength=n_rows)

        fail_counts = np.asarray(self.fail_counts, dtype=np.int64)
        breakdowns = self.energy_model.span_breakdowns(
            t_row, t_v, t_f, t_len, act, stalled_v2,
            n - stall_counts - fail_counts, self.macs_per_cycle)

        macros = self.proc_order
        return assemble_result(
            self.compiled, self.cfg, dict(zip(macros, breakdowns)),
            dict(zip(macros, (drop_sums / n).tolist())),
            dict(zip(macros, drop_peaks.tolist())),
            dict(zip(macros, self.rtog_means.tolist())),
            dict(zip(macros, self.rtog_peaks.tolist())),
            dict(zip(macros, self.fail_counts)),
            dict(zip(macros, stall_counts.tolist())),
            {gid: float(total) / n for gid, total in zip(groups, level_sums)},
            self.controller, self.group_members)

    def _materialize(self) -> SimulationResult:
        """Full-trace materialization (``RuntimeConfig.traces == "full"``):
        the scalar pass, then the level, drop and chip-drop traces, with
        private copies of the activity traces attached alongside.

        A group's drop trace is Eq. 2 over its activity rows at each
        cycle's V-f pair, one ``drop_array`` call per group with the
        per-cycle V and f broadcast along the rows: every cell is the
        reference loop's scalar :meth:`~repro.power.ir_drop.IRDropModel.\
drop`, the same IEEE operations in the same order.
        """
        result = self._materialize_scalar()
        n, n_rows = self.n, self.n_rows
        spans = [self._group_spans(gid) for gid in self.groups]
        level_v, level_f = self._level_vf(np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [levels for *_, levels in spans]))
        drops = np.zeros((n_rows, n))
        level_traces: Dict[int, np.ndarray] = {}
        for gid, (starts, ends, levels) in zip(self.groups, spans):
            lo, hi = self.group_rows[gid]
            trace = level_traces[gid] = np.repeat(levels, ends - starts)
            drops[lo:hi] = self.ir_model.drop_array(
                self.A[lo:hi], level_v.take(trace), level_f.take(trace))
        chip_drop = drops.max(axis=0) if n_rows else np.zeros(n)
        # Hand out private copies of the (shared, read-only) cached activity
        # traces so results stay independently mutable, exactly as the
        # reference engine's are.
        return attach_traces(
            result, {macro: np.array(trace)
                     for macro, trace in self.activity.items()},
            dict(zip(self.proc_order, drops)), level_traces, chip_drop)

    # ------------------------------------------------------------------ #
    def materialize(self) -> SimulationResult:
        """Assemble the :class:`SimulationResult` for a finished event pass,
        honouring the configured ``traces`` mode."""
        if self.cfg.traces == "none":
            return self._materialize_scalar()
        return self._materialize()


def run_vectorized(runtime: "PIMRuntime") -> SimulationResult:
    """Run ``runtime`` on the vectorized event-driven engine: the batch
    flow of :func:`repro.sim.ensemble.run_engines` over a batch of one."""
    from .ensemble import run_engines     # ensemble imports this module
    return run_engines([_VectorizedEngine(runtime)])[0]
