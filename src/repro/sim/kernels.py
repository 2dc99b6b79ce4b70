"""The closed-form failure-timeline rule for no-level-change group spans.

For groups whose V-f level never changes — every ``dvfs`` and
``booster_safe`` group, and ``booster`` groups between two level breaks — a
group's failure timeline needs no event-by-event walk: it is a *greedy
min-gap selection* over one merged candidate stream.  This module states
that rule over packed ``(cycle, row)`` keys; the event engine
(:mod:`repro.sim.engine`) applies it over candidate byte masks.

The selection rule
------------------
Recompute stalls propagate within a failing macro's logical Set and, with a
constant level, never across Sets — so the timeline decomposes per Set.
Within one Set, every member's candidate failure cycles merge into a single
sorted stream of packed keys::

    key = (cycle << shift) | row          # numeric order == (cycle, row) lex

where ``row`` is the member's global activity-matrix row — the reference
loop's within-cycle visit order.  When the candidate ``(f, r)`` fails, the
reference semantics stall the whole Set: rows visited at or before ``r`` from
cycle ``f + 1``, later rows from ``f`` — i.e. for a recompute window of ``R``
cycles, the next eligible candidate is exactly the first one
*lexicographically after* ``(f + R, r)``, which in packed form is the first
key **greater than** ``selected_key + (R << shift)``.  The whole timeline
therefore resolves with at most one binary search per **selected** failure,
never touching the suppressed candidates in between; ``R == 0`` degenerates
to "every candidate fails", a single slice.

A single *frontier key* — "only keys strictly greater are eligible" — is the
kernel's entire carry-over state (``(cycle << shift) - 1`` encodes "every row
at ``cycle``").  It survives level changes unchanged (stall windows are
level-independent), which is how the engine's span kernel resumes a
``booster`` group's Sets across level-stable spans.

Implementation
--------------
The engine has one kernel, the span kernel
(:meth:`~repro.sim.engine._VectorizedEngine._run_group_span_kernel`): every
independent group runs it, whatever its controller, holding the frontier as
a position in a per-level candidate byte mask
(:class:`~repro.sim.engine._LazyLevelStreams`), whose positions order like
the packed keys, with ``bytearray.find`` in place of the bisect.  A group
whose level never changes is that kernel with no scheduled transition.

The packed-key functions below have no caller in the engine.  One
pure-Python selection loop (:func:`select_failures`) runs ``bisect`` over a
plain list of keys and skips even that when the next key already clears
the frontier; :func:`select_failures_runs` and
:func:`resume_frontiers_runs` loop it over many streams.  They are the
rule's executable statement, which ``tests/test_kernels.py`` checks against
a brute-force model of the reference loop, and they stay importable
because e2ebench/tracer.py wraps them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "EXHAUSTED_KEY",
    "MergedCandidates",
    "frontier_key",
    "merge_candidates",
    "resume_frontiers_runs",
    "select_failures",
    "select_failures_runs",
]

#: Sentinel "no eligible candidate" key of the runs-axis span-resume kernel —
#: sorts above every real packed key (cycles and rows are far below 2^31).
EXHAUSTED_KEY = 1 << 62


class MergedCandidates(NamedTuple):
    """One Set's merged candidate stream of packed ``(cycle, row)`` keys.

    ``keys_list`` holds the sorted keys as plain ints; a key decodes back
    into ``(key >> shift, key & ((1 << shift) - 1))``.
    """

    keys_list: List[int]
    shift: int


def frontier_key(cycle: int, row: int, shift: int) -> int:
    """The packed frontier "strictly after ``(cycle, row)``".

    ``row = -1`` means "strictly before every row at ``cycle``" — i.e. all
    of ``cycle``'s candidates are still eligible.
    """
    return (cycle << shift) + row


def merge_candidates(per_row_cycles: List[np.ndarray], row_ids: List[int],
                     shift: int) -> MergedCandidates:
    """Merge per-member candidate arrays into one sorted packed-key stream.

    ``per_row_cycles[k]`` holds the sorted candidate cycles of global row
    ``row_ids[k]``; every row id must fit ``shift`` bits.  Packing makes the
    merge a single flat ``np.sort`` — no argsort, no tuple keys.
    """
    total = sum(len(c) for c in per_row_cycles)
    if total == 0:
        return MergedCandidates([], shift)
    keys = np.concatenate(
        [(np.asarray(c, dtype=np.int64) << shift) | rid
         for c, rid in zip(per_row_cycles, row_ids)])
    keys.sort()
    return MergedCandidates(keys.tolist(), shift)


def select_failures(merged: MergedCandidates, end_cycle: int, recompute: int,
                    frontier: int) -> Tuple[List[int], int]:
    """Resolve one Set's failure timeline up to ``end_cycle`` in closed form.

    Returns ``(selected_keys, frontier)`` — selections as packed keys in
    order, the frontier as the resume state for a later span (see module
    docstring).  After a selection the frontier jumps by
    ``recompute << shift``; when the very next key already clears it (dense
    streams — and always when ``recompute == 0``) no search is needed at
    all, so the bisect only pays for genuine jumps.
    """
    keys = merged.keys_list
    shift = merged.shift
    n = len(keys)
    end_key = end_cycle << shift
    if recompute == 0:
        i = bisect_right(keys, frontier)
        j = bisect_left(keys, end_key, i)
        out = keys[i:j]
        return out, (out[-1] if out else frontier)
    out: List[int] = []
    push = out.append
    jump = recompute << shift
    i = bisect_right(keys, frontier)
    while i < n:
        key = keys[i]
        if key >= end_key:
            break
        push(key)
        frontier = key + jump
        i += 1
        if i < n and keys[i] <= frontier:
            i = bisect_right(keys, frontier, i + 1)
    return out, frontier


def select_failures_runs(streams: Sequence[MergedCandidates],
                         end_cycles: Sequence[int],
                         recomputes: Sequence[int],
                         frontiers: Sequence[int]
                         ) -> Tuple[List[List[int]], List[int]]:
    """Runs-axis :func:`select_failures`: one call resolves many timelines.

    ``streams[r]`` is an independent merged candidate stream — one run's
    view of one Set — selected up to ``end_cycles[r]`` with stall
    window ``recomputes[r]`` from frontier ``frontiers[r]``.  Returns the
    per-run selections and final frontiers, each run bit-identical to a
    per-run :func:`select_failures` call.
    """
    outs: List[List[int]] = []
    fronts: List[int] = []
    for merged, end_cycle, recompute, frontier in zip(
            streams, end_cycles, recomputes, frontiers):
        out, front = select_failures(merged, end_cycle, recompute, frontier)
        outs.append(out)
        fronts.append(front)
    return outs, fronts


def resume_frontiers_runs(streams: Sequence[MergedCandidates],
                          frontiers: Sequence[int]
                          ) -> Tuple[List[int], List[int]]:
    """Runs-axis span-resume peek: each run's next eligible candidate.

    For every stream, returns the first key strictly greater than its
    frontier (:data:`EXHAUSTED_KEY` when none is left) together with its
    index — the bound a span-resume ``bisect`` would have produced.
    """
    next_keys: List[int] = []
    indices: List[int] = []
    for merged, frontier in zip(streams, frontiers):
        lst = merged.keys_list
        i = bisect_right(lst, frontier)
        indices.append(i)
        next_keys.append(lst[i] if i < len(lst) else EXHAUSTED_KEY)
    return next_keys, indices
