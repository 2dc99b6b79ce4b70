"""Sweep results: per-run records, per-point aggregates, JSON export.

A sweep produces one :class:`RunRecord` per simulation — the scalar metrics of
a :class:`~repro.sim.results.SimulationResult`, not its traces, so records stay
a few hundred bytes and pickle/JSON-serialize trivially.  A
:class:`SweepResult` collects the records of one sweep and aggregates each grid
point's seed ensemble into mean / standard deviation / bootstrap confidence
intervals.  Records persist through a record store (:mod:`repro.store`);
JSON here is a one-way export (:meth:`RunRecord.to_json_dict`,
:meth:`SweepResult.summary_payload`).

Aggregation is *order-free*: records are sorted by ``(point_index,
seed_index)`` before any statistics, and the bootstrap resampler is seeded from
``(master_seed, point_index)`` only.  A resumed sweep (half the records read
back from a partial store, half run fresh) therefore aggregates bit-for-bit the
same as an uninterrupted one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .spec import RunSpec, SweepSpec

__all__ = ["RunRecord", "FailedRun", "MetricStats", "PointSummary",
           "SweepResult", "METRIC_NAMES", "bound_traceback"]

#: Scalar metrics extracted from every simulation, in record order.
METRIC_NAMES = (
    "worst_ir_drop",
    "mean_ir_drop",
    "average_macro_power_mw",
    "effective_tops",
    "total_failures",
    "total_stall_cycles",
    "total_energy",
    "energy_efficiency_tops_per_watt",
)


@dataclass(frozen=True)
class RunRecord:
    """The scalar outcome of one simulation run."""

    run_id: str
    point_index: int
    seed_index: int
    seed: int
    point_key: Tuple[Tuple[str, object], ...]
    metrics: Dict[str, float]

    @classmethod
    def from_simulation(cls, run: RunSpec, result) -> "RunRecord":
        """Summarize a :class:`~repro.sim.results.SimulationResult`."""
        metrics = {name: float(getattr(result, name)) for name in METRIC_NAMES}
        return cls(run_id=run.run_id, point_index=run.point_index,
                   seed_index=run.seed_index, seed=run.seed,
                   point_key=run.point_key, metrics=metrics)

    def to_json_dict(self) -> Dict:
        return {
            "run_id": self.run_id,
            "point_index": self.point_index,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "point_key": [[axis, value] for axis, value in self.point_key],
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json_dict(cls, data: Dict) -> "RunRecord":
        return cls(run_id=data["run_id"], point_index=int(data["point_index"]),
                   seed_index=int(data["seed_index"]), seed=int(data["seed"]),
                   point_key=tuple((axis, value)
                                   for axis, value in data["point_key"]),
                   metrics={k: float(v) for k, v in data["metrics"].items()})


#: Bounds on the traceback tail a :class:`FailedRun` carries.
TRACEBACK_TAIL_LINES = 20
TRACEBACK_TAIL_CHARS = 4000


def bound_traceback(text: str, max_lines: int = TRACEBACK_TAIL_LINES,
                    max_chars: int = TRACEBACK_TAIL_CHARS) -> str:
    """The *tail* of a traceback, bounded for persistence.

    The last frames are the diagnostic ones (the raise site and its callers),
    so the tail is kept and the head dropped.  Bounded twice — by line count
    and by characters — so one pathological frame (a giant repr in a message)
    cannot bloat every checkpoint that carries the failure.
    """
    text = (text or "").rstrip()
    if not text:
        return ""
    lines = text.splitlines()
    if len(lines) > max_lines:
        kept = lines[-max_lines:]
        kept.insert(0, f"... ({len(lines) - max_lines} leading lines dropped)")
        text = "\n".join(kept)
    if len(text) > max_chars:
        text = "... (truncated)\n" + text[-max_chars:]
    return text


@dataclass(frozen=True)
class FailedRun:
    """A run quarantined after exhausting its retry budget.

    Carried in :attr:`SweepResult.failed_runs` (and through the store) so a
    sweep with permanent failures still completes, reports *which* runs are
    missing, and aggregates over the records it does have — instead of dying
    on the first bad run.  ``error`` is the final attempt's failure rendered
    as text (exception repr, or a timeout/worker-death description);
    ``traceback`` is the final attempt's bounded traceback tail (empty when
    none was capturable — e.g. the worker process died).  ``fault`` is the
    injected-fault attribution when a chaos plan is armed (e.g.
    ``"kill@1,kill@2"`` — see :func:`repro.sweep.faults.describe_run_faults`),
    empty in normal operation: a chaos-test failure is explicable from the
    quarantined record alone.
    """

    run_id: str
    point_index: int
    seed_index: int
    error: str
    attempts: int
    traceback: str = ""
    fault: str = ""

    @classmethod
    def from_run(cls, run: RunSpec, error: str, attempts: int,
                 traceback: str = "", fault: str = "") -> "FailedRun":
        return cls(run_id=run.run_id, point_index=run.point_index,
                   seed_index=run.seed_index, error=error, attempts=attempts,
                   traceback=bound_traceback(traceback), fault=fault)

    def to_json_dict(self) -> Dict:
        return {"run_id": self.run_id, "point_index": self.point_index,
                "seed_index": self.seed_index, "error": self.error,
                "attempts": self.attempts, "traceback": self.traceback,
                "fault": self.fault}

    @classmethod
    def from_json_dict(cls, data: Dict) -> "FailedRun":
        # `.get` keeps pre-traceback / pre-fault payloads loading unchanged.
        return cls(run_id=data["run_id"], point_index=int(data["point_index"]),
                   seed_index=int(data["seed_index"]), error=data["error"],
                   attempts=int(data["attempts"]),
                   traceback=data.get("traceback", ""),
                   fault=data.get("fault", ""))


@dataclass(frozen=True)
class MetricStats:
    """Seed-ensemble statistics of one metric at one grid point."""

    mean: float
    std: float              #: sample standard deviation (ddof=1; 0 when n == 1)
    ci_low: float           #: bootstrap 95 % CI lower bound over seed means
    ci_high: float
    n: int


@dataclass(frozen=True)
class PointSummary:
    """One grid point's aggregated ensemble."""

    point_index: int
    point_key: Tuple[Tuple[str, object], ...]
    n_seeds: int
    stats: Dict[str, MetricStats]

    @property
    def axes(self) -> Dict[str, object]:
        return dict(self.point_key)

    def matches(self, **axes) -> bool:
        mine = self.axes
        return all(mine.get(axis) == value for axis, value in axes.items())


def _bootstrap_ci(values: np.ndarray, rng: np.random.Generator,
                  resamples: int, confidence: float) -> Tuple[float, float]:
    """Percentile bootstrap CI of the mean of ``values``."""
    if values.size <= 1:
        v = float(values[0]) if values.size else 0.0
        return v, v
    draws = rng.integers(0, values.size, size=(resamples, values.size))
    means = values[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)


@dataclass
class SweepResult:
    """All records of one sweep plus aggregation and persistence."""

    spec: Optional[SweepSpec] = None
    records: List[RunRecord] = field(default_factory=list)
    #: runs quarantined after exhausting their retry budget (see
    #: :class:`FailedRun`); persisted through the store, excluded from
    #: aggregation, surfaced by the runner's logs.
    failed_runs: List[FailedRun] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # record management
    # ------------------------------------------------------------------ #
    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self.records.extend(records)

    @property
    def run_ids(self) -> List[str]:
        return [r.run_id for r in self.records]

    def sorted_records(self) -> List[RunRecord]:
        """Records in canonical ``(point_index, seed_index)`` order."""
        return sorted(self.records, key=lambda r: (r.point_index, r.seed_index))

    @property
    def master_seed(self) -> int:
        return self.spec.master_seed if self.spec is not None else 0

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def aggregate(self, bootstrap_resamples: int = 200,
                  confidence: float = 0.95) -> List[PointSummary]:
        """Per-point mean/std and bootstrap CIs over the seed ensemble.

        The bootstrap resampler for point ``p`` is seeded from
        ``SeedSequence(master_seed, spawn_key=(p, 0xB007))``, so the intervals
        are reproducible across executors and across fresh-vs-resumed runs.
        """
        by_point: Dict[int, List[RunRecord]] = {}
        for record in self.sorted_records():
            by_point.setdefault(record.point_index, []).append(record)

        summaries: List[PointSummary] = []
        for point_index in sorted(by_point):
            records = by_point[point_index]
            rng = np.random.default_rng(np.random.SeedSequence(
                self.master_seed, spawn_key=(point_index, 0xB007)))
            stats: Dict[str, MetricStats] = {}
            for name in METRIC_NAMES:
                values = np.array([r.metrics[name] for r in records])
                ci_low, ci_high = _bootstrap_ci(values, rng,
                                                bootstrap_resamples, confidence)
                std = float(values.std(ddof=1)) if values.size > 1 else 0.0
                stats[name] = MetricStats(mean=float(values.mean()), std=std,
                                          ci_low=ci_low, ci_high=ci_high,
                                          n=int(values.size))
            summaries.append(PointSummary(
                point_index=point_index, point_key=records[0].point_key,
                n_seeds=len(records), stats=stats))
        return summaries

    def summary_payload(self, bootstrap_resamples: int = 200,
                        include_records: bool = True) -> Dict:
        """JSON-safe digest of the sweep: aggregates plus (optionally) records.

        The sweep service's result endpoint serves this — a client gets the
        per-point mean/std/CI table without re-deriving it, and can skip the
        (much larger) record list with ``include_records=False``.  Everything
        is plain lists/dicts/floats, so ``json.dumps`` works directly.
        """
        payload: Dict = {
            "n_records": len(self.records),
            "n_failed": len(self.failed_runs),
            "failed_runs": [f.to_json_dict() for f in self.failed_runs],
            "points": [
                {
                    "point_index": s.point_index,
                    "point_key": [[axis, value] for axis, value in s.point_key],
                    "n_seeds": s.n_seeds,
                    "metrics": {
                        name: {"mean": st.mean, "std": st.std,
                               "ci_low": st.ci_low, "ci_high": st.ci_high,
                               "n": st.n}
                        for name, st in s.stats.items()
                    },
                }
                for s in self.aggregate(bootstrap_resamples=bootstrap_resamples)
            ],
        }
        if include_records:
            payload["records"] = [r.to_json_dict()
                                  for r in self.sorted_records()]
        return payload

    def select(self, summaries: Optional[Sequence[PointSummary]] = None,
               **axes) -> List[PointSummary]:
        """Summaries whose point key matches every given ``axis=value``."""
        if summaries is None:
            summaries = self.aggregate()
        return [s for s in summaries if s.matches(**axes)]

    def point(self, **axes) -> PointSummary:
        """The unique summary matching ``axes`` (raises otherwise)."""
        matched = self.select(**axes)
        if len(matched) != 1:
            raise KeyError(f"{len(matched)} grid points match {axes!r}")
        return matched[0]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def load_resumable(cls, path: str) -> "SweepResult":
        """Load the sharded record store (see :mod:`repro.store`) at ``path``.

        Opening runs the store's recovery — torn tails truncated, corrupt
        shards quarantined; a clean store is only read — and returns
        whatever survives.  Raises ``FileNotFoundError`` when ``path`` is
        not a directory: that is a caller error (a bad path), not a damaged
        store.
        """
        if not os.path.isdir(path):
            raise FileNotFoundError(path)
        from ..store.sharded import ShardedRecordStore  # noqa: cyclic
        store = ShardedRecordStore(path)
        try:
            return store.to_result()
        finally:
            store.close()
