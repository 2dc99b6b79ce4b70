"""Per-checkpoint persistence cost of the sharded record store.

One measurement, one ``BENCH_runtime.json`` section (``store``): N synthetic
records appended one at a time with a ``flush()`` — one durable checkpoint —
after each.  The sharded store appends one digested line and fsyncs, so its
per-checkpoint cost must stay flat no matter how many records came before.

The bar, env-overridable for runner tuning:

* ``REPRO_BENCH_STORE_FLAT_MAX`` (default 3.0) — the late-window /
  early-window per-checkpoint cost ratio must stay below it (flat, modulo
  fsync noise).

The same pass asserts correctness alongside the timing: the store reads
back every record and audits clean.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.store import ShardedRecordStore, audit_store
from repro.sweep import METRIC_NAMES, RunRecord

from common import SMOKE, update_bench_runtime

pytestmark = pytest.mark.perf

#: Checkpoints measured; enough for any per-record growth to show in the
#: late window.
N_RECORDS = 150 if SMOKE else 1500
#: Early/late measurement windows (fractions of the append stream).
WINDOW = 0.2

FLAT_MAX = float(os.environ.get("REPRO_BENCH_STORE_FLAT_MAX", "3.0"))


def _record(index: int) -> RunRecord:
    point, seed = divmod(index, 4)
    return RunRecord(
        run_id=f"bench/p{point:04d}/s{seed:03d}", point_index=point,
        seed_index=seed, seed=index,
        point_key=(("workload", "bench"), ("beta", point)),
        metrics={name: float(index) + i / 8.0
                 for i, name in enumerate(METRIC_NAMES)})


def _checkpoint_costs(store) -> list:
    """Append ``N_RECORDS`` one checkpoint at a time; per-checkpoint seconds."""
    costs = []
    for index in range(N_RECORDS):
        record = _record(index)
        start = time.perf_counter()
        store.append(record)
        store.flush()
        costs.append(time.perf_counter() - start)
    return costs


def _window_ms(costs: list) -> dict:
    """Median per-checkpoint cost (ms) of the early and late windows."""
    span = max(1, int(len(costs) * WINDOW))
    def median(window):
        ordered = sorted(window)
        return ordered[len(ordered) // 2]
    early = median(costs[:span]) * 1e3
    late = median(costs[-span:]) * 1e3
    return {"early_ms": early, "late_ms": late,
            "growth": late / early if early > 0 else float("inf")}


def test_store_checkpoint_cost_flat(tmp_path):
    sharded = ShardedRecordStore(str(tmp_path / "store"))
    sharded_costs = _checkpoint_costs(sharded)
    sharded_records = list(sharded.iter_records())
    sharded.close()

    assert [r.to_json_dict() for r in sharded_records] \
        == [_record(index).to_json_dict() for index in range(N_RECORDS)]
    report = audit_store(str(tmp_path / "store"))
    assert report["clean"], report

    sharded_win = _window_ms(sharded_costs)

    print()
    print(format_table(
        ["store", "early ms/ckpt", "late ms/ckpt", "late/early"],
        [["sharded", f"{sharded_win['early_ms']:.3f}",
          f"{sharded_win['late_ms']:.3f}", f"{sharded_win['growth']:.2f}x"]],
        title=f"per-checkpoint persistence cost ({N_RECORDS} records)"))
    print(f"sharded growth {sharded_win['growth']:.2f}x "
          f"(bar <{FLAT_MAX:.1f}x)")

    update_bench_runtime({"store": {
        "n_records": N_RECORDS,
        "sharded": sharded_win,
        "bars": {"flat_max": FLAT_MAX},
        "smoke": SMOKE,
    }})

    assert sharded_win["growth"] < FLAT_MAX, (
        f"sharded per-checkpoint cost grew {sharded_win['growth']:.2f}x "
        f"from early to late window (bar <{FLAT_MAX:.1f}x) — appends are "
        "no longer O(1)")
