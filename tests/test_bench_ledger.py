"""The performance ledger's speedup comparator (``benchmarks/common.py``).

``update_bench_runtime`` prints every ``speedup`` field that fell more than
10% below the section it replaces, when that section was recorded on the
same ``cpu_count``.  These tests drive it over a temporary ledger.
"""

import importlib.util
import json
import os

import pytest

COMMON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "common.py")


@pytest.fixture
def common(tmp_path, monkeypatch):
    """``benchmarks/common.py`` writing a temporary ledger in full mode."""
    spec = importlib.util.spec_from_file_location("bench_common",
                                                  COMMON_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BENCH_RUNTIME_PATH",
                        str(tmp_path / "BENCH_runtime.json"))
    monkeypatch.setattr(module, "SMOKE", False)
    monkeypatch.setattr(module, "_git_commit", lambda: "abc1234")
    return module


def section(top, nested, other=1.0):
    return {"speedup": top, "controllers": {"booster": {"speedup": nested}},
            "speedup_vs_reference": other, "seconds": 1.0}


def write_ledger(common, sections, cpu_count):
    recorded = {name: {"commit": "old0000", "cpu_count": cpu_count}
                for name in sections}
    with open(common.BENCH_RUNTIME_PATH, "w") as handle:
        json.dump(dict(sections, recorded=recorded), handle)


def test_speedup_drops_reports_only_falls_past_the_tolerance(common):
    old = section(2.0, 4.0, other=10.0)
    new = section(1.7, 3.7, other=12.0)     # -15%, -7.5%, +20%
    assert common.speedup_drops(old, new, ("perf",)) == [
        ("perf/speedup", 2.0, 1.7)]
    # Fields missing from either side are skipped.
    assert common.speedup_drops({"speedup": 2.0}, {"other": {}}) == []
    assert common.speedup_drops({}, section(0.1, 0.1)) == []


def test_update_prints_a_drop_on_the_same_cpu_count(common, capsys):
    write_ledger(common, {"perf": section(2.0, 4.0)}, os.cpu_count())
    report = common.update_bench_runtime({"perf": section(2.0, 3.0)})
    out = capsys.readouterr().out
    assert "perf/controllers/booster/speedup fell from 4x to 3x" in out
    assert "old0000" in out
    assert out.count("fell from") == 1
    # It reports and still records the new section.
    with open(common.BENCH_RUNTIME_PATH) as handle:
        ledger = json.load(handle)
    assert ledger["perf"] == report["perf"] == section(2.0, 3.0)
    assert ledger["recorded"]["perf"]["commit"] == "abc1234"


def test_update_skips_another_cpu_count_new_sections_and_smoke(common,
                                                               capsys,
                                                               monkeypatch):
    write_ledger(common, {"perf": section(2.0, 4.0)}, os.cpu_count() + 1)
    common.update_bench_runtime({"perf": section(1.0, 1.0),
                                 "fresh": section(1.0, 1.0)})
    assert capsys.readouterr().out == ""

    write_ledger(common, {"perf": section(2.0, 4.0)}, os.cpu_count())
    monkeypatch.setattr(common, "SMOKE", True)
    common.update_bench_runtime({"perf": section(1.0, 1.0)})
    assert capsys.readouterr().out == ""
    with open(common.BENCH_RUNTIME_PATH) as handle:
        assert json.load(handle)["perf"] == section(2.0, 4.0)
