"""Self-check of the benchmark on smoke-sized sweeps.

Run from the root of a checkout (about a minute)::

    python3 e2ebench/selfcheck.py

For every workload it measures shrunken specs untraced and traced, and
checks that

* every metric BENCHMARK.json names is emitted, with its unit, as a number,
  and nothing else is;
* every repetition passed the reference check, with no failed operation;
* the traced repetition attributes at least 95% of its wall time to the
  ten layers;
* a deliberately corrupted record (an exact field off by one, or a float
  field off by more than the tolerance) fails the reference check.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: The largest share of traced wall time left unattributed.
MAX_UNATTRIBUTED = 0.05


def smoke(spec):
    """A few short runs with the same shape as ``spec``."""
    return dataclasses.replace(spec, seeds=1, cycles=min(spec.cycles, 400),
                               betas=spec.betas[:2])


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {
        "workloads": [w["name"] for w in benchmark["workloads"]],
        False: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        True: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }


def check_result(result, expected: dict, label: str) -> list:
    problems = []
    if result is None:
        return [f"{label}: no repetition completed"]
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(name for name in set(expected) & set(emitted)
                       if expected[name] != emitted[name])
        problems.append(f"{label}: missing {missing}, extra {extra}, "
                        f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def check_attribution(result, label: str) -> list:
    metrics = result["metrics"]
    attributed = sum(metric["value"] for name, metric in metrics.items()
                     if name.startswith("attributed."))
    unattributed = metrics["unattributed_s"]["value"]
    share = unattributed / (attributed + unattributed)
    if share > MAX_UNATTRIBUTED:
        return [f"{label}: {share:.1%} of traced wall time unattributed"]
    return []


def check_corruption(reference) -> list:
    """The reference check must reject a corrupted copy of a record."""
    first = reference[0]
    exact = dict(first.metrics, total_failures=first.metrics[
        "total_failures"] + 1)
    drifted = dict(first.metrics, total_energy=first.metrics[
        "total_energy"] * (1 + 1e-6))
    problems = []
    if check.mismatch(reference, reference) is not None:
        problems.append("an intact copy fails the reference check")
    for label, metrics in (("exact field", exact), ("float field", drifted)):
        corrupted = [dataclasses.replace(first, metrics=metrics),
                     *reference[1:]]
        if check.mismatch(corrupted, reference) is None:
            problems.append(f"a corrupted {label} passes the reference "
                            "check")
    return problems


def main() -> int:
    expected = declared()
    problems = []
    if sorted(expected["workloads"]) != sorted(workloads.KINDS):
        problems.append(f"BENCHMARK.json workloads {expected['workloads']} "
                        f"!= {sorted(workloads.KINDS)}")
    run._warm_up()
    for workload in workloads.KINDS:
        specs = tuple(smoke(spec) for spec in workloads.specs(workload, 7))
        for traced in (False, True):
            label = f"{workload} trace={int(traced)}"
            result = run.measure(workload, specs, 0.0, traced, out=sys.stderr)
            found = check_result(result, expected[traced], label)
            if traced and result is not None:
                found += check_attribution(result, label)
            problems += found
            print(f"{label}: {'ok' if not found else 'FAILED'}",
                  file=sys.stderr)
        problems += check_corruption(check.reference_records(specs[0]))
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
