"""Output checks and the environment stamp.

Every repetition's records are compared against a serial ``SweepRunner``
pass of the same spec, run once per benchmark run outside the timed
region, with the rule of ``benchmarks/common.py:assert_records_equivalent``:
discrete fields bit-identical, float metrics within 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from typing import Dict, List, Optional, Sequence

from repro.sweep import RunRecord, SweepRunner

#: Metrics that must match exactly; every other metric within ``RTOL``.
EXACT = ("total_failures", "total_stall_cycles")
RTOL = 1e-9


def reference_records(spec) -> List[RunRecord]:
    """A serial, store-less ``SweepRunner`` pass in canonical order."""
    return SweepRunner(spec).run().sorted_records()


def mismatch(records: Sequence[RunRecord],
             reference: Sequence[RunRecord]) -> Optional[str]:
    """None when ``records`` match ``reference``, else the first difference."""
    records = sorted(records, key=lambda r: (r.point_index, r.seed_index))
    if len(records) != len(reference):
        return f"{len(records)} records, expected {len(reference)}"
    for got, want in zip(records, reference):
        if (got.run_id, got.seed, tuple(got.point_key)) != \
                (want.run_id, want.seed, tuple(want.point_key)):
            return f"{got.run_id}: identity differs from {want.run_id}"
        if set(got.metrics) != set(want.metrics):
            return f"{got.run_id}: metric names differ"
        for name, expected in want.metrics.items():
            value = got.metrics[name]
            same = value == expected if name in EXACT else math.isclose(
                value, expected, rel_tol=RTOL, abs_tol=0.0)
            if not same:
                return f"{got.run_id}: {name} = {value!r}, expected " \
                       f"{expected!r}"
    return None


def fingerprint(records: Sequence[RunRecord]) -> Dict[str, int]:
    """Simulated totals that repeat exactly for a given seed."""
    return {"runs": len(records),
            "ir_failures": int(sum(r.metrics["total_failures"]
                                   for r in records)),
            "stall_cycles": int(sum(r.metrics["total_stall_cycles"]
                                    for r in records))}


def loaded_macros(workload_spec) -> int:
    """Macros that carry a task in the compiled image of a workload."""
    from repro.sweep.builders import build_compiled_workload
    compiled = build_compiled_workload(workload_spec)
    return len(set(compiled.mapping.assignment.values()))


def environment(root: str) -> Dict:
    """What a result must be stamped with: numbers from different machines
    or code must never be compared."""
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **_commit(root),
            "src_sha256": _tree_digest(os.path.join(root, "src"))}


def _commit(root: str) -> Dict:
    """HEAD and its dirty flag; both None outside a git checkout."""
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", *args], cwd=root, timeout=10,
                                 capture_output=True, text=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "--short", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _tree_digest(directory: str) -> str:
    """sha256 over every ``.py`` file's path and bytes: identifies the code
    measured even where no git metadata exists."""
    paths = sorted(os.path.join(base, name)
                   for base, _, files in os.walk(directory)
                   for name in files if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, directory).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]
