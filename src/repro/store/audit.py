"""The store audit doctor: verify, repair, and recompact sharded stores.

Run as a module against one or more store directories::

    python -m repro.store.audit results/store              # verify only
    python -m repro.store.audit --repair --compact store/  # heal in place
    python -m repro.store.audit --json store/              # machine-readable

The default pass is **non-mutating**: every shard line is re-digested
(:func:`repro.store.sharded.scan_store`), so it is safe against a store a
sweep is actively writing.  Problems — torn tails and mid-shard corruption
— are reported and the process exits ``1``; a clean store exits ``0``.  A
seal that no longer holds (a lost line or shard) reports ``sealed=False``,
not a problem: the resume is what re-runs the loss.

``--repair`` routes the damage through the same recovery path an open
uses: torn tails are truncated, and corrupt shards quarantined to
``.corrupt`` with their intact lines rewritten.  ``--compact`` additionally
merges the closed shards, dropping superseded lines.  After repair the
store is rescanned; the exit code reflects the *final* state, so
``audit --repair && sweep --resume`` composes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .sharded import ShardedRecordStore, StoreScanReport, scan_store

__all__ = ["audit_store", "main"]


def audit_store(directory: str, repair: bool = False,
                compact: bool = False) -> Dict:
    """Audit one store directory; the programmatic core of the CLI.

    Returns a JSON-ready report: the initial :class:`StoreScanReport`, what
    the repair did (when asked), and the post-repair rescan.  ``clean`` is
    the final verdict the CLI's exit code is based on.
    """
    before = scan_store(directory)
    report: Dict = {"directory": before.directory,
                    "scan": before.to_json_dict(),
                    "clean": before.clean}
    if not (repair or compact):
        return report
    store = ShardedRecordStore(directory)   # the opening IS the repair
    try:
        actions = {key: value for key, value in store.stats().items()
                   if key in ("torn_tail_dropped", "corrupt_lines_dropped",
                              "shards_quarantined")}
        if compact:
            actions["compacted_lines"] = store.compact()
    finally:
        store.close()
    after = scan_store(directory)
    report["repair"] = actions
    report["rescan"] = after.to_json_dict()
    report["clean"] = after.clean
    return report


def _print_human(report: Dict, out) -> None:
    scan = report["rescan"] if "rescan" in report else report["scan"]
    verdict = "clean" if report["clean"] else "PROBLEMS"
    print(f"{report['directory']}: {verdict}", file=out)
    print(f"  records={scan['records']} failed={scan['failed']} "
          f"shards={len(scan['shards'])} sealed={scan['sealed']} "
          f"superseded_lines={scan['superseded_lines']} "
          f"quarantined_files={scan['quarantined_files']}", file=out)
    if "repair" in report:
        fixes = ", ".join(f"{key}={value}"
                          for key, value in sorted(report["repair"].items()))
        print(f"  repair: {fixes}", file=out)
    for problem in scan["problems"]:
        print(f"  ! {problem}", file=out)
    if "rescan" in report:
        healed = [p for p in report["scan"]["problems"]
                  if p not in scan["problems"]]
        for problem in healed:
            print(f"  ~ healed: {problem}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.audit",
        description="Verify (and optionally repair) sharded record stores.")
    parser.add_argument("directories", nargs="+", metavar="DIR",
                        help="store directories to audit")
    parser.add_argument("--repair", action="store_true",
                        help="heal damage in place (torn-tail truncation, "
                             "corrupt-shard quarantine)")
    parser.add_argument("--compact", action="store_true",
                        help="merge closed shards, dropping superseded "
                             "lines (implies opening the store for write)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON report object per store")
    args = parser.parse_args(argv)
    all_clean = True
    for directory in args.directories:
        report = audit_store(directory, repair=args.repair,
                             compact=args.compact)
        all_clean = all_clean and report["clean"]
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_human(report, sys.stdout)
    return 0 if all_clean else 1


if __name__ == "__main__":                      # pragma: no cover - CLI shim
    sys.exit(main())
