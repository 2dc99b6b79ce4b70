"""End-to-end sweep benchmark: cold library and daemon sweeps.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload tiny-streamed --seed 1 --seconds 50 \\
        --trace 0

Each repetition starts the program cold in a fresh process (see
``reps.py``) and repeats until ``--seconds`` have passed; the metrics are
medians over the repetitions, the times scaled to a reference host speed
(see ``hostspeed.py``).  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.py``), plus the tracing
overhead.  Every repetition's records are checked against a serial reference
pass (see ``check.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it stamp the environment, print the simulated fingerprint and, traced, the
top self times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (host time) and their units.
END_TO_END = {"setup_s": "s", "time_to_result_s": "s",
              "sim_macro_cycles_per_s": "macro-cycles/s",
              "peak_rss_mb": "MB", "ok_ops_ratio": "ratio"}

#: HTTP routes with per-route metrics.
ROUTES = ("submit", "status", "records", "result", "health")

#: Repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3


def _unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("us_per_failure"):
        return "us"
    return "count"


def _units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    from tracer import LAYERS
    empty = {"self": {}, "calls": {}, "inclusive": {}, "counters": {},
             "attributed": dict.fromkeys(LAYERS, 0.0), "window_s": 0.0}
    names = [*layer_metrics(empty, 0), "trace_overhead"]
    return {name: _unit(name) for name in names}


def layer_metrics(analysis: Dict, ir_failures: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    own, calls = analysis["self"], analysis["calls"]
    inclusive, counters = analysis["inclusive"], analysis["counters"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    engine_self = own.get("sim.engine.run", 0.0)
    request_s = inclusive.get("service.client.request", 0.0)
    m = {
        "sweep.builders.build_s": own.get("sweep.builders.build", 0.0),
        "sweep.builders.build_calls": calls.get("sweep.builders.build", 0),
        "workloads.generator.flip_s": own.get("workloads.generator.flip",
                                              0.0),
        "workloads.generator.flip_rows":
            counters.get("workloads.generator.flip_rows", 0),
        "power.ir_drop.drop_array_s": own.get("power.ir_drop.drop_array",
                                              0.0),
        "power.ir_drop.drop_array_calls":
            calls.get("power.ir_drop.drop_array", 0),
        "power.monitor.noise_s": own.get("power.monitor.noise", 0.0),
        "sim.engine.physics_s": own.get("sim.engine.physics", 0.0),
        "sim.level_cache.hit_ratio": ratio(
            counters.get("sim.level_cache.hits", 0),
            counters.get("sim.level_cache.lookups", 0)),
        "sim.shared_store.publish_s": own.get("sim.shared_store.publish",
                                              0.0),
        "sim.shared_store.publishes": calls.get("sim.shared_store.publish",
                                                0),
        "sim.shared_store.load_s": own.get("sim.shared_store.load", 0.0),
        "sim.shared_store.load_hit_ratio": ratio(
            counters.get("sim.shared_store.load_hits", 0),
            counters.get("sim.shared_store.loads", 0)),
        "sim.shared_store.index_bytes":
            counters.get("sim.shared_store.index_bytes", 0),
        "sim.kernels.select_s": own.get("sim.kernels.select", 0.0),
        "sim.kernels.select_calls": calls.get("sim.kernels.select", 0),
        "sim.engine.self_s": engine_self,
        "sim.engine.ir_failures": ir_failures,
        "sim.engine.us_per_failure": 1e6 * ratio(engine_self, ir_failures),
        "sim.engine.materialize_s": own.get("sim.engine.materialize", 0.0),
        "power.energy.span_breakdowns_s":
            own.get("power.energy.span_breakdowns", 0.0),
        "sweep.records.from_simulation_s":
            own.get("sweep.records.from_simulation", 0.0),
        "sweep.runner.work_s": own.get("sweep.runner.work", 0.0),
        "sweep.runner.work_units": calls.get("sweep.runner.work", 0),
        # The executor stream's wall minus everything it ran, plus the
        # library runner's own loop.
        "sweep.runner.dispatch_s": own.get("sweep.runner.stream", 0.0)
        + own.get("sweep.runner.run", 0.0),
        "sweep.runner.consume_s": own.get("sweep.runner.consume", 0.0),
        "sweep.runner.retries": counters.get("sweep.runner.retries", 0),
        "sweep.runner.requeues": counters.get("sweep.runner.requeues", 0),
        "service.journal.fsyncs": counters.get("service.journal.fsyncs", 0),
        "service.daemon.rounds": calls.get("sweep.runner.stream", 0),
        "service.daemon.round_s": inclusive.get("sweep.runner.stream", 0.0),
        "service.daemon.queue_wait_s":
            counters.get("service.daemon.queue_wait_s", 0.0),
        "sweep.runner.prepare_s": own.get("sweep.runner.prepare", 0.0),
        "service.daemon.schedule_s": own.get("service.daemon.schedule", 0.0)
        + own.get("service.daemon.submit", 0.0),
        "service.daemon.result_s": own.get("service.daemon.result", 0.0),
        "service.api.records_wait_s": own.get("service.daemon.records",
                                              0.0),
        "service.api.server_s": own.get("service.api.server", 0.0),
        "service.client.request_s": request_s,
        "service.client.wait_s": own.get("service.client.wait", 0.0),
        "service.api.transport_s": max(
            0.0, request_s - inclusive.get("service.api.server", 0.0)),
        "store.sharded.size_bytes": counters.get("store.sharded.size_bytes",
                                                 0),
    }
    for name in ("append", "flush", "seal", "open", "scan"):
        m[f"store.sharded.{name}_s"] = own.get(f"store.sharded.{name}", 0.0)
    for name, key in (("appends", "append"), ("flushes", "flush"),
                      ("scans", "scan")):
        m[f"store.sharded.{name}"] = calls.get(f"store.sharded.{key}", 0)
    m["service.journal.append_s"] = own.get("service.journal.append", 0.0)
    m["service.journal.appends"] = calls.get("service.journal.append", 0)
    m["service.registry.transition_s"] = own.get(
        "service.registry.transition", 0.0)
    for route in ROUTES:
        key = f"service.api.handle.{route}"
        m[f"service.api.handle_s.{route}"] = inclusive.get(key, 0.0)
        m[f"service.api.requests.{route}"] = calls.get(key, 0)
    for layer, seconds in analysis["attributed"].items():
        m[f"attributed.{layer}_s"] = seconds
    m["unattributed_s"] = max(
        0.0, analysis["window_s"] - sum(analysis["attributed"].values()))
    return m


def top_self_times(analysis: Dict, count: int = 12) -> List[str]:
    """The traced repetition's span keys ranked by the wall time attributed
    to them, with their summed self time, one line each."""
    window = analysis["window_s"]
    ranked = sorted(analysis["attributed_keys"].items(), key=lambda kv: -kv[1])
    lines = [f"{'key':32s} {'layer':12s} {'wall s':>7s} {'wall%':>6s} "
             f"{'self s':>7s} {'calls':>7s}"]
    for key, seconds in ranked[:count]:
        lines.append(f"{key:32s} {analysis['layer_of'][key]:12s} "
                     f"{seconds:7.3f} {100 * seconds / window:5.1f}% "
                     f"{analysis['self'][key]:7.3f} "
                     f"{analysis['calls'][key]:7d}")
    return lines


def _warm_up() -> None:
    """Compile the package's bytecode once, untimed: every repetition then
    pays what a user's second launch pays, not a first-ever import."""
    import reps
    subprocess.run([sys.executable, "-c",
                    "import repro.service, repro.sweep, repro.store"],
                   cwd=ROOT, check=True, timeout=120,
                   env=reps.program_env(ROOT))


def measure(workload: str, specs, seconds: float, trace: bool,
            out=sys.stdout) -> Optional[Dict]:
    """Repeat ``workload`` cold for ``seconds``; returns the result object
    (None when no repetition completed).  Progress goes to stderr; the
    fingerprint and, traced, the ranked spans go to ``out``."""
    import check
    import hostspeed
    import reps
    import tracer
    import workloads

    reference ={spec.name: check.reference_records(spec) for spec in specs}
    fingerprint = check.fingerprint(
        [r for records in reference.values() for r in records])
    ir_failures = fingerprint["ir_failures"]
    print("fingerprint " + json.dumps(fingerprint), file=out, flush=True)
    macros = {w: check.loaded_macros(w)
              for spec in specs for w in spec.workloads}
    macro_cycles = sum(macros[run.workload] * run.cycles
                       for spec in specs for run in spec.expand())
    n_runs = sum(spec.n_runs for spec in specs)

    workroot = os.path.join(ROOT, ".e2ebench_work", str(os.getpid()))
    untraced: List = []
    traced: List = []
    errors: List[str] = []
    started = time.monotonic()
    count = 0
    probes = [hostspeed.probe()]
    try:
        while count < MIN_REPS or time.monotonic() - started < seconds:
            tracing = trace and count % 2 == 1
            workdir = os.path.join(workroot, str(count))
            os.makedirs(workdir)
            count += 1
            try:
                if workloads.KINDS[workload] == "library":
                    rep = reps.run_library(ROOT, workdir, specs, tracing)
                else:
                    rep = reps.run_daemon(ROOT, workdir, specs, tracing)
            except Exception as error:      # reported; the run stops here
                errors.append(f"repetition {count}: {error!r}")
                break
            probes.append(hostspeed.probe())
            for name, records in rep.records.items():
                sweep = name.split(":")[0]          # "<name>:streamed" too
                problem = check.mismatch(records, reference[sweep])
                if problem is not None:
                    errors.append(f"repetition {count}, {name}: {problem}")
            if tracing:
                rep.analysis = tracer.analyze(rep.dumps, rep.window)
                rep.dumps = []
            (traced if tracing else untraced).append(rep)
            shutil.rmtree(workdir, ignore_errors=True)
            print(f"rep {count}{' traced' if tracing else ''}: setup "
                  f"{rep.setup_s:.3f}s result {rep.time_to_result_s:.3f}s "
                  f"durable {rep.durable_s:.3f}s rss {rep.peak_rss_mb:.1f}MB "
                  f"probe {probes[-1]:.3f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workroot))     # only when empty
    for error in errors:
        print(f"e2ebench: {error}", file=sys.stderr)
    if not untraced or (trace and not traced):
        return None

    done = untraced + traced
    attempted = sum(n_runs + rep.requests for rep in done)
    failed = sum(rep.failed_runs + rep.failed_requests for rep in done) \
        + len(errors)
    if trace:
        per_rep = [layer_metrics(rep.analysis, ir_failures)
                   for rep in traced]
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name in per_rep[0]}
        values["trace_overhead"] = statistics.median(
            r.time_to_result_s for r in traced) / statistics.median(
            r.time_to_result_s for r in untraced) - 1.0
        units = _units()
        for line in top_self_times(traced[0].analysis):
            print("span " + line, file=out)
    else:
        # Reference-host seconds per second measured (see hostspeed.py).
        scale = hostspeed.PROBE_REFERENCE_S / statistics.median(probes)
        raw = {"setup_s": statistics.median(r.setup_s for r in untraced),
               "time_to_result_s": statistics.median(
                   r.time_to_result_s for r in untraced),
               "durable_s": statistics.median(r.durable_s
                                              for r in untraced)}
        print("unscaled " + json.dumps({**raw, "scale": scale}), file=out)
        values = {
            "setup_s": raw["setup_s"] * scale,
            "time_to_result_s": raw["time_to_result_s"] * scale,
            "sim_macro_cycles_per_s":
                macro_cycles / (raw["durable_s"] * scale),
            "peak_rss_mb": statistics.median(r.peak_rss_mb
                                             for r in untraced),
            "ok_ops_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so every started program is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import workloads
    if args.workload not in workloads.KINDS:
        print(f"e2ebench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(check.environment(ROOT), sort_keys=True),
          flush=True)
    _warm_up()
    result = measure(args.workload, workloads.specs(args.workload, args.seed),
                     args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
