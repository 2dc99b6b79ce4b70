"""The measured programs: one cold library sweep, or one cold daemon.

``run.py`` starts one of these in a fresh process per repetition::

    python3 e2ebench/program.py library --spec FILE --store DIR \\
        --report FILE [--trace FILE]
    python3 e2ebench/program.py daemon --data-dir DIR --report FILE \\
        [--trace FILE]

``library`` imports the sweep package, builds a ``SweepRunner`` for the
spec (``SweepSpec.to_json_dict`` form) and runs it into a record store.
``daemon`` starts a default ``SweepService`` behind the stdlib HTTP server,
prints
``{"port": P}`` on one line, serves until SIGTERM, then drains and shuts
down.  Both write a JSON report at exit: timestamps on the system-wide
monotonic clock and the peak resident memory.  With ``--trace`` the layer
wrappers of :mod:`tracer` are installed before the program starts and the
spans are written to that file at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import threading
import time


def peak_rss_kb() -> int:
    """Peak resident memory of this process and of its reaped children.

    The process's own peak is ``VmHWM``, not ``RUSAGE_SELF``: Linux carries
    the pre-exec peak into ``ru_maxrss``, so that would report the launching
    benchmark process whenever it is the larger one.
    """
    with open("/proc/self/status") as handle:
        own = next(int(line.split()[1]) for line in handle
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _tracer(path):
    if path is None:
        return None
    import tracer
    recorder = tracer.Tracer()
    tracer.install(recorder)
    return recorder


def library(args) -> dict:
    from repro.sweep import SweepRunner, SweepSpec

    import tracer
    recorder = _tracer(args.trace)
    if recorder is not None:
        recorder.priorities[threading.get_ident()] = tracer.PRIORITY_MAIN
    with open(args.spec) as handle:
        runner = SweepRunner(SweepSpec.from_json_dict(json.load(handle)))
    ready = time.monotonic()
    result = runner.run(store=args.store)
    done = time.monotonic()
    if recorder is not None:
        tracer.finish(recorder)
        recorder.dump(args.trace, tracer.PRIORITY_SERVER)
    # The pass sealed the store before returning: done is also durable.
    return {"ready": ready, "submitted": ready, "done": done,
            "durable": done, "failed_runs": len(result.failed_runs)}


def daemon(args) -> dict:
    from repro.service import ServiceHTTPServer, SweepService
    from repro.service.daemon import install_signal_handlers

    import tracer
    recorder = _tracer(args.trace)
    service = SweepService(args.data_dir)
    server = ServiceHTTPServer(service)
    install_signal_handlers(service)
    service.start()
    server.start()
    if recorder is not None:
        for thread in threading.enumerate():
            if thread.name == "sweep-service-scheduler":
                recorder.priorities[thread.ident] = tracer.PRIORITY_MAIN
    print(json.dumps({"port": server.port}), flush=True)
    while not service.draining:
        time.sleep(0.05)
    if recorder is not None:
        tracer.finish(recorder, service)    # while the store is attached
    server.stop()
    service.shutdown()
    if recorder is not None:
        recorder.dump(args.trace, tracer.PRIORITY_SERVER)
    return {}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="role", required=True)
    lib = sub.add_parser("library")
    lib.add_argument("--spec", required=True)
    lib.add_argument("--store", required=True)
    dmn = sub.add_parser("daemon")
    dmn.add_argument("--data-dir", required=True)
    for role in (lib, dmn):
        role.add_argument("--report", required=True)
        role.add_argument("--trace")
    args = parser.parse_args()
    report = library(args) if args.role == "library" else daemon(args)
    report["peak_rss_kb"] = peak_rss_kb()
    with open(args.report, "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
