"""One cold repetition of a workload: fresh process, fresh directories.

Every repetition starts the program in a new process over new data,
record-store and physics-store directories.  Warm repeats would measure the
program's in-process caches instead of the program: a second identical
sweep in one process took 0.45 s instead of 20.0 s (the 64-run grid) and
0.60 s instead of 110 s (384 tiny runs).  The directories live inside the
checkout, on disk rather than tmpfs, because fsync is one of the measured
layers.

The client side of the daemon workloads is this process: one client with
at most two threads, each waiting for its reply before sending the next
request (a closed loop).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service import ServiceClient, TERMINAL_STATES
from repro.sweep import RunRecord, SweepResult

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAM = os.path.join(HERE, "program.py")
#: Upper bound on one repetition; a wedged program fails the run.
REP_TIMEOUT_S = 120.0


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    time_to_result_s: float
    durable_s: float            #: first submission to last record durable
    peak_rss_mb: float
    requests: int = 0
    failed_requests: int = 0
    failed_runs: int = 0
    #: records the client ended up with, per sweep name (and the watcher's
    #: streamed copy under "<name>:streamed").
    records: Dict[str, List[RunRecord]] = field(default_factory=dict)
    #: span dumps of every traced process, and the attribution window.
    dumps: List[Dict] = field(default_factory=list)
    window: Optional[tuple] = None
    analysis: Optional[Dict] = None          #: tracer.analyze of the dumps


def program_env(root: str) -> Dict[str, str]:
    """The environment of a measured program: ``src/`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(root, "src"), env.get("PYTHONPATH"))))
    return env


def _read_json(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def _tail(path: str, lines: int = 5) -> str:
    """The end of a program's log, for an error message (the work
    directory holding it is removed when the run ends)."""
    with open(path) as handle:
        return " | ".join(handle.read().splitlines()[-lines:])


def run_library(root: str, workdir: str, specs, traced: bool) -> Rep:
    """``stress-events``: one ``SweepRunner(spec).run(store=...)``."""
    (spec,) = specs
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec.to_json_dict(), handle)
    store = os.path.join(workdir, "records")
    report_path = os.path.join(workdir, "report.json")
    trace_path = os.path.join(workdir, "trace.json")
    command = [sys.executable, PROGRAM, "library", "--spec", spec_path,
               "--store", store, "--report", report_path]
    if traced:
        command += ["--trace", trace_path]
    launched = time.monotonic()
    subprocess.run(command, cwd=root, env=program_env(root), check=True,
                   timeout=REP_TIMEOUT_S)
    report = _read_json(report_path)
    result = SweepResult.load_resumable(store)
    rep = Rep(setup_s=report["ready"] - launched,
              time_to_result_s=report["done"] - report["submitted"],
              durable_s=report["durable"] - report["submitted"],
              peak_rss_mb=report["peak_rss_kb"] / 1024.0,
              failed_runs=len(result.failed_runs),
              records={spec.name: result.sorted_records()})
    if traced:
        rep.dumps = [_read_json(trace_path)]
        rep.window = (report["submitted"], report["done"])
    return rep


class BenchClient(ServiceClient):
    """The stdlib HTTP client, counting requests and (when traced)
    recording one span per request and per wait."""

    def __init__(self, base_url: str, recorder: Optional[tracer.Tracer]):
        super().__init__(base_url)
        self.recorder = recorder
        self.requests = 0
        self.failed = 0
        self._lock = threading.Lock()

    def _request(self, method, path, body=None, timeout=None):
        with self._lock:
            self.requests += 1
        try:
            with self._span("service.client.request"):
                return super()._request(method, path, body, timeout)
        except Exception:
            with self._lock:
                self.failed += 1
            raise

    def _span(self, key: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(key, "http")

    def wait_all(self, job_ids: List[str], poll: float = 0.05) -> None:
        """Poll every job's status until all are terminal."""
        deadline = time.monotonic() + REP_TIMEOUT_S
        with self._span("service.client.wait"):
            while not all(self.status(job_id)["state"] in TERMINAL_STATES
                          for job_id in job_ids):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"jobs {job_ids} not terminal")
                time.sleep(poll)


def _records(payload: Dict) -> List[RunRecord]:
    return [RunRecord.from_json_dict(data) for data in payload["records"]]


def run_daemon(root: str, workdir: str, specs, traced: bool) -> Rep:
    """``tiny-streamed``: a fresh default daemon and the client flow."""
    report_path = os.path.join(workdir, "report.json")
    trace_path = os.path.join(workdir, "trace.json")
    command = [sys.executable, PROGRAM, "daemon",
               "--data-dir", os.path.join(workdir, "data"),
               "--report", report_path]
    if traced:
        command += ["--trace", trace_path]
    recorder = tracer.Tracer() if traced else None
    with open(os.path.join(workdir, "daemon.log"), "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(command, cwd=root, env=program_env(root),
                                stdout=subprocess.PIPE, stderr=log,
                                text=True)
        try:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before listening: "
                                   + _tail(log.name))
            client = BenchClient(
                f"http://127.0.0.1:{json.loads(line)['port']}", recorder)
            client.health()
            ready = time.monotonic()
            rep = _tiny_streamed(client, specs)
            rep.setup_s = ready - launched
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"daemon exited with {proc.returncode}: "
                           + _tail(log.name))
    rep.peak_rss_mb = _read_json(report_path)["peak_rss_kb"] / 1024.0
    rep.requests, rep.failed_requests = client.requests, client.failed
    if traced:
        rep.dumps = [_read_json(trace_path),
                     recorder.to_json_dict(tracer.PRIORITY_CLIENT)]
    return rep


def _submit_all(client: BenchClient, specs):
    wall = time.time()
    submitted = time.monotonic()
    job_ids = [client.submit(spec)["job_id"] for spec in specs]
    return wall, submitted, job_ids


def _finish(client, specs, job_ids, wall, submitted, extra) -> Rep:
    results = [client.result(job_id) for job_id in job_ids]
    extra()
    done = time.monotonic()
    # A job's last "done" transition is journaled after its store sealed.
    durable = max(result["updated_ts"] for result in results) - wall
    rep = Rep(setup_s=0.0, time_to_result_s=done - submitted,
              durable_s=durable, peak_rss_mb=0.0,
              failed_runs=sum(result["n_failed"] for result in results),
              records={spec.name: _records(result)
                       for spec, result in zip(specs, results)})
    rep.window = (submitted, done)
    return rep


def _tiny_streamed(client: BenchClient, specs) -> Rep:
    """Long and short job back to back; one thread tails the long job by
    long-poll while this one polls status, then fetches both results."""
    wall, submitted, job_ids = _submit_all(client, specs)
    streamed: List[RunRecord] = []
    errors: List[Exception] = []

    def watch() -> None:
        seq = 0
        try:
            while True:
                page = client.records(job_ids[0], offset=seq, limit=4096,
                                      wait_seq=seq, wait_timeout=10.0)
                streamed.extend(_records(page))
                seq += page["count"]
                if page["resting"] and seq >= page["total_records"]:
                    return
        except Exception as error:         # re-raised on the main thread
            errors.append(error)

    # A daemon thread: if the daemon dies, the watcher's next request fails
    # and it exits; it never holds this process open.
    watcher = threading.Thread(target=watch, name="bench-watcher",
                               daemon=True)
    watcher.start()
    client.wait_all(job_ids)
    rep = _finish(client, specs, job_ids, wall, submitted,
                  extra=lambda: watcher.join(timeout=REP_TIMEOUT_S))
    if watcher.is_alive():
        raise TimeoutError("record watcher did not finish")
    if errors:
        raise errors[0]
    rep.records[f"{specs[0].name}:streamed"] = streamed
    return rep
