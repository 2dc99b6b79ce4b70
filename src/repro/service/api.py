"""Transport layer of the sweep service: routing core + stdlib HTTP binding.

The routing lives in :class:`ServiceAPI` — a plain object mapping
``(method, path, body)`` to ``(status, payload, headers)`` — so the REST
surface is testable fully in-process and the HTTP server is a thin shim
(``http.server.ThreadingHTTPServer``; swapping in another transport means
re-binding ``ServiceAPI.handle``, nothing else).

Endpoints::

    POST /jobs                submit {"spec": .., "job_key"?: ..}
                              -> 202 created | 200 attached (idempotent dup)
                              -> 429 + Retry-After (queue full)
                              -> 409 (job_key bound to a different spec)
                              -> 503 (draining)  | 400 (bad spec, or any
                              other body key)
    GET  /jobs                list job statuses
    GET  /jobs/{id}           one job's status                  -> 404 unknown
    GET  /jobs/{id}/result    terminal job's records+aggregates -> 409 not done
                              (``?records=0`` elides the record list)
    GET  /jobs/{id}/records   page records off the job's record store
                              (``?offset=N&limit=M``; any job state — a
                              running job's durable records page out live,
                              in append order, so offset paging stays exact
                              when runs finish out of order;
                              ``?wait_seq=N[&wait_timeout=S]`` long-polls
                              until more than N records exist or the job
                              comes to rest; a running job's pages come
                              from its open store's memory, any other
                              job's from one read-only pass)
    POST /jobs/{id}/cancel    request cancellation
    POST /jobs/{id}/resume    lift a suspended (circuit-broken) job back
                              into the queue           -> 409 not suspended
    GET  /health              fleet liveness, queue depth, active jobs,
                              lease state, degraded-mode reason rollup,
                              journal stats and record-store damage
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .daemon import Backpressure, ServiceUnavailable, SweepService
from .registry import TERMINAL_STATES, JobStateError

__all__ = ["ServiceAPI", "ServiceHTTPServer", "serve_forever"]

logger = logging.getLogger("repro.service")

Response = Tuple[int, Dict, Dict]


class ServiceAPI:
    """Transport-neutral request router over a :class:`SweepService`."""

    def __init__(self, service: SweepService) -> None:
        self.service = service

    def handle(self, method: str, path: str,
               body: Optional[Dict] = None) -> Response:
        """Route one request; returns ``(status, payload, extra_headers)``.

        Never raises for client-visible conditions — they come back as the
        proper status code — so every transport shares one error contract.
        """
        parsed = urlparse(path)
        parts = [part for part in parsed.path.split("/") if part]
        query = parse_qs(parsed.query)
        try:
            return self._route(method.upper(), parts, body or {}, query)
        except KeyError as error:
            return 404, {"error": str(error).strip("'\"")}, {}
        except Backpressure as error:
            return (429, {"error": str(error),
                          "retry_after": error.retry_after},
                    {"Retry-After": f"{error.retry_after:.0f}"})
        except ServiceUnavailable as error:
            return 503, {"error": str(error)}, {}
        except JobStateError as error:
            return 409, {"error": str(error)}, {}
        except (TypeError, ValueError) as error:
            return 400, {"error": f"bad request: {error}"}, {}

    def _route(self, method: str, parts, body: Dict, query) -> Response:
        if parts == ["health"] and method == "GET":
            return 200, self.service.health(), {}
        if parts == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": self.service.jobs()}, {}
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return 200, self.service.status(parts[1]), {}
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, action = parts[1], parts[2]
            if action == "result" and method == "GET":
                include = query.get("records", ["1"])[0] not in ("0", "false")
                if self.service.status(job_id)["state"] not in \
                        TERMINAL_STATES:
                    return (409, {"error": f"job {job_id} is not terminal; "
                                  "poll GET /jobs/{id} until it is"}, {})
                return (200,
                        self.service.result(job_id, include_records=include),
                        {})
            if action == "records" and method == "GET":
                offset = int(query.get("offset", ["0"])[0])
                limit = int(query.get("limit", ["256"])[0])
                wait_seq_raw = query.get("wait_seq", [None])[0]
                wait_seq = None if wait_seq_raw is None else int(wait_seq_raw)
                wait_timeout = float(query.get("wait_timeout", ["10"])[0])
                return (200, self.service.records(
                    job_id, offset=offset, limit=limit, wait_seq=wait_seq,
                    wait_timeout=wait_timeout), {})
            if action == "cancel" and method == "POST":
                self.service.cancel(job_id)
                return 200, self.service.status(job_id), {}
            if action == "resume" and method == "POST":
                self.service.resume(job_id)
                return 200, self.service.status(job_id), {}
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}, {}

    def _submit(self, body: Dict) -> Response:
        spec = body.get("spec")
        if not isinstance(spec, dict):
            raise ValueError("body must carry a 'spec' object "
                             "(SweepSpec.to_json_dict() form)")
        unknown = sorted(set(body) - {"spec", "job_key"})
        if unknown:
            raise ValueError(f"unknown body field(s) {unknown}; a job is "
                             "its 'spec' and an optional 'job_key'")
        job, created = self.service.submit(spec, job_key=body.get("job_key"))
        # A job just created has no progress to count.
        payload = (job.public_status() if created
                   else self.service.status(job.job_id))
        payload["created"] = created
        return (202 if created else 200), payload, {}


class _Handler(BaseHTTPRequestHandler):
    """One-method shim: decode JSON, call ``ServiceAPI.handle``, encode JSON."""

    api: ServiceAPI = None      # set per-server via type() subclassing
    protocol_version = "HTTP/1.1"

    def _respond(self) -> None:
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length))
            except ValueError:
                self._send(400, {"error": "request body is not JSON"}, {})
                return
        status, payload, headers = self.api.handle(self.command,
                                                   self.path, body)
        self._send(status, payload, headers)

    def _send(self, status: int, payload: Dict, headers: Dict) -> None:
        encoded = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    do_GET = do_POST = do_DELETE = _respond

    def log_message(self, fmt, *args):       # route through logging, quietly
        logger.debug("http: " + fmt, *args)


class ServiceHTTPServer:
    """The stdlib HTTP binding: a threaded server wrapping a ServiceAPI.

    ``port=0`` picks a free port (exposed as ``.port`` after construction).
    ``start()`` serves from a daemon thread; ``stop()`` shuts the listener
    down (it does not touch the SweepService — the daemon owns its own
    shutdown so the listener can die first and drain second).
    """

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.api = ServiceAPI(service)
        handler = type("_BoundHandler", (_Handler,), {"api": self.api})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="sweep-service-http",
                                        daemon=True)
        self._thread.start()
        logger.info("service: listening on %s", self.url)
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve_forever(service: SweepService, host: str = "127.0.0.1",
                  port: int = 8023, poll: float = 0.2) -> None:
    """Foreground daemon loop: start, serve, drain gracefully on SIGTERM.

    This is the ``python -m``-style entrypoint the demo uses: it installs
    signal handlers, then blocks until a drain is requested (signal or an
    external ``service.shutdown()``), shutting the listener before the fleet
    so in-flight HTTP responses finish while the running job's store
    flushes.
    """
    import time

    from .daemon import install_signal_handlers

    http_server = ServiceHTTPServer(service, host=host, port=port)
    install_signal_handlers(service)
    service.start()
    http_server.start()
    try:
        while not service.draining:
            time.sleep(poll)
    finally:
        http_server.stop()
        service.shutdown()
