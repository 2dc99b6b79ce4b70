"""Clients for the sweep service: HTTP (urllib) and in-process.

Both speak the same surface, so a test (or notebook) can swap
:class:`InProcessClient` — which calls :class:`~repro.service.api.ServiceAPI`
directly, no sockets — for :class:`ServiceClient` without changing a line.

Error contract: non-2xx responses raise :class:`ServiceError` carrying the
status code, the decoded payload, and (for 429s) the service's
``retry_after`` hint; a caller that wants to wait out backpressure sleeps
that hint and resubmits.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Union

from ..sweep.spec import SweepSpec
from .api import ServiceAPI
from .registry import TERMINAL_STATES

__all__ = ["InProcessClient", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response."""

    def __init__(self, status: int, payload: Dict) -> None:
        super().__init__(
            f"service returned {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.retry_after = float(payload.get("retry_after", 0.0) or 0.0)


class _ClientCore:
    """Shared verbs over an abstract ``_request`` transport."""

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None,
                 timeout: Optional[float] = None) -> Dict:
        raise NotImplementedError

    def submit(self, spec: Union[SweepSpec, Dict],
               job_key: Optional[str] = None) -> Dict:
        """Submit a sweep; returns the job status (``created`` flags dedup).
        A full queue raises :class:`ServiceError` (429) with
        ``retry_after``."""
        if isinstance(spec, SweepSpec):
            spec = spec.to_json_dict()
        body = {"spec": spec}
        if job_key is not None:
            body["job_key"] = job_key
        return self._request("POST", "/jobs", body)

    def status(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str, include_records: bool = True) -> Dict:
        suffix = "" if include_records else "?records=0"
        return self._request("GET", f"/jobs/{job_id}/result{suffix}")

    def records(self, job_id: str, offset: int = 0, limit: int = 256,
                wait_seq: Optional[int] = None,
                wait_timeout: float = 10.0) -> Dict:
        """Page records off the job's durable record store (any job state).

        Records come in append order, so ``offset`` paging stays exact while
        the job runs, even when runs finish out of order.  ``wait_seq=n``
        long-polls: the service holds the request until the store has
        *more* than ``n`` records, the job comes to rest (terminal or
        suspended — see the response's ``resting``), or ``wait_timeout``
        seconds pass; a running job's pages come from its open store's
        memory, so a wakeup parses no line.  Stream a live job by advancing
        ``offset`` and ``wait_seq`` by each page's ``count`` (a page holds
        at most ``limit`` records) and stop once a page is ``resting`` with
        ``total_records`` reached.
        """
        path = (f"/jobs/{job_id}/records?offset={int(offset)}"
                f"&limit={int(limit)}")
        if wait_seq is None:
            return self._request("GET", path)
        path += f"&wait_seq={int(wait_seq)}&wait_timeout={float(wait_timeout)}"
        # The HTTP read deadline must outlive the service-side hold.
        return self._request("GET", path, timeout=float(wait_timeout) + 30.0)

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def resume(self, job_id: str) -> Dict:
        """Lift a suspended (circuit-broken) job back into the queue."""
        return self._request("POST", f"/jobs/{job_id}/resume")

    def health(self) -> Dict:
        return self._request("GET", "/health")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> Dict:
        """Poll until ``job_id`` is terminal; returns its final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s")
            time.sleep(poll)


class ServiceClient(_ClientCore):
    """Thin stdlib-``urllib`` client for a running :mod:`repro.service` daemon."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None,
                 timeout: Optional[float] = None) -> Dict:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(
                    request,
                    timeout=self.timeout if timeout is None else timeout
                    ) as response:
                return json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read() or b"{}")
            except ValueError:
                payload = {"error": str(error)}
            raise ServiceError(error.code, payload) from None


class InProcessClient(_ClientCore):
    """Same client surface, wired straight into a ``ServiceAPI`` (no HTTP)."""

    def __init__(self, api: ServiceAPI) -> None:
        self.api = api

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None,
                 timeout: Optional[float] = None) -> Dict:
        status, payload, _headers = self.api.handle(method, path, body)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload
