"""Blocking HTTP client for the serve subsystem.

Built on :mod:`http.client` (stdlib).  Each thread that uses a client
keeps one HTTP/1.1 keep-alive connection to the server and sends all its
requests over it; :meth:`ServeClient.close` (or leaving a ``with``
block) closes them.  A request sent on a reused connection that the
server has meanwhile closed (its idle timeout, or a drain) is sent once
more on a fresh connection.  Event streams use a connection of their
own, which the server closes at the end of the stream.  Used by the
test suite, ``benchmarks/bench_serve.py``, and the ``repro fuzz
--serve`` replay path; it is also the reference for anyone scripting
the service from outside this repository.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from repro.errors import ReproError


class ServeError(ReproError):
    """The server refused a request (4xx/5xx) or broke protocol."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', '?')}"
                         f" - {payload.get('message', '')}")


class JobFailed(ReproError):
    """A job completed with a structured error."""

    def __init__(self, job: dict) -> None:
        self.job = job
        error = job.get("error") or {}
        super().__init__(f"job {job.get('id')} failed: "
                         f"[{error.get('type', '?')}] "
                         f"{error.get('message', '')}")

    @property
    def error_type(self) -> str:
        return (self.job.get("error") or {}).get("type", "?")


class ServeClient:
    """A client of one server, with one keep-alive connection per thread.

    :meth:`close` closes them; so does leaving a ``with`` block."""

    def __init__(self, base_url: str, client_id: str = "-",
                 timeout: float = 300.0) -> None:
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.client_id = client_id
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every thread's connection.  The client stays usable: a
        later request opens a new one."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- low-level -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            with self._lock:
                self._conns.append(conn)
        return conn

    def _request(self, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json",
                   "X-Repro-Client": self.client_id}
        conn = self._connection()
        # http.client drops the socket after a ``Connection: close``
        # response, and reconnects on the next request.
        reused = conn.sock is not None
        try:
            status, data = _exchange(conn, method, path, payload, headers)
        except (ConnectionResetError, ConnectionAbortedError,
                BrokenPipeError):
            # RemoteDisconnected is a ConnectionResetError.  The server
            # closes a connection unanswered only while it waits for a
            # request, so on a reused connection this request was never
            # served: send it again on a fresh one.
            if not reused:
                raise
            status, data = _exchange(conn, method, path, payload, headers)
        try:
            doc = json.loads(data.decode() or "{}")
        except json.JSONDecodeError as exc:
            raise ServeError(status, {"error": "bad-response",
                                      "message": str(exc)}) from None
        if status >= 400:
            raise ServeError(status, doc)
        return doc

    # -- API -------------------------------------------------------------------

    def submit(self, kind: str, payload: dict) -> dict:
        """Submit one job; returns the job document (maybe terminal)."""
        return self._request("POST", "/v1/jobs",
                             {"kind": kind, "payload": payload})

    def get(self, job_id: str, wait: float | None = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait}"
        return self._request("GET", path)

    def wait(self, job: dict, timeout: float | None = None) -> dict:
        """Poll (long-poll, really) until *job* is terminal."""
        timeout = timeout if timeout is not None else self.timeout
        deadline = time.monotonic() + timeout
        while job["status"] not in ("done", "error"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job['id']} still "
                                   f"{job['status']} after {timeout}s")
            job = self.get(job["id"], wait=min(remaining, 30.0))
        return job

    def run(self, kind: str, payload: dict,
            timeout: float | None = None) -> dict:
        """Submit + wait; returns the result dict or raises JobFailed."""
        job = self.wait(self.submit(kind, payload), timeout=timeout)
        if job["status"] != "done":
            raise JobFailed(job)
        return job["result"]

    def events(self, job_id: str):
        """Yield the job's NDJSON progress events; the last yielded dict
        has ``type == "job"`` and is the terminal job document."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}?events=1",
                         headers={"X-Repro-Client": self.client_id})
            response = conn.getresponse()
            if response.status >= 400:
                raise ServeError(response.status,
                                 json.loads(response.read().decode()
                                            or "{}"))
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()

    def artifact(self, key: str) -> dict:
        return self._request("GET", f"/v1/artifacts/{key}")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (OSError, ReproError):
            return False


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              payload: bytes | None, headers: dict) -> tuple[int, bytes]:
    """One request and its whole response on *conn*: (status, body).
    Any failure closes *conn*, whose state is then unknown."""
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except BaseException:
        conn.close()
        raise
