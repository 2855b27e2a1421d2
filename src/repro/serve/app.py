"""The asyncio HTTP/JSON front end of the serve subsystem.

Dependency-free by construction: requests are framed by hand on top of
``asyncio.start_server`` streams (request line, headers, Content-Length
body), and responses are JSON documents with a Content-Length — except
the job event stream, which is newline-delimited JSON terminated by
connection close.

Connections are HTTP/1.1 keep-alive: one connection serves requests in
turn until the client closes it or sends ``Connection: close``.  The
server closes it (saying ``Connection: close`` on the last response)
after an event stream, a 413 (whose unread body must never be parsed as
a request), a 500, an HTTP/1.0 request, or once draining; and it closes
a connection left idle between requests for :data:`IDLE_TIMEOUT`
seconds, or at once when the server drains.

Routes:

* ``POST /v1/jobs`` — submit ``{"kind": ..., "payload": {...}}``;
  responds with the job document (which may already be terminal on an
  artifact hit).  400 on a malformed payload, 429 when rate limited,
  503 while draining.
* ``GET /v1/jobs/<id>`` — job status.  ``?wait=<seconds>`` long-polls
  until the job is terminal; ``?events=1`` streams the job's progress
  events as NDJSON and finishes with the job document itself.
* ``GET /v1/artifacts/<key>`` — fetch a stored result by fingerprint.
* ``GET /v1/stats`` — scheduler, artifact-store, and worker-cache
  counters, and per-phase job latency percentiles.
* ``GET /healthz`` — liveness probe.

``SIGTERM``/``SIGINT`` trigger a graceful drain: the listener and idle
connections close, in-flight jobs finish and their waiting clients get
their responses, then the pool shuts down.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
from urllib.parse import parse_qs, unquote, urlsplit

from repro.serve.scheduler import RateLimited, Scheduler, ServerDraining
from repro.serve.wire import BadRequest

#: Request body size cap; the largest legitimate payloads are fuzz
#: assembly programs, which are well under this.
MAX_BODY = 4 * 1024 * 1024
MAX_HEADERS = 100
#: Cap on ``?wait=`` long-polls so an abandoned connection cannot pin
#: the handler forever.
MAX_WAIT = 600.0
#: A keep-alive connection idle this long between requests is closed.
IDLE_TIMEOUT = 60.0


class _Connection:
    """One client connection, and whether it stays open after the
    response being written."""

    __slots__ = ("writer", "keep_alive")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.keep_alive = True


class ServeApp:
    """One server instance: scheduler + asyncio listener."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 2, artifact_dir: str = ".repro_artifacts",
                 max_cycles_cap: int | None = None,
                 rate: float = 0.0, burst: float | None = None) -> None:
        self.host = host
        self.port = port
        self.scheduler = Scheduler(jobs=jobs, artifact_dir=artifact_dir,
                                   max_cycles_cap=max_cycles_cap,
                                   rate=rate, burst=burst)
        self._stop = None
        self._server = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task] = set()
        #: Writers of connections waiting for their next request.
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False
        #: Connections accepted and requests read, over the server's life.
        self.counters = {"connections": 0, "requests": 0}

    # -- lifecycle -------------------------------------------------------------

    async def run(self, ready: threading.Event | None = None) -> None:
        """Serve until stopped, then drain gracefully."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread (test/bench embedding)
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            # Stop accepting, and close every connection that is waiting
            # for a request; busy ones close after their response.
            self._closing = True
            self._server.close()
            for writer in list(self._idle):
                _close(writer)
            await self.scheduler.drain()
            # Let in-flight handlers (long-polls on now-terminal jobs,
            # event streams) flush their responses before the loop dies.
            if self._connections:
                _done, stuck = await asyncio.wait(self._connections,
                                                  timeout=15)
                for task in stuck:
                    task.cancel()
                if stuck:
                    await asyncio.wait(stuck)
            # Since Python 3.12 this waits for every connection to close.
            await self._server.wait_closed()

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    # -- HTTP framing ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self.counters["connections"] += 1
        # drain() then waits until the kernel holds the whole response, so
        # a connection is never closed with bytes still queued here.
        writer.transport.set_write_buffer_limits(0)
        conn = _Connection(writer)
        try:
            while conn.keep_alive and not self._closing:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self.counters["requests"] += 1
                method, target, version, headers, body = request
                conn.keep_alive = (version == "HTTP/1.1" and
                                   headers.get("connection", "").lower()
                                   != "close")
                await self._dispatch(conn, method, target, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            conn.keep_alive = False
            try:
                await self._respond(conn, 500,
                                    {"error": "internal",
                                     "message": str(exc)})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            _close(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter):
        # Idle until the request line arrives: the idle timer and drain
        # close the connection, and readline() then sees EOF.
        self._idle.add(writer)
        timer = self._loop.call_later(IDLE_TIMEOUT, _close, writer)
        try:
            line = await reader.readline()
        finally:
            timer.cancel()
            self._idle.discard(writer)
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None  # the rest would be read as the next request
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            return method, target, version, headers, None  # 413
        body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body

    async def _respond(self, conn: _Connection, status: int,
                       payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode()
        if self._closing:
            conn.keep_alive = False
        close = "" if conn.keep_alive else "Connection: close\r\n"
        conn.writer.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{close}\r\n".encode() + body)
        await conn.writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, conn: _Connection, method: str, target: str,
                        headers: dict, body: bytes | None) -> None:
        if body is None:
            # The body is left unread: close rather than parse it.
            conn.keep_alive = False
            await self._respond(conn, 413, {"error": "payload-too-large"})
            return
        url = urlsplit(target)
        parts = [unquote(p) for p in url.path.strip("/").split("/")]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if method == "POST" and parts == ["v1", "jobs"]:
            await self._post_job(conn, headers, body)
        elif method == "GET" and len(parts) == 3 \
                and parts[:2] == ["v1", "jobs"]:
            await self._get_job(conn, parts[2], query)
        elif method == "GET" and len(parts) == 3 \
                and parts[:2] == ["v1", "artifacts"]:
            artifact = self.scheduler.store.get(parts[2])
            if artifact is None:
                await self._respond(conn, 404,
                                    {"error": "unknown-artifact"})
            else:
                await self._respond(conn, 200, artifact)
        elif method == "GET" and parts == ["v1", "stats"]:
            await self._respond(conn, 200, self.scheduler.stats())
        elif method == "GET" and parts == ["healthz"]:
            await self._respond(conn, 200, {"ok": True})
        else:
            await self._respond(conn, 404, {"error": "unknown-route"})

    async def _post_job(self, conn: _Connection, headers: dict, body: bytes) -> None:
        try:
            doc = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(conn, 400, {"error": "bad-json",
                                              "message": str(exc)})
            return
        if not isinstance(doc, dict):
            await self._respond(conn, 400,
                                {"error": "bad-json",
                                 "message": "body must be an object"})
            return
        client = headers.get("x-repro-client", "-")
        try:
            job = self.scheduler.submit(doc.get("kind", ""),
                                        doc.get("payload", {}),
                                        client=client)
        except BadRequest as exc:
            await self._respond(conn, 400, {"error": "bad-request",
                                              "message": str(exc)})
            return
        except RateLimited as exc:
            await self._respond(conn, 429, {"error": "rate-limited",
                                              "message": str(exc)})
            return
        except ServerDraining as exc:
            await self._respond(conn, 503, {"error": "draining",
                                              "message": str(exc)})
            return
        await self._respond(conn, 202 if not job.terminal else 200,
                            job.to_dict())

    async def _get_job(self, conn: _Connection, job_id: str, query: dict) -> None:
        job = self.scheduler.get(job_id)
        if job is None:
            await self._respond(conn, 404, {"error": "unknown-job"})
            return
        if query.get("events"):
            await self._stream_events(conn, job)
            return
        wait = query.get("wait")
        if wait and not job.terminal:
            try:
                timeout = min(float(wait), MAX_WAIT)
            except ValueError:
                timeout = MAX_WAIT
            await self.scheduler.wait(job, timeout=timeout)
        await self._respond(conn, 200, job.to_dict())

    async def _stream_events(self, conn: _Connection, job) -> None:
        """NDJSON event stream: replay, then follow until terminal.

        The body is EOF-delimited (``Connection: close``); the final
        line is the job document itself, so a consumer that reads to
        EOF always ends holding the result.
        """
        conn.keep_alive = False
        writer = conn.writer
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            while sent < len(job.events):
                line = json.dumps(job.events[sent]) + "\n"
                writer.write(line.encode())
                sent += 1
            await writer.drain()
            if job.terminal:
                break
            if sent < len(job.events):
                continue  # events arrived while draining the socket
            await job.changed.wait()
        writer.write((json.dumps({"type": "job", **job.to_dict()})
                      + "\n").encode())
        await writer.drain()


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _close(writer: asyncio.StreamWriter) -> None:
    """Close a connection so that its client sees EOF now.

    Pool workers forked while the connection was open hold copies of its
    socket, and a plain close only drops this process's copy; a shutdown
    ends the connection itself.  It is skipped while a response is still
    queued, which the close then flushes.
    """
    if not writer.transport.get_write_buffer_size():
        try:
            writer.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
        except (AttributeError, OSError):
            pass  # already closed
    writer.close()


class ServerHandle:
    """A server running on a background thread (tests and benches)."""

    def __init__(self, app: ServeApp, thread: threading.Thread) -> None:
        self.app = app
        self.thread = thread

    @property
    def url(self) -> str:
        return f"http://{self.app.host}:{self.app.port}"

    def stop(self) -> None:
        self.app.stop()
        self.thread.join(timeout=30)


def start_in_thread(**kwargs) -> ServerHandle:
    """Run a :class:`ServeApp` on a daemon thread; returns once the
    listener is bound (so ``handle.url`` is immediately usable)."""
    app = ServeApp(**kwargs)
    ready = threading.Event()
    thread = threading.Thread(target=lambda: asyncio.run(app.run(ready)),
                              name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("serve app failed to start")
    return ServerHandle(app, thread)


async def serve(host: str, port: int, jobs: int, artifact_dir: str,
                max_cycles_cap: int | None = None, rate: float = 0.0,
                quiet: bool = False) -> None:
    """CLI entry: run one server in the foreground until signalled."""
    app = ServeApp(host=host, port=port, jobs=jobs,
                   artifact_dir=artifact_dir,
                   max_cycles_cap=max_cycles_cap, rate=rate)
    ready = threading.Event()
    task = asyncio.ensure_future(app.run(ready))
    while not ready.is_set():
        await asyncio.sleep(0.01)
    if not quiet:
        import sys

        print(f"repro serve listening on http://{app.host}:{app.port} "
              f"({app.scheduler.workers} workers, artifacts in "
              f"{artifact_dir})", file=sys.stderr)
    await task
