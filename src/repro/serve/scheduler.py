"""Async job scheduler for the serve subsystem.

The scheduler owns the worker pool and everything around it:

* **admission** — payload validation, per-client token-bucket rate
  limiting, and the server-side cycle-budget cap (a submission may ask
  for any ``max_cycles`` up to the cap; the effective budget is clamped
  before the job is queued, and a run that exceeds it comes back as a
  structured ``budget-exceeded`` error without disturbing other jobs);
* **the artifact fast path** — a submission whose
  :func:`~repro.serve.wire.job_fingerprint` is already in the artifact
  :class:`~repro.store.Store` completes instantly, without touching the pool;
* **in-flight coalescing** — concurrent identical submissions attach to
  the one running computation and all complete when it does;
* **progress fan-in** — a drain thread moves worker events (lifecycle
  markers, sampled simulator events, sweep progress) from the manager
  queue onto the event loop, appending them to per-job event logs that
  the HTTP layer streams as NDJSON;
* **graceful drain** — stop admitting, let in-flight jobs finish,
  shut the pool down.

Everything here runs on the event-loop thread except the drain thread,
which only ever hands events over via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serve.ratelimit import RateLimiter
from repro.serve.wire import job_fingerprint, validate_payload
from repro.serve.workers import execute_job, init_worker
from repro.store import Store

#: Finished jobs kept for status queries before eviction.
JOB_HISTORY_CAP = 4096
#: Per-job event log cap (the worker-side EventForwarder limit is lower;
#: this is a second line of defence for lifecycle/sweep streams).
EVENT_LOG_CAP = 16_384

_QUEUE_SENTINEL = None


class RateLimited(ReproError):
    """The client's token bucket is empty (HTTP 429)."""


class ServerDraining(ReproError):
    """The server is shutting down and admits no new jobs (HTTP 503)."""


@dataclass
class Job:
    """One submitted job and its full lifecycle."""

    id: str
    kind: str
    payload: dict
    key: str
    client: str
    status: str = "queued"          # queued | running | done | error
    result: dict | None = None
    error: dict | None = None
    from_cache: bool = False
    coalesced_with: str | None = None
    created: float = 0.0
    finished: float | None = None
    meta: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    followers: list = field(default_factory=list)
    changed: asyncio.Event = field(default_factory=asyncio.Event)
    #: Set when the worker's terminal lifecycle event has drained through
    #: the progress queue — finalization waits for it so event streams
    #: always carry the complete log before the job turns terminal.
    worker_done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "error")

    def to_dict(self, with_result: bool = True) -> dict:
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "artifact": self.key,
            "from_cache": self.from_cache,
            "created": self.created,
            "finished": self.finished,
            "events": len(self.events),
        }
        if self.coalesced_with:
            out["coalesced_with"] = self.coalesced_with
        if self.meta:
            out["meta"] = {k: v for k, v in self.meta.items()
                           if k != "counters"}
        if self.error is not None:
            out["error"] = self.error
        if with_result and self.result is not None:
            out["result"] = self.result
        return out

    def _touch(self) -> None:
        self.changed.set()
        self.changed = asyncio.Event()


class Scheduler:
    """Owns the worker pool, artifact store, and job registry."""

    def __init__(self, jobs: int, artifact_dir: str,
                 max_cycles_cap: int | None = None,
                 rate: float = 0.0, burst: float | None = None) -> None:
        self.workers = max(1, jobs)
        self.artifact_dir = artifact_dir
        self.max_cycles_cap = max_cycles_cap
        self.store = Store(artifact_dir)
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.jobs: dict[str, Job] = {}
        self.counters = {"submitted": 0, "completed": 0, "failed": 0,
                         "coalesced": 0, "artifact_hits": 0}
        self.runner_counters: dict[str, int] = {}
        self.draining = False
        self.started_at = time.time()
        self._inflight: dict[str, Job] = {}
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._manager = None
        self._queue = None
        self._drain_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bring up the manager queue, worker pool, and drain thread.

        Must be called from within the event loop that will own the
        scheduler (the HTTP server's loop).
        """
        self._loop = asyncio.get_running_loop()
        self._manager = multiprocessing.Manager()
        self._queue = self._manager.Queue()
        self._pool = self._new_pool()
        self._drain_thread = threading.Thread(
            target=self._drain_events, name="serve-event-drain", daemon=True)
        self._drain_thread.start()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=init_worker,
            initargs=(self._queue, self.artifact_dir))

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight jobs, tear everything down."""
        self.draining = True
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._queue is not None:
            try:
                self._queue.put(_QUEUE_SENTINEL)
            except Exception:  # noqa: BLE001 - manager already gone
                pass
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=5)
        if self._manager is not None:
            self._manager.shutdown()

    # -- event fan-in ----------------------------------------------------------

    def _drain_events(self) -> None:
        """Drain-thread body: manager queue -> event loop."""
        while True:
            try:
                event = self._queue.get()
            except (EOFError, OSError):
                return
            if event is _QUEUE_SENTINEL:
                return
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            try:
                loop.call_soon_threadsafe(self._record_event, event)
            except RuntimeError:
                return  # loop shut down between the check and the call

    def _record_event(self, event: dict) -> None:
        job = self.jobs.get(event.get("job", ""))
        if job is None:
            return
        if event.get("stream") == "lifecycle":
            if event.get("type") == "started" and job.status == "queued":
                job.status = "running"
            elif event.get("type") == "finished":
                job.worker_done.set()
        if len(job.events) < EVENT_LOG_CAP:
            job.events.append(event)
        job._touch()
        for follower in job.followers:
            if len(follower.events) < EVENT_LOG_CAP:
                follower.events.append(event)
            follower._touch()

    # -- admission -------------------------------------------------------------

    def submit(self, kind: str, payload: dict, client: str = "-") -> Job:
        """Admit one job; returns it (possibly already terminal).

        Raises :class:`~repro.serve.wire.BadRequest`,
        :class:`RateLimited`, or :class:`ServerDraining`.
        """
        if self.draining:
            raise ServerDraining("server is draining; no new jobs")
        payload = validate_payload(kind, payload)
        if not self.limiter.allow(client):
            raise RateLimited(f"client {client!r} exceeded the "
                              "submission rate limit")
        if self.max_cycles_cap is not None:
            requested = payload.get("max_cycles")
            payload["max_cycles"] = (min(requested, self.max_cycles_cap)
                                     if requested else self.max_cycles_cap)
        key = job_fingerprint(kind, payload)
        job = Job(id=uuid.uuid4().hex[:16], kind=kind, payload=payload,
                  key=key, client=client, created=time.time())
        self.counters["submitted"] += 1
        self._register(job)

        artifact = self.store.get(key)
        if artifact is not None:
            job.status = "done"
            job.result = artifact
            job.from_cache = True
            job.finished = time.time()
            self.counters["completed"] += 1
            self.counters["artifact_hits"] += 1
            return job

        primary = self._inflight.get(key)
        if primary is not None and not primary.terminal:
            job.coalesced_with = primary.id
            primary.followers.append(job)
            self.counters["coalesced"] += 1
            return job

        self._inflight[key] = job
        task = asyncio.ensure_future(self._await_job(job, self._dispatch(job)))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def _register(self, job: Job) -> None:
        self.jobs[job.id] = job
        while len(self.jobs) > JOB_HISTORY_CAP:
            for jid, old in list(self.jobs.items()):
                if old.terminal:
                    del self.jobs[jid]
                    break
            else:
                break  # everything in flight; let the registry grow

    def _dispatch(self, job: Job):
        """Hand *job* to the pool and return its future.  A pool found
        broken at submit time (a worker died and took it with it) is
        replaced first."""
        try:
            return self._pool.submit(execute_job, job.id, job.kind,
                                     job.payload)
        except BrokenProcessPool:
            self._pool.shutdown(wait=False)
            self._pool = self._new_pool()
            return self._pool.submit(execute_job, job.id, job.kind,
                                     job.payload)

    async def _await_job(self, job: Job, future) -> None:
        retried = False
        while True:
            try:
                status, body, meta = await asyncio.wrap_future(future)
                # The pool future can complete before the worker's queued
                # events have drained; wait for the terminal lifecycle
                # marker so the event log is complete at finalization.
                try:
                    await asyncio.wait_for(job.worker_done.wait(), timeout=5)
                except asyncio.TimeoutError:
                    pass  # queue lost during shutdown; finalize anyway
            except Exception as exc:  # noqa: BLE001 - pool broke underneath
                # A broken pool fails every job it held: one handed to it
                # as it died, and one a healthy worker was running when
                # another worker died.  Results are deterministic and
                # content-addressed, so run the job once more, started or
                # not.  A job whose rerun breaks the pool again most likely
                # kills its own worker: it ends ``worker-crashed``.
                broken = isinstance(exc, BrokenProcessPool)
                if broken and not retried:
                    retried = True
                    # The lost run may have sent ``finished`` already.
                    job.worker_done.clear()
                    future = self._dispatch(job)
                    continue
                kind = "worker-crashed" if broken else "worker-lost"
                status, body, meta = "error", {"type": kind,
                                               "message": str(exc)}, {}
            break
        self._finalize(job, status, body, meta)

    def _finalize(self, job: Job, status: str, body: dict,
                  meta: dict) -> None:
        for name, value in meta.get("counters", {}).items():
            self.runner_counters[name] = \
                self.runner_counters.get(name, 0) + value
        if status == "ok":
            job.status = "done"
            job.result = body
            self.store.put(job.key, body)
            self.counters["completed"] += 1
        else:
            job.status = "error"
            job.error = body
            self.counters["failed"] += 1
        job.meta = meta
        job.finished = time.time()
        self._inflight.pop(job.key, None)
        job._touch()
        for follower in job.followers:
            follower.status = job.status
            follower.result = job.result
            follower.error = job.error
            follower.meta = meta
            follower.finished = job.finished
            if status == "ok":
                self.counters["completed"] += 1
            else:
                self.counters["failed"] += 1
            follower._touch()
        job.followers = []

    # -- queries ---------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    async def wait(self, job: Job, timeout: float | None = None) -> bool:
        """Block until *job* is terminal; False on timeout."""
        deadline = (time.monotonic() + timeout) if timeout else None
        while not job.terminal:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            try:
                await asyncio.wait_for(job.changed.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "draining": self.draining,
            "max_cycles_cap": self.max_cycles_cap,
            "jobs": dict(self.counters),
            "jobs_by_status": by_status,
            "inflight": len(self._inflight),
            "artifacts": self.store.counters(),
            "runner_cache": dict(self.runner_counters),
            "rate_limited": self.limiter.rejected,
        }
