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
* **progress fan-in** — worker events (lifecycle markers, sampled
  simulator events, sweep progress) arrive over one
  ``multiprocessing.Pipe`` whose read end the event loop watches
  (``loop.add_reader``); they are appended to per-job event logs that
  the HTTP layer streams as NDJSON.  Every event is one atomic pipe
  write (see :mod:`repro.serve.workers`), so a worker killed mid-job
  cannot tear or wedge the channel;
* **phase timing** — each computed job's ``meta["phases"]`` splits its
  time into queue (admission to worker start), worker, return (worker
  end to result and ``finished`` event on the loop) and finalize
  (artifact write); ``stats()`` reports p50/p99 per phase over the last
  :data:`PHASE_WINDOW` jobs;
* **graceful drain** — stop admitting, let in-flight jobs finish,
  shut the pool down.

Everything here runs on the event-loop thread.
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing
import pickle
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
#: Recent computed jobs the per-phase latency percentiles cover.
PHASE_WINDOW = 1024
#: The phases of ``meta["phases"]``, in the order a job passes them.
PHASES = ("queue", "worker", "return", "finalize")


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
    #: ``perf_counter`` at admission, the start of the queue phase.
    admitted: float = 0.0
    finished: float | None = None
    meta: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    followers: list = field(default_factory=list)
    changed: asyncio.Event = field(default_factory=asyncio.Event)
    #: Set when the worker's terminal lifecycle event has arrived through
    #: the event pipe — finalization waits for it so event streams
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
        self.events_dropped = 0
        self.phases = {name: collections.deque(maxlen=PHASE_WINDOW)
                       for name in PHASES}
        self.draining = False
        self.started_at = time.time()
        self._inflight: dict[str, Job] = {}
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._events = None      # the event pipe's read end (this process)
        self._events_out = None  # its write end, handed to every worker

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bring up the event pipe and the worker pool.

        Must be called from within the event loop that will own the
        scheduler (the HTTP server's loop).
        """
        self._loop = asyncio.get_running_loop()
        self._events, self._events_out = multiprocessing.Pipe(duplex=False)
        self._loop.add_reader(self._events.fileno(), self._read_event)
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=init_worker,
            initargs=(self._events_out, self.artifact_dir))

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight jobs, tear everything down."""
        self.draining = True
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._events is not None:
            self._loop.remove_reader(self._events.fileno())
            self._events.close()
            self._events_out.close()
            self._events = self._events_out = None

    # -- event fan-in ----------------------------------------------------------

    def _read_event(self) -> None:
        """Reader callback: one whole event off the pipe.  Each event
        was one atomic write, so a readable pipe holds all of it."""
        self._record_event(pickle.loads(self._events.recv_bytes()))

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
                  key=key, client=client, created=time.time(),
                  admitted=time.perf_counter())
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
                # The pool future can complete before the loop has read
                # the worker's events off the pipe; wait for the terminal
                # lifecycle marker so the event log is complete at
                # finalization.  It is usually in already, and wait_for
                # costs a task and loop turns.
                if not job.worker_done.is_set():
                    try:
                        await asyncio.wait_for(job.worker_done.wait(),
                                               timeout=5)
                    except asyncio.TimeoutError:
                        pass  # pipe closed during shutdown; finalize anyway
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
        seen = time.perf_counter()
        for name, value in meta.get("counters", {}).items():
            self.runner_counters[name] = \
                self.runner_counters.get(name, 0) + value
        self.events_dropped += meta.get("events_dropped", 0)
        if status == "ok":
            job.status = "done"
            job.result = body
            self.store.put(job.key, body)
            self.counters["completed"] += 1
        else:
            job.status = "error"
            job.error = body
            self.counters["failed"] += 1
        if "t_start" in meta:
            self._time_phases(job, meta, seen)
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

    def _time_phases(self, job: Job, meta: dict, seen: float) -> None:
        """Replace the worker's clock readings in *meta* with the job's
        phases, in seconds, and add them to the stats window."""
        start, end = meta.pop("t_start"), meta.pop("t_end")
        phases = {"queue": start - job.admitted, "worker": meta["elapsed"],
                  "return": seen - end,
                  "finalize": time.perf_counter() - seen}
        for name, value in phases.items():
            self.phases[name].append(value)
        meta["phases"] = {name: round(value, 6)
                          for name, value in phases.items()}

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
            "events_dropped": self.events_dropped,
            "phases": {name: _percentiles_ms(values)
                       for name, values in self.phases.items()},
        }


def _percentiles_ms(values) -> dict:
    """The p50 and p99 of *values* (seconds), in milliseconds."""
    ordered = sorted(values)
    if not ordered:
        return {"jobs": 0}
    last = len(ordered) - 1
    return {"jobs": len(ordered),
            "p50_ms": round(1e3 * ordered[last // 2], 3),
            "p99_ms": round(1e3 * ordered[(last * 99 + 50) // 100], 3)}
