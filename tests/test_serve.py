"""Tests for the serve subsystem: wire format, the on-disk store, rate
limiter, scheduler behaviour over real HTTP, the 64-client load shape
from the acceptance criteria, and the concurrent cache-write stress."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import quote

import pytest

from repro.fuzz.oracles import fuzz_configs
from repro.serve import (
    BadRequest,
    JobFailed,
    RateLimiter,
    ServeClient,
    ServeError,
    TokenBucket,
    job_fingerprint,
    machine_from_payload,
    machine_to_payload,
    start_in_thread,
    validate_payload,
)
from repro.serve import app as serve_app
from repro.serve import workers as serve_workers
from repro.sim import paper_machine, unlimited_machine
from repro.store import Store

SUM_LOOP = """
    li r1, 0
    li r2, 0
loop:
    add r1, r1, r2
    add r2, r2, 1
    blt r2, 10 -> loop [taken]
    li r9, 2048
    store r1, 0(r9)
    halt
"""


# -- wire format ---------------------------------------------------------------

class TestWire:
    def test_machine_round_trip(self):
        for config in [paper_machine(), unlimited_machine(issue_width=1),
                       *fuzz_configs(True)]:
            assert machine_from_payload(machine_to_payload(config)) == config

    def test_empty_payload_is_default_machine(self):
        assert machine_from_payload(None) == paper_machine(
            issue_width=4, int_core=64, fp_core=64)

    def test_bad_machine_fields_rejected(self):
        with pytest.raises(BadRequest):
            machine_from_payload({"bogus": 1})
        with pytest.raises(BadRequest):
            machine_from_payload({"latency": {"bogus": 1}})
        with pytest.raises(BadRequest):
            machine_from_payload({"model": 99})
        with pytest.raises(BadRequest):
            machine_from_payload({"int": {"core": 0}})

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(BadRequest):
            validate_payload("bogus", {})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {})  # neither asm nor benchmark
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"asm": "halt", "benchmark": "cmp"})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"benchmark": "nope"})
        for engine in ("turbo", "batched"):
            with pytest.raises(BadRequest,
                               match=r"expected fast\|reference$"):
                validate_payload("simulate", {"benchmark": "cmp",
                                              "engine": engine})
        with pytest.raises(BadRequest):
            validate_payload("sweep", {"figure": "nope"})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"benchmark": "cmp",
                                          "max_cycles": 0})

    def test_fingerprint_sensitivity(self):
        base = validate_payload("simulate", {"benchmark": "cmp"})
        key = job_fingerprint("simulate", base)
        assert key == job_fingerprint("simulate", dict(base))
        # Every knob that changes the computation changes the key.
        for variant in [
            {**base, "max_cycles": 100},
            {**base, "engine": "reference"},
            {**base, "scale": 2},
            {**base, "benchmark": "grep"},
            {**base, "machine": {"issue": 1}},
            {**base, "options": {"opt": "scalar"}},
        ]:
            assert job_fingerprint("simulate", variant) != key
        assert job_fingerprint("compile", base) != key


# -- artifact store ------------------------------------------------------------

class TestArtifactStore:
    """The :class:`repro.store.Store` serve keeps artifacts in (and the
    experiment runner keeps run records in)."""

    def test_round_trip_and_counters(self, tmp_path):
        store = Store(tmp_path)
        assert store.get("ab" * 16) is None
        store.put("ab" * 16, {"cycles": 1})
        assert store.get("ab" * 16) == {"cycles": 1}
        assert store.counters() == {"hits": 1, "misses": 1, "puts": 1}

    def test_corrupt_artifact_evicted(self, tmp_path):
        store = Store(tmp_path)
        store.put("cd" * 16, {"ok": True})
        path = store._path("cd" * 16)
        path.write_text("{truncated")
        assert store.get("cd" * 16) is None
        assert not path.exists()

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Satellite: two processes storing the same fingerprint must not
        corrupt the store — readers always see one complete document."""
        key = "ef" * 16
        procs = [multiprocessing.Process(target=_hammer_store,
                                         args=(str(tmp_path), key, pid))
                 for pid in range(2)]
        for p in procs:
            p.start()
        store = Store(tmp_path)
        deadline = time.monotonic() + 30
        reads = 0
        while any(p.is_alive() for p in procs):
            assert time.monotonic() < deadline, "writers stuck"
            artifact = store.get(key)
            if artifact is not None:
                # Complete document from one writer or the other.
                assert artifact["payload"] == "x" * 4096
                assert artifact["writer"] in (0, 1)
                reads += 1
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert reads > 0
        final = store.get(key)
        assert final["payload"] == "x" * 4096

    def test_concurrent_runner_caches_share_one_dir(self, tmp_path):
        """Two processes compiling the same fingerprint into one record
        cache (one :class:`Store` under the runner) both succeed and
        agree."""
        queue = multiprocessing.Queue()
        procs = [multiprocessing.Process(target=_runner_job,
                                         args=(str(tmp_path), queue))
                 for _ in range(2)]
        for p in procs:
            p.start()
        cycles = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert cycles[0] == cycles[1]
        # The shared record is loadable afterwards (not torn).
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(scale=1, cache_dir=tmp_path)
        record = runner.cached("cmp", paper_machine())
        assert record is not None and record.cycles == cycles[0]


def _hammer_store(root: str, key: str, writer: int) -> None:
    store = Store(root)
    for _ in range(200):
        store.put(key, {"writer": writer, "payload": "x" * 4096})


def _runner_job(cache_dir: str, queue) -> None:
    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(scale=1, cache_dir=cache_dir)
    record = runner.run("cmp", paper_machine())
    queue.put(record.cycles)


# -- rate limiter --------------------------------------------------------------

class TestRateLimiter:
    def test_bucket_refills(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.take(0.0) and bucket.take(0.0)
        assert not bucket.take(0.0)
        assert bucket.take(1.0)  # one second -> one token back

    def test_per_client_buckets(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")  # independent bucket
        clock[0] = 2.0
        assert limiter.allow("a")
        assert limiter.rejected == 1

    def test_disabled_by_default(self):
        limiter = RateLimiter()
        assert all(limiter.allow("a") for _ in range(1000))


# -- the service over real HTTP ------------------------------------------------

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(
        jobs=2, artifact_dir=str(tmp_path_factory.mktemp("artifacts")),
        max_cycles_cap=5_000_000)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, client_id="pytest")


class TestService:
    def test_health_and_stats(self, client):
        assert client.healthy()
        stats = client.stats()
        assert stats["workers"] == 2 and not stats["draining"]

    def test_simulate_meta_reports_engine(self, client):
        job = client.wait(client.submit(
            "simulate", {"asm": SUM_LOOP, "machine": {"issue": 8}}))
        # Halts inside the reference segment: no code generated.
        assert job["meta"]["engine"] == "reference"
        assert "handoff_cycle" not in job["meta"]
        job = client.wait(client.submit(
            "simulate", {"benchmark": "cmp", "machine": {"issue": 8}}))
        assert job["meta"]["engine"] == "fast"

    def test_submit_each_kind(self, client):
        result = client.run("simulate", {"asm": SUM_LOOP, "dump": [2048]})
        assert result["memory"]["2048"] == 45
        result = client.run("simulate", {"benchmark": "cmp"})
        assert result["record"]["cycles"] > 0
        assert result["record"]["checksum_ok"]
        result = client.run("compile", {"benchmark": "cmp"})
        assert result["static"]["total"] > 0
        result = client.run("check", {"asm": SUM_LOOP})
        assert result["clean"]
        result = client.run("trace", {"benchmark": "cmp",
                                      "format": "jsonl", "limit": 100})
        assert len(result["content"].splitlines()) == 100
        result = client.run("sweep", {"figure": "figure10",
                                      "benchmarks": ["cmp"]})
        assert result["figure"] == "Figure 10" and result["rows"]

    def test_artifact_hit_on_resubmission(self, client):
        payload = {"asm": SUM_LOOP, "machine": {"issue": 2}}
        first = client.wait(client.submit("simulate", payload))
        again = client.submit("simulate", payload)
        assert again["status"] == "done" and again["from_cache"]
        assert again["artifact"] == first["artifact"]
        assert client.artifact(first["artifact"])["cycles"] \
            == first["result"]["cycles"]

    def test_bad_requests_are_400(self, client):
        for kind, payload in [("bogus", {}), ("simulate", {}),
                              ("simulate", {"benchmark": "nope"}),
                              ("sweep", {"figure": "nope"})]:
            with pytest.raises(ServeError) as err:
                client.submit(kind, payload)
            assert err.value.status == 400

    def test_unknown_routes_and_ids(self, client):
        with pytest.raises(ServeError) as err:
            client.get("doesnotexist")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.artifact("doesnotexist")
        assert err.value.status == 404

    def test_asm_parse_error_is_structured(self, client):
        with pytest.raises(JobFailed) as err:
            client.run("simulate", {"asm": "frobnicate r1, r2\nhalt\n"})
        assert err.value.error_type == "compile-error"

    def test_budget_exceeded_while_others_finish(self, client):
        """Acceptance: a budget-exceeded job comes back as a structured
        error while other in-flight jobs run to completion."""
        jobs = [client.submit("simulate", {"benchmark": "compress"}),
                client.submit("simulate", {"benchmark": "cmp",
                                           "max_cycles": 50}),
                client.submit("simulate", {"asm": SUM_LOOP})]
        done = [client.wait(j) for j in jobs]
        assert done[0]["status"] == "done"
        assert done[2]["status"] == "done"
        assert done[1]["status"] == "error"
        assert done[1]["error"]["type"] == "budget-exceeded"
        assert "exceeded 50 cycles" in done[1]["error"]["message"]

    def test_budget_cap_clamps_requests(self, client):
        """A request above the server's --max-cycles-cap is clamped, so
        a run needing more cycles than the cap fails structurally."""
        with pytest.raises(JobFailed) as err:
            client.run("simulate",
                       {"asm": "loop:\n    jmp -> loop [taken]\n    halt\n",
                        "max_cycles": 10_000_000_000})
        assert err.value.error_type == "budget-exceeded"
        assert "exceeded 5000000 cycles" in str(err.value)

    def test_coalescing_identical_inflight(self, client):
        payload = {"benchmark": "eqn",
                   "machine": {"issue": 2, "max_cycles": 4_999_999}}
        first = client.submit("simulate", payload)
        second = client.submit("simulate", payload)
        d1, d2 = client.wait(first), client.wait(second)
        assert d1["status"] == d2["status"] == "done"
        if not first["from_cache"]:
            assert d2.get("coalesced_with") == first["id"] \
                or d2["from_cache"]
        assert d1["result"]["record"]["cycles"] \
            == d2["result"]["record"]["cycles"]

    def test_event_stream_ndjson(self, client):
        job = client.submit("simulate", {"benchmark": "grep",
                                         "observe": True})
        events = list(client.events(job["id"]))
        types = [e.get("type") for e in events]
        assert "started" in types and "finished" in types
        assert any(e.get("stream") == "observe" for e in events)
        assert events[-1]["type"] == "job"
        assert events[-1]["status"] == "done"

    def test_sweep_progress_events(self, client):
        job = client.submit("sweep", {"figure": "figure7",
                                      "benchmarks": ["cmp"]})
        events = list(client.events(job["id"]))
        progress = [e for e in events if e.get("stream") == "sweep"]
        assert progress and progress[-1]["done"] == len(progress)

    def test_long_poll_wait(self, client):
        job = client.submit("simulate", {"benchmark": "lex"})
        done = client.get(job["id"], wait=120)
        assert done["status"] in ("done", "error")
        assert done["status"] == "done"

    def test_mixed_load_64_clients_zero_failures(self, client, server):
        """Acceptance: 64 concurrent clients submitting a mixed workload
        complete with zero failed jobs."""
        benchmarks = ("cmp", "grep", "compress", "lex")

        def one_client(index: int) -> list:
            c = ServeClient(server.url, client_id=f"load-{index}")
            jobs = []
            jobs.append(c.submit("simulate",
                                 {"benchmark": benchmarks[index % 4]}))
            jobs.append(c.submit("simulate",
                                 {"asm": SUM_LOOP,
                                  "machine": {"issue": 1 << (index % 3)}}))
            jobs.append(c.submit("check", {"asm": SUM_LOOP}))
            return [c.wait(j, timeout=300) for j in jobs]

        with ThreadPoolExecutor(max_workers=64) as pool:
            outcomes = [job for jobs in pool.map(one_client, range(64))
                        for job in jobs]
        assert len(outcomes) == 64 * 3
        failed = [j for j in outcomes if j["status"] != "done"]
        assert failed == []
        stats = client.stats()
        # The mixed load must exercise the sharing machinery: identical
        # submissions either hit the artifact store or coalesce.
        assert stats["jobs"]["artifact_hits"] \
            + stats["jobs"]["coalesced"] > 100

    def test_stats_aggregate_worker_counters(self, client):
        stats = client.stats()
        cache = stats["runner_cache"]
        assert cache.get("cache_misses", 0) > 0
        assert cache.get("compile_misses", 0) > 0


class TestServiceLifecycle:
    def test_rate_limited_submission(self, tmp_path):
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path),
                                 rate=0.001, burst=1.0)
        try:
            c = ServeClient(handle.url, client_id="throttled")
            c.submit("simulate", {"asm": SUM_LOOP})
            with pytest.raises(ServeError) as err:
                c.submit("simulate", {"asm": SUM_LOOP,
                                      "machine": {"issue": 1}})
            assert err.value.status == 429
            # An independent client is not throttled.
            other = ServeClient(handle.url, client_id="fresh")
            other.submit("check", {"asm": SUM_LOOP})
        finally:
            handle.stop()

    def test_artifact_keys_cannot_leave_the_store(self, tmp_path):
        """A percent-encoded absolute path is not a key: the artifact
        endpoint neither serves a JSON file outside the store nor evicts
        an unreadable one."""
        secret = tmp_path / "secret.json"
        secret.write_text('{"secret": true}')
        victim = tmp_path / "victim.json"
        victim.write_text("not json")
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path / "art"))
        try:
            c = ServeClient(handle.url)
            for path in (secret, victim):
                with pytest.raises(ServeError) as err:
                    c.artifact(quote(str(path.with_suffix("")), safe=""))
                assert err.value.status == 404
        finally:
            handle.stop()
        assert secret.exists() and victim.exists()

    def test_graceful_stop_finishes_inflight(self, tmp_path):
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path))
        c = ServeClient(handle.url)
        job = c.submit("simulate", {"benchmark": "cmp"})
        done = {}

        def finish():
            # One long-poll connection, established before the stop:
            # drain must complete the job and flush this response.
            done.update(c.get(job["id"], wait=120))

        waiter = threading.Thread(target=finish)
        waiter.start()
        time.sleep(0.3)  # let the long-poll connection establish
        handle.stop()
        waiter.join(timeout=120)
        assert done.get("status") == "done"
        assert not c.healthy()


@pytest.fixture()
def own_server(tmp_path):
    """A server of its own, for tests that damage its worker pool."""
    handle = start_in_thread(jobs=2, artifact_dir=str(tmp_path))
    yield handle
    handle.stop()


class TestWorkerLoss:
    def test_dead_worker_does_not_wedge_the_service(self, own_server):
        c = ServeClient(own_server.url)
        job = c.wait(c.submit("simulate", {"benchmark": "cmp"}))
        assert job["status"] == "done"
        pool = own_server.app.scheduler._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool._broken
        # Not an artifact hit: this job must reach a live worker.
        job = c.wait(c.submit("simulate", {"benchmark": "cmp",
                                           "machine": {"issue": 2}}))
        assert job["status"] == "done", job.get("error")

    def test_job_handed_to_a_dying_pool_still_runs(self, own_server):
        c = ServeClient(own_server.url)
        job = c.wait(c.submit("simulate", {"benchmark": "cmp"}))
        assert job["status"] == "done"
        # Kill every worker, so that none is left to start the job in the
        # dying pool, and submit at once, before the executor marks the
        # pool broken: the pool takes the job and fails it unstarted.
        for pid in list(own_server.app.scheduler._pool._processes):
            os.kill(pid, signal.SIGKILL)
        job = c.wait(c.submit("simulate", {"benchmark": "cmp",
                                           "machine": {"issue": 2}}))
        assert job["status"] == "done", job.get("error")

    def test_job_on_the_surviving_worker_is_rerun(self, own_server,
                                                  tmp_path, monkeypatch):
        # The job parks in its worker until released, so the pool's other
        # worker can be killed while it runs: the whole pool breaks under
        # a job whose own worker was healthy.
        park = tmp_path / "park"
        park.mkdir()
        monkeypatch.setitem(_PARK, "dir", str(park))
        # Pool workers fork from this process at the first submit, so
        # they inherit the patched job table.
        monkeypatch.setitem(serve_workers._KINDS, "simulate",
                            _park_then_simulate)
        scheduler = own_server.app.scheduler
        c = ServeClient(own_server.url)
        warm = c.wait(c.submit("compile", {"asm": "halt\n"}))
        assert warm["status"] == "done"
        pool = scheduler._pool
        assert len(pool._processes) == 2
        job = c.submit("simulate", {"benchmark": "cmp"})
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not (
                list(park.iterdir())
                and c.get(job["id"])["status"] == "running"):
            time.sleep(0.02)
        (runner,) = [int(f.name) for f in park.iterdir()]
        assert c.get(job["id"])["status"] == "running"
        os.kill(next(pid for pid in pool._processes if pid != runner),
                signal.SIGKILL)
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pool._broken
        (park / "go").touch()
        job = c.wait(job)
        assert job["status"] == "done", job.get("error")
        ran_on = {f.name for f in park.iterdir()} - {"go"}
        assert len(ran_on) == 2 and str(runner) in ran_on

    def test_job_that_kills_its_worker_twice_ends_crashed(self, own_server,
                                                          monkeypatch):
        monkeypatch.setitem(serve_workers._KINDS, "simulate",
                            _kill_own_worker)
        scheduler = own_server.app.scheduler
        dispatched = []
        dispatch = scheduler._dispatch

        def counting_dispatch(job):
            dispatched.append(job.id)
            return dispatch(job)

        monkeypatch.setattr(scheduler, "_dispatch", counting_dispatch)
        c = ServeClient(own_server.url)
        warm = c.wait(c.submit("compile", {"asm": "halt\n"}))
        assert warm["status"] == "done"
        job = c.wait(c.submit("simulate", {"benchmark": "cmp"}))
        assert job["status"] == "error"
        assert job["error"]["type"] == "worker-crashed"
        assert dispatched == [warm["id"], job["id"], job["id"]]


def _kill_own_worker(job_id: str, payload: dict) -> dict:
    os.kill(os.getpid(), signal.SIGKILL)


#: Where :func:`_park_then_simulate` parks (set before the pool forks).
_PARK: dict[str, str] = {}
_SIMULATE = serve_workers._KINDS["simulate"]


def _park_then_simulate(job_id: str, payload: dict) -> dict:
    """Simulate once the file ``go`` exists, leaving a file named after
    this worker's pid while parked."""
    park = _PARK["dir"]
    open(os.path.join(park, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 60
    while (not os.path.exists(os.path.join(park, "go"))
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return _SIMULATE(job_id, payload)


def _raw_exchange(url: str, request: bytes) -> bytes:
    """Send *request* bytes on a fresh socket and read until the server
    closes the connection (a reset counts as closing it)."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    chunks = []
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, server):
        with ServeClient(server.url, client_id="keepalive") as c:
            assert c.healthy()
            before = dict(server.app.counters)
            for k in range(5):
                assert c.healthy()
                c.run("simulate", {"asm": SUM_LOOP, "machine": {"issue": 1},
                                   "max_cycles": 10_000 + k})
            after = dict(server.app.counters)
        # Each job is a submit plus at least one wait.
        assert after["requests"] - before["requests"] >= 15
        assert after["connections"] == before["connections"]

    def test_connection_close_is_honoured(self, server):
        reply = _raw_exchange(server.url, b"GET /healthz HTTP/1.1\r\n"
                                          b"Connection: close\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}

    def test_oversized_body_closes_unparsed(self, server):
        before = server.app.counters["requests"]
        smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
        reply = _raw_exchange(
            server.url,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (serve_app.MAX_BODY + 1) + smuggled)
        assert reply.startswith(b"HTTP/1.1 413")
        assert reply.count(b"HTTP/1.1") == 1
        assert b"Connection: close" in reply
        assert server.app.counters["requests"] - before == 1

    def test_header_flood_closes_unparsed(self, server):
        before = server.app.counters["requests"]
        flood = b"".join(b"X-Pad-%d: 1\r\n" % k
                         for k in range(serve_app.MAX_HEADERS + 1))
        reply = _raw_exchange(server.url, b"GET /healthz HTTP/1.1\r\n" + flood
                              + b"\r\nGET /healthz HTTP/1.1\r\n\r\n")
        assert reply == b""
        assert server.app.counters["requests"] == before

    def test_event_stream_ends_at_eof(self, server, client):
        job = client.wait(client.submit("check", {"asm": SUM_LOOP + "\n"}))
        reply = _raw_exchange(server.url, f"GET /v1/jobs/{job['id']}?events=1"
                                          f" HTTP/1.1\r\n\r\n".encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        last = json.loads(body.splitlines()[-1])
        assert last["type"] == "job" and last["id"] == job["id"]
        # The client's own keep-alive connection is untouched.
        assert client.healthy()

    def test_reconnects_once_after_idle_close(self, own_server, monkeypatch):
        monkeypatch.setattr(serve_app, "IDLE_TIMEOUT", 0.2)
        c = ServeClient(own_server.url, timeout=10)
        # The pool forks its workers during this job, while the client's
        # connection is open, so they hold copies of its socket.
        assert c.run("simulate", {"asm": SUM_LOOP})["cycles"] > 0
        time.sleep(0.6)
        opened = own_server.app.counters["connections"]
        started = time.monotonic()
        assert c.healthy()
        assert time.monotonic() - started < 2
        assert own_server.app.counters["connections"] == opened + 1
        c.close()

    def test_stop_is_prompt_with_idle_clients(self, tmp_path):
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path))
        clients = [ServeClient(handle.url) for _ in range(2)]
        for c in clients:
            c.run("check", {"asm": SUM_LOOP})
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 2
        assert not handle.thread.is_alive()
        assert not clients[0].healthy()


class TestEventChannel:
    def test_event_at_the_bound_is_sent_whole(self, monkeypatch):
        reader, writer = multiprocessing.Pipe(duplex=False)
        monkeypatch.setattr(serve_workers, "_EVENTS", writer)
        monkeypatch.setattr(serve_workers, "_DROPPED", 0)
        overhead = len(pickle.dumps({"pad": "x" * 300},
                                    pickle.HIGHEST_PROTOCOL)) - 300
        fits = serve_workers.MAX_EVENT_BYTES - overhead
        serve_workers._put({"pad": "x" * fits})
        assert reader.poll(5)
        assert pickle.loads(reader.recv_bytes()) == {"pad": "x" * fits}
        serve_workers._put({"pad": "x" * (fits + 1)})
        assert serve_workers._DROPPED == 1
        assert not reader.poll(0.1)
        reader.close()
        writer.close()

    def test_oversized_event_dropped_and_counted(self, own_server,
                                                 monkeypatch):
        monkeypatch.setitem(serve_workers._KINDS, "simulate",
                            _big_event_then_simulate)
        c = ServeClient(own_server.url)
        job = c.wait(c.submit("simulate", {"asm": SUM_LOOP}))
        assert job["status"] == "done"
        assert job["meta"]["events_dropped"] == 1
        events = list(c.events(job["id"]))
        types = [e.get("type") for e in events]
        assert "after-big" in types and "big" not in types
        assert c.stats()["events_dropped"] == 1

    def test_worker_killed_while_writing(self, own_server, tmp_path,
                                         monkeypatch):
        """A worker SIGKILLed while it floods the event pipe leaves the
        channel whole: its retried job and later jobs record their
        lifecycle, and their event streams end."""
        park = tmp_path / "park"
        park.mkdir()
        monkeypatch.setitem(_PARK, "dir", str(park))
        monkeypatch.setitem(serve_workers._KINDS, "simulate",
                            _flood_then_simulate)
        c = ServeClient(own_server.url)
        warm = c.wait(c.submit("compile", {"asm": "halt\n"}))
        assert warm["status"] == "done"
        job = c.submit("simulate", {"asm": SUM_LOOP})
        deadline = time.monotonic() + 30
        while not list(park.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.02)
        (flooder,) = [int(f.name) for f in park.iterdir()]
        time.sleep(0.1)  # mid-flood
        os.kill(flooder, signal.SIGKILL)
        (park / "go").touch()
        job = c.wait(job, timeout=60)
        assert job["status"] == "done", job.get("error")
        for k in range(4):
            later = c.submit("check", {"asm": SUM_LOOP + f"; later {k}\n"})
            events = list(c.events(later["id"]))
            lifecycle = [e["type"] for e in events
                         if e.get("stream") == "lifecycle"]
            assert lifecycle == ["started", "finished"]
            assert events[-1]["type"] == "job"
            assert events[-1]["status"] == "done"

    def test_phases_in_meta_and_stats(self, client):
        job = client.wait(client.submit(
            "simulate", {"asm": SUM_LOOP, "machine": {"issue": 1},
                         "max_cycles": 9_999}))
        phases = job["meta"]["phases"]
        assert list(phases) == ["queue", "worker", "return", "finalize"]
        assert all(value >= 0 for value in phases.values())
        assert phases["worker"] == round(job["meta"]["elapsed"], 6)
        assert "t_start" not in job["meta"]
        stats = client.stats()["phases"]
        assert set(stats) == set(phases)
        assert stats["queue"]["jobs"] >= 1
        assert stats["worker"]["p50_ms"] <= stats["worker"]["p99_ms"]


def _big_event_then_simulate(job_id: str, payload: dict) -> dict:
    serve_workers._put({"job": job_id, "stream": "observe", "type": "big",
                        "pad": "x" * serve_workers.MAX_EVENT_BYTES})
    serve_workers._put({"job": job_id, "stream": "observe",
                        "type": "after-big"})
    return _SIMULATE(job_id, payload)


def _flood_then_simulate(job_id: str, payload: dict) -> dict:
    """Send events without pause until the file ``go`` exists, leaving a
    file named after this worker's pid while flooding."""
    park = _PARK["dir"]
    open(os.path.join(park, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 60
    n = 0
    while (not os.path.exists(os.path.join(park, "go"))
           and time.monotonic() < deadline):
        n += 1
        serve_workers._put({"job": job_id, "stream": "observe",
                            "type": "flood", "n": n, "pad": "x" * 2000})
    return _SIMULATE(job_id, payload)


class TestServeReplay:
    def test_fuzz_replay_smoke(self, server):
        """Satellite: the fuzz --serve path, at the CI smoke budget."""
        from repro.fuzz.serve_replay import run_serve_replay

        report = run_serve_replay(server.url, budget=2, seed=0)
        assert report.clean, [d.to_dict() for d in report.divergences]
        assert report.seeds == 2
        assert report.jobs > 0
        payload = report.to_dict()
        json.dumps(payload)  # report must be JSON-serializable
        assert payload["clean"]


class TestCycleBudgetPlumbing:
    def test_machine_config_budget_flows_to_both_engines(self):
        from repro.errors import CycleBudgetError
        from repro.isa.asmparse import parse_program
        from repro.sim import simulate

        program = parse_program("loop:\n    jmp -> loop [taken]\n"
                                "    halt\n")
        config = dataclasses.replace(paper_machine(), max_cycles=75)
        messages = set()
        for engine in ("fast", "reference"):
            with pytest.raises(CycleBudgetError) as err:
                simulate(program, config, engine=engine)
            messages.add(str(err.value))
        assert len(messages) == 1  # identical message from both engines
        assert "exceeded 75 cycles" in messages.pop()
