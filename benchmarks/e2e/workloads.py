"""The four workloads of the end-to-end benchmark.

Every workload has the same shape:

* ``inputs(seed, seconds)`` draws the run's whole work from the seed.  Its
  size follows ``seconds`` (about that long at reference speed, see
  ``clock.py``) and nothing else, so two commits measured with the same
  settings do exactly the same work;
* ``setup`` builds what the measured phase needs and is timed;
* ``measure`` drives the system through its real top-level path over that
  work and checks every output; checks that need work of their own (local
  recomputation) it may return as a function, run after the system is
  shut down and its peak memory read;
* ``replay`` repeats the first operations in-process through the layers'
  public calls, one span per call, for the per-layer attribution.

The draws are balanced: each round covers every benchmark, and the
choices that set an operation's cost (register-file sizes and issue width
above all) follow fixed designs per benchmark.  The seed changes the
other choices, which input meets which benchmark and the order, but not
the run's total cost, which keeps the spread across seeds low.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import random
import re
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from clock import Sampler, SpeedClock
from layers import (
    checksum_matches,
    compile_traced,
    fast_simulator_traced,
    golden_checksum,
    simulate_traced,
)
from repro.analyze import check_program
from repro.compiler import CompileOptions, OptOptions
from repro.compiler.regalloc.allocator import AllocationOptions
from repro.errors import ReproError
from repro.experiments import ALL_FIGURES, ExperimentRunner, SweepExecutor
from repro.experiments.figures import SIZE_PAIRS
from repro.fuzz.corpus import program_to_text
from repro.fuzz.gen_asm import gen_machine_program
from repro.fuzz.oracles import fuzz_configs
from repro.isa import RClass
from repro.isa.asmparse import parse_program
from repro.observe import Observer
from repro.rc import RCModel
from repro.serve import ServeClient, machine_to_payload, start_in_thread
from repro.serve.wire import effective_config
# The serve workers' own mapping from exception to structured error type.
from repro.serve.workers import _classify as error_type
from repro.sim import FastSimulator, Simulator, paper_machine, simulate, simulate_gang
from repro.workloads import ALL_BENCHMARKS, workload

#: Load sizing: the benchmark host has 2 CPUs, so all load comes from this
#: one process with at most two workers and two client threads.
POOL_WORKERS = 2
SERVE_WORKERS = 2
CLIENT_THREADS = 2

#: Input scale of every compiled benchmark except in ``sim_long``.
SCALE = 1
#: Issue widths of ``repro run`` calls and serve benchmark jobs.
RUN_WIDTHS = (1, 2, 4, 8)


class Outcome:
    """What one measured or replayed run did, and what went wrong."""

    def __init__(self, clock: SpeedClock | None = None) -> None:
        self.clock = clock if clock is not None else SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: successful operations: (host seconds, interval start, end); the
        #: interval is the one whose host speed applies to the operation.
        self.ops: list[tuple[float, float, float]] = []
        #: host-time intervals the measured phase consists of.
        self.intervals: list[tuple[float, float]] = []
        #: simulated instructions retired by the measured operations.
        self.instructions = 0
        #: simulated results of the operations, for ``stats_digest``.
        self.digest_items: list = []
        self.extras: dict[str, float] = {}

    @property
    def elapsed(self) -> float:
        """Host seconds measured."""
        return sum(end - start for start, end in self.intervals)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def digest(self) -> str:
        text = json.dumps(self.digest_items, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _options(job) -> CompileOptions:
    """The compile options the experiment runner uses for a sweep job."""
    return CompileOptions(
        opt=OptOptions(level=job.opt_level, unroll_factor=job.unroll_factor),
        alloc=AllocationOptions(num_windows=job.num_windows),
    )


def _rc_class(benchmark: str) -> RClass:
    return RClass.INT if workload(benchmark).kind == "int" else RClass.FP


def _balanced(rng: random.Random, values, count: int) -> list:
    """*count* draws in which every value appears equally often (as near
    as *count* allows), in seeded order."""
    draws = list(values) * -(-count // len(values))
    rng.shuffle(draws)
    return draws[:count]


def _rotation(rng: random.Random, values, keys) -> dict:
    """Per key, a seeded starting offset into *values*: round ``r`` uses
    ``values[(offset + r) % len(values)]``, so every key meets every value
    once per ``len(values)`` rounds."""
    offsets = _balanced(rng, range(len(values)), len(keys))
    return dict(zip(keys, offsets))


def _stats_key(stats) -> list:
    return [stats.cycles, stats.instructions, stats.branches,
            stats.mispredicts, stats.zero_issue_cycles,
            stats.redirect_cycles, stats.mem_channel_stalls]


class Workload:
    name = ""
    #: all its work runs on the calling thread (no pool, no service).
    single_thread = False
    #: work units (rounds or blocks) per second of ``--seconds``.
    units_per_second = 1.0
    #: replayed operations per second of ``--seconds`` (and a floor).
    replay_rate = 1.0
    replay_min = 2

    def units(self, seconds: float) -> int:
        return max(1, round(seconds * self.units_per_second))

    def replay_count(self, seconds: float) -> int:
        return max(self.replay_min, int(seconds * self.replay_rate))

    def inputs(self, seed: int, seconds: float):
        raise NotImplementedError

    def setup(self, inputs, work: Path, tracer):
        return None

    def replay_setup(self, inputs, work: Path, tracer):
        """The set-up ``replay`` needs; by default the measured one."""
        return self.setup(inputs, work, tracer)

    def teardown(self, state) -> None:
        pass

    def measure(self, state, inputs, out: Outcome):
        raise NotImplementedError

    def replay_ops(self, inputs) -> list:
        raise NotImplementedError

    def replay(self, state, ops, tracer, out: Outcome) -> None:
        raise NotImplementedError


# -- figures ---------------------------------------------------------------------

def _figure_jobs(executor: SweepExecutor) -> list:
    """Every distinct sweep point of every figure, in figure order; a
    point any figure needs with CPI attribution is collected with it."""
    by_key: dict[str, object] = {}
    for fig_fn in ALL_FIGURES.values():
        for job in executor.collect_jobs(fig_fn):
            key = executor.runner.cache_key(job.benchmark, job.config,
                                            **job.kwargs())
            if key not in by_key or job.collect_cpi:
                by_key[key] = job
    return list(by_key.values())


def _figure_cost_rank(job) -> tuple:
    """Orders a benchmark's points by expected cost: CPI attribution runs
    the reference engine, and a smaller register file means more spill
    and connect work."""
    spec = job.config.spec_for(_rc_class(job.benchmark))
    return (not job.collect_cpi, spec.core, -job.config.issue_width)


#: All-hit passes over the cold sweep's points, each with a fresh runner.
WARM_PASSES = 5


class Figures(Workload):
    """Cold figure regeneration through the sweep executor's pool."""

    name = "figures"
    #: 25 points per (benchmark, RC) pool at 18 s: every pool whole.
    units_per_second = 1.4
    replay_rate = 3.0

    def inputs(self, seed, seconds):
        """Rounds of points, one with and one without RC per benchmark.

        A full-length run takes every point of every figure, in seeded
        order, as a figure regeneration does.  A shorter one orders each
        (benchmark, RC) pool by expected cost and cuts it into equal
        strata, one point drawn from each, so every run draws the same
        spread of cheap and costly points; the costliest point is always
        in, so the heaviest compile (and peak memory) is always measured."""
        runner = ExperimentRunner(scale=SCALE, cache_dir="unused",
                                  engine="fast")
        jobs = _figure_jobs(SweepExecutor(runner=runner, jobs=1))
        rng = random.Random(seed)
        pools: dict[tuple, list] = {}
        for job in jobs:
            pools.setdefault((job.benchmark, job.config.has_rc), []).append(job)
        count = self.units(seconds)
        picks = {}
        for key, pool in pools.items():
            rng.shuffle(pool)
            if count < len(pool):
                pool.sort(key=_figure_cost_rank)
                cuts = [k * len(pool) // count for k in range(count + 1)]
                pool = [pool[0]] + [pool[rng.randrange(lo, hi)]
                                    for lo, hi in zip(cuts[1:-1], cuts[2:])]
                rng.shuffle(pool)
            picks[key] = pool
        rounds = []
        for r in range(max(map(len, picks.values()))):
            order = list(ALL_BENCHMARKS)
            rng.shuffle(order)
            rounds.append([picks[(b, rc)][r] for b in order
                           for rc in (False, True)
                           if r < len(picks[(b, rc)])])
        return rounds

    def setup(self, inputs, work, tracer):
        cache = Path(tempfile.mkdtemp(prefix="figcache-", dir=work))
        runner = ExperimentRunner(scale=SCALE, cache_dir=cache, engine="fast")
        executor = SweepExecutor(runner=runner, jobs=POOL_WORKERS)
        # The executor's own first step: enumerate the figures' sweeps.
        _figure_jobs(executor)
        return executor

    def replay_setup(self, inputs, work, tracer):
        return None

    def teardown(self, state):
        if state is not None:
            shutil.rmtree(state.runner.cache_dir, ignore_errors=True)

    def measure(self, executor, rounds, out):
        """One sweep over every drawn point (one pool, as a figure
        regeneration runs), then warm passes that read every point back
        from disk through fresh runners."""
        runner = executor.runner
        jobs = [job for rnd in rounds for job in rnd]
        done_at = {}
        executor.progress = lambda _done, _total, res: done_at.setdefault(
            res.job, time.perf_counter())
        # The points run in pool workers; sample host speed beside them.
        with Sampler(out.clock):
            start = time.perf_counter()
            results = executor.run(jobs)
            end = time.perf_counter()
        out.intervals.append((start, end))
        records = {}
        for job, res in zip(jobs, results):
            out.attempted += 1
            rec = res.record
            if res.error is not None or rec is None or not rec.checksum_ok:
                out.fail(f"{job.benchmark} {job.config.describe()}: "
                         f"{res.error}")
                continue
            # The point's compute time in its pool worker, which ended when
            # the parent saw it complete.
            finished = done_at.get(job, end)
            out.ops.append((res.elapsed, finished - res.elapsed, finished))
            out.instructions += rec.instructions
            records[job] = rec
            out.digest_items.append(
                [job.benchmark, job.config.describe(), job.opt_level,
                 rec.cycles, rec.instructions, rec.total_static,
                 rec.spill_static, rec.connect_static, rec.dyn_connects,
                 rec.cpi])
        warm_s = 0.0
        warm_points = warm_hits = 0
        for _ in range(WARM_PASSES):
            fresh = ExperimentRunner(scale=SCALE, cache_dir=runner.cache_dir,
                                     engine="fast")
            begin = time.perf_counter()
            warm = [fresh.cached(j.benchmark, j.config, **j.kwargs())
                    for j in jobs]
            warm_s += time.perf_counter() - begin
            for job, rec in zip(jobs, warm):
                warm_points += 1
                warm_hits += rec is not None
                if job in records and rec != records[job]:
                    out.fail(f"{job.benchmark}: warm record differs")
        stats = executor.stats
        counters = runner.counters()
        compiles = counters["compile_hits"] + counters["compile_misses"]
        out.extras.update({
            "experiments.cache_read_s": warm_s,
            "experiments.cache_hit_ratio": warm_hits / max(1, warm_points),
            "experiments.pool_busy_ratio":
                stats.job_seconds / max(1e-9, stats.elapsed * stats.workers),
            "experiments.compile_hit_ratio":
                counters["compile_hits"] / max(1, compiles),
        })

    def replay_ops(self, rounds):
        return [job for rnd in rounds for job in rnd]

    def replay(self, state, ops, tracer, out):
        goldens = {}
        for i, job in enumerate(ops):
            with tracer.request(i):
                out.attempted += 1
                with tracer.span("workloads.build"):
                    module = workload(job.benchmark).module(SCALE)
                if job.benchmark not in goldens:
                    goldens[job.benchmark] = golden_checksum(tracer, module)
                compiled = compile_traced(tracer, module, job.config,
                                          _options(job))
                if job.collect_cpi:
                    with tracer.span("sim.reference"):
                        result = Simulator(compiled.program, job.config,
                                           observer=Observer(keep_events=False)
                                           ).run()
                    out.extras["sim.fallback_count"] = \
                        out.extras.get("sim.fallback_count", 0) + 1
                else:
                    result, _fast = simulate_traced(tracer, compiled.program,
                                                    job.config)
                    out.instructions += result.stats.instructions
                addr = module.global_addr("checksum")
                got = result.load_word(addr)
                if (got != compiled.interp.load_word(addr)
                        or not checksum_matches(got, goldens[job.benchmark])):
                    out.fail(f"{job.benchmark}: checksum {got!r}")


# -- run_cold ---------------------------------------------------------------------

_CYCLES_RE = re.compile(r"^cycles\s+(\d+)$", re.M)
_INSTRS_RE = re.compile(r"^instructions\s+(\d+)", re.M)
_VERIFY_RE = re.compile(
    r"^verification\s+checksum (\S+) vs interpreter (\S+): (\w+)$", re.M)


def _run_argv(op: dict) -> list[str]:
    argv = ["run", op["benchmark"], "--issue", str(op["issue"]),
            "--int-core", str(op["int_core"]), "--fp-core", str(op["fp_core"]),
            "--load", str(op["load"])]
    if op["rc"]:
        argv += ["--rc", "--model", str(op["model"])]
    return argv


def _run_config(op: dict):
    """The machine ``repro run`` builds from the same flags."""
    return paper_machine(
        issue_width=op["issue"], load_latency=op["load"],
        int_core=op["int_core"], fp_core=op["fp_core"],
        rc_class=_rc_class(op["benchmark"]) if op["rc"] else None,
        rc_model=RCModel(op["model"]))


class RunCold(Workload):
    """One-shot ``repro run`` calls: compile, generate code, simulate."""

    name = "run_cold"
    single_thread = True
    #: 9 rounds at 18 s: every (benchmark, RC) pair meets every
    #: register-file size once or twice.
    units_per_second = 0.5
    replay_rate = 2.0

    def inputs(self, seed, seconds):
        """Rounds of 24 calls, one with and one without RC per benchmark.

        The flags that set a call's cost, core sizes and issue width,
        follow one fixed design per (benchmark, RC) pair: in every 10
        rounds each size pair comes up twice, with two issue widths (a
        shorter run takes the first rounds of the design).  The
        seed draws which round gets which of them, ``--model`` and
        ``--load`` (each rotating through its values from a seeded
        offset) and the order of the calls.  Seeds thus change the
        inputs but not the run's cost: with seeded sizes and widths the
        90th-percentile latency spread 9% across seeds against 3.5%
        across repeats of one seed."""
        rng = random.Random(seed)
        count = self.units(seconds)
        keys = [(b, rc) for b in ALL_BENCHMARKS for rc in (False, True)]
        models = _rotation(rng, range(5), keys)
        loads = _rotation(rng, range(2), keys)
        designs = {}
        for q, key in enumerate(keys):
            design = []
            for r in range(count):
                size = (q + r) % len(SIZE_PAIRS)
                width = (q + size + 2 * (r // len(SIZE_PAIRS))) % 4
                design.append((SIZE_PAIRS[size], RUN_WIDTHS[width]))
            rng.shuffle(design)
            designs[key] = design
        rounds = []
        for r in range(count):
            order = list(keys)
            rng.shuffle(order)
            rounds.append([
                {"benchmark": b, "rc": rc, "issue": designs[b, rc][r][1],
                 "int_core": designs[b, rc][r][0][0],
                 "fp_core": designs[b, rc][r][0][1],
                 "model": (1 + (models[b, rc] + r) % 5) if rc else 3,
                 "load": (2, 4)[(loads[b, rc] + r) % 2]}
                for b, rc in order])
        return rounds

    def setup(self, inputs, work, tracer):
        """Golden checksums the printed results are checked against."""
        goldens = {}
        for bench in ALL_BENCHMARKS:
            with tracer.span("workloads.build"):
                module = workload(bench).module(SCALE)
            goldens[bench] = golden_checksum(tracer, module)
        return goldens

    def measure(self, goldens, rounds, out):
        from repro.cli import main as cli_main

        for rnd in rounds:
            for op in rnd:
                argv = _run_argv(op)
                buf = io.StringIO()
                out.clock.sample()
                start = time.perf_counter()
                with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                    code = cli_main(argv)
                end = time.perf_counter()
                out.intervals.append((start, end))
                out.attempted += 1
                text = buf.getvalue()
                cycles = _CYCLES_RE.search(text)
                instrs = _INSTRS_RE.search(text)
                verify = _VERIFY_RE.search(text)
                if code != 0 or not (cycles and instrs and verify):
                    out.fail(f"repro {' '.join(argv)}: exit {code}")
                    continue
                golden = goldens[op["benchmark"]]
                got = type(golden)(verify.group(1))
                if verify.group(3) != "OK" or not checksum_matches(got, golden):
                    out.fail(f"repro {' '.join(argv)}: checksum {got!r}")
                    continue
                out.ops.append((end - start, start, end))
                out.instructions += int(instrs.group(1))
                out.digest_items.append(
                    [argv, int(cycles.group(1)), int(instrs.group(1))])
        out.clock.sample()

    def replay_ops(self, rounds):
        return [op for rnd in rounds for op in rnd]

    def replay(self, goldens, ops, tracer, out):
        for i, op in enumerate(ops):
            with tracer.request(i):
                out.attempted += 1
                config = _run_config(op)
                with tracer.span("workloads.build"):
                    module = workload(op["benchmark"]).module(SCALE)
                compiled = compile_traced(tracer, module, config,
                                          CompileOptions())
                result, _fast = simulate_traced(tracer, compiled.program,
                                                config)
                out.instructions += result.stats.instructions
                addr = module.global_addr("checksum")
                got = result.load_word(addr)
                if (got != compiled.interp.load_word(addr)
                        or not checksum_matches(got, goldens[op["benchmark"]])):
                    out.fail(f"{op['benchmark']}: checksum {got!r}")


# -- sim_long ---------------------------------------------------------------------

#: ``sim_long`` input scale: long enough that execution dominates.
SIM_SCALE = 2
#: Timing-only configurations per benchmark, one per issue width.
SIM_WIDTHS = (1, 2, 4, 8)


class SimLong(Workload):
    """Execution-bound: precompiled programs on timing-only configs."""

    name = "sim_long"
    single_thread = True
    #: 5 rounds at 18 s.
    units_per_second = 0.28
    replay_rate = 5.0
    replay_min = 4

    def inputs(self, seed, seconds):
        """Per benchmark, the RC model it is compiled for and its timing
        configs, then the order of the rounds.

        The model changes the compiled program, so it follows a fixed
        rotation over the benchmarks rather than the seed: a seeded model
        would change the set-up's compile work and the simulated
        instructions from seed to seed.  The seed draws the timing-only
        settings, each value on half of a benchmark's configs."""
        rng = random.Random(seed)
        plan = {}
        for i, bench in enumerate(ALL_BENCHMARKS):
            draws = {name: _balanced(rng, values, len(SIM_WIDTHS))
                     for name, values in (("connect_latency", (0, 1)),
                                          ("extra_decode_stage", (False, True)),
                                          ("channels", (1, 2)))}
            timing = []
            for k, width in enumerate(SIM_WIDTHS):
                base = 4 if width >= 8 else 2
                timing.append(dict(
                    issue_width=width,
                    connect_latency=draws["connect_latency"][k],
                    extra_decode_stage=draws["extra_decode_stage"][k],
                    mem_channels=base * draws["channels"][k]))
            plan[bench] = (RCModel(1 + i % 5), timing)
        orders = []
        for _ in range(self.units(seconds)):
            order = list(ALL_BENCHMARKS)
            rng.shuffle(order)
            orders.append(order)
        return {"plan": plan, "orders": orders}

    @staticmethod
    def _machine(bench, model, **timing):
        core = {"int_core": 16, "fp_core": 32}
        return paper_machine(rc_class=_rc_class(bench), rc_model=model,
                             **core, **timing)

    def setup(self, inputs, work, tracer):
        """Compile each benchmark once, then generate the fast engine's
        code for every timing config and for the gang leader."""
        programs = {}
        for bench, (model, timing) in inputs["plan"].items():
            with tracer.span("workloads.build"):
                module = workload(bench).module(SIM_SCALE)
            golden = golden_checksum(tracer, module)
            compiled = compile_traced(tracer, module,
                                      self._machine(bench, model),
                                      CompileOptions())
            configs = [self._machine(bench, model, **t) for t in timing]
            for config in configs:
                fast_simulator_traced(tracer, compiled.program, config)
            with tracer.span("sim.codegen"):
                FastSimulator(compiled.program, configs[0], generic_maps=True)
            programs[bench] = (compiled.program, configs,
                               module.global_addr("checksum"), golden)
        return programs

    def measure(self, programs, inputs, out):
        fallbacks = 0
        gang_s = 0.0
        for order in inputs["orders"]:
            for bench in order:
                program, configs, addr, golden = programs[bench]
                singles = []
                for config in configs:
                    out.clock.sample()
                    start = time.perf_counter()
                    sim = FastSimulator(program, config)
                    result = sim.run()
                    end = time.perf_counter()
                    out.intervals.append((start, end))
                    out.ops.append((end - start, start, end))
                    fallbacks += not sim.ran_fastpath
                    singles.append(result)
                out.clock.sample()
                start = time.perf_counter()
                gang = simulate_gang(program, configs)
                end = time.perf_counter()
                out.intervals.append((start, end))
                gang_s += end - start
                # Each gang slot's latency is its share of the gang run.
                out.ops.extend([((end - start) / len(configs), start, end)]
                               * len(configs))
                for config, single, slot in zip(configs, singles, gang):
                    out.attempted += 2
                    out.instructions += 2 * single.stats.instructions
                    if not checksum_matches(single.load_word(addr), golden):
                        out.fail(f"{bench} {config.describe()}: checksum")
                    if slot.error is not None or not _same_run(slot.result,
                                                               single):
                        out.fail(f"{bench} {config.describe()}: gang slot "
                                 f"differs from its fast run ({slot.error})")
                    out.digest_items.append(
                        [bench, repr(config), _stats_key(single.stats)])
        out.clock.sample()
        out.extras.update({"sim.fallback_count": fallbacks,
                           "sim.gang_s": gang_s})

    def replay_ops(self, inputs):
        return [(bench, k) for order in inputs["orders"] for bench in order
                for k in range(len(SIM_WIDTHS) + 1)]

    def replay(self, programs, ops, tracer, out):
        for i, (bench, k) in enumerate(ops):
            program, configs, addr, golden = programs[bench]
            with tracer.request(i):
                if k < len(configs):
                    out.attempted += 1
                    result, _fast = simulate_traced(tracer, program,
                                                    configs[k])
                    out.instructions += result.stats.instructions
                    results = [result]
                else:
                    out.attempted += len(configs)
                    with tracer.span("sim.gang"):
                        gang = simulate_gang(program, configs)
                    results = [slot.result for slot in gang]
                for result in results:
                    if result is None or not checksum_matches(
                            result.load_word(addr), golden):
                        out.fail(f"{bench}: checksum")


def _same_run(a, b) -> bool:
    """Bit-exact: statistics, memory and both register files."""
    return (a is not None and a.stats == b.stats
            and a.state.memory == b.state.memory
            and a.state.int_regs == b.state.int_regs
            and a.state.fp_regs == b.state.fp_regs)


# -- serve_mixed --------------------------------------------------------------------

#: One block of the serve job stream: the fixed mix of 20 jobs.
SERVE_BLOCK = (["asm_simulate"] * 9 + ["check"] * 3
               + ["benchmark_simulate"] * 3 + ["repeat"] * 5)
#: Cycle budget of the fuzz programs; a runaway one fails fast and its
#: ``budget-exceeded`` error is the correct outcome.
FUZZ_BUDGET = 50_000
#: Share of completed jobs recomputed locally (every errored job is, too).
RECHECK_SHARE = 0.10


@dataclasses.dataclass
class ServeJob:
    label: str  # asm_simulate | check | benchmark_simulate | repeat
    kind: str   # the serve job kind
    payload: dict
    source: int | None = None  # for repeats: the repeated job's index


class ServeMixed(Workload):
    """A closed loop of 2 clients against ``repro serve`` (2 workers)."""

    name = "serve_mixed"
    #: 60 blocks at 18 s: 180 benchmark jobs, 15 per benchmark.
    units_per_second = 3.34
    replay_rate = 10.0
    replay_min = 20

    def inputs(self, seed, seconds):
        """Blocks of 20 jobs in the fixed mix.  Benchmark jobs cycle
        through the benchmarks in seeded order; as in ``run_cold``, the
        settings that set their cost follow a fixed design (each benchmark
        alternates RC and steps through the register-file sizes and issue
        widths), and the seed draws the RC model."""
        rng = random.Random(seed)
        jobs: list[ServeJob] = []
        originals: list[int] = []
        benches: list[str] = []
        seen = dict.fromkeys(ALL_BENCHMARKS, 0)
        fuzz_seed = itertools.count(seed * 1_000_003)
        for _ in range(self.units(seconds)):
            labels = list(SERVE_BLOCK)
            rng.shuffle(labels)
            for label in labels:
                if label == "repeat" and not originals:
                    label = "asm_simulate"
                index = len(jobs)
                if label == "repeat":
                    src = rng.choice(originals[-20:])
                    jobs.append(ServeJob(label, jobs[src].kind,
                                         jobs[src].payload, src))
                    continue
                originals.append(index)
                if label == "benchmark_simulate":
                    if not benches:
                        benches = list(ALL_BENCHMARKS)
                        rng.shuffle(benches)
                    bench = benches.pop()
                    n = seen[bench]
                    seen[bench] += 1
                    step = ALL_BENCHMARKS.index(bench) + n // 2
                    pair = SIZE_PAIRS[step % len(SIZE_PAIRS)]
                    config = paper_machine(
                        issue_width=RUN_WIDTHS[step % len(RUN_WIDTHS)],
                        int_core=pair[0], fp_core=pair[1],
                        rc_class=_rc_class(bench) if n % 2 == 0 else None,
                        rc_model=RCModel(rng.choice((1, 2, 3, 4, 5))))
                    jobs.append(ServeJob(label, "simulate", {
                        "benchmark": bench, "scale": SCALE,
                        "machine": machine_to_payload(config)}))
                    continue
                gen = gen_machine_program(next(fuzz_seed))
                text = program_to_text(gen.program,
                                       header=f"e2e seed {seed} job {index}")
                config = rng.choice(fuzz_configs(gen.has_connects))
                payload = {"asm": text, "machine": machine_to_payload(config)}
                if label == "asm_simulate":
                    payload["max_cycles"] = FUZZ_BUDGET
                    jobs.append(ServeJob(label, "simulate", payload))
                else:
                    jobs.append(ServeJob(label, "check", payload))
        return jobs

    def setup(self, inputs, work, tracer):
        """Start the service and bring both pool workers up."""
        artifacts = tempfile.mkdtemp(prefix="artifacts-", dir=work)
        handle = start_in_thread(jobs=SERVE_WORKERS, artifact_dir=artifacts)
        stamp = time.perf_counter_ns()
        warm = [f"; warm-up {stamp} {k}\n    li r1, {k}\n    halt\n"
                for k in range(SERVE_WORKERS)]

        def warm_one(text):
            client = ServeClient(handle.url, client_id="setup")
            client.run("simulate", {"asm": text})

        threads = [threading.Thread(target=warm_one, args=(t,)) for t in warm]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        return {"handle": handle, "artifacts": artifacts, "work": work}

    def replay_setup(self, inputs, work, tracer):
        return None  # the replay runs the jobs in-process, no service

    def teardown(self, state):
        if state is not None:
            state["handle"].stop()
            shutil.rmtree(state["artifacts"], ignore_errors=True)

    def measure(self, state, jobs, out):
        url = state["handle"].url
        cursor = itertools.count()
        records: list = [None] * len(jobs)

        def client_loop(cid: int) -> None:
            client = ServeClient(url, client_id=f"e2e-{cid}", timeout=120)
            for i in cursor:  # next() on a count is atomic under the GIL
                if i >= len(jobs):
                    return
                job = jobs[i]
                t0 = time.perf_counter()
                try:
                    doc = client.submit(job.kind, job.payload)
                    t1 = time.perf_counter()
                    doc = client.wait(doc, timeout=120)
                except (OSError, ReproError, TimeoutError) as exc:
                    records[i] = ({"status": "lost", "error": str(exc)},
                                  t0, time.perf_counter(), 0.0)
                    continue
                records[i] = (doc, t0, time.perf_counter(), t1 - t0)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(CLIENT_THREADS)]
        with Sampler(out.clock):
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150)
            out.intervals.append((start, time.perf_counter()))
        server = ServeClient(url).stats()
        missing = [i for i, rec in enumerate(records) if rec is None]
        for i in missing:
            records[i] = ({"status": "lost", "error": "client timed out"},
                          start, start, 0.0)
        self._serve_extras(jobs, records, server, out)
        # The local recomputation compiles in this process: it runs after
        # the service is down and its peak memory read.
        return lambda: self._check(jobs, records, state["work"], out)

    def _check(self, jobs, records, work, out):
        """Every job is done or a reproduced structured error; repeats
        equal their source; a seeded 10% are recomputed locally (picked by
        a hash of the job's seeded payload)."""
        local_runner = None
        for i, (doc, start, end, _submit) in enumerate(records):
            job = jobs[i]
            out.attempted += 1
            status = doc.get("status")
            if status not in ("done", "error"):
                out.fail(f"job {i}: {status} {doc.get('error')}")
                continue
            out.ops.append((end - start, start, end))
            result = doc.get("result") or {}
            computed = not doc.get("from_cache") and not doc.get(
                "coalesced_with")
            if status == "done" and computed:
                record = result.get("record", result)
                out.instructions += record.get("instructions", 0)
            out.digest_items.append([i, job.label, _job_summary(doc)])
            if job.source is not None:
                if _job_summary(doc) != _job_summary(records[job.source][0]):
                    out.fail(f"job {i}: repeat of {job.source} differs")
                continue
            if status == "done" and not _sampled(job):
                continue
            if job.label == "benchmark_simulate" and local_runner is None:
                local_runner = ExperimentRunner(
                    scale=SCALE, cache_dir=Path(work) / "local-records",
                    engine="fast")
            want = _recompute(job, local_runner)
            if want != _job_summary(doc):
                out.fail(f"job {i} ({job.label}): served {_job_summary(doc)}"
                         f" != local {want}")

    @staticmethod
    def _serve_extras(jobs, records, server, out):
        """Service-layer numbers in host milliseconds."""
        per_kind: dict[str, list[float]] = {}
        submit, overhead = [], []
        for i, (doc, start, end, submit_s) in enumerate(records):
            took = end - start
            per_kind.setdefault(jobs[i].label, []).append(took)
            submit.append(submit_s)
            meta = doc.get("meta") or {}
            if ("elapsed" in meta and not doc.get("from_cache")
                    and not doc.get("coalesced_with")):
                overhead.append(took - meta["elapsed"])
        counters = server.get("jobs", {})
        out.extras.update({
            "serve.artifact_hit_ratio": counters.get("artifact_hits", 0)
            / max(1, counters.get("submitted", 0)),
            "serve.coalesced": counters.get("coalesced", 0),
            "serve.submit_p50_ms": 1e3 * statistics.median(submit),
            "serve.overhead_p50_ms": 1e3 * statistics.median(overhead),
        })
        for label, values in per_kind.items():
            out.extras[f"serve.{label}_p50_ms"] = 1e3 * statistics.median(values)

    def replay_ops(self, jobs):
        return jobs

    def replay(self, state, ops, tracer, out):
        goldens = {}
        for i, job in enumerate(ops):
            with tracer.request(i):
                out.attempted += 1
                if job.source is not None:
                    continue  # an artifact hit: no layer work
                config = effective_config(job.payload)
                if job.label == "benchmark_simulate":
                    bench = job.payload["benchmark"]
                    with tracer.span("workloads.build"):
                        module = workload(bench).module(SCALE)
                    if bench not in goldens:
                        goldens[bench] = golden_checksum(tracer, module)
                    compiled = compile_traced(tracer, module, config,
                                              CompileOptions())
                    result, _fast = simulate_traced(tracer, compiled.program,
                                                    config)
                    out.instructions += result.stats.instructions
                    got = result.load_word(module.global_addr("checksum"))
                    if not checksum_matches(got, goldens[bench]):
                        out.fail(f"job {i}: {bench} checksum {got!r}")
                    continue
                with tracer.span("isa.parse"):
                    program = parse_program(job.payload["asm"])
                if job.kind == "check":
                    with tracer.span("analyze.check"):
                        check_program(program, config)
                    continue
                try:
                    result, _fast = simulate_traced(tracer, program, config)
                except ReproError as exc:
                    if error_type(exc) not in ("budget-exceeded",
                                               "simulation-error"):
                        out.fail(f"job {i}: {exc!r}")
                    continue
                out.instructions += result.stats.instructions


def _sampled(job: ServeJob) -> bool:
    text = json.dumps(job.payload, sort_keys=True).encode()
    draw = int.from_bytes(hashlib.sha256(text).digest()[:4], "big")
    return draw < RECHECK_SHARE * 2 ** 32


def _job_summary(doc: dict):
    """The simulated outcome of one serve job document."""
    if doc.get("status") == "error":
        error = doc.get("error") or {}
        return ["error", error.get("type"), error.get("message")]
    result = doc.get("result") or {}
    if "record" in result:
        rec = result["record"]
        return ["ok", rec["cycles"], rec["instructions"], rec["mispredicts"],
                rec["total_static"], rec["checksum_ok"]]
    if "report" in result:
        return ["ok", result["clean"],
                json.dumps(result["report"], sort_keys=True)]
    return ["ok", result.get("cycles"), result.get("instructions")]


def _recompute(job: ServeJob, runner):
    """The summary a local, in-process run of *job* gives."""
    payload = job.payload
    config = effective_config(payload)
    if job.label == "benchmark_simulate":
        try:
            rec = runner.run(payload["benchmark"], config)
        except ReproError as exc:
            return ["error", error_type(exc), str(exc)]
        return ["ok", rec.cycles, rec.instructions, rec.mispredicts,
                rec.total_static, rec.checksum_ok]
    try:
        program = parse_program(payload["asm"])
        if job.kind == "check":
            report = check_program(program, config)
            doc = json.loads(json.dumps(report.to_dict()))
            return ["ok", report.clean(False), json.dumps(doc, sort_keys=True)]
        result = simulate(program, config)
    except ReproError as exc:
        return ["error", error_type(exc), str(exc)]
    return ["ok", result.cycles, result.stats.instructions]


WORKLOADS = {w.name: w for w in (Figures(), RunCold(), SimLong(), ServeMixed())}
