"""Compile-and-simulate experiment runner with persistent caching.

One :class:`ExperimentRunner` owns a benchmark scale and a disk cache; every
(benchmark, machine configuration, optimization level) combination is
compiled, simulated, checksum-verified against the IR interpreter, and the
resulting record cached so the figure-regeneration benches are cheap to
re-run.

The speedup baseline follows paper section 5.3: "a single-issue processor
with an unlimited number of registers using conventional compiler scalar
optimizations."
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.compiler import (
    AllocationOptions,
    CompileOptions,
    CompileOutput,
    FrontEnd,
    OptOptions,
    compile_back,
    compile_front,
)
from repro.errors import SimulationError
from repro.ir import Module, resolve_ir_engine, run_module
from repro.isa import RClass
from repro.observe import CPIStack, Observer
from repro.sim import (
    MachineConfig,
    Simulator,
    resolve_engine,
    simulate,
    unlimited_machine,
)
from repro.store import Store
from repro.workloads import workload

#: Environment variable scaling every benchmark's input size.
SCALE_ENV = "REPRO_SCALE"
CACHE_ENV = "REPRO_CACHE_DIR"

#: Packages whose source determines cached results: editing any file under
#: them must invalidate every previously cached record.
FINGERPRINT_PACKAGES = ("repro.compiler", "repro.sim", "repro.workloads",
                        "repro.isa", "repro.ir", "repro.rc")

_fingerprint_cache: str | None = None


def code_fingerprint(refresh: bool = False) -> str:
    """A short hash of the cycle-affecting source tree.

    Every cache key embeds this fingerprint, so cached records invalidate
    automatically whenever the compiler, simulator, or workload code
    changes — no manual version bump to forget.
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None and not refresh:
        return _fingerprint_cache
    import importlib

    digest = hashlib.sha256()
    for pkg_name in FINGERPRINT_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for root in pkg.__path__:
            for path in sorted(Path(root).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


#: Size of each in-memory compile memo (FIFO eviction): the process-wide
#: front ends of :func:`front_end`, and each runner's compiled programs.
COMPILE_CACHE_CAP = 64

_fronts: dict[tuple, tuple[Module, FrontEnd]] = {}
_fronts_lock = threading.Lock()


def _remember(memo: dict, key: tuple, value: tuple) -> tuple:
    if len(memo) >= COMPILE_CACHE_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value
    return value


def front_end(benchmark: str, scale: int, options: CompileOptions,
              entry: str = "main") -> tuple[Module, FrontEnd]:
    """*benchmark*'s ``(source module, FrontEnd)``, once per process.

    Keyed on everything :func:`~repro.compiler.compile_front` reads, so
    every runner and ``repro run``/``disasm``/``trace``/``check`` call of a
    process shares it.  Callers treat both as read-only:
    :func:`~repro.compiler.compile_back` copies the IR it transforms.
    """
    key = (benchmark, scale, options.opt, options.profile_step_limit,
           resolve_ir_engine(options.ir_engine), entry)
    with _fronts_lock:
        hit = _fronts.get(key)
    if hit is not None:
        return hit
    module = workload(benchmark).module(scale)
    front = (module, compile_front(module, options, entry))
    with _fronts_lock:
        return _fronts.get(key) or _remember(_fronts, key, front)


def clear_front_ends() -> None:
    """Empty the :func:`front_end` memo (for tests that need a cold one)."""
    with _fronts_lock:
        _fronts.clear()


@dataclass(frozen=True)
class RunRecord:
    """The cached outcome of one compile+simulate experiment."""

    benchmark: str
    cycles: int
    instructions: int
    ipc: float
    checksum_ok: bool
    total_static: int
    program_static: int
    spill_static: int
    connect_static: int
    callsave_static: int
    spilled_vregs: int
    extended_vregs: int
    dyn_connects: int
    dyn_spills: int
    mispredicts: int
    #: CPI-stack attribution (:meth:`repro.observe.CPIStack.to_dict`),
    #: populated when the experiment ran with ``collect_cpi=True``.
    cpi: dict | None = None

    @property
    def code_size_increase(self) -> float:
        base = self.total_static - self.overhead_static
        return self.overhead_static / base if base else 0.0

    @property
    def overhead_static(self) -> int:
        return self.spill_static + self.connect_static + self.callsave_static

    @property
    def callsave_increase(self) -> float:
        base = self.total_static - self.overhead_static
        return self.callsave_static / base if base else 0.0


def _compile_key(config: MachineConfig) -> str:
    """The part of a config that can change *compilation* output.

    The scheduler is machine-aware (issue width, memory channels, the full
    latency table, the RC model's map-dependency ordering) and the register
    allocator sees both file specs, so all of those are compile-affecting.
    ``extra_decode_stage`` and ``max_cycles`` are simulate-only and live in
    :func:`_sim_key` — sweep points differing only in those reuse one
    compilation via the in-memory compiled-program cache.
    """
    lat = "-".join(str(v) for v in config.latency.field_tuple())
    return (
        f"iw{config.issue_width}.mc{config.mem_channels}"
        f".lat{lat}"
        f".int{config.int_spec.core}-{config.int_spec.total}"
        f".fp{config.fp_spec.core}-{config.fp_spec.total}"
        f".m{config.rc_model.value}"
    )


def _sim_key(config: MachineConfig) -> str:
    """The part of a config that only changes *simulation*, not compilation."""
    return f"x{int(config.extra_decode_stage)}.cy{config.max_cycles}"


def _digest(key: str) -> str:
    """The on-disk store key of one :meth:`ExperimentRunner.cache_key`."""
    return hashlib.sha256(key.encode()).hexdigest()


def _config_key(config: MachineConfig) -> str:
    """A cache key covering *every* cycle-affecting configuration field.

    Composed of the compile-affecting and simulate-affecting parts, so two
    configs differing in any latency or limit can never share a cached
    record.
    """
    return f"{_compile_key(config)}.{_sim_key(config)}"


class ExperimentRunner:
    """Runs and caches benchmark experiments at a fixed input scale."""

    def __init__(self, scale: int | None = None,
                 cache_dir: str | Path | None = None,
                 verify_checksums: bool = True,
                 engine: str | None = None) -> None:
        if scale is None:
            scale = int(os.environ.get(SCALE_ENV, "1"))
        self.scale = scale
        self.verify_checksums = verify_checksums
        self.engine = resolve_engine(engine)
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV, ".repro_cache")
        self.cache_dir = Path(cache_dir)
        self._disk = Store(self.cache_dir)
        self._memory: dict[str, RunRecord] = {}
        self._golden: dict[str, int | float] = {}
        self._compiled: dict[tuple, tuple] = {}
        self._fingerprint = code_fingerprint()
        #: cache traffic counters, surfaced by the sweep executor.
        self.cache_hits = 0
        self.cache_misses = 0
        self.compile_hits = 0
        self.compile_misses = 0
        #: engine that simulated the last :meth:`run` (see
        #: :attr:`SimResult.engine`), ``None`` when it hit the cache.
        self.last_engine: str | None = None

    #: the counter attributes :meth:`counters` snapshots.
    COUNTER_FIELDS = ("cache_hits", "cache_misses",
                      "compile_hits", "compile_misses")

    def counters(self) -> dict[str, int]:
        """A snapshot of the cache traffic counters.

        Pool workers run jobs on *forked copies* of a runner, so counters
        they bump are invisible to the parent; callers that fan out take a
        snapshot around each remote compile group and ship the delta back
        (see :func:`repro.experiments.executor._run_group` and
        :meth:`absorb_counters`).
        """
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def absorb_counters(self, delta: dict[str, int]) -> None:
        """Add a worker's counter delta into this (parent) runner."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + delta.get(name, 0))

    # -- caching ---------------------------------------------------------------

    def _load(self, key: str) -> RunRecord | None:
        record = self._memory.get(key)
        if record is None:
            # A document missing a field or carrying an unknown one (an
            # old schema) raises in the constructor and is evicted.
            record = self._disk.get(_digest(key),
                                    lambda doc: RunRecord(**doc))
            if record is not None:
                self._memory[key] = record
        return record

    def _store(self, key: str, record: RunRecord) -> None:
        self._memory[key] = record
        self._disk.put(_digest(key), vars(record))

    def adopt(self, key: str, record: RunRecord) -> None:
        """Hold *record*, computed and stored on disk by another runner
        (a pool worker), in this runner's memory tier under *key*."""
        self._memory[key] = record

    # -- golden results ----------------------------------------------------------

    def golden_checksum(self, benchmark: str) -> int | float:
        if benchmark not in self._golden:
            m = workload(benchmark).module(self.scale)
            result = run_module(m)
            self._golden[benchmark] = result.load_word(
                m.global_addr("checksum"))
        return self._golden[benchmark]

    # -- running -------------------------------------------------------------------

    def cache_key(self, benchmark: str, config: MachineConfig,
                  opt_level: str = "ilp", unroll_factor: int = 4,
                  num_windows: int = 4, collect_cpi: bool = False) -> str:
        """The cache key for one experiment, including the code fingerprint.

        ``collect_cpi`` is accepted but deliberately excluded: observation
        has no effect on results (asserted by tests), so a record computed
        with CPI attribution satisfies lookups without it and vice versa —
        except that a CPI-requesting lookup of a CPI-less record recomputes
        (see :meth:`run`).
        """
        del collect_cpi
        return (f"{benchmark}.s{self.scale}.{_config_key(config)}"
                f".o{opt_level}.u{unroll_factor}.w{num_windows}"
                f".f{self._fingerprint}")

    def compile(self, benchmark: str, config: MachineConfig,
                opt_level: str = "ilp", unroll_factor: int = 4,
                num_windows: int = 4) -> tuple[Module, CompileOutput]:
        """Compile *benchmark* for *config*: ``(source module, output)``.

        Memoized at two levels.  The machine-independent front end comes
        from the process-wide :func:`front_end`, shared by every config of
        a sweep and every runner of the process.  The finished compile is
        memoized on the compile-affecting key: sweep points that differ only in
        simulate-affecting fields (``extra_decode_stage``, ``max_cycles``)
        reuse one compilation — and, because the same ``MachineProgram``
        object is returned, the fast engine's per-program code cache
        amortizes its specialization cost across those points too.
        """
        ckey = (benchmark, _compile_key(config), opt_level, unroll_factor,
                num_windows)
        hit = self._compiled.get(ckey)
        if hit is not None:
            self.compile_hits += 1
            return hit
        self.compile_misses += 1
        options = CompileOptions(
            opt=OptOptions(level=opt_level, unroll_factor=unroll_factor),
            alloc=AllocationOptions(num_windows=num_windows),
        )
        module, front = front_end(benchmark, self.scale, options)
        out = compile_back(front, config, options)
        return _remember(self._compiled, ckey, (module, out))

    def cached(self, benchmark: str, config: MachineConfig,
               collect_cpi: bool = False, **kwargs) -> RunRecord | None:
        """Return the cached record for one experiment, or None (no compute,
        no counter traffic)."""
        record = self._load(self.cache_key(benchmark, config, **kwargs))
        if record is not None and collect_cpi and record.cpi is None:
            return None
        return record

    def run(self, benchmark: str, config: MachineConfig,
            opt_level: str = "ilp", unroll_factor: int = 4,
            num_windows: int = 4, collect_cpi: bool = False) -> RunRecord:
        """Compile and simulate one benchmark; cached.

        ``collect_cpi=True`` attaches a per-cause cycle attribution
        (:attr:`RunRecord.cpi`) collected by an aggregate-only observer; a
        cached record without one is recomputed (and upgraded in place).
        """
        key = self.cache_key(benchmark, config, opt_level=opt_level,
                             unroll_factor=unroll_factor,
                             num_windows=num_windows)
        record = self._load(key)
        self.last_engine = None
        if record is not None and (record.cpi is not None or not collect_cpi):
            self.cache_hits += 1
            return record
        self.cache_misses += 1

        module, out = self.compile(
            benchmark, config, opt_level, unroll_factor, num_windows)
        observer = None
        if collect_cpi:
            observer = Observer(keep_events=False)
            result = Simulator(out.program, config, observer=observer).run()
        else:
            result = simulate(out.program, config, engine=self.engine)
        self.last_engine = result.engine
        checksum_ok = True
        if self.verify_checksums:
            checksum_ok = self._verify(benchmark, config, module, out, result)
        stats = out.stats
        record = RunRecord(
            benchmark=benchmark,
            cycles=result.cycles,
            instructions=result.stats.instructions,
            ipc=result.stats.ipc,
            checksum_ok=checksum_ok,
            total_static=stats.total_instructions,
            program_static=stats.program_instructions,
            spill_static=stats.spill_instructions,
            connect_static=stats.connect_instructions,
            callsave_static=stats.callsave_instructions,
            spilled_vregs=stats.spilled_vregs,
            extended_vregs=stats.extended_vregs,
            dyn_connects=result.stats.by_origin.get("connect", 0),
            dyn_spills=result.stats.by_origin.get("spill", 0),
            mispredicts=result.stats.mispredicts,
            cpi=(CPIStack.from_observer(observer, result.stats).to_dict()
                 if observer is not None else None),
        )
        self._store(key, record)
        return record

    def _verify(self, benchmark: str, config: MachineConfig, module, out,
                result) -> bool:
        """Checksum-verify one simulation result; raises on mismatch."""
        addr = module.global_addr("checksum")
        got = result.load_word(addr)
        # The compiled program must reproduce the optimized module's
        # interpretation exactly...
        want = out.interp.load_word(addr)
        if got != want:
            raise SimulationError(
                f"{benchmark} on {config.describe()}: checksum mismatch "
                f"({got!r} != {want!r})"
            )
        # ...and the optimized module may differ from the original only
        # by FP-reassociation rounding.
        original = self.golden_checksum(benchmark)
        if isinstance(original, float):
            drift = abs(want - original) / max(abs(original), 1e-30)
            if drift > 1e-9:
                raise SimulationError(
                    f"{benchmark}: optimization drifted the FP checksum "
                    f"by {drift:.2e}"
                )
        elif want != original:
            raise SimulationError(
                f"{benchmark}: optimization changed the integer checksum "
                f"({want!r} != {original!r})"
            )
        return True

    # -- paper-style derived quantities ------------------------------------------

    def baseline_cycles(self, benchmark: str) -> int:
        """Cycles on the paper's speedup-baseline machine."""
        return self.run(benchmark, unlimited_machine(issue_width=1),
                        opt_level="scalar").cycles

    def speedup(self, benchmark: str, config: MachineConfig,
                **kwargs) -> float:
        record = self.run(benchmark, config, **kwargs)
        return self.baseline_cycles(benchmark) / record.cycles

    def rc_class_for(self, benchmark: str) -> RClass:
        """Which register file receives RC for this benchmark (section 5.2)."""
        return RClass.INT if workload(benchmark).kind == "int" else RClass.FP
