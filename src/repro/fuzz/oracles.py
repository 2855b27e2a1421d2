"""Differential oracles for the fuzzing harness.

Three oracle families (ISSUE 6 / ROADMAP item 1):

* **engine parity** — the fast simulator and the specializing IR
  interpreter must be bit-exact with their references: full
  :class:`SimStats`, memory image, both register files, halting state, and
  (when either side faults) the exact exception type and message.  The
  same holds for a run that hands each block over from the reference
  engine to generated code at its T-th entry (``tier_parity``).
* **checker soundness** — a program the static checker passes with zero
  errors must never raise a (non arithmetic-fault) simulation error at
  runtime; targeted mutations that change behavior must surface a finding.
* **compile determinism** — compiles profiled by the fast and the
  reference IR interpreter must produce byte-identical listings.

Every oracle returns ``None`` when it holds and a human-readable
description of the first disagreement otherwise, so the runner can wrap it
in a :class:`Divergence` with the generator seed attached.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from random import Random

from repro.analyze import check_program
from repro.compiler import CompileOptions, compile_module
from repro.errors import ReproError, SimulationError, SimulationFault
from repro.ir.interp import Interpreter
from repro.isa.asmfmt import format_listing
from repro.isa.registers import RClass
from repro.rc import RCModel
from repro.sim import FastSimulator, Simulator, paper_machine
from repro.sim.config import MachineConfig
from repro.sim.fastpath import HOT_ENTRIES

#: Reset models every fuzz run sweeps (no-reset, the paper default, and the
#: read-reset extension) — three points that exercise every mapping-table
#: update rule between them.
FUZZ_MODELS = (RCModel.NO_RESET, RCModel.WRITE_RESET_READ_UPDATE,
               RCModel.READ_RESET)
FUZZ_WIDTHS = (1, 2, 4)

#: Cycle budget for fuzz machines: far above any generated program's
#: runtime, far below the 2e8 default so runaway mutants fail fast.
FUZZ_MAX_CYCLES = 1_000_000


@dataclass
class Divergence:
    """One oracle violation, with everything needed to reproduce it."""

    oracle: str  # sim-parity | interp-parity | checker-soundness | ...
    detail: str
    level: str = ""  # "asm" | "ir"
    seed: int | None = None
    config: str = ""
    case_name: str = ""
    #: Minimized reproducer: assembly text (asm level) or module JSON (ir).
    reproducer: str = ""
    mutation: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v}


def fuzz_configs(has_connects: bool = True,
                 widths: tuple[int, ...] = FUZZ_WIDTHS,
                 models: tuple[RCModel, ...] = FUZZ_MODELS,
                 ) -> list[MachineConfig]:
    """The fuzz configuration matrix: every model × width, with connect
    latency and the extra decode stage toggled deterministically so both
    values of each appear in every sweep."""
    configs = []
    for width in widths:
        for model in models:
            cfg = paper_machine(
                issue_width=width,
                int_core=16,
                fp_core=16,
                rc_class=RClass.INT,
                rc_model=model,
                connect_latency=(width + model.value) % 2,
                extra_decode_stage=(model is RCModel.READ_RESET),
            )
            configs.append(_bounded(cfg))
    if not has_connects:
        configs.append(_bounded(paper_machine(issue_width=4, int_core=16,
                                              fp_core=16)))
    return configs


def _bounded(cfg: MachineConfig) -> MachineConfig:
    return dataclasses.replace(cfg, max_cycles=FUZZ_MAX_CYCLES)


def _outcome(run):
    """Run a thunk, capturing either its result or its exception."""
    try:
        return None, run()
    except Exception as exc:  # noqa: BLE001 - exceptions ARE the output
        return (type(exc).__name__, str(exc)), None


#: The batched-parity gang sweeps reset models {1, 2, 4} — the two the
#: other oracles skip plus no-reset — so between the two matrices all five
#: models are fuzzed.
GANG_MODELS = (RCModel.NO_RESET, RCModel.WRITE_RESET,
               RCModel.READ_WRITE_RESET)


def gang_configs() -> list[MachineConfig]:
    """The gang-of-9 batched-parity matrix: models {1,2,4} x widths {1,2,4}."""
    return [_bounded(paper_machine(issue_width=width, int_core=16, fp_core=16,
                                   rc_class=RClass.INT, rc_model=model))
            for model in GANG_MODELS for width in FUZZ_WIDTHS]


def batched_parity(program) -> str | None:
    """One gang-of-9 lockstep run vs nine single fast runs vs reference.

    Every slot of the gang must match its config's single-config fast run
    *and* the reference engine bit-exactly: full :class:`SimStats`, memory,
    both register files, halting state — and when the point faults, the
    exact exception type and message.  A slot that retires early (fault,
    budget) must leave every other slot untouched, which this oracle checks
    implicitly by comparing all nine slots of the same gang.
    """
    from repro.sim import simulate_gang

    configs = gang_configs()
    gang_exc, gang = _outcome(lambda: simulate_gang(program, configs))
    if gang_exc is not None:
        return f"gang run raised {gang_exc!r}"
    for i, (config, slot) in enumerate(zip(configs, gang)):
        tag = f"slot{i} w{config.issue_width}-m{config.rc_model.value}"
        ref_exc, ref = _outcome(lambda c=config: Simulator(program, c).run())
        fast_exc, fast = _outcome(
            lambda c=config: FastSimulator(program, c).run())
        slot_exc = ((type(slot.error).__name__, str(slot.error))
                    if slot.error is not None else None)
        if slot_exc != ref_exc:
            return (f"{tag}: batched fault {slot_exc!r} vs reference "
                    f"{ref_exc!r}")
        if fast_exc != ref_exc:
            return (f"{tag}: fast fault {fast_exc!r} vs reference "
                    f"{ref_exc!r}")
        if slot.error is not None:
            continue
        for name, other in (("reference", ref), ("fast", fast)):
            for what, a, b in (
                ("stats", slot.result.stats, other.stats),
                ("halted", slot.result.halted, other.halted),
                ("memory", slot.result.state.memory, other.state.memory),
                ("int_regs", slot.result.state.int_regs,
                 other.state.int_regs),
                ("fp_regs", slot.result.state.fp_regs, other.state.fp_regs),
            ):
                if a != b:
                    return (f"{tag}: {what} diverge: batched {a!r} vs "
                            f"{name} {b!r}")
    return None


def opt_parity(program) -> str | None:
    """Connect-optimizer soundness over the gang matrix.

    For every model {1,2,4} × width {1,2,4} point: optimizing the program
    must preserve its architectural outcome bit-exactly — final memory,
    both register files, halting state, and on faults the exception *type*
    (messages carry instruction indices, which deletion legitimately
    shifts) — and a second pass must find nothing left to do.  At one
    width per model the checker must also agree: a warning-clean original
    stays warning-clean after optimization (LAT001 schedule infos may
    shift with deleted instructions and are excluded).
    """
    from repro.analyze import optimize_connects

    for config in gang_configs():
        tag = f"w{config.issue_width}-m{config.rc_model.value}"
        opt_exc, result = _outcome(
            lambda c=config: optimize_connects(program, c))
        if opt_exc is not None:
            return f"{tag}: optimizer crashed: {opt_exc!r}"
        if result.report.changed:
            base_exc, base = _outcome(
                lambda c=config: FastSimulator(program, c).run())
            new_exc, new = _outcome(
                lambda c=config, p=result.program: FastSimulator(p, c).run())
            base_type = base_exc[0] if base_exc else None
            new_type = new_exc[0] if new_exc else None
            if base_type != new_type:
                return (f"{tag}: fault mismatch after optimization: "
                        f"original {base_exc!r} vs optimized {new_exc!r}")
            if base_exc is None:
                for what, a, b in (
                    ("halted", base.halted, new.halted),
                    ("memory", base.state.memory, new.state.memory),
                    ("int_regs", base.state.int_regs, new.state.int_regs),
                    ("fp_regs", base.state.fp_regs, new.state.fp_regs),
                ):
                    if a != b:
                        return (f"{tag}: {what} diverge after "
                                f"optimization: {a!r} vs {b!r}")
            again_exc, again = _outcome(
                lambda c=config, p=result.program: optimize_connects(p, c))
            if again_exc is not None:
                return f"{tag}: re-optimization crashed: {again_exc!r}"
            if again.report.changed:
                return (f"{tag}: optimizer is not idempotent: second pass "
                        f"made {len(again.report.edits)} more edit(s)")
        if config.issue_width == 2:
            chk_exc, before = _outcome(
                lambda c=config: check_program(program, c))
            if chk_exc is not None:
                return f"{tag}: checker crashed: {chk_exc!r}"
            if before.errors or before.warnings:
                continue  # the clean-stays-clean claim does not apply
            chk_exc, after = _outcome(
                lambda c=config, p=result.program: check_program(p, c))
            if chk_exc is not None:
                return f"{tag}: checker crashed on optimized: {chk_exc!r}"
            if after.errors or after.warnings:
                first = (after.errors + after.warnings)[0]
                return (f"{tag}: optimization introduced a finding on a "
                        f"clean program: {first.format()}")
    return None


def sim_parity(program, config) -> tuple[str | None, bool]:
    """Fast-vs-reference simulator parity on one (program, config) point.

    Returns ``(problem, used_fastpath)``; a fast engine that silently fell
    back still passes (trivially), but the runner counts it so coverage
    loss is visible in the report.
    """
    ref_exc, ref = _outcome(lambda: Simulator(program, config).run())
    fast_sim_box = []

    def _fast():
        sim = FastSimulator(program, config)
        fast_sim_box.append(sim)
        return sim.run()

    fast_exc, fast = _outcome(_fast)
    used_fastpath = bool(fast_sim_box and fast_sim_box[0].ran_fastpath)
    if ref_exc or fast_exc:
        if ref_exc != fast_exc:
            return (f"fault mismatch: reference {ref_exc!r} vs fast "
                    f"{fast_exc!r}"), used_fastpath
        return None, used_fastpath
    for what, a, b in (
        ("stats", fast.stats, ref.stats),
        ("halted", fast.halted, ref.halted),
        ("memory", fast.state.memory, ref.state.memory),
        ("int_regs", fast.state.int_regs, ref.state.int_regs),
        ("fp_regs", fast.state.fp_regs, ref.state.fp_regs),
    ):
        if a != b:
            return (f"{what} diverge: fast {a!r} vs reference {b!r}",
                    used_fastpath)
    return None, used_fastpath


def interp_parity(module, entry: str = "main",
                  args: tuple = ()) -> tuple[str | None, bool]:
    """Fast-vs-reference IR interpreter parity on one module."""
    ref_exc, ref = _outcome(
        lambda: Interpreter(module, engine="reference").run(entry, args))
    box = []

    def _fast():
        interp = Interpreter(module, engine="fast")
        box.append(interp)
        return interp.run(entry, args)

    fast_exc, fast = _outcome(_fast)
    used_fastpath = bool(box and box[0].ran_fastpath)
    if ref_exc or fast_exc:
        if ref_exc != fast_exc:
            return (f"fault mismatch: reference {ref_exc!r} vs fast "
                    f"{fast_exc!r}"), used_fastpath
        return None, used_fastpath
    if fast.steps != ref.steps:
        return (f"steps diverge: fast {fast.steps} vs reference "
                f"{ref.steps}"), used_fastpath
    if fast.memory != ref.memory:
        return (f"memory diverges: fast {fast.memory!r} vs reference "
                f"{ref.memory!r}"), used_fastpath
    for what in ("block_counts", "branch_counts", "call_counts"):
        a = getattr(fast.profile, what)
        b = getattr(ref.profile, what)
        if a != b:
            return (f"profile {what} diverge: fast {a!r} vs reference "
                    f"{b!r}"), used_fastpath
    return None, used_fastpath


def resume_parity(program, config, chunk: int = 7) -> str | None:
    """Segmented execution parity: running in ``until_cycle`` chunks (plus
    one idempotent re-``run()`` after halting) must equal one full run, on
    both engines, including when the program faults mid-segment.  A
    ``run()`` after a *failed* run must also behave identically on both
    engines (they refuse to resume inconsistent state with the same
    diagnostic)."""
    full_exc, full = _outcome(lambda: Simulator(program, config).run())

    if full_exc is not None:
        def _rerun_after_failure(cls):
            sim = cls(program, config)
            try:
                sim.run()
            except Exception:  # noqa: BLE001 - the expected first failure
                pass
            return sim.run()

        ref2 = _outcome(lambda: _rerun_after_failure(Simulator))
        fast2 = _outcome(lambda: _rerun_after_failure(FastSimulator))
        if ref2[0] != fast2[0]:
            return (f"re-run after failure: reference {ref2[0]!r} vs fast "
                    f"{fast2[0]!r}")
        if ref2[1] is not None and fast2[1] is not None:
            if ref2[1].stats != fast2[1].stats:
                return ("re-run after failure stats diverge: reference "
                        f"{ref2[1].stats!r} vs fast {fast2[1].stats!r}")

    def _segmented(cls):
        sim = cls(program, config)
        result = sim.run(until_cycle=chunk)
        guard = FUZZ_MAX_CYCLES // chunk + 2
        while not result.halted:
            guard -= 1
            if guard < 0:
                raise SimulationError("segmented run failed to make progress")
            result = sim.run(until_cycle=result.stats.cycles + chunk)
        rerun = sim.run()
        if rerun.stats != result.stats or not rerun.halted:
            raise AssertionError("re-run after halt changed the result")
        return result

    def _stop_and_finish():
        # A fast simulator stopped by one segment (usually mid-block)
        # finishes with a plain run(): the driver runs the reference step
        # to the next block leader, then generated code.
        sim = FastSimulator(program, config)
        sim.run(until_cycle=chunk)
        return sim.run()

    for name, run in (("segmented reference", lambda: _segmented(Simulator)),
                      ("segmented fast", lambda: _segmented(FastSimulator)),
                      ("stopped-then-finished fast", _stop_and_finish)):
        exc, seg = _outcome(run)
        if exc != full_exc:
            return (f"{name} outcome {exc!r} vs full reference "
                    f"{full_exc!r}")
        if seg is None:
            continue
        for what, a, b in (
            ("stats", seg.stats, full.stats),
            ("memory", seg.state.memory, full.state.memory),
            ("int_regs", seg.state.int_regs, full.state.int_regs),
            ("fp_regs", seg.state.fp_regs, full.state.fp_regs),
        ):
            if a != b:
                return f"{name} {what} diverge: {a!r} vs full {b!r}"
    return None


#: Where a faulting run's resumed tier runs stop their first segment: below
#: this cycle, since the fault's cycle is unknown.
_FAULT_SEGMENT_CYCLES = 100


def tier_parity(program, config, seed: int = 0) -> str | None:
    """Per-block handoff parity: a driver run that runs each block on the
    reference engine's step until its T-th entry and compiles it there (a
    :class:`FastSimulator` with ``threshold=T``) must equal one reference
    run: the exception type and message, or the full :class:`SimStats`,
    halting state, memory and both register files.

    T is 0 (every block compiled before the run, the eager engine), 1
    (each block at its first entry), a seeded value, the
    :data:`~repro.sim.fastpath.HOT_ENTRIES` of :func:`~repro.sim.simulate`,
    and ``None`` (never: the reference step throughout).  Every T also
    runs once resumed after a reference ``run(until_cycle=K)`` segment, at
    a seeded mid-run K; that run reuses the blocks the first one compiled.
    """
    full_exc, full = _outcome(lambda: Simulator(program, config).run())
    rng = Random(seed)
    end = full.stats.cycles if full is not None else _FAULT_SEGMENT_CYCLES
    stop = rng.randrange(1, max(2, end))
    seeded = rng.randrange(2, HOT_ENTRIES)

    def _tiered(sim, until):
        if until is not None:
            segment = sim.run(until_cycle=until)
            if segment.halted:
                return segment
        return sim.run()

    for threshold in (0, 1, seeded, HOT_ENTRIES, None):
        # A fresh copy has no generated code, so blocks compile exactly at
        # their threshold; the eager engine may share the program's code.
        prog = program if threshold == 0 else copy.deepcopy(program)
        for until in (None, stop):
            label = f"threshold {threshold}" + (
                f", resumed at cycle {until}" if until is not None else "")
            sim = FastSimulator(prog, config, threshold=threshold)
            exc, res = _outcome(lambda: _tiered(sim, until))
            if exc != full_exc:
                return (f"{label}: outcome {exc!r} vs reference "
                        f"{full_exc!r}")
            if res is None:
                continue
            for what, a, b in (
                ("stats", res.stats, full.stats),
                ("halted", res.halted, full.halted),
                ("memory", res.state.memory, full.state.memory),
                ("int_regs", res.state.int_regs, full.state.int_regs),
                ("fp_regs", res.state.fp_regs, full.state.fp_regs),
            ):
                if a != b:
                    return (f"{label}: {what} diverge: tiered {a!r} vs "
                            f"reference {b!r}")
    return None


def checker_soundness(program, config) -> str | None:
    """A program the checker passes with zero errors must not raise a
    (non arithmetic-fault) simulation error in the reference engine."""
    try:
        report = check_program(program, config)
    except ReproError as exc:
        return f"checker crashed: {type(exc).__name__}: {exc}"
    if report.errors:
        return None  # the checker made no soundness claim
    try:
        Simulator(program, config).run()
    except SimulationFault:
        return None  # data-dependent arithmetic fault; outside the claim
    except ReproError as exc:
        return (f"checker reported zero errors but the reference "
                f"simulator raised {type(exc).__name__}: {exc}")
    return None


def mutation_surfaced(original, mutant, config) -> str | None:
    """Checker completeness on a targeted mutation.

    When a mutation provably changes observable behavior (different final
    memory/registers, or a new fault), the static checker must surface a
    read-of-undefined family finding (RC001/RC002/UBD001) on the mutant.
    """
    base_exc, base = _outcome(lambda: Simulator(original, config).run())
    mut_exc, mut = _outcome(lambda: Simulator(mutant, config).run())
    changed = (base_exc != mut_exc) or (
        base is not None and mut is not None and (
            base.state.memory != mut.state.memory
            or base.state.int_regs != mut.state.int_regs
            or base.state.fp_regs != mut.state.fp_regs))
    if not changed:
        return None  # mutation was semantically neutral; nothing to flag
    try:
        report = check_program(mutant, config)
    except ReproError as exc:
        return f"checker crashed on mutant: {type(exc).__name__}: {exc}"
    hits = [f for f in report.findings
            if f.rule in ("RC001", "RC002", "UBD001")]
    if not hits:
        return ("mutation changed behavior but the checker surfaced no "
                "RC001/RC002/UBD001 finding")
    return None


def compile_determinism(module, config) -> str | None:
    """Byte-identical listings whether the profiling stage runs on the fast
    or the reference IR engine."""
    base_exc, base = _outcome(lambda: compile_module(module, config))
    exc, out = _outcome(lambda: compile_module(
        module, config, options=CompileOptions(ir_engine="reference")))
    if exc != base_exc:
        return (f"compile outcome differs: default {base_exc!r} "
                f"vs ir=reference {exc!r}")
    if out is None:
        return None
    where = "between default and ir=reference"
    if format_listing(out.program.instrs) != format_listing(
            base.program.instrs):
        return f"listing differs {where}"
    if out.program.targets != base.program.targets:
        return f"branch targets differ {where}"
    if out.program.entry != base.program.entry:
        return f"entry differs {where}"
    if out.program.initial_memory != base.program.initial_memory:
        return f"initial memory differs {where}"
    return None
