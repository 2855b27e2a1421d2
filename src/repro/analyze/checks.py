"""The analyses built on the CFG + dataflow core (``repro check``).

One combined abstract state is propagated forward through each function:

* per-class abstract mapping tables (:class:`repro.rc.abstract.AbstractMap`)
  under the machine's reset model — rules RC001/RC002/RC003/RC004;
* the stack-pointer delta (exact integer or unknown) — rule CC001;
* callee-save bookkeeping (written / pristine-saved / restored allocatable
  core registers) — rule CC002;
* the set of extended registers written since entry or the last call
  (extended registers are caller-saved) — rule CC003.  With a call graph
  available (and no trap handlers installed), a ``CALL`` only invalidates
  the callee's transitive extended-write footprint instead of everything.

A backward pass (:mod:`repro.analyze.liveness`) then solves mapping-slot
and extended-register liveness per function, feeding rules RC003 (dead
connect — now exact over reachable-but-never-read regions), RC005
(redundant connect) and RC006 (dead extended-register write).

After the fixpoint, a reporting pass replays each reachable block from its
fixed entry state and emits findings; a final whole-program pass flags dead
connects, unreadable extended writes, and structural CFG problems.  All
state joins are may-unions (map entries, written sets) or must-intersections
(saved/restored/fresh sets), chosen so that no rule fires on a path that the
machine cannot take — compiled benchmarks must come out clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.callgraph import CallGraph, build_callgraph
from repro.analyze.cfg import FuncCFG, ProgramCFG, build_cfg
from repro.analyze.dataflow import (
    DataflowResult,
    ForwardAnalysis,
    reg_bit,
    reg_items,
    reg_mask,
    solve_backward,
    solve_forward,
)
from repro.analyze.findings import AnalysisReport, Finding
from repro.analyze.liveness import LiveState, SlotLiveness, after_states
from repro.isa.opcodes import Opcode, falls_through
from repro.isa.registers import FP_RETVAL, INT_RETVAL, Imm, RClass
from repro.rc.abstract import AbstractMap
from repro.rc.models import HOME_RESET_OPS
from repro.sim.config import MachineConfig
from repro.sim.program import MachineProgram

_CLASSES = (RClass.INT, RClass.FP)

_RETVAL_MASK = reg_mask([(RClass.INT, INT_RETVAL.num),
                         (RClass.FP, FP_RETVAL.num)])


class _State:
    """The combined abstract state at one program point.

    The register-set components are int bitmasks over the
    :func:`repro.analyze.dataflow.reg_bit` encoding, so joins and equality
    checks are single integer operations.
    """

    __slots__ = ("maps", "sp", "written", "saved", "restored", "fresh",
                 "defined")

    def __init__(self, maps: dict[RClass, AbstractMap], sp: int | None,
                 written: int, saved: int, restored: int,
                 fresh: int, defined: int | None) -> None:
        self.maps = maps
        self.sp = sp  # allocated stack words; None = unknown
        self.written = written  # mask: allocatable core regs written
        self.saved = saved  # mask: pristine-stored to the frame
        self.restored = restored  # mask: reloaded from the frame
        self.fresh = fresh  # mask: extended regs valid across here
        #: Mask of physical registers holding a deliberately-written value
        #: on every path from the function entry; ``None`` means all of them
        #: (trap handlers run in an arbitrary caller context).
        self.defined = defined

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _State):
            return NotImplemented
        return (self.sp == other.sp and self.written == other.written
                and self.saved == other.saved
                and self.restored == other.restored
                and self.fresh == other.fresh
                and self.defined == other.defined and self.maps == other.maps)


class _Checker(ForwardAnalysis):
    """Transfer functions mirroring the simulator's per-instruction effects."""

    def __init__(self, program: MachineProgram, config: MachineConfig,
                 callgraph: CallGraph | None = None) -> None:
        self.program = program
        self.config = config
        self.callgraph = callgraph
        self.mapped = {
            cls: config.spec_for(cls) for cls in _CLASSES
            if config.spec_for(cls).has_rc
        }
        self.allocatable = {
            cls: frozenset(config.spec_for(cls).allocatable_core())
            for cls in _CLASSES
        }

    # -- resolution helpers ---------------------------------------------------

    def entries_of(self, cls: RClass) -> int:
        spec = self.mapped.get(cls)
        return spec.core if spec is not None else 0

    def read_entry(self, state: _State, cls: RClass, num: int):
        """Abstract (phys, site) set a source operand resolves to."""
        if num < self.entries_of(cls):
            return state.maps[cls].read_entry(num), True
        return frozenset({(num, None)}), False

    def write_entry(self, state: _State, cls: RClass, num: int):
        """Abstract (phys, site) set a destination operand resolves to."""
        if num < self.entries_of(cls):
            return state.maps[cls].write_entry(num), True
        return frozenset({(num, None)}), False

    # -- ForwardAnalysis interface --------------------------------------------

    def boundary(self, fn: FuncCFG) -> _State:
        maps = {cls: AbstractMap(spec.core, self.config.rc_model)
                for cls, spec in self.mapped.items()}
        # Only the stack pointer holds a meaningful value at entry (arguments
        # arrive on the stack); a trap handler inherits the interrupted
        # context, where any register may be live.
        defined = None if fn.is_handler else reg_mask([(RClass.INT, 0)])
        return _State(maps=maps, sp=0, written=0, saved=0, restored=0,
                      fresh=0, defined=defined)

    def copy(self, state: _State) -> _State:
        return _State(maps={cls: m.copy() for cls, m in state.maps.items()},
                      sp=state.sp, written=state.written, saved=state.saved,
                      restored=state.restored, fresh=state.fresh,
                      defined=state.defined)

    def join(self, a: _State, b: _State) -> _State:
        for cls, m in a.maps.items():
            m.join(b.maps[cls])
        a.sp = a.sp if a.sp == b.sp else None
        a.written = a.written | b.written
        a.saved = a.saved & b.saved
        a.restored = a.restored & b.restored
        a.fresh = a.fresh & b.fresh
        if a.defined is None:
            a.defined = b.defined
        elif b.defined is not None:
            a.defined = a.defined & b.defined
        return a

    def transfer(self, state: _State, index: int, instr) -> _State:
        op = instr.op

        if instr.is_connect:
            cls = instr.imm[0]
            if cls in self.mapped:
                amap = state.maps[cls]
                for _cls, which, ri, rp in instr.connect_updates():
                    if ri < amap.entries:
                        amap.connect(which, ri, rp,
                                     index if rp != ri else None)
            return state

        if op in HOME_RESET_OPS:
            for m in state.maps.values():
                m.reset_home()
            if op is Opcode.CALL:
                # Extended registers are caller-saved: the callee may
                # clobber any of them.  With a call graph (and no trap
                # handlers — an interrupt may run anywhere and clobber
                # anything), only the callee's transitive extended-write
                # footprint is invalidated.  The callee returns its result
                # in the return-value registers.
                if (self.callgraph is not None
                        and not self.program.trap_handlers):
                    state.fresh &= ~self.callgraph.may_write_at(index)
                else:
                    state.fresh = 0
                if state.defined is not None:
                    state.defined |= _RETVAL_MASK
            return state

        # Model 5: reads are one-shot connections.
        for src in instr.reg_srcs():
            if src.cls in self.mapped and src.num < self.entries_of(src.cls):
                state.maps[src.cls].after_read(src.num)

        self._track_frame(state, index, instr)

        dest = instr.dest
        if dest is not None:
            entry, mapped = self.write_entry(state, dest.cls, dest.num)
            targets = {p for p, _ in entry}
            core = self.config.spec_for(dest.cls).core
            alloc = self.allocatable[dest.cls]
            adds_written = reg_mask(
                (dest.cls, p) for p in targets if p in alloc)
            if adds_written:
                state.written |= adds_written
            adds_fresh = reg_mask(
                (dest.cls, p) for p in targets if p >= core)
            if adds_fresh:
                state.fresh |= adds_fresh
            if state.defined is not None and len(targets) == 1:
                # Only an unambiguous write is a definite definition.
                state.defined |= 1 << reg_bit(dest.cls, next(iter(targets)))
            if mapped:
                state.maps[dest.cls].after_write(dest.num)
        return state

    # -- frame / calling-convention tracking ----------------------------------

    def save_pattern(self, state: _State, instr) -> tuple | None:
        """Detect a callee-save store: a pristine allocatable core register
        stored to the frame.  Returns its ``(cls, phys)`` key or ``None``.

        The value operand of such a store legitimately reads a register this
        function never wrote (it preserves the *caller's* value), so the
        use-before-def rules exempt it.
        """
        if instr.op not in (Opcode.STORE, Opcode.FSTORE):
            return None
        value, base = instr.srcs
        if isinstance(value, Imm) or not self._sp_resolved_home(state, base):
            return None
        entry, _ = self.read_entry(state, value.cls, value.num)
        if len(entry) != 1:
            return None
        phys = next(iter(entry))[0]
        key = (value.cls, phys)
        if (phys in self.allocatable[value.cls]
                and not state.written >> reg_bit(*key) & 1):
            return key
        return None

    def _sp_resolved_home(self, state: _State, reg) -> bool:
        """Whether *reg* is the stack pointer resolving to its home slot."""
        if isinstance(reg, Imm) or reg.cls is not RClass.INT or reg.num != 0:
            return False
        entry, _ = self.read_entry(state, RClass.INT, 0)
        return entry == frozenset({(0, None)})

    def _track_frame(self, state: _State, index: int, instr) -> None:
        op = instr.op

        # Stack-pointer arithmetic: add/sub sp, sp, #k.
        dest = instr.dest
        if dest is not None and dest.cls is RClass.INT:
            wentry, _ = self.write_entry(state, dest.cls, dest.num)
            if any(p == 0 for p, _ in wentry):
                exact = (
                    op in (Opcode.ADD, Opcode.SUB)
                    and wentry == frozenset({(0, None)})
                    and len(instr.srcs) == 2
                    and not isinstance(instr.srcs[0], Imm)
                    and self._sp_resolved_home(state, instr.srcs[0])
                    and isinstance(instr.srcs[1], Imm)
                    and state.sp is not None
                )
                if exact:
                    delta = instr.srcs[1].value
                    state.sp = state.sp + (delta if op is Opcode.SUB
                                           else -delta)
                else:
                    state.sp = None

        # Callee-save discipline: a store of a not-yet-written allocatable
        # core register to the frame is a save; the matching load back is
        # its restore.
        if op in (Opcode.STORE, Opcode.FSTORE):
            key = self.save_pattern(state, instr)
            if key is not None:
                state.saved |= 1 << reg_bit(*key)
        elif op in (Opcode.LOAD, Opcode.FLOAD):
            base = instr.srcs[0]
            if not self._sp_resolved_home(state, base):
                return
            entry, _ = self.write_entry(state, instr.dest.cls, instr.dest.num)
            if len(entry) != 1:
                return
            phys = next(iter(entry))[0]
            bit = 1 << reg_bit(instr.dest.cls, phys)
            if state.saved & bit:
                state.restored |= bit


@dataclass
class _Collector:
    """Whole-program facts accumulated across the reporting walks."""

    #: (site, which, index) connect updates used by some resolved access.
    used_sites: set = field(default_factory=set)
    #: (cls, phys) extended registers some access can read.
    ext_readable: set = field(default_factory=set)
    #: first write site per written extended register: (cls, phys) -> (i, fn).
    ext_written: dict = field(default_factory=dict)


def check_program(program: MachineProgram,
                  config: MachineConfig) -> AnalysisReport:
    """Run every static check on *program* and return the report."""
    cfg = build_cfg(program)
    callgraph = build_callgraph(cfg, config) if config.has_rc else None
    checker = _Checker(program, config, callgraph=callgraph)
    results = [
        (fn, solve_forward(fn, checker, program.instrs))
        for fn in cfg.functions
    ]

    # Backward slot/extended liveness per function, with the extended
    # use/def masks resolved through the forward fixpoint (a mapped access
    # only "uses" an extended register via whatever its slot holds there).
    live_by_fn: dict[str, dict[int, LiveState]] = {}
    if config.has_rc:
        for fn, result in results:
            ext_use, ext_def = _ext_tables(checker, fn, result, callgraph)
            analysis = SlotLiveness(program, config,
                                    ext_use=ext_use, ext_def=ext_def)
            live_by_fn[fn.name] = after_states(
                solve_backward(fn, analysis, program.instrs))

    collect = _Collector()
    findings: set[Finding] = set()
    for fn, result in results:
        _report_function(checker, fn, result, collect, findings,
                         config, program)
        live = live_by_fn.get(fn.name)
        if live is not None and not program.trap_handlers:
            _report_dead_ext_writes(checker, fn, result, live, findings)

    _report_dead_connects(checker, cfg, live_by_fn, findings)
    _report_unreadable_ext(collect, findings)

    report = AnalysisReport(
        program_name=program.name,
        model=config.rc_model.value if config.has_rc else 0,
    )
    suppress = getattr(program, "suppressions", {})
    everywhere = suppress.get(-1, frozenset())
    for f in sorted(findings, key=lambda f: (f.index, f.rule, f.message)):
        if f.rule in everywhere or f.rule in suppress.get(f.index, ()):
            report.suppressed += 1
        else:
            report.findings.append(f)
    return report


def _report_function(checker: _Checker, fn: FuncCFG, result: DataflowResult,
                     collect: _Collector, findings: set[Finding],
                     config: MachineConfig, program: MachineProgram) -> None:
    core_of = {cls: config.spec_for(cls).core for cls in _CLASSES}
    latency = config.latency
    reachable = sorted(fn.reachable())

    def emit(rule: str, index: int, message: str) -> None:
        findings.add(Finding(rule=rule, index=index, function=fn.name,
                             message=message))

    def check_read(state: _State, i: int, reg,
                   exempt_ubd: bool = False) -> frozenset:
        """Check one source operand; returns its possible physical regs."""
        entry, mapped = checker.read_entry(state, reg.cls, reg.num)
        physset = frozenset(p for p, _ in entry)
        core = core_of[reg.cls]
        for p, site in entry:
            if site is not None:
                collect.used_sites.add((site, "read", reg.num))
            if p >= core:
                collect.ext_readable.add((reg.cls, p))
        defined = state.defined
        garbage = (defined is not None and not exempt_ubd
                   and not any(defined >> reg_bit(reg.cls, p) & 1
                               for p in physset))
        if mapped:
            if len(physset) > 1:
                alts = ",".join(str(p) for p in sorted(physset))
                emit("RC002", i,
                     f"read of {reg!r} is path-dependent (may resolve to "
                     f"physical {alts})")
            if garbage:
                emit("RC001", i,
                     f"read of {reg!r} resolves to physical "
                     f"{min(physset)} which holds no value written on any "
                     f"path from function entry")
        elif garbage:
            emit("UBD001", i,
                 f"read of {reg!r} before any definition reaches it")
        if not garbage and defined is not None:
            stale = sorted(p for p in physset
                           if p >= core
                           and not state.fresh >> reg_bit(reg.cls, p) & 1)
            if stale:
                emit("CC003", i,
                     f"read of extended physical {stale[0]} "
                     f"({reg.cls.value}) which a call may have clobbered")
        return physset

    def check_block(block) -> None:
        # (index, cls, physical targets, latency) of recent producers.
        producers: list[tuple[int, RClass, frozenset, int]] = []

        def visit(state: _State, i: int, instr) -> None:
            op = instr.op
            if instr.is_connect:
                cls = instr.imm[0]
                core = core_of[cls]
                for _cls, which, _ri, rp in instr.connect_updates():
                    if which == "read" and rp >= core:
                        collect.ext_readable.add((cls, rp))
                # RC005: an update whose slot already holds exactly the
                # requested physical register on every path in is a no-op.
                # Walk the updates over a scratch copy so the second update
                # of a combined connect sees the first.
                if cls in checker.mapped:
                    scratch = state.maps[cls].copy()
                    for _cls, which, ri, rp in instr.connect_updates():
                        if ri >= scratch.entries:
                            continue
                        entry = (scratch.read_entry(ri) if which == "read"
                                 else scratch.write_entry(ri))
                        if {p for p, _ in entry} == {rp}:
                            emit("RC005", i,
                                 f"connect of index {ri} to physical {rp} "
                                 f"({which} map) is redundant (slot already "
                                 f"holds it on every path in)")
                        scratch.connect(which, ri, rp, None)
                return
            save_key = checker.save_pattern(state, instr)
            src_phys: dict[RClass, set] = {}
            for src in instr.reg_srcs():
                exempt = save_key is not None and src is instr.srcs[0]
                physset = check_read(state, i, src, exempt_ubd=exempt)
                src_phys.setdefault(src.cls, set()).update(physset)
            for pi, pcls, pset, lat in producers:
                if i - pi < lat and src_phys.get(pcls, set()) & pset:
                    emit("LAT001", i,
                         f"depends on @{pi} ({program.instrs[pi].op.value}, "
                         f"latency {lat}) at distance {i - pi}")
            dest = instr.dest
            if dest is not None:
                entry, _ = checker.write_entry(state, dest.cls, dest.num)
                for p, site in entry:
                    if site is not None:
                        collect.used_sites.add((site, "write", dest.num))
                targets = frozenset(p for p, _ in entry)
                ext = sorted(p for p in targets if p >= core_of[dest.cls])
                for p in ext:
                    collect.ext_written.setdefault((dest.cls, p), (i, fn.name))
                lat = latency.of(op)
                if lat > 1:
                    producers.append((i, dest.cls, targets, lat))
            if op is Opcode.RET:
                if state.sp not in (None, 0):
                    emit("CC001", i,
                         f"stack delta is {state.sp} words at return")
                if not fn.is_entry and not fn.is_handler:
                    unrestored = reg_items(state.written & ~state.restored)
                    for cls, p in sorted(unrestored,
                                         key=lambda k: (k[0].value, k[1])):
                        emit("CC002", i,
                             f"callee-saved {'r' if cls is RClass.INT else 'f'}"
                             f"{p} modified but not restored before return")

        result.walk(fn.blocks[block], visit)

    for start in reachable:
        check_block(start)

    # Structural: control must not run off the end of the program, nor fall
    # through the end of a compiler-delimited function body.
    for start in reachable:
        block = fn.blocks[start]
        if block.falls_off_end:
            emit("CFG001", block.end - 1,
                 "control can fall off the end of the program")
        elif program.func_ranges:
            _lo, hi = program.func_ranges[fn.name]
            last_op = program.instrs[block.end - 1].op
            if block.end == hi and falls_through(last_op):
                emit("CFG001", block.end - 1,
                     f"control falls through the end of function {fn.name}")


def _ext_tables(checker: _Checker, fn: FuncCFG, result: DataflowResult,
                callgraph: CallGraph | None
                ) -> tuple[dict[int, int], dict[int, int]]:
    """Per-instruction extended-register use/def masks for liveness.

    The forward fixpoint resolves every mapped operand to its possible
    physical registers, so the backward pass knows that e.g. a read through
    a slot holding physical 70 keeps extended register 70 live.  Defs only
    record *definite* (single-target) extended writes — an ambiguous write
    must not kill liveness.  ``CALL`` sites use the callee's transitive
    may-read summary.
    """
    ext_use: dict[int, int] = {}
    ext_def: dict[int, int] = {}
    core_of = {cls: checker.config.spec_for(cls).core for cls in _CLASSES}

    def visit(state: _State, i: int, instr) -> None:
        if instr.is_connect:
            return
        if instr.op is Opcode.CALL:
            if callgraph is not None:
                mask = callgraph.may_read_at(i)
                if mask:
                    ext_use[i] = mask
            return
        use = 0
        for src in instr.reg_srcs():
            entry, _ = checker.read_entry(state, src.cls, src.num)
            for p, _site in entry:
                if p >= core_of[src.cls]:
                    use |= 1 << reg_bit(src.cls, p)
        if use:
            ext_use[i] = use
        dest = instr.dest
        if dest is not None:
            entry, _ = checker.write_entry(state, dest.cls, dest.num)
            targets = {p for p, _ in entry}
            if len(targets) == 1:
                p = next(iter(targets))
                if p >= core_of[dest.cls]:
                    ext_def[i] = 1 << reg_bit(dest.cls, p)

    for start in sorted(fn.reachable()):
        result.walk(fn.blocks[start], visit)
    return ext_use, ext_def


def _report_dead_ext_writes(checker: _Checker, fn: FuncCFG,
                            result: DataflowResult,
                            live: dict[int, LiveState],
                            findings: set[Finding]) -> None:
    """RC006: definite extended-register writes whose value is never read."""
    core_of = {cls: checker.config.spec_for(cls).core for cls in _CLASSES}

    def visit(state: _State, i: int, instr) -> None:
        dest = instr.dest
        if dest is None or instr.is_connect or i not in live:
            return
        entry, _ = checker.write_entry(state, dest.cls, dest.num)
        targets = {p for p, _ in entry}
        if len(targets) != 1:
            return
        p = next(iter(targets))
        if p < core_of[dest.cls]:
            return
        if not live[i][2] >> reg_bit(dest.cls, p) & 1:
            findings.add(Finding(
                rule="RC006", index=i, function=fn.name,
                message=(f"write of {dest!r} lands in extended physical "
                         f"{p} ({dest.cls.value}) which is never read "
                         f"afterwards"),
            ))

    for start in sorted(fn.reachable()):
        result.walk(fn.blocks[start], visit)


def _report_dead_connects(checker: _Checker, cfg: ProgramCFG,
                          live_by_fn: dict[str, dict[int, LiveState]],
                          findings: set[Finding]) -> None:
    """RC003: connects none of whose non-home updates can be observed.

    Decided by backward slot liveness: an update is dead when its slot is
    overwritten or reset on every path before any access resolves through
    it — including connects inside reachable-but-never-read regions, which
    the earlier forward used-site bookkeeping silently skipped.  Connects
    outside every recovered function never execute at all and stay out of
    scope here (they are unreachable code, not a live-but-dead mapping).
    """
    program = cfg.program
    for i, instr in enumerate(program.instrs):
        if not instr.is_connect:
            continue
        start = _containing_block(cfg, i)
        block = cfg.block_at[start] if start is not None else None
        if block is None or not block.func:
            continue  # outside every function: unreachable code
        live = live_by_fn.get(block.func)
        if live is None or i not in live:
            continue
        cls = instr.imm[0]
        entries = checker.entries_of(cls)
        rmap, wmap, _ext = live[i]
        updates = instr.connect_updates()
        dead: dict[int, tuple] = {}
        redefined: set[tuple[str, int]] = set()
        for pos in range(len(updates) - 1, -1, -1):
            _cls, which, ri, rp = updates[pos]
            if ri >= entries:
                continue
            bit = 1 << reg_bit(cls, ri)
            alive = (rmap if which == "read" else wmap) & bit
            if (which, ri) in redefined or not alive:
                dead[pos] = (which, ri, rp)
            redefined.add((which, ri))
        non_home = [pos for pos, (_cls, _which, ri, rp) in enumerate(updates)
                    if rp != ri]
        if not non_home:
            continue  # pure home-restore
        if all(pos in dead for pos in non_home):
            which, ri, rp = dead[non_home[0]]
            findings.add(Finding(
                rule="RC003", index=i, function=block.func,
                message=(f"connect of index {ri} to physical {rp} "
                         f"({which} map) is never used before being reset "
                         f"or remapped"),
            ))


def _containing_block(cfg: ProgramCFG, index: int) -> int | None:
    for start, block in cfg.block_at.items():
        if block.start <= index < block.end:
            return start
    return None


def _report_unreadable_ext(collect: _Collector,
                           findings: set[Finding]) -> None:
    """RC004: extended registers written but unreadable everywhere."""
    for (cls, p), (i, fn_name) in sorted(
            collect.ext_written.items(),
            key=lambda kv: kv[1][0]):
        if (cls, p) not in collect.ext_readable:
            findings.add(Finding(
                rule="RC004", index=i, function=fn_name,
                message=(f"extended physical {p} ({cls.value}) is written "
                         f"but never readable (no direct read and never a "
                         f"connect-use target)"),
            ))
