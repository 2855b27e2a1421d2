"""Cycle-level, execution-driven simulator of the superscalar core.

Microarchitectural model (paper section 5.2 and Figure 1):

* in-order multi-issue (1/2/4/8-wide) with homogeneous pipelined function
  units: any combination of instructions may issue together, except that
  memory operations are limited to ``mem_channels`` per cycle;
* deterministic latencies (Table 1) with CRAY-1 style register interlocking:
  an instruction issues only when its source registers are ready and its
  destination register has no write in flight;
* RC decode path: register indices are translated through the register
  mapping table before the register file access; connect instructions update
  the table with configurable 0- or 1-cycle effective latency (section 2.4 —
  zero-cycle latency models the dispatch-stage forwarding of Figures 5/6);
* static branch prediction from compiler hints (profile-driven) with a
  backward-taken fallback; a misprediction redirect costs one cycle, plus one
  more when the optional extra decode/dispatch stage for the mapping table is
  configured (Figure 12);
* ``jsr``/``rts`` (CALL/RET) reset the mapping table to home locations
  (section 4.1); traps clear the PSW map-enable flag so handlers bypass the
  map, and ``rte`` restores it (section 4.3).

Values are computed at issue time through the shared semantics module, so a
run is execution-driven: the simulator produces the program's actual outputs,
which tests compare against the IR interpreter's golden results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import CycleBudgetError, SimulationError
from repro.isa.opcodes import Category, Opcode
from repro.isa.registers import Imm, PhysReg, RClass
from repro.isa.semantics import ALU_FUNCS, BRANCH_FUNCS
from repro.rc.psw import PSW
from repro.sim.config import MachineConfig
from repro.sim.machine import MachineState
from repro.sim.program import MachineProgram
from repro.sim.stats import SimStats

# Decoded instruction kinds.
K_ALU, K_LI, K_LOAD, K_STORE, K_CBR, K_JMP, K_CALL, K_RET, K_HALT, \
    K_CONNECT, K_TRAP, K_RTE, K_MFPSW, K_MTPSW, K_MFMAP, K_NOP = range(16)

_SRC_IMM, _SRC_INT, _SRC_FP = 0, 1, 2

#: Categories by the int index ``_Dec.cat``: the issue loop counts into a
#: list by index, since hashing an enum key runs Python-level ``__hash__``.
_CATEGORIES = tuple(Category)
_CAT_INDEX = {c: i for i, c in enumerate(_CATEGORIES)}

_KIND_BY_OP = {
    Opcode.LI: K_LI, Opcode.LIF: K_LI,
    Opcode.LOAD: K_LOAD, Opcode.FLOAD: K_LOAD,
    Opcode.STORE: K_STORE, Opcode.FSTORE: K_STORE,
    Opcode.JMP: K_JMP, Opcode.CALL: K_CALL, Opcode.RET: K_RET,
    Opcode.HALT: K_HALT,
    Opcode.CUSE: K_CONNECT, Opcode.CDEF: K_CONNECT, Opcode.CUU: K_CONNECT,
    Opcode.CDU: K_CONNECT, Opcode.CDD: K_CONNECT,
    Opcode.TRAP: K_TRAP, Opcode.RTE: K_RTE,
    Opcode.MFPSW: K_MFPSW, Opcode.MTPSW: K_MTPSW, Opcode.MFMAP: K_MFMAP,
    Opcode.NOP: K_NOP,
}


class _Dec:
    """A decoded instruction: everything the issue loop needs, precomputed."""

    __slots__ = ("kind", "op", "category", "cat", "srcs", "dest", "imm",
                 "latency", "target", "pred_taken", "alu", "brf", "updates",
                 "origin")

    def __init__(self) -> None:
        self.updates = None
        self.alu = None
        self.brf = None
        self.pred_taken = False
        self.target = None


#: Sentinel distinguishing "no default supplied" from ``default=None``.
_UNWRITTEN = object()


@dataclass
class SimResult:
    """Outcome of one simulation run (or run segment, when resumable).

    ``engine`` names the engine that produced the result: ``"reference"``,
    ``"fast"`` (any block ran as generated code, see
    :mod:`repro.sim.fastpath`) or ``"batched"`` (a gang follower's replay).
    ``handoff_cycle`` is the cycle at which generated code first ran in a
    fast run that began on the reference engine, ``None`` when the run
    began on generated code or never ran any.  Neither takes part in
    equality.
    """

    stats: SimStats
    state: MachineState
    halted: bool = True
    engine: str = field(default="reference", compare=False)
    handoff_cycle: int | None = field(default=None, compare=False)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def load_word(self, addr: int, default: object = _UNWRITTEN) -> int | float:
        """Read back a memory word from the final machine state.

        Raises :class:`SimulationError` when *addr* was never written during
        the run (unless *default* is given) — a silent 0 here can mask a
        checksum-address typo in a new workload.
        """
        try:
            return self.state.memory[addr]
        except KeyError:
            if default is not _UNWRITTEN:
                return default  # type: ignore[return-value]
            raise SimulationError(
                f"load_word({addr}): address was never written during the "
                f"run (pass default= to allow unwritten reads)"
            ) from None


class Simulator:
    """Simulates one :class:`MachineProgram` on one machine configuration."""

    def __init__(self, program: MachineProgram, config: MachineConfig,
                 observer=None, *, decoded=None) -> None:
        self.program = program
        self.config = config
        self.state = MachineState(config, program.initial_memory)
        self.state.int_regs[0] = program.initial_sp  # r0 = SP
        # Decode depends only on (program, latency table, register specs) —
        # never on width, RC model, or pipeline knobs — so a caller sweeping
        # those axes may pass a prior simulator's decode list instead of
        # re-decoding (entries are write-once; see _decode).
        if decoded is not None:
            self._decoded = decoded
        else:
            self._decoded = [self._decode(i, instr)
                             for i, instr in enumerate(program.instrs)]
        #: externally scheduled interrupts: sorted (cycle, vector) pairs.
        self._interrupts: list[tuple[int, int]] = []
        #: optional structured-event sink (:class:`repro.observe.Observer`);
        #: hooks are guarded by a single ``is not None`` test and only read
        #: simulation state, so observation never perturbs results.
        self.observer = observer
        # Resumable microarchitectural state, carried across run() segments
        # (and adopted by the fast engine, which resumes from it).
        state = self.state
        self._stats = SimStats()
        self._iready = [0] * len(state.int_regs)
        self._fready = [0] * len(state.fp_regs)
        ient = config.int_spec.core if state.int_table is not None else 0
        fent = config.fp_spec.core if state.fp_table is not None else 0
        self._imr_r = [0] * ient
        self._imr_w = [0] * ient
        self._fmr_r = [0] * fent
        self._fmr_w = [0] * fent
        self._pc = program.entry
        self._cycle = 0
        self._halted = False
        #: per-category issue counts by ``_Dec.cat``, folded into the stats
        #: by :meth:`_fold_categories` (hashing the enum per issue costs more)
        self._cat_counts = [0] * len(_CATEGORIES)
        #: set while a segment runs and left set if it raises: registers
        #: and memory are then half-updated, so neither engine resumes.
        self._failed = False

    # -- decoding ---------------------------------------------------------------

    def _decode(self, index: int, instr) -> _Dec:
        config = self.config
        d = _Dec()
        d.op = instr.op
        d.category = instr.category
        d.cat = _CAT_INDEX[d.category]
        d.imm = instr.imm
        d.origin = instr.origin
        d.kind = _KIND_BY_OP.get(instr.op, K_ALU)
        if instr.is_cond_branch:
            d.kind = K_CBR
            d.brf = BRANCH_FUNCS[instr.op]
        if d.kind == K_ALU:
            d.alu = ALU_FUNCS[instr.op]
        d.latency = config.latency.of(instr.op)
        d.target = self.program.targets[index]
        if d.kind == K_CBR:
            if instr.hint_taken is not None:
                d.pred_taken = instr.hint_taken
            else:
                d.pred_taken = d.target is not None and d.target <= index

        srcs = []
        for s in instr.srcs:
            if isinstance(s, Imm):
                srcs.append((_SRC_IMM, s.value))
            else:
                self._check_reg(index, s)
                srcs.append((_SRC_INT if s.cls is RClass.INT else _SRC_FP,
                             s.num))
        d.srcs = tuple(srcs)
        if instr.dest is not None:
            self._check_reg(index, instr.dest)
            d.dest = (instr.dest.cls is RClass.INT, instr.dest.num)
        else:
            d.dest = None
        if d.kind == K_CONNECT:
            d.updates = instr.connect_updates()
            for rclass, _which, idx, phys in d.updates:
                spec = config.spec_for(rclass)
                if not spec.has_rc:
                    raise SimulationError(
                        f"instr {index}: connect on a machine without RC "
                        f"support for the {rclass.value} file"
                    )
                if not 0 <= idx < spec.core or not 0 <= phys < spec.total:
                    raise SimulationError(
                        f"instr {index}: connect operand out of range"
                    )
        return d

    def _check_reg(self, index: int, reg: PhysReg) -> None:
        spec = self.config.spec_for(reg.cls)
        limit = spec.core  # the encodable operand field covers core indices
        if not 0 <= reg.num < limit:
            raise SimulationError(
                f"instr {index}: register {reg!r} not addressable with a "
                f"{limit}-entry {reg.cls.value} operand field"
            )
        if reg.cls is RClass.FP and reg.num % 2 != 0:
            raise SimulationError(
                f"instr {index}: FP operand {reg!r} is not pair-aligned"
            )

    # -- stall diagnosis (cold path, observer only) -------------------------------

    def _blocking_source(self, d, cycle: int, map_en: bool):
        """Identify which register set the interlock bound for *d*.

        Mirrors the operand-resolution walk of :meth:`run` (first strict
        maximum wins, in source-then-destination order) so the attributed
        register is exactly the one whose ready time became ``next_cycle``.
        Returns ``(cause, rclass, index)`` where cause is ``"map"`` for a
        mapping-table entry still being updated by a connect in flight, or
        ``"raw"`` for a register write in flight (CRAY-1 interlock).
        """
        state = self.state
        iready, fready = self._iready, self._fready
        itab, ftab = state.int_table, state.fp_table
        imr_r, imr_w = self._imr_r, self._imr_w
        fmr_r, fmr_w = self._fmr_r, self._fmr_w
        ient, fent = len(imr_r), len(fmr_r)
        best = cycle
        found = ("raw", RClass.INT, 0)
        for mode, payload in d.srcs:
            if mode == _SRC_IMM:
                continue
            if mode == _SRC_INT:
                if map_en and payload < ient:
                    r = imr_r[payload]
                    if r > best:
                        best, found = r, ("map", RClass.INT, payload)
                    phys = itab.read_map[payload]
                else:
                    phys = payload
                r = iready[phys]
                if r > best:
                    best, found = r, ("raw", RClass.INT, phys)
            else:
                if map_en and payload < fent:
                    r = fmr_r[payload]
                    if r > best:
                        best, found = r, ("map", RClass.FP, payload)
                    phys = ftab.read_map[payload]
                else:
                    phys = payload
                r = fready[phys]
                if r > best:
                    best, found = r, ("raw", RClass.FP, phys)
        dest = d.dest
        if dest is not None:
            dest_is_int, num = dest
            if dest_is_int:
                if map_en and num < ient:
                    r = imr_w[num]
                    if r > best:
                        best, found = r, ("map", RClass.INT, num)
                    physd = itab.write_map[num]
                else:
                    physd = num
                r = iready[physd]
                if r > best:
                    best, found = r, ("raw", RClass.INT, physd)
            else:
                if map_en and num < fent:
                    r = fmr_w[num]
                    if r > best:
                        best, found = r, ("map", RClass.FP, num)
                    physd = ftab.write_map[num]
                else:
                    physd = num
                r = fready[physd]
                if r > best:
                    best, found = r, ("raw", RClass.FP, physd)
        return found

    # -- interrupt injection (section 4.3) ----------------------------------------

    def schedule_interrupt(self, cycle: int, vector: int) -> None:
        """Deliver an external interrupt at the start of *cycle*."""
        heapq.heappush(self._interrupts, (cycle, vector))

    # -- main loop ----------------------------------------------------------------

    def run(self, until_cycle: int | None = None) -> SimResult:
        """Simulate until the program halts, or until *until_cycle*.

        The simulator is resumable: a call with ``until_cycle`` set returns
        a :class:`SimResult` with ``halted=False`` when the program is still
        running; a subsequent ``run()`` continues from the same
        microarchitectural state (used by the time-sharing OS model to
        exercise context switching, paper section 4.2).
        """
        if self._failed:
            raise SimulationError(
                "cannot resume a simulator after a failed run: "
                "architectural state is no longer consistent")
        # Poison the resume state until this segment completes cleanly; an
        # exception below leaves registers/memory half-updated and the
        # per-segment locals unsaved, so resuming would silently produce
        # garbage (and would diverge from the fast engine, which restarts).
        self._failed = True
        pc, cycle, halted = self._pc, self._cycle, self._halted
        if not halted:
            pc, cycle, _, _, _, _, halted = self.step(
                pc, cycle, 0, 0, False, self.state.psw.map_enable,
                until_cycle=until_cycle)
        self._fold_categories()
        stats = self._stats
        stats.cycles = cycle
        self._failed = False
        self._pc = pc
        self._cycle = cycle
        self._halted = halted
        return SimResult(stats=stats, state=self.state, halted=halted)

    def _fold_categories(self) -> None:
        """Fold the issue loop's per-category counts into the stats."""
        counts = self._cat_counts
        by_category = self._stats.by_category
        for i, count in enumerate(counts):
            if count:
                by_category[_CATEGORIES[i]] += count
                counts[i] = 0

    def step(self, pc: int, cycle: int, issued: int, mem_used: int,
             store_seen, map_en: bool, left: list[int] | None = None,
             until_cycle: int | None = None) -> tuple:
        """The issue loop, entered at *pc* with the issue group of
        *cycle* open: *issued* instructions, *mem_used* memory channels,
        *store_seen* a store among them, and mapping on iff *map_en*.

        This is the block-entry step of the fast engine's driver
        (:mod:`repro.sim.fastpath`): it takes the arguments of a generated
        block function and returns the same 7-tuple ``(pc, cycle, issued,
        mem_used, store_seen, map_en, halted)``.  With *left* given, every
        instruction fetch first counts down ``left[pc]``, and the step
        returns at the fetch of a pc whose count is already spent, with its
        group still open; a retry of an instruction that did not issue is
        not a new fetch.  :meth:`run` is this loop with no *left*, from a
        cycle boundary, until the program halts or reaches *until_cycle*;
        then the returned group is empty.

        Counters accumulate onto the simulator's stats; the per-category
        counts wait in ``_cat_counts`` for :meth:`_fold_categories`.
        """
        config = self.config
        state = self.state
        program = self.program
        dec = self._decoded
        stats = self._stats

        iregs = state.int_regs
        fregs = state.fp_regs
        memory = state.memory
        iready = self._iready
        fready = self._fready
        itab = state.int_table
        ftab = state.fp_table
        ient = len(self._imr_r)
        fent = len(self._fmr_r)
        imr_r = self._imr_r
        imr_w = self._imr_w
        fmr_r = self._fmr_r
        fmr_w = self._fmr_w
        connect_lat = config.latency.connect
        width = config.issue_width
        channels = config.mem_channels
        redirect = config.redirect_penalty
        max_cycles = config.max_cycles
        read_reset = bool(config.rc_model.on_read)
        cat_counts = self._cat_counts
        by_origin = stats.by_origin

        obs = self.observer
        # An observer that sets ``on_stall = None`` wants no stall
        # diagnosis: the interlock then skips ``_blocking_source``.
        on_stall = None if obs is None else obs.on_stall
        psw = state.psw
        halted = False
        pending = self._interrupts
        n_instrs = len(dec)
        fetched = -1  # the pc whose fetch *left* last counted

        while True:
            if not issued:
                # A cycle boundary: no group is open.
                if halted or (until_cycle is not None
                              and cycle >= until_cycle):
                    break
                if cycle > max_cycles:
                    raise CycleBudgetError(
                        f"exceeded {max_cycles} cycles at pc={pc}"
                    )
                # External interrupt delivery at cycle boundaries (masked
                # while a trap is in progress).
                if (pending and pending[0][0] <= cycle
                        and not state.trap_stack):
                    _, vector = heapq.heappop(pending)
                    handler = program.trap_handlers.get(vector)
                    if handler is None:
                        raise SimulationError(
                            f"no handler for interrupt {vector}")
                    state.trap_stack.append((psw.pack(), pc))
                    psw.map_enable = False
                    map_en = False
                    stats.interrupts += 1
                    stats.redirect_cycles += redirect
                    if obs is not None:
                        obs.on_redirect(cycle, pc, "interrupt", redirect)
                        obs.on_map_reset(cycle, pc, "interrupt")
                    pc = handler
                    cycle += redirect
            next_cycle = cycle + 1

            while issued < width:
                if pc >= n_instrs:
                    raise SimulationError(f"fell off program end at pc={pc}")
                if left is not None and pc != fetched:
                    count = left[pc]
                    if count <= 0:
                        return (pc, cycle, issued, mem_used, store_seen,
                                map_en, False)
                    left[pc] = count - 1
                    fetched = pc
                d = dec[pc]
                kind = d.kind

                # ---- operand resolution through the mapping table ----
                block = 0
                vals = []
                for mode, payload in d.srcs:
                    if mode == _SRC_IMM:
                        vals.append(payload)
                    elif mode == _SRC_INT:
                        if map_en and payload < ient:
                            r = imr_r[payload]
                            if r > cycle:
                                block = r if r > block else block
                            phys = itab.read_map[payload]
                        else:
                            phys = payload
                        r = iready[phys]
                        if r > cycle:
                            block = r if r > block else block
                        vals.append(iregs[phys])
                    else:
                        if map_en and payload < fent:
                            r = fmr_r[payload]
                            if r > cycle:
                                block = r if r > block else block
                            phys = ftab.read_map[payload]
                        else:
                            phys = payload
                        r = fready[phys]
                        if r > cycle:
                            block = r if r > block else block
                        vals.append(fregs[phys])

                dest = d.dest
                if dest is not None:
                    dest_is_int, num = dest
                    if dest_is_int:
                        if map_en and num < ient:
                            r = imr_w[num]
                            if r > cycle:
                                block = r if r > block else block
                            physd = itab.write_map[num]
                        else:
                            physd = num
                        r = iready[physd]
                    else:
                        if map_en and num < fent:
                            r = fmr_w[num]
                            if r > cycle:
                                block = r if r > block else block
                            physd = ftab.write_map[num]
                        else:
                            physd = num
                        r = fready[physd]
                    if r > cycle:
                        block = r if r > block else block

                if block > cycle:
                    # CRAY-1 interlock: in-order issue stalls here.
                    if issued == 0:
                        next_cycle = block
                        if on_stall is not None:
                            cause, rcls, ridx = self._blocking_source(
                                d, cycle, map_en)
                            on_stall(cycle, block - cycle, pc, cause,
                                     rcls, ridx, d.origin, d.category)
                    break

                # ---- structural hazards ----
                if kind == K_LOAD or kind == K_STORE:
                    if mem_used >= channels:
                        stats.mem_channel_stalls += 1
                        if obs is not None:
                            obs.on_mem_stall(cycle, pc)
                        break
                    if kind == K_LOAD and store_seen:
                        break  # conservative same-cycle store->load ordering
                    mem_used += 1

                # ---- execute ----
                issued += 1
                fetched = -1
                stats.instructions += 1
                cat_counts[d.cat] += 1
                by_origin[d.origin] += 1
                if obs is not None:
                    obs.on_issue(cycle, pc, issued - 1)
                if read_reset and map_en:
                    # The model's moves after a read (model 5: one-shot
                    # read connections).
                    for mode, payload in d.srcs:
                        if mode == _SRC_INT and payload < ient:
                            itab.after_read(payload)
                        elif mode == _SRC_FP and payload < fent:
                            ftab.after_read(payload)
                advance = True  # advance pc to pc+1 unless control flow

                if kind == K_ALU:
                    value = d.alu(*vals)
                elif kind == K_LI:
                    value = d.imm
                elif kind == K_LOAD:
                    value = memory.get(vals[0] + d.imm,
                                       0 if dest[0] else 0.0)
                elif kind == K_STORE:
                    memory[vals[1] + d.imm] = vals[0]
                    store_seen = True
                    value = None
                elif kind == K_CBR:
                    stats.branches += 1
                    taken = d.brf(*vals)
                    mispredict = taken != d.pred_taken
                    if mispredict:
                        stats.mispredicts += 1
                        if obs is not None:
                            obs.on_redirect(cycle, pc, "mispredict", redirect)
                    pc = d.target if taken else pc + 1
                    advance = False
                    if mispredict:
                        stats.redirect_cycles += redirect
                        next_cycle = cycle + 1 + redirect
                        break
                    if taken:
                        break  # cannot fetch past a taken branch this cycle
                    continue
                elif kind == K_JMP:
                    pc = d.target
                    advance = False
                    break
                elif kind == K_CALL:
                    state.ra_stack.append(pc + 1)
                    state.reset_maps_home()
                    if obs is not None:
                        obs.on_map_reset(cycle, pc, "call")
                    pc = d.target
                    advance = False
                    break
                elif kind == K_RET:
                    if not state.ra_stack:
                        raise SimulationError("ret with empty RA stack")
                    state.reset_maps_home()
                    if obs is not None:
                        obs.on_map_reset(cycle, pc, "ret")
                    pc = state.ra_stack.pop()
                    advance = False
                    break
                elif kind == K_HALT:
                    halted = True
                    advance = False
                    break
                elif kind == K_CONNECT:
                    ready_at = cycle + connect_lat
                    for rclass, which, idx, phys in d.updates:
                        if rclass is RClass.INT:
                            itab.apply(which, idx, phys)
                            if which == "read":
                                imr_r[idx] = ready_at
                            else:
                                imr_w[idx] = ready_at
                        else:
                            ftab.apply(which, idx, phys)
                            if which == "read":
                                fmr_r[idx] = ready_at
                            else:
                                fmr_w[idx] = ready_at
                    if obs is not None:
                        obs.on_connect(cycle, pc, connect_lat == 0, d.updates)
                    pc += 1
                    continue
                elif kind == K_TRAP:
                    handler = program.trap_handlers.get(d.imm)
                    if handler is None:
                        raise SimulationError(f"no handler for trap {d.imm}")
                    state.trap_stack.append((psw.pack(), pc + 1))
                    psw.map_enable = False
                    map_en = False
                    if obs is not None:
                        obs.on_redirect(cycle, pc, "trap", redirect)
                        obs.on_map_reset(cycle, pc, "trap")
                    pc = handler
                    advance = False
                    stats.redirect_cycles += redirect
                    next_cycle = cycle + 1 + redirect
                    break
                elif kind == K_RTE:
                    if not state.trap_stack:
                        raise SimulationError("rte with empty trap stack")
                    packed, ret_pc = state.trap_stack.pop()
                    restored = PSW.unpack(packed)
                    psw.map_enable = restored.map_enable
                    psw.rc_mode = restored.rc_mode
                    map_en = psw.map_enable
                    if obs is not None:
                        obs.on_redirect(cycle, pc, "rte", redirect)
                    pc = ret_pc
                    advance = False
                    stats.redirect_cycles += redirect
                    next_cycle = cycle + 1 + redirect
                    break
                elif kind == K_MFPSW:
                    value = psw.pack()
                elif kind == K_MTPSW:
                    updated = PSW.unpack(vals[0])
                    psw.map_enable = updated.map_enable
                    psw.rc_mode = updated.rc_mode
                    map_en = psw.map_enable
                    value = None
                elif kind == K_MFMAP:
                    rclass, idx, which = d.imm
                    table = itab if rclass is RClass.INT else ftab
                    if table is None:
                        raise SimulationError("mfmap without a mapping table")
                    value = (table.read_map[idx] if which == "read"
                             else table.write_map[idx])
                else:  # K_NOP
                    value = None

                if dest is not None and value is not None:
                    if dest[0]:
                        iregs[physd] = value
                        iready[physd] = cycle + d.latency
                        if map_en and dest[1] < ient:
                            itab.after_write(dest[1])
                    else:
                        fregs[physd] = value
                        fready[physd] = cycle + d.latency
                        if map_en and dest[1] < fent:
                            ftab.after_write(dest[1])
                if advance:
                    pc += 1

            if issued == 0:
                stats.zero_issue_cycles += next_cycle - cycle
            cycle = next_cycle
            issued = 0
            mem_used = 0
            store_seen = False

        return pc, cycle, 0, 0, False, map_en, halted


def simulate(program: MachineProgram, config: MachineConfig,
             engine: str | None = None) -> SimResult:
    """Convenience wrapper: build a simulator and run it.

    ``engine`` selects the execution engine: ``"fast"`` (hot-block code
    generation: the run starts on the reference engine's block step, and
    each block is generated and compiled at its
    :data:`~repro.sim.fastpath.HOT_ENTRIES`-th entry, then runs as
    specialized code from there on, bit-exact with the reference; see
    :mod:`repro.sim.fastpath`) or ``"reference"``.  ``None`` defers to the ``REPRO_ENGINE`` environment variable and
    defaults to the fast engine.
    """
    from repro.sim.config import resolve_engine

    resolved = resolve_engine(engine)
    if resolved == "fast":
        from repro.sim.fastpath import HOT_ENTRIES, FastSimulator

        return FastSimulator(program, config, threshold=HOT_ENTRIES).run()
    return Simulator(program, config).run()
