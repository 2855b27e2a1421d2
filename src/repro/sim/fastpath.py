"""Specializing fast-path execution engine, bit-exact with the reference
:class:`~repro.sim.core.Simulator`.

**Decode-time specialization.**  The engine generates Python source for
every basic block — one ``compile()``d function per block, inlining exactly
the operand-resolution branches each instruction needs: source count and
classes, map-vs-bypass path for the configured register files, destination
interlock, latency constant.  An instruction's interlock is closed-form:
the latest ready time of its operands is folded into one bound, and a
single test closes the open group and stalls to it.  State is bound through
keyword-only default arguments so the hot loop runs on local-variable
access, with no per-source ``for mode, payload in d.srcs`` interpretation,
no ``_SRC_*`` dispatch, and no repeated attribute loads.  Each block has
exactly one generated execution path: a self-loop block (one whose
terminator targets its own leader) iterates inside its function, every
pass through the same single-step code.

Each block is generated and ``compile()``d on its own, specialized on the
full ``repr(config)`` with the RC model's map moves inlined, and cached per
program identity and config (:data:`_code_cache`).  Eager runs,
:func:`~repro.sim.core.simulate` and the batched engine's class leaders
share those entries, so a block of a (program, config) pair is compiled at
most once per process.

**Hot blocks.**  :func:`~repro.sim.core.simulate` compiles a block only
once it has run often enough to pay for its code.  The driver
(:meth:`FastSimulator._run_fast`) starts at cycle 0 with no block bound and
sends each leader to the reference engine's block step
(:meth:`~repro.sim.core.Simulator.step`): the same issue loop as
:meth:`Simulator.run`, entered with the open issue group a generated block
takes, returning the same 7-tuple.  The step runs on through cold leaders,
counting each leader's entries, and returns at the fetch of a leader that
is compiled or has reached its :data:`HOT_ENTRIES`-th entry; the driver
then binds that block's function, generating and compiling it on first use
the way ``_CHK`` builds checked blocks, and the entry runs on it.  Both
engines add into the same :class:`SimStats`, so a run can cross between
them at every block boundary, in either direction.

Why 16.  Generating and compiling one static instruction costs about
0.3 ms, while the reference runs about 0.42 Minst/s and generated code
about 3.5, so a block repays its code only after roughly 120-190
executions, and most runs are too short for that.  On the job service's
kind of traffic (400 ``gen_machine_program`` jobs, each on one
``fuzz_configs`` config with a 50,000-cycle budget) compiling every block
would generate 235,646 lines; a threshold of 2 generates 12,142 lines in 94
runs, 16 generates 1,027 lines in 7.  On the 12 benchmarks x {no RC, RC}
at issue rate 4 with 16/16 core registers, thresholds from 2 to 16 cut the
generated lines by 25-34% (65,725 eagerly; 43,166 at 16) and save about
the same time, since the blocks they skip run few times either way.  The
``tier`` section of ``BENCH_simspeed.json`` measures the policy.

The eager constructor (``FastSimulator(program, config)``) instead
compiles every block before the run, so a caller that times execution
alone pays code generation up front; gang leaders need every block too.

A fast block is specialized on two facts of the config, so it carries no
code for cases its run cannot reach:

* **Mapping on.**  On a machine with an RC register file, a fast block
  assumes the PSW's map-enable bit is set: operands resolve through the map
  with no ``if map_en:`` split and the model's map moves run unguarded.
  Its entry test is ``if cycle > G or not map_en``, so a block entered with
  mapping off (a trap handler, code after an ``rte`` that restored it off)
  runs its checked variant, which stays unspecialized.  ``mtpsw`` can turn
  mapping off mid-block, so a block holding one is generated unspecialized.
* **Connect latency 0** (the paper default).  A map entry is then ready at
  its connect's issue cycle, never past the clock, so the map-ready times
  cannot raise an interlock bound and are not folded into it.

An interlock stall is one branch at every width: it always ends at its
bound, with an open group closed first, so ``ST[0] += b - cycle -
(issued and 1)`` accounts both.  Over the 12 benchmarks x {no RC, RC model 3}
at width 4 with 16/16 core registers, the three cut the generated source
from 87,087 to 66,521 lines (-24%) and CPython's ``compile()`` time of it
by 15%; the ``codegen`` section of ``BENCH_simspeed.json`` tracks both.

Two pieces of bookkeeping are paid per block rather than per instruction:

* **Cycle budget.**  A block function starts with one test against its
  gate ``G`` (see :meth:`_Codegen._gate`): entered at or below it, one
  pass over the block cannot exceed ``max_cycles``, so the block carries no
  budget test at all (a self-loop re-tests ``G`` on its back edge).  Above
  the gate the block hands over to a *checked* variant, generated and
  compiled on first use, that tests the budget after every clock advance
  and raises :class:`~repro.errors.CycleBudgetError` at exactly the pc the
  reference engine reports.  Under the default budget the checked code is
  never built.
* **Execution counts.**  Every instruction of a basic block runs exactly as
  often as its leader, so the block bumps one counter, its leader's; the
  statistics expand it over the block after the run.

The generated code reproduces the reference engine's group accounting
(zero-issue jumps, width exhaustion, memory-channel and same-cycle
store->load structural breaks, misprediction/trap/rte redirects) branch for
branch; ``tests/test_fastpath.py`` asserts equality of cycles, the full
:class:`SimStats`, and the architectural checksum across every benchmark x
RC model x issue width, and of the error at every cycle budget around a
run's end.

The engine shares its microarchitectural state layout with the reference
simulator.  ``run()`` resumes from the embedded reference's state: from
cycle 0 on a fresh simulator, or where earlier reference segments stopped,
at any pc; the step runs a pc inside a block, and a block the generator
does not support, up to the next leader.  ``run()`` stays on the reference
whenever its per-event guarantees are needed: an attached observer, a
scheduled interrupt, or a ``run(until_cycle=...)`` segment.
"""

from __future__ import annotations

import re
import weakref
from functools import partial

#: One-pass identifier scan used to decide which state names a generated
#: block function needs bound as keyword defaults.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

from repro.errors import CycleBudgetError, SimulationError
from repro.isa.inline import BRANCH_EXPR as _BR_EXPR
from repro.isa.inline import alu_stmts as _alu_stmts
from repro.isa.registers import RClass
from repro.rc.models import HOME, READ, WRITE
from repro.sim.core import (
    K_ALU,
    K_CALL,
    K_CBR,
    K_CONNECT,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_MFMAP,
    K_MFPSW,
    K_MTPSW,
    K_NOP,
    K_RET,
    K_RTE,
    K_STORE,
    K_TRAP,
    SimResult,
    Simulator,
    _SRC_IMM,
    _SRC_INT,
)

__all__ = ["HOT_ENTRIES", "FastSimulator", "program_blocks",
           "program_leaders"]

#: The entry at which :func:`~repro.sim.core.simulate` compiles a block;
#: until then the block runs on the reference engine's step (see the module
#: docstring for why 16).
HOT_ENTRIES = 16

#: Fetch count of a pc the reference step never stops at: one that is not a
#: block leader, or leads a block the generator does not support.
_NEVER = 1 << 62

_CONTROL = frozenset({K_CBR, K_JMP, K_CALL, K_RET, K_HALT, K_TRAP, K_RTE})

#: Names a block function may bind as keyword-only defaults; the emitted
#: body is scanned so each function binds only what it actually uses.
_BINDABLE = (
    "IREADY", "FREADY", "IREGS", "FREGS", "MEM",
    "IRM", "IWM", "FRM", "FWM",
    "IMR_R", "IMR_W", "FMR_R", "FMR_W",
    "IC", "ST", "RA", "TS", "PSWO", "MAXC", "IHOME", "FHOME",
)


#: Generated-code names of the read/write maps, by ``is_int``.
_MAP_NAMES = {True: {READ: "IRM", WRITE: "IWM"},
              False: {READ: "FRM", WRITE: "FWM"}}


class _Unsupported(Exception):
    """Program shape the generator does not handle; engine falls back."""


# -- program structure (shared with repro.sim.batched) -------------------------

def program_leaders(program, decoded) -> list[int]:
    """Basic-block leader indices: entry, control targets, fall-throughs of
    control instructions, and trap handlers."""
    n = len(decoded)
    leaders = {program.entry}
    for i, d in enumerate(decoded):
        if d.kind in _CONTROL:
            if d.target is not None:
                leaders.add(d.target)
            if i + 1 < n:
                leaders.add(i + 1)
    leaders.update(program.trap_handlers.values())
    return sorted(x for x in leaders if 0 <= x < n)


def program_blocks(program, decoded) -> list[tuple[int, list[int]]]:
    """``(leader, body)`` pairs partitioning the program into basic blocks."""
    n = len(decoded)
    leaders = program_leaders(program, decoded)
    leader_set = set(leaders)
    out = []
    for lead in leaders:
        body = []
        k = lead
        while True:
            body.append(k)
            if decoded[k].kind in _CONTROL:
                break
            if k + 1 >= n or (k + 1) in leader_set:
                break
            k += 1
        out.append((lead, body))
    return out


class _Codegen:
    """Generates the per-block step functions of a (program, config) pair,
    one block at a time.

    Every block function has the uniform signature
    ``fn(cycle, issued, mem_used, store_seen, map_en)`` and returns the
    7-tuple ``(pc, cycle, issued, mem_used, store_seen, map_en, halted)``;
    the driver loop in :class:`FastSimulator` threads the group state
    between blocks so a correctly-predicted not-taken branch can hand a
    partially-filled issue group to the fall-through block, exactly like
    the reference engine's inner loop.

    With ``checked=True`` the generator emits the checked variant of
    blocks instead: a budget test after every clock advance and no gate.
    """

    def __init__(self, program, config, decoded, checked=False) -> None:
        self.program = program
        self.config = config
        self.dec = decoded
        self.W = config.issue_width
        self.CH = config.mem_channels
        self.RD = config.redirect_penalty
        self.CL = config.latency.connect
        self.maxc = config.max_cycles
        self.model = config.rc_model
        self.checked = checked
        self.filename = (f"<fastpath{'-checked' if checked else ''}:"
                         f"{program.name}>")
        self._rules = {"W": self.model.on_write, "R": self.model.on_read}
        self.ient = config.int_spec.core if config.int_spec.has_rc else 0
        self.fent = config.fp_spec.core if config.fp_spec.has_rc else 0
        self.lmax = max(max((d.latency for d in decoded), default=0),
                        self.CL, 1)
        #: Named constants of the block being emitted.
        self.consts: dict[str, object] = {}
        #: Whether the block being emitted assumes ``map_en`` is true.
        self.map_on = False

    # -- helpers ---------------------------------------------------------------

    def _validate(self, k: int, d) -> None:
        if d.kind in (K_CBR, K_JMP, K_CALL) and d.target is None:
            raise _Unsupported(f"instr {k}: control without target")
        if d.kind in (K_LOAD, K_STORE) and not isinstance(d.imm, int):
            raise _Unsupported(f"instr {k}: non-integer memory offset")
        if d.kind == K_LOAD and d.dest is None:
            raise _Unsupported(f"instr {k}: load without destination")
        if d.kind == K_CBR and d.op.name not in _BR_EXPR:
            raise _Unsupported(f"instr {k}: unknown branch {d.op.name}")
        if d.kind == K_TRAP:
            handler = self.program.trap_handlers.get(d.imm)
            if handler is not None and handler < 0:
                raise _Unsupported(f"instr {k}: negative trap handler")
        if d.kind == K_MFMAP:
            rclass = d.imm[0]
            if not self._mapped(rclass is RClass.INT):
                raise _Unsupported(f"instr {k}: mfmap without a mapping table")

    def _const(self, name: str, value) -> str:
        self.consts[name] = value
        return name

    def _imm_expr(self, k: int, j, value) -> str:
        if type(value) is int:
            return f"({value!r})"
        return self._const(f"C{k}_{j}", value)

    def _mapped(self, is_int: bool) -> bool:
        return bool(self.ient if is_int else self.fent)

    def _emit_budget(self, w, ind, pc: int) -> None:
        """Budget test after a clock advance; checked blocks only."""
        if self.checked:
            w(ind + f"if cycle > MAXC: _mxe({pc})")

    def _gate(self, body: list[int]) -> int:
        """Cycle gate ``G`` of a fast block: entered with ``cycle <= G``, one
        pass over *body* cannot carry the clock past ``max_cycles``, so the
        block needs no budget test of its own.

        Per instruction the clock advances by at most one latency plus four
        group breaks.  The interlock stalls to a ready time, and every ready
        time is an issue cycle (never later than the clock) plus a latency
        or the connect latency, so the stall reaches at most ``lmax`` past
        the clock; the group close before it, the memory channel, the
        store->load break and the width break (or the control transfer's
        own cycle) add at most one each.  The terminator adds at most one
        redirect ``RD``; ``+ 4`` is slack.
        """
        return self.maxc - (len(body) * (self.lmax + 4) + self.RD + 4)

    # -- operand resolution ----------------------------------------------------

    def _emit_resolution(self, w, ind, k: int, d):
        """Emit the interlock bound: local ``b`` = latest ready time over
        the instruction's register operands (map entries included).
        Returns (value expressions, dest index expression or None, whether
        ``b`` was set).

        Mirrors the reference resolution walk: map-ready check and map
        translation under ``map_en`` (the decoder guarantees operand indices
        fit the table, so the reference's ``payload < ient`` test is
        statically true whenever a table exists), then the register-file
        ready check on the physical index.  Every read happens before the
        clock moves and none is written by the stall, so the order of the
        reads is free: all map translations share one ``map_en`` split, or
        none in a block specialized on mapping on.
        """
        vals = []
        mapped = []  # (index local, map lookup, map-ready, bypass index)
        ready = []   # register ready-time expressions, after the split
        for j, (mode, payload) in enumerate(d.srcs):
            if mode == _SRC_IMM:
                vals.append(self._imm_expr(k, j, payload))
                continue
            is_int = mode == _SRC_INT
            idx = str(payload)
            if self._mapped(is_int):
                idx = f"s{j}"
                mapped.append((idx, f"{_MAP_NAMES[is_int][READ]}[{payload}]",
                               f"{'IMR_R' if is_int else 'FMR_R'}[{payload}]",
                               payload))
            ready.append(f"{'IREADY' if is_int else 'FREADY'}[{idx}]")
            vals.append(f"{'IREGS' if is_int else 'FREGS'}[{idx}]")
        dest_expr = None
        if d.dest is not None:
            is_int, nm = d.dest
            dest_expr = str(nm)
            if self._mapped(is_int):
                dest_expr = "dph"
                mapped.append(("dph", f"{_MAP_NAMES[is_int][WRITE]}[{nm}]",
                               f"{'IMR_W' if is_int else 'FMR_W'}[{nm}]", nm))
            ready.append(f"{'IREADY' if is_int else 'FREADY'}[{dest_expr}]")
        # At connect latency 0 a map entry is ready at its connect's issue
        # cycle, never past the clock: it cannot raise the bound.
        busy = [m[2] for m in mapped] if self.CL else []
        first = True
        if self.map_on:
            for local, lookup, _busy, _home in mapped:
                w(ind + f"{local} = {lookup}")
            ready = busy + ready
        elif mapped:
            w(ind + "if map_en:")
            for local, lookup, _busy, _home in mapped:
                w(ind + f"    {local} = {lookup}")
            self._emit_fold(w, ind + "    ", busy, True)
            w(ind + "else:")
            for local, _lookup, _busy, home in mapped:
                w(ind + f"    {local} = {home}")
            if busy:
                w(ind + "    b = 0")
                first = False
        self._emit_fold(w, ind, ready, first)
        return vals, dest_expr, bool(ready)

    @staticmethod
    def _emit_fold(w, ind, exprs, first: bool) -> None:
        """Fold ready times into ``b`` (compare-and-assign, no ``max()``
        call: a call costs more than the branch it saves)."""
        for e in exprs:
            if first:
                w(ind + f"b = {e}")
                first = False
            else:
                w(ind + f"r = {e}")
                w(ind + "if r > b: b = r")

    # -- execution -------------------------------------------------------------

    def _emit_value(self, w, ind, k: int, d, vals: list[str]) -> None:
        """Emit statements computing local ``v`` for a value-producing kind."""
        kind = d.kind
        if kind == K_ALU:
            stmts = _alu_stmts(d.op.name, vals)
            if stmts is None:
                fn = self._const(f"A{k}", d.alu)
                w(ind + f"v = {fn}({', '.join(vals)})")
            else:
                for s in stmts:
                    w(ind + s)
        elif kind == K_LI:
            w(ind + f"v = {self._imm_expr(k, 'i', d.imm)}")
        elif kind == K_LOAD:
            default = "0" if d.dest[0] else "0.0"
            w(ind + f"v = MEM.get({vals[0]} + ({d.imm!r}), {default})")
        elif kind == K_MFPSW:
            w(ind + "v = PSWO.pack()")
        elif kind == K_MFMAP:
            rclass, idx, which = d.imm
            is_int = rclass is RClass.INT
            tab = (("IRM" if which == "read" else "IWM") if is_int
                   else ("FRM" if which == "read" else "FWM"))
            w(ind + f"v = {tab}[{idx}]")

    def _emit_writeback(self, w, ind, d, dest_expr: str) -> None:
        dest_is_int, nm = d.dest
        regs = "IREGS" if dest_is_int else "FREGS"
        ready = "IREADY" if dest_is_int else "FREADY"
        w(ind + f"{regs}[{dest_expr}] = v")
        w(ind + f"{ready}[{dest_expr}] = cycle + {d.latency}")
        if self._mapped(dest_is_int):
            self._emit_moves(w, ind, "W", [d.dest])

    def _emit_read_resets(self, w, ind, d) -> None:
        """The model's moves after the reads (model 5: one-shot reads)."""
        if self._rules["R"]:
            self._emit_moves(w, ind, "R", [
                (mode == _SRC_INT, payload) for mode, payload in d.srcs
                if mode != _SRC_IMM and self._mapped(mode == _SRC_INT)])

    def _emit_moves(self, w, ind, event: str, operands) -> None:
        """Emit the moves after an access through each mapped ``(is_int,
        index)`` operand: *event* ``"W"`` after a write, ``"R"`` after a
        read."""
        moves = self._rules[event]
        if not (moves and operands):
            return
        if not self.map_on:
            w(ind + "if map_en:")
            ind += "    "
        for is_int, idx in operands:
            names = _MAP_NAMES[is_int]
            for dst, src in moves:
                value = idx if src == HOME else f"{names[src]}[{idx}]"
                w(ind + f"{names[dst]}[{idx}] = {value}")

    # -- group bookkeeping -----------------------------------------------------

    def _emit_reset(self, w, ind) -> None:
        """Open a fresh issue group (no group state at width 1)."""
        if self.W > 1:
            w(ind + "issued = mem_used = store_seen = 0")

    def _emit_goto(self, w, ind, target: int, loop_leader) -> None:
        """Control transfer with a clean (empty) next group."""
        if loop_leader is not None and target == loop_leader:
            self._emit_back_edge(w, ind, target)
        else:
            w(ind + f"return ({target}, cycle, 0, 0, False, map_en, False)")

    def _emit_back_edge(self, w, ind, lead: int) -> None:
        """Self-loop back edge: budget test (checked) or gate re-test
        (fast, handing the next pass to the checked block), then loop."""
        if self.checked:
            self._emit_budget(w, ind, lead)
            self._emit_reset(w, ind)
        else:
            self._emit_reset(w, ind)
            w(ind + _GUARD.format(lead=lead))
        w(ind + "continue")

    def _emit_epilogue(self, w, ind, k: int, is_last: bool) -> None:
        """Group advance after a fall-through issue (width exhaustion)."""
        if self.W > 1:
            w(ind + f"if issued == {self.W}:")
            w(ind + "    cycle += 1")
            if is_last:
                w(ind + f"    return ({k + 1}, cycle, 0, 0, False, map_en,"
                        " False)")
                w(ind + f"return ({k + 1}, cycle, issued, mem_used,"
                        " store_seen, map_en, False)")
            else:
                self._emit_budget(w, ind + "    ", k + 1)
                self._emit_reset(w, ind + "    ")
        else:
            w(ind + "cycle += 1")
            if is_last:
                w(ind + f"return ({k + 1}, cycle, 0, 0, False, map_en,"
                        " False)")
            else:
                self._emit_budget(w, ind, k + 1)

    def _emit_break(self, w, ind, k: int, test: str, stat=None) -> None:
        """Structural group break: ``if test``, close the group."""
        w(ind + f"if {test}:")
        if stat is not None:
            w(ind + f"    ST[{stat}] += 1")
        w(ind + "    cycle += 1")
        self._emit_budget(w, ind + "    ", k)
        self._emit_reset(w, ind + "    ")

    # -- per-instruction emission ----------------------------------------------

    def _emit_instr(self, w, ind, k: int, d, loop_leader,
                    is_last: bool) -> None:
        W = self.W
        kind = d.kind
        self._validate(k, d)
        is_mem = kind in (K_LOAD, K_STORE)

        # Interlock, closed form: nothing the bound reads changes while the
        # group closes, so one stall to ``b`` is exactly the reference's
        # re-polling loop.  An open group closes first, on a cycle that
        # issued (no zero-issue cycle), and a budget test after the stall
        # sees the clock at which the reference stops.
        vals, dest_expr, bound = self._emit_resolution(w, ind, k, d)
        if bound:
            w(ind + "if b > cycle:")
            i2 = ind + "    "
            if W > 1:
                # ``issued and 1``, not ``issued > 0``: a bool operand
                # leaves CPython's int fast path for the subtraction.
                w(i2 + "ST[0] += b - cycle - (issued and 1)")
                w(i2 + "cycle = b")
                w(i2 + "issued = mem_used = store_seen = 0")
            else:  # groups hold one instruction: a stall is the only wait
                w(i2 + "ST[0] += b - cycle")
                w(i2 + "cycle = b")
            self._emit_budget(w, i2, k)
        if is_mem and self.CH < W:
            self._emit_break(w, ind, k, f"mem_used >= {self.CH}", 2)
        if kind == K_LOAD and W > 1:
            self._emit_break(w, ind, k, "store_seen")

        if is_mem and W > 1:
            w(ind + "mem_used += 1")
        if W > 1 and (kind not in _CONTROL
                      or kind == K_CBR and not d.pred_taken):
            # Other control transfers leave with an empty group.
            w(ind + "issued += 1")
        self._emit_read_resets(w, ind, d)

        if kind in (K_ALU, K_LI, K_LOAD, K_MFPSW, K_MFMAP):
            self._emit_value(w, ind, k, d, vals)
            if d.dest is not None:
                self._emit_writeback(w, ind, d, dest_expr)
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_STORE:
            w(ind + f"MEM[{vals[1]} + ({d.imm!r})] = {vals[0]}")
            if W > 1:
                w(ind + "store_seen = 1")
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_NOP:
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_MTPSW:
            w(ind + f"_p = {vals[0]}")
            w(ind + "map_en = (_p & 1) != 0")
            w(ind + "PSWO.map_enable = map_en")
            w(ind + "PSWO.rc_mode = (_p & 2) != 0")
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_CONNECT:
            self._emit_connect(w, ind, d)
            self._emit_epilogue(w, ind, k, is_last)
        elif kind == K_CBR:
            self._emit_cbr(w, ind, k, d, vals, loop_leader)
        elif kind == K_JMP:
            w(ind + "cycle += 1")
            self._emit_goto(w, ind, d.target, loop_leader)
        elif kind == K_CALL:
            w(ind + f"RA.append({k + 1})")
            self._emit_map_home(w, ind)
            w(ind + "cycle += 1")
            self._emit_goto(w, ind, d.target, loop_leader)
        elif kind == K_RET:
            w(ind + "if not RA:")
            w(ind + "    raise SE('ret with empty RA stack')")
            self._emit_map_home(w, ind)
            w(ind + "cycle += 1")
            w(ind + "return (RA.pop(), cycle, 0, 0, False, map_en, False)")
        elif kind == K_HALT:
            w(ind + "cycle += 1")
            w(ind + f"return ({k}, cycle, 0, 0, False, map_en, True)")
        elif kind == K_TRAP:
            handler = self.program.trap_handlers.get(d.imm)
            if handler is None:
                w(ind + f"raise SE('no handler for trap {d.imm}')")
            else:
                w(ind + f"TS.append((PSWO.pack(), {k + 1}))")
                w(ind + "PSWO.map_enable = False")
                w(ind + "map_en = False")
                w(ind + f"ST[3] += {self.RD}")
                w(ind + f"cycle += {1 + self.RD}")
                w(ind + f"return ({handler}, cycle, 0, 0, False, False,"
                        " False)")
        elif kind == K_RTE:
            w(ind + "if not TS:")
            w(ind + "    raise SE('rte with empty trap stack')")
            w(ind + "_p, _rpc = TS.pop()")
            w(ind + "map_en = (_p & 1) != 0")
            w(ind + "PSWO.map_enable = map_en")
            w(ind + "PSWO.rc_mode = (_p & 2) != 0")
            w(ind + f"ST[3] += {self.RD}")
            w(ind + f"cycle += {1 + self.RD}")
            w(ind + "return (_rpc, cycle, 0, 0, False, map_en, False)")
        else:
            raise _Unsupported(f"instr {k}: unhandled kind {kind}")

    def _emit_connect(self, w, ind, d) -> None:
        ready_at = "cycle"
        if self.CL:
            w(ind + f"_ra = cycle + {self.CL}")
            ready_at = "_ra"
        for rclass, which, idx, phys in d.updates:
            is_int = rclass is RClass.INT
            tab = (("IRM" if which == "read" else "IWM") if is_int
                   else ("FRM" if which == "read" else "FWM"))
            mr = (("IMR_R" if which == "read" else "IMR_W") if is_int
                  else ("FMR_R" if which == "read" else "FMR_W"))
            w(ind + f"{tab}[{idx}] = {phys}")
            w(ind + f"{mr}[{idx}] = {ready_at}")

    def _emit_map_home(self, w, ind) -> None:
        if self.ient:
            self._const("IHOME", range(self.ient))
            w(ind + "IRM[:] = IHOME")
            w(ind + "IWM[:] = IHOME")
        if self.fent:
            self._const("FHOME", range(self.fent))
            w(ind + "FRM[:] = FHOME")
            w(ind + "FWM[:] = FHOME")

    def _emit_cbr(self, w, ind, k: int, d, vals, loop_leader) -> None:
        cond = _BR_EXPR[d.op.name].format(
            a=vals[0], b=vals[1] if len(vals) > 1 else "")
        i2 = ind + "    "
        w(ind + f"if {cond}:")
        if d.pred_taken:
            # Correctly predicted taken: the group cannot fetch past it.
            w(i2 + "cycle += 1")
            self._emit_goto(w, i2, d.target, loop_leader)
            # Not taken against a taken prediction: mispredict redirect.
            w(ind + "ST[1] += 1")
            w(ind + f"ST[3] += {self.RD}")
            w(ind + f"cycle += {1 + self.RD}")
            w(ind + f"return ({k + 1}, cycle, 0, 0, False, map_en, False)")
        else:
            # Taken against a not-taken prediction: mispredict redirect.
            w(i2 + "ST[1] += 1")
            w(i2 + f"ST[3] += {self.RD}")
            w(i2 + f"cycle += {1 + self.RD}")
            self._emit_goto(w, i2, d.target, loop_leader)
            # Correctly predicted not taken: the group keeps filling across
            # the fall-through edge.
            self._emit_epilogue(w, ind, k, True)

    # -- module assembly -------------------------------------------------------

    def block(self, lead: int, body: list[int]) -> tuple[str, dict]:
        """Source defining ``_b<lead>`` (``_c<lead>`` when checked), the
        function of the block *body* led by *lead*, and the named constants
        it binds.  Raises :class:`_Unsupported` for a shape the generator
        does not handle."""
        self.consts = {}
        dec = self.dec
        term = dec[body[-1]]
        self_loop = term.kind in (K_CBR, K_JMP) and term.target == lead
        buf: list[str] = []
        w = buf.append
        ind = "    "
        # On an RC machine a fast block assumes mapping on and hands a
        # mapping-off entry to its (unspecialized) checked variant; only
        # ``mtpsw`` changes mapping inside a block.
        self.map_on = (not self.checked and bool(self.ient or self.fent)
                       and all(dec[k].kind != K_MTPSW for k in body))
        if self.map_on:
            w(ind + _GUARD_MAP_ON.format(lead=lead))
        elif not self.checked:
            w(ind + _GUARD.format(lead=lead))
        if self_loop:
            w(ind + "while 1:")
            ind += "    "
        # Every instruction of the block runs as often as its leader.
        w(ind + f"IC[{lead}] += 1")
        loop_leader = lead if self_loop else None
        last = len(body) - 1
        for i, k in enumerate(body):
            self._emit_instr(w, ind, k, dec[k], loop_leader, i == last)
        text = "\n".join(buf)
        binds = []
        if not self.checked:
            binds.append(f"G={self._gate(body)}")
        used = set(_IDENT_RE.findall(text))
        for name in dict.fromkeys((*_BINDABLE, *self.consts)):
            if name in used:
                binds.append(f"{name}={name}")
        prefix = "_c" if self.checked else "_b"
        head = (f"def {prefix}{lead}(cycle, issued, mem_used, store_seen,"
                f" map_en, *, {', '.join(binds)}):")
        return f"{head}\n{text}\n", self.consts


#: First statement of an unspecialized fast block, and every self-loop's
#: back-edge re-test (mapping cannot change inside a specialized block).
_GUARD = ("if cycle > G: return _CHK({lead}, cycle, issued, mem_used,"
          " store_seen, map_en)")
#: First statement of a fast block specialized on mapping on.
_GUARD_MAP_ON = ("if cycle > G or not map_en: return _CHK({lead}, cycle,"
                 " issued, mem_used, store_seen, map_en)")


# -- compiled-code cache -------------------------------------------------------

class _Code:
    """Compiled blocks of one (program, config) pair, filled block by block.

    ``bodies`` maps each leader to its block's instruction indices, in
    program order.  ``fast`` maps a leader to ``(code, consts)``, the code
    object defining ``_b<lead>`` and the constants it binds, or to ``None``
    when the generator does not support the block; ``checked`` maps a
    leader to the code object defining ``_c<lead>``, whose constants are
    the fast block's.  An entry holds ints and code, never the program, its
    decoded list or a :class:`_Codegen`: the weakref callback on the
    program frees the entry, so anything in it that pinned the program
    would keep both alive for good.
    """

    __slots__ = ("bodies", "fast", "checked")

    def __init__(self, bodies: dict[int, list[int]]) -> None:
        self.bodies = bodies
        self.fast: dict[int, tuple | None] = {}
        self.checked: dict[int, object] = {}

    def fill(self, gen, lead: int) -> None:
        """Generate and ``compile()`` block *lead* into ``fast``."""
        try:
            source, consts = gen.block(lead, self.bodies[lead])
        except _Unsupported:
            self.fast[lead] = None
        else:
            self.fast[lead] = (compile(source, gen.filename, "exec"),
                               consts)


#: id(program) -> (weakref to the program, {repr(config) -> _Code}): the
#: blocks compiled so far for each config the program ran on, shared by
#: eager and tiered runs and gang leaders.  Keyed by identity because
#: :class:`MachineProgram` is an eq-bearing (hence unhashable) mutable
#: dataclass; code objects are kept here, never attached to the program, so
#: a program stays plain data.
_code_cache: dict[int, tuple[object, dict]] = {}


def _lookup(program, config, decoded=None) -> _Code | None:
    """The code entry of (*program*, *config*): ``None`` when there is
    none, unless the *decoded* program is given to create an empty one."""
    key = id(program)
    entry = _code_cache.get(key)
    if entry is None or entry[0]() is not program:
        if decoded is None:
            return None
        ref = weakref.ref(
            program, lambda _r, _k=key: _code_cache.pop(_k, None))
        entry = (ref, {})
        _code_cache[key] = entry
    ckey = repr(config)
    code = entry[1].get(ckey)
    if code is None and decoded is not None:
        code = entry[1][ckey] = _Code(dict(program_blocks(program, decoded)))
    return code


class FastSimulator:
    """Drop-in :class:`Simulator` on generated code.

    Construction decodes through an embedded reference simulator (sharing
    its validation and :class:`MachineState`), so architectural state,
    ``schedule_interrupt`` and observers behave identically.  ``run()``
    executes the driver when it can guarantee bit exactness and silently
    delegates to the reference engine otherwise; ``ran_fastpath`` reports
    which of the two produced the last result.

    *threshold* is the entry at which the driver compiles a block: ``0``,
    the default, compiles every block here, before the run;
    :func:`~repro.sim.core.simulate` passes :data:`HOT_ENTRIES`; ``None``
    compiles none, so the driver runs the reference step throughout.
    """

    def __init__(self, program, config, observer=None, *, decoded=None,
                 generic_maps=False, threshold: int | None = 0) -> None:
        """``generic_maps`` is ignored; ``benchmarks/e2e`` still passes it."""
        self._ref = Simulator(program, config, observer=observer,
                              decoded=decoded)
        self.program = program
        self.config = config
        self.ran_fastpath = False
        self._threshold = threshold
        #: This pair's code entry, once one exists.
        self._code = None
        #: Whether every block has generated code (gang leaders need it).
        self.complete = False
        if threshold == 0:
            dec = self._ref._decoded
            code = self._code = _lookup(program, config, dec)
            gen = None
            for lead in code.bodies:
                if lead not in code.fast:
                    gen = gen or _Codegen(program, config, dec)
                    code.fill(gen, lead)
            self.complete = None not in code.fast.values()

    # -- reference-state delegation -------------------------------------------

    @property
    def state(self):
        return self._ref.state

    @property
    def observer(self):
        return self._ref.observer

    @observer.setter
    def observer(self, obs) -> None:
        self._ref.observer = obs

    def schedule_interrupt(self, cycle: int, vector: int) -> None:
        self._ref.schedule_interrupt(cycle, vector)

    # -- execution ------------------------------------------------------------

    def run(self, until_cycle: int | None = None) -> SimResult:
        ref = self._ref
        self.ran_fastpath = False
        if (until_cycle is not None
                or ref.observer is not None
                or ref._interrupts
                or ref._failed
                or ref._halted):
            # Per-event guarantees (observation, interrupts, resumable
            # segments), or a halted or poisoned run (both engines return
            # it again, or refuse it with the same diagnostic): reference
            # engine.
            return ref.run(until_cycle)
        self.ran_fastpath = True
        try:
            return self._run_fast()
        except BaseException:
            # Architectural state is half-updated; poison the embedded
            # reference so a later run() raises instead of resuming.
            ref._failed = True
            raise

    def _run_fast(self, trace=None) -> SimResult:
        """The driver: dispatch each block leader to its generated
        function, or to the reference step until the block is due.
        Resumes from the embedded reference's state, at any pc."""
        ref = self._ref
        state = ref.state
        config = self.config
        program = self.program
        dec = ref._decoded
        n = len(dec)
        maxc = config.max_cycles
        itab = state.int_table
        ftab = state.fp_table
        threshold = self._threshold
        code = self._code = self._code or _lookup(program, config)
        # The ready-time arrays and the stats are the reference's own: the
        # step updates them directly, generated blocks in place or through
        # ``ST``, which is added on at the end.
        stats = ref._stats
        counts = [0] * n
        # [zero-issue cycles, mispredicts, mem-channel stalls, redirects]
        st = [0, 0, 0, 0]
        gens = {}  # generators by ``checked``, made on first use
        handoff = []  # the cycle at which generated code first ran

        def _gen(checked):
            gen = gens.get(checked)
            if gen is None:
                gen = gens[checked] = _Codegen(program, config, dec,
                                               checked=checked)
            return gen

        def _mxe(pc):
            raise CycleBudgetError(f"exceeded {maxc} cycles at pc={pc}")

        def _chk(lead, cycle, issued, mem_used, store_seen, map_en):
            # Past block *lead*'s gate: run its checked variant, compiled on
            # first use for this (program, config) and bound per run.  Back
            # edges enter here too, so the loop-top budget test comes first.
            if cycle > maxc:
                _mxe(lead)
            fn = ns.get(f"_c{lead}")
            if fn is None:
                checked = code.checked
                if lead not in checked:
                    gen = _gen(True)
                    source, _consts = gen.block(lead, code.bodies[lead])
                    checked[lead] = compile(source, gen.filename, "exec")
                exec(checked[lead], ns)
                fn = ns[f"_c{lead}"]
            return fn(cycle, issued, mem_used, store_seen, map_en)

        ns = {
            "SE": SimulationError,
            "_mxe": _mxe, "_CHK": _chk,
            "MAXC": maxc,
            "IREADY": ref._iready, "FREADY": ref._fready,
            "IREGS": state.int_regs, "FREGS": state.fp_regs,
            "MEM": state.memory,
            "IRM": itab.read_map if itab is not None else None,
            "IWM": itab.write_map if itab is not None else None,
            "FRM": ftab.read_map if ftab is not None else None,
            "FWM": ftab.write_map if ftab is not None else None,
            "IMR_R": ref._imr_r, "IMR_W": ref._imr_w,
            "FMR_R": ref._fmr_r, "FMR_W": ref._fmr_w,
            "IC": counts, "ST": st,
            "RA": state.ra_stack, "TS": state.trap_stack,
            "PSWO": state.psw,
            "IHOME": None, "FHOME": None,
        }

        # Reference fetches left per pc before the step stops there: 0 at
        # a leader whose block is compiled or due, _NEVER at a pc that is
        # no leader, or leads a block without generated code.
        left = [_NEVER] * n
        leaders = (code.bodies if code is not None
                   else program_leaders(program, dec))
        if threshold is not None:
            fast = code.fast if code is not None else {}
            for lead in leaders:
                if lead not in fast:
                    left[lead] = max(threshold - 1, 0)
                elif fast[lead] is not None:
                    left[lead] = 0
        step = ref.step

        def _cold(pc, cycle, issued, mem_used, store_seen, map_en):
            # A pc whose block function is not bound yet.  A leader that
            # is due gets one, generated and compiled on first use for this
            # (program, config); any other pc runs the reference step,
            # which returns at the fetch of a leader that is due.
            nonlocal code
            if not left[pc]:
                if code is None:
                    code = self._code = _lookup(program, config, dec)
                if pc not in code.fast:
                    code.fill(_gen(False), pc)
                fast = code.fast[pc]
                if fast is None:
                    left[pc] = _NEVER
                else:
                    obj, consts = fast
                    ns.update(consts)
                    exec(obj, ns)
                    fn = funcs[pc] = ns[f"_b{pc}"]
                    if not handoff:
                        handoff.append(cycle)
                    return fn(cycle, issued, mem_used, store_seen, map_en)
            return step(pc, cycle, issued, mem_used, store_seen, map_en,
                        left)

        # Control only ever reaches a leader, but a run resumed after
        # reference segments starts anywhere, and an interrupt those took
        # returns mid-block.
        funcs: list = [None] * n
        for pc in (*leaders, ref._pc, *(ret for _p, ret in state.trap_stack)):
            if pc < n:
                funcs[pc] = partial(_cold, pc)

        pc = ref._pc
        cycle = ref._cycle
        issued = 0
        mem_used = 0
        store_seen = False
        map_en = state.psw.map_enable
        if trace is None:
            while True:
                if cycle > maxc:
                    _mxe(pc)
                if pc >= n:
                    raise SimulationError(f"fell off program end at pc={pc}")
                (pc, cycle, issued, mem_used, store_seen, map_en,
                 halted) = funcs[pc](cycle, issued, mem_used, store_seen,
                                     map_en)
                if halted:
                    break
        else:
            # Gang-leader mode (repro.sim.batched), on a complete eager
            # simulator: record one (block leader, iteration count) entry
            # per driver dispatch.  Self-loop blocks iterate internally
            # (past the gate, on into their checked variant), so the count
            # is recovered from the block counter's delta across the call.
            tp, tn = trace
            while True:
                if cycle > maxc:
                    _mxe(pc)
                if pc >= n:
                    raise SimulationError(f"fell off program end at pc={pc}")
                opc = pc
                before = counts[opc]
                (pc, cycle, issued, mem_used, store_seen, map_en,
                 halted) = funcs[opc](cycle, issued, mem_used, store_seen,
                                      map_en)
                tp.append(opc)
                tn.append(counts[opc] - before)
                if halted:
                    break

        if handoff:
            by_category = stats.by_category
            by_origin = stats.by_origin
            instructions = 0
            branches = 0
            for lead, body in code.bodies.items():
                cnt = counts[lead]
                if cnt:
                    for k in body:
                        d = dec[k]
                        instructions += cnt
                        by_category[d.category] += cnt
                        by_origin[d.origin] += cnt
                        if d.kind == K_CBR:
                            branches += cnt
            stats.instructions += instructions
            stats.branches += branches
            stats.zero_issue_cycles += st[0]
            stats.mispredicts += st[1]
            stats.mem_channel_stalls += st[2]
            stats.redirect_cycles += st[3]
        ref._fold_categories()
        stats.cycles = cycle

        # Publish the final position into the embedded reference simulator
        # so a subsequent run() returns exactly as the reference engine
        # would after halting.
        ref._pc = pc
        ref._cycle = cycle
        ref._halted = True
        if not handoff:
            return SimResult(stats=stats, state=state, halted=True)
        return SimResult(stats=stats, state=state, halted=True,
                         engine="fast", handoff_cycle=handoff[0] or None)
