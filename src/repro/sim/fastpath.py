"""Specializing fast-path execution engine, bit-exact with the reference
:class:`~repro.sim.core.Simulator`.

Two layers (ROADMAP: "as fast as the hardware allows"):

1. **Decode-time specialization.**  The engine generates Python source for
   every basic block — one ``compile()``d function per block, inlining
   exactly the operand-resolution branches each instruction needs: source
   count and classes, map-vs-bypass path for the configured register
   files, destination interlock, latency constant.  An instruction's
   interlock is closed-form: the latest ready time of its operands is
   folded into one bound, and a single test closes the open group and
   stalls to it.  State is bound through keyword-only default arguments so
   the hot loop runs on local-variable access, with no per-source
   ``for mode, payload in d.srcs`` interpretation, no ``_SRC_*`` dispatch,
   and no repeated attribute loads.

2. **Basic-block issue-bundle caching.**  A self-contained loop block (one
   whose terminating, predicted-taken conditional branch targets its own
   leader) with unmapped operands memoizes its issue schedule keyed on a
   scoreboard-relative signature: the clamped ready-time deltas of every
   register slot the block touches.  A hit replays the recorded
   per-instruction issue offsets and stat deltas — values are still computed
   live, in program order, so runs stay execution-driven — skipping the
   scoreboard polls entirely.  A miss falls back to the specialized
   single-step path, which doubles as the recorder.

There is one kind of generated module: specialized on the full
``repr(config)``, with the RC model's map moves inlined, and cached per
program identity (:data:`_code_cache`).  Single-config runs,
:func:`~repro.sim.core.simulate`'s tier-up and the batched engine's class
leaders all look modules up there, so a (program, config) pair is generated
and ``compile()``d once per process.

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
simulator, so the two hand a run over mid-way.  ``run()`` resumes from the
embedded reference's state: from cycle 0 on a fresh simulator, or where
earlier reference segments stopped.  A resumed run first steps the
reference to the next block leader, since generated code enters blocks only
there; :func:`repro.sim.core.simulate` uses this to start every run on the
reference engine and tier up after ``TIER_UP_CYCLES``.  ``run()`` stays on
the reference whenever its per-event guarantees are needed: an attached
observer or trace hook, a scheduled interrupt, a ``run(until_cycle=...)``
segment, or a program shape the code generator does not support.
"""

from __future__ import annotations

import re
import weakref

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

__all__ = ["FastSimulator", "program_blocks", "program_leaders"]

_CONTROL = frozenset({K_CBR, K_JMP, K_CALL, K_RET, K_HALT, K_TRAP, K_RTE})
_BUNDLE_KINDS = frozenset({K_ALU, K_LI, K_LOAD, K_STORE, K_NOP, K_CBR})
_BUNDLE_MAX_LEN = 48
_BUNDLE_MAX_SLOTS = 32
_BUNDLE_CACHE_CAP = 512

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
    """Generates one Python module of per-block step functions for a
    (program, config) pair.

    Every block function has the uniform signature
    ``fn(cycle, issued, mem_used, store_seen, map_en)`` and returns the
    7-tuple ``(pc, cycle, issued, mem_used, store_seen, map_en, halted)``;
    the driver loop in :class:`FastSimulator` threads the group state
    between blocks so a correctly-predicted not-taken branch can hand a
    partially-filled issue group to the fall-through block, exactly like
    the reference engine's inner loop.

    With ``checked=True`` the generator emits the checked variant of single
    blocks instead (:meth:`checked_block`): a budget test after every clock
    advance and no gate or bundle replay.
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
        self._rules = {"W": self.model.on_write, "R": self.model.on_read}
        self.ient = config.int_spec.core if config.int_spec.has_rc else 0
        self.fent = config.fp_spec.core if config.fp_spec.has_rc else 0
        self.lmax = max(max((d.latency for d in decoded), default=0),
                        self.CL, 1)
        self.consts: dict[str, object] = {}
        self.lines: list[str] = []
        self._block_consts: list[str] = []

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
        self._block_consts.append(name)
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
        redirect ``RD``.  A bundle replay advances by a recorded pass of the
        same block, so the bound covers it too; ``+ 4`` is slack.
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
        reads is free: all map translations share one ``map_en`` split.
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
        first = True
        if mapped:
            w(ind + "if map_en:")
            for local, lookup, _busy, _home in mapped:
                w(ind + f"    {local} = {lookup}")
            self._emit_fold(w, ind + "    ", [m[2] for m in mapped], True)
            w(ind + "else:")
            for local, _lookup, _busy, home in mapped:
                w(ind + f"    {local} = {home}")
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

    def _static_vals(self, k: int, d) -> list[str]:
        """Value expressions with direct physical indices (no mapping)."""
        vals = []
        for j, (mode, payload) in enumerate(d.srcs):
            if mode == _SRC_IMM:
                vals.append(self._imm_expr(k, j, payload))
            elif mode == _SRC_INT:
                vals.append(f"IREGS[{payload}]")
            else:
                vals.append(f"FREGS[{payload}]")
        return vals

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
        w(ind + "if map_en:")
        for is_int, idx in operands:
            names = _MAP_NAMES[is_int]
            for dst, src in moves:
                value = idx if src == HOME else f"{names[src]}[{idx}]"
                w(ind + f"    {names[dst]}[{idx}] = {value}")

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

    def _emit_instr(self, w, ind, k: int, d, loop_leader, record: bool,
                    is_last: bool) -> None:
        W = self.W
        kind = d.kind
        self._validate(k, d)
        is_mem = kind in (K_LOAD, K_STORE)

        # Interlock, closed form: nothing the bound reads changes while the
        # group closes, so one close plus one stall to ``b`` is exactly the
        # reference's re-polling loop.
        vals, dest_expr, bound = self._emit_resolution(w, ind, k, d)
        if bound:
            w(ind + "if b > cycle:")
            i2 = ind + "    "
            if W > 1:
                w(i2 + "if issued:")
                w(i2 + "    cycle += 1")
                w(i2 + "    issued = mem_used = store_seen = 0")
                w(i2 + "if b > cycle:")
                w(i2 + "    ST[0] += b - cycle")
                w(i2 + "    cycle = b")
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
        if record:
            w(ind + "if _rec is not None:")
            w(ind + "    _rec.append(cycle - _c0)")
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
            self._emit_cbr(w, ind, k, d, vals, loop_leader, record)
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
        w(ind + ("_ra = cycle" if self.CL == 0
                 else f"_ra = cycle + {self.CL}"))
        for rclass, which, idx, phys in d.updates:
            is_int = rclass is RClass.INT
            tab = (("IRM" if which == "read" else "IWM") if is_int
                   else ("FRM" if which == "read" else "FWM"))
            mr = (("IMR_R" if which == "read" else "IMR_W") if is_int
                  else ("FMR_R" if which == "read" else "FMR_W"))
            w(ind + f"{tab}[{idx}] = {phys}")
            w(ind + f"{mr}[{idx}] = _ra")

    def _emit_map_home(self, w, ind) -> None:
        if self.ient:
            self._const("IHOME", range(self.ient))
            w(ind + "IRM[:] = IHOME")
            w(ind + "IWM[:] = IHOME")
        if self.fent:
            self._const("FHOME", range(self.fent))
            w(ind + "FRM[:] = FHOME")
            w(ind + "FWM[:] = FHOME")

    def _emit_cbr(self, w, ind, k: int, d, vals, loop_leader,
                  record: bool) -> None:
        cond = _BR_EXPR[d.op.name].format(
            a=vals[0], b=vals[1] if len(vals) > 1 else "")
        i2 = ind + "    "
        w(ind + f"if {cond}:")
        if d.pred_taken:
            # Correctly predicted taken: the group cannot fetch past it.
            if record:
                w(i2 + "if _rec is not None:")
                w(i2 + f"    if len(BC) < {_BUNDLE_CACHE_CAP}:")
                w(i2 + "        BC[_sig] = (tuple(_rec), ST[0] - _z0,"
                       " ST[2] - _m0)")
                w(i2 + "    _rec = None")
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

    # -- issue-bundle caching --------------------------------------------------

    def _bundle_plan(self, lead: int, body: list[int]):
        """Register slots for memoizing this self-loop block's issue
        schedule, or ``None`` when the block does not qualify.

        Qualification: predicted-taken conditional-branch terminator
        targeting the leader, simple kinds only, every register operand
        unmapped (its file has no RC table, so resolution never consults
        ``map_en`` or map-ready times), and a bounded register footprint.
        Replay skips the budget tests a pass would make; the block gate
        ``G`` (:meth:`_gate`) keeps every replayed pass inside the budget.
        """
        dec = self.dec
        term = dec[body[-1]]
        if term.kind != K_CBR or not term.pred_taken or term.target != lead:
            return None
        if not 2 <= len(body) <= _BUNDLE_MAX_LEN:
            return None
        slots: list[tuple[bool, int]] = []
        seen = set()
        for k in body:
            d = dec[k]
            if d.kind not in _BUNDLE_KINDS:
                return None
            operands = [(m == _SRC_INT, p) for m, p in d.srcs
                        if m != _SRC_IMM]
            if d.dest is not None:
                operands.append(d.dest)
            for is_int, p in operands:
                if self._mapped(is_int):
                    return None
                key = (is_int, p)
                if key not in seen:
                    seen.add(key)
                    slots.append(key)
        if len(slots) > _BUNDLE_MAX_SLOTS:
            return None
        return slots

    def _emit_bundle(self, w, ind, lead: int, body: list[int], slots) -> None:
        """Loop-top pre-header: signature probe, replay on hit, recorder
        arming on miss."""
        i2 = ind + "    "
        i3 = i2 + "    "
        w(ind + "if issued == 0:")
        parts = []
        for j, (is_int, p) in enumerate(slots):
            ready = "IREADY" if is_int else "FREADY"
            parts.append(
                f"x{j} if (x{j} := {ready}[{p}] - cycle) > 0 else 0")
        if parts:
            tail = "," if len(parts) == 1 else ""
            w(i2 + f"_sig = ({', '.join(parts)}{tail})")
        else:
            w(i2 + "_sig = ()")
        w(i2 + "_e = BC.get(_sig)")
        w(i2 + "if _e is None:")
        w(i3 + "_rec = []")
        w(i3 + "_c0 = cycle")
        w(i3 + "_z0 = ST[0]")
        w(i3 + "_m0 = ST[2]")
        w(i2 + "else:")
        w(i3 + "_rel = _e[0]")
        for i, k in enumerate(body[:-1]):
            d = self.dec[k]
            vals = self._static_vals(k, d)
            kind = d.kind
            if kind in (K_ALU, K_LI, K_LOAD):
                self._emit_value(w, i3, k, d, vals)
                if d.dest is not None:
                    is_int, nm = d.dest
                    regs = "IREGS" if is_int else "FREGS"
                    ready = "IREADY" if is_int else "FREADY"
                    w(i3 + f"{regs}[{nm}] = v")
                    w(i3 + f"{ready}[{nm}] = cycle + _rel[{i}] +"
                           f" {d.latency}")
            elif kind == K_STORE:
                w(i3 + f"MEM[{vals[1]} + ({d.imm!r})] = {vals[0]}")
            # K_NOP: nothing to execute.
        w(i3 + "ST[0] += _e[1]")
        w(i3 + "ST[2] += _e[2]")
        termk = body[-1]
        td = self.dec[termk]
        tvals = self._static_vals(termk, td)
        cond = _BR_EXPR[td.op.name].format(
            a=tvals[0], b=tvals[1] if len(tvals) > 1 else "")
        B = len(body) - 1
        w(i3 + f"if {cond}:")
        w(i3 + f"    cycle += _rel[{B}] + 1")
        w(i3 + "    " + _GUARD.format(lead=lead))
        w(i3 + "    continue")
        w(i3 + "ST[1] += 1")
        w(i3 + f"ST[3] += {self.RD}")
        w(i3 + f"cycle += _rel[{B}] + {1 + self.RD}")
        w(i3 + f"return ({termk + 1}, cycle, 0, 0, False, map_en, False)")
        w(ind + "else:")
        w(ind + "    _rec = None")

    # -- module assembly -------------------------------------------------------

    def _emit_block(self, lead: int, body: list[int]) -> None:
        self._block_consts = []
        dec = self.dec
        term = dec[body[-1]]
        self_loop = term.kind in (K_CBR, K_JMP) and term.target == lead
        plan = (self._bundle_plan(lead, body)
                if self_loop and not self.checked else None)
        buf: list[str] = []
        w = buf.append
        ind = "    "
        if not self.checked:
            w(ind + _GUARD.format(lead=lead))
        if self_loop:
            if plan is not None:
                w(ind + "_rec = None")
            w(ind + "while 1:")
            ind += "    "
        # Every instruction of the block runs as often as its leader.
        w(ind + f"IC[{lead}] += 1")
        if plan is not None:
            self._emit_bundle(w, ind, lead, body, plan)
        loop_leader = lead if self_loop else None
        last = len(body) - 1
        for i, k in enumerate(body):
            self._emit_instr(w, ind, k, dec[k], loop_leader,
                             plan is not None, i == last)
        text = "\n".join(buf)
        binds = []
        if plan is not None:
            self.lines.append(f"BC{lead} = {{}}")
            binds.append(f"BC=BC{lead}")
        if not self.checked:
            binds.append(f"G={self._gate(body)}")
        names = dict.fromkeys(list(_BINDABLE) + self._block_consts)
        used = set(_IDENT_RE.findall(text))
        for name in names:
            if name in used:
                binds.append(f"{name}={name}")
        prefix = "_c" if self.checked else "_b"
        head = (f"def {prefix}{lead}(cycle, issued, mem_used, store_seen,"
                f" map_en, *, {', '.join(binds)}):")
        self.lines.append(head)
        self.lines.append(text)
        self.lines.append("")

    def generate(self) -> tuple[str, dict[str, object], list]:
        """The module source, its consts, and the program's blocks."""
        blocks = program_blocks(self.program, self.dec)
        for lead, body in blocks:
            self._emit_block(lead, body)
        w = self.lines.append
        w(f"_FUNCS = [None] * {len(self.dec)}")
        for lead, _body in blocks:
            w(f"_FUNCS[{lead}] = _b{lead}")
        return "\n".join(self.lines) + "\n", self.consts, blocks

    def checked_block(self, lead: int, body: list[int]) -> str:
        """Source defining ``_c<lead>``, the checked variant of one block.
        Its consts are the module's own (the same names and values), which
        the driver's namespace already holds."""
        self._emit_block(lead, body)
        return "\n".join(self.lines) + "\n"


#: First statement of a fast block, and its self-loop's back-edge re-test.
_GUARD = ("if cycle > G: return _CHK({lead}, cycle, issued, mem_used,"
          " store_seen, map_en)")


# -- compiled-code cache -------------------------------------------------------

#: id(program) -> (weakref to the program, {repr(config) -> (code, consts,
#: blocks, {leader -> checked block code}) or None}): one module per config
#: a :class:`FastSimulator` was built for, shared by single runs, tier-up and
#: gang leaders.  Keyed by identity because :class:`MachineProgram` is an
#: eq-bearing (hence unhashable) mutable dataclass, and instances are pickled
#: into the experiment disk cache, so code objects must never be attached to
#: them.
_code_cache: dict[int, tuple[object, dict]] = {}


def _compiled(program, config, decoded):
    """Compiled step-function module for (program, config), or ``None`` when
    the program shape is unsupported.  Cached per program identity, then
    per ``repr(config)``."""
    key = id(program)
    entry = _code_cache.get(key)
    if entry is None or entry[0]() is not program:
        ref = weakref.ref(
            program, lambda _r, _k=key: _code_cache.pop(_k, None))
        entry = (ref, {})
        _code_cache[key] = entry
    per_config = entry[1]
    ckey = repr(config)
    if ckey not in per_config:
        try:
            source, consts, blocks = _Codegen(
                program, config, decoded).generate()
        except _Unsupported:
            per_config[ckey] = None
        else:
            code = compile(source, f"<fastpath:{program.name}>", "exec")
            per_config[ckey] = code, consts, blocks, {}
    return per_config[ckey]


class FastSimulator:
    """Drop-in :class:`Simulator` on generated code; resumes ``reference=`` runs.

    Construction decodes through an embedded reference simulator (sharing
    its validation and :class:`MachineState`), so architectural state,
    ``schedule_interrupt``, observers and trace hooks behave identically.
    ``reference=`` adopts an existing reference simulator instead, with its
    decode, state and any segments it has already run; ``run()`` then
    resumes from where that reference stopped.  ``run()`` executes the
    specialized engine when it can guarantee bit exactness and silently
    delegates to the reference engine otherwise; ``ran_fastpath`` reports
    which engine produced the last result.
    """

    def __init__(self, program, config, trace_hook=None,
                 observer=None, *, decoded=None,
                 generic_maps=False, reference=None) -> None:
        """``generic_maps`` is ignored; ``benchmarks/e2e`` still passes it."""
        if reference is None:
            reference = Simulator(program, config, trace_hook=trace_hook,
                                  observer=observer, decoded=decoded)
        self._ref = reference
        self.program = program
        self.config = config
        self.ran_fastpath = False
        self._compiled_entry = _compiled(program, config, self._ref._decoded)

    # -- reference-state delegation -------------------------------------------

    @property
    def state(self):
        return self._ref.state

    @property
    def trace_hook(self):
        return self._ref.trace_hook

    @trace_hook.setter
    def trace_hook(self, hook) -> None:
        self._ref.trace_hook = hook

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
                or ref.trace_hook is not None
                or ref._interrupts
                or ref._failed
                or ref._halted
                or self._compiled_entry is None):
            # Per-event guarantees (observation, interrupts, resumable
            # segments), a halted or poisoned run (both engines return it
            # again, or refuse it with the same diagnostic) or an
            # unsupported program shape: reference engine.
            return ref.run(until_cycle)
        # Generated code enters blocks only at their leaders, so a run that
        # reference segments left mid-block steps on, one cycle at a time,
        # to the next leader.  A segment ends on a cycle boundary, where no
        # issue group is open.
        leaders = {lead for lead, _body in self._compiled_entry[2]}
        while ref._pc not in leaders:
            result = ref.run(ref._cycle + 1)
            if result.halted:
                return result
        if any(ret not in leaders for _psw, ret in ref.state.trap_stack):
            # An interrupt taken in a segment returns mid-block: the rest
            # of the run stays on the reference.
            return ref.run()
        self.ran_fastpath = True
        try:
            return self._run_fast()
        except BaseException:
            # Architectural state is half-updated; poison the embedded
            # reference so a later run() raises instead of resuming.
            ref._failed = True
            raise

    def _run_fast(self, trace=None) -> SimResult:
        ref = self._ref
        state = ref.state
        config = self.config
        dec = ref._decoded
        code, consts, blocks, checked = self._compiled_entry
        n = len(dec)
        maxc = config.max_cycles
        itab = state.int_table
        ftab = state.fp_table
        # Resume from the reference's microarchitectural state: fresh at
        # cycle 0, or where its segments stopped.  The ready-time arrays are
        # shared and updated in place; counters accumulate onto its stats.
        stats = ref._stats
        iready = ref._iready
        fready = ref._fready
        imr_r = ref._imr_r
        imr_w = ref._imr_w
        fmr_r = ref._fmr_r
        fmr_w = ref._fmr_w
        counts = [0] * n
        # [zero-issue cycles, mispredicts, mem-channel stalls, redirects]
        st = [stats.zero_issue_cycles, stats.mispredicts,
              stats.mem_channel_stalls, stats.redirect_cycles]

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
                if lead not in checked:
                    gen = _Codegen(self.program, config, dec, checked=True)
                    checked[lead] = compile(
                        gen.checked_block(lead, dict(blocks)[lead]),
                        f"<fastpath-checked:{self.program.name}>", "exec")
                exec(checked[lead], ns)
                fn = ns[f"_c{lead}"]
            return fn(cycle, issued, mem_used, store_seen, map_en)

        ns = {
            "SE": SimulationError,
            "_mxe": _mxe, "_CHK": _chk,
            "MAXC": maxc,
            "IREADY": iready, "FREADY": fready,
            "IREGS": state.int_regs, "FREGS": state.fp_regs,
            "MEM": state.memory,
            "IRM": itab.read_map if itab is not None else None,
            "IWM": itab.write_map if itab is not None else None,
            "FRM": ftab.read_map if ftab is not None else None,
            "FWM": ftab.write_map if ftab is not None else None,
            "IMR_R": imr_r, "IMR_W": imr_w,
            "FMR_R": fmr_r, "FMR_W": fmr_w,
            "IC": counts, "ST": st,
            "RA": state.ra_stack, "TS": state.trap_stack,
            "PSWO": state.psw,
            "IHOME": None, "FHOME": None,
        }
        ns.update(consts)
        exec(code, ns)
        funcs = ns["_FUNCS"]

        pc = ref._pc
        start = cycle = ref._cycle
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
            # Gang-leader mode (repro.sim.batched): record one (block leader,
            # iteration count) entry per driver dispatch.  Self-loop blocks
            # iterate internally (past the gate, on into their checked
            # variant), so the count is recovered from the block counter's
            # delta across the call.
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

        by_category = stats.by_category
        by_origin = stats.by_origin
        instructions = 0
        branches = 0
        for lead, body in blocks:
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
        (stats.zero_issue_cycles, stats.mispredicts,
         stats.mem_channel_stalls, stats.redirect_cycles) = st
        stats.cycles = cycle

        # Publish the final position into the embedded reference simulator
        # so a subsequent run() returns exactly as the reference engine
        # would after halting.
        ref._pc = pc
        ref._cycle = cycle
        ref._halted = True
        return SimResult(stats=stats, state=state, halted=True,
                         engine="fast", handoff_cycle=start or None)
