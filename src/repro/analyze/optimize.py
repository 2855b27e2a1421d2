"""Analysis-driven connect optimizer (post-regalloc machine pass).

Consumes a forward mapping-table analysis over int masks (one bit per
physical register an entry may name) and the backward slot liveness to
shrink connect traffic in a compiled
:class:`~repro.sim.program.MachineProgram` without changing its
architectural behaviour:

* **dead-connect deletion** — a connect update whose map slot is never
  observed (no read resolves through a dead read-map slot, no write lands
  through a dead write-map slot) before the slot is reconnected or reset is
  removed; because writes count as uses of the write map, deletion can never
  move a value to a different physical register.
* **redundant-connect elimination** — an update whose slot already holds
  exactly the requested physical register on every incoming path is a
  no-op and is removed.
* **loop-invariant hoisting** — a connect inside a natural loop whose slots
  are dead on loop entry is copied into the preheader; the original then
  becomes redundant on every iteration and is deleted by the next deletion
  round.  A hoist is only committed when the follow-up deletion brings the
  static connect count back to no more than it was, so the static cost
  never grows while the dynamic count drops from once-per-iteration to
  once-per-loop-entry.

  A trial is proved without building its program.  Its CFG is the
  original CFG with one instruction on the preheader-to-header edge, and
  whether the loop connect is a no-op depends only on the read- and
  write-map slots of the connect's (class, index) pairs, since a slot only
  ever takes a constant or the other map's value for the same pair.  So a
  forward solve over those 2-4 slots on the original CFG decides it
  exactly, from per-block summaries (each slot's value at block end is a
  constant or a copy of one entry slot) composed once per hoist
  iteration; only the preheader with the inserted copy and the prefix of
  the connect's block are replayed instruction by instruction
  (:class:`_HoistProver`).  A program is built only for a trial that
  passes.

The pass refuses to touch programs it cannot model statically: anything
with trap handlers, ``TRAP``/``RTE`` (handlers may connect with mapping
disabled), ``MTPSW`` (may toggle mapping at runtime) or ``MFMAP`` (observes
raw table state).  Such programs are returned unchanged with the bail
reason in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analyze.cfg import FuncCFG, ProgramCFG, build_cfg
from repro.analyze.dataflow import (ForwardAnalysis, reg_bit, solve_backward,
                                    solve_forward)
from repro.analyze.liveness import SlotLiveness, after_states
from repro.isa.instruction import Instr, connect_def, connect_use
from repro.isa.opcodes import Opcode
from repro.isa.registers import RClass
from repro.rc.models import HOME, HOME_RESET_OPS, READ, WRITE
from repro.sim.config import MachineConfig
from repro.sim.program import MachineProgram

_CLASSES = (RClass.INT, RClass.FP)

#: Opcodes that invalidate the static map model (see module docstring).
BAIL_OPS = frozenset({Opcode.TRAP, Opcode.RTE, Opcode.MTPSW, Opcode.MFMAP})

_MAX_DELETE_ROUNDS = 20
_MAX_HOIST_PASSES = 2


@dataclass
class ConnectEdit:
    """One applied rewrite, reported against the pre-pass instruction index."""

    kind: str  # "dead" | "redundant" | "hoist"
    function: str
    index: int  # instruction index at the time the edit was applied
    detail: str


@dataclass
class ConnectOptReport:
    """What the optimizer did to one program."""

    connects_before: int = 0
    connects_after: int = 0
    removed_dead: int = 0
    removed_redundant: int = 0
    hoisted: int = 0
    #: Hoist candidates tried (inserted and proven or refuted).
    trials: int = 0
    edits: list[ConnectEdit] = field(default_factory=list)
    #: Why the pass declined to run, or None when it ran.
    bail_reason: str | None = None

    @property
    def changed(self) -> bool:
        return bool(self.edits)

    @property
    def removed(self) -> int:
        return self.connects_before - self.connects_after

    def lines(self) -> list[str]:
        """Human-readable summary for ``repro disasm --annotate``."""
        if self.bail_reason is not None:
            return [f"connect-opt: skipped ({self.bail_reason})"]
        head = (f"connect-opt: {self.connects_before} -> "
                f"{self.connects_after} static connects "
                f"({self.removed_dead} dead, "
                f"{self.removed_redundant} redundant, "
                f"{self.hoisted} hoisted, {self.trials} hoist trials)")
        out = [head]
        for e in self.edits:
            out.append(f"  {e.kind:<9} {e.function}@{e.index}: {e.detail}")
        return out


@dataclass
class OptimizeResult:
    program: MachineProgram
    report: ConnectOptReport


def _static_connects(program: MachineProgram) -> int:
    return sum(1 for i in program.instrs if i.is_connect)


class _MapMasks(ForwardAnalysis):
    """Forward mapping-table state as one flat list of int masks.

    Slot layout: for each register class with a mapping table, its read-map
    entries, then its write-map entries.  Bit *p* of a slot is set when the
    entry may name physical register *p* on some path, so home is
    ``1 << index``, the join is an element-wise OR, and a slot holds exactly
    *p* on every path when it equals ``1 << p`` — the question redundancy
    elimination asks.  Unlike the checker's
    :class:`~repro.rc.abstract.AbstractMap` the state carries no connect
    sites: an entry holding *p* compares equal whichever connect set it.

    Each instruction's effect is decoded once into ``(destination slot,
    source slot, mask)`` moves (source ``-1`` sets the destination to
    *mask*), from the model's rows and :data:`HOME_RESET_OPS`.  The cache is
    keyed by instruction identity — trial programs share :class:`Instr`
    objects with the program they were made from — and lives as long as
    this object: one :func:`optimize_connects` call.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        #: register class -> mapping-table entries (classes with a table).
        self.entries: dict[RClass, int] = {}
        #: (register class, READ | WRITE) -> first slot of that map.
        self._base: dict[tuple[RClass, str], int] = {}
        home: list[int] = []
        for cls in _CLASSES:
            spec = config.spec_for(cls)
            if not spec.has_rc:
                continue
            self.entries[cls] = spec.core
            for which in (READ, WRITE):
                self._base[cls, which] = len(home)
                home.extend(1 << i for i in range(spec.core))
        self._home = home
        self._reset = tuple((s, -1, mask) for s, mask in enumerate(home))
        self._effects: dict[Instr, tuple] = {}

    def slot(self, cls: RClass, which: str, index: int) -> int | None:
        """The slot of map entry *which*[*index*], None outside the table."""
        if index >= self.entries.get(cls, 0):
            return None
        return self._base[cls, which] + index

    def _decode(self, instr: Instr) -> tuple:
        if instr.is_connect:
            moves = []
            for cls, which, ri, rp in instr.connect_updates():
                s = self.slot(cls, which, ri)
                if s is not None:
                    moves.append((s, -1, 1 << rp))
            return tuple(moves)
        if instr.op in HOME_RESET_OPS:
            return self._reset
        model = self.config.rc_model
        accesses = [(src, model.on_read) for src in instr.reg_srcs()]
        if instr.dest is not None:
            accesses.append((instr.dest, model.on_write))
        moves = []
        for reg, row in accesses:
            if reg.num >= self.entries.get(reg.cls, 0):
                continue
            for dst, src in row:
                moves.append((self._base[reg.cls, dst] + reg.num,
                              -1 if src == HOME
                              else self._base[reg.cls, src] + reg.num,
                              1 << reg.num))
        return tuple(moves)

    def boundary(self, fn: FuncCFG) -> list[int]:
        return list(self._home)

    def join(self, a: list[int], b: list[int]) -> list[int]:
        return [x | y for x, y in zip(a, b)]

    def copy(self, state: list[int]) -> list[int]:
        return list(state)

    def effect(self, instr: Instr) -> tuple:
        """*instr*'s ``(destination slot, source slot, mask)`` moves."""
        effect = self._effects.get(instr)
        if effect is None:
            effect = self._effects[instr] = self._decode(instr)
        return effect

    def transfer(self, state: list[int], index: int, instr) -> list[int]:
        for dst, src, mask in self.effect(instr):
            state[dst] = mask if src < 0 else state[src]
        return state

    def redundant(self, state: list[int], instr: Instr) -> list[bool | None]:
        """Per update of connect *instr*: None outside the table, else
        whether the slot already holds the target in *state* (a combined
        connect's second update sees its first)."""
        out: list[bool | None] = []
        scratch: dict[int, int] = {}
        for cls, which, ri, rp in instr.connect_updates():
            s = self.slot(cls, which, ri)
            if s is None:
                out.append(None)
                continue
            out.append(scratch.get(s, state[s]) == 1 << rp)
            scratch[s] = 1 << rp
        return out


def _bail_reason(program: MachineProgram,
                 config: MachineConfig) -> str | None:
    if not config.has_rc:
        return "no extended registers in this configuration"
    if program.trap_handlers:
        return "program installs trap handlers"
    for instr in program.instrs:
        if instr.op in BAIL_OPS:
            return f"program uses {instr.op.value}"
    return None


# -- deletion ----------------------------------------------------------------


def _classify_drops(program: MachineProgram, maps: _MapMasks,
                    live: SlotLiveness,
                    cfg: ProgramCFG) -> dict[int, tuple[set[int], str]]:
    """Map connect index -> (update positions to drop, position -> kind).

    Kind is ``"redundant"`` (the slot already holds the target on every
    incoming path) or ``"dead"`` (the slot is never observed afterwards);
    an update qualifying as both reports as redundant.

    The two kinds must not be applied in the same rewrite: a dead update
    can owe its deadness to a later redundant one (the redefinition that
    kills it) while that one owes its redundancy to the former (the
    definition that established the mapping) — removing both at once would
    leave reads resolving through the home mapping.  ``_delete_round``
    therefore applies one kind per round and lets the fixpoint re-judge.
    """
    drops: dict[int, tuple[set[int], dict[int, str]]] = {}
    claimed: set[int] = set()

    for fn in cfg.functions:
        fwd = solve_forward(fn, maps, program.instrs)
        after = after_states(solve_backward(fn, live, program.instrs))
        for block in fn.blocks.values():
            claimed.update(range(block.start, block.end))
            if block.start not in fwd.block_in:
                continue  # unreachable within the function

            def visit(state: list[int], i: int, instr) -> None:
                if not instr.is_connect:
                    return
                updates = instr.connect_updates()
                cls = instr.imm[0]
                entries = maps.entries.get(cls, 0)
                if not entries:
                    return
                drop: set[int] = set()
                kinds: dict[int, str] = {}
                for pos, redundant in enumerate(maps.redundant(state, instr)):
                    if redundant:
                        drop.add(pos)
                        kinds[pos] = "redundant"
                # Deadness: walk updates backward so an earlier same-slot
                # update is killed by a later one.
                rmap, wmap, _ext = after[i]
                redefined: set[tuple[str, int]] = set()
                for pos in range(len(updates) - 1, -1, -1):
                    _c, which, ri, _rp = updates[pos]
                    if ri >= entries:
                        continue
                    bit = 1 << reg_bit(cls, ri)
                    alive = (rmap if which == "read" else wmap) & bit
                    if (which, ri) in redefined or not alive:
                        drop.add(pos)
                        kinds.setdefault(pos, "dead")
                    redefined.add((which, ri))
                if drop:
                    drops[i] = (drop, kinds)

            fwd.walk(block, visit)

    # Connects outside every recovered function never execute (no trap
    # handlers here — the pass bails on those): drop them whole.
    for i, instr in enumerate(program.instrs):
        if instr.is_connect and i not in claimed:
            updates = instr.connect_updates()
            drops[i] = (set(range(len(updates))),
                        {p: "dead" for p in range(len(updates))})
    return drops


def _fmt_update(update) -> str:
    _cls, which, ri, rp = update
    return f"{which}[{ri}]->p{rp}"


def _rebuild_connect(instr: Instr, kept: list) -> Instr | None:
    """The replacement for *instr* keeping only *kept* updates."""
    if not kept:
        return None
    if len(kept) == len(instr.connect_updates()):
        return instr
    cls, which, ri, rp = kept[0]
    make = connect_use if which == "read" else connect_def
    new = make(cls, ri, rp, origin=instr.origin)
    new.alias = instr.alias
    return new


def _delete_indices(program: MachineProgram,
                    deleted: set[int]) -> MachineProgram:
    """Rebuild *program* without the instructions in *deleted*.

    Jump targets, the entry point, function ranges and suppressions are
    remapped; a target whose entire suffix would be deleted keeps its
    landing instruction alive (the caller guarantees this cannot happen for
    connect-only deletions inside well-formed programs, but the guard keeps
    the rebuild total).
    """
    n = len(program.instrs)
    anchors = {program.entry}
    anchors.update(t for t in program.targets if t is not None)
    for t in sorted(anchors, reverse=True):
        if t in deleted and all(j in deleted for j in range(t, n)):
            deleted.discard(t)

    # shift[i] = number of deleted indices < i; valid for i in [0, n].
    shift = [0] * (n + 1)
    for i in range(n):
        shift[i + 1] = shift[i] + (1 if i in deleted else 0)

    def remap(t: int) -> int:
        return t - shift[t]

    new_instrs, new_targets = [], []
    for i in range(n):
        if i in deleted:
            continue
        new_instrs.append(program.instrs[i])
        t = program.targets[i]
        new_targets.append(None if t is None else remap(t))

    return replace(
        program,
        instrs=new_instrs,
        targets=new_targets,
        entry=remap(program.entry),
        func_ranges={name: (remap(lo), remap(hi))
                     for name, (lo, hi) in program.func_ranges.items()},
        suppressions={(k if k < 0 else remap(k)): v
                      for k, v in program.suppressions.items()
                      if k < 0 or k not in deleted},
    )


def _delete_round(program: MachineProgram, maps: _MapMasks,
                  live: SlotLiveness,
                  report: ConnectOptReport) -> MachineProgram | None:
    """One deletion round; None when nothing was removable."""
    cfg = build_cfg(program)
    drops = _classify_drops(program, maps, live, cfg)
    if not drops:
        return None

    # One kind per round (see _classify_drops): dead drops first, then a
    # later round picks up whatever stays redundant without them.
    kind_now = ("dead" if any("dead" in kinds.values()
                              for _d, kinds in drops.values())
                else "redundant")
    filtered: dict[int, tuple[set[int], dict[int, str]]] = {}
    for i, (drop, kinds) in drops.items():
        keep = {pos for pos in drop if kinds[pos] == kind_now}
        if keep:
            filtered[i] = (keep, kinds)
    drops = filtered

    deleted: set[int] = set()
    replaced: dict[int, Instr] = {}
    for i, (drop, kinds) in sorted(drops.items()):
        instr = program.instrs[i]
        updates = instr.connect_updates()
        kept = [u for pos, u in enumerate(updates) if pos not in drop]
        new = _rebuild_connect(instr, kept)
        fn = program.function_of(i) or "?"
        for pos in sorted(drop):
            report.edits.append(ConnectEdit(
                kind=kinds[pos], function=fn, index=i,
                detail=_fmt_update(updates[pos])))
            if kinds[pos] == "dead":
                report.removed_dead += 1
            else:
                report.removed_redundant += 1
        if new is None:
            deleted.add(i)
        else:
            replaced[i] = new

    if replaced:
        instrs = list(program.instrs)
        for i, new in replaced.items():
            instrs[i] = new
        program = replace(program, instrs=instrs)
    if deleted:
        program = _delete_indices(program, deleted)
    return program


def _delete_fixpoint(program: MachineProgram, maps: _MapMasks,
                     live: SlotLiveness,
                     report: ConnectOptReport) -> MachineProgram:
    for _ in range(_MAX_DELETE_ROUNDS):
        nxt = _delete_round(program, maps, live, report)
        if nxt is None:
            return program
        program = nxt
    return program  # pragma: no cover - round bound is a safety net


# -- hoisting ----------------------------------------------------------------


def _dominators(fn: FuncCFG) -> dict[int, set[int]]:
    """Dominator sets per block (iterative, fine at these sizes)."""
    rpo = fn.rpo()
    all_blocks = {b.start for b in rpo}
    doms = {b.start: set(all_blocks) for b in rpo}
    doms[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for b in rpo:
            if b.start == fn.entry:
                continue
            preds = [p for p in b.preds if p in all_blocks]
            new = set(all_blocks)
            for p in preds:
                new &= doms[p]
            new.add(b.start)
            if new != doms[b.start]:
                doms[b.start] = new
                changed = True
    return doms


def _natural_loops(fn: FuncCFG) -> dict[int, set[int]]:
    """header block start -> loop body block starts (header included)."""
    doms = _dominators(fn)
    loops: dict[int, set[int]] = {}
    for b in fn.rpo():
        for s in b.succs:
            if s in fn.blocks and s in doms[b.start]:
                body = loops.setdefault(s, {s})
                stack = [b.start]
                while stack:
                    x = stack.pop()
                    if x in body:
                        continue
                    body.add(x)
                    stack.extend(p for p in fn.blocks[x].preds
                                 if p in fn.blocks)
    return loops


def _preheader(fn: FuncCFG, header: int, body: set[int]) -> int | None:
    """The unique out-of-loop predecessor that only feeds *header*."""
    outside = [p for p in fn.blocks[header].preds
               if p in fn.blocks and p not in body]
    if len(outside) != 1:
        return None
    pred = fn.blocks[outside[0]]
    if pred.succs != (header,):
        return None
    return pred.start


def _insert_at(program: MachineProgram, instr: Instr, p: int,
               execute_on_jump: bool) -> MachineProgram:
    """*program* with *instr* (no target) inserted at index *p*, the suffix
    shifted; a jump to *p* lands on *instr* when *execute_on_jump*."""

    def remap(t: int) -> int:
        if t > p or (t == p and not execute_on_jump):
            return t + 1
        return t

    instrs = list(program.instrs)
    instrs.insert(p, instr)
    targets = [None if t is None else remap(t) for t in program.targets]
    targets.insert(p, None)
    return replace(
        program,
        instrs=instrs,
        targets=targets,
        entry=remap(program.entry),
        func_ranges={name: (lo + 1 if lo > p else lo,
                            hi + 1 if hi > p else hi)
                     for name, (lo, hi) in program.func_ranges.items()},
        suppressions={(k if k < 0 else (k + 1 if k >= p else k)): v
                      for k, v in program.suppressions.items()},
    )


def _hoist_candidates(program: MachineProgram, maps: _MapMasks,
                      live: SlotLiveness, cfg: ProgramCFG):
    """Yield (connect index, its block, preheader block, preheader insert
    position, flag, fn name)."""
    for fn in cfg.functions:
        loops = _natural_loops(fn)
        if not loops:
            continue
        bwd = solve_backward(fn, live, program.instrs)
        for header, body in sorted(loops.items()):
            if header == fn.entry or header not in bwd.block_in:
                continue
            pre = _preheader(fn, header, body)
            if pre is None:
                continue
            rmap_in, wmap_in, _ext = bwd.block_in[header]
            for start in sorted(body):
                block = fn.blocks[start]
                for i in range(block.start, block.end):
                    instr = program.instrs[i]
                    if not instr.is_connect:
                        continue
                    cls = instr.imm[0]
                    entries = maps.entries.get(cls, 0)
                    ok = True
                    for _c, which, ri, _rp in instr.connect_updates():
                        if ri >= entries:
                            ok = False
                            break
                        bit = 1 << reg_bit(cls, ri)
                        live_in = rmap_in if which == "read" else wmap_in
                        if live_in & bit:
                            ok = False
                            break
                    if not ok:
                        continue
                    pb = fn.blocks[pre]
                    last = program.instrs[pb.end - 1]
                    if last.op is Opcode.JMP or last.is_cond_branch:
                        yield i, start, pre, pb.end - 1, True, fn.name
                    else:
                        yield i, start, pre, pb.end, False, fn.name


class _HoistProver:
    """Decides hoist trials on the CFG of the program they start from.

    A trial program is *program* with a copy of a loop connect inserted on
    the edge from the loop's preheader (whose only successor is the header)
    to the header, so its CFG is this CFG with one instruction added at the
    end of the preheader (before its closing jump, if it has one).  Whether
    every update of the loop connect is then a no-op depends only on the
    read- and write-map slots of the connect's (class, index) pairs: a slot
    only ever takes a constant or the value of the other map's slot of the
    same pair (see :meth:`_MapMasks._decode`), so a forward solve over
    those 2-4 slots alone gives exactly the slot values a whole-state solve
    of the trial program would.

    Each block's effect on every slot — a constant mask or a copy of one
    entry slot — is composed once per object (one per hoist iteration),
    and its projection onto one slot set once per function; trials share
    both.  A projected state packs its slots into one int, a field of
    *width* bits each, so a join is one ``|``; *width* covers every
    constant a reachable block of the function sets, the inserted copy's
    included (they are the loop connect's own).  Only the preheader, with
    the inserted copy, and the prefix of the connect's block are replayed
    instruction by instruction.
    """

    def __init__(self, program: MachineProgram, maps: _MapMasks,
                 cfg: ProgramCFG) -> None:
        self.instrs = program.instrs
        self.maps = maps
        #: block start -> the first function holding it: where a solve over
        #: the whole trial program judges the connect.
        self.owner: dict[int, FuncCFG] = {}
        for fn in cfg.functions:
            for start in fn.blocks:
                self.owner.setdefault(start, fn)
        self._slots = range(len(maps.boundary(None)))
        #: function entry -> (reachable blocks in RPO, block start ->
        #: summary, field width).
        self._functions: dict[int, tuple] = {}
        #: (function entry, slots) -> block start -> packed effect.
        self._packed: dict[tuple, dict] = {}

    def _compose(self, instrs) -> tuple[list[int], int]:
        """Per slot, its value after *instrs* — entry slot *j* (``j >= 0``)
        or the constant mask *m* (stored as ``~m``) — and the bit length of
        the widest constant any of them sets."""
        out = list(self._slots)
        bits = 0
        for instr in instrs:
            for dst, src, mask in self.maps.effect(instr):
                if src < 0:
                    out[dst] = ~mask
                    bits = max(bits, mask.bit_length())
                else:
                    out[dst] = out[src]
        return out, bits

    def _function(self, fn: FuncCFG) -> tuple:
        got = self._functions.get(fn.entry)
        if got is None:
            rpo = fn.rpo()
            # Home masks are ``1 << index`` with index below the table size.
            width = max(self.maps.entries.values())
            summaries = {}
            for b in rpo:
                summary, bits = self._compose(self.instrs[b.start:b.end])
                summaries[b.start] = summary
                width = max(width, bits)
            got = self._functions[fn.entry] = (rpo, summaries, width)
        return got

    @staticmethod
    def _pack(summary: list[int], slots: tuple[int, ...], width: int):
        """*summary* projected onto *slots* as a packed-state transfer
        ``(keep, const, cross moves)``; None when it changes none of them."""
        field = (1 << width) - 1
        keep = const = 0
        cross = []
        for n, s in enumerate(slots):
            v = summary[s]
            if v == s:
                keep |= field << n * width
            elif v < 0:
                const |= ~v << n * width
            else:
                cross.append((slots.index(v) * width, n * width))
        if not const and not cross:
            return None
        return keep, const, tuple(cross)

    def proves(self, i: int, start: int, pre: int, p: int) -> bool:
        """Whether, with a copy of the connect at *i* (in block *start*)
        inserted at index *p* of preheader *pre*, every update of the
        original is a no-op."""
        maps, instrs = self.maps, self.instrs
        instr = instrs[i]
        fn = self.owner[start]
        rpo, summaries, width = self._function(fn)
        if start not in summaries:
            return False  # unreachable within its function
        slots = tuple(sorted({maps.slot(cls, which, ri)
                              for cls, _which, ri, _rp
                              in instr.connect_updates()
                              for which in (READ, WRITE)}))
        field = (1 << width) - 1
        packed = self._packed.get((fn.entry, slots))
        if packed is None:
            packed = self._packed[fn.entry, slots] = {
                b: self._pack(summary, slots, width)
                for b, summary in summaries.items()}
        pre_effect = None
        if pre in summaries:
            pb = fn.blocks[pre]
            summary, _bits = self._compose(
                instrs[pb.start:p] + [instr] + instrs[p:pb.end])
            pre_effect = self._pack(summary, slots, width)

        home = maps.boundary(fn)
        boundary = 0
        for n, s in enumerate(slots):
            boundary |= home[s] << n * width
        block_out: dict[int, int] = {}
        changed = True
        while changed:
            changed = False
            for b in rpo:
                state = boundary if b.start == fn.entry else 0
                for q in b.preds:
                    state |= block_out.get(q, 0)
                if not state:
                    continue  # not reached yet
                effect = pre_effect if b.start == pre else packed[b.start]
                if effect is not None:
                    keep, const, cross = effect
                    out = (state & keep) | const
                    for src, dst in cross:
                        out |= ((state >> src) & field) << dst
                    state = out
                if block_out.get(b.start) != state:
                    block_out[b.start] = state
                    changed = True

        state = boundary if start == fn.entry else 0
        for q in fn.blocks[start].preds:
            state |= block_out.get(q, 0)
        values = {s: (state >> n * width) & field
                  for n, s in enumerate(slots)}
        for k in range(start, i):
            for dst, src, mask in maps.effect(instrs[k]):
                if dst in values:
                    values[dst] = mask if src < 0 else values[src]
        return all(maps.redundant(values, instr))


def _hoist_pass(program: MachineProgram, maps: _MapMasks,
                live: SlotLiveness,
                report: ConnectOptReport) -> MachineProgram:
    """Attempt each hoist candidate; commit only verified, non-growing moves.

    A trial inserts a copy of the loop connect into the preheader, then
    demands the original become a provable no-op in the trial program (it
    now re-establishes a mapping the preheader already set on every path)
    before deleting exactly it and re-running the deletion fixpoint.  The
    explicit redundancy proof is what keeps the pair sound: the inserted
    copy and the original are never judged against each other's absence.
    :class:`_HoistProver` decides the proof on this program's CFG; a trial
    program is built only for a trial that passes it.
    """
    trials = 0
    progress = True
    while progress and trials < 200:
        progress = False
        cfg = build_cfg(program)
        prover = _HoistProver(program, maps, cfg)
        before = _static_connects(program)
        for i, start, pre, p, eoj, fname in _hoist_candidates(
                program, maps, live, cfg):
            trials += 1
            if not prover.proves(i, start, pre, p):
                continue
            trial = _insert_at(program, program.instrs[i].copy(), p, eoj)
            trial = _delete_indices(trial, {i + 1 if i >= p else i})
            trial_report = ConnectOptReport()
            trial = _delete_fixpoint(trial, maps, live, trial_report)
            if _static_connects(trial) > before:
                continue
            report.hoisted += 1
            report.edits.append(ConnectEdit(
                kind="hoist", function=fname, index=i,
                detail=f"loop connect@{i} -> preheader@{p}"))
            report.removed_dead += trial_report.removed_dead
            report.removed_redundant += trial_report.removed_redundant
            report.edits.extend(trial_report.edits)
            program = trial
            progress = True
            break  # indices shifted: recompute candidates
    report.trials += trials
    return program


# -- entry point -------------------------------------------------------------


def optimize_connects(program: MachineProgram,
                      config: MachineConfig) -> OptimizeResult:
    """Run the connect optimizer; see the module docstring for the rules."""
    report = ConnectOptReport(connects_before=_static_connects(program))
    report.bail_reason = _bail_reason(program, config)
    if report.bail_reason is not None:
        report.connects_after = report.connects_before
        return OptimizeResult(program=program, report=report)

    maps = _MapMasks(config)
    live = SlotLiveness(config)
    program = _delete_fixpoint(program, maps, live, report)
    for _ in range(_MAX_HOIST_PASSES):
        hoists_before = report.hoisted
        program = _hoist_pass(program, maps, live, report)
        if report.hoisted == hoists_before:
            break
    report.connects_after = _static_connects(program)
    return OptimizeResult(program=program, report=report)
