"""Analysis-driven connect optimizer (post-regalloc machine pass).

Consumes the forward mapping-table abstract interpretation and the backward
slot liveness to shrink connect traffic in a compiled
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
from repro.rc.abstract import AbstractMap
from repro.rc.models import HOME_RESET_OPS
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
                f"{self.hoisted} hoisted)")
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


class _MapState(ForwardAnalysis):
    """Forward mapping-table state, site-free (entries collapse by target).

    Identical transfer semantics to the checker's abstract interpretation
    but with ``site=None`` on every connect, so an entry that holds physical
    register *p* compares equal no matter which connect established it —
    exactly the question redundancy elimination asks.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.entries = {
            cls: (config.spec_for(cls).core
                  if config.spec_for(cls).has_rc else 0)
            for cls in _CLASSES
        }

    def boundary(self, fn: FuncCFG) -> dict:
        return {cls: AbstractMap(n, self.config.rc_model)
                for cls, n in self.entries.items() if n}

    def join(self, a: dict, b: dict) -> dict:
        for cls, amap in a.items():
            amap.join(b[cls])
        return a

    def copy(self, state: dict) -> dict:
        return {cls: amap.copy() for cls, amap in state.items()}

    def transfer(self, state: dict, index: int, instr) -> dict:
        if instr.is_connect:
            amap = state.get(instr.imm[0])
            if amap is not None:
                for _cls, which, ri, rp in instr.connect_updates():
                    if ri < amap.entries:
                        amap.connect(which, ri, rp, None)
            return state
        op = instr.op
        if op in HOME_RESET_OPS:
            for amap in state.values():
                amap.reset_home()
            return state
        for src in instr.reg_srcs():
            amap = state.get(src.cls)
            if amap is not None and src.num < amap.entries:
                amap.after_read(src.num)
        dest = instr.dest
        if dest is not None:
            amap = state.get(dest.cls)
            if amap is not None and dest.num < amap.entries:
                amap.after_write(dest.num)
        return state


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


def _classify_drops(program: MachineProgram, config: MachineConfig,
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
        analysis = _MapState(config)
        fwd = solve_forward(fn, analysis, program.instrs)
        bwd = solve_backward(fn, SlotLiveness(program, config),
                             program.instrs)
        live = after_states(bwd)
        for block in fn.blocks.values():
            claimed.update(range(block.start, block.end))
            if block.start not in fwd.block_in:
                continue  # unreachable within the function

            def visit(state: dict, i: int, instr) -> None:
                if not instr.is_connect:
                    return
                updates = instr.connect_updates()
                cls = instr.imm[0]
                amap = state.get(cls)
                if amap is None:
                    return
                drop: set[int] = set()
                kinds: dict[int, str] = {}
                # Redundancy: walk updates forward over a scratch copy so
                # the second update of a combined connect sees the first.
                scratch = amap.copy()
                for pos, (_c, which, ri, rp) in enumerate(updates):
                    if ri >= scratch.entries:
                        continue
                    entry = (scratch.read_entry(ri) if which == "read"
                             else scratch.write_entry(ri))
                    if entry == frozenset({(rp, None)}):
                        drop.add(pos)
                        kinds[pos] = "redundant"
                    scratch.connect(which, ri, rp, None)
                # Deadness: walk updates backward so an earlier same-slot
                # update is killed by a later one.
                rmap, wmap, _ext = live[i]
                redefined: set[tuple[str, int]] = set()
                for pos in range(len(updates) - 1, -1, -1):
                    _c, which, ri, _rp = updates[pos]
                    if ri >= scratch.entries:
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


def _delete_round(program: MachineProgram, config: MachineConfig,
                  report: ConnectOptReport) -> MachineProgram | None:
    """One deletion round; None when nothing was removable."""
    cfg = build_cfg(program)
    drops = _classify_drops(program, config, cfg)
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


def _delete_fixpoint(program: MachineProgram, config: MachineConfig,
                     report: ConnectOptReport) -> MachineProgram:
    for _ in range(_MAX_DELETE_ROUNDS):
        nxt = _delete_round(program, config, report)
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
    """Insert *instr* (no target) at index *p*, shifting the suffix."""

    def remap(t: int) -> int:
        if t > p or (t == p and not execute_on_jump):
            return t + 1
        return t

    instrs = list(program.instrs)
    targets = list(program.targets)
    instrs.insert(p, instr)
    targets_new = [None if t is None else remap(t) for t in targets]
    targets_new.insert(p, None)
    return replace(
        program,
        instrs=instrs,
        targets=targets_new,
        entry=remap(program.entry),
        func_ranges={name: (lo + 1 if lo > p else lo,
                            hi + 1 if hi > p else hi)
                     for name, (lo, hi) in program.func_ranges.items()},
        suppressions={(k if k < 0 else (k + 1 if k >= p else k)): v
                      for k, v in program.suppressions.items()},
    )


def _hoist_candidates(program: MachineProgram, config: MachineConfig,
                      cfg: ProgramCFG):
    """Yield (connect index, preheader insert position, flag, fn name)."""
    for fn in cfg.functions:
        loops = _natural_loops(fn)
        if not loops:
            continue
        bwd = solve_backward(fn, SlotLiveness(program, config),
                             program.instrs)
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
                    spec = config.spec_for(cls)
                    entries = spec.core if spec.has_rc else 0
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
                        yield i, pb.end - 1, True, fn.name
                    else:
                        yield i, pb.end, False, fn.name


def _fully_redundant(program: MachineProgram, config: MachineConfig,
                     index: int) -> bool:
    """Whether every update of the connect at *index* is a no-op."""
    cfg = build_cfg(program)
    fn = block = None
    for f in cfg.functions:
        for b in f.blocks.values():
            if b.start <= index < b.end:
                fn, block = f, b
                break
        if block is not None:
            break
    if block is None:
        return False
    analysis = _MapState(config)
    fwd = solve_forward(fn, analysis, program.instrs)
    if block.start not in fwd.block_in:
        return False
    captured: dict = {}

    def visit(state: dict, i: int, _instr) -> None:
        if i == index:
            captured.update(analysis.copy(state))

    fwd.walk(block, visit)
    instr = program.instrs[index]
    amap = captured.get(instr.imm[0])
    if amap is None:
        return False
    scratch = amap.copy()
    for _c, which, ri, rp in instr.connect_updates():
        if ri >= scratch.entries:
            return False
        entry = (scratch.read_entry(ri) if which == "read"
                 else scratch.write_entry(ri))
        if entry != frozenset({(rp, None)}):
            return False
        scratch.connect(which, ri, rp, None)
    return True


def _hoist_pass(program: MachineProgram, config: MachineConfig,
                report: ConnectOptReport) -> MachineProgram:
    """Attempt each hoist candidate; commit only verified, non-growing moves.

    A trial inserts a copy of the loop connect into the preheader, then
    demands the original become a provable no-op in the trial program (it
    now re-establishes a mapping the preheader already set on every path)
    before deleting exactly it and re-running the deletion fixpoint.  The
    explicit redundancy proof is what keeps the pair sound: the inserted
    copy and the original are never judged against each other's absence.
    """
    trials = 0
    progress = True
    while progress and trials < 200:
        progress = False
        cfg = build_cfg(program)
        for i, p, eoj, fname in _hoist_candidates(program, config, cfg):
            trials += 1
            before = _static_connects(program)
            trial = _insert_at(program, program.instrs[i].copy(), p, eoj)
            orig = i + 1 if i >= p else i
            if not _fully_redundant(trial, config, orig):
                continue
            trial = _delete_indices(trial, {orig})
            trial_report = ConnectOptReport()
            trial = _delete_fixpoint(trial, config, trial_report)
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

    program = _delete_fixpoint(program, config, report)
    for _ in range(_MAX_HOIST_PASSES):
        hoists_before = report.hoisted
        program = _hoist_pass(program, config, report)
        if report.hoisted == hoists_before:
            break
    report.connects_after = _static_connects(program)
    return OptimizeResult(program=program, report=report)
