"""Local common-subexpression elimination over pure operations."""

from __future__ import annotations

from repro.ir.function import Function
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode, spec
from repro.isa.registers import Imm, RClass, VReg
from repro.isa.semantics import ALU_FUNCS

_PURE = frozenset(ALU_FUNCS) | {Opcode.LI, Opcode.LIF}


def _key(instr: Instr):
    parts = [instr.op]
    srcs = instr.srcs
    if spec(instr.op).commutative and len(srcs) == 2:
        srcs = tuple(sorted(srcs, key=repr))
    for s in srcs:
        parts.append(("imm", s.value) if isinstance(s, Imm) else ("reg", s))
    parts.append(instr.imm)
    return tuple(parts)


def eliminate_common_subexpressions(fn: Function) -> int:
    """Replace block-local recomputations with copies; returns count."""
    eliminated = 0
    for block in fn.blocks:
        available: dict[tuple, VReg] = {}
        # register -> keys recorded as reading it or produced into it; an
        # entry may be stale (its key killed, or recorded again since).
        users: dict[VReg, list[tuple]] = {}
        for i, instr in enumerate(block.instrs):
            dest = instr.dest
            if instr.op in _PURE and isinstance(dest, VReg):
                key = _key(instr)
                prior = available.get(key)
                if prior is not None and prior != dest:
                    op = (Opcode.MOVE if dest.cls is RClass.INT
                          else Opcode.FMOV)
                    block.instrs[i] = Instr(op, dest=dest, srcs=(prior,),
                                            origin=instr.origin)
                    eliminated += 1
                    instr = block.instrs[i]
            if isinstance(dest, VReg):
                # Kill expressions that used the redefined register (or were
                # produced into it).
                for k in users.pop(dest, ()):
                    v = available.get(k)
                    if v is not None and (v == dest or ("reg", dest) in k):
                        del available[k]
                if (instr.op in _PURE
                        and instr.op not in (Opcode.MOVE, Opcode.FMOV)
                        and dest not in instr.srcs):
                    # A recurrence like v = add(v, t) computes with the OLD
                    # v but would be keyed on the NEW v — never record it.
                    key = _key(instr)
                    available[key] = dest
                    users.setdefault(dest, []).append(key)
                    for part in key[1:-1]:
                        if part[0] == "reg":
                            users.setdefault(part[1], []).append(key)
    return eliminated
