"""Opcode definitions and static per-opcode metadata.

The instruction set is the MIPS R2000 set "extended with additional branch
opcodes to allow general operand comparison and to facilitate static branch
prediction" (paper section 5.2), plus the five connect instructions of the RC
extension (section 2.2) and a handful of system instructions used for trap
handling and context switching (section 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.registers import RClass


class Category(enum.Enum):
    """Latency class of an opcode (Table 1 of the paper)."""

    INT_ALU = "INT ALU"
    INT_MUL = "INT multiply"
    INT_DIV = "INT divide"
    BRANCH = "branch"
    LOAD = "memory load"
    STORE = "memory store"
    FP_ALU = "FP ALU"
    FP_CVT = "FP conversion"
    FP_MUL = "FP multiply"
    FP_DIV = "FP divide"
    CONNECT = "connect"
    SYSTEM = "system"
    MISC = "misc"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==`` and runs in C (``Enum.__hash__`` hashes the name in
    # Python).  Nothing emitted may depend on set iteration order.
    __hash__ = object.__hash__


class Opcode(enum.Enum):
    # Integer ALU.
    LI = "li"
    MOVE = "move"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    # Integer multiply / divide.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Floating point (all double precision, register pairs).
    LIF = "lif"
    FMOV = "fmov"
    FNEG = "fneg"
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FCMPEQ = "fcmpeq"
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    CVTIF = "cvtif"
    CVTFI = "cvtfi"
    # Memory.
    LOAD = "load"
    STORE = "store"
    FLOAD = "fload"
    FSTORE = "fstore"
    # Control transfer.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BLE = "ble"
    BGT = "bgt"
    BGE = "bge"
    BEQZ = "beqz"
    BNEZ = "bnez"
    JMP = "jmp"
    CALL = "call"
    RET = "ret"
    HALT = "halt"
    # Register connection (section 2.2).
    CUSE = "connect_use"
    CDEF = "connect_def"
    CUU = "connect_use_use"
    CDU = "connect_def_use"
    CDD = "connect_def_def"
    # System (section 4: traps, interrupts, context switching).
    TRAP = "trap"
    RTE = "rte"
    MFPSW = "mfpsw"
    MTPSW = "mtpsw"
    MFMAP = "mfmap"
    NOP = "nop"

    __hash__ = object.__hash__  # see Category

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


@dataclass(frozen=True, slots=True)
class OpSpec:
    """Static metadata for one opcode.

    ``dest`` / ``srcs`` give the register class expected for the destination
    and each source operand (``None`` destination means the opcode writes no
    register).  Integer source slots also accept immediates.
    """

    opcode: "Opcode"
    category: Category
    dest: RClass | None = None
    srcs: tuple[RClass, ...] = ()
    uses_imm: bool = False
    uses_label: bool = False
    is_cond_branch: bool = False
    commutative: bool = False

    @property
    def is_branch(self) -> bool:
        return self.category is Category.BRANCH

    @property
    def is_mem(self) -> bool:
        return self.category in (Category.LOAD, Category.STORE)

    @property
    def is_connect(self) -> bool:
        return self.category is Category.CONNECT


_I = RClass.INT
_F = RClass.FP


def _int_alu(op: Opcode, nsrc: int = 2, commutative: bool = False) -> OpSpec:
    return OpSpec(op, Category.INT_ALU, dest=_I, srcs=(_I,) * nsrc,
                  commutative=commutative)


def _fp_alu(op: Opcode, nsrc: int = 2, dest: RClass = _F,
            commutative: bool = False) -> OpSpec:
    return OpSpec(op, Category.FP_ALU, dest=dest, srcs=(_F,) * nsrc,
                  commutative=commutative)


def _branch(op: Opcode, nsrc: int) -> OpSpec:
    return OpSpec(op, Category.BRANCH, srcs=(_I,) * nsrc, uses_label=True,
                  is_cond_branch=nsrc > 0)


SPECS: dict[Opcode, OpSpec] = {
    s.opcode: s
    for s in [
        OpSpec(Opcode.LI, Category.INT_ALU, dest=_I, uses_imm=True),
        OpSpec(Opcode.MOVE, Category.INT_ALU, dest=_I, srcs=(_I,)),
        _int_alu(Opcode.ADD, commutative=True),
        _int_alu(Opcode.SUB),
        _int_alu(Opcode.AND, commutative=True),
        _int_alu(Opcode.OR, commutative=True),
        _int_alu(Opcode.XOR, commutative=True),
        _int_alu(Opcode.SLL),
        _int_alu(Opcode.SRL),
        _int_alu(Opcode.SRA),
        _int_alu(Opcode.CMPEQ, commutative=True),
        _int_alu(Opcode.CMPNE, commutative=True),
        _int_alu(Opcode.CMPLT),
        _int_alu(Opcode.CMPLE),
        _int_alu(Opcode.CMPGT),
        _int_alu(Opcode.CMPGE),
        OpSpec(Opcode.MUL, Category.INT_MUL, dest=_I, srcs=(_I, _I),
               commutative=True),
        OpSpec(Opcode.DIV, Category.INT_DIV, dest=_I, srcs=(_I, _I)),
        OpSpec(Opcode.REM, Category.INT_DIV, dest=_I, srcs=(_I, _I)),
        OpSpec(Opcode.LIF, Category.MISC, dest=_F, uses_imm=True),
        _fp_alu(Opcode.FMOV, nsrc=1),
        _fp_alu(Opcode.FNEG, nsrc=1),
        _fp_alu(Opcode.FADD, commutative=True),
        _fp_alu(Opcode.FSUB),
        OpSpec(Opcode.FMUL, Category.FP_MUL, dest=_F, srcs=(_F, _F),
               commutative=True),
        OpSpec(Opcode.FDIV, Category.FP_DIV, dest=_F, srcs=(_F, _F)),
        _fp_alu(Opcode.FCMPEQ, dest=_I, commutative=True),
        _fp_alu(Opcode.FCMPLT, dest=_I),
        _fp_alu(Opcode.FCMPLE, dest=_I),
        OpSpec(Opcode.CVTIF, Category.FP_CVT, dest=_F, srcs=(_I,)),
        OpSpec(Opcode.CVTFI, Category.FP_CVT, dest=_I, srcs=(_F,)),
        OpSpec(Opcode.LOAD, Category.LOAD, dest=_I, srcs=(_I,), uses_imm=True),
        OpSpec(Opcode.STORE, Category.STORE, srcs=(_I, _I), uses_imm=True),
        OpSpec(Opcode.FLOAD, Category.LOAD, dest=_F, srcs=(_I,), uses_imm=True),
        OpSpec(Opcode.FSTORE, Category.STORE, srcs=(_F, _I), uses_imm=True),
        _branch(Opcode.BEQ, 2),
        _branch(Opcode.BNE, 2),
        _branch(Opcode.BLT, 2),
        _branch(Opcode.BLE, 2),
        _branch(Opcode.BGT, 2),
        _branch(Opcode.BGE, 2),
        _branch(Opcode.BEQZ, 1),
        _branch(Opcode.BNEZ, 1),
        _branch(Opcode.JMP, 0),
        OpSpec(Opcode.CALL, Category.BRANCH, uses_label=True),
        OpSpec(Opcode.RET, Category.BRANCH),
        OpSpec(Opcode.HALT, Category.SYSTEM),
        OpSpec(Opcode.CUSE, Category.CONNECT, uses_imm=True),
        OpSpec(Opcode.CDEF, Category.CONNECT, uses_imm=True),
        OpSpec(Opcode.CUU, Category.CONNECT, uses_imm=True),
        OpSpec(Opcode.CDU, Category.CONNECT, uses_imm=True),
        OpSpec(Opcode.CDD, Category.CONNECT, uses_imm=True),
        OpSpec(Opcode.TRAP, Category.SYSTEM, uses_imm=True),
        OpSpec(Opcode.RTE, Category.SYSTEM),
        OpSpec(Opcode.MFPSW, Category.SYSTEM, dest=_I),
        OpSpec(Opcode.MTPSW, Category.SYSTEM, srcs=(_I,)),
        OpSpec(Opcode.MFMAP, Category.SYSTEM, dest=_I, uses_imm=True),
        OpSpec(Opcode.NOP, Category.MISC),
    ]
}

#: Opcodes whose semantics transfer control.
CONTROL_OPS = frozenset(
    op for op, s in SPECS.items()
    if s.category is Category.BRANCH or op in (Opcode.HALT, Opcode.TRAP, Opcode.RTE)
)

#: Conditional branch opcodes, mapped to their negated form (used by the
#: compiler when flipping fall-through direction).
NEGATED_BRANCH: dict[Opcode, Opcode] = {
    Opcode.BEQ: Opcode.BNE,
    Opcode.BNE: Opcode.BEQ,
    Opcode.BLT: Opcode.BGE,
    Opcode.BLE: Opcode.BGT,
    Opcode.BGT: Opcode.BLE,
    Opcode.BGE: Opcode.BLT,
    Opcode.BEQZ: Opcode.BNEZ,
    Opcode.BNEZ: Opcode.BEQZ,
}

CONNECT_OPS = frozenset(
    (Opcode.CUSE, Opcode.CDEF, Opcode.CUU, Opcode.CDU, Opcode.CDD)
)


def spec(op: Opcode) -> OpSpec:
    """Return the :class:`OpSpec` for *op*."""
    return SPECS[op]


def ends_block(op: Opcode) -> bool:
    """Whether *op* terminates a machine basic block.

    Every control transfer ends a block, including CALL and TRAP (whose
    intraprocedural successor is the following instruction).
    """
    return op in CONTROL_OPS


def falls_through(op: Opcode) -> bool:
    """Whether control can continue to the next instruction after *op*.

    Unconditional jumps, returns, and halts never fall through; conditional
    branches, calls, and traps (whose handlers return via ``rte``) do.
    """
    return op not in (Opcode.JMP, Opcode.RET, Opcode.HALT, Opcode.RTE)
