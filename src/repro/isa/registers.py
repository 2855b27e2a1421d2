"""Register classes, physical/virtual registers, and register file layout.

The base architecture is a MIPS-R2000-like machine with two register
classes: integer and floating point.  Floating-point values are all double
precision and occupy an *even-aligned pair* of FP registers, exactly as the
paper states ("Double precision floating point variables use two floating
point registers").  An FP operand always names the even register of its pair.

Reserved registers follow the paper's convention ("four integer registers are
reserved as spill registers and one integer register is reserved for Stack
Pointer"):

* integer: ``r0`` is the stack pointer, ``r1..r4`` are compiler spill
  temporaries (``r1`` doubles as the integer return-value register),
* floating point: ``f0..f3`` (two pairs) are spill temporaries, the pair
  ``f0:f1`` doubles as the FP return-value register.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class RClass(enum.Enum):
    """A register class of the architecture."""

    INT = "int"
    FP = "fp"

    # An identity hash agrees with ``==`` for singleton members and runs in
    # C, unlike ``Enum.__hash__``; nothing emitted may depend on set order.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RClass.{self.name}"


@dataclass(frozen=True, slots=True)
class PhysReg:
    """A physical register: a class and an index into that class's file."""

    cls: RClass
    num: int

    def __repr__(self) -> str:
        prefix = "r" if self.cls is RClass.INT else "f"
        return f"{prefix}{self.num}"


@dataclass(frozen=True, slots=True)
class VReg:
    """A compiler virtual register (pre register-allocation)."""

    cls: RClass
    vid: int
    name: str = ""

    def __repr__(self) -> str:
        prefix = "vi" if self.cls is RClass.INT else "vf"
        if self.name:
            return f"{prefix}{self.vid}:{self.name}"
        return f"{prefix}{self.vid}"


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand (integer or float constant)."""

    value: int | float

    def __repr__(self) -> str:
        return f"#{self.value}"


# Well-known integer registers.
SP = PhysReg(RClass.INT, 0)
INT_SPILL_TEMPS = (
    PhysReg(RClass.INT, 1),
    PhysReg(RClass.INT, 2),
    PhysReg(RClass.INT, 3),
    PhysReg(RClass.INT, 4),
)
INT_RETVAL = INT_SPILL_TEMPS[0]
NUM_RESERVED_INT = 5  # SP + four spill temporaries

# Well-known FP registers (pairs: f0:f1 and f2:f3).
FP_SPILL_TEMPS = (PhysReg(RClass.FP, 0), PhysReg(RClass.FP, 2))
FP_RETVAL = FP_SPILL_TEMPS[0]
NUM_RESERVED_FP = 4  # two reserved pairs

#: Total register file size (per class) when RC support is present (paper
#: section 5.2: "the register file is assumed to contain a total of 256
#: registers").
RC_TOTAL_REGISTERS = 256


@dataclass(frozen=True, slots=True)
class RegFileSpec:
    """Describes one class's register file for a machine configuration.

    ``core`` is the number of architecturally addressable registers (the
    size of the register mapping table when RC is enabled).  ``total`` is
    the number of physical registers; ``total > core`` only makes sense with
    RC support.
    """

    cls: RClass
    core: int
    total: int

    def __post_init__(self) -> None:
        if self.core < 1:
            raise ConfigError(f"core register count must be >= 1, got {self.core}")
        if self.total < self.core:
            raise ConfigError(
                f"total registers ({self.total}) < core registers ({self.core})"
            )
        reserved = NUM_RESERVED_INT if self.cls is RClass.INT else NUM_RESERVED_FP
        if self.core <= reserved:
            raise ConfigError(
                f"{self.cls.value} core file of {self.core} leaves no allocatable "
                f"registers ({reserved} are reserved)"
            )

    @property
    def extended(self) -> int:
        """Number of extended (non-core) physical registers."""
        return self.total - self.core

    @property
    def has_rc(self) -> bool:
        return self.total > self.core

    def allocatable_core(self) -> list[int]:
        """Core register numbers the allocator may hand out directly.

        For FP these are even pair bases; reserved registers are excluded.
        """
        if self.cls is RClass.INT:
            return list(range(NUM_RESERVED_INT, self.core))
        return list(range(NUM_RESERVED_FP, self.core, 2))

    def extended_registers(self) -> list[int]:
        """Extended physical register numbers (pair bases for FP)."""
        if self.cls is RClass.INT:
            return list(range(self.core, self.total))
        start = self.core if self.core % 2 == 0 else self.core + 1
        return list(range(start, self.total, 2))


def core_spec(cls: RClass, core: int) -> RegFileSpec:
    """A register file with no extended section (the without-RC model)."""
    return RegFileSpec(cls, core, core)


def rc_spec(cls: RClass, core: int, total: int = RC_TOTAL_REGISTERS) -> RegFileSpec:
    """A register file with RC support: *core* addressable, *total* physical."""
    return RegFileSpec(cls, core, total)


#: A practically-unlimited register file, used for the paper's
#: "unlimited number of registers" baseline and speedup reference.
UNLIMITED = 4096


def unlimited_spec(cls: RClass) -> RegFileSpec:
    return RegFileSpec(cls, UNLIMITED, UNLIMITED)
