"""The automatic register connection models (paper section 2.3), as one table.

After an instruction accesses a register through map index ``Rix``, the
hardware may automatically adjust the mapping table entry of ``Rix``.  Each
model is a row of *map moves*: ``(destination, source)`` pairs applied in
order, each setting ``destination[Rix] := source[Rix]``, where a map is
``READ`` or ``WRITE`` and the source ``HOME`` is the home location ``Rpx``
(index ``Rix`` itself).  ``on_write`` runs after a write through ``Rix``,
``on_read`` after a read through it.

1. **NO_RESET** — the map is unchanged; only explicit connects modify it.
2. **WRITE_RESET** — the write map is reset to the home location
   (``Rix_write := Rpx``) so subsequent writes return to the core register,
   but a connect-use is still needed to read the written value.
3. **WRITE_RESET_READ_UPDATE** — additionally the read map is replaced by
   the previous write map (``Rix_read := Rix_write; Rix_write := Rpx``),
   so the written value is readable without an extra connect-use.  This is
   the model the paper implements and simulates.
4. **READ_WRITE_RESET** — both maps reset to the home location
   (``Rix_read := Rpx; Rix_write := Rpx``), emphasizing free use of the core
   section.

The paper adds: "Other strategies for automatic register connection for the
source registers are possible; however, they are not considered in this
paper."  We implement one such strategy as model 5:

5. **READ_RESET** (ours) — a *read* through ``Rix`` resets its read map to
   the home location (one-shot read connections), combined with model 2's
   write reset.  Every access to an extended register then needs its own
   connect, which quantifies how much the paper's sticky read connections
   are worth.

Independently of the model, ``CALL`` and ``RET`` reset every entry to its
home location (section 4.1): :data:`HOME_RESET_OPS`.

Every consumer — the hardware table, the abstract map, the compiler's map
emulations, slot liveness and the three simulators — derives its own form
from these rows once, so a new model is one row.  Within a row, moves that
copy a map come before moves that reset to home (the generic-maps codegen
in :mod:`repro.sim.fastpath` relies on that order).
"""

from __future__ import annotations

import enum

from repro.isa.opcodes import Opcode

READ, WRITE, HOME = "read", "write", "home"

#: One map move ``(destination, source)``: ``destination[i] := source[i]``.
Move = tuple[str, str]

#: Opcodes that reset every map entry to home under every model.
HOME_RESET_OPS = frozenset({Opcode.CALL, Opcode.RET})


class RCModel(enum.Enum):
    #                          number, on write, on read
    NO_RESET = (1, ())
    WRITE_RESET = (2, ((WRITE, HOME),))
    WRITE_RESET_READ_UPDATE = (3, ((READ, WRITE), (WRITE, HOME)))
    READ_WRITE_RESET = (4, ((READ, HOME), (WRITE, HOME)))
    READ_RESET = (5, ((WRITE, HOME),), ((READ, HOME),))

    def __new__(cls, number: int, on_write: tuple[Move, ...],
                on_read: tuple[Move, ...] = ()) -> "RCModel":
        member = object.__new__(cls)
        member._value_ = number
        member.on_write = on_write
        member.on_read = on_read
        return member


def bind(moves: tuple[Move, ...], read, write) -> tuple[tuple, ...]:
    """*moves* with each map name replaced by a consumer's own read/write
    map object, and ``HOME`` by ``None``."""
    maps = {READ: read, WRITE: write, HOME: None}
    return tuple((maps[dst], maps[src]) for dst, src in moves)


#: The model evaluated in the paper's experiments.
DEFAULT_MODEL = RCModel.WRITE_RESET_READ_UPDATE
