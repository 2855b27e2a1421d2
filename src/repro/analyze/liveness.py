"""Backward liveness over mapping-table slots and extended registers.

The analysis runs on the :class:`~repro.analyze.dataflow.BackwardAnalysis`
framework.  States are immutable triples of int bitmasks
``(live_rmap, live_wmap, live_ext)``:

* ``live_rmap`` / ``live_wmap`` — mapping-table slots (read map / write map,
  bit :func:`~repro.analyze.dataflow.reg_bit` ``(cls, index)``) whose current
  target may still be observed before the slot is reconnected or reset;
* ``live_ext`` — extended physical registers whose current value may still
  be read.

Slot gen/kill is purely syntactic (operand indices plus the reset model), so
the slot component is exact with respect to the simulator: a read through a
mapped index uses its read-map slot, a write uses its write-map slot, and
then the model's moves apply (section 2.3, :mod:`repro.rc.models`).  The
backward transfer walks each move in reverse: a live destination slot is
killed, and liveness flows onto the source slot when the source is a map —
under model 3 the write-map value flows into the read map, so read-map
liveness transfers onto the write map.  ``CALL``/``RET`` reset every entry
to home (section 4.1), killing all slots.

Extended-register liveness needs the *forward* map fixpoint to know which
physical registers a mapped access resolves to, so callers pass
per-instruction use/def masks (see ``checks._ext_tables``); when the tables
are omitted the extended component stays empty and only slots are tracked —
the configuration the connect optimizer uses.

Each instruction is decoded once per :class:`SlotLiveness` object: its
connect kill masks, home reset, or destination/source/``mfmap`` slot bits
are cached by instruction identity (as the optimizer's forward map state
caches its moves), so the per-solve work is the model's undo moves on the
bits alone.  The extended use/def tables stay keyed by instruction index.
The connect optimizer keeps one object for a whole call, so the cache spans
every solve over every program it derives; the checker makes one per
function.
"""

from __future__ import annotations

from repro.analyze.cfg import FuncCFG
from repro.analyze.dataflow import BackwardAnalysis, reg_bit
from repro.isa.opcodes import Opcode
from repro.isa.registers import RClass
from repro.rc.models import HOME_RESET_OPS, READ, WRITE
from repro.sim.config import MachineConfig

_CLASSES = (RClass.INT, RClass.FP)

#: One liveness state: (live read-map slots, live write-map slots, live
#: extended registers).  Immutable, so ``copy`` is the identity.
LiveState = tuple[int, int, int]

EMPTY: LiveState = (0, 0, 0)

# Decoded transfer kinds (see ``SlotLiveness._decode``).
_CONNECT, _RESET, _GENERIC = range(3)


class SlotLiveness(BackwardAnalysis):
    """May-liveness of map slots (and optionally extended registers).

    The decode cache assumes an instruction is not mutated while this
    object is in use.
    """

    def __init__(self, config: MachineConfig,
                 ext_use: dict[int, int] | None = None,
                 ext_def: dict[int, int] | None = None) -> None:
        self.config = config
        # The model's moves, reversed, over slot-mask positions
        # (0 read map, 1 write map, None home).
        model = config.rc_model
        pos = {READ: 0, WRITE: 1}
        self._undo_write = tuple((pos[d], pos.get(s))
                                 for d, s in reversed(model.on_write))
        self._undo_read = tuple((pos[d], pos.get(s))
                                for d, s in reversed(model.on_read))
        self.entries = {
            cls: (config.spec_for(cls).core
                  if config.spec_for(cls).has_rc else 0)
            for cls in _CLASSES
        }
        self.ext_use = ext_use or {}
        self.ext_def = ext_def or {}
        #: Instruction -> its decoded transfer, keyed by identity.
        self._effects: dict = {}
        all_slots = 0
        for cls, n in self.entries.items():
            for index in range(n):
                all_slots |= 1 << reg_bit(cls, index)
        self.all_slots = all_slots

    # -- BackwardAnalysis interface ------------------------------------------

    def boundary(self, fn: FuncCFG) -> LiveState:
        if fn.is_handler:
            # A handler returns into an arbitrary interrupted context (and
            # its connects mutate the live tables even with mapping
            # disabled): keep every slot conservatively live.
            return (self.all_slots, self.all_slots, 0)
        # Extended registers are caller-saved and the maps reset at return:
        # nothing survives a normal exit.
        return EMPTY

    def bottom(self, fn: FuncCFG) -> LiveState:
        return EMPTY

    def join(self, a: LiveState, b: LiveState) -> LiveState:
        return (a[0] | b[0], a[1] | b[1], a[2] | b[2])

    def copy(self, state: LiveState) -> LiveState:
        return state

    def transfer(self, state: LiveState, index: int, instr) -> LiveState:
        effect = self._effects.get(instr)
        if effect is None:
            effect = self._effects[instr] = self._decode(instr)
        rmap, wmap, ext = state
        kind = effect[0]

        if kind == _CONNECT:
            # Every update redefines its slot before anything reads it.
            return (rmap & effect[1], wmap & effect[2], ext)

        if kind == _RESET:
            # Both endpoints reset every entry to home: the callee starts
            # from home maps, so no caller slot is observed, and every slot
            # is redefined before the next instruction runs.
            return (0, 0, ext | self.ext_use.get(index, 0))

        # Generic instruction.  Forward order is: resolve reads through the
        # read map and the write through the write map (``mfmap`` observes
        # its slot here too), apply the model's moves after each read,
        # execute, apply the moves after the write.  Undo each in reverse.
        _kind, dest_bit, src_bits, read_gen, write_gen = effect
        live = [rmap, wmap]
        if dest_bit:
            for dst, src in self._undo_write:
                if live[dst] & dest_bit:
                    live[dst] &= ~dest_bit
                    if src is not None:
                        live[src] |= dest_bit

        ext &= ~self.ext_def.get(index, 0)

        for bit in src_bits:
            for dst, src in self._undo_read:
                if live[dst] & bit:
                    live[dst] &= ~bit
                    if src is not None:
                        live[src] |= bit
        ext |= self.ext_use.get(index, 0)
        return (live[0] | read_gen, live[1] | write_gen, ext)

    def _decode(self, instr) -> tuple:
        """The state-independent part of *instr*'s transfer (see
        :meth:`transfer`): connect kill masks, the home reset, or the
        dest/src slot bits plus the slots the instruction observes."""
        entries = self.entries
        if instr.is_connect:
            cls = instr.imm[0]
            kill = {"read": 0, "write": 0}
            for _cls, which, ri, _rp in instr.connect_updates():
                if ri < entries.get(cls, 0):
                    kill[which] |= 1 << reg_bit(cls, ri)
            return (_CONNECT, ~kill["read"], ~kill["write"])
        if instr.op in HOME_RESET_OPS:
            return (_RESET,)
        dest = instr.dest
        dest_bit = 0
        if dest is not None and dest.num < entries.get(dest.cls, 0):
            dest_bit = 1 << reg_bit(dest.cls, dest.num)
        src_bits = tuple(1 << reg_bit(src.cls, src.num)
                         for src in instr.reg_srcs()
                         if src.num < entries.get(src.cls, 0))
        read_gen = 0
        for bit in src_bits:
            read_gen |= bit
        write_gen = dest_bit
        if instr.op is Opcode.MFMAP:
            rclass, idx, which = instr.imm
            if idx < entries.get(rclass, 0):
                bit = 1 << reg_bit(rclass, idx)
                if which == "read":
                    read_gen |= bit
                else:
                    write_gen |= bit
        return (_GENERIC, dest_bit, src_bits, read_gen, write_gen)


def after_states(result) -> dict[int, LiveState]:
    """Per-instruction liveness *after* each instruction of one function.

    *result* is the :class:`~repro.analyze.dataflow.BackwardResult` of a
    :class:`SlotLiveness` solve; unreachable blocks are absent.
    """
    states: dict[int, LiveState] = {}

    def visit(state: LiveState, i: int, _instr) -> None:
        states[i] = state

    for start, block in result.fn.blocks.items():
        if start in result.block_out:
            result.walk(block, visit)
    return states
