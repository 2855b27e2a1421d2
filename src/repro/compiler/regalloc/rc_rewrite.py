"""Connect insertion: make extended-register references encodable.

After allocation, instructions may reference extended physical registers
(numbers >= the core size), which the instruction format cannot encode.
This pass rewrites each such reference to go through a core register index,
inserting ``connect-use``/``connect-def`` instructions and emulating the
register mapping table (paper section 3: "this can be accomplished by
emulating the register mapping table and either selecting the index entry
currently pointing to the physical register as its index or selecting the
least important index as the new index").

Index selection uses two pools:

* a small set of reserved **connection windows** — core registers the
  allocator never assigns, always safe to redirect; and
* **stolen indices** — allocatable core registers whose value is provably
  not read again within the current block.  Redirecting their read map is
  safe because (a) in-block reads are excluded by the eligibility check,
  (b) an in-block write through the index self-heals the map under the
  automatic-reset models, and (c) a restore connect re-homes any index still
  redirected at block exit, preserving the invariant that every block (and
  every function, via the ``jsr``/``rts`` hardware reset) starts with
  non-window indices at their home locations.

Write-map redirection through stolen indices is only done under models that
reset the write map after a write (models 2-5); model 1 (no reset) uses the
reserved windows exclusively.

Finally, adjacent connect pairs are merged into the combined
``connect-use-use`` / ``connect-def-use`` / ``connect-def-def`` forms, which
is the encoding the paper's experiments use (section 2.2, footnote 1).
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.ir.function import Function
from repro.isa.instruction import (
    Instr,
    combine_connects,
    connect_def,
    connect_use,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import PhysReg, RClass
from repro.rc.models import HOME, WRITE, RCModel, bind

_STATE_RESET_OPS = {Opcode.CALL, Opcode.RET, Opcode.TRAP, Opcode.RTE,
                    Opcode.MTPSW}


class ConnectionAllocator:
    """Mapping-table emulation over windows plus stealable core indices."""

    def __init__(self, windows: list[int], steal_pool: list[int],
                 model: RCModel) -> None:
        if len(windows) < 2:
            raise AllocationError("need at least two connection windows")
        self.windows = list(windows)
        self.steal_pool = [c for c in steal_pool if c not in set(windows)]
        all_indices = self.windows + self.steal_pool
        #: Current read/write targets; the home target of index i is i
        #: itself (windows start unknown, which behaves like home for our
        #: purposes: neither is a useful extended connection).
        self.read_t: dict[int, int] = {i: i for i in all_indices}
        self.write_t: dict[int, int] = {i: i for i in all_indices}
        self._on_write = bind(model.on_write, self.read_t, self.write_t)
        self._on_read = bind(model.on_read, self.read_t, self.write_t)
        #: Whether a write through an index re-homes its write map, which
        #: makes redirecting a stolen index's write map safe.
        self._write_heals = (WRITE, HOME) in model.on_write
        self._tick = 0
        self._last_used: dict[int, int] = {
            i: n for n, i in enumerate(all_indices)
        }

    def reset_home(self) -> None:
        for i in self.read_t:
            self.read_t[i] = i
            self.write_t[i] = i

    def _touch(self, i: int) -> None:
        self._tick += 1
        self._last_used[i] = self._tick

    def _pick(self, eligible_steals, excluded: set[int]) -> int:
        candidates = [w for w in self.windows if w not in excluded]
        candidates += [c for c in eligible_steals if c not in excluded]
        if not candidates:
            raise AllocationError("no connectable register index available")
        return min(candidates, key=lambda i: self._last_used[i])

    def for_read(self, ext: int, eligible_steals, claimed: set[int],
                 cls: RClass, origin: str) -> tuple[int, Instr | None]:
        for i, target in self.read_t.items():
            if target == ext:
                self._touch(i)
                return i, None
        i = self._pick(eligible_steals, claimed)
        self.read_t[i] = ext
        self._touch(i)
        return i, connect_use(cls, i, ext, origin=origin)

    def for_write(self, ext: int, eligible_steals, cls: RClass,
                  origin: str) -> tuple[int, Instr | None]:
        if not self._write_heals:
            for i, target in self.write_t.items():
                if target == ext:
                    self._touch(i)
                    return i, None
            eligible_steals = ()  # writes never self-heal: windows only
        i = self._pick(eligible_steals, set())
        self.write_t[i] = ext
        self._touch(i)
        return i, connect_def(cls, i, ext, origin=origin)

    def after_write(self, i: int) -> None:
        """Model transition after a write through index *i* (section 2.3)."""
        if i in self.read_t:  # reserved registers are never redirected
            for dst, src in self._on_write:
                dst[i] = i if src is None else src[i]

    def after_read(self, i: int) -> None:
        """Model transition after a read through index *i* (model 5)."""
        if i in self.read_t:
            for dst, src in self._on_read:
                dst[i] = i if src is None else src[i]

    def restores(self, cls: RClass) -> list[Instr]:
        """Connects that re-home every stolen index still redirected."""
        out: list[Instr] = []
        for i in self.steal_pool:
            if self.read_t[i] != i:
                out.append(connect_use(cls, i, i, origin="connect"))
                self.read_t[i] = i
            if self.write_t[i] != i:
                out.append(connect_def(cls, i, i, origin="connect"))
                self.write_t[i] = i
        return out


def _combine_adjacent_connects(instrs: list[Instr]) -> list[Instr]:
    out: list[Instr] = []
    for instr in instrs:
        if (out and out[-1].op in (Opcode.CUSE, Opcode.CDEF)
                and instr.op in (Opcode.CUSE, Opcode.CDEF)):
            merged = combine_connects(out[-1], instr)
            if merged is not None:
                out[-1] = merged
                continue
        out.append(instr)
    return out


def _reads_after(instrs: list[Instr], cls: RClass,
                 core_size: int) -> list[set[int]]:
    """For each position, the core indices of *cls* read at or after it."""
    acc: set[int] = set()
    result: list[set[int]] = [set()] * len(instrs)
    for p in range(len(instrs) - 1, -1, -1):
        instr = instrs[p]
        for s in instr.srcs:
            if isinstance(s, PhysReg) and s.cls is cls and s.num < core_size:
                acc = acc | {s.num}
        result[p] = acc
    return result


def insert_connects(fn: Function, cls: RClass, core_size: int,
                    windows: list[int], model: RCModel,
                    combine: bool = True,
                    steal_pool: list[int] | None = None) -> int:
    """Rewrite extended references of class *cls* through core indices.

    Returns the number of connect instructions inserted (after combining,
    each combined connect counts once).
    """
    steal_pool = steal_pool or []
    inserted = 0
    for block in fn.blocks:
        alloc = ConnectionAllocator(windows, steal_pool, model)
        instrs = block.instrs
        reads_after = _reads_after(instrs, cls, core_size)
        out: list[Instr] = []
        n = len(instrs)
        for p, instr in enumerate(instrs):
            if instr.op in _STATE_RESET_OPS:
                if instr.op is Opcode.CALL:
                    out.append(instr)
                else:
                    # RET/TRAP/etc.: hardware handles the map, but any
                    # fall-through (trap return) must still see home maps.
                    restores = alloc.restores(cls)
                    out.extend(restores)
                    inserted += len(restores)
                    out.append(instr)
                alloc.reset_home()
                continue
            is_terminator = p == n - 1 and instr.is_branch
            if is_terminator:
                # Re-home stolen indices before leaving the block; the
                # terminator itself may only use windows (its connects come
                # after the restores).
                restores = alloc.restores(cls)
                out.extend(restores)
                inserted += len(restores)
                eligible: set[int] = set()
            else:
                eligible = {c for c in alloc.steal_pool
                            if c not in reads_after[p]}
            origin = "callsave" if instr.origin == "callsave" else "connect"
            claimed: set[int] = set()
            read_indices: list[int] = []
            connects: list[Instr] = []
            new_srcs = list(instr.srcs)
            for i, s in enumerate(new_srcs):
                if (isinstance(s, PhysReg) and s.cls is cls
                        and s.num >= core_size):
                    idx, conn = alloc.for_read(s.num, eligible, claimed,
                                               cls, origin)
                    claimed.add(idx)
                    read_indices.append(idx)
                    if conn is not None:
                        connects.append(conn)
                    new_srcs[i] = PhysReg(cls, idx)
            dest = instr.dest
            if (isinstance(dest, PhysReg) and dest.cls is cls
                    and dest.num >= core_size):
                idx, conn = alloc.for_write(dest.num, eligible, cls, origin)
                if conn is not None:
                    connects.append(conn)
                instr.dest = PhysReg(cls, idx)
            instr.srcs = tuple(new_srcs)
            out.extend(connects)
            inserted += len(connects)
            out.append(instr)
            for idx in read_indices:
                alloc.after_read(idx)
            final_dest = instr.dest
            if (isinstance(final_dest, PhysReg) and final_dest.cls is cls
                    and final_dest.num < core_size):
                alloc.after_write(final_dest.num)
        block.instrs = _combine_adjacent_connects(out) if combine else out
    return inserted


def check_encodable(fn: Function, cls: RClass, core_size: int) -> None:
    """Assert no remaining operand references an extended register."""
    for block in fn.blocks:
        for instr in block.instrs:
            for reg in instr.regs():
                if (isinstance(reg, PhysReg) and reg.cls is cls
                        and reg.num >= core_size):
                    raise AllocationError(
                        f"{fn.name}/{block.name}: unencodable operand "
                        f"{reg!r} survived connect insertion"
                    )
