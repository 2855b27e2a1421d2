"""Dependence DAG construction for basic-block scheduling.

Resources tracked:

* physical registers (per class),
* memory (with simple base+offset disambiguation: accesses off the same
  unmodified base register at different offsets are independent, and loads
  never conflict with loads),
* register-mapping-table entries of the connection windows — a connect
  writes its target map entry; an instruction reading/writing through a
  window reads that window's read/write map entry, and the reset model's
  moves after the access write their destination entry and read their
  source entry.  These edges are what keep connects glued in front of
  their consumers while still letting the scheduler exploit zero-cycle
  connect latency (a 0-cycle edge permits same-cycle issue in program
  order).

Calls, traps, and PSW manipulation are scheduling barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instr
from repro.isa.latency import LatencyModel
from repro.isa.opcodes import Opcode
from repro.isa.registers import Imm, PhysReg, RClass
from repro.rc.models import HOME_RESET_OPS, READ, WRITE, RCModel

_BARRIERS = {Opcode.CALL, Opcode.RET, Opcode.TRAP, Opcode.RTE,
             Opcode.MTPSW, Opcode.MFPSW, Opcode.MFMAP, Opcode.HALT}

#: Map-entry pseudo-resource tag of each map.
_TAG = {READ: "rmap", WRITE: "wmap"}


@dataclass
class DepNode:
    index: int
    instr: Instr
    preds: dict[int, int] = field(default_factory=dict)  # pred -> latency
    succs: dict[int, int] = field(default_factory=dict)

    def add_edge_to(self, succ: "DepNode", latency: int) -> None:
        if succ.index == self.index:
            return
        prev = self.succs.get(succ.index, -1)
        if latency > prev:
            self.succs[succ.index] = latency
            succ.preds[self.index] = latency


class DepGraph:
    """Dependence DAG over one basic block's instructions."""

    def __init__(self, instrs: list[Instr], latency: LatencyModel,
                 rc_model: RCModel,
                 windows: dict[RClass, list[int]] | None = None) -> None:
        self.nodes = [DepNode(i, ins) for i, ins in enumerate(instrs)]
        self._latency = latency
        self._windows = {
            cls: set(w) for cls, w in (windows or {}).items()
        }
        #: Window-emulation state, keyed by ``(rclass, index)``.
        self._read_map: dict = {}
        self._write_map: dict = {}
        maps = {READ: self._read_map, WRITE: self._write_map}

        def bind(moves):
            # (destination tag, destination map, source tag or None,
            #  source map or None for home)
            return tuple((_TAG[d], maps[d], _TAG.get(s), maps.get(s))
                         for d, s in moves)

        self._on_write = bind(rc_model.on_write)
        self._on_read = bind(rc_model.on_read)
        self._build()

    # -- resource footprints --------------------------------------------------
    #
    # Register operands that go through a connection window are resolved to
    # their *physical* targets by emulating the mapping table in program
    # order; the map-entry pseudo-resources then pin every access between
    # the connects that establish its mapping, so the resolution stays valid
    # under any schedule the DAG permits.

    def _is_window(self, reg: PhysReg) -> bool:
        return reg.num in self._windows.get(reg.cls, ())

    def _footprint(self, instr: Instr):
        """Return (reads, writes) resource-key sets for *instr*, updating
        the window emulation in program order: resolve the sources and the
        destination, then apply the model's moves after the reads and after
        the write."""
        read_map = self._read_map
        write_map = self._write_map
        reads: set = set()
        writes: set = set()
        windows_read = []
        for s in instr.srcs:
            if isinstance(s, Imm):
                continue
            if isinstance(s, PhysReg) and self._is_window(s):
                phys = read_map.get((s.cls, s.num), s.num)
                reads.add(PhysReg(s.cls, phys))
                reads.add(("rmap", s.cls, s.num))
                windows_read.append(s)
            else:
                reads.add(s)
        dest = instr.dest
        window_dest = None
        if dest is not None:
            if isinstance(dest, PhysReg) and self._is_window(dest):
                phys = write_map.get((dest.cls, dest.num), dest.num)
                writes.add(PhysReg(dest.cls, phys))
                reads.add(("wmap", dest.cls, dest.num))
                window_dest = dest
            else:
                writes.add(dest)
        for s in windows_read:
            self._move(self._on_read, s, reads, writes)
        if window_dest is not None:
            self._move(self._on_write, window_dest, reads, writes)
        if instr.is_connect:
            for rclass, which, idx, phys in instr.connect_updates():
                key = ("rmap" if which == "read" else "wmap", rclass, idx)
                writes.add(key)
                if which == "read":
                    read_map[(rclass, idx)] = phys
                else:
                    write_map[(rclass, idx)] = phys
        return reads, writes

    @staticmethod
    def _move(moves, reg: PhysReg, reads: set, writes: set) -> None:
        """Apply *moves* for an access through window *reg*: each writes
        its destination entry and reads a map source."""
        key = (reg.cls, reg.num)
        for dtag, dmap, stag, smap in moves:
            writes.add((dtag, reg.cls, reg.num))
            if smap is None:
                dmap[key] = reg.num
            else:
                reads.add((stag, reg.cls, reg.num))
                dmap[key] = smap.get(key, reg.num)

    @staticmethod
    def _mem_key(instr: Instr, reg_version: dict) -> tuple | None:
        """A disambiguation key for a memory access, or None if unknown."""
        if instr.op in (Opcode.LOAD, Opcode.FLOAD):
            base = instr.srcs[0]
        elif instr.op in (Opcode.STORE, Opcode.FSTORE):
            base = instr.srcs[1]
        else:
            return None
        if isinstance(base, Imm) or not isinstance(instr.imm, int):
            return None
        version = reg_version.get(base, 0)
        return (base, version, instr.imm)

    @staticmethod
    def _mem_tag(instr: Instr) -> tuple | None:
        """Memory-region provenance: alias-analysis tag or the SP region."""
        if instr.alias is not None:
            return instr.alias
        base = (instr.srcs[0]
                if instr.op in (Opcode.LOAD, Opcode.FLOAD)
                else instr.srcs[1] if instr.op in (Opcode.STORE,
                                                   Opcode.FSTORE)
                else None)
        if (isinstance(base, PhysReg) and base.cls is RClass.INT
                and base.num == 0):
            return ("stack",)
        return None

    # Register resources are keyed by the operand object itself (VReg before
    # allocation, PhysReg after), so the same graph serves both the prepass
    # schedule over virtual registers and the postpass over machine code.

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        last_writer: dict = {}
        readers_since_write: dict = {}
        reg_version: dict = {}
        mem_ops: list[tuple] = []  # (node, is_store, key, region tag)
        barrier: DepNode | None = None

        for node in self.nodes:
            instr = node.instr
            if instr.op in HOME_RESET_OPS:
                self._read_map.clear()
                self._write_map.clear()
            reads, writes = self._footprint(instr)

            if barrier is not None:
                barrier.add_edge_to(node, 1)

            # RAW and WAR/WAW through named resources.
            for key in reads:
                w = last_writer.get(key)
                if w is not None:
                    edge_lat = self._producer_latency(w.instr, key)
                    w.add_edge_to(node, edge_lat)
                readers_since_write.setdefault(key, []).append(node)
            for key in writes:
                w = last_writer.get(key)
                if w is not None:
                    w.add_edge_to(node, self._producer_latency(w.instr, key))
                for r in readers_since_write.get(key, ()):
                    r.add_edge_to(node, 0)  # WAR: order only
                last_writer[key] = node
                readers_since_write[key] = []
                if not isinstance(key, tuple):
                    reg_version[key] = reg_version.get(key, 0) + 1

            # Memory ordering.
            if instr.is_mem:
                is_store = instr.op in (Opcode.STORE, Opcode.FSTORE)
                key = self._mem_key(instr, reg_version)
                tag = self._mem_tag(instr)
                for other, other_store, other_key, other_tag in mem_ops:
                    if not is_store and not other_store:
                        continue  # loads reorder freely among loads
                    if (tag is not None and other_tag is not None
                            and tag != other_tag):
                        continue  # provably distinct memory regions
                    if (key is not None and other_key is not None
                            and key[:2] == other_key[:2]
                            and key[2] != other_key[2]):
                        continue  # provably disjoint slots off the same base
                    edge_lat = 1 if other_store else 0
                    other.add_edge_to(node, edge_lat)
                mem_ops.append((node, is_store, key, tag))

            if instr.op in _BARRIERS:
                for earlier in self.nodes[: node.index]:
                    earlier.add_edge_to(node, 1)
                barrier = node

        # The terminator anchors the block end.
        if self.nodes:
            term = self.nodes[-1]
            if term.instr.is_branch or term.instr.op is Opcode.HALT:
                for other in self.nodes[:-1]:
                    other.add_edge_to(term, 0)

    def _producer_latency(self, instr: Instr, key) -> int:
        if isinstance(key, tuple) and key[0] in ("rmap", "wmap"):
            if instr.is_connect:
                return self._latency.connect
            return 0  # automatic reset takes effect at issue
        return self._latency.of(instr.op)

    # -- queries -----------------------------------------------------------------

    def heights(self) -> list[int]:
        """Critical-path height of every node (longest path to a sink)."""
        heights = [0] * len(self.nodes)
        for node in reversed(self.nodes):
            best = 0
            for succ, edge_lat in node.succs.items():
                candidate = heights[succ] + max(edge_lat, 1)
                if candidate > best:
                    best = candidate
            heights[node.index] = best
        return heights
