"""Interference graph construction over virtual registers."""

from __future__ import annotations

from repro.ir.bitset import bit_liveness
from repro.ir.function import Function
from repro.isa.opcodes import Opcode
from repro.isa.registers import VReg


class InterferenceGraph:
    """Undirected interference graph; same-class edges only matter."""

    def __init__(self) -> None:
        self.adj: dict[VReg, set[VReg]] = {}

    def ensure(self, v: VReg) -> None:
        self.adj.setdefault(v, set())

    def add_edge(self, a: VReg, b: VReg) -> None:
        if a == b or a.cls is not b.cls:
            return
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)

    def neighbors(self, v: VReg) -> set[VReg]:
        return self.adj.get(v, set())

    def degree(self, v: VReg) -> int:
        return len(self.adj.get(v, ()))

    def interferes(self, a: VReg, b: VReg) -> bool:
        return b in self.adj.get(a, ())


def build_interference(fn: Function) -> InterferenceGraph:
    """Build the interference graph for *fn*.

    A definition interferes with everything live after it, with the classic
    exception that the destination of a copy does not interfere with its
    source.  Parameters are treated as defined on function entry.

    Adjacency accumulates as int bitmasks over the dense numbering of
    :mod:`repro.ir.bitset` and the ``VReg`` sets materialize once at the end.
    """
    binfo = bit_liveness(fn)
    index = binfo.index
    idx = index.index
    vregs = index.vregs
    cls_mask = index.class_mask
    adj = [0] * len(vregs)

    # Parameters are all "defined" at entry: they interfere with each other
    # and with anything else live into the entry block.
    entry_live = binfo.live_in[fn.entry.name] | index.mask_of(fn.params)
    for p in fn.params:
        pi = idx[p]
        adj[pi] |= entry_live & cls_mask[p.cls] & ~(1 << pi)

    for block in fn.blocks:
        after = binfo.live_across_instr_masks(block)
        for i, instr in enumerate(block.instrs):
            dest = instr.dest
            if not isinstance(dest, VReg):
                continue
            di = idx[dest]
            m = after[i] & cls_mask[dest.cls] & ~(1 << di)
            if m and instr.op in (Opcode.MOVE, Opcode.FMOV):
                src = instr.srcs[0]
                if isinstance(src, VReg):
                    m &= ~(1 << idx[src])
            adj[di] |= m

    # Materialize and symmetrize in one pass over the recorded edges.
    graph = InterferenceGraph()
    gadj = graph.adj
    for v in vregs:
        gadj[v] = set()
    for i, m in enumerate(adj):
        vi = vregs[i]
        si = gadj[vi]
        while m:
            low = m & -m
            vj = vregs[low.bit_length() - 1]
            si.add(vj)
            gadj[vj].add(vi)
            m ^= low
    return graph
