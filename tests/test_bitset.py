"""Property tests: bitmask liveness/interference vs the set-based reference.

Random CFGs — straight-line runs, if/else diamonds, counted loops, dead
blocks — are checked for exact equality between :mod:`repro.ir.bitset` and
the executable set-based specifications (:func:`repro.ir.liveness.liveness`
and the pairwise interference construction below).
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.regalloc.interference import (
    InterferenceGraph,
    build_interference,
)
from repro.ir import FnBuilder, Module
from repro.ir.bitset import VRegIndex, bit_liveness
from repro.ir.liveness import liveness
from repro.isa.opcodes import Opcode
from repro.isa.registers import VReg

N_VARS = 5
N_FVARS = 2

_BINOPS = ["add", "sub", "mul", "xor", "and_", "or_", "cmplt"]


def _ops(max_size):
    return st.lists(
        st.tuples(st.integers(0, N_VARS - 1),
                  st.sampled_from(_BINOPS),
                  st.integers(0, N_VARS - 1),
                  st.integers(0, N_VARS - 1)),
        min_size=0, max_size=max_size)


@st.composite
def cfg_spec(draw):
    """A random CFG description: a list of segments plus a dead-block flag."""
    segments = draw(st.lists(st.one_of(
        st.tuples(st.just("straight"), _ops(5)),
        st.tuples(st.just("diamond"), st.integers(0, N_VARS - 1),
                  _ops(3), _ops(3)),
        st.tuples(st.just("loop"), _ops(4)),
    ), min_size=1, max_size=4))
    fp_pairs = draw(st.lists(
        st.tuples(st.integers(0, N_FVARS - 1), st.integers(0, N_FVARS - 1)),
        min_size=0, max_size=2))
    dead = draw(st.booleans())
    return segments, fp_pairs, dead


def build_function(spec, with_dead):
    """Materialize a spec as one IR function (never executed)."""
    segments, fp_pairs, _ = spec
    m = Module()
    m.add_global("data", N_VARS)
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    base = b.la("data")
    vals = [b.load(base, j, name=f"v{j}") for j in range(N_VARS)]
    fvals = [b.fli(float(j + 1), name=f"f{j}") for j in range(N_FVARS)]

    def emit(op_tuple):
        d, op, a, c = op_tuple
        getattr(b, op)(vals[a], vals[c], dest=vals[d])

    for k, seg in enumerate(segments):
        if seg[0] == "straight":
            for t in seg[1]:
                emit(t)
        elif seg[0] == "diamond":
            _, cond, then_ops, else_ops = seg
            b.br("bnez", vals[cond], target=f"then{k}")
            b.block(f"else{k}")
            for t in else_ops:
                emit(t)
            b.jmp(f"join{k}")
            b.block(f"then{k}")
            for t in then_ops:
                emit(t)
            b.jmp(f"join{k}")
            b.block(f"join{k}")
        else:  # loop
            i = b.li(0, name=f"i{k}")
            limit = b.li(3, name=f"lim{k}")
            b.block(f"loop{k}")
            for t in seg[1]:
                emit(t)
            b.add(i, 1, dest=i)
            b.br("blt", i, limit, f"loop{k}")
            b.block(f"after{k}")
    for a, c in fp_pairs:
        b.fadd(fvals[a], fvals[c], dest=fvals[a])

    acc = vals[0]
    for v in vals[1:]:
        b.add(acc, v, dest=acc)
    b.store(acc, b.la("out"), 0)
    b.halt()
    if with_dead:
        # Unreachable block using otherwise-dead values: must not perturb
        # the (reachable-only) liveness domain.
        b.block("dead")
        b.add(vals[0], vals[1], dest=vals[2])
        b.halt()
    return b.done()


@given(cfg_spec())
@settings(max_examples=60, deadline=None)
def test_liveness_masks_equal_reference_sets(spec):
    fn = build_function(spec, with_dead=spec[2])
    ref = liveness(fn)
    bit = bit_liveness(fn)
    as_sets = bit.to_sets()
    assert as_sets.live_in == ref.live_in
    assert as_sets.live_out == ref.live_out
    conv = bit.index.set_of
    for name in ref.live_in:
        block = fn.block(name)
        masks = bit.live_across_instr_masks(block)
        assert [conv(mask) for mask in masks] == ref.live_across_instr(block)


def _build_from_sets(fn, info) -> InterferenceGraph:
    """Pairwise interference over set-based liveness: the specification
    :func:`build_interference` must match."""
    graph = InterferenceGraph()
    for v in fn.vregs():
        graph.ensure(v)

    entry_live = info.live_in[fn.entry.name] | set(fn.params)
    params = list(fn.params)
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            graph.add_edge(p, q)
        for other in entry_live:
            if other != p:
                graph.add_edge(p, other)

    for block in fn.blocks:
        after = info.live_across_instr(block)
        for i, instr in enumerate(block.instrs):
            dest = instr.dest
            if not isinstance(dest, VReg):
                continue
            copy_src = None
            if instr.op in (Opcode.MOVE, Opcode.FMOV):
                src = instr.srcs[0]
                if isinstance(src, VReg):
                    copy_src = src
            for live in after[i]:
                if live is not dest and live != copy_src:
                    graph.add_edge(dest, live)
    return graph


@given(cfg_spec())
@settings(max_examples=60, deadline=None)
def test_interference_masks_equal_reference_pairs(spec):
    fn = build_function(spec, with_dead=False)
    mask_graph = build_interference(fn)
    set_graph = _build_from_sets(fn, liveness(fn))
    assert mask_graph.adj == set_graph.adj


def test_liveness_domain_is_reachable_blocks_only():
    spec = ([("straight", [(0, "add", 1, 2)])], [], True)
    fn = build_function(spec, with_dead=True)
    ref = liveness(fn)
    bit = bit_liveness(fn)
    assert set(bit.live_in) == set(ref.live_in)
    assert "dead" not in bit.live_in


def test_vreg_index_orders_params_first():
    m = Module()
    b = FnBuilder(m, "f", params=[("i", "x"), ("f", "y")], ret="i")
    x, y = b.params
    z = b.add(x, 1)
    b.fadd(y, y)
    b.ret(z)
    fn = b.done()
    index = VRegIndex(fn)
    assert index.vregs[0] == x
    assert index.vregs[1] == y
    assert index.index[x] == 0 and index.index[y] == 1
    # Round-trip and class masks.
    everything = (1 << len(index)) - 1
    assert index.mask_of(index.set_of(everything)) == everything
    assert index.class_mask[x.cls] & (1 << index.index[x])
    assert not index.class_mask[x.cls] & (1 << index.index[y])
