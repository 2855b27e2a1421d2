"""Property-based tests for RC state machines and the assembly round-trip."""

from hypothesis import given, settings, strategies as st

from repro.isa import (
    Imm,
    Instr,
    Opcode,
    PhysReg,
    RClass,
    combine_connects,
    connect_def,
    connect_use,
)
from repro.isa.asmfmt import format_instr
from repro.isa.asmparse import parse_instr
from repro.rc import MappingTable, RCModel

ENTRIES, PHYSICAL = 8, 32

model_st = st.sampled_from(list(RCModel))
index_st = st.integers(0, ENTRIES - 1)
phys_st = st.integers(0, PHYSICAL - 1)

op_st = st.one_of(
    st.tuples(st.just("use"), index_st, phys_st),
    st.tuples(st.just("def"), index_st, phys_st),
    st.tuples(st.just("write"), index_st, st.just(0)),
    st.tuples(st.just("reset"), st.just(0), st.just(0)),
)


def apply_op(table: MappingTable, op) -> None:
    kind, a, b = op
    if kind == "use":
        table.connect_use(a, b)
    elif kind == "def":
        table.connect_def(a, b)
    elif kind == "write":
        table.after_write(a)
    else:
        table.reset_home()


@settings(max_examples=200)
@given(model_st, st.lists(op_st, max_size=40))
def test_mapping_table_targets_always_in_range(model, ops):
    table = MappingTable(ENTRIES, PHYSICAL, model)
    for op in ops:
        apply_op(table, op)
    for i in range(ENTRIES):
        assert 0 <= table.read_target(i) < PHYSICAL
        assert 0 <= table.write_target(i) < PHYSICAL


@settings(max_examples=100)
@given(model_st, st.lists(op_st, max_size=30), st.lists(op_st, max_size=10))
def test_snapshot_restore_is_a_true_checkpoint(model, ops, later_ops):
    table = MappingTable(ENTRIES, PHYSICAL, model)
    for op in ops:
        apply_op(table, op)
    snap = table.snapshot()
    reads = list(table.read_map)
    writes = list(table.write_map)
    for op in later_ops:
        apply_op(table, op)
    table.restore(snap)
    assert table.read_map == reads
    assert table.write_map == writes


@settings(max_examples=100)
@given(model_st, st.lists(op_st, max_size=30))
def test_reset_home_always_restores_identity(model, ops):
    table = MappingTable(ENTRIES, PHYSICAL, model)
    for op in ops:
        apply_op(table, op)
    table.reset_home()
    assert all(table.at_home(i) for i in range(ENTRIES))


connect_st = st.builds(
    lambda kind, i, p: (connect_use if kind else connect_def)(RClass.INT, i, p),
    st.booleans(), index_st, phys_st,
)


@settings(max_examples=150)
@given(connect_st, connect_st, model_st)
def test_combined_connects_equivalent_to_pair(a, b, model):
    combined = combine_connects(a, b)
    if combined is None:
        return
    t1 = MappingTable(ENTRIES, PHYSICAL, model)
    t2 = MappingTable(ENTRIES, PHYSICAL, model)
    for _rclass, which, idx, phys in a.connect_updates() + b.connect_updates():
        t1.apply(which, idx, phys)
    for _rclass, which, idx, phys in combined.connect_updates():
        t2.apply(which, idx, phys)
    assert t1.read_map == t2.read_map
    assert t1.write_map == t2.write_map


# -- assembly round-trip -------------------------------------------------------

_int_reg = st.integers(0, 31).map(lambda n: PhysReg(RClass.INT, n))
_fp_reg = st.integers(0, 15).map(lambda n: PhysReg(RClass.FP, 2 * n))
_imm = st.integers(-1000, 1000).map(Imm)

_alu_instr = st.builds(
    lambda op, d, a, b: Instr(op, dest=d, srcs=(a, b)),
    st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND,
                     Opcode.XOR, Opcode.CMPLT]),
    _int_reg, _int_reg, st.one_of(_int_reg, _imm),
)
_fp_instr = st.builds(
    lambda op, d, a, b: Instr(op, dest=d, srcs=(a, b)),
    st.sampled_from([Opcode.FADD, Opcode.FMUL, Opcode.FSUB]),
    _fp_reg, _fp_reg, _fp_reg,
)
_mem_instr = st.one_of(
    st.builds(lambda d, b, off: Instr(Opcode.LOAD, dest=d, srcs=(b,),
                                      imm=off),
              _int_reg, _int_reg, st.integers(-64, 64)),
    st.builds(lambda v, b, off: Instr(Opcode.STORE, srcs=(v, b), imm=off),
              _int_reg, _int_reg, st.integers(-64, 64)),
)
_branch_instr = st.builds(
    lambda op, a, b, hint: Instr(op, srcs=(a, b), label="target",
                                 hint_taken=hint),
    st.sampled_from([Opcode.BEQ, Opcode.BLT, Opcode.BGE]),
    _int_reg, st.one_of(_int_reg, _imm),
    st.sampled_from([None, True, False]),
)
_connect_instr = st.builds(
    lambda use, i, p: (connect_use if use else connect_def)(RClass.INT, i, p),
    st.booleans(), st.integers(0, 31), st.integers(0, 255),
)


@settings(max_examples=200)
@given(st.one_of(_alu_instr, _fp_instr, _mem_instr, _branch_instr,
                 _connect_instr))
def test_assembly_round_trip(instr):
    parsed = parse_instr(format_instr(instr))
    assert parsed.op is instr.op
    assert parsed.dest == instr.dest
    assert parsed.srcs == instr.srcs
    assert parsed.imm == instr.imm
    assert parsed.label == instr.label
    assert parsed.hint_taken == instr.hint_taken
