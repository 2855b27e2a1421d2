"""Every consumer of the reset-model table agrees with the table.

:mod:`repro.rc.models` defines each RC model as rows of map moves; the
hardware table, the abstract map, the compiler's two map emulations, slot
liveness and the three simulators each derive their own form from those
rows, and so does the connect optimizer's int-mask map state.  One random
sequence of map operations per example — connect-use,
connect-def, a write through an index, a read through an index, and a
CALL/RET home reset — drives all of them, and each must reproduce what a
direct interpretation of the table says.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analyze import SlotLiveness, after_states, build_cfg, solve_backward
from repro.analyze.dataflow import reg_bit
from repro.analyze.optimize import _MapMasks
from repro.compiler.regalloc.rc_rewrite import ConnectionAllocator
from repro.compiler.sched.depgraph import DepGraph
from repro.isa import (
    Imm,
    Instr,
    LatencyModel,
    Opcode,
    PhysReg,
    RClass,
    RegFileSpec,
    connect_def,
    connect_use,
)
from repro.rc import AbstractMap, MappingTable, RCModel
from repro.rc.models import HOME, HOME_RESET_OPS, READ, WRITE
from repro.sim import (
    FastSimulator,
    MachineConfig,
    Simulator,
    assemble,
    simulate_gang,
)

ENTRIES, PHYSICAL = 8, 16
#: Memory base of the probe trace the simulated programs record.
TRACE = 1000

#: Ops touch three indices, so they often meet on one.
index_st = st.integers(0, 2)
phys_st = st.integers(0, PHYSICAL - 1)
op_st = st.one_of(
    st.tuples(st.just("use"), index_st, phys_st),
    st.tuples(st.just("def"), index_st, phys_st),
    st.tuples(st.just("write"), index_st),
    st.tuples(st.just("read"), index_st),
    st.tuples(st.just("reset")),
)
ops_st = st.lists(op_st, max_size=24)


# -- the table, interpreted directly --------------------------------------------

def table_run(model: RCModel, ops, start=None, first=0):
    """Interpret *ops[first:]* from map state *start* (default: home).

    Returns ``(states, observed)``: the ``{READ, WRITE}`` map state after
    each op, and per op the target an access resolves through (``None``
    for connects and resets).
    """
    maps = start or {READ: list(range(ENTRIES)), WRITE: list(range(ENTRIES))}
    states, observed = [], []
    for op in ops[first:]:
        kind = op[0]
        seen = None
        if kind in ("use", "def"):
            maps[READ if kind == "use" else WRITE][op[1]] = op[2]
        elif kind == "reset":
            maps = {READ: list(range(ENTRIES)), WRITE: list(range(ENTRIES))}
        else:
            i = op[1]
            seen = maps[WRITE if kind == "write" else READ][i]
            moves = model.on_write if kind == "write" else model.on_read
            for dst, src in moves:
                maps[dst][i] = i if src == HOME else maps[src][i]
        states.append({m: list(v) for m, v in maps.items()})
        observed.append(seen)
    return states, observed


# -- the consumers ---------------------------------------------------------------

def instrs_for(op) -> list[Instr]:
    """One op as machine instructions (``sub`` is a bare ``ret``)."""
    kind = op[0]
    if kind == "use":
        return [connect_use(RClass.INT, op[1], op[2])]
    if kind == "def":
        return [connect_def(RClass.INT, op[1], op[2])]
    if kind == "write":
        return [Instr(Opcode.LOAD, dest=PhysReg(RClass.INT, op[1]),
                      srcs=(Imm(0),), imm=TRACE - 16)]
    if kind == "read":
        return [Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, op[1]), Imm(0)),
                      imm=TRACE - 8)]
    return [Instr(Opcode.CALL, label="sub")]


def check_mapping_table(model, ops, states):
    table = MappingTable(ENTRIES, PHYSICAL, model)
    for op, want in zip(ops, states):
        kind = op[0]
        if kind == "use":
            table.connect_use(op[1], op[2])
        elif kind == "def":
            table.connect_def(op[1], op[2])
        elif kind == "write":
            table.after_write(op[1])
        elif kind == "read":
            table.after_read(op[1])
        else:
            table.reset_home()
        assert (table.read_map, table.write_map) == (want[READ], want[WRITE])


def check_abstract_map(model, ops, states):
    amap = AbstractMap(ENTRIES, model)
    for op, want in zip(ops, states):
        kind = op[0]
        if kind in ("use", "def"):
            amap.connect("read" if kind == "use" else "write", op[1], op[2],
                         None)
        elif kind == "write":
            amap.after_write(op[1])
        elif kind == "read":
            amap.after_read(op[1])
        else:
            amap.reset_home()
        for i in range(ENTRIES):
            assert amap.read_entry(i) == {(want[READ][i], None)}
            assert amap.write_entry(i) == {(want[WRITE][i], None)}


def check_connect_opt_state(model, ops, states):
    """The optimizer's mask state names exactly the table's target in
    every slot: mask ``1 << target``."""
    maps = _MapMasks(config(model))
    state = maps.boundary(None)
    for op, want in zip(ops, states):
        for instr in instrs_for(op):
            state = maps.transfer(state, 0, instr)
        for which in (READ, WRITE):
            for i in range(ENTRIES):
                slot = maps.slot(RClass.INT, which, i)
                assert state[slot] == 1 << want[which][i], (which, i)


def check_connection_allocator(model, ops, states):
    alloc = ConnectionAllocator(list(range(ENTRIES)), [], model)
    for op, want in zip(ops, states):
        kind = op[0]
        if kind == "use":
            alloc.read_t[op[1]] = op[2]
        elif kind == "def":
            alloc.write_t[op[1]] = op[2]
        elif kind == "write":
            alloc.after_write(op[1])
        elif kind == "read":
            alloc.after_read(op[1])
        else:
            alloc.reset_home()
        assert [alloc.read_t[i] for i in range(ENTRIES)] == want[READ]
        assert [alloc.write_t[i] for i in range(ENTRIES)] == want[WRITE]


def check_depgraph(model, ops, states, observed):
    """The scheduler's window emulation resolves every access to the
    table's target, and its map-entry resources follow the moves: a
    connect or a move destination is written, a map source is read."""
    graph = DepGraph([], LatencyModel(), model,
                     windows={RClass.INT: list(range(ENTRIES))})
    for op, want, seen in zip(ops, states, observed):
        (instr,) = instrs_for(op)
        if instr.op in HOME_RESET_OPS:
            graph._read_map.clear()
            graph._write_map.clear()
        reads, writes = graph._footprint(instr)
        kind = op[0]
        tag = {READ: "rmap", WRITE: "wmap"}
        if kind in ("write", "read"):
            i = op[1]
            regs = writes if kind == "write" else reads
            assert PhysReg(RClass.INT, seen) in regs
            moves = model.on_write if kind == "write" else model.on_read
            access = tag[WRITE if kind == "write" else READ]
            assert {k for k in writes if isinstance(k, tuple)} == {
                (tag[d], RClass.INT, i) for d, _s in moves}
            assert {k for k in reads if isinstance(k, tuple)} == {
                (access, RClass.INT, i)} | {
                (tag[s], RClass.INT, i) for _d, s in moves if s != HOME}
        elif kind in ("use", "def"):
            assert writes == {(tag[READ if kind == "use" else WRITE],
                               RClass.INT, op[1])}
        for i in range(ENTRIES):
            key = (RClass.INT, i)
            assert graph._read_map.get(key, i) == want[READ][i]
            assert graph._write_map.get(key, i) == want[WRITE][i]


def straight_line(body: list[Instr]):
    instrs = body + [Instr(Opcode.HALT)]
    labels = {"sub": len(instrs)}
    return assemble(instrs + [Instr(Opcode.RET)], labels=labels)


def config(model, width=1):
    return MachineConfig(
        issue_width=width, rc_model=model,
        latency=LatencyModel(load=4, connect=1),
        int_spec=RegFileSpec(RClass.INT, ENTRIES, PHYSICAL),
        fp_spec=RegFileSpec(RClass.FP, 16, 16))


def check_slot_liveness(model, ops, states, observed):
    """A slot is live after op *j* exactly when perturbing it there
    changes a target some later access resolves through."""
    body = [ins for op in ops for ins in instrs_for(op)]
    program = straight_line(body)
    cfg = build_cfg(program)
    (main,) = [fn for fn in cfg.functions if 0 in fn.blocks]
    result = solve_backward(main, SlotLiveness(config(model)),
                            program.instrs)
    live = after_states(result)
    for j in range(len(ops)):
        rmap, wmap, _ext = live[j]
        for which, mask in ((READ, rmap), (WRITE, wmap)):
            for i in range(ENTRIES):
                start = {m: list(v) for m, v in states[j].items()}
                start[which][i] = -1
                _s, perturbed = table_run(model, ops, start, j + 1)
                changed = perturbed != observed[j + 1:]
                assert bool(mask & 1 << reg_bit(RClass.INT, i)) == changed, (
                    j, which, i)


def probe(i: int, which: str, slot: int) -> list[Instr]:
    """Record map entry *which*[*i*] at trace *slot* through an FP register
    (the FP file has no map, so probing moves nothing)."""
    f2 = PhysReg(RClass.FP, 2)
    return [Instr(Opcode.MFMAP, dest=f2, imm=(RClass.INT, i, which)),
            Instr(Opcode.FSTORE, srcs=(f2, Imm(0)), imm=TRACE + slot)]


def check_engines(model, ops, states):
    """Reference, fast and batched engines record the table's map state
    after every op; batched followers time the moves like fast runs."""
    body: list[Instr] = []
    want: list[int] = []
    for op, state in zip(ops, states):
        body += instrs_for(op)
        for i in ([op[1]] if len(op) > 1 else range(ENTRIES)):
            for which in (READ, WRITE):
                body += probe(i, which, len(want))
                want.append(state[which][i])
    program = straight_line(body)
    configs = [config(model, 1), config(model, 4)]
    gang = simulate_gang(program, configs)
    fast = FastSimulator(program, configs[0])
    runs = [Simulator(program, configs[0]).run(), fast.run(), gang[0].result]
    assert fast.ran_fastpath
    for res in runs:
        trace = [res.state.memory[TRACE + k] for k in range(len(want))]
        assert trace == want
    # Followers replay timing only, and the probes space accesses out, so
    # also time the bare ops, where a stale map entry shifts a stall.
    bare = straight_line([ins for op in ops for ins in instrs_for(op)])
    for prog, slots in ((program, gang), (bare, simulate_gang(bare, configs))):
        assert all(slot.ran_batched for slot in slots)
        assert slots[1].result.stats == FastSimulator(
            prog, configs[1]).run().stats


@pytest.mark.parametrize("model", list(RCModel), ids=lambda m: f"m{m.value}")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_st)
# A follower that keeps a consumed read connection reads a stale register.
@example(ops=[("use", 0, 9), ("read", 0), ("write", 0), ("read", 0)])
def test_every_consumer_agrees_with_the_table(model, ops):
    states, observed = table_run(model, ops)
    check_mapping_table(model, ops, states)
    check_abstract_map(model, ops, states)
    check_connect_opt_state(model, ops, states)
    check_connection_allocator(model, ops, states)
    check_depgraph(model, ops, states, observed)
    check_slot_liveness(model, ops, states, observed)
    check_engines(model, ops, states)
