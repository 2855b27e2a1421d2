"""Differential tests: the specializing fast engine vs the reference.

The fast engine (:mod:`repro.sim.fastpath`) must be bit-exact with the
reference :class:`~repro.sim.core.Simulator` — same cycles, same full
:class:`~repro.sim.stats.SimStats`, same architectural state — across every
benchmark, RC reset model, and issue width.  Interrupts, observers, and
trace hooks must transparently fall back to the reference engine.
"""

import copy
import dataclasses
import re

import pytest

from repro.compiler import compile_module
from repro.errors import ConfigError, CycleBudgetError
from repro.isa import Imm, Instr, Opcode, PhysReg, RClass
from repro.rc import RCModel
from repro.sim import (
    ENGINE_ENV,
    FastSimulator,
    Simulator,
    assemble,
    paper_machine,
    VALID_ENGINES,
    resolve_engine,
    simulate,
    unlimited_machine,
)
from repro.sim.core import K_CBR, K_JMP
from repro.sim.fastpath import (
    HOT_ENTRIES,
    _code_cache,
    _Codegen,
    program_blocks,
)
from repro.workloads import ALL_BENCHMARKS, build_workload, workload

WIDTHS = (1, 2, 4, 8)
MODELS = tuple(RCModel)

#: One compilation per (benchmark, width, model) shared by all assertions.
_compiled: dict = {}


def _point(name: str, width: int, model: RCModel):
    key = (name, width, model)
    if key not in _compiled:
        kind = workload(name).kind
        rc_class = RClass.INT if kind == "int" else RClass.FP
        cfg = paper_machine(issue_width=width, rc_class=rc_class,
                            rc_model=model)
        module = build_workload(name, scale=1)
        out = compile_module(module, cfg)
        _compiled[key] = (module, out, cfg)
    return _compiled[key]


def _assert_parity(program, config, label: str):
    """Run both engines on (program, config) and compare everything."""
    ref = Simulator(program, config).run()
    fast_sim = FastSimulator(program, config)
    fast = fast_sim.run()
    assert fast_sim.ran_fastpath, f"{label}: unexpectedly fell back"
    assert fast.stats == ref.stats, (
        f"{label}: stats diverge\nfast {fast.stats}\nref  {ref.stats}")
    assert fast.halted == ref.halted, label
    assert fast.state.memory == ref.state.memory, f"{label}: memory diverges"
    assert fast.state.int_regs == ref.state.int_regs, label
    assert fast.state.fp_regs == ref.state.fp_regs, label
    fast.stats.reconcile()
    ref.stats.reconcile()
    return ref, fast


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_engine_parity_all_models_and_widths(name):
    """Fast == reference on cycles, full SimStats, checksum, and state for
    every RC model × issue width combination of one benchmark."""
    for model in MODELS:
        for width in WIDTHS:
            module, out, cfg = _point(name, width, model)
            label = f"{name} w{width} {model.name}"
            ref, fast = _assert_parity(out.program, cfg, label)
            addr = module.global_addr("checksum")
            assert fast.load_word(addr) == ref.load_word(addr), label


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_engine_parity_unlimited_and_connect_latency(name):
    """Edge configs: unlimited registers (every benchmark: its hot self-loops
    run with unmapped operands), and on the first three, 1-cycle connects
    with an extra decode stage."""
    module = build_workload(name, scale=1)
    kind = workload(name).kind
    rc_class = RClass.INT if kind == "int" else RClass.FP
    configs = [unlimited_machine(issue_width=4)]
    if name in ALL_BENCHMARKS[:3]:
        configs.append(paper_machine(issue_width=4, rc_class=rc_class,
                                     connect_latency=1,
                                     extra_decode_stage=True))
    for cfg in configs:
        out = compile_module(module, cfg)
        _assert_parity(out.program, cfg, f"{name} {cfg.describe()}")


def _interrupt_program():
    def li(dest, value):
        return Instr(Opcode.LI, dest=PhysReg(RClass.INT, dest), imm=value)

    return assemble([
        li(5, 7),
        li(6, 0),
        # loop: r6 += r5, 200 iterations
        li(7, 0),
        Instr(Opcode.ADD, dest=PhysReg(RClass.INT, 6),
              srcs=(PhysReg(RClass.INT, 6), PhysReg(RClass.INT, 5))),
        Instr(Opcode.ADD, dest=PhysReg(RClass.INT, 7),
              srcs=(PhysReg(RClass.INT, 7), Imm(1))),
        Instr(Opcode.BLT, srcs=(PhysReg(RClass.INT, 7), Imm(200)),
              label="loop"),
        Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, 6), Imm(0)), imm=900),
        Instr(Opcode.HALT),
        # handler (vector 3): store a marker, return
        Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, 5), Imm(0)), imm=901),
        Instr(Opcode.RTE),
    ], labels={"loop": 3}, trap_handlers={3: 8})


class TestFallback:
    def test_interrupts_force_reference_fallback_and_match(self):
        prog = _interrupt_program()
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)

        ref_sim = Simulator(prog, cfg)
        ref_sim.schedule_interrupt(40, 3)
        ref = ref_sim.run()

        fast_sim = FastSimulator(prog, cfg)
        fast_sim.schedule_interrupt(40, 3)
        fast = fast_sim.run()

        assert not fast_sim.ran_fastpath  # delegated to the reference
        assert fast.stats == ref.stats
        assert fast.stats.interrupts == 1
        assert fast.state.memory == ref.state.memory

    def test_resume_inside_interrupt_handler_matches(self):
        """A segment that stops inside an interrupt handler resumes bit-exact.
        The interrupt's return pc falls mid-block, where no generated block
        starts: the driver runs it on the reference step up to the next
        leader, and the rest of the run on generated code."""
        def r(n):
            return PhysReg(RClass.INT, n)

        prog = assemble([
            Instr(Opcode.LI, dest=r(5), imm=7),
            Instr(Opcode.LI, dest=r(6), imm=0),
            Instr(Opcode.LI, dest=r(7), imm=0),
            Instr(Opcode.ADD, dest=r(6), srcs=(r(6), r(5))),
            Instr(Opcode.ADD, dest=r(7), srcs=(r(7), Imm(1))),
            Instr(Opcode.BLT, srcs=(r(7), Imm(200)), label="loop"),
            Instr(Opcode.STORE, srcs=(r(6), Imm(0)), imm=900),
            Instr(Opcode.HALT),
            # handler (vector 3): a counted loop, then return
            Instr(Opcode.LI, dest=r(9), imm=0),
            Instr(Opcode.ADD, dest=r(9), srcs=(r(9), Imm(1))),
            Instr(Opcode.BLT, srcs=(r(9), Imm(6)), label="spin"),
            Instr(Opcode.STORE, srcs=(r(9), Imm(0)), imm=901),
            Instr(Opcode.RTE),
        ], labels={"loop": 3, "spin": 9}, trap_handlers={3: 8})
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)
        ref_sim = Simulator(prog, cfg)
        ref_sim.schedule_interrupt(42, 3)
        ref = ref_sim.run()
        seen = set()
        for stop in range(43, 70):
            sim = FastSimulator(prog, cfg)
            sim.schedule_interrupt(42, 3)
            sim.run(until_cycle=stop)
            in_handler = bool(sim.state.trap_stack)
            res = sim.run()
            seen.add((in_handler, res.engine))
            assert res.stats == ref.stats, stop
            assert res.state.memory == ref.state.memory, stop
            assert res.state.int_regs == ref.state.int_regs, stop
        assert seen == {(True, "fast"), (False, "fast")}

    def test_trap_and_rte_stay_on_fast_path_and_match(self):
        prog = assemble([
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5), imm=7),
            Instr(Opcode.TRAP, imm=3),
            Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, 5), Imm(0)),
                  imm=500),
            Instr(Opcode.HALT),
            # handler
            Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, 5), Imm(0)),
                  imm=501),
            Instr(Opcode.RTE),
        ], trap_handlers={3: 4})
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)
        ref, fast = _assert_parity(prog, cfg, "trap/rte")
        assert fast.load_word(501) == 7

    def test_observer_routes_to_reference(self):
        from repro.observe import Observer

        module, out, cfg = _point(ALL_BENCHMARKS[0], 4, RCModel.NO_RESET)
        sim = FastSimulator(out.program, cfg)
        sim.observer = Observer(keep_events=False)
        ref = Simulator(out.program, cfg,
                        observer=Observer(keep_events=False)).run()
        fast = sim.run()
        assert not sim.ran_fastpath
        assert fast.stats == ref.stats

    def test_until_cycle_routes_to_reference(self):
        module, out, cfg = _point(ALL_BENCHMARKS[0], 4, RCModel.NO_RESET)
        sim = FastSimulator(out.program, cfg)
        partial = sim.run(until_cycle=50)
        assert not sim.ran_fastpath
        assert partial.engine == "reference"
        assert not partial.halted
        # A plain run() resumes the segment on generated code and ends
        # exactly where one reference run does.
        final = sim.run()
        assert sim.ran_fastpath
        assert final.engine == "fast"
        assert final.handoff_cycle >= 50
        ref = Simulator(out.program, cfg).run()
        assert final.stats == ref.stats
        assert final.halted == ref.halted
        assert final.state.memory == ref.state.memory
        assert final.state.int_regs == ref.state.int_regs
        assert final.state.fp_regs == ref.state.fp_regs


class TestEngineSelection:
    def test_resolve_engine_defaults_to_fast(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine() == "fast"
        assert resolve_engine("auto") == "fast"

    def test_resolve_engine_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine() == "reference"
        # an explicit argument beats the environment
        assert resolve_engine("fast") == "fast"

    def test_resolve_engine_rejects_unknown(self, monkeypatch):
        # The gang simulator is the library call ``simulate_gang``, not a
        # value of the engine option.
        assert VALID_ENGINES == ("fast", "reference")
        expected = ("unknown engine .*"
                    + re.escape("expected one of ('fast', 'reference')"))
        for engine in ("bogus", "batched"):
            monkeypatch.delenv(ENGINE_ENV, raising=False)
            with pytest.raises(ConfigError, match=expected):
                resolve_engine(engine)
            monkeypatch.setenv(ENGINE_ENV, engine)
            with pytest.raises(ConfigError, match=expected):
                resolve_engine()

    def test_simulate_engine_kwarg(self):
        module, out, cfg = _point(ALL_BENCHMARKS[0], 2, RCModel.NO_RESET)
        fast = simulate(out.program, cfg, engine="fast")
        ref = simulate(out.program, cfg, engine="reference")
        assert fast.stats == ref.stats


def _counted_loop(iterations: int):
    """A loop block entered *iterations* times between two one-shot
    blocks."""
    r6 = PhysReg(RClass.INT, 6)
    return assemble([
        Instr(Opcode.LI, dest=r6, imm=0),
        Instr(Opcode.ADD, dest=r6, srcs=(r6, Imm(1))),
        Instr(Opcode.BLT, srcs=(r6, Imm(iterations)), label="loop"),
        Instr(Opcode.STORE, srcs=(r6, Imm(0)), imm=500),
        Instr(Opcode.HALT),
    ], labels={"loop": 1})


def _assert_same_run(res, ref):
    assert res.stats == ref.stats
    assert res.halted == ref.halted
    assert res.state.memory == ref.state.memory
    assert res.state.int_regs == ref.state.int_regs
    assert res.state.fp_regs == ref.state.fp_regs


class TestTiering:
    """``simulate()`` runs each block on the reference engine's step until
    its ``HOT_ENTRIES``-th entry, then compiles that block alone."""

    def test_short_run_generates_no_code(self):
        prog = assemble([
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5), imm=7),
            Instr(Opcode.STORE, srcs=(PhysReg(RClass.INT, 5), Imm(0)),
                  imm=500),
            Instr(Opcode.HALT),
        ])
        cfg = paper_machine(issue_width=2, rc_class=RClass.INT)
        before = len(_code_cache)
        res = simulate(prog, cfg)
        assert len(_code_cache) == before
        assert res.engine == "reference" and res.handoff_cycle is None
        assert res.stats == Simulator(prog, cfg).run().stats

    def test_run_that_compiles_nothing_builds_no_driver(self, monkeypatch):
        import repro.sim.fastpath as fastpath

        def no_leaders(*_args):
            raise AssertionError("driver set-up on a run with no hot block")

        monkeypatch.setattr(fastpath, "program_leaders", no_leaders)
        cfg = paper_machine(issue_width=2, rc_class=RClass.INT)
        cold = _counted_loop(HOT_ENTRIES - 1)
        res = simulate(cold, cfg)
        assert res.engine == "reference"
        _assert_same_run(res, Simulator(cold, cfg).run())

    def test_hot_block_found_from_a_mid_block_resume(self):
        """Resumed mid-block, a non-leader reaches its hot fetch count
        before its leader does; the block still compiles at the leader's
        hot entry and the run stays bit-exact."""
        r6, r7 = PhysReg(RClass.INT, 6), PhysReg(RClass.INT, 7)
        prog = assemble([
            Instr(Opcode.LI, dest=r6, imm=0),
            Instr(Opcode.ADD, dest=r6, srcs=(r6, Imm(1))),
            Instr(Opcode.ADD, dest=r7, srcs=(r7, r6)),
            Instr(Opcode.BLT, srcs=(r6, Imm(3 * HOT_ENTRIES)), label="loop"),
            Instr(Opcode.STORE, srcs=(r7, Imm(0)), imm=500),
            Instr(Opcode.HALT),
        ], labels={"loop": 1})
        cfg = paper_machine(issue_width=1, rc_class=RClass.INT)
        ref = Simulator(prog, cfg).run()
        for stop in range(1, 40):
            sim = FastSimulator(copy.deepcopy(prog), cfg,
                                threshold=HOT_ENTRIES)
            sim.run(until_cycle=stop)
            if sim._ref._pc == 2:
                break
        else:
            pytest.fail("no segment stopped mid-block")
        res = sim.run()
        _assert_same_run(res, ref)
        assert res.engine == "fast"
        assert set(_code_cache[id(sim.program)][1][repr(cfg)].fast) == {1}

    @pytest.mark.parametrize("width", (1, 4))
    def test_block_compiles_at_its_hot_entry(self, width):
        cfg = paper_machine(issue_width=width, rc_class=RClass.INT)
        cold = _counted_loop(HOT_ENTRIES - 1)
        res = simulate(cold, cfg)
        assert res.engine == "reference" and id(cold) not in _code_cache
        _assert_same_run(res, Simulator(cold, cfg).run())

        hot = _counted_loop(HOT_ENTRIES)
        res = simulate(hot, cfg)
        code = _code_cache[id(hot)][1][repr(cfg)]
        assert set(code.fast) == {1}  # the loop block, and no other
        assert res.engine == "fast"
        assert 0 < res.handoff_cycle < res.stats.cycles
        _assert_same_run(res, Simulator(hot, cfg).run())

    def test_step_hands_an_open_group_to_a_compiled_block(self):
        """A cold block falls through, mid-group, into a block compiled by
        an earlier run: the store already in the group must keep the
        compiled block's leading load out of it, and both runs match."""
        r = lambda n: PhysReg(RClass.INT, n)  # noqa: E731
        prog = assemble([
            Instr(Opcode.STORE, srcs=(Imm(7), Imm(0)), imm=500),
            Instr(Opcode.BEQ, srcs=(r(9), Imm(1)), label="out"),
            Instr(Opcode.LOAD, dest=r(6), srcs=(Imm(0),), imm=500),
            Instr(Opcode.ADD, dest=r(7), srcs=(r(7), Imm(1))),
            Instr(Opcode.BLT, srcs=(r(7), Imm(40)), label="loop"),
            Instr(Opcode.HALT),
        ], labels={"loop": 2, "out": 5})
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)
        ref = Simulator(prog, cfg).run()
        for _ in range(2):
            res = simulate(prog, cfg)
            _assert_same_run(res, ref)
        assert set(_code_cache[id(prog)][1][repr(cfg)].fast) == {2}
        assert res.engine == "fast"

    def test_long_run_hands_off_bit_exact(self):
        module, out, cfg = _point("cmp", 4, RCModel.WRITE_RESET_READ_UPDATE)
        program = copy.deepcopy(out.program)  # no code from other tests
        res = simulate(program, cfg)
        assert res.engine == "fast"
        assert 0 < res.handoff_cycle < res.stats.cycles
        code = _code_cache[id(program)][1][repr(cfg)]
        assert 0 < len(code.fast) < len(program_blocks(
            program, Simulator(program, cfg)._decoded))
        _assert_same_run(res, Simulator(program, cfg).run())

    def test_direct_fast_run_has_no_handoff(self):
        module, out, cfg = _point("cmp", 2, RCModel.NO_RESET)
        res = FastSimulator(out.program, cfg).run()
        assert res.engine == "fast" and res.handoff_cycle is None

    @pytest.mark.parametrize("threshold", (0, 1, HOT_ENTRIES, None))
    def test_tiered_run_resumes_a_segment(self, threshold):
        """A ``run(until_cycle=...)`` segment stops mid-block; a plain
        ``run()`` resumes it in the driver, bit-exact."""
        module, out, cfg = _point("cmp", 2, RCModel.NO_RESET)
        ref = Simulator(out.program, cfg).run()
        for stop in (3, 50, ref.stats.cycles // 2):
            sim = FastSimulator(copy.deepcopy(out.program), cfg,
                                threshold=threshold)
            assert not sim.run(until_cycle=stop).halted
            _assert_same_run(sim.run(), ref)
            assert sim.ran_fastpath


class TestFaultParity:
    def test_fell_off_end_message_matches(self):
        from repro.errors import SimulationError

        prog = assemble([Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5),
                               imm=1)])
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)
        with pytest.raises(SimulationError, match="fell off"):
            FastSimulator(prog, cfg).run()

    def test_div_by_zero_faults_like_reference(self):
        from repro.errors import SimulationError

        prog = assemble([
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5), imm=4),
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 6), imm=0),
            Instr(Opcode.DIV, dest=PhysReg(RClass.INT, 7),
                  srcs=(PhysReg(RClass.INT, 5), PhysReg(RClass.INT, 6))),
            Instr(Opcode.HALT),
        ])
        cfg = paper_machine(issue_width=4, rc_class=RClass.INT)
        with pytest.raises(SimulationError) as ref_exc:
            Simulator(prog, cfg).run()
        with pytest.raises(SimulationError) as fast_exc:
            FastSimulator(prog, cfg).run()
        assert str(fast_exc.value) == str(ref_exc.value)


# -- cycle budget: per-block gate and checked blocks ---------------------------

def _mapping_toggle_program():
    """Mapping turned off and back on by ``mtpsw`` mid-block (in a
    self-loop too), connects made with mapping off, and a trap handler that
    calls the subroutine the mapped code calls and loops with mapping off.
    Every mapped read sees a different register than its unmapped twin, and
    every loop pass stores what it read."""
    def r(n):
        return PhysReg(RClass.INT, n)

    def add(dest, a, b):
        return Instr(Opcode.ADD, dest=r(dest),
                     srcs=(r(a), b if isinstance(b, Imm) else r(b)))

    def store(value):
        return [Instr(Opcode.STORE, srcs=(r(value), r(9)), imm=0),
                add(9, 9, Imm(1))]

    def cuse(idx, phys):
        return Instr(Opcode.CUSE, imm=(RClass.INT, idx, phys))

    # A string marks the label of the instruction after it.
    code = [
        Instr(Opcode.LI, dest=r(9), imm=2000),              # store cursor
        Instr(Opcode.LI, dest=r(5), imm=0),
        Instr(Opcode.CDEF, imm=(RClass.INT, 2, 20)),
        Instr(Opcode.LI, dest=r(2), imm=11),                # phys 20 = 11
        Instr(Opcode.LI, dest=r(3), imm=-4),
        Instr(Opcode.MFPSW, dest=r(12)),                    # mapping on
        Instr(Opcode.XOR, dest=r(13), srcs=(r(12), Imm(1))),  # mapping off
        "loop",  # one self-loop block that toggles mapping twice per pass
        cuse(3, 20),
        add(6, 3, 5),                                       # mapped read
        Instr(Opcode.MTPSW, srcs=(r(13),)),
        add(7, 3, 5),                                       # home read
        cuse(4, 21),                                        # made unmapped
        add(8, 6, 7),
        Instr(Opcode.MTPSW, srcs=(r(12),)),
        add(10, 4, 8),                                      # mapped again
        *store(10),
        add(5, 5, Imm(1)),
        Instr(Opcode.BLT, srcs=(r(5), Imm(30)), label="loop"),
        Instr(Opcode.CALL, label="sub"),
        Instr(Opcode.TRAP, imm=3),
        Instr(Opcode.LI, dest=r(5), imm=0),
        "loop2",  # a mapped self-loop without mtpsw, entered after rte
        cuse(3, 20),
        add(11, 3, 5),
        *store(11),
        add(5, 5, Imm(1)),
        Instr(Opcode.BLT, srcs=(r(5), Imm(20)), label="loop2"),
        Instr(Opcode.CALL, label="sub"),
        Instr(Opcode.HALT),
        "sub",  # shared by the mapped code and the handler
        cuse(3, 20),
        add(14, 3, 5),
        *store(14),
        Instr(Opcode.RET),
        "handler",  # entered with mapping off
        Instr(Opcode.LI, dest=r(15), imm=0),
        Instr(Opcode.CALL, label="sub"),
        "spin",  # a self-loop run with mapping off
        cuse(3, 20),
        add(14, 3, 15),
        *store(14),
        add(15, 15, Imm(1)),
        Instr(Opcode.BLT, srcs=(r(15), Imm(12)), label="spin"),
        Instr(Opcode.RTE),
    ]
    instrs, labels = [], {}
    for item in code:
        if isinstance(item, str):
            labels[item] = len(instrs)
        else:
            instrs.append(item)
    return assemble(instrs, labels=labels,
                    trap_handlers={3: labels["handler"]})


@pytest.mark.parametrize("connect_latency", (0, 1))
@pytest.mark.parametrize("width", (1, 4))
@pytest.mark.parametrize("model", MODELS)
def test_mapping_toggled_mid_block_matches(model, width, connect_latency):
    """Fast blocks assume mapping on: a block holding ``mtpsw`` is generated
    unspecialized, and a block entered with mapping off (the handler, the
    subroutine it shares, their loops) runs its checked variant."""
    prog = _mapping_toggle_program()
    cfg = paper_machine(issue_width=width, int_core=16, rc_class=RClass.INT,
                        rc_model=model, connect_latency=connect_latency)
    _assert_parity(prog, cfg, f"{model.name} w{width} cl{connect_latency}")
    sim = FastSimulator(prog, cfg)
    sim.run()
    handler = prog.trap_handlers[3]
    assert {handler, handler + 2} <= set(sim._code.checked)


#: (issue width, RC model) configs of the budget sweeps.
BUDGET_CONFIGS = ((1, RCModel.NO_RESET),
                  (4, RCModel.WRITE_RESET_READ_UPDATE),
                  (8, RCModel.READ_RESET))


def _outcome(sim):
    """A run's observable outcome: its error's type and message, or its
    full stats and architectural state."""
    try:
        res = sim.run()
    except Exception as exc:
        return type(exc), str(exc)
    return res.stats, res.state.memory, res.state.int_regs, res.state.fp_regs


@pytest.mark.parametrize("name", ("cmp", "compress", "eqn", "grep"))
def test_budget_crossing_parity(name):
    """Every budget from 60 cycles short of a run's end to one past it,
    plus a few small ones: the fast engine raises exactly the reference's
    error (type, message, pc) or returns its full result.  Near the end
    every block crosses its cycle gate, so this pins the gate's bound and
    the checked blocks behind it."""
    for width, model in BUDGET_CONFIGS:
        _module, out, cfg = _point(name, width, model)
        full = Simulator(out.program, cfg).run().stats.cycles
        for budget in (0, 1, 7, 50, full // 2, *range(full - 60, full + 2)):
            bcfg = dataclasses.replace(cfg, max_cycles=budget)
            ref = _outcome(Simulator(out.program, bcfg))
            fast_sim = FastSimulator(out.program, bcfg)
            fast = _outcome(fast_sim)
            label = f"{name} w{width} {model.name} budget {budget}"
            assert fast_sim.ran_fastpath, label
            assert fast == ref, label


def test_checked_blocks_built_only_past_the_gate():
    """Under a roomy budget no checked block is compiled; a tight one
    compiles each block it reaches once per (program, config)."""
    _module, out, cfg = _point("cmp", 4, RCModel.NO_RESET)
    sim = FastSimulator(out.program, cfg)
    sim.run()
    assert sim._code.checked == {}
    tight = dataclasses.replace(cfg, max_cycles=200)
    sim = FastSimulator(out.program, tight)
    with pytest.raises(CycleBudgetError):
        sim.run()
    checked = sim._code.checked
    assert checked
    codes = dict(checked)
    with pytest.raises(CycleBudgetError):
        FastSimulator(out.program, tight).run()
    assert checked == codes and all(checked[k] is codes[k] for k in codes)


@pytest.mark.parametrize("name", ("cmp", "tomcatv", "nasa7"))
def test_fast_blocks_carry_no_budget_tests(name):
    """The default module: no budget test, one counter per block, a loop
    only in self-loop blocks, and one execution path per block (no
    issue-schedule memo, even in unmapped self-loops)."""
    points = [_point(name, width, model)[1:]
              for width, model in BUDGET_CONFIGS]
    unlimited = unlimited_machine(issue_width=4)
    points.append((compile_module(build_workload(name, scale=1), unlimited),
                   unlimited))
    for out, cfg in points:
        dec = Simulator(out.program, cfg)._decoded
        gen = _Codegen(out.program, cfg, dec)
        for lead, body in program_blocks(out.program, dec):
            text, _consts = gen.block(lead, body)
            assert "MAXC" not in text and "_mxe(" not in text
            assert not re.search(r"\b(BC\d*|_sig|_rec)\b", text)
            assert text.count("def _b") == 1
            assert text.count("IC[") == 1, lead
            assert f"IC[{lead}] += 1" in text
            term = dec[body[-1]]
            loops = term.target == lead and term.kind in (K_CBR, K_JMP)
            assert text.count("while 1:") == int(loops), lead
