"""Gang-simulator tests: the batched lockstep engine vs fast vs reference.

The batched engine (:mod:`repro.sim.batched`) simulates N configs in one
pass — decode and specialization shared, per-config state in flat arrays,
followers replaying the leader's trace timing-only.  Every slot must be
bit-exact with a single-config fast run (itself parity-gated against the
reference): full :class:`~repro.sim.stats.SimStats`, memory, both register
files, and fault types/messages.  Slots that fault or exhaust their cycle
budget retire without disturbing the rest of the gang.
"""

import copy
import dataclasses

import pytest

from repro.compiler import compile_module
from repro.errors import ConfigError, CycleBudgetError, SimulationError
from repro.isa import Imm, Instr, Opcode, PhysReg, RClass
from repro.rc import RCModel
from repro.sim import (
    BatchedSimulator,
    FastSimulator,
    Simulator,
    assemble,
    paper_machine,
    simulate,
    simulate_gang,
)
from repro.sim import fastpath
from repro.sim.config import VALID_ENGINES
from repro.workloads import ALL_BENCHMARKS, build_workload, workload

GANG_MODELS = tuple(RCModel)
GANG_WIDTHS = (1, 2, 4)

#: One compilation per benchmark shared by all assertions.
_compiled: dict = {}


def _rc_class(name: str) -> RClass:
    return RClass.INT if workload(name).kind == "int" else RClass.FP


def _program(name: str):
    if name not in _compiled:
        cfg = paper_machine(issue_width=1, rc_class=_rc_class(name))
        out = compile_module(build_workload(name, scale=1), cfg)
        _compiled[name] = out.program
    return _compiled[name]


def _gang_configs(name: str):
    rc_class = _rc_class(name)
    return [paper_machine(issue_width=w, rc_class=rc_class, rc_model=m)
            for m in GANG_MODELS for w in GANG_WIDTHS]


def _assert_slot_equals(outcome, single, label: str):
    assert outcome.error is None, f"{label}: gang slot errored {outcome.error}"
    got, want = outcome.result, single
    assert got.stats == want.stats, (
        f"{label}: stats diverge\ngang {got.stats}\nfast {want.stats}")
    assert got.halted == want.halted, label
    assert got.state.memory == want.state.memory, f"{label}: memory diverges"
    assert got.state.int_regs == want.state.int_regs, label
    assert got.state.fp_regs == want.state.fp_regs, label


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_gang_parity_models_and_widths(name):
    """A gang over models × widths matches per-config fast runs bit-exactly."""
    program = _program(name)
    configs = _gang_configs(name)
    outcomes = BatchedSimulator(program, configs).run()
    for cfg, outcome in zip(configs, outcomes):
        single = FastSimulator(program, cfg).run()
        label = f"{name} w{cfg.issue_width} {cfg.rc_model.name}"
        _assert_slot_equals(outcome, single, label)
    # Class leaders run generated code; every other slot is a replay.
    engines = {o.result.engine for o in outcomes}
    assert engines == {"fast", "batched"}, engines


def test_gang_of_one_equals_fast():
    """A gang of 1 is exactly one fast run — and actually runs batched."""
    name = ALL_BENCHMARKS[0]
    program = _program(name)
    cfg = paper_machine(issue_width=4, rc_class=_rc_class(name))
    sim = BatchedSimulator(program, [cfg])
    outcomes = sim.run()
    assert len(outcomes) == 1 and sim.ran_batched
    single = FastSimulator(program, cfg).run()
    _assert_slot_equals(outcomes[0], single, "gang-of-1")


def test_gang_against_reference_engine():
    """Spot-check one gang directly against the reference simulator."""
    name = ALL_BENCHMARKS[1]
    program = _program(name)
    configs = _gang_configs(name)[:4]
    for cfg, outcome in zip(configs, simulate_gang(program, configs)):
        ref = Simulator(program, cfg).run()
        _assert_slot_equals(outcome, ref, f"vs-reference w{cfg.issue_width}")


class TestRetirement:
    def test_mid_gang_budget_retires_only_that_slot(self):
        name = ALL_BENCHMARKS[0]
        program = _program(name)
        configs = _gang_configs(name)
        # Slot 4 gets a budget far below the program's runtime; it must
        # retire with the engines' exact CycleBudgetError while every other
        # slot completes untouched.
        tiny = dataclasses.replace(configs[4], max_cycles=50)
        configs = configs[:4] + [tiny] + configs[5:]
        outcomes = BatchedSimulator(program, configs).run()
        assert isinstance(outcomes[4].error, CycleBudgetError)
        with pytest.raises(CycleBudgetError) as fast_exc:
            FastSimulator(program, tiny).run()
        assert str(outcomes[4].error) == str(fast_exc.value)
        for i, (cfg, outcome) in enumerate(zip(configs, outcomes)):
            if i == 4:
                continue
            single = FastSimulator(program, cfg).run()
            _assert_slot_equals(outcome, single, f"slot{i}")

    def test_budget_slot_rerun_refuses_like_both_engines(self):
        name = ALL_BENCHMARKS[0]
        program = _program(name)
        cfgs = _gang_configs(name)[:3]
        cfgs[1] = dataclasses.replace(cfgs[1], max_cycles=50)
        sim = BatchedSimulator(program, cfgs)
        first = sim.run()
        assert isinstance(first[1].error, CycleBudgetError)
        again = sim.run()
        # Healthy slots return their results; the failed slot refuses with
        # the same poisoned-state diagnostic both engines use.
        _assert_slot_equals(again[0], first[0].result, "rerun slot0")
        _assert_slot_equals(again[2], first[2].result, "rerun slot2")
        assert isinstance(again[1].error, SimulationError)

        def rerun_message(cls):
            single = cls(program, cfgs[1])
            with pytest.raises(CycleBudgetError):
                single.run()
            with pytest.raises(SimulationError) as exc:
                single.run()
            return str(exc.value)

        assert str(again[1].error) == rerun_message(FastSimulator)
        assert str(again[1].error) == rerun_message(Simulator)

    def test_faulting_program_poisons_and_refuses_identically(self):
        prog = assemble([
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 5), imm=4),
            Instr(Opcode.LI, dest=PhysReg(RClass.INT, 6), imm=0),
            Instr(Opcode.DIV, dest=PhysReg(RClass.INT, 7),
                  srcs=(PhysReg(RClass.INT, 5), PhysReg(RClass.INT, 6))),
            Instr(Opcode.HALT),
        ])
        cfgs = [paper_machine(issue_width=w, rc_class=RClass.INT)
                for w in GANG_WIDTHS]
        sim = BatchedSimulator(prog, cfgs)
        outcomes = sim.run()
        for cfg, outcome in zip(cfgs, outcomes):
            with pytest.raises(SimulationError) as ref_exc:
                Simulator(prog, cfg).run()
            assert type(outcome.error) is type(ref_exc.value)
            assert str(outcome.error) == str(ref_exc.value)
        again = sim.run()
        for outcome in again:
            assert isinstance(outcome.error, SimulationError)
            assert "cannot resume" in str(outcome.error)

    @staticmethod
    def _assert_gang_matches_fast(program, configs):
        for i, (cfg, outcome) in enumerate(
                zip(configs, BatchedSimulator(program, configs).run())):
            try:
                single = FastSimulator(program, cfg).run()
            except Exception as exc:
                assert type(outcome.error) is type(exc), f"slot{i}"
                assert str(outcome.error) == str(exc), f"slot{i}"
            else:
                _assert_slot_equals(outcome, single, f"slot{i}")

    @staticmethod
    def _loop_program():
        r = lambda n: PhysReg(RClass.INT, n)  # noqa: E731
        return assemble([
            Instr(Opcode.LI, dest=r(5), imm=0),
            Instr(Opcode.LI, dest=r(6), imm=0),
            # loop: self-loop block running until just before the halt
            Instr(Opcode.ADD, dest=r(5), srcs=(r(5), r(6))),
            Instr(Opcode.ADD, dest=r(6), srcs=(r(6), Imm(1))),
            Instr(Opcode.BLT, srcs=(r(6), Imm(300)), label="loop"),
            Instr(Opcode.STORE, srcs=(r(5), Imm(0)), imm=900),
            Instr(Opcode.HALT),
        ], labels={"loop": 2})

    def test_leader_budget_at_its_run_end(self):
        """The leader (first of equal budgets) gets the tightest budget it
        completes under (it runs past every block's gate, and followers
        replay its trace) and one cycle less (it retires with the fast
        engine's CycleBudgetError)."""
        for program in (self._loop_program(), _program(ALL_BENCHMARKS[0])):
            cfgs = [paper_machine(issue_width=w, rc_class=RClass.INT,
                                  rc_model=RCModel.WRITE_RESET_READ_UPDATE)
                    for w in GANG_WIDTHS]
            budget = FastSimulator(program, cfgs[0]).run().stats.cycles
            while True:
                tight = dataclasses.replace(cfgs[0], max_cycles=budget - 1)
                try:
                    FastSimulator(program, tight).run()
                except CycleBudgetError:
                    break
                budget -= 1
            for b in (budget, budget - 1):
                gang = [dataclasses.replace(c, max_cycles=b) for c in cfgs]
                self._assert_gang_matches_fast(program, gang)
            lead = BatchedSimulator(program, gang).run()[0]
            assert isinstance(lead.error, CycleBudgetError)


def test_until_cycle_segmented_gang_parity():
    """Segmenting a whole gang with until_cycle converges to the full run."""
    name = ALL_BENCHMARKS[2]
    program = _program(name)
    configs = _gang_configs(name)[:4]
    full = BatchedSimulator(program, configs).run()
    seg_sim = BatchedSimulator(program, configs)
    horizon = 500
    outcomes = seg_sim.run(until_cycle=horizon)
    guard = 10_000
    while not all(o.result is not None and o.result.halted
                  for o in outcomes):
        horizon += 500
        guard -= 1
        assert guard > 0, "segmented gang failed to make progress"
        outcomes = seg_sim.run(until_cycle=horizon)
    for a, b in zip(outcomes, full):
        _assert_slot_equals(a, b.result, f"segmented slot{a.slot}")


def test_rerun_returns_same_results():
    name = ALL_BENCHMARKS[0]
    program = _program(name)
    configs = _gang_configs(name)[:3]
    sim = BatchedSimulator(program, configs)
    first = sim.run()
    second = sim.run()
    for a, b in zip(first, second):
        _assert_slot_equals(b, a.result, f"rerun slot{b.slot}")


class TestDispatch:
    def test_valid_engines_includes_batched(self):
        assert "batched" in VALID_ENGINES

    def test_simulate_engine_batched(self):
        name = ALL_BENCHMARKS[0]
        program = _program(name)
        cfg = paper_machine(issue_width=2, rc_class=_rc_class(name))
        batched = simulate(program, cfg, engine="batched")
        fast = simulate(program, cfg, engine="fast")
        assert batched.stats == fast.stats
        assert batched.state.memory == fast.state.memory

    def test_simulate_engine_batched_raises_slot_error(self):
        name = ALL_BENCHMARKS[0]
        cfg = dataclasses.replace(
            paper_machine(issue_width=1, rc_class=_rc_class(name)),
            max_cycles=50)
        with pytest.raises(CycleBudgetError):
            simulate(_program(name), cfg, engine="batched")

    def test_leaders_reuse_the_fast_engine_module(self):
        """A class leader runs the module its config's fast run generated:
        neither a one-class gang nor ``simulate(engine="batched")`` adds a
        code-cache entry."""
        name = ALL_BENCHMARKS[0]
        # A private copy, so no earlier test has filled its cache entry.
        program = copy.deepcopy(_program(name))
        cfg = paper_machine(issue_width=1, rc_class=_rc_class(name))
        FastSimulator(program, cfg).run()
        modules = fastpath._code_cache[id(program)][1]
        assert set(modules) == {repr(cfg)}
        gang = [cfg, dataclasses.replace(cfg, issue_width=2)]
        assert all(o.error is None for o in BatchedSimulator(program, gang).run())
        assert set(modules) == {repr(cfg)}
        simulate(program, cfg, engine="batched")
        assert set(modules) == {repr(cfg)}

    def test_empty_gang_rejected(self):
        name = ALL_BENCHMARKS[0]
        with pytest.raises(ConfigError, match="at least one config"):
            BatchedSimulator(_program(name), [])


def test_run_gang_matches_run(tmp_path):
    """ExperimentRunner.run_gang stores records identical to run()."""
    from repro.experiments import ExperimentRunner

    name = ALL_BENCHMARKS[0]
    configs = [paper_machine(issue_width=4, rc_class=_rc_class(name),
                             extra_decode_stage=e) for e in (False, True)]
    gang_runner = ExperimentRunner(cache_dir=tmp_path / "gang",
                                   engine="batched")
    outcomes = gang_runner.run_gang(name, configs)
    ref_runner = ExperimentRunner(cache_dir=tmp_path / "ref", engine="fast")
    for cfg, (record, error) in zip(configs, outcomes):
        assert error is None
        assert record == ref_runner.run(name, cfg)
    # the gang populated the cache: a follow-up run() is a pure hit
    before = gang_runner.cache_hits
    gang_runner.run(name, configs[0])
    assert gang_runner.cache_hits == before + 1


def test_run_gang_rejects_mixed_compile_keys():
    from repro.experiments import ExperimentRunner

    name = ALL_BENCHMARKS[0]
    runner = ExperimentRunner(engine="batched")
    configs = [paper_machine(issue_width=w, rc_class=_rc_class(name))
               for w in (1, 2)]
    with pytest.raises(ValueError, match="compile keys"):
        runner.run_gang(name, configs)
