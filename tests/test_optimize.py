"""Connect-optimizer tests: deletion, redundancy, hoisting, parity.

Each rewrite kind gets a firing fixture and a must-not-fire negative; the
whole pass is then gated on bit-exact architectural parity (final register
files and memory) against the unoptimized program, mirroring the CI job.
"""

import pytest

from repro.analyze import (build_cfg, check_program, optimize_connects,
                           solve_forward)
from repro.analyze import optimize
from repro.compiler.pipeline import CompileOptions, compile_module
from repro.experiments.figures import _config
from repro.isa import RClass
from repro.isa.asmparse import parse_program
from repro.rc import RCModel
from repro.sim import FastSimulator
from repro.sim.config import paper_machine
from repro.workloads import workload

ALL_MODELS = [1, 2, 3, 4, 5]


def _trial_is_redundant(program, maps, i, p, eoj):
    """Oracle: whether the connect at *i* is a no-op once a copy sits at
    *p*, by a forward solve over the whole trial program."""
    trial = optimize._insert_at(program, program.instrs[i].copy(), p, eoj)
    index = i + 1 if i >= p else i
    for fn in build_cfg(trial).functions:
        block = next((b for b in fn.blocks.values()
                      if b.start <= index < b.end), None)
        if block is not None:
            break
    else:
        return False
    fwd = solve_forward(fn, maps, trial.instrs)
    if block.start not in fwd.block_in:
        return False
    state = maps.copy(fwd.block_in[block.start])
    for k in range(block.start, index):
        state = maps.transfer(state, k, trial.instrs[k])
    return all(maps.redundant(state, trial.instrs[index]))


def machine(model=3, rc=True, cls=RClass.INT):
    return paper_machine(int_core=16, fp_core=32,
                         rc_class=cls if rc else None,
                         rc_model=RCModel(model))


def run_state(program, config):
    result = FastSimulator(program, config).run()
    return (list(result.state.int_regs), list(result.state.fp_regs),
            dict(result.state.memory))


def optimize_asm(text, model=3):
    program = parse_program(text)
    config = machine(model)
    result = optimize_connects(program, config)
    return program, result, config


def assert_parity(original, optimized, config):
    assert run_state(original, config) == run_state(optimized, config)


# ---------------------------------------------------------------------------
# Dead-connect deletion


DEAD = """
start:
    li r5, 1
    connect_use ri6, rp20
    halt
"""

LIVE = """
start:
    li r20, 7
    connect_use ri6, rp20
    add r7, r6, 1
    halt
"""


class TestDeadDeletion:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_unused_connect_is_deleted(self, model):
        original, result, config = optimize_asm(DEAD, model)
        report = result.report
        assert report.removed_dead == 1
        assert (report.connects_before, report.connects_after) == (1, 0)
        assert not any(i.is_connect for i in result.program.instrs)
        assert_parity(original, result.program, config)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_used_connect_survives(self, model):
        _, result, _ = optimize_asm(LIVE, model)
        assert not result.report.changed
        assert result.report.removed == 0
        assert sum(i.is_connect for i in result.program.instrs) == 1


# ---------------------------------------------------------------------------
# Redundant-connect elimination


REDUNDANT = """
start:
    connect_def ri6, rp20
    li r6, 7
    connect_use ri6, rp20
    add r7, r6, 1
    connect_use ri6, rp20
    add r8, r6, 1
    halt
"""


class TestRedundantElimination:
    @pytest.mark.parametrize("model,removed", [(1, 1), (2, 1), (3, 2),
                                               (4, 1)])
    def test_reestablishing_connect_is_removed(self, model, removed):
        # The second connect-use re-establishes a slot the first one set.
        # Under WRITE_RESET_READ_UPDATE the write itself already made the
        # value readable, so the first connect-use is redundant too.
        original, result, config = optimize_asm(REDUNDANT, model)
        report = result.report
        assert report.removed_redundant == removed
        assert report.connects_after == 3 - removed
        assert_parity(original, result.program, config)

    def test_read_reset_model_keeps_all_connects(self):
        # Under READ_RESET the first read resets the slot to home: the
        # second connect is load-bearing and must not be removed.
        _, result, _ = optimize_asm(REDUNDANT, model=5)
        assert not result.report.changed
        assert sum(i.is_connect for i in result.program.instrs) == 3


# ---------------------------------------------------------------------------
# Loop-invariant hoisting


HOISTABLE = """
start:
    connect_def ri6, rp20
    li r6, 7
    li r5, 0
loop:
    connect_use ri6, rp20
    add r5, r5, r6
    blt r5, 100 -> loop
    halt
"""

ALTERNATING = """
start:
    connect_def ri6, rp20
    li r6, 7
    connect_def ri6, rp21
    li r6, 9
    li r5, 0
loop:
    connect_use ri6, rp20
    add r5, r5, r6
    connect_use ri6, rp21
    add r5, r5, r6
    blt r5, 100 -> loop
    halt
"""


class TestHoisting:
    @pytest.mark.parametrize("model", [1, 2, 4])
    def test_invariant_connect_moves_to_preheader(self, model):
        original, result, config = optimize_asm(HOISTABLE, model)
        report = result.report
        assert report.hoisted == 1
        # Static count unchanged: the loop connect now sits ahead of the
        # loop, so the dynamic count drops to once per loop entry.
        assert (report.connects_before, report.connects_after) == (2, 2)
        flags = [i.is_connect for i in result.program.instrs]
        assert flags == [True, False, False, True, False, False, False]
        # The loop back edge targets the add, past the hoisted connect.
        assert result.program.targets[5] == 4
        assert_parity(original, result.program, config)

    def test_write_update_model_deletes_instead(self):
        # Under WRITE_RESET_READ_UPDATE the preheader write already made
        # the value readable through index 6, so the loop connect is
        # outright redundant — deleted, not hoisted.
        original, result, config = optimize_asm(HOISTABLE, model=3)
        report = result.report
        assert report.hoisted == 0
        assert report.removed_redundant == 1
        assert (report.connects_before, report.connects_after) == (2, 1)
        assert_parity(original, result.program, config)

    def test_read_reset_model_must_not_hoist(self):
        # Under READ_RESET every iteration's read resets the slot: the
        # in-loop connect is load-bearing on the back edge.
        original, result, config = optimize_asm(HOISTABLE, model=5)
        assert not result.report.changed
        assert_parity(original, result.program, config)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_alternating_connects_do_not_hoist(self, model):
        # Both loop connects have slots dead at the header, but neither
        # copy can make its original provably redundant (the back edge
        # carries the other target), so every trial is abandoned.
        original, result, config = optimize_asm(ALTERNATING, model)
        assert result.report.hoisted == 0
        assert not result.report.changed
        assert_parity(original, result.program, config)


# ---------------------------------------------------------------------------
# Bail-outs


class TestBail:
    def test_no_rc_configuration_bails(self):
        program = parse_program(DEAD)
        result = optimize_connects(program, machine(rc=False))
        assert result.report.bail_reason is not None
        assert result.program is program
        assert not result.report.changed

    def test_report_lines_mention_skip(self):
        program = parse_program(DEAD)
        result = optimize_connects(program, machine(rc=False))
        assert result.report.lines()[0].startswith("connect-opt: skipped")


# ---------------------------------------------------------------------------
# Pipeline integration and whole-benchmark parity


class TestPipeline:
    def test_opt_connects_on_by_default(self):
        w = workload("cmp")
        config = machine(3)
        plain = compile_module(w.module(1), config,
                               CompileOptions(opt_connects=False))
        opt = compile_module(w.module(1), config)
        assert opt.connect_opt is not None
        assert plain.connect_opt is None
        n_plain = sum(i.is_connect for i in plain.program.instrs)
        n_opt = sum(i.is_connect for i in opt.program.instrs)
        assert n_opt <= n_plain
        assert opt.stats.connects_removed == n_plain - n_opt

    def test_benchmark_parity_and_idempotence(self):
        w = workload("cmp")
        config = machine(3)
        out = compile_module(w.module(1), config,
                             CompileOptions(opt_connects=False))
        result = optimize_connects(out.program, config)
        assert_parity(out.program, result.program, config)
        again = optimize_connects(result.program, config)
        assert not again.report.changed

    @pytest.mark.parametrize("name, pair, model, expect", [
        ("compress", (16, 32), 1, (42, 3, 0, 1)),
        ("nasa7", (16, 32), 3, (45, 2, 1, 0)),
        ("yacc", (16, 32), 3, (160, 1, 3, 3)),
    ])
    def test_hoist_search_is_pinned(self, name, pair, model, expect):
        # (trials, hoisted, removed dead, removed redundant) on figure-8
        # machines: a change to the candidate order, the trial cap or the
        # commit rule moves these, even when every program stays correct.
        config = _config(name, rc=True, int_core=pair[0], fp_core=pair[1],
                         model=RCModel(model))
        report = compile_module(workload(name).module(1), config).connect_opt
        assert (report.trials, report.hoisted, report.removed_dead,
                report.removed_redundant) == expect
        assert f"{expect[0]} hoist trials" in report.lines()[0]

    @pytest.mark.parametrize("name", ["compress", "matrix300", "nasa7",
                                      "yacc"])
    def test_hoist_proof_matches_whole_program_solve(self, name,
                                                     monkeypatch):
        # Every hoist candidate the optimizer meets, models 1-5 on the
        # 16/32 figure-8 core pair: the slot-projected proof on the
        # original CFG must decide exactly what a full forward solve over
        # the trial program decides.
        decisions = []
        candidates = optimize._hoist_candidates

        def checked(program, maps, live, cfg):
            prover = optimize._HoistProver(program, maps, cfg)
            for cand in candidates(program, maps, live, cfg):
                i, start, pre, p, eoj, _fn = cand
                want = _trial_is_redundant(program, maps, i, p, eoj)
                assert prover.proves(i, start, pre, p) == want, cand
                decisions.append(want)
                yield cand

        monkeypatch.setattr(optimize, "_hoist_candidates", checked)
        for model in range(1, 6):
            config = _config(name, rc=True, int_core=16, fp_core=32,
                             model=RCModel(model))
            compile_module(workload(name).module(1), config)
        assert True in decisions and False in decisions

    def test_optimized_output_checks_clean_of_own_rules(self):
        # The checker's RC003/RC005/RC006 are exactly what the optimizer
        # removes: its output must not retrigger them.
        w = workload("cmp")
        config = machine(3)
        out = compile_module(w.module(1), config)
        report = check_program(out.program, config)
        counts = report.counts()
        assert not {"RC003", "RC005", "RC006"} & set(counts), report.render()
