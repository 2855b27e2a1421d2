"""End-to-end compiler tests: golden equivalence across configurations,
connect insertion invariants, scheduling, code-size accounting, and the
front/back split."""

import pickle

import pytest

from repro.compiler import (
    CompileOptions,
    OptOptions,
    compile_back,
    compile_front,
    compile_module,
)
from repro.compiler.regalloc.allocator import AllocationOptions
from repro.ir import FnBuilder, Module, run_module
from repro.isa import Opcode, RClass
from repro.isa.asmfmt import format_listing
from repro.rc import RCModel
from repro.sim import paper_machine, simulate, unlimited_machine

from helpers import (
    call_chain_module,
    call_module,
    diamond_module,
    fp_module,
    sum_to_n_module,
)


def golden(m, gname):
    return run_module(m).load_word(m.global_addr(gname))


def compiled_value(m, gname, cfg, **opt):
    out = compile_module(m, cfg, CompileOptions(**opt) if opt else None)
    return simulate(out.program, cfg).load_word(m.global_addr(gname))


CONFIGS = [
    ("unlimited-1", unlimited_machine(1)),
    ("unlimited-8", unlimited_machine(8)),
    ("core16-4", paper_machine(issue_width=4, int_core=16, fp_core=16)),
    ("core8-2", paper_machine(issue_width=2, int_core=8, fp_core=16)),
    ("rc16-4", paper_machine(issue_width=4, int_core=16, fp_core=16,
                             rc_class=RClass.INT)),
    ("rc8-8", paper_machine(issue_width=8, int_core=8, fp_core=16,
                            rc_class=RClass.INT)),
    ("rc8-c1", paper_machine(issue_width=4, int_core=8, fp_core=16,
                             rc_class=RClass.INT, connect_latency=1)),
    ("rc8-extra", paper_machine(issue_width=4, int_core=8, fp_core=16,
                                rc_class=RClass.INT,
                                extra_decode_stage=True)),
    ("rcfp16-4", paper_machine(issue_width=4, int_core=16, fp_core=16,
                               rc_class=RClass.FP)),
]


@pytest.mark.parametrize("cfg_name,cfg", CONFIGS)
@pytest.mark.parametrize("maker,gname", [
    (lambda: sum_to_n_module(23), "out"),
    (call_module, "out"),
    (call_chain_module, "out"),
    (fp_module, "fout"),
    (diamond_module, "out"),
])
def test_golden_equivalence(maker, gname, cfg_name, cfg):
    m = maker()
    assert compiled_value(m, gname, cfg) == golden(m, gname)


@pytest.mark.parametrize("model", list(RCModel))
def test_golden_equivalence_all_rc_models(model):
    m = sum_to_n_module(23)
    cfg = paper_machine(issue_width=4, int_core=8, fp_core=16,
                        rc_class=RClass.INT, rc_model=model)
    assert compiled_value(m, "out", cfg) == golden(m, "out")


def high_pressure_module(n=24, iters=50):
    """A loop keeping n accumulators live: guaranteed extended-reg usage."""
    m = Module()
    m.add_global("out", 1)
    b = FnBuilder(m, "main")
    accs = [b.li(i, name=f"acc{i}") for i in range(n)]
    i = b.li(0, name="i")
    b.block("loop")
    for j, acc in enumerate(accs):
        b.add(acc, j + 1, dest=acc)
    b.add(i, 1, dest=i)
    b.br("blt", i, iters, "loop")
    b.block("exit")
    total = b.li(0, name="total")
    for acc in accs:
        b.add(total, acc, dest=total)
    b.store(total, b.la("out"), 0)
    b.halt()
    b.done()
    return m


class TestHighPressure:
    @pytest.mark.parametrize("model", list(RCModel))
    def test_equivalence_under_pressure_all_models(self, model):
        m = high_pressure_module()
        ref = golden(m, "out")
        cfg = paper_machine(issue_width=4, int_core=16, fp_core=16,
                            rc_class=RClass.INT, rc_model=model)
        assert compiled_value(m, "out", cfg) == ref

    def test_rc_uses_connects_and_wins_over_spilling(self):
        m = high_pressure_module()
        ref = golden(m, "out")
        without = paper_machine(issue_width=4, int_core=16, fp_core=16)
        with_rc = paper_machine(issue_width=4, int_core=16, fp_core=16,
                                rc_class=RClass.INT)
        out_wo = compile_module(m, without)
        out_rc = compile_module(m, with_rc)
        res_wo = simulate(out_wo.program, without)
        res_rc = simulate(out_rc.program, with_rc)
        assert res_wo.load_word(m.global_addr("out")) == ref
        assert res_rc.load_word(m.global_addr("out")) == ref
        assert out_rc.stats.connect_instructions > 0
        assert out_wo.stats.spill_instructions > 0
        assert out_rc.stats.spilled_vregs == 0  # extended section absorbs all
        # the paper's headline: RC beats spilling under pressure
        assert res_rc.cycles < res_wo.cycles

    def test_connects_are_combined(self):
        m = high_pressure_module()
        cfg = paper_machine(issue_width=4, int_core=8, fp_core=16,
                            rc_class=RClass.INT)
        out = compile_module(m, cfg)
        combined = [i for i in out.program.instrs
                    if i.op in (Opcode.CUU, Opcode.CDU, Opcode.CDD)]
        assert combined, "expected multiple-connect instructions"

    def test_window_count_configurable(self):
        m = high_pressure_module()
        cfg = paper_machine(issue_width=4, int_core=16, fp_core=16,
                            rc_class=RClass.INT)
        ref = golden(m, "out")
        for windows in (2, 3, 6):
            opts = CompileOptions(alloc=AllocationOptions(num_windows=windows))
            out = compile_module(m, cfg, opts)
            assert simulate(out.program, cfg).load_word(
                m.global_addr("out")) == ref


class TestCodeSize:
    def test_unlimited_has_no_overhead(self):
        out = compile_module(sum_to_n_module(10), unlimited_machine(4))
        assert out.stats.overhead_instructions == 0
        assert out.stats.code_size_increase == 0.0

    def test_spill_overhead_counted(self):
        m = high_pressure_module()
        out = compile_module(m, paper_machine(issue_width=4, int_core=16,
                                              fp_core=16))
        assert out.stats.spill_instructions > 0
        assert out.stats.code_size_increase > 0

    def test_both_models_grow_under_pressure(self):
        # Paper Figure 9: at small core files both models pay substantial
        # code growth (spill code vs connect + save/restore code).
        m = high_pressure_module()
        wo = compile_module(m, paper_machine(issue_width=4, int_core=16,
                                             fp_core=16))
        rc = compile_module(m, paper_machine(issue_width=4, int_core=16,
                                             fp_core=16,
                                             rc_class=RClass.INT))
        assert wo.stats.code_size_increase > 0.10
        assert rc.stats.code_size_increase > 0.10

    @staticmethod
    def _call_heavy_pressure_module(n=20):
        """Non-constant values live across a call: forces extended
        caller-save code (the Figure 9 'black bar')."""
        m = Module()
        m.add_global("out", 1)
        m.add_global("data", n, list(range(3, 3 + n)))
        b = FnBuilder(m, "leaf", params=[("i", "x")], ret="i")
        b.ret(b.add(b.params[0], 1))
        b.done()
        b = FnBuilder(m, "main")
        base = b.la("data")
        vals = [b.load(base, j, name=f"v{j}") for j in range(n)]
        r = b.call("leaf", [5], ret="i")
        total = b.move(r, name="total")
        for v in vals:
            b.add(total, v, dest=total)
        b.store(total, b.la("out"), 0)
        b.halt()
        b.done()
        return m

    def test_callsave_counted_for_calls_with_extended_liveness(self):
        m = self._call_heavy_pressure_module()
        ref = golden(m, "out")
        cfg = paper_machine(issue_width=4, int_core=8, fp_core=16,
                            rc_class=RClass.INT)
        out = compile_module(m, cfg)
        assert out.stats.callsave_instructions > 0
        assert out.stats.callsave_increase > 0
        assert simulate(out.program, cfg).load_word(m.global_addr("out")) == ref


class TestScheduling:
    def test_scheduling_reduces_cycles(self):
        # A chain-heavy loop benefits from reordering independent work.
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        i = b.li(0, name="i")
        acc = b.li(0, name="acc")
        acc2 = b.li(0, name="acc2")
        b.block("loop")
        t = b.mul(i, 3)
        u = b.mul(i, 5)
        b.add(acc, t, dest=acc)
        b.add(acc2, u, dest=acc2)
        b.add(i, 1, dest=i)
        b.br("blt", i, 200, "loop")
        b.block("exit")
        b.store(b.add(acc, acc2), b.la("out"), 0)
        b.halt()
        b.done()
        ref = golden(m, "out")
        cfg = paper_machine(issue_width=4, int_core=16, fp_core=16)
        fast = compile_module(m, cfg, CompileOptions(schedule=True))
        slow = compile_module(m, cfg, CompileOptions(schedule=False))
        rf = simulate(fast.program, cfg)
        rs = simulate(slow.program, cfg)
        assert rf.load_word(m.global_addr("out")) == ref
        assert rs.load_word(m.global_addr("out")) == ref
        assert rf.cycles <= rs.cycles

    def test_unrolling_plus_wide_issue_beats_scalar(self):
        m = sum_to_n_module(400)
        cfg = unlimited_machine(8)
        ilp = compile_module(m, cfg, CompileOptions(
            opt=OptOptions(level="ilp", unroll_factor=4)))
        scalar = compile_module(m, cfg, CompileOptions(
            opt=OptOptions(level="scalar")))
        ref = golden(m, "out")
        ri = simulate(ilp.program, cfg)
        rs = simulate(scalar.program, cfg)
        assert ri.load_word(m.global_addr("out")) == ref
        assert rs.load_word(m.global_addr("out")) == ref
        assert ri.cycles < rs.cycles


class TestRecursion:
    def test_recursive_function_compiles_and_runs(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "fib", params=[("i", "n")], ret="i")
        (n,) = b.params
        b.br("bgt", n, 1, "rec")
        b.block("base")
        b.ret(n)
        b.block("rec")
        a = b.call("fib", [b.sub(n, 1)], ret="i")
        c = b.call("fib", [b.sub(n, 2)], ret="i")
        b.ret(b.add(a, c))
        b.done()
        b = FnBuilder(m, "main")
        b.store(b.call("fib", [10], ret="i"), b.la("out"), 0)
        b.halt()
        b.done()
        ref = golden(m, "out")
        assert ref == 55
        for _, cfg in CONFIGS:
            assert compiled_value(m, "out", cfg) == ref


def test_ir_engine_option_is_output_invariant():
    m = call_chain_module()
    cfg = paper_machine()
    fast = compile_module(m, cfg, CompileOptions(ir_engine="fast"))
    ref = compile_module(m, cfg, CompileOptions(ir_engine="reference"))
    assert ([repr(i) for i in fast.program.instrs]
            == [repr(i) for i in ref.program.instrs])
    assert fast.profile == ref.profile


class TestFrontBackSplit:
    @pytest.mark.parametrize("maker", [high_pressure_module, call_chain_module,
                                       fp_module])
    def test_shared_front_end_matches_compile_module(self, maker):
        m = maker()
        front = compile_front(m)
        snapshot = pickle.dumps(front.module)
        for cfg_name, cfg in CONFIGS:
            want = compile_module(m, cfg)
            got = compile_back(front, cfg)
            assert (format_listing(got.program.instrs)
                    == format_listing(want.program.instrs)), cfg_name
            assert got.program.targets == want.program.targets, cfg_name
            assert got.stats == want.stats, cfg_name
            assert got.interp == want.interp, cfg_name
        # Every back end worked on its own copy of the front end's IR.
        assert pickle.dumps(front.module) == snapshot

    def test_runner_computes_one_front_end_per_opt_options(self, tmp_path,
                                                           monkeypatch):
        import repro.experiments.runner as runner_mod

        fronts = []

        def counting_front(module, options=None, *args, **kwargs):
            fronts.append((options.opt.level, options.opt.unroll_factor))
            return compile_front(module, options, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_front", counting_front)
        runner_mod.clear_front_ends()
        runner = runner_mod.ExperimentRunner(cache_dir=tmp_path)
        narrow, wide = paper_machine(issue_width=1), paper_machine()
        runner.compile("cmp", narrow)
        runner.compile("cmp", wide)
        assert runner.compile_misses == 2
        assert fronts == [("ilp", 4)]
        runner.compile("cmp", wide, num_windows=2)
        assert fronts == [("ilp", 4)]
        runner.compile("cmp", wide, opt_level="scalar")
        runner.compile("cmp", wide, unroll_factor=2)
        assert fronts == [("ilp", 4), ("scalar", 4), ("ilp", 2)]
        assert runner.compile_misses == 5
        # The memo is process-wide: another runner shares its front ends.
        other = runner_mod.ExperimentRunner(cache_dir=tmp_path / "other")
        other.compile("cmp", narrow, opt_level="scalar")
        assert fronts == [("ilp", 4), ("scalar", 4), ("ilp", 2)]
        assert other.compile_misses == 1
