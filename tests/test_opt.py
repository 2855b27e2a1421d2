"""Tests for optimizer passes, including golden-equivalence after unrolling."""

import pytest

from repro.compiler.opt import (
    OptOptions,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    optimize_module,
    propagate_copies,
    unroll_loops,
)
from repro.ir import FnBuilder, Module, run_module, verify_module
from repro.isa import Imm, Opcode

from helpers import call_module, sum_to_n_module


def ops_of(fn):
    return [i.op for _, i in fn.iter_instrs()]


class TestConstFold:
    def test_folds_immediate_add(self):
        m = Module()
        b = FnBuilder(m, "f")
        v = b.add(2, 3)
        b.store(v, 100, 0)
        b.halt()
        fn = b.done()
        assert fold_constants(fn) == 1
        assert fn.entry.instrs[0].op is Opcode.LI
        assert fn.entry.instrs[0].imm == 5

    def test_leaves_div_by_zero(self):
        m = Module()
        b = FnBuilder(m, "f")
        v = b.div(1, 0)
        b.store(v, 100, 0)
        b.halt()
        fn = b.done()
        assert fold_constants(fn) == 0

    def test_preserves_semantics(self):
        m = sum_to_n_module(7)
        before = run_module(m).load_word(m.global_addr("out"))
        for fn in m.functions.values():
            fold_constants(fn)
        assert run_module(m).load_word(m.global_addr("out")) == before


class TestCopyProp:
    def test_constant_propagates_into_int_slot(self):
        m = Module()
        b = FnBuilder(m, "f")
        c = b.li(5)
        v = b.add(c, c)
        b.store(v, 100, 0)
        b.halt()
        fn = b.done()
        propagate_copies(fn)
        add = fn.entry.instrs[1]
        assert add.srcs == (Imm(5), Imm(5))

    def test_copy_chain_collapses_with_fold(self):
        m = Module()
        b = FnBuilder(m, "f")
        a = b.li(2)
        c = b.move(a)
        d = b.move(c)
        v = b.add(d, 1)
        b.store(v, 100, 0)
        b.halt()
        fn = b.done()
        propagate_copies(fn)
        fold_constants(fn)
        eliminate_dead_code(fn)
        # the adds/moves collapse to li 3 + store + halt
        assert [i.op for i in fn.entry.instrs] == [
            Opcode.LI, Opcode.STORE, Opcode.HALT]

    def test_binding_killed_on_redefinition(self):
        m = Module()
        b = FnBuilder(m, "main")
        a = b.li(1, name="a")
        c = b.move(a, name="c")
        b.li(9, dest=a)       # redefine a: c must NOT become 9
        v = b.add(c, 0)
        b.store(v, 100, 0)
        b.halt()
        fn = b.done()
        propagate_copies(fn)
        out_addr = 100
        from repro.ir import run_module as run
        assert run(m).load_word(out_addr) == 1


class TestCSE:
    def test_duplicate_expression_becomes_move(self):
        m = Module()
        b = FnBuilder(m, "f")
        x = b.li(3, name="x")
        a = b.mul(x, x)
        c = b.mul(x, x)
        s = b.add(a, c)
        b.store(s, 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 1
        assert fn.entry.instrs[2].op is Opcode.MOVE

    def test_commutative_match(self):
        m = Module()
        b = FnBuilder(m, "f")
        x = b.li(3, name="x")
        y = b.li(4, name="y")
        a = b.add(x, y)
        c = b.add(y, x)
        s = b.add(a, c)
        b.store(s, 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 1

    def test_recurrence_not_recorded(self):
        # Regression (found by hypothesis): v0 = add(v0, v2) computes with
        # the OLD v0; a later add(v2, v0) uses the NEW v0 and must not be
        # CSE'd into a copy of the recurrence result.
        m = Module()
        b = FnBuilder(m, "main")
        v0 = b.li(0, name="v0")
        v2 = b.li(1, name="v2")
        b.add(v0, v2, dest=v0)        # v0 = 1
        v1 = b.add(v2, v0, name="v1")  # v1 = 2
        b.store(b.add(v0, v1), 100, 0)
        b.halt()
        b.done()
        assert eliminate_common_subexpressions(m.function("main")) == 0
        assert run_module(m).load_word(100) == 3

    def test_redefined_operand_blocks_reuse(self):
        m = Module()
        b = FnBuilder(m, "main")
        x = b.li(3, name="x")
        a = b.mul(x, x)
        b.li(5, dest=x)
        c = b.mul(x, x)   # not the same value anymore
        s = b.add(a, c)
        b.store(s, 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 0
        assert run_module(m).load_word(100) == 9 + 25

    def test_redefined_source_kills_every_reader(self):
        m = Module()
        b = FnBuilder(m, "main")
        x = b.li(3, name="x")
        y = b.li(4, name="y")
        a = b.add(x, y)
        p = b.mul(y, x)
        b.li(5, dest=y)
        c = b.add(y, x)   # both keys read y: neither may be reused
        q = b.mul(x, y)
        b.store(b.add(b.add(a, c), b.add(p, q)), 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 0
        assert run_module(m).load_word(100) == 7 + 8 + 12 + 15

    def test_redefined_producer_blocks_reuse(self):
        m = Module()
        b = FnBuilder(m, "main")
        x = b.li(3, name="x")
        a = b.mul(x, x)
        b.li(7, dest=a)   # a no longer holds x*x
        c = b.mul(x, x)
        b.store(b.add(a, c), 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 0
        assert run_module(m).load_word(100) == 7 + 9

    def test_key_recorded_again_after_kill(self):
        m = Module()
        b = FnBuilder(m, "main")
        x = b.li(3, name="x")
        a = b.mul(x, x)
        b.li(5, dest=x)
        c = b.mul(x, x)   # recorded again, now produced into c
        b.li(1, dest=a)   # the killed record's producer: must not kill c's
        d = b.mul(x, x)   # reuses c
        b.store(b.add(b.add(a, c), d), 100, 0)
        b.halt()
        fn = b.done()
        assert eliminate_common_subexpressions(fn) == 1
        assert fn.entry.instrs[5].op is Opcode.MOVE
        assert fn.entry.instrs[5].srcs == (c,)
        assert run_module(m).load_word(100) == 1 + 25 + 25


class TestDCE:
    def test_removes_unused_chain(self):
        m = Module()
        b = FnBuilder(m, "f")
        a = b.li(1)
        c = b.add(a, 1)   # feeds only another dead instr
        b.add(c, 1)
        b.halt()
        fn = b.done()
        assert eliminate_dead_code(fn) == 3
        assert [i.op for i in fn.entry.instrs] == [Opcode.HALT]

    def test_keeps_stores_and_control(self):
        m = sum_to_n_module(3)
        fn = m.function("main")
        before = fn.instruction_count()
        eliminate_dead_code(fn)
        assert fn.instruction_count() == before


class TestUnroll:
    def test_unrolls_simple_counted_loop(self):
        m = sum_to_n_module(10)
        fn = m.function("main")
        assert unroll_loops(fn, factor=4) == 1
        verify_module(m)
        result = run_module(m)
        assert result.load_word(m.global_addr("out")) == 55

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_equivalence_across_trip_counts(self, n, factor):
        # NB: sum_to_n is do-while so n=0 still runs once; golden = original.
        ref = run_module(sum_to_n_module(n))
        m = sum_to_n_module(n)
        unroll_loops(m.function("main"), factor=factor)
        verify_module(m)
        out = run_module(m)
        addr = m.global_addr("out")
        assert out.load_word(addr) == ref.load_word(addr)

    def test_unrolled_loop_runs_fewer_dynamic_blocks(self):
        m = sum_to_n_module(40)
        unroll_loops(m.function("main"), factor=4)
        profile = run_module(m).profile
        assert profile.block_weight("main", "loop.u4") >= 9
        # the remainder loop runs < factor times
        assert profile.block_weight("main", "loop") < 4

    def test_unrolling_renames_temporaries(self):
        # Renaming is what lets the scheduler overlap iterations (which is
        # where register pressure actually rises); here we check each copy
        # got fresh virtual registers.
        def vreg_count(factor):
            m = Module()
            m.add_global("out", 1)
            b = FnBuilder(m, "main")
            i = b.li(0, name="i")
            acc = b.li(0, name="acc")
            base = b.la("out")
            b.block("loop")
            t1 = b.mul(i, i)
            t2 = b.add(t1, 3)
            b.add(acc, t2, dest=acc)
            b.add(i, 1, dest=i)
            b.br("blt", i, 64, "loop")
            b.block("exit")
            b.store(acc, base, 0)
            b.halt()
            fn = b.done()
            if factor > 1:
                unroll_loops(fn, factor)
            return len(fn.vregs())

        assert vreg_count(4) >= vreg_count(1) + 3 * 4  # 4 defs renamed x3


    def test_skips_non_counted_loops(self):
        m = Module()
        m.add_global("g", 1, [5])
        b = FnBuilder(m, "main")
        x = b.load(b.la("g"), 0)
        b.block("loop")
        b.sub(x, 1, dest=x)
        b.br("bnez", x, target="loop")   # not a counted compare form
        b.block("exit")
        b.halt()
        fn = b.done()
        assert unroll_loops(fn, factor=4) == 0

    def test_skips_loops_with_calls(self):
        m = Module()
        b = FnBuilder(m, "leaf")
        b.ret()
        b.done()
        b = FnBuilder(m, "main")
        i = b.li(0, name="i")
        b.block("loop")
        b.call("leaf")
        b.add(i, 1, dest=i)
        b.br("blt", i, 10, "loop")
        b.block("exit")
        b.halt()
        fn = b.done()
        assert unroll_loops(fn, factor=4) == 0

    def test_downward_counting_loop(self):
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        i = b.li(20, name="i")
        acc = b.li(0, name="acc")
        b.block("loop")
        b.add(acc, i, dest=acc)
        b.sub(i, 1, dest=i)
        b.br("bgt", i, 0, "loop")
        b.block("exit")
        b.store(acc, b.la("out"), 0)
        b.halt()
        fn = b.done()
        assert unroll_loops(fn, factor=4) == 1
        assert run_module(m).load_word(m.global_addr("out")) == 210


class TestPipeline:
    def test_optimize_module_scalar_preserves_semantics(self):
        m = call_module()
        ref = run_module(m).load_word(m.global_addr("out"))
        optimize_module(m, OptOptions(level="scalar"))
        assert run_module(m).load_word(m.global_addr("out")) == ref

    def test_optimize_module_ilp_preserves_semantics(self):
        m = sum_to_n_module(37)
        ref = run_module(m).load_word(m.global_addr("out"))
        optimize_module(m, OptOptions(level="ilp", unroll_factor=4))
        assert run_module(m).load_word(m.global_addr("out")) == ref

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            OptOptions(level="turbo")


class TestReassociation:
    def _acc_loop(self, op="add", trip=40):
        m = Module()
        m.add_global("out", 1)
        m.add_global("data", 64, [(7 * i) % 23 for i in range(64)])
        b = FnBuilder(m, "main")
        base = b.la("data")
        acc = b.li(0, name="acc")
        i = b.li(0, name="i")
        b.block("loop")
        x = b.load(b.add(base, i), 0, name="x")
        getattr(b, op)(acc, x, dest=acc)
        b.add(i, 1, dest=i)
        b.br("blt", i, trip, "loop")
        b.block("exit")
        b.store(acc, b.la("out"), 0)
        b.halt()
        b.done()
        return m

    def _partials(self, fn):
        return [v for v in fn.vregs() if v.name.startswith("acc.p")]

    @pytest.mark.parametrize("op", ["add", "or_", "xor"])
    def test_integer_reduction_split_exactly(self, op):
        m = self._acc_loop(op)
        ref = run_module(m).load_word(m.global_addr("out"))
        fn = m.function("main")
        assert unroll_loops(fn, factor=4) == 1
        assert len(self._partials(fn)) == 3  # copies 2..4
        assert run_module(m).load_word(m.global_addr("out")) == ref

    def test_partials_initialized_in_preheader(self):
        m = self._acc_loop()
        fn = m.function("main")
        unroll_loops(fn, factor=3)
        pre = fn.block("loop.pre")
        lis = [i for i in pre.instrs if i.op is Opcode.LI and i.imm == 0]
        assert len(lis) == 2  # identity for copies 2 and 3

    def test_reduction_happens_in_check_block(self):
        m = self._acc_loop()
        fn = m.function("main")
        unroll_loops(fn, factor=4)
        chk = fn.block("loop.chk")
        adds = [i for i in chk.instrs if i.op is Opcode.ADD]
        assert len(adds) == 3

    def test_value_read_elsewhere_not_reassociated(self):
        # acc feeds another computation inside the loop: must stay serial.
        m = Module()
        m.add_global("out", 1)
        b = FnBuilder(m, "main")
        acc = b.li(0, name="acc")
        shadow = b.li(0, name="shadow")
        i = b.li(0, name="i")
        b.block("loop")
        b.add(acc, i, dest=acc)
        b.add(shadow, acc, dest=shadow)   # reads acc: disqualifies it
        b.add(i, 1, dest=i)
        b.br("blt", i, 20, "loop")
        b.block("exit")
        b.store(b.add(acc, shadow), b.la("out"), 0)
        b.halt()
        fn = b.done()
        ref = run_module(m).load_word(m.global_addr("out"))
        unroll_loops(fn, factor=4)
        assert not [v for v in fn.vregs() if v.name.startswith("acc.p")]
        assert run_module(m).load_word(m.global_addr("out")) == ref

    def test_fp_reassociation_gated_by_option(self):
        m = Module()
        m.add_global("out", 1)
        m.add_global("data", 32, [0.5 * i for i in range(32)])
        b = FnBuilder(m, "main")
        base = b.la("data")
        acc = b.fli(0.0, name="facc")
        i = b.li(0, name="i")
        b.block("loop")
        b.fadd(acc, b.fload(b.add(base, i), 0), dest=acc)
        b.add(i, 1, dest=i)
        b.br("blt", i, 32, "loop")
        b.block("exit")
        b.fstore(acc, b.la("out"), 0)
        b.halt()
        b.done()

        import copy
        ref = run_module(m).load_word(m.global_addr("out"))
        on = copy.deepcopy(m)
        unroll_loops(on.function("main"), factor=4, reassociate_fp=True)
        off = copy.deepcopy(m)
        unroll_loops(off.function("main"), factor=4, reassociate_fp=False)
        got_on = run_module(on).load_word(on.global_addr("out"))
        got_off = run_module(off).load_word(off.global_addr("out"))
        assert got_off == ref                       # exact when disabled
        assert got_on == pytest.approx(ref, rel=1e-12)  # rounding only
        assert [v for v in on.function("main").vregs()
                if v.name.startswith("facc.p")]
        assert not [v for v in off.function("main").vregs()
                    if v.name.startswith("facc.p")]
