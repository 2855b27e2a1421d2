"""Tests for the RC substrate: mapping table models, PSW, context formats."""

import pytest

from repro.errors import SimulationError
from repro.isa import Opcode
from repro.rc import (
    DEFAULT_MODEL,
    MappingTable,
    PSW,
    RCModel,
    restore_context,
    save_context,
)
from repro.rc.models import HOME, HOME_RESET_OPS, READ, WRITE


def table(model=DEFAULT_MODEL, entries=4, physical=12):
    return MappingTable(entries, physical, model)


class TestMappingTableBasics:
    def test_initial_state_is_home(self):
        t = table()
        for i in range(t.entries):
            assert t.read_target(i) == i
            assert t.write_target(i) == i
            assert t.at_home(i)

    def test_connect_use_redirects_reads_only(self):
        t = table()
        t.connect_use(1, 10)
        assert t.read_target(1) == 10
        assert t.write_target(1) == 1
        assert not t.at_home(1)

    def test_connect_def_redirects_writes_only(self):
        t = table()
        t.connect_def(2, 7)
        assert t.write_target(2) == 7
        assert t.read_target(2) == 2

    def test_paper_figure2_example(self):
        # Core section of 4, extended section of 8 (12 physical).
        # connect_use Ri2,Rp10 ; connect_use Ri3,Rp7 ; connect_def Ri1,Rp6
        # add Ri1 <- Ri2 + Ri3 accesses Rp10, Rp7 and writes Rp6.
        t = table(RCModel.NO_RESET)
        t.connect_use(2, 10)
        t.connect_use(3, 7)
        t.connect_def(1, 6)
        assert t.read_target(2) == 10
        assert t.read_target(3) == 7
        assert t.write_target(1) == 6

    def test_bounds_checked(self):
        t = table()
        with pytest.raises(SimulationError):
            t.connect_use(9, 0)
        with pytest.raises(SimulationError):
            t.connect_def(0, 99)

    def test_physical_file_must_cover_map(self):
        with pytest.raises(SimulationError):
            MappingTable(8, 4)

    def test_apply_dispatch(self):
        t = table()
        t.apply("read", 0, 5)
        t.apply("write", 1, 6)
        assert t.read_target(0) == 5
        assert t.write_target(1) == 6


class TestResetModels:
    """Figure 3 of the paper: table state after a write through Rix."""

    def setup_method(self):
        self.tables = {m: table(m) for m in RCModel}
        for t in self.tables.values():
            t.connect_use(1, 8)   # Rix_read -> Rpy
            t.connect_def(1, 9)   # Rix_write -> Rpz
            t.after_write(1)      # a write through index 1 occurs

    def test_model1_no_reset(self):
        t = self.tables[RCModel.NO_RESET]
        assert t.read_target(1) == 8
        assert t.write_target(1) == 9

    def test_model2_write_reset(self):
        t = self.tables[RCModel.WRITE_RESET]
        assert t.read_target(1) == 8      # read map untouched
        assert t.write_target(1) == 1     # write map reset to home

    def test_model3_write_reset_read_update(self):
        t = self.tables[RCModel.WRITE_RESET_READ_UPDATE]
        assert t.read_target(1) == 9      # read map := previous write map
        assert t.write_target(1) == 1     # write map reset to home

    def test_model4_read_write_reset(self):
        t = self.tables[RCModel.READ_WRITE_RESET]
        assert t.read_target(1) == 1
        assert t.write_target(1) == 1

    def test_default_model_is_model3(self):
        assert DEFAULT_MODEL is RCModel.WRITE_RESET_READ_UPDATE

    def test_model_properties(self):
        """Each row of the table in repro.rc.models, pinned to Figure 3
        (models 1-4, after a write) plus our model 5 (after a read)."""
        rows = {m: (m.value, m.on_write, m.on_read) for m in RCModel}
        assert rows == {
            RCModel.NO_RESET: (1, (), ()),
            # Rix_write := Rpx
            RCModel.WRITE_RESET: (2, ((WRITE, HOME),), ()),
            # Rix_read := Rix_write; Rix_write := Rpx
            RCModel.WRITE_RESET_READ_UPDATE:
                (3, ((READ, WRITE), (WRITE, HOME)), ()),
            # Rix_read := Rpx; Rix_write := Rpx
            RCModel.READ_WRITE_RESET: (4, ((READ, HOME), (WRITE, HOME)), ()),
            # model 2's write reset, and a read consumes its connection
            RCModel.READ_RESET: (5, ((WRITE, HOME),), ((READ, HOME),)),
        }
        assert HOME_RESET_OPS == {Opcode.CALL, Opcode.RET}

    def test_model3_read_after_write_sees_written_register(self):
        """Section 3's code example: no connect-use needed after a def."""
        t = table(RCModel.WRITE_RESET_READ_UPDATE, entries=8, physical=16)
        t.connect_def(7, 10)   # connect_def Ri7,Rp10
        # instruction 2 writes Ri7 -> goes to Rp10
        assert t.write_target(7) == 10
        t.after_write(7)
        # instruction 3 reads Ri7 -> must see Rp10 without a connect-use
        assert t.read_target(7) == 10
        # and subsequent writes of Ri7 go back home, protecting Rp10
        assert t.write_target(7) == 7


class TestHomeReset:
    def test_reset_home_restores_identity(self):
        t = table()
        t.connect_use(0, 11)
        t.connect_def(3, 4)
        t.reset_home()
        for i in range(t.entries):
            assert t.at_home(i)

    def test_snapshot_restore_roundtrip(self):
        t = table()
        t.connect_use(1, 10)
        t.connect_def(2, 11)
        snap = t.snapshot()
        t.reset_home()
        t.restore(snap)
        assert t.read_target(1) == 10
        assert t.write_target(2) == 11

    def test_restore_wrong_size_rejected(self):
        t = table()
        with pytest.raises(SimulationError):
            t.restore(([0], [0]))

    def test_snapshot_is_a_copy(self):
        t = table()
        snap = t.snapshot()
        t.connect_use(0, 5)
        assert snap[0][0] == 0


class TestPSW:
    def test_pack_unpack_roundtrip(self):
        for map_enable in (False, True):
            for rc_mode in (False, True):
                p = PSW(map_enable, rc_mode)
                assert PSW.unpack(p.pack()) == p

    def test_legacy_psw(self):
        p = PSW.legacy()
        assert p.map_enable and not p.rc_mode

    def test_copy_independent(self):
        p = PSW()
        q = p.copy()
        q.map_enable = False
        assert p.map_enable


class TestContextSwitch:
    def _machine(self, rc_mode: bool):
        psw = PSW(rc_mode=rc_mode)
        int_regs = list(range(100, 112))   # 12 physical int registers
        fp_regs = [float(i) for i in range(12)]
        int_table = MappingTable(4, 12)
        fp_table = MappingTable(4, 12)
        return psw, int_regs, fp_regs, int_table, fp_table

    def test_extended_format_saves_everything(self):
        psw, ir, fr, it, ft = self._machine(rc_mode=True)
        it.connect_use(1, 9)
        ctx = save_context(psw, ir, fr, it, ft)
        assert ctx.is_extended_format
        assert ctx.int_state.extended == ir[4:]
        assert ctx.int_state.read_map[1] == 9

    def test_legacy_format_saves_core_only(self):
        psw, ir, fr, it, ft = self._machine(rc_mode=False)
        ctx = save_context(psw, ir, fr, it, ft)
        assert not ctx.is_extended_format
        assert ctx.int_state.extended == []
        assert ctx.int_state.read_map is None

    def test_legacy_frame_is_smaller(self):
        psw_rc, ir, fr, it, ft = self._machine(rc_mode=True)
        big = save_context(psw_rc, ir, fr, it, ft)
        psw_legacy, ir, fr, it, ft = self._machine(rc_mode=False)
        small = save_context(psw_legacy, ir, fr, it, ft)
        assert small.word_count() < big.word_count()
        # legacy: 1 + 4 + 4 words; extended: 1 + (12+8)*2 words
        assert small.word_count() == 1 + 4 + 4

    def test_roundtrip_restores_connection_information(self):
        psw, ir, fr, it, ft = self._machine(rc_mode=True)
        it.connect_use(2, 11)
        ft.connect_def(3, 8)
        ctx = save_context(psw, ir, fr, it, ft)
        # Simulate another process trashing everything.
        ir[:] = [0] * 12
        it.reset_home()
        psw.map_enable = False
        restore_context(ctx, psw, ir, fr, it, ft)
        assert psw.map_enable
        assert ir[5] == 105
        assert it.read_target(2) == 11
        assert ft.write_target(3) == 8

    def test_legacy_restore_resets_map_home(self):
        psw, ir, fr, it, ft = self._machine(rc_mode=False)
        ctx = save_context(psw, ir, fr, it, ft)
        it.connect_use(0, 7)  # some other process connected things
        restore_context(ctx, psw, ir, fr, it, ft)
        assert it.at_home(0)
