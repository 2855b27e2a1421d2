"""Tests for the differential fuzzing harness (and its regressions).

Three layers:

* generator/corpus mechanics — round-trips, mutation validity, shrinker
  minimization (the ISSUE's acceptance criterion: a known-bad mutant fed
  through :mod:`repro.fuzz.shrink` still trips the oracle and is smaller);
* property tests (Hypothesis over generator seeds, small budgets) — every
  generated program must satisfy the parity oracles;
* regressions — the committed ``corpus/`` reproducers replayed as named
  tests, including the resume-after-failure engine divergence and the
  parser crash corpus.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import check_program
from repro.errors import SimulationError
from repro.fuzz import (
    AsmGenOptions,
    FuzzOptions,
    IRGenOptions,
    gen_machine_program,
    gen_module,
    module_from_json,
    module_to_json,
    mutate_program,
    program_to_text,
    run_fuzz,
)
from repro.fuzz.oracles import (
    FUZZ_MODELS,
    Divergence,
    checker_soundness,
    compile_determinism,
    fuzz_configs,
    interp_parity,
    opt_parity,
    resume_parity,
    sim_parity,
    tier_parity,
)
from repro.fuzz.shrink import delete_range, shrink_machine, shrink_module
from repro.ir.interp import Interpreter
from repro.isa.asmparse import AsmError, parse_program
from repro.sim import FastSimulator, Simulator

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

#: One mid-matrix machine for single-config tests.
CONFIG = fuzz_configs(widths=(2,), models=(FUZZ_MODELS[1],))[0]


# -- generator / corpus mechanics ---------------------------------------------

class TestRoundTrips:
    def test_asm_text_round_trip(self):
        for seed in range(8):
            gen = gen_machine_program(seed)
            back = parse_program(program_to_text(gen.program))
            assert back.targets == gen.program.targets
            assert back.entry == gen.program.entry
            assert back.initial_memory == gen.program.initial_memory
            assert back.trap_handlers == gen.program.trap_handlers
            for a, b in zip(back.instrs, gen.program.instrs):
                assert (a.op, a.dest, a.srcs, a.imm, a.hint_taken) == \
                       (b.op, b.dest, b.srcs, b.imm, b.hint_taken)

    def test_ir_json_round_trip(self):
        for seed in range(8):
            module = gen_module(seed)
            text = module_to_json(module)
            assert module_to_json(module_from_json(text)) == text

    def test_ir_round_trip_preserves_execution(self):
        module = gen_module(3)
        twin = module_from_json(module_to_json(module))
        a = Interpreter(module, engine="reference").run()
        b = Interpreter(twin, engine="reference").run()
        assert a.steps == b.steps
        assert a.memory == b.memory


class TestMutations:
    def test_mutants_are_valid_programs(self):
        rng = random.Random(42)
        gen = gen_machine_program(5)
        for _ in range(20):
            result = mutate_program(rng, gen.program,
                                    load_bearing=gen.load_bearing_connects)
            assert result is not None
            assert len(result.program.instrs) == len(gen.program.instrs)
            assert result.kind in ("nop_connect", "swap_operands",
                                   "flip_hint", "perturb_imm")
            # The original must never be edited in place.
            assert result.program is not gen.program
            assert result.program.instrs[result.index] is not \
                gen.program.instrs[result.index]

    def test_targeted_nop_connect_surfaces_finding(self):
        """NOP-ing a load-bearing connect_use redirects a read to an
        unwritten home register; the checker must flag the mutant."""
        found = 0
        for seed in range(40):
            gen = gen_machine_program(seed)
            if not gen.load_bearing_connects:
                continue
            rng = random.Random(seed)
            result = mutate_program(rng, gen.program,
                                    load_bearing=gen.load_bearing_connects,
                                    kind="nop_connect")
            if result is None or not result.targeted:
                continue
            report = check_program(result.program, CONFIG)
            assert any(f.rule in ("RC001", "RC002", "UBD001")
                       for f in report.findings), seed
            found += 1
            if found >= 5:
                break
        assert found >= 3, "generator produced too few load-bearing connects"


class TestShrink:
    def test_delete_range_retargets_branches(self):
        gen = gen_machine_program(1)
        program = gen.program
        cut = delete_range(program, 2, 5)
        assert cut is not None
        assert len(cut.instrs) == len(program.instrs) - 3
        for target in cut.targets:
            assert target is None or 0 <= target < len(cut.instrs)

    def test_shrink_machine_minimizes_known_bad_mutant(self):
        """Acceptance criterion: a known-bad mutated program fed through
        the shrinker still trips the oracle and is strictly smaller."""
        chosen = None
        for seed in range(60):
            gen = gen_machine_program(seed)
            if not gen.load_bearing_connects:
                continue
            result = mutate_program(random.Random(seed), gen.program,
                                    load_bearing=gen.load_bearing_connects,
                                    kind="nop_connect")
            if result is None or not result.targeted:
                continue
            report = check_program(result.program, CONFIG)
            if any(f.rule in ("RC001", "UBD001") for f in report.findings):
                chosen = result.program
                break
        assert chosen is not None

        def trips(program):
            report = check_program(program, CONFIG)
            return any(f.rule in ("RC001", "UBD001")
                       for f in report.findings)

        assert trips(chosen)
        small = shrink_machine(chosen, trips)
        assert trips(small), "minimized reproducer no longer trips oracle"
        assert len(small.instrs) < len(chosen.instrs)

    def test_shrink_module_preserves_predicate(self):
        module = gen_module(7)
        baseline = Interpreter(module, engine="reference").run()
        addr = module.global_addr("checksum")
        want = baseline.memory.get(addr)

        def same_checksum(candidate):
            got = Interpreter(candidate, engine="reference").run()
            return got.memory.get(addr) == want

        small = shrink_module(module, same_checksum, max_rounds=3)
        assert same_checksum(small)
        count = sum(len(b.instrs) for fn in small.functions.values()
                    for b in fn.blocks)
        original = sum(len(b.instrs) for fn in module.functions.values()
                       for b in fn.blocks)
        assert count <= original


# -- property tests over generator seeds --------------------------------------

class TestProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 50_000))
    def test_asm_engine_parity(self, seed):
        gen = gen_machine_program(seed, AsmGenOptions(max_segments=4))
        problem, _ = sim_parity(gen.program, CONFIG)
        assert problem is None, problem

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 50_000))
    def test_ir_interp_parity(self, seed):
        module = gen_module(seed, IRGenOptions(max_segments=3, max_accs=12))
        problem, _ = interp_parity(module)
        assert problem is None, problem

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 50_000))
    def test_asm_checker_soundness(self, seed):
        gen = gen_machine_program(seed, AsmGenOptions(max_segments=4))
        problem = checker_soundness(gen.program, CONFIG)
        assert problem is None, problem

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 50_000))
    def test_asm_resume_parity(self, seed):
        gen = gen_machine_program(seed, AsmGenOptions(max_segments=3))
        problem = resume_parity(gen.program, CONFIG)
        assert problem is None, problem

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 50_000))
    def test_asm_tier_parity(self, seed):
        gen = gen_machine_program(seed, AsmGenOptions(max_segments=3))
        problem = tier_parity(gen.program, CONFIG, seed)
        assert problem is None, problem

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 50_000))
    def test_asm_opt_parity(self, seed):
        gen = gen_machine_program(seed, AsmGenOptions(max_segments=3))
        problem = opt_parity(gen.program)
        assert problem is None, problem

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 50_000))
    def test_ir_compile_determinism(self, seed):
        module = gen_module(seed, IRGenOptions(max_segments=3, max_accs=10))
        problem = compile_determinism(module, CONFIG)
        assert problem is None, problem


# -- regressions: resume-after-failure (fastpath.py run() fallback) -----------

class TestResumeRegression:
    CASE = CORPUS / "regressions" / "resume-after-failure.s"

    def test_corpus_case_passes_resume_oracle(self):
        program = parse_program(self.CASE.read_text())
        for config in fuzz_configs():
            problem = resume_parity(program, config)
            assert problem is None, problem

    def test_rerun_after_failure_raises_on_both_engines(self):
        program = parse_program(self.CASE.read_text())
        outcomes = []
        for cls in (Simulator, FastSimulator):
            sim = cls(program, CONFIG)
            with pytest.raises(SimulationError):
                sim.run()
            with pytest.raises(SimulationError) as exc:
                sim.run()
            outcomes.append(str(exc.value))
        assert outcomes[0] == outcomes[1]
        assert "cannot resume" in outcomes[0]

    def test_interleaved_until_cycle_segments_match_full_run(self):
        gen = gen_machine_program(11)
        full = Simulator(gen.program, CONFIG).run()
        for cls in (Simulator, FastSimulator):
            sim = cls(gen.program, CONFIG)
            result = sim.run(until_cycle=5)
            segments = 1
            while not result.halted:
                result = sim.run(until_cycle=result.stats.cycles + 5)
                segments += 1
            assert segments > 1, "program too short to segment"
            assert result.stats == full.stats
            assert sim.state.memory == full.state.memory
            assert sim.state.int_regs == full.state.int_regs

    def test_rerun_after_success_is_idempotent(self):
        gen = gen_machine_program(2)
        for cls in (Simulator, FastSimulator):
            sim = cls(gen.program, CONFIG)
            first = sim.run()
            again = sim.run()
            assert again.halted
            assert again.stats == first.stats


# -- regressions: parser crash corpus -----------------------------------------

def _crash_cases():
    return sorted((CORPUS / "crashes").glob("*.s"))


@pytest.mark.parametrize("path", _crash_cases(),
                         ids=lambda p: p.stem)
def test_crash_corpus_raises_diagnostic_asm_error(path):
    with pytest.raises(AsmError) as exc:
        parse_program(path.read_text())
    assert "line " in str(exc.value), \
        f"{path.name}: AsmError lacks a line number: {exc.value}"


def test_crash_corpus_is_nonempty():
    assert len(_crash_cases()) >= 10


# -- the harness itself --------------------------------------------------------

class TestRunner:
    def test_divergence_keeps_seed_zero(self):
        found = Divergence(oracle="sim-parity", detail="x", level="asm",
                           seed=0)
        assert found.to_dict()["seed"] == 0
        assert "seed" not in Divergence(oracle="sim-parity",
                                         detail="x").to_dict()

    def test_small_run_is_clean_and_reports(self):
        report = run_fuzz(FuzzOptions(seed=3, budget=4, level="all",
                                      replay_corpus=False))
        assert report.clean, [d.to_dict() for d in report.divergences]
        assert report.counters["asm_programs"] == 2
        assert report.counters["ir_modules"] == 2
        assert report.counters["tier_runs"] >= 2 * len(fuzz_configs())
        payload = json.loads(report.to_json())
        assert payload["clean"] is True
        assert payload["counters"]["iterations"] == 4

    def test_corpus_replay_is_clean(self):
        report = run_fuzz(FuzzOptions(budget=0, corpus=CORPUS))
        assert report.counters["corpus_cases"] >= 20
        assert report.clean, [d.to_dict() for d in report.divergences]

    def test_divergence_detection_end_to_end(self):
        """Plant a fake oracle failure and confirm the runner reports and
        shrinks it: a program whose checker findings include RC001 is
        'divergent' for this test's predicate."""
        from repro.fuzz.runner import _Session

        session = _Session(FuzzOptions(shrink=True))
        gen = None
        for seed in range(60):
            candidate = gen_machine_program(seed)
            if candidate.load_bearing_connects:
                mutated = mutate_program(random.Random(seed),
                                         candidate.program,
                                         load_bearing=candidate
                                         .load_bearing_connects,
                                         kind="nop_connect")
                if mutated is not None and mutated.targeted:
                    gen = mutated.program
                    break
        assert gen is not None
        # The checker-soundness oracle holds for this program (zero errors
        # never happens: the mutant has an RC001 error), so the session
        # records nothing — exactly the soundness contract.
        session._check_soundness(gen, CONFIG, 0)
        assert session.report.divergences == []

    @pytest.mark.parametrize("level", ["asm", "ir"])
    def test_replayed_case_keeps_its_name_and_text(self, level, tmp_path,
                                                   monkeypatch):
        """A corpus case that fails an oracle on replay is reported under
        its case name, with no seed, and with its committed text as the
        reproducer (never shrunk, though shrinking is on)."""
        from repro.fuzz import runner
        from repro.fuzz.corpus import load_case, save_asm_case, save_ir_case

        regressions = tmp_path / "regressions"
        if level == "asm":
            path = save_asm_case(regressions, "planted",
                                 gen_machine_program(0).program,
                                 oracle="checker-soundness")
        else:
            path = save_ir_case(regressions, "planted", gen_module(0),
                                oracle="checker-soundness")
        case = load_case(path)
        monkeypatch.setattr(runner, "checker_soundness",
                            lambda program, config: "planted failure")
        report = run_fuzz(FuzzOptions(budget=0, corpus=tmp_path))
        assert report.counters["soundness_runs"] >= 1
        found = [d for d in report.divergences
                 if d.oracle == "checker-soundness"]
        assert found, [d.to_dict() for d in report.divergences]
        for div in found:
            assert div.case_name == "planted"
            assert div.seed is None
            assert div.reproducer == case.text

    @pytest.mark.slow
    def test_cli_sweep(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--seed", "5", "--budget", "30",
                     "--level", "all", "--jobs", "2", "--no-replay"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["clean"] is True
        assert payload["counters"]["iterations"] == 30
