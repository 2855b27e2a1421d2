"""Differential fuzzing harness (ROADMAP item 1: the trust foundation).

The repo carries several redundant implementations that must agree
bit-exactly: reference vs fast simulator, tree-walking vs specializing IR
interpreter.  This package generates random programs at two levels (IR
builder and machine assembly), runs them through three oracles (engine
parity, checker soundness, compile determinism), auto-shrinks any failure,
and replays a committed corpus of minimized reproducers forever.

Entry points:

* ``repro fuzz`` (see :mod:`repro.cli`) — the CLI sweep with a JSON report.
* :func:`repro.fuzz.runner.run_fuzz` — the programmatic driver.
* :mod:`repro.fuzz.oracles` — individual differential oracles.
* :mod:`repro.fuzz.shrink` — delta-debugging minimizers.
"""

from repro.fuzz.corpus import (
    module_from_json,
    module_to_json,
    program_to_text,
)
from repro.fuzz.gen_asm import AsmGenOptions, gen_machine_program
from repro.fuzz.gen_ir import IRGenOptions, gen_module
from repro.fuzz.mutate import MUTATIONS, mutate_program
from repro.fuzz.oracles import (
    Divergence,
    checker_soundness,
    compile_determinism,
    fuzz_configs,
    interp_parity,
    resume_parity,
    sim_parity,
    tier_parity,
)
from repro.fuzz.runner import FuzzOptions, FuzzReport, run_fuzz
from repro.fuzz.shrink import shrink_machine, shrink_module

__all__ = [
    "AsmGenOptions",
    "Divergence",
    "FuzzOptions",
    "FuzzReport",
    "IRGenOptions",
    "MUTATIONS",
    "checker_soundness",
    "compile_determinism",
    "fuzz_configs",
    "gen_machine_program",
    "gen_module",
    "interp_parity",
    "module_from_json",
    "module_to_json",
    "mutate_program",
    "program_to_text",
    "resume_parity",
    "run_fuzz",
    "shrink_machine",
    "shrink_module",
    "sim_parity",
    "tier_parity",
]
