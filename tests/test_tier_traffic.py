"""Serve-like traffic through ``simulate()``: hot-block code generation must
be invisible on the job service's short fuzz programs.

Every ``gen_machine_program`` seed below runs on every ``fuzz_configs``
config under three cycle budgets: the config's own, the service's 50,000
fuzz-job budget, and a small seeded one that stops most runs part-way.
``simulate()`` must match one reference run exactly: the same error type
and message, or the same stats, halting state, memory and register files.
Nothing but a :class:`ReproError` may escape either engine, since the
service reports anything else as an ``internal-error``.
"""

import dataclasses
from random import Random

from repro.errors import ReproError
from repro.fuzz import fuzz_configs, gen_machine_program
from repro.fuzz.corpus import program_to_text
from repro.serve.wire import machine_to_payload, validate_payload
from repro.serve.workers import execute_job
from repro.sim import Simulator, simulate

SEEDS = range(200)
#: The job service's budget for fuzz-asm jobs.
SERVE_BUDGET = 50_000
#: Every this-many seeds, the program's jobs also run through the service's
#: job executor.
JOB_EVERY = 25


def _outcome(run):
    """The full observable outcome of *run*, or its error's type and
    message; an error that is no :class:`ReproError` fails the test."""
    try:
        res = run()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return (res.stats, res.halted, res.state.memory, res.state.int_regs,
            res.state.fp_regs)


def test_simulate_matches_reference_on_serve_traffic():
    checked = 0
    for seed in SEEDS:
        gen = gen_machine_program(seed)
        program = gen.program
        small = Random(seed).randrange(1, 400)
        for config in fuzz_configs(gen.has_connects):
            served = dataclasses.replace(config, max_cycles=SERVE_BUDGET)
            want = _outcome(lambda: Simulator(program, served).run())
            runaway = want[0] == "CycleBudgetError"
            budgets = [SERVE_BUDGET, small]
            # A run inside the service budget ends the same way under the
            # config's own budget, which is larger; a runaway one would
            # spend about two seconds per config reaching it, so only the
            # service budget and the small one check how it stops.
            if not runaway:
                budgets.append(config.max_cycles)
            for budget in budgets:
                cfg = dataclasses.replace(config, max_cycles=budget)
                label = f"seed {seed} {cfg.describe()} budget {budget}"
                ref = (want if budget >= SERVE_BUDGET else
                       _outcome(lambda: Simulator(program, cfg).run()))
                got = _outcome(lambda: simulate(program, cfg))
                assert got == ref, label
                checked += 1
        if seed % JOB_EVERY == 0:
            _assert_jobs_classified(program, fuzz_configs(gen.has_connects),
                                    small)
    assert checked > 5000


def _assert_jobs_classified(program, configs, small):
    """The service's job executor ends every simulate job ``ok`` or with a
    classified error, never ``internal-error``."""
    text = program_to_text(program, header="tier traffic")
    for config in configs:
        for budget in (SERVE_BUDGET, small):
            payload = validate_payload("simulate", {
                "asm": text, "machine": machine_to_payload(config),
                "max_cycles": budget})
            status, body, _meta = execute_job("tier-traffic", "simulate",
                                              payload)
            if status != "ok":
                assert body["type"] != "internal-error", body
