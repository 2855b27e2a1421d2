"""Simulation-speed benchmark: reference engine vs the specializing fast
engine (:mod:`repro.sim.fastpath`).

Sections:

* ``fig07_set``: every benchmark at ``--scale`` on the unlimited-register
  machine at issue rates 1/2/4/8, the sweep behind Figure 7;
* ``microbench``: a tight arithmetic loop, one self-loop block with
  unmapped operands that iterates inside its generated function for 50,000
  passes;
* ``sweep_batched``: per benchmark, one compiled program on 40 configs
  (every RC model x issue width x extra-decode toggle), as 40 fast runs and
  as one :func:`~repro.sim.simulate_gang`, each pass on a fresh copy of the
  program so it pays what a cache-miss sweep pays.  Those gangs span 5 RC
  models, a shape no caller issues, so each of the 5 class leaders pays its
  own code generation.  Every gang slot must equal its fast run;
* ``codegen``: the 12 benchmarks at issue rate 4 on the 16/16-core machine
  without RC and with RC (model 3, on the benchmark's own file): generated
  lines and the seconds of generating every block (``_Codegen.block``) and
  of CPython's ``compile()`` of each.  Both points, and a parity-only third
  one with RC at connect latency 1, are compared engine against engine;
* ``tier``: the policy of ``simulate()``, which compiles a block at its
  ``HOT_ENTRIES``-th entry, on 80 ``gen_machine_program`` programs (seeds
  2000-2079, each on one ``fuzz_configs`` config with the job service's
  50,000-cycle fuzz budget) and on the 12 fig07 benchmarks on the
  unlimited machine at issue rate 4.  Each runs cold on the reference
  engine, the eager fast engine and ``simulate()``, on a fresh copy of the
  program per run, beside each engine's generated lines and best-of
  ``compile()`` seconds.  Every outcome must equal the reference's: error
  type and message, or full stats, halting state, memory and registers.

Each fig07, microbench and codegen point runs both engines once cold (the
fast engine's cold time includes its code generation), compared
field-by-field, and again with ``max_cycles`` one below the reference
cycle count, where the tail runs the fast engine's checked blocks: both
must fail with the same error or agree on the full stats.  Warm times are
best-of ``--repeat`` on the code the cold run generated.  Parity is the
gate; timings are informational.

Usage::

    python benchmarks/bench_simspeed.py [-o BENCH_simspeed.json] [--repeat N]
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import harness
from repro.compiler import compile_module
from repro.fuzz import fuzz_configs, gen_machine_program
from repro.isa import Imm, Instr, Opcode, PhysReg, RClass
from repro.rc import RCModel
from repro.sim import (FastSimulator, Simulator, assemble, paper_machine,
                       simulate, simulate_gang, unlimited_machine)
from repro.sim.fastpath import _code_cache, _Codegen, program_blocks
from repro.workloads import ALL_BENCHMARKS, build_workload, workload

ISSUE_RATES = (1, 2, 4, 8)


def _check_parity(ref, fast, label: str) -> list[str]:
    problems = []
    if ref.stats != fast.stats:
        problems.append(f"{label}: SimStats diverge")
    if ref.state.memory != fast.state.memory:
        problems.append(f"{label}: memory diverges")
    if (ref.state.int_regs != fast.state.int_regs
            or ref.state.fp_regs != fast.state.fp_regs):
        problems.append(f"{label}: register state diverges")
    return problems


def _budget_outcome(sim):
    """Error type and message of a run, or its stats when it completes."""
    try:
        return sim.run().stats
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _check_budget_parity(program, config, cycles: int, label: str):
    tight = dataclasses.replace(config, max_cycles=cycles - 1)
    ref = _budget_outcome(Simulator(program, tight))
    fast = _budget_outcome(FastSimulator(program, tight))
    if ref != fast:
        return [f"{label}: max_cycles={cycles - 1} diverges:"
                f" ref {ref!r} vs fast {fast!r}"]
    return []


def _codegen_cost(program, config, repeat: int, leaders=None) -> dict:
    """Lines of the fast engine's generated blocks for (program, config),
    every block or those led by *leaders*, and the best-of-*repeat*
    seconds of generating and ``compile()``-ing them one by one."""
    decoded = Simulator(program, config)._decoded
    blocks = [(lead, body) for lead, body in program_blocks(program, decoded)
              if leaders is None or lead in leaders]

    def fresh():
        return _Codegen(program, config, decoded)

    def generate(gen):
        return [gen.block(lead, body)[0] for lead, body in blocks]

    sources = generate(fresh())
    return {"source_lines": sum(s.count("\n") for s in sources),
            **harness.fields("generate",
                             harness.best(generate, repeat, fresh)),
            **harness.fields("compile", harness.best(
                lambda: [compile(s, "<fastpath>", "exec") for s in sources],
                repeat))}


def _codegen_totals(points) -> dict:
    return {"source_lines": sum(p["source_lines"] for p in points),
            **harness.totals(points, "generate", "compile")}


def _cold_parity(program, config, label: str):
    """One cold run per engine, compared on the full outcome and under a
    budget one cycle short: the reference result, the cold timing of each
    engine, and the problems found."""
    def run_fast():
        sim = FastSimulator(program, config)
        return sim, sim.run()

    ref_res, ref_cold = harness.once(lambda: Simulator(program, config).run())
    (fast_sim, fast_res), fast_cold = harness.once(run_fast)
    problems = _check_parity(ref_res, fast_res, label)
    if not fast_sim.ran_fastpath:
        problems.append(f"{label}: fast engine unexpectedly fell back")
    problems.extend(_check_budget_parity(program, config,
                                         ref_res.stats.cycles, label))
    return ref_res, ref_cold, fast_cold, problems


def _warm(engine, program, config, repeat: int) -> harness.Timing:
    return harness.best(lambda sim: sim.run(), repeat,
                        lambda: engine(program, config))


def bench_point(program, config, label: str, repeat: int) -> tuple[dict, list]:
    ref_res, ref_cold, fast_cold, problems = _cold_parity(program, config,
                                                          label)
    insns = ref_res.stats.instructions
    point = {
        "label": label,
        "instructions": insns,
        "cycles": ref_res.stats.cycles,
        **harness.fields("ref", _warm(Simulator, program, config, repeat)),
        **harness.fields("fast", _warm(FastSimulator, program, config,
                                       repeat)),
        **harness.fields("ref_cold", ref_cold),
        **harness.fields("fast_cold", fast_cold),
        **_codegen_cost(program, config, repeat),
    }
    return _rates(point), problems


def _rates(summary: dict) -> dict:
    """*summary* with instructions per reference second and speedups."""
    ref_s, fast_s = summary["ref_seconds"], summary["fast_seconds"]
    return {**summary,
            "ref_insns_per_sec": summary["instructions"] / ref_s,
            "fast_insns_per_sec": summary["instructions"] / fast_s,
            "speedup": ref_s / fast_s,
            "cold_speedup": ref_s / summary["fast_cold_seconds"]}


def bench_fig07_set(scale: int, repeat: int) -> tuple[dict, list]:
    points, problems = [], []
    for issue in ISSUE_RATES:
        cfg = unlimited_machine(issue_width=issue)
        for name in ALL_BENCHMARKS:
            module = build_workload(name, scale=scale)
            out = compile_module(module, cfg)
            point, probs = bench_point(out.program, cfg,
                                       f"{name}@{issue}-issue", repeat)
            points.append(point)
            problems.extend(probs)
    summary = {
        "points": points,
        "instructions": sum(p["instructions"] for p in points),
        **harness.totals(points, "ref", "fast", "fast_cold"),
        **_codegen_totals(points),
    }
    return _rates(summary), problems


def _codegen_configs(kind: str) -> dict:
    """The codegen section's machines at issue rate 4.  ``rc_connect1`` is
    compared for parity only; it is the machine whose generated interlocks
    still fold map-ready times."""
    return {"no_rc": harness.core_machine(None),
            "rc": harness.core_machine(kind),
            "rc_connect1": harness.core_machine(kind, connect_latency=1)}


def bench_codegen(scale: int, repeat: int) -> tuple[dict, list]:
    """Generated-source size and generate/``compile()`` seconds per
    benchmark, without and with RC, each point parity-checked cold."""
    sides = {"no_rc": [], "rc": []}
    problems = []
    parity_points = 0
    for name in ALL_BENCHMARKS:
        module = build_workload(name, scale=scale)
        for side, cfg in _codegen_configs(workload(name).kind).items():
            program = compile_module(module, cfg).program
            *_, probs = _cold_parity(program, cfg, f"{name} {side}")
            problems.extend(probs)
            parity_points += 1
            if side in sides:
                sides[side].append({"benchmark": name,
                                    **_codegen_cost(program, cfg, repeat)})
    summary = {side: {"points": points, **_codegen_totals(points)}
               for side, points in sides.items()}
    summary["parity_points"] = parity_points
    return summary, problems


def _micro_program(iterations: int):
    """A tight arithmetic loop: one self-loop block, unmapped operands."""
    r = lambda n: PhysReg(RClass.INT, n)  # noqa: E731
    body = [
        Instr(Opcode.LI, dest=r(5), imm=0),          # acc
        Instr(Opcode.LI, dest=r(6), imm=0),          # i
        # loop:
        Instr(Opcode.ADD, dest=r(7), srcs=(r(6), Imm(3))),
        Instr(Opcode.MUL, dest=r(8), srcs=(r(7), r(7))),
        Instr(Opcode.XOR, dest=r(9), srcs=(r(8), Imm(0x55))),
        Instr(Opcode.ADD, dest=r(5), srcs=(r(5), r(9))),
        Instr(Opcode.ADD, dest=r(10), srcs=(r(6), Imm(1))),
        Instr(Opcode.SUB, dest=r(11), srcs=(r(10), r(7))),
        Instr(Opcode.ADD, dest=r(5), srcs=(r(5), r(11))),
        Instr(Opcode.ADD, dest=r(6), srcs=(r(6), Imm(1))),
        Instr(Opcode.BLT, srcs=(r(6), Imm(iterations)), label="loop"),
        Instr(Opcode.STORE, srcs=(r(5), Imm(0)), imm=100),
        Instr(Opcode.HALT),
    ]
    return assemble(body, labels={"loop": 2})


def bench_micro(repeat: int) -> tuple[dict, list]:
    program = _micro_program(50_000)
    cfg = unlimited_machine(issue_width=4)
    return bench_point(program, cfg, "microbench", repeat)


def _sweep_configs(rc_class):
    return [paper_machine(issue_width=width, rc_class=rc_class,
                          rc_model=model, extra_decode_stage=extra)
            for model in RCModel for width in ISSUE_RATES
            for extra in (False, True)]


def bench_sweep_batched(scale: int, repeat: int) -> tuple[dict, list]:
    """Per-config fast runs vs one lockstep gang, per benchmark."""
    points, problems = [], []
    for name in ALL_BENCHMARKS:
        rc_class = RClass.FP if workload(name).kind == "fp" else RClass.INT
        module = build_workload(name, scale=scale)
        program = compile_module(
            module, paper_machine(issue_width=1, rc_class=rc_class)).program
        configs = _sweep_configs(rc_class)

        singles = [FastSimulator(program, cfg).run() for cfg in configs]
        gang = simulate_gang(program, configs)
        for cfg, single, slot in zip(configs, singles, gang):
            label = (f"{name} w{cfg.issue_width} m{cfg.rc_model.value}"
                     f" x{int(cfg.extra_decode_stage)}")
            if slot.error is not None:
                problems.append(f"{label}: gang slot errored: {slot.error}")
            else:
                problems.extend(_check_parity(single, slot.result, label))

        def fresh():
            return copy.deepcopy(program)

        fast = harness.best(
            lambda prog: [FastSimulator(prog, cfg).run() for cfg in configs],
            repeat, fresh)
        batched = harness.best(lambda prog: simulate_gang(prog, configs),
                               repeat, fresh)
        points.append({
            "benchmark": name,
            "configs": len(configs),
            "instructions": sum(s.stats.instructions for s in singles),
            **harness.fields("fast", fast),
            **harness.fields("batched", batched),
            "speedup": fast.ref / batched.ref,
        })

    totals = harness.totals(points, "fast", "batched")
    configs = sum(p["configs"] for p in points)
    summary = {
        "points": points,
        "configs_per_benchmark": points[0]["configs"],
        "instructions": sum(p["instructions"] for p in points),
        **totals,
        "fast_points_per_sec": configs / totals["fast_seconds"],
        "batched_points_per_sec": configs / totals["batched_seconds"],
        "speedup": totals["fast_seconds"] / totals["batched_seconds"],
    }
    return summary, problems


#: The tier section's short-program group: generated fuzz programs.
TIER_FUZZ_SEEDS = range(2000, 2080)
#: The job service's cycle budget for fuzz-asm jobs.
TIER_FUZZ_BUDGET = 50_000


def _tier_groups(scale: int) -> dict[str, list]:
    """(label, program, config) triples of the tier section, per group."""
    fuzz = []
    for seed in TIER_FUZZ_SEEDS:
        gen = gen_machine_program(seed)
        configs = fuzz_configs(gen.has_connects)
        fuzz.append((f"fuzz{seed}", gen.program, dataclasses.replace(
            configs[seed % len(configs)], max_cycles=TIER_FUZZ_BUDGET)))
    cfg = unlimited_machine(issue_width=4)
    fig07 = [(name, compile_module(build_workload(name, scale=scale),
                                   cfg).program, cfg)
             for name in ALL_BENCHMARKS]
    return {"fuzz": fuzz, "fig07": fig07}


def _final(res):
    """A run's full observable outcome, or its error's type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.stats, res.halted, res.state.memory, res.state.int_regs,
            res.state.fp_regs)


def _attempt(run):
    """The result of ``run()``, or the exception it raised."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - a faulting run is an outcome
        return exc


def _compiled_leaders(program, config) -> set[int]:
    """Leaders of the blocks the runs of *program* on *config* compiled."""
    entry = _code_cache.get(id(program))
    code = entry[1].get(repr(config)) if entry else None
    if code is None:
        return set()
    return {lead for lead, fast in code.fast.items() if fast is not None}


#: The tier section's engines, each run cold on its own program copy.
TIER_ENGINES = {
    "ref": lambda p, c: Simulator(p, c).run(),
    "eager": lambda p, c: FastSimulator(p, c).run(),
    "simulate": lambda p, c: simulate(p, c, engine="fast"),
}


def bench_tier(scale: int, repeat: int) -> tuple[dict, list]:
    """Reference vs eager fast engine vs ``simulate()``, per program
    group: seconds, generated lines and ``compile()`` seconds."""
    groups, problems = {}, []
    for group, triples in _tier_groups(scale).items():
        points = []
        for label, program, cfg in triples:
            point = {"label": label, "static": len(program.instrs)}
            want = None
            for name, run in TIER_ENGINES.items():
                prog = copy.deepcopy(program)
                res = _attempt(lambda: run(prog, cfg))
                if want is None:
                    want = _final(res)
                elif _final(res) != want:
                    problems.append(f"tier {label}: {name} diverges from "
                                    f"the reference")
                if name == "simulate" and not isinstance(res, Exception):
                    point.update(instructions=res.stats.instructions,
                                 cycles=res.stats.cycles, engine=res.engine,
                                 handoff_cycle=res.handoff_cycle)
                leaders = _compiled_leaders(prog, cfg)
                cost = (_codegen_cost(prog, cfg, repeat, leaders) if leaders
                        else dict.fromkeys(("source_lines", "compile_seconds",
                                            "compile_host_seconds"), 0))
                point.update(harness.fields(name, harness.best(
                    lambda p, r=run: _attempt(lambda: r(p, cfg)), repeat,
                    lambda: copy.deepcopy(program))))
                point[f"{name}_lines"] = cost["source_lines"]
                point[f"{name}_compile_seconds"] = cost["compile_seconds"]
                point[f"{name}_compile_host_seconds"] = (
                    cost["compile_host_seconds"])
            points.append(point)
        totals = harness.totals(points, *TIER_ENGINES,
                                *(f"{name}_compile" for name in TIER_ENGINES))
        groups[group] = {
            "points": points,
            "programs": len(points),
            **totals,
            **{f"{name}_lines": sum(p[f"{name}_lines"] for p in points)
               for name in TIER_ENGINES},
            "simulate_codegen_runs": sum(p["simulate_lines"] > 0
                                         for p in points),
            "simulate_vs_best": totals["simulate_seconds"]
            / min(totals["ref_seconds"], totals["eager_seconds"]),
        }
    return groups, problems


def table(report: dict) -> tuple[list, list]:
    rows = []

    def add(section, engine, seconds, base=None, lines="", compile_s=None):
        rows.append([section, engine, f"{seconds:.3f}",
                     f"{base / seconds:.2f}x" if base else "", lines,
                     "" if compile_s is None else f"{compile_s:.3f}"])

    f, m = report["fig07_set"], report["microbench"]
    add(f"fig07 set, {len(f['points'])} runs", "reference",
        f["ref_seconds"], f["ref_seconds"])
    add("", "fast, warm", f["fast_seconds"], f["ref_seconds"])
    add("", "fast, cold", f["fast_cold_seconds"], f["ref_seconds"],
        f["source_lines"], f["compile_seconds"])
    add("microbench", "reference", m["ref_seconds"], m["ref_seconds"])
    add("", "fast, warm", m["fast_seconds"], m["ref_seconds"],
        m["source_lines"], m["compile_seconds"])
    s = report["sweep_batched"]
    add(f"gang sweep, {len(s['points'])} x {s['configs_per_benchmark']} "
        f"configs", "fast, per config", s["fast_seconds"], s["fast_seconds"])
    add("", "simulate_gang", s["batched_seconds"], s["fast_seconds"])
    for side, label in (("no_rc", "no RC"), ("rc", "RC")):
        c = report["codegen"][side]
        add(f"codegen, {len(c['points'])} benchmarks, {label}",
            "generate only", c["generate_seconds"], None, c["source_lines"],
            c["compile_seconds"])
    for group, g in report["tier"].items():
        for name, label in (("ref", "reference"), ("eager", "fast, eager"),
                            ("simulate", "simulate()")):
            add(f"tier {group}, {g['programs']} programs"
                if name == "ref" else "", label, g[f"{name}_seconds"],
                g["ref_seconds"], g[f"{name}_lines"],
                g[f"{name}_compile_seconds"])
    return (["section", "engine", "reference s", "speedup",
             "generated lines", "compile() s"], rows)


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, "repeat", "scale")
    body, problems = {}, []
    for section, bench in (
            ("fig07_set", lambda: bench_fig07_set(args.scale, args.repeat)),
            ("microbench", lambda: bench_micro(args.repeat)),
            ("sweep_batched", lambda: bench_sweep_batched(args.scale,
                                                          args.repeat)),
            ("codegen", lambda: bench_codegen(args.scale, args.repeat)),
            ("tier", lambda: bench_tier(args.scale, args.repeat))):
        body[section], probs = bench()
        problems.extend(probs)
    return harness.finish(
        args, body, problems, table,
        "parity: OK (every point compared on stats, memory, registers)")


if __name__ == "__main__":
    sys.exit(main())
