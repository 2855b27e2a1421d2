"""Simulation-speed benchmark: reference engine vs the specializing fast
engine (:mod:`repro.sim.fastpath`).

Measures instructions/second for both engines over

* the **fig07 set**: every benchmark at scale ``REPRO_SCALE`` (default 1)
  on the unlimited-register machine at issue rates 1/2/4/8 — the exact
  sweep behind Figure 7; and
* a **microbenchmark**: a tight straight-line arithmetic loop that stays
  on the fast engine's bundle-replay path; and
* the **tier** section: the crossover behind ``TIER_UP_CYCLES``.  Two
  groups, one config per program: 80 ``gen_machine_program`` programs
  (seeds 2000-2079, each on one ``fuzz_configs`` config; the job
  service's short traffic) and the 12 fig07 benchmarks on the
  unlimited-register machine at issue rate 4 (long runs).  Each program
  runs cold on the reference engine, the fast engine (code generation +
  run) and the tiered default path of ``simulate()``, on a fresh copy of
  the program per run so no engine reuses generated code.  The tiered
  outcome must equal the reference's: error type and message, or full
  stats, halting state, memory and both register files.

Methodology: each (benchmark, config) point is compiled once; both engines
then get one warmup run — whose results are compared field-by-field, the
hard parity gate — followed by ``--repeat`` timed runs each, best-of taken.
Each point also runs both engines once with ``max_cycles`` one below the
reference cycle count, where the run's tail is past every block's cycle
gate and executes the fast engine's checked blocks: the two must fail with
the same error type and message, or agree on the full stats.
The fast engine's warmup also populates its per-program code cache, so the
timed runs measure steady-state engine throughput; the cold first-run time
(including code generation) is recorded separately for transparency.

Usage::

    PYTHONPATH=src python benchmarks/bench_simspeed.py [-o BENCH_simspeed.json]

Exits non-zero on any engine mismatch.  Speedup numbers are informational
(CI uploads them as an artifact); parity is the gate.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import compile_module  # noqa: E402
from repro.isa import Imm, Instr, Opcode, PhysReg, RClass  # noqa: E402
from repro.rc import RCModel  # noqa: E402
from repro.fuzz import fuzz_configs, gen_machine_program  # noqa: E402
from repro.sim import (  # noqa: E402
    BatchedSimulator,
    FastSimulator,
    Simulator,
    assemble,
    paper_machine,
    simulate,
    unlimited_machine,
)
from repro.workloads import ALL_BENCHMARKS, build_workload, workload  # noqa: E402

ISSUE_RATES = (1, 2, 4, 8)

#: The batched-sweep matrix per benchmark: every RC reset model × issue
#: width × extra-decode toggle — 40 configs, one compiled program, the
#: shape of a figure sweep.
SWEEP_WIDTHS = (1, 2, 4, 8)


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


def _time_engine(make_sim, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        sim = make_sim()
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_point(program, config, label: str, repeat: int) -> tuple[dict, list]:
    # Warmup + parity gate.  The fast warmup is timed: it pays the one-time
    # specialization (codegen + compile) cost, reported as "cold".
    t0 = time.perf_counter()
    ref_res = Simulator(program, config).run()
    ref_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_sim = FastSimulator(program, config)
    fast_res = fast_sim.run()
    fast_cold = time.perf_counter() - t0
    problems = _check_parity(ref_res, fast_res, label)
    if not fast_sim.ran_fastpath:
        problems.append(f"{label}: fast engine unexpectedly fell back")
    problems.extend(_check_budget_parity(program, config,
                                         ref_res.stats.cycles, label))

    insns = ref_res.stats.instructions
    ref_s = _time_engine(lambda: Simulator(program, config), repeat)
    fast_s = _time_engine(lambda: FastSimulator(program, config), repeat)
    point = {
        "label": label,
        "instructions": insns,
        "cycles": ref_res.stats.cycles,
        "ref_seconds": ref_s,
        "fast_seconds": fast_s,
        "ref_cold_seconds": ref_cold,
        "fast_cold_seconds": fast_cold,
        "ref_insns_per_sec": insns / ref_s,
        "fast_insns_per_sec": insns / fast_s,
        "speedup": ref_s / fast_s,
    }
    return point, problems


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
    ref_s = sum(p["ref_seconds"] for p in points)
    fast_s = sum(p["fast_seconds"] for p in points)
    cold_s = sum(p["fast_cold_seconds"] for p in points)
    insns = sum(p["instructions"] for p in points)
    summary = {
        "points": points,
        "instructions": insns,
        "ref_seconds": ref_s,
        "fast_seconds": fast_s,
        "fast_cold_seconds": cold_s,
        "ref_insns_per_sec": insns / ref_s,
        "fast_insns_per_sec": insns / fast_s,
        "speedup": ref_s / fast_s,
        "cold_speedup": ref_s / cold_s,
    }
    return summary, problems


def _micro_program(iterations: int):
    """A tight arithmetic loop: the bundle-replay steady state."""
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
            for model in RCModel for width in SWEEP_WIDTHS
            for extra in (False, True)]


def bench_sweep_batched(scale: int, repeat: int) -> tuple[dict, list]:
    """Sweep throughput: per-config fast runs vs one lockstep gang.

    Per benchmark, one compiled program sweeps the full model × width ×
    extra-decode matrix (40 configs).  The baseline is the current fast
    path, one run per config; the gang simulates all 40 in one pass.  Every
    gang slot is compared field-by-field against its single-config fast run
    — the parity gate.

    These gangs span 5 RC models on one compiled program, a shape the sweep
    executor never issues (its compile key includes the model, so its gangs
    have one model class).  Each of the 5 class leaders here pays its own
    code generation.
    """
    points, problems = [], []
    for name in ALL_BENCHMARKS:
        kind = workload(name).kind
        rc_class = RClass.INT if kind == "int" else RClass.FP
        module = build_workload(name, scale=scale)
        program = compile_module(
            module, paper_machine(issue_width=1, rc_class=rc_class)).program
        configs = _sweep_configs(rc_class)

        # Warmup + parity gate: per-slot comparison of one gang against
        # single fast runs.
        singles = [FastSimulator(program, cfg).run() for cfg in configs]
        gang = BatchedSimulator(program, configs).run()
        for cfg, single, slot in zip(configs, singles, gang):
            label = (f"{name} w{cfg.issue_width} m{cfg.rc_model.value}"
                     f" x{int(cfg.extra_decode_stage)}")
            if slot.error is not None:
                problems.append(f"{label}: gang slot errored: {slot.error}")
            else:
                problems.extend(_check_parity(single, slot.result, label))

        # Timed passes run against a fresh deepcopy of the program so each
        # pass pays exactly what a cache-miss sweep pays: the fast engine's
        # codegen cache is keyed on program identity, so reusing the warmed
        # object would measure steady-state re-simulation of identical
        # points — a workload the sweep executor never issues.
        def fast_pass():
            prog = copy.deepcopy(program)
            t0 = time.perf_counter()
            for cfg in configs:
                FastSimulator(prog, cfg).run()
            return time.perf_counter() - t0

        fast_s = min(fast_pass() for _ in range(repeat))

        def gang_pass():
            prog = copy.deepcopy(program)
            t0 = time.perf_counter()
            BatchedSimulator(prog, configs).run()
            return time.perf_counter() - t0

        gang_s = min(gang_pass() for _ in range(repeat))
        insns = sum(s.stats.instructions for s in singles)
        points.append({
            "benchmark": name,
            "configs": len(configs),
            "instructions": insns,
            "fast_seconds": fast_s,
            "batched_seconds": gang_s,
            "speedup": fast_s / gang_s,
        })

    fast_s = sum(p["fast_seconds"] for p in points)
    gang_s = sum(p["batched_seconds"] for p in points)
    insns = sum(p["instructions"] for p in points)
    summary = {
        "points": points,
        "configs_per_benchmark": len(_sweep_configs(RClass.INT)),
        "instructions": insns,
        "fast_seconds": fast_s,
        "batched_seconds": gang_s,
        "fast_points_per_sec": len(points) * 40 / fast_s,
        "batched_points_per_sec": len(points) * 40 / gang_s,
        "speedup": fast_s / gang_s,
        "parity_failures": len(problems),
    }
    return summary, problems


#: The tier section's short-program group: generated fuzz programs.
TIER_FUZZ_SEEDS = range(2000, 2080)


def _tier_groups(scale: int) -> dict[str, list]:
    """(label, program, config) triples of the tier section, per group."""
    fuzz = []
    for seed in TIER_FUZZ_SEEDS:
        gen = gen_machine_program(seed)
        configs = fuzz_configs(gen.has_connects)
        fuzz.append((f"fuzz{seed}", gen.program,
                     configs[seed % len(configs)]))
    cfg = unlimited_machine(issue_width=4)
    fig07 = [(name, compile_module(build_workload(name, scale=scale),
                                   cfg).program, cfg)
             for name in ALL_BENCHMARKS]
    return {"fuzz": fuzz, "fig07": fig07}


def _final(run):
    """A run's full observable outcome, or its error's type and message."""
    try:
        res = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (res.stats, res.halted, res.state.memory, res.state.int_regs,
            res.state.fp_regs)


def _time_cold(run, program, repeat: int) -> float:
    """Best-of-*repeat* time of ``run(copy)``, each on a fresh copy of
    *program* so the fast engine's per-program code cache never hits."""
    best = float("inf")
    for _ in range(repeat):
        prog = copy.deepcopy(program)
        t0 = time.perf_counter()
        try:
            run(prog)
        except Exception:  # noqa: BLE001 - a faulting run is timed too
            pass
        best = min(best, time.perf_counter() - t0)
    return best


def bench_tier(scale: int, repeat: int) -> tuple[dict, list]:
    """Reference vs fast (codegen + run) vs tiered, per program group."""
    groups, problems = {}, []
    for group, triples in _tier_groups(scale).items():
        points = []
        for label, program, cfg in triples:
            engines = {
                "ref": lambda p, c=cfg: Simulator(p, c).run(),
                "fast": lambda p, c=cfg: FastSimulator(p, c).run(),
                "tiered": lambda p, c=cfg: simulate(p, c, engine="fast"),
            }
            want = _final(lambda: engines["ref"](program))
            tiered = simulate(copy.deepcopy(program), cfg, engine="fast")
            if _final(lambda: engines["tiered"](
                    copy.deepcopy(program))) != want:
                problems.append(f"tier {label}: tiered run diverges from "
                                f"the reference")
            point = {"label": label, "static": len(program.instrs),
                     "instructions": tiered.stats.instructions,
                     "cycles": tiered.stats.cycles,
                     "engine": tiered.engine,
                     "handoff_cycle": tiered.handoff_cycle}
            for name, run in engines.items():
                point[f"{name}_seconds"] = _time_cold(run, program, repeat)
            points.append(point)
        totals = {f"{name}_seconds": sum(p[f"{name}_seconds"]
                                         for p in points)
                  for name in ("ref", "fast", "tiered")}
        ratios = sorted(p["instructions"] / p["static"] for p in points)
        groups[group] = {
            "points": points,
            "programs": len(points),
            **totals,
            "no_codegen_runs": sum(p["engine"] == "reference"
                                   for p in points),
            "median_dynamic_per_static": ratios[len(ratios) // 2],
            "tiered_vs_best": totals["tiered_seconds"]
            / min(totals["ref_seconds"], totals["fast_seconds"]),
        }
    return groups, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here "
                             "(default: stdout only)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per engine (best-of)")
    parser.add_argument("--scale", type=int,
                        default=int(os.environ.get("REPRO_SCALE", "1")))
    parser.add_argument("--min-sweep-speedup", type=float, default=0.0,
                        help="fail unless the batched sweep speedup reaches "
                             "this factor (0 = informational)")
    args = parser.parse_args(argv)

    fig07, problems = bench_fig07_set(args.scale, args.repeat)
    micro, micro_problems = bench_micro(args.repeat)
    problems.extend(micro_problems)
    sweep, sweep_problems = bench_sweep_batched(args.scale, args.repeat)
    problems.extend(sweep_problems)
    tier, tier_problems = bench_tier(args.scale, args.repeat)
    problems.extend(tier_problems)

    report = {
        "scale": args.scale,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "parity_failures": problems,
        "fig07_set": fig07,
        "microbench": micro,
        "sweep_batched": sweep,
        "tier": tier,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    print(f"fig07 set  ({len(fig07['points'])} points, "
          f"{fig07['instructions']} insns): "
          f"ref {fig07['ref_insns_per_sec']:.0f} insns/s, "
          f"fast {fig07['fast_insns_per_sec']:.0f} insns/s "
          f"-> {fig07['speedup']:.2f}x warm, "
          f"{fig07['cold_speedup']:.2f}x cold")
    print(f"microbench ({micro['instructions']} insns): "
          f"ref {micro['ref_insns_per_sec']:.0f} insns/s, "
          f"fast {micro['fast_insns_per_sec']:.0f} insns/s "
          f"-> {micro['speedup']:.2f}x")
    print(f"batched sweep ({len(sweep['points'])} benchmarks x "
          f"{sweep['configs_per_benchmark']} configs): "
          f"fast {sweep['fast_points_per_sec']:.1f} points/s, "
          f"batched {sweep['batched_points_per_sec']:.1f} points/s "
          f"-> {sweep['speedup']:.2f}x")
    for group, g in tier.items():
        print(f"tier {group} ({g['programs']} programs, "
              f"{g['no_codegen_runs']} without codegen): "
              f"ref {g['ref_seconds']:.3f}s, fast {g['fast_seconds']:.3f}s, "
              f"tiered {g['tiered_seconds']:.3f}s "
              f"({g['tiered_vs_best']:.2f}x the faster engine)")
    if problems:
        print(f"PARITY FAILURES ({len(problems)}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("parity: OK (every point compared on stats, memory, registers)")
    if args.min_sweep_speedup and sweep["speedup"] < args.min_sweep_speedup:
        print(f"FAIL: batched sweep speedup {sweep['speedup']:.2f}x below "
              f"the {args.min_sweep_speedup:.1f}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
