"""Compile-pipeline benchmark: reference profiling interpreter vs the
specializing fast interpreter (:mod:`repro.ir.fastinterp`).

Times :func:`~repro.compiler.compile_module` for every benchmark at
``--scale`` on the default paper machine under
``CompileOptions(ir_engine="reference")``, the tree-walking profiling
interpreter, and ``ir_engine="fast"``, the default.  Each (benchmark,
engine) point is compiled once cold, then ``--repeat`` more times; warm is
the best of all.  Separate metrics compiles record the per-pass table
(:class:`~repro.observe.passes.PassMetrics`) per engine, and on the 16/16
RC machine of ``bench_connectopt.py`` at model 3, width 4, where the
connect optimizer runs (``pass_seconds_rc``).

Three parity gates, on every benchmark on both machines: the fast engine's
:class:`~repro.ir.interp.Profile` equals the reference engine's; the
emitted assembly is byte-identical between the engines; and the assembly
:func:`~repro.compiler.compile_back` builds from one shared
:class:`~repro.compiler.FrontEnd` is byte-identical to
:func:`~repro.compiler.compile_module`'s.  Timings are informational.

Usage::

    python benchmarks/bench_compile.py [-o BENCH_compile.json] [--repeat N]
"""

from __future__ import annotations

import sys

import harness
from repro.compiler import (CompileOptions, compile_back, compile_front,
                            compile_module)
from repro.isa.asmfmt import format_listing
from repro.observe import PassMetrics
from repro.sim import MachineConfig
from repro.workloads import ALL_BENCHMARKS, build_workload, workload

ENGINES = {"ref": "reference", "fast": "fast"}


def _options(engine: str) -> CompileOptions:
    return CompileOptions(ir_engine=engine)


def _time_compile(module, config, engine: str, repeat: int) -> dict:
    """Cold and warm (best-of) compile seconds for one engine."""
    def run():
        compile_module(module, config, _options(ENGINES[engine]))
    cold = harness.once(run)[1]
    return {**harness.fields(f"{engine}_cold", cold),
            **harness.fields(f"{engine}_warm",
                             min(cold, harness.best(run, repeat)))}


def _pass_rows(module, config, engine: str) -> list[dict]:
    """Per-pass rows of one metrics compile, in host and reference
    seconds (host seconds scaled by the compile's own factor)."""
    metrics = PassMetrics()
    timing = harness.once(lambda: compile_module(
        module, config, _options(engine), metrics=metrics))[1]
    factor = timing.ref / timing.host
    return [{**row, "seconds": row["seconds"] * factor,
             "host_seconds": row["seconds"]} for row in metrics.to_rows()]


def _parity(where: str, module, config, front) -> tuple[list[str], int]:
    """Engine invariance of the program emitted for *config*, and its
    invariance under compiling from the shared fast-engine *front* end:
    (problems, emitted instruction count)."""
    ref_out = compile_module(module, config, _options("reference"))
    fast_out = compile_module(module, config, _options("fast"))
    ref_asm = format_listing(ref_out.program.instrs)
    fast_asm = format_listing(fast_out.program.instrs)
    problems: list[str] = []
    if ref_out.profile != fast_out.profile:
        problems.append(f"{where}: fast-engine profile diverges from "
                        f"reference")
    if ref_asm != fast_asm:
        problems.append(f"{where}: assembly differs between IR engines")
    shared = compile_back(front, config, _options("fast"))
    if format_listing(shared.program.instrs) != fast_asm:
        problems.append(f"{where}: assembly from a shared front end "
                        f"differs from compile_module's")
    return problems, len(ref_out.program)


def bench_benchmark(name: str, scale: int, repeat: int) -> tuple[dict, list]:
    module = build_workload(name, scale=scale)
    config = MachineConfig()
    rc_config = harness.core_machine(workload(name).kind)
    front = compile_front(module, _options("fast"))
    problems, instructions = _parity(name, module, config, front)
    problems += _parity(f"{name} (RC machine)", module, rc_config, front)[0]
    point = {
        "benchmark": name,
        "functions": len(module.functions),
        "instructions": instructions,
        **_time_compile(module, config, "ref", repeat),
        **_time_compile(module, config, "fast", repeat),
        "passes_reference": _pass_rows(module, config, "reference"),
        "passes_fast": _pass_rows(module, config, "fast"),
        "passes_rc": _pass_rows(module, rc_config, "fast"),
    }
    return _with_speedups(point), problems


def _with_speedups(times: dict) -> dict:
    for temp in ("cold", "warm"):
        times[f"speedup_{temp}"] = (times[f"ref_{temp}_seconds"]
                                    / times[f"fast_{temp}_seconds"])
    return times


def _aggregate_passes(points: list[dict], key: str, unit: str) -> dict:
    """Summed per-pass seconds across all benchmarks for one engine."""
    totals: dict[str, float] = {}
    for point in points:
        for row in point[key]:
            totals[row["pass"]] = totals.get(row["pass"], 0.0) + row[unit]
    return totals


def table(report: dict) -> tuple[list, list]:
    passes = {engine: report[f"pass_seconds_{engine}"]
              for engine in ("reference", "fast", "rc")}
    rows = [[f"compile, {temp}", f"{report[f'ref_{temp}_seconds']:.3f}",
             f"{report[f'fast_{temp}_seconds']:.3f}",
             f"{report[f'speedup_{temp}']:.2f}x"] for temp in ("warm", "cold")]
    for stage in ("profile", "optimize"):
        ref, fast = passes["reference"][stage], passes["fast"][stage]
        rows.append([f"{stage} pass", f"{ref:.3f}", f"{fast:.3f}",
                     f"{ref / fast:.2f}x"])
    rows.append(["connect-opt pass, RC machine", "",
                 f"{passes['rc']['connect-opt']:.3f}", ""])
    return ([f"{len(report['points'])} benchmarks (reference s)",
             "reference IR engine", "fast IR engine", "speedup"], rows)


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, "repeat", "scale")
    points, problems = [], []
    for name in ALL_BENCHMARKS:
        point, probs = bench_benchmark(name, args.scale, args.repeat)
        points.append(point)
        problems.extend(probs)
    body = _with_speedups(harness.totals(points, "ref_cold", "ref_warm",
                                         "fast_cold", "fast_warm"))
    for key in ("reference", "fast", "rc"):
        for unit, prefix in (("seconds", "pass_seconds"),
                             ("host_seconds", "pass_host_seconds")):
            body[f"{prefix}_{key}"] = _aggregate_passes(points,
                                                        f"passes_{key}", unit)
    body["points"] = points
    return harness.finish(
        args, body, problems, table,
        "parity: OK (profiles equal, assembly byte-identical across engines "
        "and from a shared front end, default and RC machines)")


if __name__ == "__main__":
    sys.exit(main())
