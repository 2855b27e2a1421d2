"""Compile-pipeline speed benchmark: reference profiling interpreter vs the
specializing fast interpreter (:mod:`repro.ir.fastinterp`).

Measures end-to-end :func:`~repro.compiler.compile_module` wall time for
every benchmark at scale ``REPRO_SCALE`` (default 1) on the default paper
machine, under two engine settings:

* **reference** — ``CompileOptions(ir_engine="reference")``: the original
  tree-walking profiling interpreter;
* **fast** — ``CompileOptions(ir_engine="fast")``: the specializing
  interpreter (the default).

Methodology: each (benchmark, engine) point is compiled once cold, then
``--repeat`` more times with best-of taken as the warm number.  A separate
metrics compile per engine collects the per-pass breakdown (reusing
:class:`~repro.observe.passes.PassMetrics`); it is never the timed run,
since metrics compiles snapshot IR around every stage.  The default
machine has no extended registers, so a third metrics compile targets the
connect-optimizer benchmark's machine (16 integer / 16 FP core registers,
RC on the benchmark's hot class, model 3) and records the per-pass table
with the ``connect-opt`` stage.

Three hard parity gates, checked on every benchmark on both machines:

* the fast engine's :class:`~repro.ir.interp.Profile` equals the
  reference engine's (block, branch, and call counts);
* the emitted assembly (``format_listing``) is byte-identical between the
  two engines;
* the assembly :func:`~repro.compiler.compile_back` builds from one
  :class:`~repro.compiler.FrontEnd` shared by both machines is
  byte-identical to :func:`~repro.compiler.compile_module`'s.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py [-o BENCH_compile.json]

Exits non-zero on any parity mismatch.  Speedup numbers are informational
(CI uploads them as an artifact); parity is the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_connectopt import _config as _connectopt_config  # noqa: E402
from repro.compiler import (CompileOptions, compile_back,  # noqa: E402
                            compile_front, compile_module)
from repro.isa.asmfmt import format_listing  # noqa: E402
from repro.observe import PassMetrics  # noqa: E402
from repro.sim import MachineConfig  # noqa: E402
from repro.workloads import (ALL_BENCHMARKS, build_workload,  # noqa: E402
                             workload)


def _rc_config(name: str) -> MachineConfig:
    """The connect-optimizer benchmark's machine for *name*: model 3 at
    the paper machine's default issue width."""
    return _connectopt_config(workload(name).kind, model=3, width=4)


def _options(engine: str) -> CompileOptions:
    return CompileOptions(ir_engine=engine)


def _time_compile(module, config, engine: str, repeat: int) -> tuple[float, float]:
    """(cold_seconds, warm_seconds) for one benchmark under one engine."""
    t0 = time.perf_counter()
    compile_module(module, config, _options(engine))
    cold = time.perf_counter() - t0
    warm = cold
    for _ in range(repeat):
        t0 = time.perf_counter()
        compile_module(module, config, _options(engine))
        warm = min(warm, time.perf_counter() - t0)
    return cold, warm


def _pass_rows(module, config, engine: str) -> list[dict]:
    metrics = PassMetrics()
    compile_module(module, config, _options(engine), metrics=metrics)
    return metrics.to_rows()


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
    rc_config = _rc_config(name)
    front = compile_front(module, _options("fast"))
    problems, instructions = _parity(name, module, config, front)
    problems += _parity(f"{name} (RC machine)", module, rc_config, front)[0]

    ref_cold, ref_warm = _time_compile(module, config, "reference", repeat)
    fast_cold, fast_warm = _time_compile(module, config, "fast", repeat)

    point = {
        "benchmark": name,
        "functions": len(module.functions),
        "instructions": instructions,
        "ref_cold_seconds": ref_cold,
        "ref_warm_seconds": ref_warm,
        "fast_cold_seconds": fast_cold,
        "fast_warm_seconds": fast_warm,
        "speedup_cold": ref_cold / fast_cold,
        "speedup_warm": ref_warm / fast_warm,
        "passes_reference": _pass_rows(module, config, "reference"),
        "passes_fast": _pass_rows(module, config, "fast"),
        "passes_rc": _pass_rows(module, rc_config, "fast"),
    }
    return point, problems


def _aggregate_passes(points: list[dict], key: str) -> dict[str, float]:
    """Summed per-pass seconds across all benchmarks for one engine."""
    totals: dict[str, float] = {}
    for point in points:
        for row in point[key]:
            totals[row["pass"]] = totals.get(row["pass"], 0.0) + row["seconds"]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here "
                             "(default: stdout only)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per engine (best-of)")
    parser.add_argument("--scale", type=int,
                        default=int(os.environ.get("REPRO_SCALE", "1")))
    args = parser.parse_args(argv)

    points, problems = [], []
    for name in ALL_BENCHMARKS:
        point, probs = bench_benchmark(name, args.scale, args.repeat)
        points.append(point)
        problems.extend(probs)

    ref_cold = sum(p["ref_cold_seconds"] for p in points)
    ref_warm = sum(p["ref_warm_seconds"] for p in points)
    fast_cold = sum(p["fast_cold_seconds"] for p in points)
    fast_warm = sum(p["fast_warm_seconds"] for p in points)
    report = {
        "scale": args.scale,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "parity_failures": problems,
        "ref_cold_seconds": ref_cold,
        "ref_warm_seconds": ref_warm,
        "fast_cold_seconds": fast_cold,
        "fast_warm_seconds": fast_warm,
        "speedup_cold": ref_cold / fast_cold,
        "speedup_warm": ref_warm / fast_warm,
        "pass_seconds_reference": _aggregate_passes(points,
                                                    "passes_reference"),
        "pass_seconds_fast": _aggregate_passes(points, "passes_fast"),
        "pass_seconds_rc": _aggregate_passes(points, "passes_rc"),
        "points": points,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")

    print(f"compile set ({len(points)} benchmarks, scale {args.scale}): "
          f"ref {ref_warm:.3f}s warm / {ref_cold:.3f}s cold, "
          f"fast {fast_warm:.3f}s warm / {fast_cold:.3f}s cold "
          f"-> {report['speedup_warm']:.2f}x warm, "
          f"{report['speedup_cold']:.2f}x cold")
    slowest = max(points, key=lambda p: p["ref_warm_seconds"])
    print(f"slowest     {slowest['benchmark']}: "
          f"ref {slowest['ref_warm_seconds']:.3f}s, "
          f"fast {slowest['fast_warm_seconds']:.3f}s "
          f"({slowest['speedup_warm']:.2f}x)")
    for key, label in (("reference", "reference"), ("fast", "fast"),
                       ("rc", "fast, RC machine")):
        rows = report[f"pass_seconds_{key}"]
        top = sorted(rows.items(), key=lambda kv: -kv[1])[:4]
        shown = ", ".join(f"{name} {secs * 1e3:.0f}ms" for name, secs in top)
        print(f"passes ({label}): {shown}")
    if problems:
        print(f"PARITY FAILURES ({len(problems)}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("parity: OK (profiles equal, assembly byte-identical across "
          "engines and from a shared front end, default and RC machines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
