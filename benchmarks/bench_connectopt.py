"""Connect-optimizer benchmark: static/dynamic connect deltas under parity.

For every benchmark x RC model (1-5) x issue width (1/2/4/8) on a 16-core
register file (the paper's most connect-hungry configuration), compiles the
workload with the post-regalloc connect optimizer disabled, applies
:func:`repro.analyze.optimize_connects` to the emitted program, and runs
both versions through :class:`repro.sim.FastSimulator`.

Two hard gates, checked on every point:

* **parity** — final memory and register files are bit-exact between the
  optimized and unoptimized program;
* **effectiveness** — under model 3 (the paper's write-reset/read-update
  machine) the optimizer removes at least one static connect at some
  width in at least half of the benchmarks.

Usage::

    PYTHONPATH=src python benchmarks/bench_connectopt.py [-o BENCH_connectopt.json]

Exits non-zero on any parity mismatch or if the effectiveness floor is
missed.  Connect/cycle deltas are recorded per point in the JSON report,
with the optimizer's own wall seconds and hoist-trial count (the
connect-opt layer number; totals in ``connect_opt_seconds`` and
``hoist_trials``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analyze import optimize_connects  # noqa: E402
from repro.compiler import CompileOptions, compile_module  # noqa: E402
from repro.isa import Category, RClass  # noqa: E402
from repro.rc import RCModel  # noqa: E402
from repro.sim import FastSimulator, paper_machine  # noqa: E402
from repro.workloads import ALL_BENCHMARKS, workload  # noqa: E402

MODELS = (1, 2, 3, 4, 5)
WIDTHS = (1, 2, 4, 8)
CORE = 16

#: Effectiveness gate: fraction of benchmarks where model 3 must remove at
#: least one static connect at some width.
WIN_FLOOR = 0.5


def _config(kind: str, model: int, width: int):
    rc_class = RClass.FP if kind == "fp" else RClass.INT
    return paper_machine(issue_width=width, int_core=CORE, fp_core=CORE,
                         rc_class=rc_class, rc_model=RCModel(model))


def _run(program, config):
    result = FastSimulator(program, config).run()
    state = (result.halted, dict(result.state.memory),
             list(result.state.int_regs), list(result.state.fp_regs))
    return state, result.stats


def bench_point(payload) -> tuple[dict, list[str]]:
    name, model, width, scale = payload
    w = workload(name)
    config = _config(w.kind, model, width)
    out = compile_module(w.module(scale), config,
                         CompileOptions(opt_connects=False))
    t0 = time.perf_counter()
    opt = optimize_connects(out.program, config)
    seconds = time.perf_counter() - t0
    report = opt.report
    problems: list[str] = []

    base_state, base_stats = _run(out.program, config)
    opt_state, opt_stats = _run(opt.program, config)
    if base_state != opt_state:
        problems.append(f"{name} model {model} w{width}: optimized program "
                        f"diverges from baseline")

    base_dyn = base_stats.by_category.get(Category.CONNECT, 0)
    opt_dyn = opt_stats.by_category.get(Category.CONNECT, 0)
    point = {
        "benchmark": name,
        "kind": w.kind,
        "model": model,
        "width": width,
        "static_before": report.connects_before,
        "static_after": report.connects_after,
        "removed_dead": report.removed_dead,
        "removed_redundant": report.removed_redundant,
        "hoisted": report.hoisted,
        "trials": report.trials,
        "connect_opt_seconds": round(seconds, 6),
        "dynamic_before": base_dyn,
        "dynamic_after": opt_dyn,
        "cycles_before": base_stats.cycles,
        "cycles_after": opt_stats.cycles,
    }
    return point, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here "
                             "(default: stdout only)")
    parser.add_argument("--scale", type=int,
                        default=int(os.environ.get("REPRO_SCALE", "1")))
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("REPRO_JOBS", "0")) or
                        (os.cpu_count() or 1))
    args = parser.parse_args(argv)

    payloads = [(name, model, width, args.scale)
                for name in ALL_BENCHMARKS
                for model in MODELS
                for width in WIDTHS]
    points, problems = [], []
    if args.jobs <= 1:
        results = map(bench_point, payloads)
        for point, probs in results:
            points.append(point)
            problems.extend(probs)
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for point, probs in pool.map(bench_point, payloads,
                                         chunksize=4):
                points.append(point)
                problems.extend(probs)

    # Effectiveness gate: model 3, any width, per benchmark.
    winners = sorted({p["benchmark"] for p in points
                      if p["model"] == 3
                      and p["static_after"] < p["static_before"]})
    need = int(len(ALL_BENCHMARKS) * WIN_FLOOR)
    if len(winners) < need:
        problems.append(
            f"model 3 removed connects in only {len(winners)}/"
            f"{len(ALL_BENCHMARKS)} benchmarks (floor {need}): {winners}")

    static_removed = sum(p["static_before"] - p["static_after"]
                         for p in points)
    dynamic_removed = sum(p["dynamic_before"] - p["dynamic_after"]
                          for p in points)
    cycles_saved = sum(p["cycles_before"] - p["cycles_after"]
                       for p in points)
    opt_seconds = sum(p["connect_opt_seconds"] for p in points)
    trials = sum(p["trials"] for p in points)
    report = {
        "scale": args.scale,
        "core": CORE,
        "models": list(MODELS),
        "widths": list(WIDTHS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "parity_failures": problems,
        "model3_winners": winners,
        "static_connects_removed": static_removed,
        "dynamic_connects_removed": dynamic_removed,
        "cycles_saved": cycles_saved,
        "connect_opt_seconds": round(opt_seconds, 4),
        "hoist_trials": trials,
        "points": points,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")

    m3 = [p for p in points if p["model"] == 3]
    m3_static = sum(p["static_before"] - p["static_after"] for p in m3)
    m3_dynamic = sum(p["dynamic_before"] - p["dynamic_after"] for p in m3)
    print(f"connect-opt ({len(points)} points, {len(ALL_BENCHMARKS)} "
          f"benchmarks x {len(MODELS)} models x {len(WIDTHS)} widths, "
          f"core {CORE}, scale {args.scale}):")
    print(f"  static connects removed  {static_removed} total, "
          f"{m3_static} under model 3")
    print(f"  dynamic connects removed {dynamic_removed} total, "
          f"{m3_dynamic} under model 3")
    print(f"  cycles saved             {cycles_saved} total")
    print(f"  optimizer time           {opt_seconds:.3f} s, "
          f"{trials} hoist trials")
    print(f"  model 3 benchmarks won   {len(winners)}/"
          f"{len(ALL_BENCHMARKS)}: {', '.join(winners)}")
    if problems:
        print(f"FAILURES ({len(problems)}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("parity: OK (memory and register files bit-exact on every point)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
