"""Connect-optimizer benchmark: static/dynamic connect deltas under parity.

For every benchmark x RC model (1-5) x issue width (1/2/4/8) on the 16/16
core machine, the paper's most connect-hungry configuration, compiles the
workload with the post-regalloc connect optimizer disabled, applies
:func:`repro.analyze.optimize_connects` to the emitted program, and runs
both versions through :class:`repro.sim.FastSimulator`.  Each point records
the connect and cycle deltas, the optimizer's own seconds and its hoist
trials (totals in ``connect_opt_seconds`` and ``hoist_trials``).

Two gates: on every point, final memory and register files are bit-exact
between the optimized and unoptimized program; and under model 3 (the
paper's write-reset/read-update machine) the optimizer removes at least one
static connect at some width in at least half of the benchmarks.

Usage::

    python benchmarks/bench_connectopt.py [-o BENCH_connectopt.json] [--jobs N]
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor

import harness
from repro.analyze import optimize_connects
from repro.compiler import CompileOptions, compile_module
from repro.isa import Category
from repro.sim import FastSimulator
from repro.workloads import ALL_BENCHMARKS, workload

MODELS = (1, 2, 3, 4, 5)
WIDTHS = (1, 2, 4, 8)

#: Effectiveness gate: fraction of benchmarks where model 3 must remove at
#: least one static connect at some width.
WIN_FLOOR = 0.5


def _run(program, config):
    result = FastSimulator(program, config).run()
    state = (result.halted, dict(result.state.memory),
             list(result.state.int_regs), list(result.state.fp_regs))
    return state, result.stats


def bench_point(payload) -> tuple[dict, list[str]]:
    name, model, width, scale = payload
    w = workload(name)
    config = harness.core_machine(w.kind, width, model)
    out = compile_module(w.module(scale), config,
                         CompileOptions(opt_connects=False))
    opt, timing = harness.once(optimize_connects, out.program, config)
    report = opt.report
    problems: list[str] = []

    base_state, base_stats = _run(out.program, config)
    opt_state, opt_stats = _run(opt.program, config)
    if base_state != opt_state:
        problems.append(f"{name} model {model} w{width}: optimized program "
                        f"diverges from baseline")

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
        **harness.fields("connect_opt", timing),
        "dynamic_before": base_stats.by_category.get(Category.CONNECT, 0),
        "dynamic_after": opt_stats.by_category.get(Category.CONNECT, 0),
        "cycles_before": base_stats.cycles,
        "cycles_after": opt_stats.cycles,
    }
    return point, problems


def _deltas(points: list[dict]) -> dict:
    def fall(what: str) -> int:
        return sum(p[f"{what}_before"] - p[f"{what}_after"] for p in points)
    return {"static_connects_removed": fall("static"),
            "dynamic_connects_removed": fall("dynamic"),
            "cycles_saved": fall("cycles")}


def _improved(points: list[dict]) -> list[str]:
    """Benchmarks with a static connect removed at some point."""
    return sorted({p["benchmark"] for p in points
                   if p["static_after"] < p["static_before"]})


def table(report: dict) -> tuple[list, list]:
    rows = []
    for model in (*report["models"], None):
        points = [p for p in report["points"]
                  if model is None or p["model"] == model]
        won = _improved(points)
        d = _deltas(points)
        rows.append([model or "all", d["static_connects_removed"],
                     d["dynamic_connects_removed"], d["cycles_saved"],
                     sum(p["trials"] for p in points),
                     f"{sum(p['connect_opt_seconds'] for p in points):.3f}",
                     f"{len(won)}/{len(ALL_BENCHMARKS)}"])
    return (["reset model", "static connects removed",
             "dynamic connects removed", "cycles saved", "hoist trials",
             "optimizer (reference s)", "benchmarks improved"], rows)


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, "scale", "jobs")
    payloads = [(name, model, width, args.scale)
                for name in ALL_BENCHMARKS
                for model in MODELS
                for width in WIDTHS]
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(bench_point, payloads, chunksize=4))
    points = [point for point, _ in results]
    problems = [p for _, probs in results for p in probs]

    winners = _improved([p for p in points if p["model"] == 3])
    need = int(len(ALL_BENCHMARKS) * WIN_FLOOR)
    if len(winners) < need:
        problems.append(
            f"model 3 removed connects in only {len(winners)}/"
            f"{len(ALL_BENCHMARKS)} benchmarks (floor {need}): {winners}")
    body = {
        "core": harness.CORE,
        "models": list(MODELS),
        "widths": list(WIDTHS),
        "model3_winners": winners,
        **_deltas(points),
        **harness.totals(points, "connect_opt"),
        "hoist_trials": sum(p["trials"] for p in points),
        "points": points,
    }
    return harness.finish(
        args, body, problems, table,
        "parity: OK (memory and register files bit-exact on every point)")


if __name__ == "__main__":
    sys.exit(main())
