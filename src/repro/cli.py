"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the available benchmarks.
* ``run <benchmark>`` — compile and simulate one benchmark on a configurable
  machine; prints cycle counts, IPC, code-size accounting, verification.
* ``disasm <benchmark>`` — print the compiled machine code.
* ``asm <file.s>`` — assemble a textual program and simulate it.
* ``trace <benchmark>`` — cycle-by-cycle issue trace; ``--format`` selects
  text, Chrome trace-event JSON (Perfetto), Konata pipeline logs, or JSONL.
* ``profile <benchmark>`` — per-pass compiler metrics plus the run's
  CPI-stack cycle attribution.
* ``figures [name ...]`` — regenerate paper figures (default: all).
* ``sweep [name ...]`` — regenerate figures through the parallel sweep
  executor (``--jobs``/``REPRO_JOBS`` workers) with cache counters and
  progress reporting; ``--cpi`` adds aggregate cycle attribution.
* ``fuzz`` — differential fuzzing harness: random programs at the IR and
  machine levels driven through the engine-parity, checker-soundness and
  compile-determinism oracles, with corpus replay and auto-shrinking.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.analyze import Baseline, annotate_listing, check_program
from repro.errors import CycleBudgetError
from repro.compiler import (CompileOptions, OptOptions, compile_back,
                            compile_module)
from repro.compiler.regalloc.allocator import AllocationOptions
from repro.experiments import (ALL_FIGURES, ExperimentRunner, SweepExecutor,
                               front_end)
from repro.experiments.executor import default_jobs
from repro.isa import RClass
from repro.observe import (
    PassMetrics,
    chrome_trace_json,
    events_jsonl,
    konata_log,
    observe_run,
)
from repro.isa.asmfmt import format_listing
from repro.isa.asmparse import parse_program
from repro.rc import RCModel
from repro.sim import (
    VALID_ENGINES,
    paper_machine,
    simulate,
    unlimited_machine,
)
from repro.sim.tracing import capture_trace
from repro.workloads import ALL_BENCHMARKS, workload


def _engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", default=None,
                        choices=VALID_ENGINES,
                        help="execution engine (default: REPRO_ENGINE env "
                             "var, else the specializing fast engine; both "
                             "are bit-exact)")


def _machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--issue", type=int, default=4,
                        choices=(1, 2, 4, 8), help="issue width")
    parser.add_argument("--int-core", type=int, default=16,
                        help="core integer registers")
    parser.add_argument("--fp-core", type=int, default=32,
                        help="core FP registers")
    parser.add_argument("--load", type=int, default=2, choices=(2, 4),
                        help="load latency")
    parser.add_argument("--rc", action="store_true",
                        help="enable the RC extension (256 total registers)")
    parser.add_argument("--connect", type=int, default=0, choices=(0, 1),
                        help="connect instruction latency")
    parser.add_argument("--extra-stage", action="store_true",
                        help="extra decode stage for the mapping table")
    parser.add_argument("--model", type=int, default=3, choices=(1, 2, 3, 4, 5),
                        help="automatic reset model (paper section 2.3; "
                             "5 = our read-reset extension)")
    parser.add_argument("--channels", type=int, default=None,
                        help="memory channels (default per issue width)")
    parser.add_argument("--unlimited", action="store_true",
                        help="use the unlimited-register machine")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="abort the simulation past this cycle budget "
                             "(exit with a budget-exceeded error)")


def _compile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--opt", default="ilp", choices=("scalar", "ilp"))
    parser.add_argument("--unroll", type=int, default=4)
    parser.add_argument("--windows", type=int, default=4)
    parser.add_argument("--no-schedule", action="store_true")
    parser.add_argument("--scale", type=int, default=1,
                        help="benchmark input scale")


def _build_machine(args, kind: str):
    if args.unlimited:
        config = unlimited_machine(issue_width=args.issue,
                                   load_latency=args.load,
                                   mem_channels=args.channels)
    else:
        rc_class = None
        if args.rc:
            rc_class = RClass.INT if kind == "int" else RClass.FP
        config = paper_machine(
            issue_width=args.issue,
            load_latency=args.load,
            int_core=args.int_core,
            fp_core=args.fp_core,
            rc_class=rc_class,
            connect_latency=args.connect,
            extra_decode_stage=args.extra_stage,
            rc_model=RCModel(args.model),
            mem_channels=args.channels,
        )
    budget = getattr(args, "max_cycles", None)
    if budget is not None:
        config = dataclasses.replace(config, max_cycles=budget)
    return config


def _build_options(args) -> CompileOptions:
    return CompileOptions(
        opt=OptOptions(level=args.opt, unroll_factor=args.unroll),
        alloc=AllocationOptions(num_windows=args.windows),
        schedule=not args.no_schedule,
    )


def _compile_benchmark(args):
    w = workload(args.benchmark)
    config = _build_machine(args, w.kind)
    options = _build_options(args)
    module, front = front_end(w.name, args.scale, options)
    return w, module, config, compile_back(front, config, options)


def _engine_text(result) -> str:
    """Which engine produced *result*, and where a tiered run handed off."""
    if result.handoff_cycle is None:
        return result.engine
    return f"{result.engine} (handoff at cycle {result.handoff_cycle})"


def cmd_list(_args) -> int:
    for name in ALL_BENCHMARKS:
        w = workload(name)
        print(f"{name:10s} {w.kind}")
    return 0


def cmd_run(args) -> int:
    w, module, config, out = _compile_benchmark(args)
    try:
        result = simulate(out.program, config, engine=args.engine)
    except CycleBudgetError as exc:
        print(f"budget-exceeded: {exc}", file=sys.stderr)
        return 3
    addr = module.global_addr("checksum")
    got = result.load_word(addr)
    want = out.interp.load_word(addr)
    print(f"benchmark     {w.name} ({w.kind}), scale {args.scale}")
    print(f"machine       {config.describe()}")
    print(f"cycles        {result.cycles}")
    print(f"instructions  {result.stats.instructions}"
          f"  (IPC {result.stats.ipc:.2f})")
    print(f"branches      {result.stats.branches}"
          f"  ({result.stats.mispredicts} mispredicted)")
    print(f"static code   {out.stats.total_instructions} instrs"
          f"  (+{100 * out.stats.code_size_increase:.1f}% overhead: "
          f"{out.stats.spill_instructions} spill, "
          f"{out.stats.connect_instructions} connect, "
          f"{out.stats.callsave_instructions} call-save)")
    print(f"allocation    {out.stats.spilled_vregs} spilled, "
          f"{out.stats.extended_vregs} extended")
    status = "OK" if got == want else "MISMATCH"
    print(f"verification  checksum {got!r} vs interpreter {want!r}: {status}")
    print(f"engine        {_engine_text(result)}")
    return 0 if got == want else 1


def cmd_disasm(args) -> int:
    _w, _module, config, out = _compile_benchmark(args)
    if args.annotate:
        report = check_program(out.program, config)
        listing = annotate_listing(out.program, config, report)
        if out.connect_opt is not None:
            footer = "\n".join(f"; {ln}" for ln in out.connect_opt.lines())
            listing = f"{listing}\n{footer}"
    else:
        listing = format_listing(out.program.instrs)
    if args.head:
        listing = "\n".join(listing.splitlines()[: args.head])
    print(listing)
    return 0


def _check_job(args, name: str, model: int, matrix: bool):
    """Compile one benchmark under one reset model and statically check it.

    Runs in a worker process for ``check all`` / ``--models`` fan-outs, so
    everything returned (and *args* itself) must pickle.  Baseline
    bookkeeping happens in the parent, which is why the report itself is
    shipped back.
    """
    ns = copy.copy(args)
    ns.benchmark = name
    ns.model = model
    if matrix:
        # Matrix mode: the reset model only matters with RC, so apply the
        # extension to the benchmark's register class.
        ns.rc = True
    _w, _module, config, out = _compile_benchmark(ns)
    report = check_program(out.program, config)
    return f"{name} model {model}", config.describe(), report


def _load_baseline(args) -> Baseline | None:
    if not args.baseline:
        if args.update_baseline:
            print("--update-baseline requires --baseline FILE",
                  file=sys.stderr)
            raise SystemExit(2)
        return None
    try:
        return Baseline.load(args.baseline)
    except FileNotFoundError:
        if args.update_baseline:
            return Baseline()  # first capture starts empty
        raise


def cmd_check(args) -> int:
    started = time.perf_counter()
    models = ([int(m) for m in args.models.split(",")]
              if args.models else None)
    baseline = _load_baseline(args)
    runs: list[dict] = []
    status = 0
    workers = 1

    if args.target.endswith(".s"):
        with open(args.target) as fh:
            program = parse_program(fh.read())
        outputs = []
        for model in models or [args.model]:
            args.model = model
            config = _build_machine(args, "int")
            outputs.append((f"{args.target} model {model}",
                            config.describe(),
                            check_program(program, config)))
    else:
        names = (list(ALL_BENCHMARKS) if args.target == "all"
                 else [args.target])
        for name in names:
            if name not in ALL_BENCHMARKS:
                print(f"unknown benchmark {name!r}", file=sys.stderr)
                return 2
        tasks = [(name, model) for name in names
                 for model in (models or [args.model])]
        jobs = args.jobs if args.jobs is not None else default_jobs()
        workers = max(1, min(jobs, len(tasks)))
        if workers > 1:
            # Same fan-out discipline as the sweep executor: ship the jobs
            # to a pool, print results in input order.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_check_job, args, name, model,
                                       bool(models))
                           for name, model in tasks]
                outputs = [f.result() for f in futures]
        else:
            outputs = [_check_job(args, name, model, bool(models))
                       for name, model in tasks]

    for label, machine, report in outputs:
        if baseline is not None:
            if args.update_baseline:
                baseline.record(label, report)
            else:
                baseline.apply(label, report)
        runs.append({"target": label, "machine": machine,
                     **report.to_dict()})
        status |= report.exit_code(args.strict)
        if not args.json:
            state = "clean" if report.clean(args.strict) else "FAIL"
            print(f"== {label} [{machine}]: {state}")
            for f in report.findings:
                print(f"   {f.format()}")

    if baseline is not None and args.update_baseline:
        baseline.save(args.baseline)
        print(f"updated baseline {args.baseline} "
              f"({len(baseline.targets)} target(s) with findings)",
              file=sys.stderr)

    elapsed = time.perf_counter() - started
    payload = {"strict": args.strict, "clean": status == 0, "runs": runs}
    if args.json:
        text = json.dumps(payload, indent=2)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {len(runs)} check report(s) to {args.output}",
                  file=sys.stderr)
        else:
            print(text)
    else:
        total = sum(len(r["findings"]) for r in runs)
        print(f"{len(runs)} run(s), {total} finding(s) in {elapsed:.2f}s "
              f"({workers} worker{'s' if workers != 1 else ''}): "
              f"{'clean' if status == 0 else 'FAIL'}")
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
    return status


def cmd_asm(args) -> int:
    with open(args.file) as fh:
        program = parse_program(fh.read())
    config = _build_machine(args, "int")
    try:
        result = simulate(program, config, engine=args.engine)
    except CycleBudgetError as exc:
        print(f"budget-exceeded: {exc}", file=sys.stderr)
        return 3
    print(f"machine  {config.describe()}")
    print(f"cycles   {result.cycles}")
    print(f"instrs   {result.stats.instructions}"
          f"  (IPC {result.stats.ipc:.2f})")
    if args.dump:
        for addr in args.dump:
            value = result.load_word(addr, default=None)
            shown = repr(value) if value is not None else "(never written)"
            print(f"mem[{addr}] = {shown}")
    print(f"engine   {_engine_text(result)}")
    return 0


def cmd_trace(args) -> int:
    _w, _module, config, out = _compile_benchmark(args)
    if args.format == "text":
        trace = capture_trace(out.program, config, limit=args.limit)
        print(trace.summary())
        print()
        print(trace.render(start=args.skip, count=args.count))
        return 0
    run = observe_run(out.program, config, limit=args.limit)
    if args.format == "chrome":
        text = chrome_trace_json(run)
    elif args.format == "konata":
        text = konata_log(run)
    else:
        text = events_jsonl(run)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} trace to {args.output} "
              f"({run.result.stats.cycles} cycles, "
              f"{len(run.observer.events)} events)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_profile(args) -> int:
    w = workload(args.benchmark)
    module = w.module(args.scale)
    config = _build_machine(args, w.kind)
    metrics = PassMetrics()
    out = compile_module(module, config, _build_options(args),
                         metrics=metrics)
    if args.compile_only:
        if args.json:
            print(json.dumps({
                "benchmark": w.name,
                "machine": config.describe(),
                "passes": metrics.to_rows(),
            }, indent=2))
            return 0
        print(f"benchmark  {w.name} ({w.kind}), scale {args.scale}")
        print(f"machine    {config.describe()}")
        print()
        print("compiler passes:")
        print(metrics.render())
        return 0
    run = observe_run(out.program, config, keep_events=args.forwards)
    if args.json:
        print(json.dumps({
            "benchmark": w.name,
            "machine": config.describe(),
            "passes": metrics.to_rows(),
            "cpi": run.stack.to_dict(),
        }, indent=2))
        return 0
    print(f"benchmark  {w.name} ({w.kind}), scale {args.scale}")
    print(f"machine    {config.describe()}")
    print()
    print("compiler passes:")
    print(metrics.render())
    print()
    print(run.result.stats.summary())
    print()
    print(run.stack.render())
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import serve

    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        asyncio.run(serve(host=args.host, port=args.port, jobs=jobs,
                          artifact_dir=args.artifact_dir,
                          max_cycles_cap=args.max_cycles_cap,
                          rate=args.rate, quiet=args.quiet))
    except KeyboardInterrupt:
        pass
    return 0


def _fuzz_serve(args) -> int:
    from repro.fuzz.serve_replay import run_serve_replay

    def progress(done, total):
        print(f"  [{done}/{total}] seeds replayed", file=sys.stderr)

    report = run_serve_replay(args.serve, budget=args.budget,
                              seed=args.seed, progress=progress)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote serve replay report to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(f"fuzz --serve: {report.seeds} seeds, {report.jobs} remote jobs "
          f"({report.artifact_hits} artifact hits), "
          f"{len(report.divergences)} divergence(s) in "
          f"{report.elapsed_sec:.1f}s: "
          f"{'clean' if report.clean else 'FAIL'}", file=sys.stderr)
    for div in report.divergences:
        print(f"  [{div.oracle}] {div.detail}", file=sys.stderr)
    return 0 if report.clean else 1


def cmd_fuzz(args) -> int:
    from pathlib import Path

    from repro.fuzz import FuzzOptions, run_fuzz

    if args.serve:
        return _fuzz_serve(args)
    opts = FuzzOptions(
        seed=args.seed,
        budget=args.budget,
        level=args.level,
        jobs=args.jobs if args.jobs is not None else 1,
        corpus=Path(args.corpus) if args.corpus else None,
        replay_corpus=not args.no_replay,
        shrink=not args.no_shrink,
    )
    report = run_fuzz(opts)
    text = report.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote fuzz report to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    counters = report.counters
    print(
        f"fuzz: {counters.get('iterations', 0)} iterations "
        f"({counters.get('asm_programs', 0)} asm, "
        f"{counters.get('ir_modules', 0)} ir, "
        f"{counters.get('mutants', 0)} mutants, "
        f"{counters.get('corpus_cases', 0)} corpus), "
        f"{len(report.divergences)} divergence(s) in "
        f"{report.elapsed_sec:.1f}s: "
        f"{'clean' if report.clean else 'FAIL'}", file=sys.stderr)
    for div in report.divergences:
        print(f"  [{div.oracle}] {div.detail}", file=sys.stderr)
    return 0 if report.clean else 1


def cmd_figures(args) -> int:
    runner = ExperimentRunner(scale=args.scale, engine=args.engine)
    names = args.names or list(ALL_FIGURES)
    benchmarks = (tuple(args.benchmarks.split(","))
                  if args.benchmarks else ALL_BENCHMARKS)
    for name in names:
        fig_fn = ALL_FIGURES.get(name)
        if fig_fn is None:
            print(f"unknown figure {name!r}; available: "
                  f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
            return 2
        fig = fig_fn(runner, benchmarks=benchmarks)
        if args.format == "csv":
            print(fig.to_csv())
        elif args.format == "json":
            print(fig.to_json())
        else:
            print(fig.render())
            print()
    return 0


def cmd_sweep(args) -> int:
    runner = ExperimentRunner(scale=args.scale, engine=args.engine)
    names = args.names or list(ALL_FIGURES)
    for name in names:
        if name not in ALL_FIGURES:
            print(f"unknown figure {name!r}; available: "
                  f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
            return 2
    benchmarks = (tuple(args.benchmarks.split(","))
                  if args.benchmarks else ALL_BENCHMARKS)

    def progress(done, total, result):
        if not args.quiet:
            state = ("hit" if result.from_cache
                     else "error" if result.error else
                     f"{result.elapsed:.2f}s")
            print(f"  [{done}/{total}] {result.job.benchmark} "
                  f"({state})", file=sys.stderr)

    executor = SweepExecutor(runner=runner, jobs=args.jobs,
                             progress=progress, collect_cpi=args.cpi)
    for name in names:
        try:
            fig = executor.run_figure(ALL_FIGURES[name],
                                      benchmarks=benchmarks)
        except RuntimeError as exc:
            print(f"sweep {name} failed: {exc}", file=sys.stderr)
            return 1
        if args.format == "csv":
            print(fig.to_csv())
        elif args.format == "json":
            print(fig.to_json())
        else:
            print(fig.render())
            print()
    print(executor.stats.summary(), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register Connection (ISCA 1993) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="compile and simulate a benchmark")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    _engine_arg(p)
    _machine_args(p)
    _compile_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("disasm", help="print compiled machine code")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p.add_argument("--head", type=int, default=0,
                   help="print only the first N instructions")
    p.add_argument("--annotate", action="store_true",
                   help="interleave static-check findings and abstract "
                        "map state at block entries")
    _machine_args(p)
    _compile_args(p)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser(
        "check",
        help="statically check compiled or assembled machine code")
    p.add_argument("target",
                   help="benchmark name, 'all', or a .s assembly file")
    p.add_argument("--models", default="",
                   help="comma-separated reset models to sweep (e.g. "
                        "1,2,3,4); enables RC for each benchmark's class")
    p.add_argument("--strict", action="store_true",
                   help="fail on warnings and schedule diagnostics "
                        "(LAT001), not just errors")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="suppress exactly the findings recorded in FILE "
                        "(JSON baseline), so --strict gates on new ones")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE from this run's findings "
                        "instead of applying it")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON reports")
    p.add_argument("-o", "--output", default=None,
                   help="also write the JSON report to this file")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for 'all'/--models fan-out "
                        "(default REPRO_JOBS or CPU count)")
    _machine_args(p)
    _compile_args(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("asm", help="assemble and simulate a .s file")
    p.add_argument("file")
    p.add_argument("--dump", type=int, action="append",
                   help="print this memory word after the run")
    _engine_arg(p)
    _machine_args(p)
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("trace", help="show a cycle-by-cycle issue trace")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p.add_argument("--skip", type=int, default=0,
                   help="skip this many issue events first")
    p.add_argument("--count", type=int, default=40,
                   help="number of issue events to display")
    p.add_argument("--limit", type=int, default=200_000)
    p.add_argument("--format", default="text",
                   choices=("text", "chrome", "konata", "jsonl"),
                   help="text listing, Chrome trace-event JSON (Perfetto), "
                        "Konata pipeline log, or JSONL events")
    p.add_argument("-o", "--output", default=None,
                   help="write the exported trace to this file")
    _machine_args(p)
    _compile_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="per-pass compiler metrics and CPI-stack cycle attribution")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    p.add_argument("--compile", dest="compile_only", action="store_true",
                   help="print only the per-pass compile-time breakdown "
                        "(skips simulation)")
    p.add_argument("--forwards", action="store_true",
                   help="keep the full event stream to count zero-cycle "
                        "connect forwards (slower on large runs)")
    _machine_args(p)
    _compile_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("names", nargs="*", metavar="figure")
    _engine_arg(p)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--benchmarks", default="",
                   help="comma-separated benchmark subset")
    p.add_argument("--format", default="text",
                   choices=("text", "csv", "json"))
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "sweep",
        help="regenerate figures through the parallel sweep executor")
    p.add_argument("names", nargs="*", metavar="figure")
    _engine_arg(p)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default REPRO_JOBS or CPU count)")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--benchmarks", default="",
                   help="comma-separated benchmark subset")
    p.add_argument("--format", default="text",
                   choices=("text", "csv", "json"))
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.add_argument("--cpi", action="store_true",
                   help="collect CPI stacks per job and append the "
                        "aggregate cycle attribution to figure footers")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs vs the parity, "
             "checker-soundness and determinism oracles")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for the generators (default 0)")
    p.add_argument("--budget", type=int, default=200,
                   help="number of fresh generated programs (default 200)")
    p.add_argument("--level", default="all", choices=("ir", "asm", "all"),
                   help="which generator level(s) to run")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default 1)")
    p.add_argument("--corpus", default="",
                   help="corpus directory to replay "
                        "(default: the repo's corpus/)")
    p.add_argument("--no-replay", action="store_true",
                   help="skip replaying the committed corpus")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw reproducers without minimizing them")
    p.add_argument("--serve", default="",
                   help="replay parity oracles as remote jobs against a "
                        "running 'repro serve' at this URL")
    p.add_argument("-o", "--output", default=None,
                   help="write the JSON report to this file")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the compile-and-simulate HTTP/JSON job service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default REPRO_JOBS or CPU count)")
    p.add_argument("--artifact-dir", default=".repro_artifacts",
                   help="content-addressed artifact store root")
    p.add_argument("--max-cycles-cap", type=int, default=None,
                   help="server-side cap on per-job cycle budgets")
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-client submissions/sec token-bucket rate "
                        "(0 disables limiting)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the startup banner")
    p.set_defaults(fn=cmd_serve)
    return parser


#: Built once per process: no default reads the environment.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
