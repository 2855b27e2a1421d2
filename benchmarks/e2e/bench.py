"""End-to-end benchmark of the reproduction: four workloads, one command.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench.py --workload run_cold --seed 1
    python3 benchmarks/e2e/bench.py --workload sim_long --seed 1 --trace 1
    python3 benchmarks/e2e/bench.py --seed 1 -o out.json   # all workloads

One workload runs in this process.  Its inputs are drawn from ``--seed``;
their amount is sized from ``--seconds`` (that long at reference speed)
and is the same for every seed and commit.  Its set-up runs three or more
times (``setup_s`` is the median), then the measured phase runs every
input and checks every output.  Timings are in reference seconds, host
time corrected for the shared host's speed drift (see ``clock.py``).
With ``--trace 1`` the run instead replays the first operations four
times in-process, plain, traced (a span around every layer call), traced
and plain, and reports the per-layer metrics in reference seconds.  The
metric names, units
and bounds come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any output was wrong.

Without ``--workload`` every workload runs in its own fresh subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Scratch space inside the checkout (git-ignored), relative to its root;
#: each run gets its own directory there and removes it on exit.
WORK_ROOT = Path(".e2e")
#: Set-up runs: at least SETUP_MIN_RUNS and until SETUP_MIN_S seconds
#: are spent, at most SETUP_MAX_RUNS; ``setup_s`` is their median.  A
#: speed sampler runs beside them (see ``clock.py``).
SETUP_MIN_RUNS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_RUNS = 30
#: ``--smoke`` length: enough to emit every metric, not to measure.
SMOKE_SECONDS = 0.2


#: String hashing is pinned: at this commit some compilations depend on
#: set iteration order (``repro run matrix300 --issue 8 --int-core 8
#: --fp-core 16`` takes 22496 or 23216 cycles depending on
#: PYTHONHASHSEED), which would make simulated results, and so
#: ``stats_digest``, differ between runs of one commit.
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute this command under ``PYTHONHASHSEED=HASH_SEED``."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
                  env)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def clean_env() -> dict:
    """The environment without any ``REPRO_*`` setting."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics' exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> tuple[float, float]:
    """Largest resident set of this process, and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


# -- one workload, in this process ----------------------------------------------

def run_measured(wl, inputs, work, smoke):
    from clock import Sampler, SpeedClock, pin_to_one_cpu
    from trace import Tracer
    from workloads import Outcome

    clock = SpeedClock()
    if wl.single_thread:
        pin_to_one_cpu()
    setup_runs = []
    state = None
    with Sampler(clock):
        while True:
            if state is not None:
                wl.teardown(state)
            clock.sample()
            start = time.perf_counter()
            state = wl.setup(inputs, work, Tracer(enabled=False))
            setup_runs.append((start, time.perf_counter()))
            spent = sum(end - begin for begin, end in setup_runs)
            if smoke or len(setup_runs) >= SETUP_MAX_RUNS or (
                    len(setup_runs) >= SETUP_MIN_RUNS
                    and spent >= SETUP_MIN_S):
                break
    clock.sample()
    out = Outcome(clock)
    try:
        check = wl.measure(state, inputs, out)
    finally:
        wl.teardown(state)
    rss_self, rss_children = peak_rss_mb()
    if check is not None:
        check()
    # Every timing in reference seconds (see clock.py); raw host times
    # go to the extras.
    setup_s = [clock.scale(end - start, start, end)
               for start, end in setup_runs]
    lat_ms = [1e3 * clock.scale(*op) for op in out.ops]
    elapsed = sum(clock.scale(end - start, start, end)
                  for start, end in out.intervals)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(out.ops) / elapsed if elapsed else 0.0,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "minsts_per_s": out.instructions / 1e6 / elapsed if elapsed else 0.0,
        "peak_rss_mb": max(rss_self, rss_children),
    }
    raw_ms = [1e3 * op[0] for op in out.ops]
    out.extras.update({
        "samples": len(out.ops),
        "host.measured_s": out.elapsed,
        "host.setup_s": statistics.median(e - s for s, e in setup_runs),
        "host.latency_p50_ms": percentile(raw_ms, 50),
        "host.speed_factor": clock.mean_factor(),
        "host.setup_runs": len(setup_runs),
        "host.rss_self_mb": rss_self,
        "host.rss_children_mb": rss_children,
    })
    return out, metrics, None


def run_traced(wl, inputs, seconds, work):
    from clock import Sampler, SpeedClock, pin_to_one_cpu
    from trace import Tracer
    from workloads import Outcome

    ops = wl.replay_ops(inputs)[:wl.replay_count(seconds)]

    def replay(tracer):
        out = Outcome()
        state = wl.replay_setup(inputs, work, tracer)
        try:
            wl.replay(state, ops, tracer, out)
        finally:
            wl.teardown(state)
        tracer.finish()
        return tracer, out

    # The replays run in this thread: on one CPU, beside a speed sampler,
    # so that their times and every span convert to reference seconds.
    # Plain, traced, traced, plain: warm-up and a steady drift in host
    # speed fall on both sides alike.
    pin_to_one_cpu()
    clock = SpeedClock()
    with Sampler(clock):
        runs = [replay(Tracer(enabled=enabled))
                for enabled in (False, True, True, False)]

    def reference_s(t):
        return clock.scale(t.wall_ns / 1e9, t.started_ns / 1e9,
                           t.ended_ns / 1e9)

    plain_s = sum(reference_s(t) for t, _ in runs if not t.enabled)
    traced_s = sum(reference_s(t) for t, _ in runs if t.enabled)
    tracer, out = runs[2]
    out.attempted = sum(o.attempted for _, o in runs)
    out.failed = sum(o.failed for _, o in runs)
    out.problems = [p for _, o in runs for p in o.problems]
    totals = tracer.layer_totals(clock.scale)
    counts: dict[str, int] = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    exec_s = totals.get("sim.exec", 0.0)
    metrics = {f"{name}_s": seconds_ for name, seconds_ in totals.items()}
    metrics.update({
        "compiler.compiles": counts.get("compiler.other", 0),
        "sim.codegen_count": counts.get("sim.codegen", 0),
        "sim.exec_minsts_per_s": (out.instructions / 1e6 / exec_s
                                  if exec_s else 0.0),
        "trace.overhead_share": (traced_s - plain_s) / plain_s,
        "trace.unattributed_share": tracer.unattributed_share(),
    })
    out.extras.update({"replayed_ops": len(ops), "plain_wall_s": plain_s / 2,
                       "traced_wall_s": traced_s / 2,
                       "spans": len(tracer.spans)})
    return out, metrics, tracer


def run_one(args) -> int:
    env = clean_env()
    os.environ.clear()
    os.environ.update(env)
    # The benchmark writes only inside the checkout, so library scratch
    # files go there too.  The path is kept relative to the checkout: the
    # serve manager's AF_UNIX socket lands in it, and socket paths are
    # limited to 107 bytes however deep the checkout lies.
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(os.path.relpath(
        tempfile.mkdtemp(prefix=args.workload[:3] + "-", dir=WORK_ROOT)))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads

        spec = load_spec()
        wl = workloads.WORKLOADS[args.workload]
        seconds = SMOKE_SECONDS if args.smoke else args.seconds
        inputs = wl.inputs(args.seed, seconds)
        if args.trace:
            out, values, tracer = run_traced(wl, inputs, seconds, work)
            wanted = spec["per_layer"]
        else:
            out, values, tracer = run_measured(wl, inputs, work, args.smoke)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    extras = {k: v for k, v in {**values, **out.extras}.items()
              if k not in metrics}
    correct = out.failed == 0 and out.attempted > 0
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    for name in sorted(extras):
        print(f"  {name:26s} {extras[name]}")
    for problem in out.problems:
        print(f"problem: {problem}")
    digest = None if args.trace else out.digest()
    if digest is not None:
        print(f"stats_digest {digest}")
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    if args.output:
        detail = {**result, "workload": args.workload, "seed": args.seed,
                  "seconds": seconds, "trace": bool(args.trace),
                  "stats_digest": digest, "extras": extras,
                  "problems": out.problems}
        with open(args.output, "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if tracer is not None:
            tracer.write(Path(args.output).with_suffix(".trace.json"))
    elif tracer is not None:
        tracer.write(WORK_ROOT / f"trace-{args.workload}.json")
    print(json.dumps(result))
    return 0 if correct else 1


# -- every workload, each in a fresh subprocess -----------------------------------

def run_all(args) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    WORK_ROOT.mkdir(exist_ok=True)
    combined = []
    status = 0
    for name in names:
        with tempfile.NamedTemporaryFile(dir=WORK_ROOT, suffix=".json",
                                         delete=False) as fh:
            detail_path = fh.name
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "-o", detail_path]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT, timeout=900)
        status = status or proc.returncode
        try:
            with open(detail_path) as fh:
                combined.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            status = status or 1
        finally:
            os.unlink(detail_path)
            trace_path = Path(detail_path).with_suffix(".trace.json")
            if trace_path.exists():
                trace_path.replace(WORK_ROOT / f"trace-{name}.json")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(combined, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all, each in a "
                             "fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; seed 2 is held out "
                             "for verifying claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="amount of work, in reference seconds (default: "
                             "run_seconds in BENCHMARK.json; compare.py "
                             "refuses to compare runs of different lengths)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer replay instead of the measurement")
    parser.add_argument("--smoke", action="store_true",
                        help="a tiny run that only checks every metric is "
                             "emitted")
    parser.add_argument("-o", "--output", default=None,
                        help="write the detailed result JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (
            ROOT / "BENCHMARK.json").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.output:
        args.output = os.path.abspath(args.output)
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{names}")
    return run_one(args)


if __name__ == "__main__":
    pin_hash_seed()
    raise SystemExit(main())
