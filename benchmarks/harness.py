"""One harness for the parity benches in this directory.

``bench_compile.py``, ``bench_connectopt.py``, ``bench_serve.py`` and
``bench_simspeed.py`` keep only their workload, parity checks and summary
table.  This module gives them:

* one argument parser, :func:`parse_args`, whose options each script picks
  from :data:`OPTIONS`;
* one best-of timer, :func:`once` and :func:`best`.  Every timing is kept
  in *reference seconds* (``x_seconds``): host time scaled by the host's
  speed at the time, measured with ``benchmarks/e2e/clock.py``'s
  :class:`SpeedClock`, so runs on a drifting shared host stay comparable.
  The raw host time is kept beside it (``x_host_seconds``);
* one report, :func:`finish`: the python/machine header,
  ``parity_failures``, the JSON file, the summary table, and exit status 1
  on any problem;
* the 16/16-core machines the benches share, :func:`core_machine`.

Render README.md's performance tables from the committed JSON with::

    python benchmarks/harness.py --render

It rewrites the block between ``<!-- BEGIN BENCH_x -->`` and
``<!-- END BENCH_x -->`` from ``BENCH_x.json`` with ``bench_x.table``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks" / "e2e"))

from clock import SpeedClock  # noqa: E402
from repro.experiments.executor import default_jobs  # noqa: E402
from repro.isa import RClass  # noqa: E402
from repro.rc import RCModel  # noqa: E402
from repro.sim import MachineConfig, paper_machine  # noqa: E402

#: Every option of the benches, defined once: name -> argparse settings.
OPTIONS = {
    "repeat": dict(type=int, default=3,
                   help="timed repetitions per measurement (best-of)"),
    "scale": dict(type=int, default=int(os.environ.get("REPRO_SCALE", "1")),
                  help="workload scale (default REPRO_SCALE, else 1)"),
    "jobs": dict(type=int, default=default_jobs(),
                 help="worker processes (default REPRO_JOBS, else the "
                      "CPU count)"),
    "smoke": dict(action="store_true",
                  help="CI-sized run: less work, and speed gates are "
                       "informational"),
}


def parse_args(doc: str, argv, *options: str) -> argparse.Namespace:
    """``-o FILE`` plus the named :data:`OPTIONS`."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here (default: print "
                             "the summary only)")
    for name in options:
        parser.add_argument(f"--{name}", **OPTIONS[name])
    return parser.parse_args(argv)


class Timing(NamedTuple):
    """One measured interval; tuples order by reference seconds first."""

    ref: float
    host: float


#: A timing samples the host's speed before and after it runs, unless the
#: last sample is younger than this (the kernel takes about 4 ms).
RESAMPLE_S = 0.05

# One clock per process: host speed is a property of the host, so every
# timing in the process shares its samples.
_clock = SpeedClock()
_sampled = float("-inf")


def _sample() -> None:
    global _sampled
    if time.perf_counter() - _sampled > RESAMPLE_S:
        _clock.sample()
        _sampled = time.perf_counter()


def once(run, *args):
    """``run(*args)`` timed once: (its result, :class:`Timing`)."""
    _sample()
    start = time.perf_counter()
    out = run(*args)
    end = time.perf_counter()
    _sample()
    return out, Timing(_clock.scale(end - start, start, end), end - start)


def best(run, repeat: int, fresh=None) -> Timing:
    """Best of *repeat* timings of ``run()``, or of ``run(fresh())`` with
    the untimed set-up ``fresh()`` before each."""
    return min(once(run, *([fresh()] if fresh else []))[1]
               for _ in range(repeat))


def fields(name: str, timing: Timing) -> dict:
    """``name_seconds`` (reference) and ``name_host_seconds`` (host)."""
    return {f"{name}_seconds": timing.ref,
            f"{name}_host_seconds": timing.host}


def totals(points: list[dict], *names: str) -> dict:
    """Sums over *points* of each name's reference and host seconds."""
    return {key: sum(p[key] for p in points) for name in names
            for key in (f"{name}_seconds", f"{name}_host_seconds")}


#: Core registers per file on the machines the benches share.
CORE = 16


def core_machine(kind: str | None, width: int = 4, model: int = 3,
                 **extra) -> MachineConfig:
    """The paper machine at :data:`CORE` core registers per file, with RC
    on a benchmark's own register file (*kind* ``"int"`` or ``"fp"``)
    under *model*, or without RC when *kind* is None."""
    if kind is not None:
        extra.update(rc_class=RClass.FP if kind == "fp" else RClass.INT,
                     rc_model=RCModel(model))
    return paper_machine(issue_width=width, int_core=CORE, fp_core=CORE,
                         **extra)


def markdown(header: list[str], rows: list[list]) -> str:
    """A Markdown table."""
    return "\n".join("| " + " | ".join(map(str, row)) + " |"
                     for row in [header, ["---"] * len(header), *rows])


def finish(args: argparse.Namespace, body: dict, problems: list[str],
           table, ok: str) -> int:
    """Write the report, print its ``table(report)``, and return the exit
    status: 1 when *problems* holds anything, printed as failures."""
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timing": "x_seconds are reference seconds (benchmarks/e2e/"
                  "clock.py); x_host_seconds are raw host seconds",
        **{k: v for k, v in vars(args).items() if k != "output"},
        "parity_failures": problems,
        **body,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(markdown(*table(report)))
    if problems:
        print(f"FAILURES ({len(problems)}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(ok)
    return 0


def render(text: str, root: Path = ROOT) -> str:
    """*text* with the block of every ``BENCH_x.json`` under *root*
    replaced by ``bench_x.table`` of that JSON."""
    for path in sorted(root.glob("BENCH_*.json")):
        begin, end = f"<!-- BEGIN {path.stem} -->\n", f"<!-- END {path.stem} -->"
        head, found, rest = text.partition(begin)
        _, found_end, tail = rest.partition(end)
        if not (found and found_end):
            raise ValueError(f"no {begin.strip()} ... {end} block")
        bench = importlib.import_module(path.stem.replace("BENCH_", "bench_"))
        table = markdown(*bench.table(json.loads(path.read_text())))
        text = f"{head}{begin}{table}\n{end}{tail}"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--render", action="store_true", required=True,
                        help="rewrite README.md's tables from the "
                             "committed BENCH_*.json")
    parser.parse_args(argv)
    readme = ROOT / "README.md"
    readme.write_text(render(readme.read_text()))
    print(f"rendered {readme.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
