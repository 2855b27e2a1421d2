"""Checks of the end-to-end benchmark itself.

Run explicitly (the tier-1 suite collects ``tests/`` only)::

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
from layers import PASS_LAYERS  # noqa: E402
from trace import ROOT as ROOT_SPAN  # noqa: E402
from trace import Span, Tracer  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_emits_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "1", "--smoke",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for file in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / "e2e" / file.name).write_text(
            file.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "run_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_serve_runs_from_a_deep_checkout(tmp_path):
    # The serve manager's AF_UNIX socket lives under the checkout; socket
    # paths are limited to 107 bytes, however deep the checkout lies.
    deep = tmp_path / ("d" * 100)
    shutil.copytree(ROOT / "src", deep / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, deep / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    (deep / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "serve_mixed", "--seed", "1", "--smoke"],
        capture_output=True, text=True, cwd=deep, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_covered_children():
    tracer = Tracer()
    tracer.started_ns, tracer.ended_ns = 0, 1000
    tracer.spans = [
        _span(0, ROOT_SPAN, 0, 900),
        _span(1, "compile", 100, 600, parent=0),
        _span(2, "pass.a", 150, 300, parent=1),
        _span(3, "pass.b", 250, 400, parent=1),  # overlaps pass.a
        _span(4, "exec", 600, 850, parent=0),
    ]
    self_ns = tracer.self_times()
    assert self_ns == {0: 900 - 500 - 250, 1: 500 - 250, 2: 150, 3: 150,
                       4: 250}
    assert tracer.layer_totals() == pytest.approx(
        {"compile": 250e-9, "pass.a": 150e-9, "pass.b": 150e-9,
         "exec": 250e-9})
    # Everything but the four layers' 800 ns is unattributed.
    assert tracer.unattributed_share() == pytest.approx(0.2)


def test_children_clipped_to_parent_and_nominal_children():
    tracer = Tracer()
    with tracer.request(7):
        with tracer.span("outer"):
            tracer.add_children([("inner.a", 0.0), ("inner.b", 0.0)])
    names = [s.name for s in tracer.spans]
    assert names == [ROOT_SPAN, "outer", "inner.a", "inner.b"]
    assert all(s.request == 7 for s in tracer.spans)
    assert tracer.spans[2].parent == tracer.spans[1].id
    lone = Span(0, "p", 100, 200, None, None)
    kids = [Span(1, "c", 50, 150, 0, None), Span(2, "c", 180, 400, 0, None)]
    tracer.spans = [lone, *kids]
    assert tracer.self_times()[0] == 100 - 50 - 20


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.request(1):
        with tracer.span("x"):
            tracer.add_children([("y", 1.0)])
    assert tracer.spans == []


def test_same_seed_same_inputs_and_other_seed_differs():
    import workloads

    for wl in workloads.WORKLOADS.values():
        first = wl.inputs(1, 1.0)
        assert first == wl.inputs(1, 1.0), wl.name
        other = wl.inputs(3, 1.0)
        assert first != other, wl.name
        # The amount of work follows --seconds, never the seed.
        size = len(wl.replay_ops(first))
        assert size == len(wl.replay_ops(other)), wl.name
        full = wl.inputs(1, SPEC["run_seconds"])
        assert len(wl.replay_ops(full)) > size, wl.name


def test_seed_keeps_the_cost_design():
    """What sets an operation's cost is the same for every seed."""
    import workloads

    def design(name, seed):
        wl = workloads.WORKLOADS[name]
        inputs = wl.inputs(seed, SPEC["run_seconds"])
        if name == "figures":
            return sorted(repr(job) for job in wl.replay_ops(inputs))
        if name == "run_cold":
            return sorted((op["benchmark"], op["rc"], op["int_core"],
                           op["fp_core"], op["issue"])
                          for op in wl.replay_ops(inputs))
        if name == "sim_long":
            return [(bench, model) for bench, (model, _timing)
                    in inputs["plan"].items()]
        return sorted((job.payload["benchmark"], json.dumps(
            {k: v for k, v in job.payload["machine"].items() if k != "model"},
            sort_keys=True)) for job in inputs
            if job.label == "benchmark_simulate")

    for name in WORKLOADS:
        assert design(name, 1) == design(name, 3), name


def test_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] + [
        m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(PASS_LAYERS.values()):
        assert NAME_RE.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(WORKLOADS) == set(__import__("workloads").WORKLOADS)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, list(zip(base, base)), "lower",
                           0.05) == "within bound"
    slower = [v * 1.2 for v in base]
    assert compare.verdict(base, slower, list(zip(base, slower)), "lower",
                           0.05) == "worse"
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, list(zip(base, faster)), "lower",
                           0.05) == "better"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(base, noisy, list(zip(base, noisy)), "lower",
                           0.05) == "unresolved"


def test_compare_refuses_different_run_lengths(tmp_path):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    for side, seconds in (("base", 20.0), ("new", 10.0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "r.json").write_text(json.dumps(
            {"workload": WORKLOADS[0], "seed": 1, "seconds": seconds,
             "trace": False, "stats_digest": "x", "metrics": metrics}))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    (tmp_path / "new" / "r.json").write_text(
        (tmp_path / "base" / "r.json").read_text())
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
