"""README's performance tables are rendered from the committed
``BENCH_*.json``, and every parity bench reports through one path."""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import harness  # noqa: E402

README = ROOT / "README.md"


def test_readme_tables_match_committed_json():
    text = README.read_text()
    assert harness.render(text) == text, (
        "README's benchmark tables are stale: run "
        "`python benchmarks/harness.py --render`")


def test_edited_json_changes_the_rendered_table(tmp_path):
    for path in ROOT.glob("BENCH_*.json"):
        shutil.copy(path, tmp_path)
    edited = tmp_path / "BENCH_compile.json"
    report = json.loads(edited.read_text())
    report["fast_warm_seconds"] *= 2
    edited.write_text(json.dumps(report))
    text = README.read_text()
    assert harness.render(text, tmp_path) != text


def test_every_bench_json_needs_a_block(tmp_path):
    shutil.copy(ROOT / "BENCH_compile.json", tmp_path)
    with pytest.raises(ValueError, match="BEGIN BENCH_compile"):
        harness.render("no markers here\n", tmp_path)


def _finish(tmp_path, problems):
    out = tmp_path / "report.json"
    args = argparse.Namespace(output=str(out), scale=1)
    status = harness.finish(args, {"answer": 42}, problems,
                            lambda report: (["answer"],
                                            [[report["answer"]]]),
                            "parity: OK")
    return status, json.loads(out.read_text())


def test_a_problem_is_reported_and_fails_the_run(tmp_path, capsys):
    status, report = _finish(tmp_path, ["point 3 diverges"])
    assert status == 1
    assert report["parity_failures"] == ["point 3 diverges"]
    assert report["scale"] == 1 and report["answer"] == 42
    assert "point 3 diverges" in capsys.readouterr().err


def test_a_clean_run_exits_zero(tmp_path, capsys):
    status, report = _finish(tmp_path, [])
    assert status == 0
    assert report["parity_failures"] == []
    assert "| 42 |" in capsys.readouterr().out


def test_scripts_take_only_the_options_they_pick():
    args = harness.parse_args("doc", ["--repeat", "2", "-o", "x.json"],
                              "repeat")
    assert (args.repeat, args.output) == (2, "x.json")
    with pytest.raises(SystemExit):
        harness.parse_args("doc", ["--jobs", "2"], "repeat")


def test_timings_are_in_host_and_reference_seconds():
    timing = harness.best(lambda: sum(range(1000)), 2)
    assert timing.host > 0 and timing.ref > 0
    assert set(harness.fields("x", timing)) == {"x_seconds",
                                                "x_host_seconds"}
