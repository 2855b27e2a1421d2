"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cccp", "tomcatv", "yacc"):
            assert name in out


class TestRun:
    def test_run_without_rc(self, capsys):
        assert main(["run", "cmp", "--issue", "2"]) == 0
        out = capsys.readouterr().out
        assert "verification" in out and "OK" in out
        # cmp's loops reach their hot entry and run as generated code.
        last = out.strip().splitlines()[-1]
        assert last.startswith("engine        fast (handoff at cycle ")

    def test_run_reference_engine_reports_it(self, capsys):
        assert main(["run", "cmp", "--engine", "reference"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == "engine        reference"

    def test_run_with_rc(self, capsys):
        assert main(["run", "grep", "--rc", "--int-core", "8"]) == 0
        out = capsys.readouterr().out
        assert "int RC 8+248" in out
        assert "OK" in out

    def test_run_unlimited(self, capsys):
        assert main(["run", "eqn", "--unlimited"]) == 0
        assert "no RC" in capsys.readouterr().out

    def test_run_fp_benchmark_rc_targets_fp_file(self, capsys):
        assert main(["run", "matrix300", "--rc", "--fp-core", "16"]) == 0
        assert "fp RC 16+240" in capsys.readouterr().out

    def test_run_model_option(self, capsys):
        assert main(["run", "cmp", "--rc", "--model", "1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])


class TestDisasm:
    def test_disasm_head(self, capsys):
        assert main(["disasm", "cmp", "--head", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert out[0].lstrip().startswith("0:")

    def test_disasm_shows_connects_with_rc(self, capsys):
        assert main(["disasm", "cmp", "--rc", "--int-core", "8"]) == 0
        assert "connect" in capsys.readouterr().out


class TestAsm:
    def test_assemble_and_run(self, tmp_path, capsys):
        src = tmp_path / "prog.s"
        src.write_text("""
            li r5, 6
            li r6, 7
            mul r7, r5, r6
            store r7, 0(900)
            halt
        """)
        assert main(["asm", str(src), "--dump", "900"]) == 0
        out = capsys.readouterr().out
        assert "mem[900] = 42" in out
        # Halts inside the reference segment: no code is generated.
        assert out.strip().splitlines()[-1] == "engine   reference"


class TestFigures:
    def test_single_figure_subset(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "Instruction latencies" in capsys.readouterr().out

    def test_figure_with_benchmark_subset(self, capsys):
        assert main(["figures", "figure7", "--benchmarks", "cmp"]) == 0
        out = capsys.readouterr().out
        assert "cmp" in out and "geomean" in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "figure99"]) == 2


class TestFigureExport:
    def test_csv_format(self, capsys):
        assert main(["figures", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("benchmark,")

    def test_json_format(self, capsys):
        import json
        assert main(["figures", "table1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["figure"] == "Table 1"


class TestSweep:
    def test_sweep_figure_subset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "figure7", "--benchmarks", "cmp",
                     "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "cmp" in captured.out and "geomean" in captured.out
        assert "[sweep:" in captured.out  # counters in the figure footer
        assert "misses" in captured.err  # summary + progress on stderr
        assert "[5/5]" in captured.err

    def test_sweep_unknown_figure(self, capsys):
        assert main(["sweep", "figure99"]) == 2


class TestTraceCommand:
    def test_trace_output(self, capsys):
        assert main(["trace", "cmp", "--count", "8", "--issue", "2"]) == 0
        out = capsys.readouterr().out
        assert "slot utilization" in out
        assert out.count("|") >= 2


class TestTraceFormats:
    def test_chrome_format_is_golden_json(self, capsys):
        import json
        assert main(["trace", "cmp", "--format", "chrome",
                     "--issue", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process = next(e for e in meta if e["name"] == "process_name")
        assert process["pid"] == 1
        assert process["args"]["name"].startswith("repro-sim")
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["cycles"] > 0
        assert "2-issue" in doc["otherData"]["machine"]

    def test_konata_format(self, capsys):
        assert main(["trace", "cmp", "--format", "konata",
                     "--issue", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Kanata\t0004"

    def test_jsonl_format(self, capsys):
        import json
        assert main(["trace", "cmp", "--format", "jsonl",
                     "--issue", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all("type" in json.loads(line) for line in lines[:50])

    def test_output_file(self, tmp_path, capsys):
        import json
        target = tmp_path / "trace.json"
        assert main(["trace", "cmp", "--format", "chrome",
                     "-o", str(target)]) == 0
        captured = capsys.readouterr()
        assert str(target) in captured.err
        assert json.loads(target.read_text())["traceEvents"]

    def test_text_format_unchanged(self, capsys):
        assert main(["trace", "cmp", "--format", "text", "--count", "8"]) == 0
        assert "slot utilization" in capsys.readouterr().out


class TestProfileCommand:
    def test_text_output(self, capsys):
        assert main(["profile", "cmp", "--issue", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "optimize" in out and "schedule" in out  # pass table
        assert "instructions by class:" in out  # stats summary

    def test_json_output_reconciles(self, capsys):
        import json
        assert main(["profile", "cmp", "--rc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "cmp"
        assert [row["pass"] for row in doc["passes"]]
        cpi = doc["cpi"]
        assert cpi["issue"] + cpi["raw_interlock"] + cpi["map_busy"] \
            + sum(cpi["redirect"].values()) == cpi["cycles"]

    def test_forwards_flag(self, capsys):
        assert main(["profile", "cmp", "--rc", "--int-core", "8",
                     "--forwards"]) == 0
        assert "zero-cycle" in capsys.readouterr().out

    def test_compile_only_skips_simulation(self, capsys):
        assert main(["profile", "cmp", "--compile"]) == 0
        out = capsys.readouterr().out
        assert "compiler passes:" in out
        assert "optimize" in out and "allocate" in out
        assert "cycle attribution" not in out

    def test_compile_only_json(self, capsys):
        import json
        assert main(["profile", "cmp", "--compile", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "cmp"
        assert [row["pass"] for row in doc["passes"]]
        assert "cpi" not in doc


class TestSweepCpi:
    def test_sweep_cpi_footer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "figure7", "--benchmarks", "cmp",
                     "--jobs", "1", "--cpi"]) == 0
        assert "cpi mix:" in capsys.readouterr().out


LATENT_HAZARD = """
start:
    li r5, 2048
    store r5, 0(r5)
    load r6, 0(r5)
    add r7, r6, 1
    halt
"""


class TestCheck:
    def test_check_benchmark_clean(self, capsys):
        assert main(["check", "cmp", "--rc", "--model", "3"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_matrix_json_output(self, tmp_path, capsys):
        import json
        target = tmp_path / "findings.json"
        assert main(["check", "cmp", "--models", "1,4", "--json",
                     "-o", str(target)]) == 0
        captured = capsys.readouterr()
        assert str(target) in captured.err
        payload = json.loads(target.read_text())
        assert payload["clean"] is True
        assert len(payload["runs"]) == 2
        assert {run["model"] for run in payload["runs"]} == {1, 4}

    def test_check_asm_strict_fails_on_info(self, tmp_path):
        src = tmp_path / "hazard.s"
        src.write_text(LATENT_HAZARD)
        assert main(["check", str(src)]) == 0
        assert main(["check", str(src), "--strict"]) == 1

    def test_check_asm_error_fails_without_strict(self, tmp_path, capsys):
        src = tmp_path / "bad.s"
        src.write_text("start:\n    li r5, 1\n")  # falls off the end
        assert main(["check", str(src)]) == 1
        assert "CFG001" in capsys.readouterr().out

    def test_check_json_stdout(self, tmp_path, capsys):
        import json
        src = tmp_path / "hazard.s"
        src.write_text(LATENT_HAZARD)
        assert main(["check", str(src), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["counts"] == {"LAT001": 1}

    def test_check_unknown_benchmark(self, capsys):
        assert main(["check", "doom"]) == 2

    def test_check_parallel_fanout_matches_serial(self, capsys):
        assert main(["check", "cmp", "--models", "1,4", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["check", "cmp", "--models", "1,4", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Everything except the timing footer is identical.
        assert serial.splitlines()[:-1] == parallel.splitlines()[:-1]
        assert "2 workers" in parallel.splitlines()[-1]

    def test_check_footer_reports_timing(self, capsys):
        assert main(["check", "cmp", "--rc", "--jobs", "1"]) == 0
        footer = capsys.readouterr().out.splitlines()[-1]
        assert "run(s)" in footer and "s (1 worker)" in footer

    def test_check_shipped_examples_are_clean(self, capsys):
        import pathlib
        asm_dir = pathlib.Path(__file__).resolve().parent.parent \
            / "examples" / "asm"
        assert main(["check", str(asm_dir / "sum_loop.s"),
                     "--models", "1,2,3,4,5"]) == 0
        assert main(["check", str(asm_dir / "connect_demo.s"), "--rc",
                     "--models", "1,2,3,4,5"]) == 0

    def test_check_baseline_roundtrip(self, tmp_path, capsys):
        import json
        src = tmp_path / "hazard.s"
        src.write_text(LATENT_HAZARD)
        base = tmp_path / "baseline.json"
        # Strict fails on the LAT001 info before a baseline exists.
        assert main(["check", str(src), "--strict"]) == 1
        assert main(["check", str(src), "--baseline", str(base),
                     "--update-baseline"]) == 0
        assert "updated baseline" in capsys.readouterr().err
        # Applying the recorded baseline suppresses exactly that finding.
        assert main(["check", str(src), "--strict", "--baseline",
                     str(base), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["counts"] == {}
        assert payload["runs"][0]["suppressed"] == 1

    def test_check_baseline_does_not_hide_new_findings(self, tmp_path,
                                                       capsys):
        src = tmp_path / "prog.s"
        src.write_text(LATENT_HAZARD)
        base = tmp_path / "baseline.json"
        assert main(["check", str(src), "--baseline", str(base),
                     "--update-baseline"]) == 0
        # A new problem in the same file is not covered by the baseline.
        src.write_text(LATENT_HAZARD.replace("halt\n", ""))
        assert main(["check", str(src), "--strict", "--baseline",
                     str(base)]) == 1
        assert "CFG001" in capsys.readouterr().out

    def test_check_update_baseline_requires_path(self, tmp_path):
        src = tmp_path / "hazard.s"
        src.write_text(LATENT_HAZARD)
        with pytest.raises(SystemExit):
            main(["check", str(src), "--update-baseline"])


class TestDisasmAnnotate:
    def test_annotate_interleaves_blocks(self, capsys):
        assert main(["disasm", "cmp", "--rc", "--int-core", "8",
                     "--annotate"]) == 0
        out = capsys.readouterr().out
        assert "; -- block @" in out
        assert "map:" in out

    def test_annotate_appends_connect_opt_footer(self, capsys):
        assert main(["disasm", "cmp", "--rc", "--annotate"]) == 0
        out = capsys.readouterr().out
        assert "; connect-opt:" in out
        assert "static connects" in out
