"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.exec.telemetry import SCHEMA

SOURCE = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) { deref(p); }
  return 0;
}
fun safe(a) {
  q = null;
  if (a < a) { deref(q); }
  return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.fl"
    path.write_text(SOURCE)
    return str(path)


#: A counter that may skip its loop, then divides (docs/loops.md).
LOOP_SOURCE = """
fun f(a) {
  x = 0;
  while (x < a) { x = x + 1; }
  y = 10 / x;
  return y;
}
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.fl"
    path.write_text(LOOP_SOURCE)
    return str(path)


class TestScan:
    def test_finds_bug_and_exits_nonzero(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[BUG]" in out and "foo" in out
        assert "safe" not in out  # infeasible filtered by default

    def test_show_infeasible(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref",
              "--show-infeasible"])
        out = capsys.readouterr().out
        assert "[infeasible]" in out and "safe" in out

    def test_json_output(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["engine"] == "fusion"
        assert len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert finding["source_function"] == "foo"
        assert finding["path"][0] == "p"

    def test_witness_extraction(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref", "--witness",
              "--json"])
        payload = json.loads(capsys.readouterr().out)
        witness = payload["findings"][0].get("witness", {})
        assert witness, "expected a concrete model"
        # The witness must make the guard true: c < d (8-bit signed).
        c = next(v for k, v in witness.items() if k.endswith("::c#f0"))
        d = next(v for k, v in witness.items() if k.endswith("::d#f0"))
        from repro.smt import to_signed
        assert to_signed(c, 8) < to_signed(d, 8)

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.fl"
        path.write_text("fun f(a) { return a + 1; }")
        code = main(["scan", str(path)])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_dot_export(self, source_file, tmp_path, capsys):
        dot_file = tmp_path / "pdg.dot"
        main(["scan", source_file, "--checker", "null-deref",
              "--dot", str(dot_file)])
        text = dot_file.read_text()
        assert text.startswith("digraph pdg")
        assert "style=dashed" in text

    def test_engine_selection(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--engine", "pinpoint"])
        assert code == 1
        assert "[BUG]" in capsys.readouterr().out

    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "fun f() { p = null; deref(p); return 0; }"))
        code = main(["scan", "-", "--checker", "null-deref"])
        assert code == 1


class TestQueryTrace:
    @pytest.mark.parametrize("source_name", ["pp", "q"])
    def test_trace_names_the_dereferenced_variable(self, source_name,
                                                   tmp_path, capsys):
        """The sink step prints ``deref(p)`` even when the copied name
        starts with ``p``."""
        path = tmp_path / "prefix.fl"
        path.write_text(f"fun main(a) {{\n  {source_name} = null;\n"
                        f"  p = {source_name};\n  if (a > 3) {{\n"
                        "    deref(p);\n  }\n  return 0;\n}\n")
        assert main(["query", str(path), "--checker", "null-deref",
                     "--sink", "5"]) == 1
        out = capsys.readouterr().out
        assert f"[BUG] main: {source_name} = null\n" \
            "      -> main: %t.1 = deref(p)\n" in out


class TestOtherCommands:
    def test_subjects_lists_registry(self, capsys):
        assert main(["subjects"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "wine" in out

    def test_bench_single_cell(self, tmp_path, monkeypatch, capsys):
        """One cell prints its row and writes nothing; ``--subject`` is
        required."""
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--subject", "mcf"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["subject"] == "mcf"
        assert payload["failure"] is None
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    def test_bench_no_json_flag(self, tmp_path, monkeypatch, capsys):
        """A bench cell with ``--telemetry`` writes only the telemetry
        file, and it solves (there are no solver sessions to count)."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        telemetry = tmp_path / "t.json"
        code = main(["bench", "--subject", "mcf", "--engine", "fusion",
                     "--telemetry", str(telemetry)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["failure"] is None
        assert list(cwd.iterdir()) == []
        document = json.loads(telemetry.read_text())
        assert "incremental" not in document
        assert document["solver"]["total"] >= 1



class TestObservabilityKeepsVerdicts:
    def test_failing_query_same_with_and_without_telemetry(
            self, source_file, tmp_path, monkeypatch, capsys):
        """``--telemetry`` only observes: a query that raises is handled
        the same way (reported UNKNOWN) whether or not it is given."""
        from repro.fusion import FusionEngine

        solve_one = FusionEngine.solve_one

        def flaky(self, candidate, *args, **kwargs):
            if candidate.sink.function == "safe":
                raise RuntimeError("injected solver failure")
            return solve_one(self, candidate, *args, **kwargs)

        monkeypatch.setattr(FusionEngine, "solve_one", flaky)
        runs = []
        for extra in ([], ["--telemetry", str(tmp_path / "t.json")]):
            code = main(["analyze", "--subject", source_file, "--json",
                         *extra])
            payload = json.loads(capsys.readouterr().out)
            runs.append((code, payload["findings"]))
        assert runs[0] == runs[1]
        code, findings = runs[0]
        assert code == 0
        assert {f["sink_function"]: f["feasible"] for f in findings} \
            == {"foo": True, "safe": True}


class TestVerboseScan:
    def test_verbose_report(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--verbose"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Null pointer dereference" in out
        assert "trace:" in out and "feasibility:" in out
        assert "witness:" in out  # --verbose implies model extraction

    def test_verbose_with_infeasible(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref",
              "--verbose", "--show-infeasible"])
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out


DIVZERO_SOURCE = """
fun main(a) {
  z = 0;
  b = 4;
  c = b - 4;
  safe = a / 2;
  bad = a / z;
  worse = a % c;
  return bad + worse + safe;
}
"""


class TestLint:
    def test_clean_file_exits_zero(self, source_file, capsys):
        assert main(["lint", source_file]) == 0
        out = capsys.readouterr().out
        assert "PDG OK" in out and "vertices" in out

    def test_registry_subject(self, capsys):
        assert main(["lint", "mcf"]) == 0
        assert "PDG OK" in capsys.readouterr().out

    def test_json_output(self, source_file, capsys):
        assert main(["lint", source_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["errors"] == []

    def test_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("fun f(a) { return a; }"))
        assert main(["lint", "-"]) == 0

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fun f( { nope")
        assert main(["lint", str(bad)]) == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_type_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fun f(a) { if (a) { b = 1; } return 0; }")
        assert main(["lint", str(bad)]) == 2


class TestMalformedSource:
    """Every subcommand that compiles a file reports a frontend error
    as one ``repro <cmd>: LINE:COL: message`` line and exits 2."""

    @pytest.mark.parametrize("argv", [
        ["scan", "{}"],
        ["analyze", "--subject", "{}"],
        ["pdg", "--subject", "{}"],
        ["lint", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "1"],
    ], ids=lambda argv: argv[0])
    def test_lex_error_exits_two(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fun main(a) {\nx = $;\nreturn 0;\n}\n")
        code = main([str(bad) if arg == "{}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == \
            f"repro {argv[0]}: 2:5: unexpected character '$'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["scan", "{}"],
        ["analyze", "--subject", "{}"],
        ["pdg", "--subject", "{}"],
        ["lint", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "3"],
    ], ids=lambda argv: argv[0])
    def test_wrong_arity_call_exits_two(self, argv, tmp_path, capsys):
        bad = tmp_path / "arity.fl"
        bad.write_text("fun g(a) { return a; }\nfun f(x) {\n"
                       "  y = g(x, x);\n  return y;\n}\n")
        code = main([str(bad) if arg == "{}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == \
            f"repro {argv[0]}: 3:7: call to g with 2 args, expected 1\n"
        assert captured.out == ""


class TestUnreadableInput:
    """A missing file, an unknown registry subject or an unwritable
    ``--dot`` path is a bad argument: one ``repro <cmd>: message`` line,
    exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["scan", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "1"],
    ], ids=lambda argv: argv[0])
    def test_missing_file_exits_two(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.fl")
        code = main([missing if arg == "{}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"repro {argv[0]}: [Errno 2] No such "
                                f"file or directory: {missing!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["bench", "--subject", "nosuch"],
        ["analyze", "--subject", "nosuch"],
        ["pdg", "--subject", "nosuch"],
        ["lint", "nosuch"],
    ], ids=lambda argv: argv[0])
    def test_unknown_subject_exits_two(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            f"repro {argv[0]}: unknown subject 'nosuch' — not a registry "
            f"subject (see `repro subjects`)")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["scan", "{src}"],
        ["pdg", "--subject", "{src}", "--checker", "null-deref"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_dot_exits_two(self, argv, source_file, tmp_path,
                                      capsys):
        target = str(tmp_path / "no-such-dir" / "graph.dot")
        code = main([source_file if arg == "{src}" else arg for arg in argv]
                    + ["--dot", target])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"repro {argv[0]}: cannot write --dot to {target!r}: "
            f"[Errno 2] No such file or directory: {target!r}\n")


class TestTriageFlag:
    """The triage pre-pass is gone: both spellings of its switch are
    refused by argparse, and the default run reports what the run
    without triage always reported."""

    def test_analyze_with_triage(self, source_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--subject", source_file, "--triage",
                  "--json"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --triage" in captured.err
        assert captured.out == ""

    def test_triage_report_set_matches_no_triage(self, source_file,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--subject", source_file, "--no-triage",
                  "--json"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        code = main(["analyze", "--subject", source_file, "--json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert code == 0
        assert [(f["source_function"], f["sink_function"], f["feasible"])
                for f in findings] == [("foo", "foo", True),
                                       ("safe", "safe", False)]

    def test_triage_rejected_for_infer(self, source_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--subject", source_file,
                  "--engine", "infer", "--triage"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --triage" in capsys.readouterr().err

    def test_triage_telemetry(self, source_file, tmp_path, capsys):
        out = tmp_path / "telemetry.json"
        code = main(["analyze", "--subject", source_file,
                     "--telemetry", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        assert "triage" not in payload


class TestIncrementalFlag:
    """Solver sessions are gone: both spellings of their switch are
    refused by argparse on every subcommand that had it, and telemetry
    has neither the sessions section nor the slice-cache section."""

    @pytest.mark.parametrize("flag", ["--incremental", "--no-incremental"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--subject", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "11"],
        ["bench", "--subject", "mcf"],
        ["serve", "--stdio"],
    ], ids=lambda argv: argv[0])
    def test_switch_is_refused(self, argv, flag, source_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([source_file if arg == "{}" else arg for arg in argv]
                 + [flag])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--subject", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "11"],
    ], ids=lambda argv: argv[0])
    def test_telemetry_has_no_session_or_cache_section(
            self, argv, source_file, tmp_path, capsys):
        out = tmp_path / "telemetry.json"
        main([source_file if arg == "{}" else arg for arg in argv]
             + ["--telemetry", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        assert "incremental" not in payload
        assert "caches" not in payload
        assert payload["solver"]["total"] >= 1


class TestBadNumbers:
    """Out-of-range numeric flags exit 2 with a one-line message instead
    of a traceback or a silently degraded run."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--subject", "mcf"],
        ["pdg", "--subject", "mcf"],
        ["analyze", "--subject", "{}"],
        ["pdg", "--subject", "{}"],
        ["scan", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "11"],
    ], ids=["analyze-mcf", "pdg-mcf", "analyze-file", "pdg-file", "scan",
            "query"])
    def test_zero_width_exits_two(self, argv, source_file, capsys):
        code = main([source_file if arg == "{}" else arg for arg in argv]
                    + ["--width", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"repro {argv[0]}: bit-vector width " \
            "must be positive, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--subject", "mcf"],
        ["pdg", "--subject", "mcf"],
        ["analyze", "--subject", "{}"],
        ["pdg", "--subject", "{}"],
        ["scan", "{}"],
        ["query", "{}", "--checker", "null-deref", "--sink", "11"],
        ["serve", "--stdio"],
    ], ids=["analyze-mcf", "pdg-mcf", "analyze-file", "pdg-file", "scan",
            "query", "serve"])
    def test_negative_unroll_exits_two(self, argv, loop_file, capsys):
        """A negative bound is refused, not lowered as bound 0."""
        code = main([loop_file if arg == "{}" else arg for arg in argv]
                    + ["--unroll", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"repro {argv[0]}: unroll bound must not " \
            "be negative, got -1\n"
        assert captured.out == ""

    def test_unroll_zero_drops_loops(self, loop_file, capsys):
        """Bound 0 keeps its documented meaning: the loop is dropped, so
        the divisor is the counter's seed on every path."""
        assert main(["scan", loop_file, "--checker", "div-zero",
                     "--unroll", "0"]) == 1
        assert "[BUG] div-zero: f: x = 0\n" \
            "      -> f: y = 10 / x\n" == capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command", ["analyze", "bench"])
    def test_non_positive_query_timeout_exits_two(self, command, value,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--subject", "mcf", "--query-timeout", value])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert f"argument --query-timeout: must be positive, got " \
            f"{value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["analyze", "bench", "serve"])
    def test_jobs_below_one_exits_two(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *SUBJECT_ARGS[command], "--jobs", value])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert f"argument --jobs: must be at least 1, got {value}" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "bench"])
    def test_negative_max_retries_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--subject", "mcf", "--max-retries", "-1"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "argument --max-retries: must be at least 0, got -1" \
            in captured.err
        assert captured.out == ""


#: What each exec-flag subcommand needs besides the flag under test.
SUBJECT_ARGS = {"analyze": ["--subject", "mcf"],
                "bench": ["--subject", "mcf"], "serve": ["--stdio"]}


class TestFaultPlanFlag:
    """``--fault-plan`` is parsed once, by argparse: a malformed plan is
    a bad argument like any other (exit 2, ``FaultPlan.parse``'s
    message), on every subcommand that takes one."""

    @pytest.mark.parametrize("command", ["analyze", "bench", "serve"])
    def test_malformed_fault_plan_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *SUBJECT_ARGS[command], "--fault-plan",
                  "bogus"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "argument --fault-plan: malformed fault clause 'bogus'" \
            in captured.err
        assert captured.out == ""


class TestRetiredExecFlags:
    """``--backend`` and ``--batch-size`` are gone: ``--jobs`` alone
    picks inline or a process pool, and the flags are refused."""

    @pytest.mark.parametrize("flags", [["--backend", "thread"],
                                       ["--backend", "serial"],
                                       ["--backend", "process"],
                                       ["--backend", "auto"],
                                       ["--batch-size", "4"]],
                             ids=["thread", "serial", "process", "auto",
                                  "batch-size"])
    @pytest.mark.parametrize("command", ["analyze", "bench", "serve"])
    def test_retired_flag_exits_two(self, command, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *SUBJECT_ARGS[command], *flags])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert flags[0] in captured.err
        assert captured.out == ""


class TestDivZeroChecker:
    def test_finds_constant_zero_divisors(self, tmp_path, capsys):
        path = tmp_path / "div.fl"
        path.write_text(DIVZERO_SOURCE)
        code = main(["analyze", "--subject", str(path),
                     "--checker", "div-zero", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        feasible = [f for f in payload["findings"] if f["feasible"]]
        # `a / z` (literal zero) and `a % c` (constant-folded zero) are
        # flagged; `a / 2` is not.
        assert len(feasible) == 2
        sinks = {f["sink"] for f in feasible}
        assert any("/" in s for s in sinks)
        assert any("%" in s for s in sinks)

    def test_triage_composes_with_divzero(self, tmp_path, capsys):
        """The triage pass once shared an abstract-interpretation
        fixpoint with div-zero's sources, which now come from a constant
        fold; the retired switch is refused for this checker too, and
        the plain run still flags both."""
        path = tmp_path / "div.fl"
        path.write_text(DIVZERO_SOURCE)
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--subject", str(path),
                  "--checker", "div-zero", "--triage", "--json"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        code = main(["analyze", "--subject", str(path),
                     "--checker", "div-zero", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len([f for f in payload["findings"] if f["feasible"]]) == 2
