"""Smoke tests: every shipped example runs green and prints what its
docstring promises."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "BUG" in proc.stdout
        assert "infeasible (filtered)" in proc.stdout

    def test_compare_engines(self):
        proc = run_example("compare_engines.py", "7")
        assert proc.returncode == 0, proc.stderr
        for engine in ("fusion", "pinpoint", "infer"):
            assert engine in proc.stdout

    def test_taint_audit(self):
        proc = run_example("taint_audit.py")
        assert proc.returncode == 0, proc.stderr
        assert "cwe-23: 1 finding(s)" in proc.stdout
        assert "cwe-402: 1 finding(s)" in proc.stdout
        assert "[filtered]" in proc.stdout

    def test_smt_playground(self):
        proc = run_example("smt_playground.py")
        assert proc.returncode == 0, proc.stderr
        assert "preprocessing verdict: sat" in proc.stdout
        assert "model checks out" in proc.stdout

    def test_whole_program_scan(self):
        proc = run_example("whole_program_scan.py", "5")
        assert proc.returncode == 0, proc.stderr
        assert "Whole-program scan summary" in proc.stdout
        assert "Findings:" in proc.stdout

    def test_custom_checker(self):
        proc = run_example("custom_checker.py")
        assert proc.returncode == 0, proc.stderr
        assert "sqli: 1 finding(s)" in proc.stdout
        assert "[filtered]" in proc.stdout
