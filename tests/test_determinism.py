"""Run-to-run determinism of ``repro analyze`` output.

Two runs of the same analysis must produce byte-identical findings —
same report order, same JSON key order, same witness key order — both
run-to-run on one process, across fresh processes (the PDG and term
managers are rebuilt), and cold-vs-warm through the artifact store.
Wall-clock fields (``summary``'s ``0.01s``, telemetry's timings) are the
only sanctioned difference, so comparisons strip exactly those.
"""

import json
import tempfile

import pytest

from repro.bench import SubjectSpec, generate_subject
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


@pytest.fixture
def generated_file(tmp_path):
    spec = SubjectSpec("determinism", seed=9, num_functions=6, layers=3,
                       avg_stmts=5, call_fanout=2, null_bugs=(1, 1, 1))
    path = tmp_path / "gen.fl"
    path.write_text(generate_subject(spec).source)
    return str(path)


def run_analyze(capsys, *argv) -> str:
    code = main(["analyze", *argv])
    assert code in (0, 1)
    return capsys.readouterr().out


def findings_text(stdout: str) -> str:
    """Everything except the wall-time-bearing summary line(s)."""
    return "\n".join(line for line in stdout.splitlines()
                     if "mem units" not in line)


def findings_json(stdout: str) -> dict:
    payload = json.loads(stdout)
    del payload["summary"]  # contains wall time; the sole timing field
    return payload


class TestAnalyzeDeterminism:
    def test_text_output_is_byte_identical(self, source_file, capsys):
        first = run_analyze(capsys, "--subject", source_file)
        second = run_analyze(capsys, "--subject", source_file)
        assert findings_text(first) == findings_text(second)
        assert "[BUG]" in first

    def test_json_output_is_byte_identical(self, generated_file, capsys):
        first = run_analyze(capsys, "--subject", generated_file, "--json")
        second = run_analyze(capsys, "--subject", generated_file, "--json")
        # Byte-level on the serialised findings, not just value-level:
        # key order and formatting must be stable too.
        assert findings_text(first) == findings_text(second)
        assert json.dumps(findings_json(first), sort_keys=False) \
            == json.dumps(findings_json(second), sort_keys=False)

    def test_registry_subject_is_deterministic(self, capsys):
        first = run_analyze(capsys, "--subject", "mcf", "--json")
        second = run_analyze(capsys, "--subject", "mcf", "--json")
        assert findings_text(first) == findings_text(second)

    def test_warm_findings_match_cold_bytes(self, generated_file, tmp_path,
                                            capsys):
        with tempfile.TemporaryDirectory() as root:
            cold = run_analyze(capsys, "--subject", generated_file,
                               "--json", "--cache-dir", root,
                               "--telemetry", str(tmp_path / "cold.json"))
            warm = run_analyze(capsys, "--subject", generated_file,
                               "--json", "--cache-dir", root,
                               "--telemetry", str(tmp_path / "warm.json"))
        assert findings_json(cold)["findings"] \
            == findings_json(warm)["findings"]
        # Witness key order must survive the JSON round-trip through
        # the store (entries are written with sorted keys).
        for finding in findings_json(warm)["findings"]:
            keys = list(finding["witness"])
            assert keys == sorted(keys)
        # The warm run replays every verdict from the store instead of
        # solving it.
        cold_tel, warm_tel = (json.loads((tmp_path / name).read_text())
                              for name in ("cold.json", "warm.json"))
        assert cold_tel["store"]["store_hits"] == 0
        store = warm_tel["store"]
        assert store["store_hits"] == warm_tel["decided_by"]["store"] > 0, \
            warm_tel
        assert warm_tel["solver"]["total"] < cold_tel["solver"]["total"]


class TestTelemetryKeyOrder:
    def test_schema_and_key_order_are_stable(self, generated_file,
                                             tmp_path, capsys):
        outs = []
        for name in ("t1.json", "t2.json"):
            path = tmp_path / name
            run_analyze(capsys, "--subject", generated_file,
                        "--telemetry", str(path))
            outs.append(json.loads(path.read_text()))
        first, second = outs
        assert first["schema"] == SCHEMA
        assert list(first) == list(second)
        for section in ("spans", "solver", "store", "faults", "memory"):
            assert list(first[section]) == list(second[section])
        assert first["counters"] == second["counters"]


def test_spans_section_covers_the_run(tmp_path, capsys):
    """Every duration sits under ``spans``: one ``engine.analyze`` per
    run, one ``exec.query`` per solved query and one
    ``pdg.reduce.view`` per view built, with the inner layers inside the
    whole run."""
    path = tmp_path / "t.json"
    run_analyze(capsys, "--subject", "mcf", "--telemetry", str(path),
                "--cache-dir", str(tmp_path / "store"))
    document = json.loads(path.read_text())
    spans = document["spans"]
    assert spans["engine.analyze"]["count"] == 1
    assert spans["exec.query"]["count"] == document["solver"]["total"] > 0
    assert spans["pdg.reduce.view"]["count"] \
        == document["reduce"]["views_built"] == 1
    whole = spans["engine.analyze"]["seconds"]
    for name in ("sparse.collect", "exec.store.replay",
                 "exec.store.commit"):
        assert spans[name]["count"] == 1, name
        assert spans[name]["seconds"] <= whole, name
    assert "wall_seconds" not in document
