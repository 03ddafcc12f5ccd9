"""The bench gate: machine-independent benchmark cells, pinned.

Timing is bounded by ``perf/run.py`` in reference seconds; what this
gate pins are the counts that catch regressions on any machine — the
verdicts, query and clause counts, graph and region sizes — against the
committed expectations in ``tests/bench_gate.json``:

* **mcf × fusion × null-deref** (as ``repro bench`` runs it): the bench
  row and every query's SAT clause count;
* **ffmpeg × fusion × cwe-23** (the smallest registry subject with
  taint injections): the bench row, the full PDG's size and the cwe-23
  view's kept size, at least ``TAINT_EDGE_REDUCTION_FLOOR`` times fewer
  edges (docs/sparsification.md);
* **demand** on the same cell: every reported (source, sink) pair
  re-decided by ``run_demand_query``, its findings equal to the full
  run's, its region at most ``DEMAND_REGION_CEILING`` of the PDG
  (docs/queries.md);
* **loops**: the loop-heavy family, unrolled to the default bound: its
  program and PDG sizes and verdicts (docs/loops.md).

A drifted cell fails with its path, the expected and the fresh value.
If the drift is intended, regenerate the expectations with::

    PYTHONPATH=src python tests/test_bench_gate.py > tests/bench_gate.json
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import pdg_for, run_engine
from repro.engine import CHECKER_FACTORIES, build_engine, findings_payload
from repro.exec import Telemetry
from repro.fusion import prepare_pdg
from repro.lang import compile_source
from repro.pdg import build_view
from repro.query.engine import run_demand_query
from loop_corpus import LOOP_HEAVY_FAMILY, loop_heavy_source

EXPECTATIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "bench_gate.json")

#: The cwe-23 view must keep at least this many times fewer data edges
#: than the full PDG.
TAINT_EDGE_REDUCTION_FLOOR = 2.0

#: Every demand pair's region stays at most this share of the PDG's
#: vertices: a query touches a small corner of the graph.
DEMAND_REGION_CEILING = 0.25

#: Bench-row fields that are a function of the analysis, not the clock.
ROW_FIELDS = ("bugs", "reports", "tp", "fp", "memory_units",
              "condition_units", "queries", "unknown", "errors",
              "replayed", "failure")

LOOP_CHECKERS = ("null-deref", "div-zero")


def _row_cell(subject: str, checker: str) -> dict:
    outcome = run_engine(subject, "fusion", checker)
    row = outcome.row()
    cell = {name: row[name] for name in ROW_FIELDS}
    cell["sat_clauses"] = [record.sat_clauses
                           for record in outcome.query_records]
    return cell


def ffmpeg_cell() -> dict:
    cell = _row_cell("ffmpeg", "cwe-23")
    pdg = pdg_for("ffmpeg")
    view = build_view(pdg, CHECKER_FACTORIES["cwe-23"]()).stats()
    cell.update(pdg_nodes=pdg.num_vertices,
                pdg_data_edges=pdg.num_data_edges,
                view_nodes_kept=view["nodes_kept"],
                view_edges_kept=view["edges_kept"])
    return cell


def demand_cell() -> list[dict]:
    """Every (source, sink) pair the full ffmpeg × cwe-23 run reports,
    re-decided on demand on the same hot engine."""
    checker = CHECKER_FACTORIES["cwe-23"]()
    engine = build_engine("fusion", pdg_for("ffmpeg"), want_model=True)
    result = engine.analyze(checker)
    by_pair: dict[tuple[int, int], tuple] = {}
    for finding, report in zip(findings_payload(result), result.reports):
        key = (report.source.index, report.sink.index)
        by_pair.setdefault(key, (report, []))[1].append(finding)
    pairs = []
    for (source, sink), (sample, findings) in by_pair.items():
        verdict = run_demand_query(engine, checker, {sink}, {source},
                                   telemetry=Telemetry())
        pairs.append({
            "source": f"{sample.source.function}: {sample.source.stmt!r}",
            "sink": f"{sample.sink.function}: {sample.sink.stmt!r}",
            "feasible": verdict.feasible,
            # byte-for-byte, key order included (docs/queries.md)
            "matches_full": json.dumps(verdict.findings)
            == json.dumps(findings),
            "candidates": verdict.candidates,
            "smt_queries": verdict.smt_queries,
            "region_nodes": verdict.region_nodes,
            "region_edges": verdict.region_edges,
        })
    return pairs


def _loop_verdicts(findings: list[dict]) -> list[list]:
    """Which (source function, sink function) pairs are feasible."""
    return sorted([f["feasible"], f["source_function"],
                   f["sink_function"]] for f in findings)


def loops_cell() -> dict:
    cells = {}
    for name, seed in LOOP_HEAVY_FAMILY:
        source = loop_heavy_source(seed)
        program = compile_source(source)
        pdg = prepare_pdg(program)
        stats = pdg.stats()
        verdicts = {}
        for checker in LOOP_CHECKERS:
            engine = build_engine("fusion", pdg, want_model=True)
            result = engine.analyze(CHECKER_FACTORIES[checker]())
            verdicts[checker] = _loop_verdicts(findings_payload(result))
        cells[name] = {"unroll": {
            "program_size": program.size(),
            "pdg_nodes": stats["vertices"],
            "pdg_edges": stats["data_edges"] + stats["control_edges"],
            "verdicts": verdicts,
        }}
    return cells


def fresh_cells() -> dict:
    return {"mcf": _row_cell("mcf", "null-deref"), "ffmpeg": ffmpeg_cell(),
            "demand": demand_cell(), "loops": loops_cell()}


def _flatten(tree, path: str = "") -> dict:
    """{cell path: leaf value}; dicts and lists of dicts are walked,
    anything else (numbers, flags, clause and verdict lists) is a leaf."""
    if isinstance(tree, dict):
        children = ((f"{path}.{key}" if path else key, value)
                    for key, value in tree.items())
    elif isinstance(tree, list) and tree \
            and all(isinstance(item, dict) for item in tree):
        children = ((f"{path}[{index}]", item)
                    for index, item in enumerate(tree))
    else:
        return {path: tree}
    flat = {}
    for child_path, value in children:
        flat.update(_flatten(value, child_path))
    return flat


def render(cells: dict) -> str:
    """The expectation file: one ``"cell path": value`` line per cell."""
    return "{\n" + ",\n".join(
        f"  {json.dumps(path)}: {json.dumps(value)}"
        for path, value in _flatten(cells).items()) + "\n}"


@pytest.fixture(scope="module")
def fresh() -> dict:
    return fresh_cells()


def test_cells_match_expectations(fresh):
    with open(EXPECTATIONS) as handle:
        expected = json.load(handle)
    got = _flatten(fresh)
    missing = object()
    drifted = [f"{path}: expected {expected.get(path, missing)!r}, "
               f"got {got.get(path, missing)!r}"
               for path in sorted(expected.keys() | got.keys())
               if expected.get(path, missing) != got.get(path, missing)]
    assert not drifted, (
        "bench cells drifted from tests/bench_gate.json (regenerate it "
        "only if the change is intended):\n  " + "\n  ".join(drifted))


def test_taint_view_keeps_edge_reduction(fresh):
    cell = fresh["ffmpeg"]
    assert cell["pdg_data_edges"] >= \
        TAINT_EDGE_REDUCTION_FLOOR * cell["view_edges_kept"], cell


def test_demand_matches_full_run_in_small_regions(fresh):
    ceiling = DEMAND_REGION_CEILING * fresh["ffmpeg"]["pdg_nodes"]
    assert fresh["demand"]
    for pair in fresh["demand"]:
        assert pair["matches_full"], pair
        assert pair["region_nodes"] <= ceiling, pair


if __name__ == "__main__":
    print(render(fresh_cells()))
