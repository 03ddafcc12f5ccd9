"""Fusion's assembled conditions equal the nested construction's.

``tests/clone_oracle.py`` keeps the construction that renamed a callee
instance once per call level and then once more per frame.  For every
query of all four checkers, on two industrial registry subjects and the
first program of the ``scaled`` benchmark workload, under Algorithm 6
(``fusion``) and Algorithm 4 (``fusion-unopt``), this test builds the
condition with ``IrBasedSmtSolver.condition_of`` and with the oracle on
the same term manager.  Terms are hash-consed, so equal conditions are
the very same term objects in the same order.  The clone and quick-path
counts must agree as well.

Fusion builds each instance at its final name, so no ``rename`` it makes
while assembling a condition may see a variable that already carries a
context suffix (``@site`` or ``#f<fid>``).  The file takes about 8 s
on one CPU of a shared 2-vCPU host.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import pytest

from clone_oracle import nested_condition
from repro.bench.generator import SubjectSpec, generate_subject
from repro.bench.subjects import materialize
from repro.engine import AnalysisSession, EngineSettings
from repro.fusion.graph_solver import IrBasedSmtSolver
from repro.smt.terms import TermManager

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")
ENGINES = ("fusion", "fusion-unopt")


@lru_cache(maxsize=None)
def source_of(subject: str) -> str:
    if subject == "scaled-11":
        # The first program of perf/workloads.py's ``scaled`` workload.
        spec = SubjectSpec(name="scaled-11", seed=11, num_functions=216,
                           null_bugs=(1, 0, 0), taint23_bugs=(1, 0, 0),
                           taint402_bugs=(1, 0, 0), layers=6, avg_stmts=12,
                           call_fanout=2, loop_density=0.2)
        return generate_subject(spec).source
    return materialize(subject).source


@lru_cache(maxsize=None)
def compared_queries(subject: str, engine: str) -> tuple[list, list]:
    """Run all four checkers.  Returns, per query, (fused, nested)
    constraint lists and (fused, nested) counts; and every term Fusion
    renamed that already held a suffixed variable."""
    real_condition, real_rename = IrBasedSmtSolver.condition_of, \
        TermManager.rename
    seen, renamed_twice = [], []
    fusing = [False]

    def rename(self, term, suffix):
        if fusing[0] and any("@" in v.name or "#" in v.name
                             for v in term.free_vars()):
            renamed_twice.append(term)
        return real_rename(self, term, suffix)

    def checked(self, paths, the_slice, deadline=None):
        clones = self.stats.clones
        resolutions = self.stats.quickpath_resolutions
        fusing[0] = True
        try:
            fused = real_condition(self, paths, the_slice, deadline)
        finally:
            fusing[0] = False
        counts = (self.stats.clones - clones,
                  self.stats.quickpath_resolutions - resolutions)
        nested, oracle = nested_condition(self, paths, the_slice)
        seen.append((fused, nested, counts,
                     (oracle.clones, oracle.quickpath_resolutions)))
        return fused

    with mock.patch.object(IrBasedSmtSolver, "condition_of", checked), \
            mock.patch.object(TermManager, "rename", rename):
        session = AnalysisSession(source_of(subject),
                                  settings=EngineSettings(engine=engine))
        for checker in CHECKERS:
            session.analyze(checker)
    return seen, renamed_twice


SUBJECTS = ("ffmpeg", "mysql", "scaled-11")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_conditions_match_the_nested_construction(subject, engine):
    queries, _ = compared_queries(subject, engine)
    assert queries
    for fused, nested, counts, oracle_counts in queries:
        assert len(fused) == len(nested)
        assert all(a is b for a, b in zip(fused, nested))
        assert counts == oracle_counts
    if engine == "fusion-unopt":
        assert any(counts[0] for _, _, counts, _ in queries)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_fusion_renames_no_term_twice(subject, engine):
    _, renamed_twice = compared_queries(subject, engine)
    assert renamed_twice == []
