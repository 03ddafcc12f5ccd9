"""Every UNSAT answer of the SAT stage carries a checked proof.

The solver's learned clauses are a DRUP proof: each follows from the
problem clauses and the clauses learned before it by unit propagation,
and so does the empty clause once the search answers UNSAT.
``tests/rup.py`` checks that, sharing no code with the solver.

``SatSolver.solve`` is wrapped to snapshot the problem clauses and the
pending units on entry.  ``SatSolver._analyze`` is wrapped to record
every learned clause, units included, in order: the search loop binds
it at entry, and its return value is each learned clause.  So ``src/``
needs no hook.  Every SAT-stage UNSAT answer of ``fusion``,
``fusion-unopt`` and ``pinpoint``, over all four checkers on the 16
registry subjects, is checked.

The checker is tested too: pigeonhole proofs are accepted, and a proof
with one literal dropped from a lemma, or without the lemmas that lead
to its final conflict, is rejected.  A naive clause-scanning unit
propagation confirms that each mutated proof really is wrong.

The file takes about 15 s on one CPU of a shared 2-vCPU host.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import pytest

import test_smt_sat
from repro.bench.subjects import SUBJECTS, materialize
from repro.engine import AnalysisSession, EngineSettings
from repro.smt.sat import SatSolver, SatStatus
from rup import ProofError, check_refutation
from test_smt_sat import add_clauses

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")
ENGINES = ("fusion", "fusion-unopt", "pinpoint")
# Bound through the module so pytest does not collect the class here too.
pigeonhole = test_smt_sat.TestPigeonhole.pigeonhole


class ProofRecorder:
    """Records (problem clauses, learned clauses) of every UNSAT solve
    made while it is active."""

    def __init__(self) -> None:
        self.proofs: list[tuple[list[list[int]], list[list[int]]]] = []
        self._lemmas: list[list[int]] = []

    def __enter__(self) -> "ProofRecorder":
        solve, analyze = SatSolver.solve, SatSolver._analyze
        recorder = self

        def recorded_solve(solver, *args, **kwargs):
            problem = [list(clause) for clause in solver._clauses]
            problem += [[lit] for lit in solver._pending_units]
            if solver._unsat:
                problem.append([])
            recorder._lemmas = lemmas = []
            result = solve(solver, *args, **kwargs)
            if result.status is SatStatus.UNSAT:
                recorder.proofs.append((problem, lemmas))
            return result

        def recorded_analyze(solver, conflict):
            learned, back_level = analyze(solver, conflict)
            recorder._lemmas.append(list(learned))
            return learned, back_level

        self._patches = [mock.patch.object(SatSolver, "solve", recorded_solve),
                         mock.patch.object(SatSolver, "_analyze",
                                           recorded_analyze)]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc) -> None:
        for patch in reversed(self._patches):
            patch.stop()


def naive_implies(clauses, lemma) -> bool:
    """RUP by rescanning every clause until nothing propagates."""
    true = {-lit for lit in lemma}
    if any(-lit in true for lit in true):
        return True
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            free = [lit for lit in clause if -lit not in true]
            if not free:
                return True
            if len(free) == 1:
                true.add(free[0])
                changed = True
    return False


def pigeonhole_proof(holes):
    solver = SatSolver()
    add_clauses(solver, pigeonhole(holes))
    with ProofRecorder() as recorder:
        assert solver.solve().is_unsat
    [proof] = recorder.proofs
    return proof


class TestChecker:
    @pytest.mark.parametrize("holes", [5, 6])
    def test_pigeonhole_proofs_are_accepted(self, holes):
        clauses, lemmas = pigeonhole_proof(holes)
        assert lemmas
        check_refutation(clauses, lemmas)

    def test_a_lemma_missing_a_literal_is_rejected(self):
        clauses, lemmas = pigeonhole_proof(5)
        for index, lemma in enumerate(lemmas):
            for drop in range(len(lemma)):
                shorter = lemma[:drop] + lemma[drop + 1:]
                if not naive_implies(clauses + lemmas[:index], shorter):
                    mutated = lemmas[:index] + [shorter] + lemmas[index + 1:]
                    with pytest.raises(ProofError) as error:
                        check_refutation(clauses, mutated)
                    assert error.value.index == index
                    return
        pytest.fail("every lemma stays RUP with any one literal dropped")

    def test_a_proof_without_its_final_conflict_is_rejected(self):
        clauses, lemmas = pigeonhole_proof(5)
        # Drop the trailing units: with them the root assignment conflicts.
        cut = len(lemmas)
        while len(lemmas[cut - 1]) == 1:
            cut -= 1
        assert cut < len(lemmas)
        assert not naive_implies(clauses + lemmas[:cut], [])
        with pytest.raises(ProofError) as error:
            check_refutation(clauses, lemmas[:cut])
        assert error.value.index is None

    def test_an_unsat_problem_without_lemmas(self):
        check_refutation([[1, 2], [-1], [-2]], [])
        with pytest.raises(ProofError):
            check_refutation([[1, 2], [-1, 2]], [])


@lru_cache(maxsize=None)
def session_proofs(subject: str, engine: str):
    with ProofRecorder() as recorder:
        session = AnalysisSession(materialize(subject).source,
                                  settings=EngineSettings(engine=engine))
        for checker in CHECKERS:
            session.analyze(checker)
    return recorder


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("subject", [s.name for s in SUBJECTS])
def test_every_unsat_answer_has_a_checked_proof(subject, engine):
    for clauses, lemmas in session_proofs(subject, engine).proofs:
        check_refutation(clauses, lemmas)


@pytest.mark.parametrize("engine", ENGINES)
def test_the_registry_reaches_unsat_searches(engine):
    """The check above is not vacuous: SAT-stage UNSAT answers occur,
    and some of them needed conflicts."""
    proofs = [proof for subject in SUBJECTS
              for proof in session_proofs(subject.name, engine).proofs]
    assert proofs
    assert any(lemmas for _, lemmas in proofs)
