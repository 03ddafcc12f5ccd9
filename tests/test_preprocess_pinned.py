"""Preprocessing and condition cloning are pinned term for term.

Terms are interned in the order the term operations visit them, and a
term's id decides commutative argument order in the rewriter, variable
numbering in the bit-blaster and therefore the SAT search
(docs/solver.md, "Terms").  Witness output cannot catch a drift in that
order: the same bugs are usually found with other ids.  So this test
pins what the order produces on real path conditions, as recorded
before the term walks were rewritten for speed:

* a digest over every ``Preprocessor.run`` (verdict, the residual DAG as
  (tid, op, arg tids, payload, sort) and the pass statistics) and every
  ``SatSolver.solve`` (status, conflicts, clauses, variables, model);
* the number of terms each session's manager holds after all four
  checkers ran.

The values were re-recorded once since, on purpose: when Fusion began
to build each cloned instance at its final name instead of renaming it
once per call level and again per frame, the intermediate terms stopped
being interned, so ids after them and the managers' sizes moved (ffmpeg
13,469 -> 7,811 terms).  The assembled conditions are the same terms in
the same order (``tests/test_clone_oracle.py``), and the findings,
witnesses included, stayed byte-identical on every registry subject.

They were re-recorded a second time when ``BitBlaster.solve`` began to
seed the input bits' VSIDS activity before the search (docs/solver.md,
"Branching order").  Term ids and manager sizes did not move, but the
SAT searches did: vortex ``35bb3a2dfa75442f`` -> ``3c3465103e5b17cd``,
twolf ``b8dd4c5c9b884b3b`` -> ``5bda789f7cf5fe70``, v8
``85544441866cb04e`` -> ``8d4777708d73280c``.  ffmpeg's digest stayed
``56f6bcdf02d34a14``.  Verdicts stayed identical; only witness values
moved.

They were re-recorded a third time when Algorithm 6 stopped running
Gaussian elimination on templates (docs/solver.md, "Template passes").
Templates keep their linear rows, so different terms are interned and
more queries are decided in preprocessing: vortex
``3c3465103e5b17cd``/4,464 -> ``416db1550d97c27a``/5,527, twolf
``5bda789f7cf5fe70``/2,884 -> ``e3ac9f03ec78799e``/3,268, ffmpeg
``56f6bcdf02d34a14``/7,811 -> ``7e151d905500c442``/6,607, v8
``8d4777708d73280c``/4,767 -> ``a0b94ba1788e757b``/4,486 (digest/manager
size).  Verdicts stayed identical; witness values and ``decided_by``
moved.

They were re-recorded a fourth time when constant propagation began to
resolve a binding constraint against its variable's constant instead of
substituting into it (docs/solver.md, "Cost").  Throwaway terms such as
``(= k k)`` stopped being interned, so ids after the first of them
shifted down, while every surviving term kept its relative creation
order: vortex ``416db1550d97c27a``/5,527 -> ``1156bc27fd442ce6``/5,522,
twolf ``e3ac9f03ec78799e``/3,268 -> ``4469ad33f3907411``/3,261, ffmpeg
``7e151d905500c442``/6,607 -> ``ef19b16d5fc0441c``/6,550, v8
``a0b94ba1788e757b``/4,486 -> ``bc692e11b4772460``/4,462.  Findings,
witnesses and ``decided_by`` stayed byte-identical
(``tests/test_findings_golden.py``).

A drift here is a behaviour change, never noise.  To print fresh values
(only if the change of ids is intended), run::

    PYTHONPATH=src python tests/test_preprocess_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import pytest

from repro.bench.subjects import materialize
from repro.engine import AnalysisSession
from repro.smt.preprocess import Preprocessor
from repro.smt.sat import SatSolver

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")


def residual_dag(constraints) -> tuple[list, list]:
    """(root tids, every reachable node as (tid, op, arg tids, payload,
    sort) in tid order) of a residual constraint set."""
    nodes = {}
    stack = list(constraints)
    while stack:
        term = stack.pop()
        if term.tid not in nodes:
            nodes[term.tid] = (term.tid, term.op.value,
                               tuple(arg.tid for arg in term.args),
                               term.payload, repr(term.sort))
            stack.extend(term.args)
    return [c.tid for c in constraints], [nodes[t] for t in sorted(nodes)]


def session_record(source: str, checkers=CHECKERS) -> tuple[str, int]:
    """(digest, final manager size) of one session running ``checkers``
    in order, as ``repro analyze`` does with its defaults."""
    digest = hashlib.sha256()
    run, solve = Preprocessor.run, SatSolver.solve

    def recorded_run(self, constraints, deadline=None):
        result = run(self, constraints, deadline)
        digest.update(repr((result.verdict.value,
                            residual_dag(result.constraints),
                            dataclasses.astuple(result.stats))).encode())
        return result

    def recorded_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        digest.update(repr((result.status.value, result.conflicts,
                            self.num_clauses, self.num_vars,
                            sorted(result.model.items()))).encode())
        return result

    with mock.patch.object(Preprocessor, "run", recorded_run), \
            mock.patch.object(SatSolver, "solve", recorded_solve):
        session = AnalysisSession(source)
        for checker in checkers:
            session.analyze(checker)
    return digest.hexdigest()[:16], len(session.engine.transformer.manager)


PINNED = {
    "vortex": ("1156bc27fd442ce6", 5522),
    "twolf": ("4469ad33f3907411", 3261),
    "ffmpeg": ("ef19b16d5fc0441c", 6550),
    "v8": ("bc692e11b4772460", 4462),
}


@pytest.mark.parametrize("subject", sorted(PINNED))
def test_preprocessing_and_cloning_are_pinned(subject):
    assert session_record(materialize(subject).source) == PINNED[subject]


if __name__ == "__main__":
    for name in ("vortex", "twolf", "ffmpeg", "v8"):
        print(f"    {name!r}: {session_record(materialize(name).source)!r},")
