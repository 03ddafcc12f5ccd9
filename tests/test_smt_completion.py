"""Memoized model completion against the per-step completion.

``tests/completion_oracle.py`` keeps the completion that walked each
step's definition twice with fresh caches (``free_vars``, then
``evaluate``).  ``complete_model`` shares one evaluation memo across the
whole replay; a memoized value is never stale because a step's
definition was recorded after every variable eliminated before it had
been substituted out.  Both must build the same model:

* for every query the engines complete on the programs of the pipeline
  ground-truth property (``tests/test_pipeline_ground_truth.py``) and
  on two registry subjects whose witnesses come from preprocessing and
  from SAT models;
* for random constraint sets and random models of their residuals;
* on the equality and binding chains of ``tests/test_smt_preprocess.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.subjects import materialize
from repro.engine import AnalysisSession
from repro.smt import Preprocessor, TermManager, semantics
from completion_oracle import checked_completions, oracle_complete_model
from strategies import WIDTH, bool_terms, bv_terms, make_manager
from test_pipeline_ground_truth import CHECKERS, programs, session
from test_smt_preprocess import _binding_chain, _equality_chain


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=programs())
def test_engine_completions_match_the_oracle(source):
    with checked_completions():
        for engine in ("fusion", "pinpoint"):
            analysis = session(source, engine)
            for checker in CHECKERS:
                analysis.analyze(checker)


@pytest.mark.parametrize("subject", ["ffmpeg", "parser"])
def test_subject_completions_match_the_oracle(subject):
    with checked_completions() as checked:
        analysis = AnalysisSession(materialize(subject).source)
        for checker in CHECKERS:
            analysis.analyze(checker)
    assert checked[0] > 0


@st.composite
def residual_runs(draw):
    """A preprocessed constraint set and two models of its residual's
    variables (any values: completion is defined for every model)."""
    manager, bv_vars, bool_vars = make_manager()
    bvs = bv_terms(manager, bv_vars, st.sampled_from(bool_vars))
    definitions = st.tuples(st.sampled_from(bv_vars), bvs).map(
        lambda pair: manager.eq(*pair))
    constraints = draw(st.lists(
        st.one_of(bool_terms(manager, bv_vars, bool_vars), definitions),
        min_size=1, max_size=4))
    result = Preprocessor(manager).run(constraints)
    residual = sorted({var for c in result.constraints
                       for var in c.free_vars()}, key=lambda v: v.tid)
    models = [{var: draw(st.integers(0, 1 if var.sort.is_bool
                                     else (1 << WIDTH) - 1))
               for var in residual} for _ in range(2)]
    return result, models


@settings(max_examples=150, deadline=None)
@given(residual_runs())
def test_random_completions_match_the_oracle(run):
    """Two replays of one result: neither may see the other's values."""
    result, models = run
    for model in models:
        assert result.complete_model(model) == \
            oracle_complete_model(result, model)


@pytest.mark.parametrize("passes", [None, ("constants", "equalities")])
@pytest.mark.parametrize("chain", [_equality_chain, _binding_chain])
def test_chain_completions_match_the_oracle(chain, passes):
    manager = TermManager()
    result = Preprocessor(manager, enabled=passes).run(chain(manager))
    residual = {var for c in result.constraints for var in c.free_vars()}
    for value in (0, 1, 200):
        model = {var: value for var in residual}
        assert result.complete_model(model) == \
            oracle_complete_model(result, model)


def test_the_replay_evaluates_each_node_once(monkeypatch):
    """Two eliminated definitions share ``a * b``: it is evaluated once."""
    manager = TermManager()
    a, b, x, y = (manager.bv_var(name, 8) for name in "abxy")
    shared = manager.bvmul(a, b)
    result = Preprocessor(manager).run([
        manager.eq(x, shared),
        manager.eq(y, manager.bvadd(shared, manager.bv_const(1, 8))),
        manager.ult(x, y)])
    assert result.stats.equalities_propagated == 2
    evaluated = []
    eval_node = semantics.eval_node

    def spy(node, assignment, cache):
        evaluated.append(node.tid)
        return eval_node(node, assignment, cache)

    monkeypatch.setattr(semantics, "eval_node", spy)
    model = result.complete_model({})
    assert evaluated.count(shared.tid) == 1
    assert len(evaluated) == len(set(evaluated))
    monkeypatch.undo()
    assert model == oracle_complete_model(result, {})
