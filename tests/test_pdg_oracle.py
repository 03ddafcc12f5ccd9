"""The one-walk PDG builder against the two-pass builder it replaced.

``tests/pdg_oracle.py`` keeps the old construction.  On the fuzz
corpora, on every program the benchmark runs, on every registry subject
and on recursive programs after ``unroll_recursion``,
``repro.pdg.build_pdg`` must produce the oracle's PDG: vertex indices
and statements, every pred and succ list in order, control parents,
call sites, param and return vertices, and ``stats()``.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdg_oracle import oracle_pdg, pdg_shape
from repro.bench.generator import generate_subject
from repro.bench.subjects import SUBJECTS, materialize
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.pdg import build_pdg, unroll_recursion
from test_fuzz_lowering import ProgramFuzzer
from test_serve_differential import SEEDS, fuzz_source

PERF = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perf")

#: Appended to corpus programs: self and mutual recursion, one call
#: with a constant actual, one recursive call under a loop.
RECURSION = """
fun rq_self(n) {
  if (n < 1) { return 0; }
  m = rq_self(n - 1);
  return m + 1;
}
fun rq_even(n) {
  if (n == 0) { return 1; }
  r = rq_odd(n - 1);
  return r;
}
fun rq_odd(n) {
  if (n == 0) { return 0; }
  r = rq_even(n - 1);
  return r;
}
fun rq_loop(n) {
  i = 0;
  s = 0;
  while (i < n) { s = s + rq_loop(3); i = i + 1; }
  t = rq_even(s);
  return t;
}
"""


def assert_matches_oracle(program):
    assert pdg_shape(build_pdg(program)) == pdg_shape(oracle_pdg(program))


def perf_programs():
    sys.path.insert(0, PERF)
    try:
        import workloads
    finally:
        sys.path.remove(PERF)
    specs = [*workloads.oneshot_specs(), *workloads.scaled_specs(),
             workloads.edit_spec(), workloads.hover_spec()]
    return [pytest.param(spec, id=spec.name) for spec in specs]


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_corpus_matches_oracle(seed):
    assert_matches_oracle(compile_source(fuzz_source(seed)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_fuzzed_functions_match_oracle(seed):
    source = ProgramFuzzer(random.Random(seed)).function()
    assert_matches_oracle(
        compile_source(source, LoweringConfig(loop_unroll=2, width=8)))


@pytest.mark.parametrize("spec", perf_programs())
def test_benchmark_programs_match_oracle(spec):
    assert_matches_oracle(generate_subject(spec).program)


@pytest.mark.parametrize("name", [subject.name for subject in SUBJECTS])
def test_registry_subjects_match_oracle(name):
    assert_matches_oracle(materialize(name).program)


@pytest.mark.parametrize("seed", SEEDS[:5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_unrolled_recursion_matches_oracle(seed, depth):
    program = compile_source(fuzz_source(seed) + RECURSION)
    with pytest.raises(ValueError, match="recursion"):
        build_pdg(program)
    unrolled = unroll_recursion(program, depth)
    assert unrolled is not program
    assert_matches_oracle(unrolled)


def test_prepare_pdg_unrolls_like_the_oracle():
    program = compile_source(fuzz_source(SEEDS[0]) + RECURSION)
    built, oracle = prepare_pdg(program), oracle_pdg(unroll_recursion(program))
    assert [(v.index, v.function, repr(v.stmt)) for v in built.vertices] \
        == [(v.index, v.function, repr(v.stmt)) for v in oracle.vertices]
    assert pdg_shape(built)[1:] == pdg_shape(oracle)[1:]
