"""Alg. 6 decides in preprocessing at least what Alg. 4 decides.

Algorithm 6 preprocesses each function's template once and clones only
what survives, so its assembled condition should never be harder for
query preprocessing than Algorithm 4's fully cloned one.  Gaussian
elimination on templates broke that on 12 registry cells: it rewrote
rows between interface variables, such as ``ret = x + c``, into
``k = sum(c_i * v_i)``, which query equality propagation cannot consume
(docs/solver.md, "Template passes").  This gate holds every (registry
subject, checker) cell to it.
"""

import pytest

from repro.bench import run_engine
from repro.bench.subjects import SUBJECTS
from repro.engine import CHECKER_FACTORIES


@pytest.mark.parametrize("checker", sorted(CHECKER_FACTORIES))
@pytest.mark.parametrize("subject", [s.name for s in SUBJECTS])
def test_alg6_decides_in_preprocessing_what_alg4_does(subject, checker):
    optimized = run_engine(subject, "fusion", checker).result
    cloned = run_engine(subject, "fusion-unopt", checker).result
    assert optimized.decided_in_preprocess >= cloned.decided_in_preprocess
