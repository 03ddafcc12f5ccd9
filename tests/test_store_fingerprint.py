"""Golden store fingerprints for every path-sensitive engine.

The artifact store keys warm verdicts by the engine's
``_store_fingerprint(checker)`` (docs/caching.md).  The
warm-equals-cold differential suites cannot notice a dropped or renamed
key: a warm store would only cold-miss (or, worse, replay verdicts
across configurations).  These literal dicts pin every key and value, so
any change to the fingerprint shows up here as a deliberate edit.
"""

import pytest

from repro.checkers import NullDereferenceChecker
from repro.engine import ENGINE_CHOICES, build_engine
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source

SOURCE = "fun main(a) { p = null; if (a > 20) { deref(p); } return 0; }\n"

FOOTPRINT = ["null-deref", 1, [],
             ["deref", "load", "memcpy", "store", "strlen", "use_ptr"],
             True, False]

#: Keys every path-sensitive engine writes, at ``build_engine`` defaults.
SHARED = {
    "width": 8,
    "enabled_passes": None,
    "use_preprocess": True,
    "sparse": [2, 80, 50000, 2],
    "footprint": FOOTPRINT,
}

#: ``local_passes`` is recorded resolved: a store written while ``None``
#: meant every pass, Gaussian elimination included, cannot replay here.
FUSION = {"optimized": True, "use_quickpaths": True,
          "local_passes": ["constants", "equalities", "strength",
                           "unconstrained", "probing"],
          "want_model": False}

GOLDEN = {
    "fusion": {**SHARED, **FUSION, "engine": "fusion"},
    "fusion-unopt": {**SHARED, **FUSION, "engine": "fusion",
                     "optimized": False},
    "pinpoint": {**SHARED, "engine": "pinpoint", "summary_tactic": None,
                 "abstraction_refinement": False},
    "pinpoint+lfs": {**SHARED, "engine": "pinpoint+LFS",
                     "summary_tactic": "_lfs_tactic",
                     "abstraction_refinement": False},
    "pinpoint+hfs": {**SHARED, "engine": "pinpoint+HFS",
                     "summary_tactic": "_hfs_tactic",
                     "abstraction_refinement": False},
    "pinpoint+qe": {**SHARED, "engine": "pinpoint+QE",
                    "summary_tactic": "_qe_tactic",
                    "abstraction_refinement": False},
    "pinpoint+ar": {**SHARED, "engine": "pinpoint+AR",
                    "summary_tactic": None,
                    "abstraction_refinement": True},
}

PATH_SENSITIVE = [name for name in ENGINE_CHOICES if name != "infer"]


@pytest.fixture(scope="module")
def pdg():
    return prepare_pdg(compile_source(SOURCE, LoweringConfig()))


def test_every_path_sensitive_engine_is_pinned():
    assert sorted(GOLDEN) == sorted(PATH_SENSITIVE)


@pytest.mark.parametrize("name", PATH_SENSITIVE)
def test_fingerprint_without_triage(pdg, name):
    """The default fingerprint; the triage pass, loop summaries and
    their keys are gone."""
    engine = build_engine(name, pdg)
    assert engine._store_fingerprint(NullDereferenceChecker()) \
        == GOLDEN[name]


@pytest.mark.parametrize("name", PATH_SENSITIVE)
def test_fingerprint_incremental_unsparsified(pdg, name):
    """Witness extraction changes the fingerprint; solver sessions and
    sparsification, both gone, no longer do (no ``incremental`` or
    ``sparsify`` key)."""
    engine = build_engine(name, pdg, want_model=True)
    expected = dict(GOLDEN[name])
    if "want_model" in expected:
        expected["want_model"] = True
    assert engine._store_fingerprint(NullDereferenceChecker()) \
        == expected
