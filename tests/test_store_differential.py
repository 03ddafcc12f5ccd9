"""Differential suite: warm re-analysis never changes the report list.

For 25 seeded generator programs, a cold ``--cache-dir`` run is followed
by warm runs against four mutation kinds — no-op whitespace, a
single-function body edit, a function added, a function deleted — and
each warm result must equal a from-scratch cold run on the mutated
program.  The no-op and single-edit cases additionally pin replay per
entry: the no-op replays everything, and a body edit that leaves the
function's interface (quick-path summary, parameters, return variable)
unchanged replays exactly the candidates whose cold entry did not read
the edited function's body.
"""

import json
import os
import re
import tempfile

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.exec import ArtifactStore, Telemetry
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.smt.solver import DecidedBy

SEEDS = list(range(25))

EXTRA_FUNCTION = ("\nfun zzz_added(a, b) {\n  v1 = a + b;\n"
                  "  return v1 * 2 + 1;\n}\n")


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("store-diff", seed=seed, num_functions=5,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return generate_subject(spec).source


def analyze(source: str, store=None):
    return analyze_with_engine(source, store)[0]


def analyze_with_engine(source: str, store=None):
    pdg = prepare_pdg(compile_source(source, LoweringConfig()))
    engine = FusionEngine(pdg)
    return engine.analyze(NullDereferenceChecker(), store=store), engine


def stored_entries(root: str) -> dict[str, dict]:
    """Every entry in the store, by key."""
    entries = {}
    for dirpath, _dirs, files in os.walk(os.path.join(root, "objects")):
        for name in files:
            with open(os.path.join(dirpath, name)) as handle:
                entries[name[:-len(".json")]] = json.load(handle)
    return entries


def report_key(result):
    """Order-sensitive, index-free report identity."""
    return [(r.feasible, r.source.function, repr(r.source.stmt),
             r.sink.function, repr(r.sink.stmt),
             tuple(sorted(r.witness.items())))
            for r in result.reports]


def whitespace_noop(source: str) -> tuple[str, str]:
    return "\n\n" + source.replace("\n}", "\n}\n") + "\n", ""


def body_edit(source: str) -> tuple[str, str]:
    """Insert an unused statement at the top of the first function —
    content changes, interface (summary/params/return) does not."""
    match = re.search(r"fun (\w+)\([^)]*\) \{\n", source)
    assert match is not None
    edited = (source[:match.end()] + "  zq_edit = 7;\n"
              + source[match.end():])
    return edited, match.group(1)


def add_function(source: str) -> tuple[str, str]:
    return source + EXTRA_FUNCTION, "zzz_added"


def delete_function(source: str) -> tuple[str, str]:
    """The cold run sees source+extra; the warm run sees it deleted."""
    return source, "zzz_added"


@pytest.mark.parametrize("seed", SEEDS)
def test_noop_whitespace_replays_everything(seed):
    src = fuzz_source(seed)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        cold = analyze(src, store=store)
        assert cold.candidates > 0, "fuzz spec generated no candidates"
        mutated, _ = whitespace_noop(src)
        warm = analyze(mutated, store=store)
        stats = store.last_run
        assert stats.hits == warm.candidates
        assert warm.smt_queries == 0
        assert warm.replayed_verdicts == warm.candidates
        assert report_key(warm) == report_key(cold)


@pytest.mark.parametrize("seed", SEEDS)
def test_single_function_edit_dirties_exactly_that_function(seed):
    src = fuzz_source(seed)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        analyze(src, store=store)
        cold_entries = stored_entries(root)
        mutated, edited_fn = body_edit(src)
        warm, engine = analyze_with_engine(mutated, store=store)
        stats = store.last_run
        assert report_key(warm) == report_key(analyze(mutated))
        assert stats.hits + stats.invalidations + stats.misses \
            == warm.candidates
        # A candidate replays exactly when its cold entry exists and
        # did not read the edited function's body.
        checker = NullDereferenceChecker()
        binding = store.bind(engine.pdg, engine._store_fingerprint(checker),
                             checker.name, Telemetry())
        assert len(warm.reports) == warm.candidates
        for report in warm.reports:
            entry = cold_entries.get(binding.candidate_key(report.candidate))
            assert (report.decided_by is DecidedBy.STORE) == (
                entry is not None
                and edited_fn not in entry["deps"]["content"])


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_warm_equals_mutated_cold(seed):
    """The rotated mutation ladder: every warm run must agree with a
    from-scratch run on the mutated program, byte for byte at the
    report level."""
    src = fuzz_source(seed)
    mutate = (body_edit, add_function, delete_function)[seed % 3]
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        cold_src = src + EXTRA_FUNCTION if mutate is delete_function \
            else src
        analyze(cold_src, store=store)
        mutated, _ = mutate(src)
        warm = analyze(mutated, store=store)
        stats = store.last_run
        if mutate in (add_function, delete_function):
            # Nothing calls the added or deleted function, so no entry
            # read it.
            assert stats.hits == warm.candidates
            assert warm.smt_queries == 0
        fresh = analyze(mutated)
        assert report_key(warm) == report_key(fresh)
        assert warm.candidates == fresh.candidates
