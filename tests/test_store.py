"""Unit and integration tests for the persistent artifact store.

Contract under test (`repro.exec.store`, docs/caching.md):

* content keys are stable under formatting and unrelated-function edits,
  and sensitive to any body change;
* a warm run on an unchanged program replays every verdict with zero
  SMT queries and an identical report list;
* invalidation is per-entry and dependency-exact — editing one function
  re-solves only candidates whose recorded deps touch it;
* UNKNOWN verdicts are never persisted;
* any corrupted store file degrades to a miss, never an error.
"""

import json
import os
import re

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.exec import ArtifactStore, Telemetry
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.lang.fingerprint import function_key
from repro.smt.solver import DecidedBy, SmtStatus


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("store-unit", seed=seed, num_functions=5,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return generate_subject(spec).source


def program_of(source: str):
    return compile_source(source, LoweringConfig())


def program_keys(program) -> dict[str, str]:
    """Content key per defined function, derived from scratch."""
    return {name: function_key(fn, program.width)
            for name, fn in program.functions.items()}


def edit_one_constant(source: str) -> str:
    """Bump the first additive constant in the source (a body edit that
    touches exactly one function)."""
    edited, count = re.subn(r"\+ (\d+);",
                            lambda m: f"+ {int(m.group(1)) + 1};",
                            source, count=1)
    assert count == 1, "generator produced no additive constant"
    return edited


def analyze(source: str, store=None, telemetry=None):
    engine = FusionEngine(prepare_pdg(program_of(source)))
    return engine.analyze(NullDereferenceChecker(), store=store,
                          telemetry=telemetry)


def report_key(result):
    return [(r.feasible, r.source.function, repr(r.source.stmt),
             r.sink.function, repr(r.sink.stmt),
             tuple(sorted(r.witness.items())))
            for r in result.reports]


# --------------------------------------------------------------------- #
# Content keys
# --------------------------------------------------------------------- #


class TestFingerprints:
    def test_stable_under_whitespace_and_comments(self):
        src = fuzz_source(3)
        noisy = "# header comment\n" + src.replace("\n", "\n\n", 5)
        assert program_keys(program_of(src)) \
            == program_keys(program_of(noisy))

    def test_unrelated_edit_leaves_other_keys_alone(self):
        src = fuzz_source(4)
        program = program_of(src)
        edited = program_of(edit_one_constant(src))
        before = program_keys(program)
        after = program_keys(edited)
        assert before != after
        changed = [fn for fn in before if before[fn] != after.get(fn)]
        assert len(changed) == 1

    def test_sensitive_to_width(self):
        program = program_of(fuzz_source(5))
        fn = next(iter(program.functions.values()))
        assert function_key(fn, 8) != function_key(fn, 16)


# --------------------------------------------------------------------- #
# Warm replay
# --------------------------------------------------------------------- #


class TestWarmReplay:
    def test_unchanged_program_replays_everything(self, tmp_path):
        src = fuzz_source(11)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        assert cold.candidates > 0
        assert store.last_run.hits == 0
        assert store.last_run.committed == cold.candidates

        warm = analyze(src, store=store)
        stats = store.last_run
        assert warm.smt_queries == 0
        assert warm.replayed_verdicts == warm.candidates
        assert stats.hits == cold.candidates
        assert stats.misses == 0 and stats.invalidations == 0
        assert stats.committed == 0
        assert report_key(warm) == report_key(cold)
        assert all(r.decided_by is DecidedBy.STORE for r in warm.reports)

    def test_replay_counts_flow_into_telemetry(self, tmp_path):
        src = fuzz_source(12)
        store = ArtifactStore(str(tmp_path))
        analyze(src, store=store)
        telemetry = Telemetry()
        warm = analyze(src, store=store, telemetry=telemetry)
        section = telemetry.as_dict()["store"]
        assert section["store_hits"] == warm.candidates
        assert telemetry.as_dict()["decided_by"]["store"] == warm.candidates
        assert section["store_misses"] == 0
        assert set(section) == {
            "store_hits", "store_misses", "store_invalidations",
            "corrupt_entries", "quarantined", "io_errors"}

    def test_entries_of_an_older_schema_miss_and_resolve(self, tmp_path,
                                                         monkeypatch):
        """A store written under ``repro-exec-store/2``, before the SAT
        search seeded input bits first, holds witnesses a cold run no
        longer gives: every entry is an orphan, never replayed and never
        quarantined."""
        import repro.exec.store as store_module

        src = fuzz_source(14)
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_SCHEMA", "repro-exec-store/2")
            old = analyze(src, store=ArtifactStore(str(tmp_path)))
        written = TestCorruption()._object_files(str(tmp_path))
        assert len(written) == old.candidates > 0
        for path in written:
            with open(path) as handle:
                assert json.load(handle)["schema"] == "repro-exec-store/2"

        store = ArtifactStore(str(tmp_path))
        telemetry = Telemetry()
        warm = analyze(src, store=store, telemetry=telemetry)
        stats = store.last_run
        assert stats.hits == 0
        assert stats.misses == stats.committed == warm.candidates
        assert warm.smt_queries == warm.candidates
        assert telemetry.as_dict()["store"]["quarantined"] == 0
        assert [key[:5] for key in report_key(warm)] \
            == [key[:5] for key in report_key(old)]
        assert set(written) < set(TestCorruption()._object_files(
            str(tmp_path)))

    def test_different_config_never_shares_entries(self, tmp_path):
        src = fuzz_source(13)
        store = ArtifactStore(str(tmp_path))
        analyze(src, store=store)
        from repro.fusion import FusionConfig, GraphSolverConfig

        engine = FusionEngine(prepare_pdg(program_of(src)),
                              FusionConfig(solver=GraphSolverConfig(
                                  use_quickpaths=False)))
        engine.analyze(NullDereferenceChecker(), store=store)
        stats = store.last_run
        assert stats.hits == 0  # distinct config fingerprint, distinct keys
        assert stats.misses == stats.committed > 0


# --------------------------------------------------------------------- #
# Invalidation
# --------------------------------------------------------------------- #


class TestInvalidation:
    def test_edit_invalidates_only_dependents(self, tmp_path):
        src = fuzz_source(21)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        edited = edit_one_constant(src)
        warm = analyze(edited, store=store)
        stats = store.last_run
        assert stats.hits + stats.invalidations + stats.misses \
            == warm.candidates
        # The warm result must equal a from-scratch run on the edit.
        fresh = analyze(edited)
        assert report_key(warm) == report_key(fresh)
        assert warm.smt_queries + warm.replayed_verdicts \
            == cold.candidates or warm.candidates != cold.candidates

    def test_added_function_keeps_existing_verdicts(self, tmp_path):
        src = fuzz_source(22)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        grown = src + ("\nfun zzz_new(a, b) {\n  v1 = a + 1;\n"
                       "  return v1 * 2 + 1;\n}\n")
        warm = analyze(grown, store=store)
        stats = store.last_run
        assert report_key(warm) == report_key(cold)
        assert stats.hits == cold.candidates
        assert warm.smt_queries == 0

    def test_deleted_function_recorded_as_dirty(self, tmp_path):
        extra = ("\nfun zzz_new(a, b) {\n  v1 = a + 1;\n"
                 "  return v1 * 2 + 1;\n}\n")
        src = fuzz_source(23)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src + extra, store=store)
        warm = analyze(src, store=store)
        stats = store.last_run
        # Nothing called the deleted function, so no entry read it.
        assert stats.hits == warm.candidates == cold.candidates
        assert report_key(warm) == report_key(analyze(src))


# --------------------------------------------------------------------- #
# UNKNOWN verdicts and corruption
# --------------------------------------------------------------------- #


class TestUncacheable:
    def test_unknown_is_never_persisted(self, tmp_path):
        src = fuzz_source(31)
        store = ArtifactStore(str(tmp_path))
        pdg = prepare_pdg(program_of(src))
        binding = store.bind(pdg, {"engine": "fusion"}, "null-deref",
                             Telemetry())
        from repro.checkers.base import BugReport
        from repro.sparse.engine import collect_candidates

        candidates = collect_candidates(pdg, NullDereferenceChecker())
        assert candidates
        reports = {}
        pending = binding.replay(candidates, reports)
        assert pending == list(range(len(candidates)))
        for index, candidate in enumerate(candidates):
            reports[index] = BugReport(candidate, True)
            binding.observe(index, SmtStatus.UNKNOWN)
        binding.commit(candidates, reports)
        assert store.last_run.committed == 0
        # And the next run misses on everything.
        binding2 = store.bind(pdg, {"engine": "fusion"}, "null-deref",
                              Telemetry())
        assert binding2.replay(candidates, {}) \
            == list(range(len(candidates)))
        assert binding2.stats.misses == len(candidates)


class TestCorruption:
    def _object_files(self, root):
        out = []
        for dirpath, _dirs, files in os.walk(os.path.join(root, "objects")):
            out.extend(os.path.join(dirpath, f) for f in files)
        return sorted(out)

    @pytest.mark.parametrize("garbage", [
        "", "not json", '{"schema": "repro-exec-store/999"}',
        '["a", "list"]', '{"deps": 5, "report": null}',
    ])
    def test_corrupt_entries_degrade_to_miss(self, tmp_path, garbage):
        src = fuzz_source(41)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        for path in self._object_files(str(tmp_path)):
            with open(path, "w") as handle:
                handle.write(garbage)
        warm = analyze(src, store=store)
        assert store.last_run.hits == 0
        assert report_key(warm) == report_key(cold)
        # The rewrite repairs the store: the next run replays fully.
        again = analyze(src, store=store)
        assert again.smt_queries == 0

    def test_corrupt_state_file_means_cold_diff(self, tmp_path):
        """A store written by an older layout, with its per-function
        ``state/`` records (here garbage) and ``meta.json``, replays
        every verdict and leaves both files alone."""
        src = fuzz_source(42)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        leftovers = {
            os.path.join(str(tmp_path), "state", "0" * 32 + ".json"):
                b"{broken",
            os.path.join(str(tmp_path), "meta.json"):
                b'{"fingerprint_version":1,"schema":"repro-exec-store/2"}',
        }
        for path, body in leftovers.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(body)
        warm = analyze(src, store=ArtifactStore(str(tmp_path)))
        assert warm.smt_queries == 0
        assert warm.replayed_verdicts == cold.candidates
        for path, body in leftovers.items():
            with open(path, "rb") as handle:
                assert handle.read() == body

    def test_warm_run_reads_only_its_entries(self, tmp_path, monkeypatch):
        src = fuzz_source(44)
        store = ArtifactStore(str(tmp_path))
        cold = analyze(src, store=store)
        reads = []
        read = ArtifactStore._read_json

        def counting_read(self, path):
            reads.append(path)
            return read(self, path)

        monkeypatch.setattr(ArtifactStore, "_read_json", counting_read)
        warm = analyze(src, store=store)
        assert warm.smt_queries == 0
        assert len(reads) == warm.candidates == cold.candidates
        assert len(set(reads)) == len(reads)

    def test_store_dir_never_required(self, tmp_path):
        """A store rooted at an unwritable path degrades to no caching."""
        blocked = os.path.join(str(tmp_path), "flat")
        with open(blocked, "w") as handle:
            handle.write("a plain file where the store dir should be")
        store = ArtifactStore(blocked)
        src = fuzz_source(43)
        result = analyze(src, store=store)
        assert result.failure is None
        warm = analyze(src, store=store)
        assert report_key(warm) == report_key(result)


class TestEntryLayout:
    def test_entries_are_schema_tagged_checksummed_json(self, tmp_path):
        src = fuzz_source(51)
        store = ArtifactStore(str(tmp_path))
        analyze(src, store=store)
        files = TestCorruption()._object_files(str(tmp_path))
        assert files
        for path in files:
            with open(path) as handle:
                text = handle.read()
            payload = json.loads(text)
            assert payload["schema"] == "repro-exec-store/3"
            assert set(payload) >= {"deps", "report", "sha256"}
            assert text == json.dumps(payload, sort_keys=True,
                                      separators=(",", ":"))
            # The checksum covers the payload minus itself.
            import hashlib
            recorded = payload.pop("sha256")
            canonical = json.dumps(payload, sort_keys=True,
                                   separators=(",", ":"))
            assert recorded \
                == hashlib.sha256(canonical.encode()).hexdigest()
