"""Store integrity under corruption and injected I/O faults.

Property (docs/robustness.md): no torn, truncated, bit-flipped or
EIO-failing store entry may ever crash the process or change a verdict.
Every defective read degrades to a counted quarantine/miss, the entry is
moved aside (never silently reused), and a warm re-analysis reproduces
the cold report list byte-for-byte.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import findings_payload
from repro.exec import ArtifactStore, FaultPlan, Telemetry
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from fault_plans import seeded_plan


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("integrity-unit", seed=seed, num_functions=4,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 0, 1))
    return generate_subject(spec).source


def analyze(source: str, store=None, telemetry=None):
    engine = FusionEngine(prepare_pdg(
        compile_source(source, LoweringConfig())))
    return engine.analyze(NullDereferenceChecker(), store=store,
                          telemetry=telemetry)


def object_files(root: str) -> list[str]:
    out = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, "objects")):
        out.extend(os.path.join(dirpath, name) for name in files)
    return sorted(out)


def quarantine_files(root: str) -> list[str]:
    quarantine = os.path.join(root, "quarantine")
    if not os.path.isdir(quarantine):
        return []
    return sorted(os.listdir(quarantine))


SOURCE = fuzz_source(7)


# --------------------------------------------------------------------- #
# Hypothesis: arbitrary truncation / bit flips
# --------------------------------------------------------------------- #


class TestCorruptionProperty:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_corruption_degrades_to_counted_quarantine(
            self, tmp_path_factory, data):
        tmp = str(tmp_path_factory.mktemp("store"))
        store = ArtifactStore(tmp)
        cold = analyze(SOURCE, store=store)
        assert cold.candidates > 0
        cold_findings = json.dumps(findings_payload(cold))

        files = object_files(tmp)
        assert files
        victim = files[data.draw(
            st.integers(min_value=0, max_value=len(files) - 1),
            label="victim")]
        with open(victim, "rb") as handle:
            body = handle.read()
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(
                st.integers(min_value=0, max_value=len(body) - 1),
                label="cut")
            mangled = body[:cut]
        else:
            position = data.draw(
                st.integers(min_value=0, max_value=len(body) - 1),
                label="bit_position")
            bit = 1 << data.draw(st.integers(min_value=0, max_value=7),
                                 label="bit")
            mangled = bytearray(body)
            mangled[position] ^= bit
            mangled = bytes(mangled)
        if mangled == body:
            return  # XOR with 0 shift can be the identity on repeat draws
        with open(victim, "wb") as handle:
            handle.write(mangled)

        telemetry = Telemetry()
        warm = analyze(SOURCE, store=store, telemetry=telemetry)
        # Never a crash, never a changed verdict.
        assert json.dumps(findings_payload(warm)) == cold_findings
        # The defective entry was counted and moved aside, never reused.
        assert store.integrity["corrupt_entries"] == 1
        assert store.integrity["quarantined"] == 1
        assert len(quarantine_files(tmp)) == 1
        section = telemetry.as_dict()["store"]
        assert section["corrupt_entries"] == 1
        assert section["quarantined"] == 1
        # The rewrite healed the store: the next run replays fully.
        healed = analyze(SOURCE, store=store)
        assert healed.smt_queries == 0


# --------------------------------------------------------------------- #
# Injected I/O faults (FaultPlan store sites)
# --------------------------------------------------------------------- #


class TestInjectedStoreFaults:
    def test_read_eio_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = analyze(SOURCE, store=store)
        faulted = ArtifactStore(
            str(tmp_path),
            fault_plan=FaultPlan(store_read_eio=frozenset({0, 1})))
        telemetry = Telemetry()
        warm = analyze(SOURCE, store=faulted, telemetry=telemetry)
        assert findings_payload(warm) == findings_payload(cold)
        assert faulted.integrity["read_errors"] == 2
        assert telemetry.as_dict()["store"]["io_errors"] == 2
        # EIO is transient, not corruption: nothing is quarantined.
        assert faulted.integrity["quarantined"] == 0

    def test_write_eio_degrades_to_uncached(self, tmp_path):
        store = ArtifactStore(
            str(tmp_path),
            fault_plan=FaultPlan(store_write_eio=frozenset({0})))
        cold = analyze(SOURCE, store=store)
        assert cold.failure is None
        assert store.integrity["write_errors"] >= 1
        # The dropped entry misses on the next run; the rest replay.
        warm = analyze(SOURCE, store=store)
        assert findings_payload(warm) == findings_payload(cold)

    def test_torn_and_flipped_writes_quarantine_on_read(self, tmp_path):
        store = ArtifactStore(
            str(tmp_path),
            fault_plan=FaultPlan(torn_write_on=frozenset({0}),
                                 bit_flip_on=frozenset({1})))
        cold = analyze(SOURCE, store=store)
        clean = ArtifactStore(str(tmp_path))
        warm = analyze(SOURCE, store=clean)
        assert findings_payload(warm) == findings_payload(cold)
        assert clean.integrity["corrupt_entries"] >= 1
        assert quarantine_files(str(tmp_path))

    def test_seeded_plans_cover_store_sites(self):
        plan = seeded_plan(9, num_queries=0, store_ops=8)
        assert plan.store_read_eio and plan.torn_write_on
        assert not (plan.torn_write_on & plan.bit_flip_on)
        spec = plan.describe()
        rebuilt = FaultPlan.parse(spec)
        assert rebuilt == plan
