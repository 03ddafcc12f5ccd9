"""Tests for the subject registry, metrics, runner, and reporting."""

import pytest

from repro.bench import (SUBJECTS, PrecisionRecall, evaluate_reports,
                         industrial_subjects, materialize, render_table,
                         run_engine, speedup, subject_by_name)
from repro.bench.reporting import (fmt_failure, render_memory_breakdown,
                                   render_scatter_summary)
from repro.checkers.base import AnalysisResult, BugCandidate, BugReport


class TestRegistry:
    def test_sixteen_subjects(self):
        assert len(SUBJECTS) == 16
        assert [s.id for s in SUBJECTS] == list(range(1, 17))

    def test_names_match_paper(self):
        names = [s.name for s in SUBJECTS]
        assert names[0] == "mcf" and names[15] == "wine"
        assert "ffmpeg" in names and "v8" in names

    def test_industrial_are_last_four(self):
        assert [s.name for s in industrial_subjects()] == \
            ["ffmpeg", "v8", "mysql", "wine"]

    def test_industrial_subjects_carry_taint_bugs(self):
        for subject in industrial_subjects():
            assert sum(subject.spec.taint23_bugs) > 0
            assert sum(subject.spec.taint402_bugs) > 0

    def test_spec_subjects_do_not(self):
        assert sum(subject_by_name("mcf").spec.taint23_bugs) == 0

    def test_unknown_subject_raises(self):
        with pytest.raises(KeyError):
            subject_by_name("doom")

    def test_materialize_cached(self):
        assert materialize("mcf") is materialize("mcf")

    def test_sizes_grow_with_id(self):
        locs = [materialize(s.name).loc for s in SUBJECTS]
        assert locs[0] < locs[7] < locs[15]


class TestMetrics:
    @staticmethod
    def fake_result(bug_functions):
        from repro.bench import pdg_for
        pdg = pdg_for("mcf")
        result = AnalysisResult("x", "null-deref")
        for fn in bug_functions:
            vertex = next(v for v in pdg.vertices if v.function == fn)
            path = __import__("repro.baselines.infer",
                              fromlist=["_stub_path"])._stub_path(
                vertex, vertex)
            result.reports.append(
                BugReport(BugCandidate("null-deref", path), feasible=True))
        return result

    def test_tp_fp_classification(self):
        subject = materialize("mcf")
        truth = subject.truth_for("null-deref")
        real = [b for b in truth if b.real]
        fake = [b for b in truth if not b.real]
        assert real and fake  # mcf injects (1, 0, 1)

        result = self.fake_result([real[0].source_function,
                                   fake[0].source_function])
        metrics = evaluate_reports(subject, result)
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.missed_real == 0

    def test_unmatched_report_is_fp(self):
        subject = materialize("mcf")
        result = self.fake_result(["fn_l0_0"])
        metrics = evaluate_reports(subject, result)
        assert metrics.false_positives == 1

    def test_missed_real_counted(self):
        subject = materialize("mcf")
        result = AnalysisResult("x", "null-deref")
        metrics = evaluate_reports(subject, result)
        assert metrics.missed_real == \
            sum(1 for b in subject.truth_for("null-deref") if b.real)

    def test_fp_rate(self):
        pr = PrecisionRecall(reports=4, true_positives=1, false_positives=3)
        assert pr.fp_rate == 0.75
        assert PrecisionRecall().fp_rate == 0.0


class TestRunner:
    def test_run_engine_end_to_end(self):
        outcome = run_engine("mcf", "fusion", "null-deref")
        assert outcome.failed is None
        row = outcome.row()
        assert row["subject"] == "mcf" and row["engine"] == "fusion"
        assert row["tp"] >= 1

    def test_engines_share_the_pdg(self):
        from repro.bench import pdg_for
        assert pdg_for("mcf") is pdg_for("mcf")

    def test_unknown_engine_rejected(self):
        from repro.bench import pdg_for
        from repro.engine import build_engine
        with pytest.raises(ValueError):
            build_engine("nonsense", pdg_for("mcf"), want_model=False,
                         budget=None)

    def test_variant_engine_construction(self):
        from repro.bench import pdg_for
        from repro.engine import build_engine
        engine = build_engine("pinpoint+lfs", pdg_for("mcf"),
                              want_model=False, budget=None)
        assert engine.name == "pinpoint+LFS"

    def test_query_records_captured(self):
        outcome = run_engine("mcf", "fusion", "null-deref")
        assert len(outcome.query_records) == outcome.result.smt_queries

    def test_exec_config_reaches_the_scheduler(self):
        from repro.exec import ExecConfig, FaultPlan, Telemetry
        telemetry = Telemetry()
        outcome = run_engine(
            "mcf", "fusion", "null-deref", telemetry=telemetry,
            exec_config=ExecConfig(
                fault_plan=FaultPlan(raise_on_query=frozenset({0}))))
        assert outcome.row()["errors"] == 1
        assert [record.error is not None
                for record in outcome.query_records] == [True, False]
        assert telemetry.as_dict()["decided_by"]["error"] == 1
        assert telemetry.as_dict()["context"]["subject"] == "mcf"


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines
                    if "|" in line}) == 1

    def test_speedup_formatting(self):
        assert speedup(10, 1) == "10x"
        assert speedup(3, 2) == "1.5x"
        assert speedup(5, 0) == "-"

    def test_fmt_failure(self):
        assert fmt_failure("memory") == "Memory Out"
        assert fmt_failure("time") == "Timeout"
        assert fmt_failure(None) == ""

    def test_memory_breakdown_shares(self):
        text = render_memory_breakdown([("x", 75, 100), ("y", 10, 100)])
        assert "75%" in text and "10%" in text

    def test_scatter_summary(self):
        pairs = [(0.1, 0.3, "sat"), (0.2, 0.2, "sat"), (0.5, 0.6, "unsat")]
        text = render_scatter_summary(pairs)
        assert "sat: 2 instances" in text
        assert "unsat: 1 instances" in text
        assert "overall" in text
