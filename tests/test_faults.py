"""Unit tests for per-query deadlines and the fault-injection plumbing."""

import pickle
import time

import pytest

from repro.exec.faults import (DELAY_TICK_SECONDS, FaultPlan, FaultPolicy,
                               InjectedQueryError, WorkerCrash)
from repro.limits import Deadline, QueryDeadlineExceeded
from fault_plans import seeded_plan


class TestDeadline:
    def test_never_expires_without_limit(self):
        deadline = Deadline()
        assert not deadline.expired
        assert deadline.remaining() is None
        deadline.check()  # no raise

    def test_after_none_is_unlimited(self):
        assert Deadline.after(None).expires_at is None

    def test_zero_seconds_expires_immediately(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        with pytest.raises(QueryDeadlineExceeded):
            deadline.check("slicing")

    def test_check_names_the_stage(self):
        with pytest.raises(QueryDeadlineExceeded, match="slicing"):
            Deadline.after(0.0).check("slicing")

    def test_remaining_counts_down(self):
        deadline = Deadline.after(60.0)
        remaining = deadline.remaining()
        assert 0 < remaining <= 60.0
        assert not deadline.expired

    def test_picklable(self):
        deadline = Deadline.after(5.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expires_at == deadline.expires_at


class TestFaultPolicy:
    def test_defaults(self):
        policy = FaultPolicy()
        assert policy.on_error == "unknown"
        assert policy.query_timeout is None
        assert policy.max_retries == 2

    def test_rejects_unknown_error_mode(self):
        with pytest.raises(ValueError, match="on_error"):
            FaultPolicy(on_error="explode")

    def test_picklable(self):
        policy = FaultPolicy(on_error="abort", query_timeout=1.5)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        plan = FaultPlan()
        assert plan.describe() == "<empty>"
        plan.apply_query(0)          # no raise
        plan.crash_worker(0, 0, process_worker=False)  # no raise

    def test_parse_round_trips_describe(self):
        spec = "raise=3,7;delay=0:0.5;crash=1;crash-times=2"
        plan = FaultPlan.parse(spec)
        assert plan.raise_on_query == frozenset({3, 7})
        assert plan.delay_on_query == {0: 0.5}
        assert plan.crash_on_batch == frozenset({1})
        assert plan.crash_times == 2
        assert FaultPlan.parse(plan.describe()) == plan

    def test_parse_rejects_malformed(self):
        for bad in ("raise", "raise=x", "delay=0", "boom=1"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_raise_hook(self):
        plan = FaultPlan(raise_on_query=frozenset({2}))
        plan.apply_query(1)
        with pytest.raises(InjectedQueryError, match="query 2"):
            plan.apply_query(2)

    def test_delay_respects_deadline(self):
        plan = FaultPlan.parse("delay=0:30")
        start = time.monotonic()
        with pytest.raises(QueryDeadlineExceeded):
            plan.apply_query(0, Deadline.after(3 * DELAY_TICK_SECONDS))
        assert time.monotonic() - start < 1.0

    def test_crash_bounded_by_crash_times(self):
        plan = FaultPlan(crash_on_batch=frozenset({1}), crash_times=2)
        assert plan.crashes(1, 0) and plan.crashes(1, 1)
        assert not plan.crashes(1, 2)       # retries past the bound live
        assert not plan.crashes(0, 0)       # other batches untouched
        assert not plan.crashes(None, 0)    # unknown ordinal never crashes
        with pytest.raises(WorkerCrash):
            plan.crash_worker(1, 0, process_worker=False)
        plan.crash_worker(1, 2, process_worker=False)  # survives

    def test_seeded_is_reproducible_and_bounded(self):
        a = seeded_plan(7, num_queries=20, num_batches=4)
        b = seeded_plan(7, num_queries=20, num_batches=4)
        assert a == b
        assert a.raise_on_query and a.raise_on_query <= set(range(20))
        assert a.crash_on_batch <= set(range(4))
        assert seeded_plan(8, num_queries=20, num_batches=4) != a

    def test_picklable(self):
        plan = FaultPlan.parse("raise=1;delay=2:0.1;crash=0")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
