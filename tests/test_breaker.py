"""Poison-group circuit breaker: state machine and scheduler wiring.

Contract (docs/robustness.md):

* K consecutive failure events for one ``(checker, sink)`` group open
  the breaker for that group — and only that group;
* while open, the group's queries are short-circuited to UNKNOWN
  outcomes carrying the breaker metadata (no worker time, no solver
  stats), yet the report list stays complete;
* after the cooldown one half-open probe runs: success closes the
  breaker (and the next run is byte-identical to an unbroken one),
  failure re-opens it;
* breaker state is owned by the session lifetime, and the scheduler
  consults it only in the parent process.
"""

import time

from repro.engine import findings_payload
from repro.exec import CircuitBreaker, ExecConfig, FaultPlan, Telemetry
from repro.fusion import FusionEngine, prepare_pdg
from repro.checkers import NullDereferenceChecker
from repro.lang import LoweringConfig, compile_source

import pytest

#: Two candidates in two distinct (checker, sink-function) groups: the
#: deref in ``main`` is feasible, the one in ``poison`` is infeasible.
SOURCE = """
fun poison(a) {
  p = null;
  if (a < a) { deref(p); }
  return a;
}
fun main(a, b) {
  q = null;
  c = poison(a);
  if (a < b) { deref(q); }
  return c;
}
"""


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# --------------------------------------------------------------------- #
# State machine (fake clock)
# --------------------------------------------------------------------- #


class TestStateMachine:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_trips_after_k_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        group = ("null-deref", "f")
        assert not breaker.record_failure(group)
        assert not breaker.record_failure(group)
        assert breaker.record_failure(group)  # the trip
        assert breaker.state(group) == "open"
        assert breaker.admit(group) == (False, False)
        assert breaker.open_count() == 1

    def test_success_resets_the_consecutive_counter(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        group = ("null-deref", "f")
        breaker.record_failure(group)
        breaker.record_success(group)
        assert not breaker.record_failure(group)  # count restarted
        assert breaker.state(group) == "closed"

    def test_groups_are_independent(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure(("null-deref", "a"))
        assert breaker.admit(("null-deref", "a")) == (False, False)
        assert breaker.admit(("null-deref", "b")) == (True, False)
        assert breaker.admit(("cwe-23", "a")) == (True, False)

    def test_half_open_probe_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=30.0, clock=clock)
        group = ("null-deref", "f")
        assert breaker.record_failure(group)
        assert breaker.admit(group) == (False, False)
        clock.now += 29.0
        assert breaker.admit(group) == (False, False)
        clock.now += 2.0
        assert breaker.admit(group) == (True, True)   # the probe
        assert breaker.state(group) == "half_open"
        # Only one probe per cooldown window.
        assert breaker.admit(group) == (False, False)

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        group = ("null-deref", "f")
        breaker.record_failure(group)
        clock.now += 11.0
        assert breaker.admit(group) == (True, True)
        assert breaker.record_success(group)  # recovery
        assert breaker.state(group) == "closed"
        assert breaker.admit(group) == (True, False)

        breaker.record_failure(group)
        clock.now += 11.0
        assert breaker.admit(group) == (True, True)
        assert breaker.record_failure(group)  # probe failed: re-trip
        assert breaker.state(group) == "open"
        assert breaker.admit(group) == (False, False)

    def test_abandoned_probe_is_retaken_after_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        group = ("null-deref", "f")
        breaker.record_failure(group)
        clock.now += 11.0
        assert breaker.admit(group) == (True, True)
        # The probing run dies without reporting.  Another cooldown later
        # the group probes again instead of wedging half-open forever.
        clock.now += 11.0
        assert breaker.admit(group) == (True, True)

    def test_describe_carries_the_metadata(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0,
                                 clock=FakeClock())
        group = ("null-deref", "sinkfn")
        breaker.record_failure(group)
        breaker.record_failure(group)
        message = breaker.describe(group)
        assert message.startswith("CircuitBreakerOpen:")
        assert "sinkfn" in message and "2 consecutive failures" in message

    def test_snapshot_is_json_friendly(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure(("null-deref", "f"))
        snapshot = breaker.snapshot()
        assert any(entry["state"] == "open"
                   for entry in snapshot.values())


# --------------------------------------------------------------------- #
# Scheduler integration
# --------------------------------------------------------------------- #


def make_engine():
    return FusionEngine(prepare_pdg(
        compile_source(SOURCE, LoweringConfig())))


def run(engine, breaker, fault_plan=None):
    telemetry = Telemetry()
    result = engine.analyze(
        NullDereferenceChecker(),
        exec_config=ExecConfig(jobs=1, breaker=breaker,
                               fault_plan=fault_plan),
        telemetry=telemetry)
    return result, telemetry.as_dict()


class TestSchedulerIntegration:
    def poison_index(self, baseline):
        """Index of the feasible candidate (sink in ``main``)."""
        (index,) = [i for i, report in enumerate(baseline.reports)
                    if report.sink.function == "main"]
        return index

    def test_trip_short_circuit_and_recovery(self):
        baseline_engine = make_engine()
        baseline = baseline_engine.analyze(NullDereferenceChecker())
        assert baseline.candidates == 2
        poison = self.poison_index(baseline)
        other = 1 - poison

        engine = make_engine()
        breaker = CircuitBreaker(threshold=2, cooldown=0.05)
        plan = FaultPlan(raise_on_query=frozenset({poison}))

        # Two faulted runs: the poisoned group accumulates failures and
        # trips at the threshold; the other group is untouched.
        _, snap1 = run(engine, breaker, plan)
        assert snap1["breaker"]["trips"] == 0
        result2, snap2 = run(engine, breaker, plan)
        assert snap2["breaker"]["trips"] == 1
        assert breaker.open_count() == 1
        assert result2.reports[other].feasible is False

        # Open: the poisoned group is short-circuited, the report list
        # stays complete, and only that group degrades to UNKNOWN.
        result3, snap3 = run(engine, breaker)
        assert snap3["breaker"]["short_circuits"] == 1
        assert snap3["breaker"]["open_groups"] == 1
        assert len(result3.reports) == 2
        assert result3.unknown_queries == 1
        blocked = result3.reports[poison]
        assert blocked.feasible and blocked.witness == {}
        (short_circuited,) = [outcome for outcome in engine.query_records
                              if outcome.index == poison]
        assert short_circuited.seconds == 0.0
        assert result3.reports[other].feasible is False
        # Short-circuits cost no solver time: the query stats section
        # saw exactly one real query.
        assert snap3["solver"]["total"] == 1

        # After the cooldown the probe runs clean, the breaker closes,
        # and the run is byte-identical to the unbroken baseline.
        time.sleep(0.08)
        result4, snap4 = run(engine, breaker)
        assert snap4["breaker"]["probes"] == 1
        assert snap4["breaker"]["recoveries"] == 1
        assert snap4["breaker"]["open_groups"] == 0
        assert breaker.open_count() == 0
        assert findings_payload(result4) == findings_payload(baseline)

    def test_failed_probe_reopens(self):
        engine = make_engine()
        baseline = make_engine().analyze(NullDereferenceChecker())
        poison = self.poison_index(baseline)
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        plan = FaultPlan(raise_on_query=frozenset({poison}))

        _, snap1 = run(engine, breaker, plan)
        assert snap1["breaker"]["trips"] == 1
        time.sleep(0.08)
        # Probe still faulted: it fails and the group re-opens.
        _, snap2 = run(engine, breaker, plan)
        assert snap2["breaker"]["probes"] == 1
        assert snap2["breaker"]["recoveries"] == 0
        assert breaker.open_count() == 1

    def test_disabled_breaker_is_the_identity(self):
        engine = make_engine()
        with_none = engine.analyze(NullDereferenceChecker(),
                                   exec_config=ExecConfig(jobs=1))
        engine2 = make_engine()
        with_breaker, _ = run(engine2, CircuitBreaker(threshold=50))
        assert findings_payload(with_none) \
            == findings_payload(with_breaker)
