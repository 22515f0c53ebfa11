"""The dogfooded job lifecycle (PR 10): the service's job protocol is
one of our own state machines — validated, flattened, compiled, and
guarded — so illegal transitions are structurally impossible."""

import pytest

from repro.errors import ServiceError
from repro.service import (
    DEFAULT_LEASE_BUDGET,
    JOB_EVENTS,
    JOB_STATES,
    TERMINAL_STATES,
    JobLifecycle,
    build_job_lifecycle,
)
from repro.service.lifecycle import RECOVERABLE_STATES


class TestMachineStructure:
    def test_validates(self):
        build_job_lifecycle().validate()

    def test_flattens(self):
        from repro.statemachines.flatten import flatten

        # budget 0 routes expire to quarantined, making every state
        # reachable within one flattening pass
        table = flatten(build_job_lifecycle(), context={"budget": 0})
        leaves = {leaf for label in table.state_labels.values()
                  for leaf in label}
        assert set(JOB_STATES) <= leaves

    def test_compiles(self):
        from repro.statemachines.compiled import compile_fallback_reason

        assert compile_fallback_reason(build_job_lifecycle()) is None

    def test_every_event_has_an_edge(self):
        machine = build_job_lifecycle()
        triggers = {event.name for t in machine.region.transitions
                    for event in t.triggers}
        assert triggers == set(JOB_EVENTS)

    def test_terminal_states_have_no_exits(self):
        machine = build_job_lifecycle()
        for transition in machine.region.transitions:
            source = getattr(transition.source, "name", "")
            assert source not in TERMINAL_STATES

    def test_every_transition_changes_state(self):
        # JobLifecycle.replay reads "the state moved" as "the event
        # fired", which holds only while the machine has no self-loop
        machine = build_job_lifecycle()
        for transition in machine.region.transitions:
            assert transition.source is not transition.target

    def test_state_sets_are_consistent(self):
        assert not (RECOVERABLE_STATES & TERMINAL_STATES)
        assert set(JOB_STATES) == \
            RECOVERABLE_STATES | TERMINAL_STATES | {"queued"}


class TestHappyPath:
    def test_cold_run(self):
        lifecycle = JobLifecycle()
        assert lifecycle.state == "queued"
        for event, state in (("lease", "leased"), ("start", "running"),
                             ("complete", "merging"),
                             ("publish", "done")):
            assert lifecycle.signal(event) == state
        assert lifecycle.terminal

    def test_cache_hit_goes_straight_to_done(self):
        lifecycle = JobLifecycle()
        assert lifecycle.signal("hit") == "done"
        assert lifecycle.budget == DEFAULT_LEASE_BUDGET

    def test_attempt_counting_is_the_daemons_job(self):
        # the machine carries only the budget; leases are counted by
        # the Job row, so replay can't double-count
        lifecycle = JobLifecycle(budget=2)
        lifecycle.signal("lease")
        assert lifecycle.budget == 2  # lease itself never spends budget


class TestIllegalTransitions:
    @pytest.mark.parametrize("event", ["publish", "complete", "start",
                                       "expire", "fail"])
    def test_not_enabled_from_queued(self, event):
        lifecycle = JobLifecycle()
        with pytest.raises(ServiceError):
            lifecycle.signal(event)
        assert lifecycle.state == "queued"  # refusal left it untouched

    def test_terminal_jobs_are_frozen(self):
        lifecycle = JobLifecycle()
        lifecycle.signal("hit")
        for event in JOB_EVENTS:
            with pytest.raises(ServiceError):
                lifecycle.signal(event)

    def test_unknown_event(self):
        with pytest.raises(ServiceError):
            JobLifecycle().signal("teleport")

    def test_replay_mirrors_signal(self):
        for event in JOB_EVENTS:
            replayed = JobLifecycle()
            replayed.signal("lease")
            signalled = JobLifecycle()
            signalled.signal("lease")
            fired = replayed.replay(event)
            try:
                signalled.signal(event)
            except ServiceError:
                raised = True
            else:
                raised = False
            assert fired is not raised, event
            assert replayed.state == signalled.state, event


class TestRetryBudget:
    @pytest.mark.parametrize("origin_events", [("lease",),
                                               ("lease", "start"),
                                               ("lease", "start",
                                                "complete")])
    def test_expire_requeues_while_budget_lasts(self, origin_events):
        lifecycle = JobLifecycle(budget=2)
        for event in origin_events:
            lifecycle.signal(event)
        assert lifecycle.signal("expire") == "queued"
        assert lifecycle.budget == 1

    def test_exhausted_budget_quarantines(self):
        lifecycle = JobLifecycle(budget=1)
        lifecycle.signal("lease")
        assert lifecycle.signal("expire") == "queued"
        lifecycle.signal("lease")
        assert lifecycle.signal("expire") == "quarantined"
        assert lifecycle.terminal

    def test_zero_budget_quarantines_immediately(self):
        lifecycle = JobLifecycle(budget=0)
        lifecycle.signal("lease")
        assert lifecycle.signal("expire") == "quarantined"

    def test_negative_budget_rejected(self):
        with pytest.raises(ServiceError):
            JobLifecycle(budget=-1)

    def test_fail_is_never_retried(self):
        lifecycle = JobLifecycle(budget=3)
        lifecycle.signal("lease")
        assert lifecycle.signal("fail") == "failed"
        assert lifecycle.budget == 3  # deterministic error: no spend


class TestCancel:
    @pytest.mark.parametrize("path", [(), ("lease",), ("lease", "start"),
                                      ("lease", "start", "complete")])
    def test_cancellable_from_every_live_state(self, path):
        lifecycle = JobLifecycle()
        for event in path:
            lifecycle.signal(event)
        assert lifecycle.signal("cancel") == "cancelled"


class TestReplayTolerance:
    def test_replay_applies_enabled_events(self):
        lifecycle = JobLifecycle()
        assert lifecycle.replay("lease") is True
        assert lifecycle.state == "leased"

    def test_replay_skips_stale_events(self):
        lifecycle = JobLifecycle()
        lifecycle.signal("hit")
        # the shadow a torn tail casts: events for a state we never
        # reconstructed must be skipped, not raised
        assert lifecycle.replay("publish") is False
        assert lifecycle.replay("lease") is False
        assert lifecycle.state == "done"

    def test_replay_is_idempotent(self):
        events = ["lease", "start", "complete", "publish"]
        once = JobLifecycle()
        for event in events:
            once.replay(event)
        twice = JobLifecycle()
        for event in events + events:
            twice.replay(event)
        assert (once.state, once.budget) == (twice.state, twice.budget)

