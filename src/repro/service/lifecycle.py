"""The job lifecycle, modeled as one of our own state machines.

The paper's thesis is that executable UML models are *the* artifact —
so the simulation service eats its own dogfood: the lifecycle of a
submitted job is not an ad-hoc ``status`` string mutated from a dozen
call sites, it is a :class:`~repro.statemachines.StateMachine` executed
by the same model compiler the service simulates its users' parts
with: each job runs a compiled runtime over one shared dispatch table.
Illegal transitions are structurally impossible (there is no edge to
fire), the retry budget is a guarded choice between two transitions on
the same trigger, and the whole protocol can be validated, flattened,
diagrammed and simulated with the library's existing tooling.

::

                      lease           start          complete
         [queued] ----------> [leased] -----> [running] ------> [merging]
            |                                                      |
            |  hit (cached fingerprint)                    publish |
            +--------------------------------> [done] <------------+

         expire (lease lost / watchdog / daemon crash), from
         leased|running|merging:   --[budget > 0]-->  back to [queued]
                                   --[budget <= 0]--> [quarantined]
         fail   (deterministic job error), from leased|running|merging:
                                   --> [failed]
         cancel (client request), from any non-terminal state:
                                   --> [cancelled]

Events (all signal-triggered, dispatched by the daemon):

* ``lease``    — a worker slot took a time-bounded lease on the job;
* ``start``    — the worker's first heartbeat arrived;
* ``complete`` — the worker's result file landed (rename-into-place);
* ``publish``  — the result was published to the store / result dir;
* ``expire``   — the lease expired (no heartbeat in time), the worker
  died, the per-job wall-clock watchdog fired, or the daemon itself
  crashed while the job was leased/running/merging; guards on the
  retry budget route the job back to ``queued`` or into
  ``quarantined``;
* ``fail``     — the worker reported a deterministic job error (not
  infrastructure: such errors are results, and are not retried);
* ``hit``      — an identical (model, campaign, seed) fingerprint
  already has a published result in the artifact store; the job goes
  straight to ``done`` serving the cached payload;
* ``cancel``   — a client cancelled the job.

Guards and effects are ASL source strings over a context holding
``budget`` (remaining lease failures before quarantine), so the machine
is plain model data — it round-trips through XMI like any user model.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ServiceError
from ..statemachines import StateMachine
from ..statemachines.compiled import CompiledRuntime, compile_machine_cached

#: Every lifecycle state, in protocol order.
JOB_STATES: Tuple[str, ...] = (
    "queued", "leased", "running", "merging",
    "done", "failed", "cancelled", "quarantined",
)

#: States a job can never leave.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "quarantined"})

#: States a daemon crash orphans: a lease (or an unpublished result)
#: died with the old process, so recovery must route through ``expire``.
RECOVERABLE_STATES = frozenset({"leased", "running", "merging"})

#: The signal events the daemon may dispatch.
JOB_EVENTS: Tuple[str, ...] = (
    "lease", "start", "complete", "publish", "expire", "fail", "hit",
    "cancel",
)

#: Default number of failed leases before a job is quarantined as poison.
DEFAULT_LEASE_BUDGET = 3


def build_job_lifecycle() -> StateMachine:
    """Construct the job-lifecycle state machine (a fresh model tree).

    The machine validates cleanly, flattens, and compiles — the service
    test-suite pins all three, which is exactly the point of modeling
    the protocol instead of hand-coding it.
    """
    machine = StateMachine("JobLifecycle")
    region = machine.region
    states = {name: region.add_state(name) for name in JOB_STATES}
    region.add_transition(region.add_initial(), states["queued"])

    add = region.add_transition
    add(states["queued"], states["leased"], trigger="lease")
    add(states["queued"], states["done"], trigger="hit")
    add(states["leased"], states["running"], trigger="start")
    add(states["running"], states["merging"], trigger="complete")
    add(states["merging"], states["done"], trigger="publish")
    # lease expiry / worker death / daemon crash: guarded
    # retry-or-quarantine choice (merging counts — an unpublished
    # result must be republished or re-earned after a daemon crash)
    for origin in ("leased", "running", "merging"):
        add(states[origin], states["queued"], trigger="expire",
            guard="budget > 0", effect="budget = budget - 1;")
        add(states[origin], states["quarantined"], trigger="expire",
            guard="budget <= 0")
    # deterministic job errors are results, never retried
    for origin in ("leased", "running", "merging"):
        add(states[origin], states["failed"], trigger="fail")
    for origin in ("queued", "leased", "running", "merging"):
        add(states[origin], states["cancelled"], trigger="cancel")
    machine.validate()
    return machine


#: One shared (immutable) machine, compiled once; each job gets its
#: own runtime over the one dispatch table.
_MACHINE: Optional[StateMachine] = None


def _shared_machine() -> StateMachine:
    global _MACHINE
    if _MACHINE is None:
        _MACHINE = build_job_lifecycle()
    return _MACHINE


class JobLifecycle:
    """One job's lifecycle: a thin, checked facade over the runtime.

    :meth:`signal` dispatches a lifecycle event and *verifies it fired*:
    an event that is not enabled in the current state (``publish`` while
    ``queued``, ``lease`` on a terminal job, …) leaves the RTC runtime's
    configuration unchanged, which this facade turns into a
    :class:`~repro.errors.ServiceError` — so the daemon cannot corrupt a
    job by calling the wrong method at the wrong time.  During journal
    *replay* the same check runs in tolerant mode (:meth:`replay`):
    records made stale by a torn tail are counted and skipped, never
    applied, keeping replay idempotent.

    A terminal state enables no transition, so a job that reaches one
    keeps only its final state and budget and lets its runtime go: a
    long-running daemon holds every finished job it ever served.
    """

    __slots__ = ("runtime", "final")

    def __init__(self, budget: int = DEFAULT_LEASE_BUDGET,
                 machine: Optional[StateMachine] = None):
        if budget < 0:
            raise ServiceError(f"lease budget cannot be negative: {budget}")
        self.runtime = CompiledRuntime(
            compile_machine_cached(machine or _shared_machine()),
            context={"budget": int(budget)})
        self.runtime.start()
        #: ``(state, budget)`` once terminal, when ``runtime`` is None
        self.final: Optional[Tuple[str, int]] = None

    @property
    def state(self) -> str:
        """The single active leaf state name."""
        if self.runtime is None:
            return self.final[0]
        leaves = self.runtime.active_leaf_names()
        return leaves[0] if leaves else "queued"

    @property
    def budget(self) -> int:
        """Remaining lease failures before quarantine."""
        if self.runtime is None:
            return self.final[1]
        return int(self.runtime.context["budget"])

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def signal(self, event: str) -> str:
        """Dispatch a lifecycle event; returns the new state.

        Raises :class:`~repro.errors.ServiceError` when the event is
        unknown or not enabled in the current state — the machine, not
        the caller, is the authority on legality.
        """
        if event not in JOB_EVENTS:
            raise ServiceError(f"unknown job lifecycle event {event!r}")
        before = self.state
        if not self.replay(event):
            raise ServiceError(
                f"illegal job transition: event {event!r} is not "
                f"enabled in state {before!r}")
        return self.state

    def replay(self, event: str) -> bool:
        """Tolerant dispatch for journal replay: apply if enabled.

        Sends the event to the runtime and returns whether the state
        moved.  Every transition of the job machine changes state, so
        "moved" means "fired": the machine alone decides what is legal.
        A journal whose tail was torn off can legitimately contain
        events the reconstructed state no longer enables; replay skips
        them instead of raising, which is what makes re-replaying the
        same journal idempotent.
        """
        if event not in JOB_EVENTS or self.runtime is None:
            return False
        before = self.state
        self.runtime.send(event)
        after = self.state
        if after in TERMINAL_STATES:
            self.final = (after, self.budget)
            self.runtime = None
        return after != before

    def __repr__(self) -> str:
        return f"<JobLifecycle {self.state} budget={self.budget}>"

