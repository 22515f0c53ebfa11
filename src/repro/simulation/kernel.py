"""Discrete-event simulation kernel.

The paper's Section 4 argues that "early prototyping and inherent
software simulation capabilities ... promise cost and time savings".
This kernel is the substrate that makes UML models executable as
simulations: a classic event-wheel scheduler plus generator-based
processes (a compact simpy-style coroutine model).

A process is a Python generator that yields:

* a ``float``/``int`` or :class:`Timeout` — resume after that much
  simulated time;
* a :class:`SimEvent` — resume when the event succeeds (with its value
  sent into the generator).

Robustness controls (PR 2): :meth:`Simulator.run` accepts a wall-clock
``timeout`` watchdog, a ``max_events_at_instant`` livelock heuristic
and ``detect_deadlock``; the queue can be bounded
(``max_queue``/``overflow_policy``); and the whole wheel state is
checkpointable via :meth:`Simulator.checkpoint` / :meth:`restore` so
fault campaigns can snapshot, inject and roll back.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import (
    DeadlockError,
    LivelockError,
    QueueOverflowError,
    SimulationError,
    WatchdogTimeout,
)

#: Queue overflow policies for a bounded simulator.
OVERFLOW_POLICIES = ("raise", "drop-newest", "drop-latest")


class Timeout:
    """Yieldable: resume the process after ``delay`` simulated time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError("timeouts cannot be negative")
        self.delay = delay


class SimEvent:
    """A one-shot event processes can wait on.

    ``succeed(value)`` schedules all waiters to resume immediately
    (same simulated time, later delta) with ``value``.
    """

    __slots__ = ("simulator", "triggered", "value", "_waiters")

    def __init__(self, simulator: "Simulator"):
        self.simulator = simulator
        self.triggered = False
        self.value: Any = None
        self._waiters: List["ProcessHandle"] = []

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event, waking every waiter (chainable)."""
        if self.simulator._closed:
            raise SimulationError(
                "cannot succeed an event on a closed simulator; "
                "the event wheel has been torn down")
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for waiter in self._waiters:
            self.simulator._schedule_resume(waiter, 0.0, value)
        self._waiters.clear()
        return self

    def _add_waiter(self, process: "ProcessHandle") -> None:
        if self.triggered:
            self.simulator._schedule_resume(process, 0.0, self.value)
        else:
            self._waiters.append(process)


class ProcessHandle:
    """A running simulation process (generator driven by the kernel)."""

    __slots__ = ("generator", "name", "alive", "result", "done_event")

    def __init__(self, generator: Generator, name: str,
                 simulator: "Simulator"):
        self.generator = generator
        self.name = name
        self.alive = True
        self.result: Any = None
        self.done_event = SimEvent(simulator)

    def __repr__(self) -> str:
        status = "alive" if self.alive else "done"
        return f"<Process {self.name} ({status})>"


class _RecurringTick:
    """A fixed-interval callback that re-arms itself without per-tick
    generator frames or lambda allocation (the clock fast path).

    Semantics match a ``while now < until: yield interval; action()``
    process exactly: the first firing at the creation time is a no-op
    that only arms the next tick, every later firing runs the action
    and then re-arms while ``now < until``.
    """

    __slots__ = ("simulator", "interval", "action", "until", "primed",
                 "stopped")

    def __init__(self, simulator: "Simulator", interval: float,
                 action: Callable[[], None], until: Optional[float]):
        self.simulator = simulator
        self.interval = interval
        self.action = action
        self.until = until
        self.primed = False
        self.stopped = False

    def stop(self) -> None:
        """Permanently disarm the tick (pending firing becomes a no-op)."""
        self.stopped = True

    def _fire(self) -> None:
        if self.stopped:
            return
        if self.primed:
            self.action()
        else:
            self.primed = True
        simulator = self.simulator
        if self.until is None or simulator.now < self.until:
            simulator._seq = seq = simulator._seq + 1
            heapq.heappush(
                simulator._queue,
                (simulator.now + self.interval, seq, self._fire))
        else:
            # expired: mark stopped so the tick registry can be pruned
            self.stopped = True


class Simulator:
    """The event-wheel scheduler.

    ``max_queue``/``overflow_policy`` bound the event queue: once
    ``len(queue) >= max_queue``, a :meth:`schedule` call is resolved by
    the policy — ``"raise"`` (:class:`QueueOverflowError`),
    ``"drop-newest"`` (the incoming event is discarded and counted) or
    ``"drop-latest"`` (the queued event furthest in the future is
    evicted to admit the incoming one).  Internal process resumes and
    recurring ticks bypass backpressure — dropping those would corrupt
    coroutine state.
    """

    def __init__(self, max_queue: Optional[int] = None,
                 overflow_policy: str = "raise") -> None:
        if overflow_policy not in OVERFLOW_POLICIES:
            raise SimulationError(
                f"unknown overflow policy {overflow_policy!r}; "
                f"choose from {OVERFLOW_POLICIES}")
        if max_queue is not None and max_queue <= 0:
            raise SimulationError("max_queue must be positive")
        self.now: float = 0.0
        self.events_processed = 0
        self.events_dropped = 0
        self.max_queue = max_queue
        self.overflow_policy = overflow_policy
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._processes: List[ProcessHandle] = []
        self._ticks: List[_RecurringTick] = []
        self._closed = False

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action()`` after ``delay`` simulated time."""
        if self._closed:
            raise SimulationError("cannot schedule on a closed simulator")
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        if self.max_queue is not None \
                and len(self._queue) >= self.max_queue \
                and not self._admit_over_capacity():
            return
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, action))

    def _admit_over_capacity(self) -> bool:
        """Apply the overflow policy; True when the new event may enter."""
        policy = self.overflow_policy
        if policy == "raise":
            raise QueueOverflowError(
                f"event queue overflowed its bound of {self.max_queue} "
                f"at t={self.now}")
        if policy == "drop-newest":
            self.events_dropped += 1
            return False
        # drop-latest: evict the entry furthest in the future (O(n), but
        # only ever paid under overflow)
        victim = max(self._queue)
        self._queue.remove(victim)
        heapq.heapify(self._queue)
        self.events_dropped += 1
        return True

    def every(self, interval: float, action: Callable[[], None],
              until: Optional[float] = None) -> _RecurringTick:
        """Run ``action()`` every ``interval`` without process overhead.

        Returns the tick handle (call ``.stop()`` to disarm).  The first
        action runs at ``now + interval``; with ``until`` given, ticks
        stop re-arming once ``now >= until`` (the action still runs at a
        tick landing exactly on ``until`` — the same inclusive boundary
        as :meth:`run`).  Outstanding ticks are cancelled by
        :meth:`close`.
        """
        if self._closed:
            raise SimulationError("cannot schedule on a closed simulator")
        if not interval > 0:  # NaN too
            raise SimulationError("recurring interval must be positive")
        if self._ticks and any(t.stopped for t in self._ticks):
            self._ticks = [t for t in self._ticks if not t.stopped]
        tick = _RecurringTick(self, interval, action, until)
        self._ticks.append(tick)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.now, seq, tick._fire))
        return tick

    def event(self) -> SimEvent:
        """Create a fresh one-shot event bound to this simulator."""
        return SimEvent(self)

    def process(self, generator: Generator,
                name: str = "") -> ProcessHandle:
        """Start a generator as a process (resumed immediately at t=now)."""
        if self._closed:
            raise SimulationError(
                "cannot start a process on a closed simulator")
        handle = ProcessHandle(generator, name or f"p{len(self._processes)}",
                               self)
        self._processes.append(handle)
        self._schedule_resume(handle, 0.0, None)
        return handle

    def _schedule_resume(self, handle: ProcessHandle, delay: float,
                         value: Any) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(
            self._queue,
            (self.now + delay, seq,
             lambda: self._resume(handle, value)))

    def _resume(self, handle: ProcessHandle, value: Any) -> None:
        if not handle.alive:
            return
        try:
            yielded = handle.generator.send(value)
        except StopIteration as stop:
            handle.alive = False
            handle.result = getattr(stop, "value", None)
            handle.done_event.succeed(handle.result)
            return
        if isinstance(yielded, (int, float)):
            yielded = Timeout(float(yielded))
        if isinstance(yielded, Timeout):
            self._schedule_resume(handle, yielded.delay, None)
        elif isinstance(yielded, SimEvent):
            yielded._add_waiter(handle)
        elif isinstance(yielded, ProcessHandle):
            yielded.done_event._add_waiter(handle)
        else:
            raise SimulationError(
                f"process {handle.name!r} yielded {type(yielded).__name__}; "
                "yield a delay, SimEvent or ProcessHandle")

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Process the next scheduled action; False when queue is empty."""
        if not self._queue:
            return False
        time, _seq, action = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("scheduler time went backwards")
        self.now = time
        self.events_processed += 1
        action()
        return True

    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000,
            timeout: Optional[float] = None,
            max_events_at_instant: Optional[int] = None,
            detect_deadlock: bool = False) -> float:
        """Run until quiescence or simulated time ``until``.

        Boundary contract: events scheduled *exactly at* ``until`` are
        processed (the horizon is inclusive), events strictly later stay
        queued, and ``now == until`` on return even when the queue
        drained earlier.  ``until`` must not lie in the past — time
        never moves backwards.

        Robustness knobs (all off by default):

        * ``timeout`` — wall-clock watchdog in real seconds; raises
          :class:`WatchdogTimeout` when exceeded (checked every 256
          events to keep the hot loop tight).
        * ``max_events_at_instant`` — livelock heuristic; raises
          :class:`LivelockError` when more than this many events fire
          without simulated time advancing (zero-delay storms).
        * ``detect_deadlock`` — on quiescence, raises
          :class:`DeadlockError` if generator processes are still alive
          (blocked on events nothing can trigger anymore).

        Returns the simulation time reached.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until}: simulation time is already "
                f"t={self.now} (time never moves backwards)")
        deadline = None if timeout is None \
            else _time.perf_counter() + timeout
        instant_events = 0
        last_now = self.now
        processed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events")
            self.step()
            if max_events_at_instant is not None:
                if self.now == last_now:
                    instant_events += 1
                    if instant_events > max_events_at_instant:
                        raise LivelockError(
                            f"{instant_events} events fired at t={self.now} "
                            f"without time advancing (limit "
                            f"{max_events_at_instant}); suspected "
                            "zero-delay event storm")
                else:
                    last_now = self.now
                    instant_events = 0
            if deadline is not None and not (processed & 255) \
                    and _time.perf_counter() > deadline:
                raise WatchdogTimeout(
                    f"wall-clock watchdog expired after {timeout}s at "
                    f"t={self.now} ({processed} events this run); "
                    "simulation appears hung")
        if detect_deadlock:
            blocked = sorted(p.name for p in self._processes if p.alive)
            if blocked:
                raise DeadlockError(
                    f"event queue drained at t={self.now} with "
                    f"{len(blocked)} process(es) still blocked: "
                    f"{', '.join(blocked)}")
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the wheel state (clock, queue, tick arms, counters).

        The queue holds plain action closures, which are re-runnable; a
        live *generator* process cannot be rolled back, so checkpointing
        with one alive raises :class:`SimulationError`.  Restore with
        :meth:`restore`.
        """
        alive = [p.name for p in self._processes if p.alive]
        if alive:
            raise SimulationError(
                "cannot checkpoint a simulator with live generator "
                f"processes ({', '.join(sorted(alive))}); generator frames "
                "are not restorable")
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "events_dropped": self.events_dropped,
            "seq": self._seq,
            "queue": list(self._queue),
            "ticks": [(tick, tick.primed, tick.stopped)
                      for tick in self._ticks],
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Return to a state captured by :meth:`checkpoint`.

        Recurring ticks created *after* the checkpoint are discarded
        together with their queued firings.
        """
        if self._closed:
            raise SimulationError("cannot restore a closed simulator")
        self.now = snap["now"]
        self.events_processed = snap["events_processed"]
        self.events_dropped = snap["events_dropped"]
        self._seq = snap["seq"]
        self._queue = list(snap["queue"])
        self._ticks = [tick for tick, _primed, _stopped in snap["ticks"]]
        for tick, primed, stopped in snap["ticks"]:
            tick.primed = primed
            tick.stopped = stopped

    def close(self) -> None:
        """Tear down the wheel: drop queued work, refuse new scheduling.

        After ``close()`` any :meth:`schedule`, :meth:`every` or
        :meth:`SimEvent.succeed` raises :class:`SimulationError` —
        nothing silently schedules into a dead wheel.  Outstanding
        :meth:`every` recurrences are cancelled.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for tick in self._ticks:
            tick.stop()
        self._ticks.clear()
        self._queue.clear()

    @property
    def is_closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def is_quiescent(self) -> bool:
        """True when nothing is scheduled."""
        return not self._queue

    def __repr__(self) -> str:
        return (f"<Simulator t={self.now} queued={len(self._queue)} "
                f"processed={self.events_processed}>")
