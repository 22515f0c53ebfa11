"""Tests for the discrete-event kernel, signals, clocks, waveforms."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Clock, SimSignal, Simulator, Timeout, Waveform


class TestScheduler:
    def test_actions_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 5.0

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert not fired
        assert sim.now == 5.0
        sim.run()
        assert fired

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)
        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestProcesses:
    def test_timeout_yields(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield 3.0
            log.append(sim.now)
            yield Timeout(2.0)
            log.append(sim.now)
        sim.process(proc())
        sim.run()
        assert log == [0.0, 3.0, 5.0]

    def test_event_wait_and_value(self):
        sim = Simulator()
        event = sim.event()
        results = []

        def waiter():
            value = yield event
            results.append(value)

        def firer():
            yield 2.0
            event.succeed("payload")
        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert results == ["payload"]

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(42)
        results = []

        def late():
            value = yield event
            results.append(value)
        sim.process(late())
        sim.run()
        assert results == [42]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_process_join(self):
        sim = Simulator()
        log = []

        def worker():
            yield 4.0
            return "done"

        def boss():
            handle = sim.process(worker(), "w")
            result = yield handle
            log.append((sim.now, result))
        sim.process(boss())
        sim.run()
        assert log == [(4.0, "done")]

    def test_invalid_yield_type(self):
        sim = Simulator()

        def bad():
            yield "nonsense"
        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestSignals:
    def test_write_notifies_subscribers(self):
        sim = Simulator()
        sig = SimSignal(sim, "s", initial=0)
        seen = []
        sig.on_change(lambda old, new: seen.append((old, new)))
        sig.write(5)
        assert seen == [(0, 5)]

    def test_same_value_suppressed(self):
        sim = Simulator()
        sig = SimSignal(sim, "s", initial=1)
        seen = []
        sig.on_change(lambda old, new: seen.append(new))
        sig.write(1)
        assert seen == []

    def test_delayed_write(self):
        sim = Simulator()
        sig = SimSignal(sim, "s", initial=0)
        sig.write(9, delay=3.0)
        assert sig.value == 0
        sim.run()
        assert sig.value == 9
        assert sim.now == 3.0

    def test_wait_change_in_process(self):
        sim = Simulator()
        sig = SimSignal(sim, "s", initial=0)
        got = []

        def consumer():
            value = yield sig.wait_change()
            got.append((sim.now, value))

        def producer():
            yield 2.0
            sig.write(7)
        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(2.0, 7)]


class TestClockAndWaveform:
    def test_clock_ticks(self):
        sim = Simulator()
        clock = Clock(sim, period=2.0)
        ticks = []
        clock.on_tick(lambda n: ticks.append((sim.now, n)))
        clock.start(max_cycles=3)
        sim.run()
        assert ticks == [(2.0, 1), (4.0, 2), (6.0, 3)]

    def test_clock_stop(self):
        sim = Simulator()
        clock = Clock(sim, period=1.0)
        clock.on_tick(lambda n: clock.stop() if n >= 2 else None)
        clock.start()
        sim.run()
        assert clock.cycles == 2

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            Clock(Simulator(), period=0)

    def test_waveform_records_and_queries(self):
        sim = Simulator()
        sig = SimSignal(sim, "s", initial=0)
        wave = Waveform(sig)
        sig.write(1, delay=1.0)
        sig.write(2, delay=3.0)
        sim.run()
        assert wave.changes() == ((0.0, 0), (1.0, 1), (3.0, 2))
        assert wave.value_at(0.5) == 0
        assert wave.value_at(2.0) == 1
        assert wave.value_at(10.0) == 2


class TestRunUntilBoundary:
    def test_event_exactly_at_until_is_processed(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("at"))
        sim.schedule(5.0 + 1e-9, lambda: fired.append("after"))
        sim.run(until=5.0)
        assert fired == ["at"]
        assert sim.now == 5.0

    def test_now_reaches_until_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_into_the_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_now_is_a_noop(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.run(until=3.0) == 3.0


class TestRecurringTick:
    def test_every_matches_generator_process_ordering(self):
        """every() and a yield-loop process interleave identically."""
        def run(use_every):
            sim = Simulator()
            order = []
            if use_every:
                sim.every(2.0, lambda: order.append(("tick", sim.now)),
                          until=6.0)
            else:
                def proc():
                    while sim.now < 6.0:
                        yield 2.0
                        order.append(("tick", sim.now))
                sim.process(proc())
            for at in (2.0, 3.0, 4.0, 6.0):
                sim.schedule(at, lambda at=at: order.append(("evt", at)))
            sim.run(until=6.0)
            return order

        assert run(True) == run(False)

    def test_tick_fires_at_inclusive_until(self):
        sim = Simulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), until=6.0)
        sim.run(until=6.0)
        assert ticks == [2.0, 4.0, 6.0]

    @pytest.mark.parametrize("interval", (0.0, -1.0, float("nan")))
    def test_a_recurring_interval_must_be_positive(self, interval):
        with pytest.raises(SimulationError, match="recurring interval"):
            Simulator().every(interval, lambda: None)

    def test_unbounded_tick_runs_until_horizon(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_stop_disarms(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        handle.stop()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestClosedSimulator:
    def test_close_is_idempotent_and_observable(self):
        sim = Simulator()
        assert not sim.is_closed
        sim.close()
        sim.close()
        assert sim.is_closed
        assert sim.is_quiescent

    def test_succeed_after_close_raises(self):
        sim = Simulator()
        event = sim.event()
        sim.close()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_schedule_after_close_raises(self):
        sim = Simulator()
        sim.close()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.process(iter(()))

    def test_close_drops_queued_work(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(True))
        sim.close()
        sim.run()
        assert not fired
