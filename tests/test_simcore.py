"""Tests for the discrete-event kernel: scheduling, timers, RNG streams."""

import pytest

from repro.simcore import (
    PeriodicProcess,
    RngRegistry,
    SimulationError,
    Simulator,
    Timer,
)


class TestSimulatorScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=5)
        sim.schedule(1.0, fired.append, "high", priority=1)
        sim.run()
        assert fired == ["high", "low"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0  # clock advanced to the boundary

    def test_run_until_is_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        sim.run(until=4.0)
        assert fired == [1, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_execution_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 3


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(2.0)
        sim.run()
        assert fired == [2.0]

    def test_rearm_replaces_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.arm(3.0)
        sim.run()
        assert fired == [3.0]

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_armed_and_expiry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed and timer.expiry is None
        timer.arm(4.0)
        assert timer.armed and timer.expiry == 4.0
        sim.run()
        assert not timer.armed


class TestPeriodicProcess:
    def test_ticks_at_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_override(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 2.0, lambda: ticks.append(sim.now), first_delay=0.5)
        sim.run(until=3.0)
        assert ticks == [0.5, 2.5]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not proc.running

    def test_interval_change_applies_next_tick(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))

        def widen():
            proc.interval = 3.0

        sim.schedule(1.5, widen)
        sim.run(until=6.0)
        assert ticks == [1.0, 2.0, 5.0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicProcess(Simulator(), 0.0, lambda: None)


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_deterministic_across_registries(self):
        a = RngRegistry(42).stream("loss").random(5)
        b = RngRegistry(42).stream("loss").random(5)
        assert list(a) == list(b)

    def test_different_names_are_independent(self):
        reg = RngRegistry(42)
        a = reg.stream("a").random(5)
        b = reg.stream("b").random(5)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(5)
        b = RngRegistry(2).stream("x").random(5)
        assert list(a) != list(b)

    def test_draw_order_isolation(self):
        """Consuming one stream must not perturb another (key property)."""
        reg1 = RngRegistry(7)
        reg1.stream("noise").random(1000)
        a = reg1.stream("signal").random(3)
        reg2 = RngRegistry(7)
        b = reg2.stream("signal").random(3)
        assert list(a) == list(b)

    def test_fork_is_deterministic_and_distinct(self):
        base = RngRegistry(5)
        f1 = base.fork(1).stream("s").random(3)
        f1b = RngRegistry(5).fork(1).stream("s").random(3)
        f2 = base.fork(2).stream("s").random(3)
        assert list(f1) == list(f1b)
        assert list(f1) != list(f2)


class TestSchedulingFastPath:
    """schedule_call / schedule_periodic: the no-handle kernel fast path."""

    def test_schedule_call_fires_in_order_with_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_call(1.0, fired.append, "b")  # same time: seq order
        sim.schedule_call(0.5, fired.append, "c")
        sim.run()
        assert fired == ["c", "a", "b"]

    def test_schedule_call_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_call(-0.1, lambda: None)

    def test_schedule_call_priority(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(1.0, fired.append, "low", priority=5)
        sim.schedule_call(1.0, fired.append, "high", priority=1)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_periodic_ticks_and_stops(self):
        sim = Simulator()
        ticks = []
        proc = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=6.0)
        assert ticks == [1.0, 2.0]
        assert not proc.running


class TestCancellationAccounting:
    """pending_events / cancelled_pending stay exact under lazy cancel."""

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending_events == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending_events == 2
        assert sim.cancelled_pending == 2

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_pending == 1

    def test_cancel_after_fire_is_not_counted(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0

    def test_run_reconciles_counter_when_popping_zombies(self):
        sim = Simulator()
        keep = []
        for i in range(10):
            event = sim.schedule(float(i + 1), keep.append, i)
            if i % 2 == 0:
                event.cancel()
        sim.run()
        assert keep == [1, 3, 5, 7, 9]
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0


class TestHeapCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        sim = Simulator()
        events = [sim.schedule(1000.0, lambda: None) for _ in range(600)]
        for event in events:
            event.cancel()
        assert sim.heap_compactions >= 1
        # The heap sheds the zombie majority; only a residue below the
        # compaction floor (256 entries) may remain, and it is accounted.
        assert len(sim._heap) < 300
        assert sim.pending_events == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        survivors = []
        # Interleave survivors with a zombie majority, then force compaction.
        for i in range(400):
            if i % 4 == 0:
                survivors.append((i, sim.schedule(1.0 + i * 1e-3, fired.append, i)))
            else:
                sim.schedule(1.0 + i * 1e-3, fired.append, -i).cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == [i for i, _ in survivors]

    def test_compaction_with_schedule_call_entries(self):
        """Fire-and-forget entries survive compaction untouched."""
        sim = Simulator()
        fired = []
        for i in range(300):
            sim.schedule_call(2.0, fired.append, i)
        for _ in range(600):
            sim.schedule(1000.0, lambda: None).cancel()
        assert sim.heap_compactions >= 1
        sim.run(until=3.0)
        assert fired == list(range(300))

    def test_timer_rearm_churn_keeps_heap_bounded(self):
        """The RTO re-arm pattern cannot bloat the heap with zombies."""
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        for _ in range(5000):
            timer.arm(1000.0)
        assert len(sim._heap) < 2500  # without compaction this would be 5000
        assert sim.pending_events == 1


class TestStepGuard:
    def test_step_advances_clock_like_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        assert sim.step() is True
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_step_respects_reentrancy_guard(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        sim.run()
        assert errors and "reentrant" in errors[0]

    def test_run_inside_step_is_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        assert sim.step() is True
        assert errors and "reentrant" in errors[0]

    def test_step_skips_cancelled_and_accounts(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x").cancel()
        sim.schedule(2.0, fired.append, "y")
        assert sim.step() is True
        assert fired == ["y"]
        assert sim.cancelled_pending == 0

    def test_events_executed_counts_steps_and_runs(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.step()
        sim.run()
        assert sim.events_executed == 3
