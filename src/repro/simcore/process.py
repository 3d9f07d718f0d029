"""Periodic and one-shot timer helpers built on the simulator kernel.

:class:`PeriodicProcess` is the repo's standard way to run a control loop
on the simulated clock — pacing ticks, TR deadline scans, invariant
probes, and the metric samplers of :mod:`repro.obs` all use it.  It
reschedules through the simulator's fast path (no per-tick ``Event``
allocation) and invalidates stale ticks with a generation counter, so
``stop()``/``start()`` cycles cannot double-fire.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.simcore.event import Event
from repro.simcore.simulator import Simulator


class Timer:
    """A restartable one-shot timer.

    Wraps event (re)scheduling so protocol code can express the common
    "arm / re-arm / disarm" pattern (e.g. retransmission timeouts) without
    tracking raw :class:`Event` handles.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time if armed, else None."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def arm(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now, replacing any
        previously armed expiry."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def arm_at(self, time: float) -> None:
        """(Re)arm the timer for the absolute simulated ``time``."""
        self.cancel()
        self._event = self._sim.schedule_at(time, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicProcess:
    """Calls ``callback()`` every ``interval`` seconds until stopped.

    The first call fires after ``first_delay`` (default: one interval).
    The interval may be changed between ticks via :attr:`interval`.

    Ticks ride the kernel's :meth:`~repro.simcore.simulator.Simulator.
    schedule_call` fast path, so a periodic process allocates no
    :class:`Event` per tick.  ``stop()`` invalidates the pending tick by
    generation number instead of cancelling it; the stale heap entry
    fires as a no-op and is otherwise invisible.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._stopped = False
        self._gen = 0
        sim.schedule_call(
            interval if first_delay is None else first_delay, self._tick, 0
        )

    @property
    def running(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        self._stopped = True
        self._gen += 1

    def _tick(self, gen: int) -> None:
        if self._stopped or gen != self._gen:
            return
        self._callback()
        if not self._stopped:
            self._sim.schedule_call(self.interval, self._tick, self._gen)


class TimelineProcess:
    """Fires ``callback(payload)`` at each entry of a sorted timeline.

    The workload generators of :mod:`repro.workload` pre-compute thousands
    of flow arrival times; scheduling them all up front would allocate one
    heap entry per arrival at t=0.  A TimelineProcess instead keeps exactly
    one pending tick at a time — it walks the ``(time, payload)`` entries
    in order, firing every entry due at the current tick through the
    kernel's fire-and-forget path, then sleeps until the next one.

    Entries must be sorted by time (ascending) and non-negative; same-time
    entries fire in list order inside one tick.  Like
    :class:`PeriodicProcess`, ``stop()`` invalidates the pending tick by
    generation number.
    """

    def __init__(
        self,
        sim: Simulator,
        entries: Sequence[tuple[float, Any]],
        callback: Callable[[Any], None],
    ) -> None:
        self._sim = sim
        self._entries = list(entries)
        for i in range(1, len(self._entries)):
            if self._entries[i][0] < self._entries[i - 1][0]:
                raise ValueError("timeline entries must be sorted by time")
        if self._entries and self._entries[0][0] < 0:
            raise ValueError("timeline entries must be non-negative in time")
        self._callback = callback
        self._next = 0
        self._stopped = False
        self._gen = 0
        if self._entries:
            sim.schedule_call(
                max(self._entries[0][0] - sim.now, 0.0), self._tick, 0
            )

    @property
    def remaining(self) -> int:
        """Entries not yet fired."""
        return len(self._entries) - self._next

    @property
    def finished(self) -> bool:
        return self._next >= len(self._entries)

    def stop(self) -> None:
        self._stopped = True
        self._gen += 1

    def _tick(self, gen: int) -> None:
        if self._stopped or gen != self._gen:
            return
        now = self._sim.now
        entries = self._entries
        while self._next < len(entries) and entries[self._next][0] <= now:
            _, payload = entries[self._next]
            self._next += 1
            self._callback(payload)
            if self._stopped:
                return
        if self._next < len(entries):
            self._sim.schedule_call(
                entries[self._next][0] - now, self._tick, self._gen
            )
