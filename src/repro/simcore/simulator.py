"""The discrete-event simulator clock and scheduler.

The simulator is a classic event-heap design: callbacks are scheduled at
absolute or relative simulated times and executed in non-decreasing time
order.  All protocol and network components in :mod:`repro` share a single
:class:`Simulator` instance, which acts as the global, perfectly
synchronised clock (see DESIGN.md, "Clock model" and "Performance model").

Heap entries are ``(time, priority, seq, event_or_None, callback, args)``
tuples: tuple comparison is much cheaper than calling ``Event.__lt__``
millions of times in packet-heavy simulations, and keeping the callback
in the tuple lets the run loop fire it without touching the ``Event``
object at all.  The 4th slot is ``None`` for fire-and-forget callbacks
scheduled through :meth:`Simulator.schedule_call` — the hot path used by
pacing loops and link serialisation, which never cancel — so those skip
the per-call :class:`Event` allocation entirely.

Cancellation is lazy: cancelled entries stay in the heap and are skipped
when popped.  The simulator counts them (:attr:`cancelled_pending`) and
compacts the heap — filter + re-heapify, O(n) — whenever zombies are the
majority, so long timer-churn runs (RTO re-arms, chaos suites) cannot
bloat the heap.  Compaction never changes pop order: entries are totally
ordered by their unique ``(time, priority, seq)`` prefix.

Per-link packet deliveries ride the fire-and-forget path as a *batch*:
a link schedules every delivery through :meth:`Simulator.schedule_call`
(no Event allocated, nothing to cancel one-by-one) and invalidates its
whole in-flight cohort at once with a generation bump when flushed (see
``repro.netsim.link``).  The drain loop itself specialises the common
``run()``/``run(until=...)`` shapes: when no event-count cap or wall
watchdog is armed, the per-event bound checks drop out of the hot loop
entirely.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.simcore.event import Event


class SimulationError(RuntimeError):
    """Raised on invalid scheduling requests (e.g. scheduling in the past)."""


# Compaction policy: scan/rebuild only when the heap is non-trivial and
# more than half of it is cancelled zombies (amortised O(1) per cancel).
_COMPACT_MIN_HEAP = 256


class Simulator:
    """Event-driven simulation kernel.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("fires at t=1"))
        sim.run(until=10.0)

    The kernel guarantees deterministic execution: events at identical
    timestamps fire ordered by ``priority`` (lower first) and then by
    scheduling order.

    ``now`` is the current simulated time in seconds.  It is a plain
    attribute, not a property, because protocol code reads it several
    times per packet; only the kernel writes it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self.now: float = 0.0
        self._seq: int = 0
        self._events_executed: int = 0
        self._cancelled_pending: int = 0
        self._compactions: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for diagnostics/benchmarks)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently in the heap."""
        return len(self._heap) - self._cancelled_pending

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (zombies)."""
        return self._cancelled_pending

    @property
    def heap_compactions(self) -> int:
        """Times the heap was rebuilt to shed cancelled entries."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event` handle, which may be cancelled.
        ``delay`` must be non-negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        heappush(self._heap, (time, priority, seq, event, callback, args))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        heappush(self._heap, (time, priority, seq, event, callback, args))
        return event

    def schedule_call(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget fast path: like :meth:`schedule`, but returns no
        handle and allocates no :class:`Event`.

        Use it for callbacks that are never cancelled (pacing ticks, link
        serialisation completions, periodic samplers) — the dominant class
        of events in packet-heavy runs.  Semantics (ordering, clock) are
        identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap, (self.now + delay, priority, seq, None, callback, args)
        )

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> "PeriodicProcess":
        """Batched timer facility: run ``callback()`` every ``interval``
        seconds without allocating an :class:`Event` per tick.

        Returns the :class:`~repro.simcore.process.PeriodicProcess` handle
        (``.stop()``, mutable ``.interval``).
        """
        from repro.simcore.process import PeriodicProcess

        return PeriodicProcess(self, interval, callback, first_delay=first_delay)

    # ------------------------------------------------------------------
    # Cancellation accounting (called by Event.cancel)
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (pop order unchanged)."""
        self._heap = [
            entry
            for entry in self._heap
            if entry[3] is None or not entry[3].cancelled
        ]
        heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        wall_timeout_s: Optional[float] = None,
    ) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        observe a monotonic clock.  Returns the current simulated time.

        ``wall_timeout_s`` is a watchdog against runaway event storms
        (e.g. a fault scenario that triggers a retransmission feedback
        loop): if the run consumes more than that much *wall-clock* time,
        a :class:`SimulationError` reporting the simulated time and event
        count is raised instead of hanging the harness.  It does not
        affect the simulated schedule, only aborts it.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        deadline = None
        if wall_timeout_s is not None:
            import time as _time

            monotonic = _time.monotonic
            deadline = monotonic() + wall_timeout_s
            check_mask = 0xFFF  # poll the wall clock every 4096 events
        # Local bindings keep the hot loop free of repeated global/attr
        # lookups; self.now is still written through the attribute so
        # callbacks observe the advancing clock.
        heap = self._heap
        pop = heappop
        try:
            if max_events is None and deadline is None:
                # Specialised drain loop for the dominant run()/run(until=)
                # shapes: one pop per event (no peek), single tuple unpack,
                # no per-event bound checks beyond the time horizon.  The
                # boundary entry is pushed back untouched, so a later run()
                # resumes from the exact same heap state.
                bound = float("inf") if until is None else until
                while heap:
                    entry = pop(heap)
                    time, _, _, event, callback, args = entry
                    if time > bound:
                        heappush(heap, entry)
                        break
                    if event is not None:
                        if event.cancelled:
                            self._cancelled_pending -= 1
                            continue
                        event._sim = None  # fired: later cancel() is a no-op
                    self.now = time
                    callback(*args)
                    executed += 1
                    if heap is not self._heap:  # callback triggered compaction
                        heap = self._heap
            else:
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event is not None and event.cancelled:
                        pop(heap)
                        self._cancelled_pending -= 1
                        continue
                    if until is not None and entry[0] > until:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    if (
                        deadline is not None
                        and executed & check_mask == check_mask
                        and monotonic() > deadline
                    ):
                        raise SimulationError(
                            f"wall-clock watchdog expired after {wall_timeout_s}s "
                            f"(simulated t={self.now:.3f}, {executed} events this run)"
                        )
                    pop(heap)
                    if event is not None:
                        event._sim = None  # fired: later cancel() is a no-op
                    self.now = entry[0]
                    entry[4](*entry[5])
                    executed += 1
                    if heap is not self._heap:  # a callback triggered compaction
                        heap = self._heap
        finally:
            self._running = False
            self._events_executed += executed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain.

        Shares the :meth:`run` machinery: the re-entrancy guard is held
        while the callback executes and the clock advances through the
        same path, so ``step()`` inside a running simulation raises
        instead of corrupting the heap.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            heap = self._heap
            while heap:
                entry = heappop(heap)
                event = entry[3]
                if event is not None:
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    event._sim = None  # fired: later cancel() is a no-op
                self.now = entry[0]
                entry[4](*entry[5])
                self._events_executed += 1
                return True
            return False
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self.now:.6f} pending={self.pending_events} "
            f"zombies={self._cancelled_pending}>"
        )
