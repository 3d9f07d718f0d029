"""Declarative fault schedules and the injector that executes them.

A :class:`FaultSchedule` is a plain list of timed fault events — link
outages, flapping, delay spikes, bandwidth collapse, loss bursts
(Bernoulli or Gilbert–Elliott), and node crash/restart.  A
:class:`FaultInjector` binds a schedule to a running topology by name:
links and nodes are registered once, the schedule is ``arm``-ed, and the
faults fire as ordinary simulator events (at priority -1, so a fault at
time *t* applies before any protocol event at the same *t*).

Everything is deterministic: loss bursts draw from named
:class:`~repro.simcore.random.RngRegistry` streams, and the injector
keeps a log of every action it applied for post-run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.faults.loss import GilbertElliottLoss
from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import Node
from repro.obs.tracer import TRACER
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator

# ----------------------------------------------------------------------
# Event vocabulary
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something bad happens at ``at_s`` (simulated seconds)."""

    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at_s}")


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Take a link down for ``duration_s`` (a handover blackout).

    While down the link blackholes every offered packet; on the way down
    its queue (and optionally in-flight packets) are flushed, as when a
    satellite drops below the horizon with frames still buffered.
    """

    link: str = ""
    duration_s: float = 1.0
    flush: bool = True
    drop_inflight: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("LinkDown needs a target link name")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """``cycles`` repetitions of down for ``down_s`` then up for ``up_s``."""

    link: str = ""
    down_s: float = 0.2
    up_s: float = 0.5
    cycles: int = 3
    flush: bool = True
    drop_inflight: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("LinkFlap needs a target link name")
        if self.down_s <= 0 or self.up_s <= 0 or self.cycles <= 0:
            raise ValueError("down_s, up_s, and cycles must be positive")

    def expand(self) -> list[LinkDown]:
        period = self.down_s + self.up_s
        return [
            LinkDown(
                at_s=self.at_s + k * period,
                link=self.link,
                duration_s=self.down_s,
                flush=self.flush,
                drop_inflight=self.drop_inflight,
            )
            for k in range(self.cycles)
        ]


@dataclass(frozen=True)
class DelaySpike(FaultEvent):
    """Propagation delay jumps to ``factor``x plus ``extra_s`` for a while.

    The reverse transition (delay shrinking back at the end) reorders
    packets in flight — the LEO phenomenon the link layer documents.
    The restore is delta-based, so concurrent retuning by a constellation
    driver is preserved rather than stomped.
    """

    link: str = ""
    duration_s: float = 1.0
    factor: float = 1.0
    extra_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("DelaySpike needs a target link name")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.factor < 1.0 or self.extra_s < 0:
            raise ValueError("spikes only add delay (factor >= 1, extra >= 0)")
        if self.factor == 1.0 and self.extra_s == 0.0:
            raise ValueError("spike adds no delay")


@dataclass(frozen=True)
class BandwidthCollapse(FaultEvent):
    """Link rate drops to ``factor`` of nominal for ``duration_s``."""

    link: str = ""
    duration_s: float = 1.0
    factor: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("BandwidthCollapse needs a target link name")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Bernoulli loss at ``plr`` for ``duration_s`` (then restored)."""

    link: str = ""
    duration_s: float = 1.0
    plr: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("LossBurst needs a target link name")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.plr < 1:
            raise ValueError("plr must be in [0, 1)")


@dataclass(frozen=True)
class CorrelatedLoss(FaultEvent):
    """Attach a Gilbert–Elliott loss process for ``duration_s``."""

    link: str = ""
    duration_s: float = 1.0
    p_good_bad: float = 0.01
    p_bad_good: float = 0.1
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link:
            raise ValueError("CorrelatedLoss needs a target link name")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Crash a node (wiping volatile state) and restart it later.

    ``restart_after_s`` of ``None`` means the node never comes back.
    """

    node: str = ""
    restart_after_s: Optional[float] = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node:
            raise ValueError("NodeCrash needs a target node name")
        if self.restart_after_s is not None and self.restart_after_s <= 0:
            raise ValueError("restart_after_s must be positive (or None)")


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------


class FaultSchedule:
    """An ordered collection of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: list[FaultEvent] = []
        for event in events:
            self.add(event)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        if not isinstance(event, FaultEvent):
            raise TypeError(f"not a FaultEvent: {event!r}")
        self._events.append(event)
        return self

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(sorted(self._events, key=lambda e: e.at_s))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def last_fault_end_s(self) -> float:
        """When the final scheduled disturbance is over (0 if empty)."""
        end = 0.0
        for event in self._events:
            duration = getattr(event, "duration_s", None)
            if duration is None and isinstance(event, NodeCrash):
                duration = event.restart_after_s or 0.0
            if isinstance(event, LinkFlap):
                duration = event.cycles * (event.down_s + event.up_s)
            end = max(end, event.at_s + (duration or 0.0))
        return end

    def validate(self) -> "FaultSchedule":
        """Reject schedules whose events would silently corrupt state.

        Two events of the same kind on the same target whose active
        windows overlap — or merely abut — break the save/restore pairing
        inside the injector: the first event's restore fires after the
        second event's apply and stomps it (e.g. a link marked UP while
        its second outage is still running).  Negative times and
        non-positive durations are already rejected by each event's own
        ``__post_init__``; this catches the cross-event hazards.

        :class:`DelaySpike` is exempt: its restore is delta-based and
        documented to compose with concurrent retuning.  Returns ``self``
        so it chains; :meth:`FaultInjector.arm` calls it automatically.
        """
        windows: dict[tuple[str, str], list[tuple[float, float, FaultEvent]]]
        windows = {}

        def record(key: tuple[str, str], start: float, end: float,
                   event: FaultEvent) -> None:
            windows.setdefault(key, []).append((start, end, event))

        for event in self._events:
            if isinstance(event, DelaySpike):
                continue
            if isinstance(event, LinkFlap):
                for down in event.expand():
                    record(("LinkDown", down.link), down.at_s,
                           down.at_s + down.duration_s, event)
            elif isinstance(event, NodeCrash):
                end = (
                    event.at_s + event.restart_after_s
                    if event.restart_after_s is not None
                    else float("inf")
                )
                record(("NodeCrash", event.node), event.at_s, end, event)
            else:
                link = getattr(event, "link", None)
                duration = getattr(event, "duration_s", None)
                if link is None or duration is None:
                    continue
                record((type(event).__name__, link), event.at_s,
                       event.at_s + duration, event)

        for (kind, target), intervals in sorted(windows.items()):
            intervals.sort(key=lambda iv: (iv[0], iv[1]))
            for (s1, e1, ev1), (s2, e2, ev2) in zip(
                intervals[:-1], intervals[1:]
            ):
                if s2 <= e1:
                    raise ValueError(
                        f"overlapping {kind} events on {target!r}: "
                        f"[{s1}, {e1}) from {ev1!r} collides with "
                        f"[{s2}, {e2}) from {ev2!r}; merge them into one "
                        f"event (restores would fire out of order)"
                    )
        return self


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------


class _ScaledProfile:
    """Bandwidth profile proxy multiplying the base rate by a factor."""

    def __init__(self, base, factor: float) -> None:
        self.base = base
        self.factor = factor

    def rate_at(self, t: float) -> float:
        return self.base.rate_at(t) * self.factor


class FaultInjector:
    """Executes a :class:`FaultSchedule` against registered links/nodes."""

    PRIORITY = -1  # faults beat same-timestamp protocol events

    def __init__(self, sim: Simulator, rng: Optional[RngRegistry] = None) -> None:
        self.sim = sim
        self._rng = rng if rng is not None else RngRegistry(0)
        self._links: dict[str, list[Link]] = {}
        self._nodes: dict[str, Node] = {}
        self.log: list[tuple[float, str]] = []
        self.faults_applied = 0

    # -- registration ---------------------------------------------------

    def register_link(self, name: str, link: Union[Link, DuplexLink]) -> None:
        """Register a link target.  A DuplexLink registers both directions
        under ``name`` plus each one individually as ``name:ab``/``name:ba``.
        """
        if isinstance(link, DuplexLink):
            self._links[name] = [link.ab, link.ba]
            self._links[f"{name}:ab"] = [link.ab]
            self._links[f"{name}:ba"] = [link.ba]
        else:
            self._links[name] = [link]

    def register_node(self, name: str, node: Node) -> None:
        self._nodes[name] = node

    def register_path(self, path) -> None:
        """Register everything in a built path (any of the path types).

        Duplex ``path.links`` become ``hop0`` .. ``hopN``; every node in
        ``path.nodes`` is registered under its own ``name``.
        """
        for i, duplex in enumerate(path.links):
            self.register_link(f"hop{i}", duplex)
        for node in path.nodes:
            self.register_node(node.name, node)

    def _resolve_links(self, name: str) -> list[Link]:
        links = self._links.get(name)
        if not links:
            known = ", ".join(sorted(self._links)) or "(none)"
            raise KeyError(f"unknown link target {name!r}; registered: {known}")
        return links

    def _resolve_node(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            known = ", ".join(sorted(self._nodes)) or "(none)"
            raise KeyError(f"unknown node target {name!r}; registered: {known}")
        return node

    # -- arming ---------------------------------------------------------

    def arm(self, schedule: FaultSchedule) -> None:
        """Schedule every event of ``schedule`` on the simulator.

        The schedule is validated first (see
        :meth:`FaultSchedule.validate`), so internally-inconsistent
        schedules fail loudly at arm time instead of silently
        mis-restoring state mid-run.
        """
        schedule.validate()
        for event in schedule:
            if isinstance(event, LinkFlap):
                for down in event.expand():
                    self._arm_one(down)
            else:
                self._arm_one(event)

    def _arm_one(self, event: FaultEvent) -> None:
        # Resolve targets eagerly so misconfigured schedules fail at arm
        # time, not minutes into a simulation.
        if isinstance(event, NodeCrash):
            self._resolve_node(event.node)
        elif isinstance(event, FaultEvent) and getattr(event, "link", None):
            self._resolve_links(event.link)
        self.sim.schedule_at(
            event.at_s, self._apply, event, priority=self.PRIORITY
        )

    # -- execution ------------------------------------------------------

    def _log(self, message: str) -> None:
        if TRACER.enabled:
            TRACER.emit(self.sim.now, "fault", "injector", detail=message)
        self.log.append((self.sim.now, message))

    def _apply(self, event: FaultEvent) -> None:
        self.faults_applied += 1  # faults, not log lines (restores log too)
        if isinstance(event, LinkDown):
            self._apply_link_down(event)
        elif isinstance(event, DelaySpike):
            self._apply_delay_spike(event)
        elif isinstance(event, BandwidthCollapse):
            self._apply_bandwidth_collapse(event)
        elif isinstance(event, LossBurst):
            self._apply_loss_burst(event)
        elif isinstance(event, CorrelatedLoss):
            self._apply_correlated_loss(event)
        elif isinstance(event, NodeCrash):
            self._apply_node_crash(event)
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"no handler for fault event {event!r}")

    def _apply_link_down(self, event: LinkDown) -> None:
        links = self._resolve_links(event.link)
        dropped = 0
        for link in links:
            link.up = False
            if event.flush:
                dropped += link.flush(drop_inflight=event.drop_inflight)
        self._log(f"{event.link} DOWN for {event.duration_s}s ({dropped} flushed)")
        self.sim.schedule(
            event.duration_s, self._link_back_up, links, event.link,
            priority=self.PRIORITY,
        )

    def _link_back_up(self, links: list[Link], label: str) -> None:
        for link in links:
            link.up = True
        self._log(f"{label} UP")

    def _apply_delay_spike(self, event: DelaySpike) -> None:
        links = self._resolve_links(event.link)
        deltas = []
        for link in links:
            spiked = link.delay_s * event.factor + event.extra_s
            deltas.append(spiked - link.delay_s)
            link.delay_s = spiked
        self._log(f"{event.link} delay spike (+{deltas[0] * 1000:.1f} ms)")
        self.sim.schedule(
            event.duration_s, self._restore_delay, links, deltas, event.link,
            priority=self.PRIORITY,
        )

    def _restore_delay(self, links, deltas, label: str) -> None:
        for link, delta in zip(links, deltas):
            link.delay_s = max(link.delay_s - delta, 0.0)
        self._log(f"{label} delay restored")

    def _apply_bandwidth_collapse(self, event: BandwidthCollapse) -> None:
        links = self._resolve_links(event.link)
        saved = [link.profile for link in links]
        for link in links:
            link.profile = _ScaledProfile(link.profile, event.factor)
        self._log(f"{event.link} bandwidth collapsed to {event.factor:.0%}")
        self.sim.schedule(
            event.duration_s, self._restore_bandwidth, links, saved,
            event.link, priority=self.PRIORITY,
        )

    def _restore_bandwidth(self, links, saved, label: str) -> None:
        for link, profile in zip(links, saved):
            link.profile = profile
        self._log(f"{label} bandwidth restored")

    def _apply_loss_burst(self, event: LossBurst) -> None:
        links = self._resolve_links(event.link)
        saved = [link.plr for link in links]
        for i, link in enumerate(links):
            link.set_loss(
                event.plr,
                rng=self._rng.stream(f"faults:burst:{event.link}:{i}"),
            )
        self._log(f"{event.link} loss burst plr={event.plr}")
        self.sim.schedule(
            event.duration_s, self._restore_loss, links, saved, event.link,
            priority=self.PRIORITY,
        )

    def _restore_loss(self, links, saved, label: str) -> None:
        for link, plr in zip(links, saved):
            link.set_loss(plr)
        self._log(f"{label} loss restored")

    def _apply_correlated_loss(self, event: CorrelatedLoss) -> None:
        links = self._resolve_links(event.link)
        saved = [link.loss_model for link in links]
        for i, link in enumerate(links):
            link.loss_model = GilbertElliottLoss(
                self._rng.stream(f"faults:ge:{event.link}:{i}"),
                p_good_bad=event.p_good_bad,
                p_bad_good=event.p_bad_good,
                loss_good=event.loss_good,
                loss_bad=event.loss_bad,
            )
        self._log(f"{event.link} Gilbert-Elliott loss attached")
        self.sim.schedule(
            event.duration_s, self._restore_loss_model, links, saved,
            event.link, priority=self.PRIORITY,
        )

    def _restore_loss_model(self, links, saved, label: str) -> None:
        for link, model in zip(links, saved):
            link.loss_model = model
        self._log(f"{label} Gilbert-Elliott loss detached")

    def _apply_node_crash(self, event: NodeCrash) -> None:
        node = self._resolve_node(event.node)
        node.crash()
        self._log(f"{event.node} CRASHED")
        if event.restart_after_s is not None:
            self.sim.schedule(
                event.restart_after_s, self._restart_node, node, event.node,
                priority=self.PRIORITY,
            )

    def _restart_node(self, node: Node, label: str) -> None:
        node.restart()
        self._log(f"{label} restarted")
