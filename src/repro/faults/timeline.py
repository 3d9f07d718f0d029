"""One timeline per path: what happens to a built path, and when, as data.

A :class:`Timeline` is a sorted tuple of ``(t, target, field, value)``
entries.  A target is a hop index of the path the timeline is armed on
(both directions of that hop's duplex link) or the name of one of its
nodes.  The fields:

* ``"up"`` — ``False`` takes a hop down (it blackholes offered packets,
  and its queue and in-flight packets are flushed in both directions) or
  crashes a node (wiping its volatile state); ``True`` brings it back;
* ``"delay_s"`` — the hop's one-way propagation delay;
* ``"rate"`` — the hop runs at this fraction of its nominal rate; ``1.0``
  restores the bandwidth profile it was built with;
* ``"loss"`` — a Bernoulli loss rate (a float) or Gilbert–Elliott
  parameters ``(p_good_bad, p_bad_good, loss_good, loss_bad)``; ``None``
  restores the loss the hop was built with;
* ``"signal"`` — a topology event's kind, traced under the target label
  and handed to the driver's ``on_signal`` (the handover up-call of
  churn-aware congestion control).

:class:`TimelineDriver` arms a timeline on a built path at priority -1,
so an entry at time *t* applies before any protocol event at *t*;
entries at one instant apply in the order given.  The fault kinds
(:func:`LinkDown`, :func:`LinkFlap`, :func:`NodeCrash`,
:func:`CorrelatedLoss`) return entries to concatenate into a timeline.
A timeline holds only numbers, strings and tuples, so it pickles,
hashes and compares by value.  Loss draws come from named
:class:`~repro.simcore.random.RngRegistry` streams, and the driver logs
every action it applied for post-run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.loss import GilbertElliottLoss
from repro.netsim.bandwidth import BandwidthProfile
from repro.obs.tracer import TRACER
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator

#: The fields a hop entry may set.
HOP_FIELDS = ("up", "delay_s", "rate", "loss")

#: The value that ends a fault, per field that has faults: any other
#: value starts one.
RESTORES = {"up": True, "rate": 1.0, "loss": None}


def _value_error(field: str, value) -> Optional[str]:
    if field == "up":
        ok = isinstance(value, bool)
    elif field == "delay_s":
        ok = isinstance(value, (int, float)) and 0 <= value < math.inf
    elif field == "rate":
        ok = isinstance(value, (int, float)) and 0 < value <= 1
    elif field == "loss":
        ok = value is None or (
            0 <= value < 1 if isinstance(value, (int, float))
            else isinstance(value, tuple) and len(value) == 4
            and all(0 <= p <= 1 for p in value)
        )
    else:
        ok = isinstance(value, str)
    return None if ok else f"{field} value {value!r} is out of its range"


def _entry_error(entry) -> Optional[str]:
    """Why ``entry`` is malformed, or None."""
    if not isinstance(entry, tuple) or len(entry) != 4:
        return "must be (t, target, field, value)"
    t, target, field, value = entry
    if not isinstance(t, (int, float)) or not 0 <= t < math.inf:
        return f"has the time {t!r}; times are finite and non-negative"
    if field not in (*HOP_FIELDS, "signal"):
        return f"sets the unknown field {field!r}"
    if isinstance(target, str):
        if not target or field not in ("up", "signal"):
            return f"sets {field} of the node {target!r}; a node has only up"
    elif isinstance(target, bool) or not isinstance(target, int) or (
        target < 0 or field == "signal"
    ):
        return f"targets {target!r}; a hop index is a non-negative int"
    return _value_error(field, value)


@dataclass(frozen=True)
class Timeline:
    """One path's sorted ``(t, target, field, value)`` entries (fields
    and values: module docstring)."""

    entries: tuple = ()

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        for entry in entries:
            error = _entry_error(entry)
            if error is not None:
                raise ValueError(f"entries hold {entry!r}, which {error}")
        # A stable sort: entries at one instant keep the order given.
        object.__setattr__(
            self, "entries", tuple(sorted(entries, key=lambda e: e[0]))
        )
        self._check_overlaps()

    def _check_overlaps(self) -> None:
        """Reject a fault that starts while an earlier fault of the same
        field on the same target is still running, or at the instant it
        ends: merge them into one instead.  ``delay_s`` values are
        absolute, so delay entries compose in any order."""
        open_at: dict[tuple, float] = {}
        ended_at: dict[tuple, float] = {}
        for t, target, field, value in self.entries:
            if field not in RESTORES:
                continue
            key = (target, field)
            if value == RESTORES[field]:
                if key in open_at:
                    ended_at[key] = t
                    del open_at[key]
            elif key in open_at or ended_at.get(key, -1.0) >= t:
                since = open_at.get(key, ended_at.get(key))
                raise ValueError(
                    f"entries overlap: a {field} fault on {target!r} at "
                    f"t={t} collides with the one running at t={since}; "
                    f"merge them into one"
                )
            else:
                open_at[key] = t

    @property
    def fault_window(self) -> tuple[float, float]:
        """From the first fault to the last restore; ``(0, 0)`` if the
        timeline holds no fault."""
        windowed = [(t, field, value) for t, _, field, value in self.entries
                    if field in RESTORES]
        starts = [t for t, field, value in windowed
                  if value != RESTORES[field]]
        if not starts:
            return 0.0, 0.0
        return starts[0], max(t for t, _, _ in windowed)


# ----------------------------------------------------------------------
# The fault kinds: each returns the entries it is made of
# ----------------------------------------------------------------------


def _positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def LinkDown(at_s: float, hop: int, duration_s: float = 1.0) -> tuple:
    """A handover blackout: ``hop`` is down for ``duration_s``."""
    _positive(duration_s=duration_s)
    return ((at_s, hop, "up", False), (at_s + duration_s, hop, "up", True))


def LinkFlap(at_s: float, hop: int, down_s: float = 0.2, up_s: float = 0.5,
             cycles: int = 3) -> tuple:
    """``cycles`` repetitions of down for ``down_s`` then up for ``up_s``.

    The last up period is part of the fault, so a closing ``up`` entry
    marks where the flap ends.
    """
    _positive(down_s=down_s, up_s=up_s, cycles=cycles)
    period = down_s + up_s
    entries = ()
    for k in range(cycles):
        entries += LinkDown(at_s + k * period, hop, down_s)
    return entries + ((at_s + cycles * period, hop, "up", True),)


def NodeCrash(at_s: float, node: str,
              restart_after_s: Optional[float] = 0.5) -> tuple:
    """Crash ``node`` and restart it ``restart_after_s`` later (``None``:
    it never comes back)."""
    if restart_after_s is None:
        return ((at_s, node, "up", False),)
    _positive(restart_after_s=restart_after_s)
    return ((at_s, node, "up", False),
            (at_s + restart_after_s, node, "up", True))


def CorrelatedLoss(at_s: float, hop: int, duration_s: float = 1.0,
                   p_good_bad: float = 0.01, p_bad_good: float = 0.1,
                   loss_good: float = 0.0, loss_bad: float = 0.5) -> tuple:
    """A Gilbert–Elliott loss process on ``hop`` for ``duration_s``."""
    _positive(duration_s=duration_s)
    params = (p_good_bad, p_bad_good, loss_good, loss_bad)
    return ((at_s, hop, "loss", params),
            (at_s + duration_s, hop, "loss", None))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


class TimelineDriver:
    """Arms a :class:`Timeline` on a built path and applies its entries.

    ``path`` exposes ``links`` (its duplex links, hop 0 first) and, for
    node targets, ``nodes``.  Every target is resolved here, so a
    timeline that names a hop or node the path lacks fails when armed,
    not minutes into a run.  ``log`` holds ``(t, action)`` for every
    entry applied but signals; ``faults_applied`` counts the entries
    that started a fault (restores are logged, not counted).
    """

    PRIORITY = -1  # entries beat same-timestamp protocol events

    def __init__(
        self,
        sim: Simulator,
        path,
        timeline: Timeline,
        rng: Optional[RngRegistry] = None,
        on_signal: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.sim = sim
        self._links = list(path.links)
        self._nodes = {node.name: node for node in getattr(path, "nodes", ())}
        self._rng = rng if rng is not None else RngRegistry(0)
        self._on_signal = on_signal
        # What each hop was built with, restored by a fault's end.
        self._built = [
            [(link.plr, link.loss_model, link.profile)
             for link in (duplex.ab, duplex.ba)]
            for duplex in self._links
        ]
        self.log: list[tuple[float, str]] = []
        self.faults_applied = 0
        for t, target, field, _ in timeline.entries:
            if field == "signal":
                continue
            if isinstance(target, str) and target not in self._nodes:
                known = ", ".join(sorted(self._nodes)) or "(none)"
                raise ValueError(
                    f"timeline targets the node {target!r} at t={t}; "
                    f"the path has {known}"
                )
            if isinstance(target, int) and target >= len(self._links):
                raise ValueError(
                    f"timeline targets hop {target} at t={t}; the path "
                    f"has {len(self._links)} hops"
                )
        for entry in timeline.entries:
            sim.schedule_at(entry[0], self._apply, entry,
                            priority=self.PRIORITY)

    def _apply(self, entry: tuple) -> None:
        _, target, field, value = entry
        if field == "signal":
            if TRACER.enabled:
                TRACER.emit(self.sim.now, "topology", target, kind=value)
            if self._on_signal is not None:
                self._on_signal(value)
            return
        if field in RESTORES and value != RESTORES[field]:
            self.faults_applied += 1
        if isinstance(target, str):
            node = self._nodes[target]
            if value:
                node.restart()
            else:
                node.crash()
            self._log(f"{target} {'restarted' if value else 'CRASHED'}")
            return
        label = f"hop{target}"
        duplex = self._links[target]
        links = (duplex.ab, duplex.ba)
        if field == "up":
            flushed = 0
            for link in links:
                link.up = value
                if not value:
                    flushed += link.flush(drop_inflight=True)
            action = "UP" if value else f"DOWN ({flushed} flushed)"
        elif field == "delay_s":
            duplex.set_delay(value)
            action = f"delay {value * 1e3:.3f} ms"
        elif field == "rate":
            for link, (_, _, profile) in zip(links, self._built[target]):
                link.profile = profile if value == 1.0 else BandwidthProfile(
                    profile.mean_rate() * value
                )
            action = f"rate x{value}"
        else:
            for i, (link, (plr, model, _)) in enumerate(
                zip(links, self._built[target])
            ):
                if value is None:
                    link.set_loss(plr)
                    link.loss_model = model
                elif isinstance(value, tuple):
                    link.loss_model = GilbertElliottLoss(
                        self._rng.stream(f"faults:ge:{label}:{i}"), *value
                    )
                else:
                    link.set_loss(
                        value, rng=self._rng.stream(f"faults:burst:{label}:{i}")
                    )
            action = "loss restored" if value is None else f"loss {value}"
        self._log(f"{label} {action}")

    def _log(self, message: str) -> None:
        if TRACER.enabled:
            TRACER.emit(self.sim.now, "fault", "timeline", detail=message)
        self.log.append((self.sim.now, message))
