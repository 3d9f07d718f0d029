"""Fig. 13 — throughput against path-switching frequency.

Setup (paper Sec. V-B): two parallel paths with different RTTs (80 and
90 ms end to end), 20 Mbps everywhere; the route flips between them
periodically, losing whatever is in flight on the abandoned path.  More
frequent switching hurts every protocol, but LEOTP's connectionless
design degrades the least (paper: +34 % over BBR, +15 % over PCC at a
1 s interval); Vegas collapses because the alternating RTT confuses it.

Both protocols switch through one :class:`~repro.faults.timeline.Timeline`
of ``up`` entries (:func:`switch_timeline`) on the parallel middle hops:
a down hop flushes what it queues and carries, and a relay sends through
a :class:`~repro.netsim.topology.FirstUpLink` over the parallel members.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import Consumer, LeotpConfig, Midnode, Producer
from repro.experiments.paper import Figure
from repro.faults import Timeline, TimelineDriver
from repro.netsim.link import DuplexLink
from repro.netsim.node import ChainForwarder
from repro.netsim.topology import FirstUpLink
from repro.netsim.trace import FlowRecorder
from repro.simcore import Simulator
from repro.tcp import TcpReceiver, TcpSender
from repro.tcp.cc import CCSpec

SWITCH_INTERVALS_S = (1.0, 2.0, 4.0, 8.0)
BASELINES = ("bbr", "pcc", "cubic", "vegas")
RATE = 20e6
ACCESS_DELAY = 0.002          # endpoints <-> relays, each way
MIDDLE_DELAYS = (0.036, 0.041)  # two parallel paths: e2e RTT 80 / 90 ms


def switch_timeline(interval_s: float, duration_s: float,
                    hops_per_path: int) -> Timeline:
    """Route flips between two parallel paths every ``interval_s``.

    Path ``p`` is hops ``p * hops_per_path`` onward of the switched
    links.  Path 0 carries the route first (path 1 goes down at t=0); at
    each ``k * interval_s`` up to ``duration_s`` the old path's hops go
    down, losing what is queued and in flight there — the paper's model
    of a path switch — and then the new path's hops come up.
    """
    def hops(path: int) -> range:
        return range(path * hops_per_path, (path + 1) * hops_per_path)

    entries = [(0.0, hop, "up", False) for hop in hops(1)]
    k = 1
    while k * interval_s <= duration_s:
        t = k * interval_s
        entries += [(t, hop, "up", False) for hop in hops((k - 1) % 2)]
        entries += [(t, hop, "up", True) for hop in hops(k % 2)]
        k += 1
    return Timeline(tuple(entries))


def _switch(sim: Simulator, links: list, interval_s: float,
            duration: float) -> None:
    """Arm the path switches on ``links``: both paths' hops, path 0's
    first."""
    timeline = switch_timeline(interval_s, duration, len(links) // 2)
    TimelineDriver(sim, SimpleNamespace(links=links), timeline)


def _run_tcp(cc: str, interval_s: float, duration: float) -> float:
    """left -- access -- relay == two parallel paths == relay -- access -- right."""
    sim = Simulator()
    recorder = FlowRecorder(sim)
    sender = TcpSender(sim, "snd", "rcv", None, CCSpec(cc))
    receiver = TcpReceiver(sim, "rcv", None, recorder=recorder)
    relay_l = ChainForwarder(sim, "relay-l")
    relay_r = ChainForwarder(sim, "relay-r")
    access_l = DuplexLink(sim, sender, relay_l, rate_bps=RATE,
                          delay_s=ACCESS_DELAY, name="access-l")
    access_r = DuplexLink(sim, relay_r, receiver, rate_bps=RATE,
                          delay_s=ACCESS_DELAY, name="access-r")
    middle = [DuplexLink(sim, relay_l, relay_r, rate_bps=RATE, delay_s=delay,
                         name=f"middle{p}")
              for p, delay in enumerate(MIDDLE_DELAYS)]
    # Relays forward from every middle member, and into whichever is up.
    for duplex in middle:
        relay_l.add_forwarding(duplex.ba, access_l.ba)
        relay_r.add_forwarding(duplex.ab, access_r.ab)
    relay_l.add_forwarding(access_l.ab, FirstUpLink([d.ab for d in middle]))
    relay_r.add_forwarding(access_r.ba, FirstUpLink([d.ba for d in middle]))
    sender.out_link = access_l.ab
    receiver.out_link = access_r.ba
    _switch(sim, middle, interval_s, duration)
    sim.run(until=duration)
    return recorder.throughput_bps(duration * 0.2, duration) / 1e6


def _run_leotp(interval_s: float, duration: float) -> float:
    """LEOTP over two parallel satellite paths, each with its own Midnodes.

    The route flips between the paths; Midnodes on the abandoned path are
    simply left behind with their soft state (the mobility scenario LEOTP
    is designed for) and everything in flight there is lost.
    """
    sim = Simulator()
    config = LeotpConfig()
    recorder = FlowRecorder(sim)
    producer = Producer(sim, "prod", config)
    consumer = Consumer(sim, "cons", "flow", config, recorder=recorder)
    gs_up = Midnode(sim, "gs-up", config)      # producer-side ground station
    gs_down = Midnode(sim, "gs-down", config)  # consumer-side ground station
    access_up = DuplexLink(sim, producer, gs_up, rate_bps=RATE,
                           delay_s=ACCESS_DELAY)
    access_down = DuplexLink(sim, gs_down, consumer, rate_bps=RATE,
                             delay_s=ACCESS_DELAY)
    consumer.out_link = access_down.ba
    gs_up.set_upstream(access_up.ba)

    links = []  # path 0's hops, then path 1's
    for p, one_way in enumerate(MIDDLE_DELAYS):
        sats = [Midnode(sim, f"sat{p}-{i}", config) for i in range(2)]
        nodes = [gs_up, *sats, gs_down]
        path = [DuplexLink(sim, nodes[i], nodes[i + 1], rate_bps=RATE,
                           delay_s=one_way / 3.0, name=f"path{p}-hop{i}")
                for i in range(3)]
        sats[0].set_upstream(path[0].ba)
        sats[1].set_upstream(path[1].ba)
        links += path
    gs_down.set_upstream(FirstUpLink([links[2].ba, links[5].ba]))
    _switch(sim, links, interval_s, duration)
    sim.run(until=duration)
    return recorder.throughput_bps(duration * 0.2, duration) / 1e6


run = Figure(
    "Fig. 13",
    "Throughput (Mbps) vs path-switch interval; parallel 80/90 ms paths",
    ("switch_interval_s", "protocol"),
    grid=[(interval, protocol) for interval in SWITCH_INTERVALS_S
          for protocol in ("leotp", *BASELINES)],
    cell=lambda run, interval, protocol: (
        _run_leotp(interval, run.duration) if protocol == "leotp"
        else _run_tcp(protocol, interval, run.duration)
    ),
    row=lambda run, mbps, *_: dict(throughput_mbps=mbps),
)
