"""Fig. 13 — throughput against path-switching frequency.

Setup (paper Sec. V-B): two parallel paths with different RTTs (80 and
90 ms end to end), 20 Mbps everywhere; the route flips between them
periodically, losing whatever is in flight on the abandoned path.  More
frequent switching hurts every protocol, but LEOTP's connectionless
design degrades the least (paper: +34 % over BBR, +15 % over PCC at a
1 s interval); Vegas collapses because the alternating RTT confuses it.
"""

from __future__ import annotations

from repro.core import Consumer, LeotpConfig, Midnode, Producer
from repro.experiments.paper import Figure
from repro.netsim.link import DuplexLink
from repro.netsim.node import ChainForwarder
from repro.netsim.topology import SwitchablePath
from repro.netsim.trace import FlowRecorder
from repro.simcore import PeriodicProcess, RngRegistry, Simulator
from repro.tcp import TcpReceiver, TcpSender
from repro.tcp.cc import CCSpec

SWITCH_INTERVALS_S = (1.0, 2.0, 4.0, 8.0)
BASELINES = ("bbr", "pcc", "cubic", "vegas")
RATE = 20e6
BLACKOUT_S = 0.0      # paper models switching as in-flight loss only
ACCESS_DELAY = 0.002          # endpoints <-> relays, each way
MIDDLE_DELAYS = (0.036, 0.041)  # two parallel paths: e2e RTT 80 / 90 ms


def _build_fabric(sim: Simulator, rng: RngRegistry, left, right):
    """left -- access -- (switchable middle) -- access -- right."""
    relay_l = ChainForwarder(sim, "relay-l")
    relay_r = ChainForwarder(sim, "relay-r")
    access_l = DuplexLink(sim, left, relay_l, rate_bps=RATE, delay_s=ACCESS_DELAY,
                          name="access-l")
    access_r = DuplexLink(sim, relay_r, right, rate_bps=RATE, delay_s=ACCESS_DELAY,
                          name="access-r")
    middle = SwitchablePath(
        sim, relay_l, relay_r, rng, delays_s=list(MIDDLE_DELAYS), rate_bps=RATE,
        blackout_s=BLACKOUT_S,
    )
    # Relays forward between the access links and every middle member link.
    for duplex in middle.duplexes:
        relay_l.add_forwarding(access_l.ab, duplex.ab)
        relay_l.add_forwarding(duplex.ba, access_l.ba)
        relay_r.add_forwarding(duplex.ab, access_r.ab)
        relay_r.add_forwarding(access_r.ba, duplex.ba)
    # Sends into the middle go through the facade (always the active path).
    relay_l.add_forwarding(access_l.ab, middle.ab)
    relay_r.add_forwarding(access_r.ba, middle.ba)
    return access_l, middle, access_r


def _run_tcp(cc: str, interval_s: float, duration: float, seed: int) -> float:
    sim = Simulator()
    rng = RngRegistry(seed)
    recorder = FlowRecorder(sim)
    sender = TcpSender(sim, "snd", "rcv", None, CCSpec(cc))
    receiver = TcpReceiver(sim, "rcv", None, recorder=recorder)
    access_l, middle, access_r = _build_fabric(sim, rng, sender, receiver)
    sender.out_link = access_l.ab
    receiver.out_link = access_r.ba
    PeriodicProcess(sim, interval_s, middle.switch)
    sim.run(until=duration)
    return recorder.throughput_bps(duration * 0.2, duration) / 1e6


def _run_leotp(interval_s: float, duration: float, seed: int) -> float:
    """LEOTP over two parallel satellite paths, each with its own Midnodes.

    The route flips between the paths; Midnodes on the abandoned path are
    simply left behind with their soft state (the mobility scenario LEOTP
    is designed for) and everything in flight there is lost.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
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

    paths = []  # per path: (list of duplex links, last link toward gs_down)
    for p, one_way in enumerate(MIDDLE_DELAYS):
        per_hop = one_way / 3.0
        sats = [Midnode(sim, f"sat{p}-{i}", config) for i in range(2)]
        nodes = [gs_up, *sats, gs_down]
        links = []
        for i in range(3):
            links.append(DuplexLink(
                sim, nodes[i], nodes[i + 1], rate_bps=RATE, delay_s=per_hop,
                name=f"path{p}-hop{i}",
            ))
        sats[0].set_upstream(links[0].ba)
        sats[1].set_upstream(links[1].ba)
        paths.append(links)

    active = [0]

    def set_active(idx: int, up: bool) -> None:
        for duplex in paths[idx]:
            duplex.ab.up = up
            duplex.ba.up = up

    set_active(0, True)
    set_active(1, False)
    gs_down.set_upstream(paths[0][-1].ba)

    def switch() -> None:
        old = active[0]
        active[0] = (old + 1) % len(paths)
        for duplex in paths[old]:
            duplex.ab.flush(drop_inflight=True)
            duplex.ba.flush(drop_inflight=True)
        set_active(old, False)
        new = active[0]
        # The new path only comes up after the handover blackout.
        sim.schedule(BLACKOUT_S, set_active, new, True)
        gs_down.set_upstream(paths[new][-1].ba)

    PeriodicProcess(sim, interval_s, switch)
    sim.run(until=duration)
    return recorder.throughput_bps(duration * 0.2, duration) / 1e6


run = Figure(
    "Fig. 13",
    "Throughput (Mbps) vs path-switch interval; parallel 80/90 ms paths",
    ("switch_interval_s", "protocol"),
    grid=[(interval, protocol) for interval in SWITCH_INTERVALS_S
          for protocol in ("leotp", *BASELINES)],
    cell=lambda run, interval, protocol: (
        _run_leotp(interval, run.duration, run.seed) if protocol == "leotp"
        else _run_tcp(protocol, interval, run.duration, run.seed)
    ),
    row=lambda run, mbps, *_: dict(throughput_mbps=mbps),
)
