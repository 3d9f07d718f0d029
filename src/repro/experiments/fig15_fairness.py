"""Fig. 15 — intra-protocol fairness under equal and different RTTs.

Setup (paper Sec. V-B): a dumbbell with a 5 Mbps / 30 ms-RTT bottleneck;
three flows start staggered.  With equal RTTs both LEOTP and BBR share
fairly; with RTTs of 90/120/150 ms BBR favours the long-RTT flow while
LEOTP stays fair, because all LEOTP flows compete on the *same* segment.

Durations are scaled down from the paper's 600 s run; the convergence
behaviour is visible within tens of seconds.
"""

from __future__ import annotations

from repro.analysis import jain_fairness
from repro.core import Consumer, LeotpConfig, Midnode, Producer
from repro.experiments.paper import Figure
from repro.netsim.link import DuplexLink
from repro.netsim.topology import HopSpec, build_dumbbell
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp import TcpReceiver, TcpSender
from repro.tcp.cc import CCSpec

BOTTLENECK_RATE = 5e6
N_FLOWS = 3


def _flow_rtts(same_rtt: bool) -> list[float]:
    # Total end-to-end RTTs; the bottleneck contributes 30 ms.
    return [0.060] * N_FLOWS if same_rtt else [0.090, 0.120, 0.150]


def _access_delay(rtt_total: float) -> float:
    # RTT = 2*(2 access hops + bottleneck one-way): access one-way delay.
    bottleneck_one_way = 0.015
    return max((rtt_total / 2 - bottleneck_one_way) / 2, 0.0005)


def _run_bbr(same_rtt: bool, duration: float, stagger: float, seed: int):
    sim = Simulator()
    rng = RngRegistry(seed)
    recorders = [FlowRecorder(sim, name=f"f{i}") for i in range(N_FLOWS)]
    senders, receivers = [], []
    for i in range(N_FLOWS):
        sender = TcpSender(
            sim, f"s{i}", f"r{i}", None, CCSpec("bbr"),
            flow_id=f"f{i}", start_time=i * stagger,
        )
        receiver = TcpReceiver(
            sim, f"r{i}", None, recorder=recorders[i], flow_id=f"f{i}"
        )
        senders.append(sender)
        receivers.append(receiver)
    specs = [
        HopSpec(rate_bps=100e6, delay_s=_access_delay(rtt))
        for rtt in _flow_rtts(same_rtt)
    ]
    bell = build_dumbbell(
        sim, senders, receivers, rng,
        bottleneck=HopSpec(rate_bps=BOTTLENECK_RATE, delay_s=0.015),
        access_specs=specs,
    )
    for i in range(N_FLOWS):
        senders[i].out_link = bell.access_left[i].ab
        receivers[i].out_link = bell.access_right[i].ba
    sim.run(until=duration)
    return _measure(recorders, duration, stagger)


def _run_leotp(same_rtt: bool, duration: float, stagger: float, seed: int):
    sim = Simulator()
    rng = RngRegistry(seed)
    config = LeotpConfig()
    mid_c = Midnode(sim, "mid-consumer-side", config)
    mid_p = Midnode(sim, "mid-producer-side", config)
    bottleneck = DuplexLink(
        sim, mid_c, mid_p, rate_bps=BOTTLENECK_RATE, delay_s=0.015,
        name="bottleneck",
    )
    mid_c.set_upstream(bottleneck.ab)  # toward the producer side
    recorders = []
    for i, rtt in enumerate(_flow_rtts(same_rtt)):
        flow = f"f{i}"
        recorder = FlowRecorder(sim, name=flow)
        recorders.append(recorder)
        producer = Producer(sim, f"p{i}", config)
        consumer = Consumer(
            sim, f"c{i}", flow, config, recorder=recorder,
            start_time=i * stagger,
        )
        access_delay = _access_delay(rtt)
        access_c = DuplexLink(
            sim, consumer, mid_c, rate_bps=100e6, delay_s=access_delay,
            name=f"access-c{i}",
        )
        access_p = DuplexLink(
            sim, mid_p, producer, rate_bps=100e6, delay_s=access_delay,
            name=f"access-p{i}",
        )
        consumer.out_link = access_c.ab
        mid_p.set_upstream(access_p.ab, flow_id=flow)
    sim.run(until=duration)
    return _measure(recorders, duration, stagger)


def _measure(recorders, duration: float, stagger: float):
    """Final-window throughputs plus the Jain index just after the last
    flow joined (how quickly the allocation converges)."""
    final = (duration * 0.7, duration)
    throughputs = [rec.throughput_bps(*final) / 1e6 for rec in recorders]
    join = (N_FLOWS - 1) * stagger
    early = (join, min(join + max(stagger, 2.0), duration))
    early_thr = [rec.throughput_bps(*early) / 1e6 for rec in recorders]
    early_jain = jain_fairness(early_thr) if any(early_thr) else 0.0
    return throughputs, early_jain


run = Figure(
    "Fig. 15",
    "Per-flow throughput (Mbps) and Jain index on a 5 Mbps dumbbell",
    ("rtts", "protocol"),
    base_s=60.0, floor_s=9.0,
    grid=[(rtts, protocol) for rtts in ("same", "different")
          for protocol in ("leotp", "bbr")],
    cell=lambda run, rtts, protocol: (
        _run_leotp if protocol == "leotp" else _run_bbr
    )(rtts == "same", run.duration, run.duration / 10.0, run.seed),
    row=lambda run, out, *_: dict(
        flow1_mbps=out[0][0],
        flow2_mbps=out[0][1],
        flow3_mbps=out[0][2],
        jain_index=jain_fairness(out[0]),
        jain_after_join=out[1],
    ),
    notes=lambda *_: [
        "jain_after_join = fairness in the window right after the last flow "
        "starts (convergence speed); jain_index = final window"
    ],
)
