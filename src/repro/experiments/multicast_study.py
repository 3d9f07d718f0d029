"""Multicast amplification: one upstream copy serves N consumers.

Paper Sec. VII ("Supporting multicast"): because LEOTP names content
rather than connections, a Midnode can aggregate simultaneous Interests
for the same flow (PIT-style) and fan the single returned copy out to
every requester; staggered requesters are served from the cache.  This
experiment measures the amplification on a one-Midnode tree: producer
wire bytes versus ``n_consumers x total`` as the fan-out grows, plus a
staggered arrival served from cache.
"""

from __future__ import annotations

from repro.core import Consumer, LeotpConfig, MulticastMidnode, Producer
from repro.experiments.paper import Figure, Run
from repro.netsim.link import DuplexLink
from repro.netsim.trace import FlowRecorder
from repro.simcore import Simulator

#: Fan-out sizes swept at stagger 0 (simultaneous Interests).
FANOUTS = (2, 4, 8)

#: Stagger (seconds) for the cache-service row.
STAGGER_S = 3.0


def _fan_out(run: Run, n_consumers: int, stagger_s: float) -> tuple:
    """n consumers <- MulticastMidnode <- producer, one shared flow."""
    total_bytes = _total_bytes(run)
    sim = Simulator()
    config = LeotpConfig()
    producer = Producer(sim, "prod", config, content_bytes=total_bytes)
    midnode = MulticastMidnode(sim, "mid", config)
    up = DuplexLink(sim, producer, midnode, rate_bps=20e6, delay_s=0.010)
    midnode.set_upstream(up.ba)
    consumers = []
    for i in range(n_consumers):
        consumer = Consumer(
            sim, f"c{i}", "shared-flow", config,
            total_bytes=total_bytes,
            recorder=FlowRecorder(sim, name=f"c{i}"),
            start_time=i * stagger_s,
        )
        access = DuplexLink(
            sim, midnode, consumer, rate_bps=20e6, delay_s=0.002
        )
        consumer.out_link = access.ba
        consumers.append(consumer)
    sim.run(until=run.duration)
    return producer, midnode, sum(1 for c in consumers if c.finished)


def _total_bytes(run: Run) -> int:
    return max(int(300 * 1400 * run.scale), 50 * 1400)


def _row(run: Run, out, n_consumers: int, stagger_s: float) -> dict:
    producer, midnode, finished = out
    total_bytes = _total_bytes(run)
    return dict(
        finished=finished,
        all_finished=finished == n_consumers,
        producer_mbytes=producer.wire_bytes_sent / 1e6,
        # Amplification: 1.0 = one full copy upstream; the naive
        # unicast baseline is n_consumers.
        upstream_copies=producer.wire_bytes_sent / total_bytes,
        savings_vs_unicast=1.0 - producer.wire_bytes_sent / (
            n_consumers * total_bytes),
        interests_aggregated=midnode.interests_aggregated,
        fanout_packets=midnode.fanout_packets,
        cache_hits=midnode.cache.stats.hits,
    )


#: Producer-side amplification versus fan-out (and under stagger).
run = Figure(
    "Multicast",
    "Interest aggregation + fan-out: producer bytes vs N consumers",
    ("n_consumers", "stagger_s"),
    base_s=30.0, floor_s=12.0,
    grid=[(n, 0.0) for n in FANOUTS] + [(4, STAGGER_S)],
    cell=_fan_out,
    row=_row,
    sampler_interval_s=0.5,
)
