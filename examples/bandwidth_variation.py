"""LEOTP's backpressure under a fluctuating bottleneck (Fig. 14 scenario).

The bottleneck bandwidth follows a square wave; the experiment prints a
live trace of the bottleneck rate, the adjacent Midnode's sending buffer,
and the consumer-side goodput, showing the hop-by-hop controller tracking
the bandwidth within a couple of hopRTTs while TCP variants (try ``--bbr``)
queue for an end-to-end feedback cycle.  Run with::

    python examples/bandwidth_variation.py [--bbr]
"""

import sys

from repro.core import build_leotp_path
from repro.netsim.bandwidth import SquareWaveBandwidth
from repro.netsim.topology import HopSpec
from repro.simcore import RngRegistry, Simulator
from repro.tcp import build_e2e_tcp_path
from repro.tcp.cc import CCSpec

DURATION_S = 16.0
N_HOPS = 6


def hops():
    specs = []
    for i in range(N_HOPS):
        if i == 1:
            specs.append(HopSpec(
                rate_bps=10e6, delay_s=0.008,
                profile=SquareWaveBandwidth(10e6, 2e6, period_s=4.0),
            ))
        else:
            specs.append(HopSpec(rate_bps=20e6, delay_s=0.008))
    return specs


def main() -> None:
    use_bbr = "--bbr" in sys.argv
    sim = Simulator()
    rng = RngRegistry(root_seed=2)
    if use_bbr:
        path = build_e2e_tcp_path(sim, rng, hops(), CCSpec("bbr"))
        label = "TCP BBR"
    else:
        path = build_leotp_path(sim, rng, hops())
        label = "LEOTP"
    bottleneck = path.links[1].ab

    print(f"{label} over a 10+-2 Mbps square-wave bottleneck "
          f"({N_HOPS} hops, 96 ms RTT)\n")
    print(f"{'t(s)':>5} {'bottleneck':>11} {'goodput':>9} {'link queue':>11} "
          f"{'mean OWD':>9}")
    t = 0.0
    last_owds = 0
    while t < DURATION_S:
        t += 1.0
        sim.run(until=t)
        rate = bottleneck.profile.rate_at(sim.now) / 1e6
        goodput = path.recorder.throughput_bps(t - 1.0, t) / 1e6
        owds = path.recorder.owds()
        window = owds[last_owds:]
        last_owds = len(owds)
        owd_ms = window.mean() * 1000 if window.size else float("nan")
        print(f"{t:>5.0f} {rate:>9.1f}Mb {goodput:>7.2f}Mb "
              f"{bottleneck.queued_bytes:>10}B {owd_ms:>7.1f}ms")
    print("\nPropagation OWD is 48 ms; everything above that is queueing.")


if __name__ == "__main__":
    main()
