"""Incremental deployment: TCP endpoints, LEOTP satellite segment.

The paper's Sec. VII deployment story: unmodified TCP hosts talk to
transparent gateways at the ground stations, and only the satellite
segment speaks LEOTP.  This example downloads a file from a TCP server
to a TCP client across a lossy 5-hop LEO segment, once bridged through
LEOTP gateways and once as plain end-to-end TCP, and compares.  Run::

    python examples/tcp_gateway_bridge.py
"""

from repro.gateway import build_gateway_path
from repro.netsim.topology import HopSpec, uniform_chain_specs
from repro.simcore import RngRegistry, Simulator
from repro.tcp import FiniteStream, build_e2e_tcp_path
from repro.tcp.cc import CCSpec

FILE_BYTES = 5_000_000
LEO = dict(rate_bps=20e6, delay_s=0.010, plr=0.01)


def bridged() -> None:
    sim = Simulator()
    rng = RngRegistry(root_seed=5)
    path = build_gateway_path(
        sim, rng, total_bytes=FILE_BYTES,
        leo_hops=uniform_chain_specs(5, **LEO),
    )
    sim.run(until=120.0)
    print("TCP + LEOTP gateways (LEOTP on the satellite segment):")
    print(f"  client received     {path.client.bytes_delivered / 1e6:.1f} MB")
    if path.egress.consumer.completed_at:
        goodput = FILE_BYTES * 8 / path.egress.consumer.completed_at / 1e6
        print(f"  LEO segment done at {path.egress.consumer.completed_at:.2f} s "
              f"(~{goodput:.2f} Mbps)")
    mids = path.satellites
    repaired = sum(getattr(m, "stats", None).retx_interests_sent
                   for m in mids if hasattr(m, "stats"))
    print(f"  losses repaired inside the LEO segment: {repaired}")


def plain_tcp() -> None:
    sim = Simulator()
    rng = RngRegistry(root_seed=5)
    # Same LEO segment plus the two terrestrial hops, all end-to-end TCP.
    hops = [HopSpec(rate_bps=100e6, delay_s=0.005)] \
        + uniform_chain_specs(5, **LEO) \
        + [HopSpec(rate_bps=100e6, delay_s=0.005)]
    path = build_e2e_tcp_path(sim, rng, hops, CCSpec("cubic"),
                              stream=FiniteStream(FILE_BYTES))
    sim.run(until=120.0)
    print("Plain end-to-end TCP Cubic over the same path:")
    if path.sender.finished:
        goodput = FILE_BYTES * 8 / path.sender.completed_at / 1e6
        print(f"  completed at {path.sender.completed_at:.2f} s (~{goodput:.2f} Mbps)")
    else:
        print(f"  INCOMPLETE after 120 s: "
              f"{path.receiver.bytes_delivered / 1e6:.1f} of "
              f"{FILE_BYTES / 1e6:.1f} MB delivered")
    print(f"  retransmissions: {path.sender.retransmissions}")


if __name__ == "__main__":
    print(f"Downloading {FILE_BYTES / 1e6:.0f} MB across a lossy "
          "5-hop LEO segment (1 % loss per hop)\n")
    bridged()
    print()
    plain_tcp()
