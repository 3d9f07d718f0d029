"""Quickstart: a reliable LEOTP file transfer over a lossy satellite chain.

Builds a 5-hop chain (20 Mbps per hop, 1 % loss per hop), transfers a
10 MB file with LEOTP, and compares against end-to-end TCP BBR on the
identical network.  Run with::

    python examples/quickstart.py
"""

from repro.core import build_leotp_path
from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator
from repro.tcp import FiniteStream, build_e2e_tcp_path
from repro.tcp.cc import CCSpec

FILE_BYTES = 10_000_000
HOPS = dict(rate_bps=20e6, delay_s=0.010, plr=0.01)


def transfer_with_leotp() -> None:
    sim = Simulator()
    rng = RngRegistry(root_seed=1)
    path = build_leotp_path(
        sim, rng, uniform_chain_specs(5, **HOPS), total_bytes=FILE_BYTES
    )
    sim.run(until=60.0)
    consumer = path.consumer
    assert consumer.finished, "transfer did not complete"
    elapsed = consumer.completed_at
    print("LEOTP:")
    print(f"  completed in        {elapsed:.2f} s "
          f"({FILE_BYTES * 8 / elapsed / 1e6:.2f} Mbps goodput)")
    print(f"  mean packet OWD     {path.recorder.owd_mean() * 1000:.1f} ms")
    print(f"  p99 packet OWD      {path.recorder.owd_percentile(99) * 1000:.1f} ms")
    in_network = sum(m.stats.retx_interests_sent for m in path.midnodes)
    print(f"  losses repaired in-network: {in_network} "
          f"(consumer re-requests: {consumer.retransmission_interests})")
    print(f"  server bytes sent   {path.producer.wire_bytes_sent / 1e6:.2f} MB")


def transfer_with_bbr() -> None:
    sim = Simulator()
    rng = RngRegistry(root_seed=1)
    path = build_e2e_tcp_path(
        sim, rng, uniform_chain_specs(5, **HOPS), CCSpec("bbr"),
        stream=FiniteStream(FILE_BYTES),
    )
    sim.run(until=60.0)
    sender = path.sender
    assert sender.finished, "transfer did not complete"
    elapsed = sender.completed_at
    print("TCP BBR:")
    print(f"  completed in        {elapsed:.2f} s "
          f"({FILE_BYTES * 8 / elapsed / 1e6:.2f} Mbps goodput)")
    print(f"  mean packet OWD     {path.recorder.owd_mean() * 1000:.1f} ms")
    print(f"  p99 packet OWD      {path.recorder.owd_percentile(99) * 1000:.1f} ms")
    print(f"  retransmissions     {sender.retransmissions}")
    print(f"  sender bytes sent   {sender.wire_bytes_sent / 1e6:.2f} MB")


if __name__ == "__main__":
    print(f"Transferring a {FILE_BYTES / 1e6:.0f} MB file over "
          "5 hops x (20 Mbps, 10 ms, 1% loss)\n")
    transfer_with_leotp()
    print()
    transfer_with_bbr()
