"""Layer drivers: per-operation host cost of single layers, tracing off.

Each driver calls one layer's public API directly, so its number is the
clean per-op cost that sits next to the in-situ shares of the traced
ledger.  Run as a script it prints one JSON object of ``drive.*`` metrics
(microseconds per operation, median of ``ROUNDS`` rounds).
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

from repro.common.ranges import ByteRange, RangeSet
from repro.core.cache import BlockCache
from repro.netsim.link import Link
from repro.netsim.node import SinkNode
from repro.netsim.packet import Packet
from repro.simcore import Simulator

ROUNDS = 3
MSS = 1400


def _us_per_op(make) -> float:
    """``make()`` builds fresh state and returns ``(timed, n_ops)``."""
    samples = []
    for _ in range(ROUNDS):
        timed, n_ops = make()
        t0 = perf_counter()
        timed()
        samples.append((perf_counter() - t0) / n_ops * 1e6)
    return median(samples)


def simcore_chain(n_events: int = 200_000):
    """A chain of ``schedule_call`` events: pop, fire, push."""
    sim = Simulator()
    left = [n_events]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.schedule_call(1e-6, tick)

    sim.schedule_call(0.0, tick)
    return sim.run, n_events


def netsim_link(payload_bytes: int, n_packets: int = 20_000):
    """``Link.send`` -> serialise -> deliver into a ``SinkNode``."""
    sim = Simulator()
    link = Link(sim, SinkNode(sim), rate_bps=1e9, delay_s=0.001,
                queue_bytes=None)

    def timed() -> None:
        for _ in range(n_packets):
            link.send(Packet(payload_bytes))
        sim.run()

    return timed, n_packets


def _chunks(order) -> list[ByteRange]:
    return [ByteRange(i * MSS, (i + 1) * MSS) for i in order]


def cache_store(n_ranges: int = 20_000, then_lookup: bool = False):
    """``BlockCache.store`` of one flow's consecutive MSS ranges; with
    ``then_lookup`` the stores are set-up and the lookups are timed."""
    ranges = _chunks(range(n_ranges))
    cache = BlockCache(capacity_bytes=2 * n_ranges * MSS)

    def store() -> None:
        for r in ranges:
            cache.store("flow", r, 0.0, writer="flow")

    def lookup() -> None:
        for r in ranges:
            cache.lookup("flow", r, requester="flow")

    if then_lookup:
        store()
        return lookup, n_ranges
    return store, n_ranges


def ranges_add(n_ranges: int = 20_000):
    """``RangeSet.add``: even chunks first (new intervals), then the odd
    ones (each merges two neighbours) — the receive pattern under loss."""
    ranges = _chunks([*range(0, n_ranges, 2), *range(1, n_ranges, 2)])

    def timed() -> None:
        rs = RangeSet()
        for r in ranges:
            rs.add(r)

    return timed, n_ranges


def measure() -> dict:
    return {
        "drive.simcore.us_per_event": _us_per_op(simcore_chain),
        "drive.netsim.us_per_packet_64": _us_per_op(lambda: netsim_link(64)),
        "drive.netsim.us_per_packet_1448": _us_per_op(
            lambda: netsim_link(1448)),
        "drive.core.cache.store_us": _us_per_op(cache_store),
        "drive.core.cache.lookup_us": _us_per_op(
            lambda: cache_store(then_lookup=True)),
        "drive.common.ranges.us_per_add": _us_per_op(ranges_add),
    }


if __name__ == "__main__":
    print(json.dumps(measure()))
