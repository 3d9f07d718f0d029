"""Kernel and hot-path microbenchmarks.

Unlike the ``test_bench_fig*`` suite (which times whole experiments),
these isolate the layers the simulator spends its time in: the event
heap, cancellation churn, :class:`RangeSet` bookkeeping, the block cache
(time per fill and host bytes per cached block), and one small
end-to-end LEOTP transfer as an integration figure (time and peak RSS).

The perf trajectory lives in ``BENCH_kernel.json`` at the repo root;
regenerate and diff it with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py \
        --benchmark-only --benchmark-json=new.json
    python benchmarks/compare.py BENCH_kernel.json new.json

``_schedule`` falls back to ``Simulator.schedule`` so the same workload
runs against kernels that predate the ``schedule_call`` fast path —
that is how the pre-PR baseline (``BENCH_kernel_baseline.json``) was
captured.
"""

from __future__ import annotations

import os

import pytest

from repro.common.ranges import ByteRange, RangeSet
from repro.simcore import Simulator

# Event counts sized so each round takes tenths of a second: large enough
# to swamp timer resolution, small enough to iterate on.  The committed
# BENCH_kernel.json numbers use full scale; LEOTP_BENCH_TINY=1 shrinks
# every workload ~10x for the CI smoke job (trend data point, not a
# publishable number).
_TINY = os.environ.get("LEOTP_BENCH_TINY") == "1"
_F = 10 if _TINY else 1
CHAIN_EVENTS = 100_000 // _F
FANOUT_EVENTS = 50_000 // _F
CANCEL_TIMERS = 2_000 // _F
CANCEL_ROUNDS = 30
RANGESET_PACKETS = 20_000 // _F
CACHE_FILL_BYTES = (8 << 20) // _F
E2E_DURATION_S = 3.0 if not _TINY else 1.0


def _scheduler(sim: Simulator):
    """The cheapest fire-and-forget scheduling call the kernel offers."""
    return getattr(sim, "schedule_call", sim.schedule)


# ----------------------------------------------------------------------
# Event heap
# ----------------------------------------------------------------------


def test_kernel_chain(benchmark):
    """Self-rescheduling timer chain: 1 schedule per executed event.

    This is the shape of every pacing loop in the stack (Consumer emit
    ticks, PacedSender drains, link serialisation) and the headline
    events/sec figure.
    """

    def run_chain():
        sim = Simulator()
        schedule = _scheduler(sim)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < CHAIN_EVENTS:
                schedule(0.001, tick)

        schedule(0.001, tick)
        sim.run()
        return sim

    sim = benchmark(run_chain)
    assert sim.events_executed == CHAIN_EVENTS
    benchmark.extra_info["events_per_sec"] = round(
        CHAIN_EVENTS / benchmark.stats.stats.mean
    )


def test_kernel_fanout(benchmark):
    """Pre-loaded heap: schedule everything up front, then drain.

    Stresses heappush/heappop on a deep heap rather than the
    schedule-execute cycle.
    """

    def run_fanout():
        sim = Simulator()
        schedule = _scheduler(sim)
        sink = [0]

        def cb(i):
            sink[0] += i

        for i in range(FANOUT_EVENTS):
            schedule((i % 1000) * 1e-4, cb, i)
        sim.run()
        return sim

    sim = benchmark(run_fanout)
    assert sim.events_executed == FANOUT_EVENTS
    benchmark.extra_info["events_per_sec"] = round(
        FANOUT_EVENTS / benchmark.stats.stats.mean
    )


def test_kernel_cancel_churn(benchmark):
    """Timer re-arm churn: the RTO pattern (schedule, cancel, repeat).

    Every round re-arms ``CANCEL_TIMERS`` far-future timers, leaving the
    previous generation cancelled in the heap; a kernel without lazy
    cancellation accounting lets the heap bloat with zombies.
    """

    def run_churn():
        sim = Simulator()
        events = [sim.schedule(1000.0, _noop) for _ in range(CANCEL_TIMERS)]
        for _ in range(CANCEL_ROUNDS):
            for i, event in enumerate(events):
                event.cancel()
                events[i] = sim.schedule(1000.0, _noop)
        for event in events:
            event.cancel()
        sim.schedule(0.5, _noop)
        sim.run(until=1.0)
        return sim

    sim = benchmark(run_churn)
    assert sim.events_executed == 1


def _noop():
    pass


# ----------------------------------------------------------------------
# RangeSet (reassembly / cache hot path)
# ----------------------------------------------------------------------


def test_rangeset_churn(benchmark):
    """Receiver-reassembly shape: MSS adds with holes, len() per packet.

    Every 7th segment is 'lost' and repaired a window later; every add is
    followed by the __len__/missing_within queries the Consumer and the
    backpressure check issue per packet.
    """
    mss = 1448

    def run_churn():
        rs = RangeSet()
        covered = 0
        holes = []
        for i in range(RANGESET_PACKETS):
            rng = ByteRange(i * mss, (i + 1) * mss)
            if i % 7 == 3:
                holes.append(rng)
            else:
                rs.add(rng)
            covered = len(rs)  # cached-length hot call
            if i % 64 == 0 and i > 0:
                rs.missing_within(ByteRange(max(0, (i - 64) * mss), i * mss))
            if len(holes) > 40:
                for hole in holes:
                    rs.add(hole)
                holes.clear()
        for hole in holes:
            rs.add(hole)
        return rs, covered

    rs, _ = benchmark(run_churn)
    assert len(rs) == RANGESET_PACKETS * mss


# ----------------------------------------------------------------------
# Block cache (the per-packet-per-hop store)
# ----------------------------------------------------------------------


def test_block_cache_fill(benchmark):
    """One flow's MSS packets stored in order, then one lookup pass: what
    every Midnode does per packet.  ``host_bytes_per_block`` is what the
    simulator pays to remember one cached 4096-byte block."""
    import tracemalloc

    from repro.core.cache import BlockCache

    mss = 1400
    n_packets = CACHE_FILL_BYTES // mss

    def fill():
        cache = BlockCache(capacity_bytes=2 * CACHE_FILL_BYTES)
        for i in range(n_packets):
            cache.store("flow", ByteRange(i * mss, (i + 1) * mss), 0.5,
                        writer="flow")
        return cache

    def fill_and_read():
        cache = fill()
        for i in range(n_packets):
            cache.lookup("flow", ByteRange(i * mss, (i + 1) * mss),
                         requester="flow")
        return cache

    cache = benchmark(fill_and_read)
    assert cache.stats.hits == n_packets
    assert cache.stored_bytes == n_packets * mss
    tracemalloc.start()
    try:
        cache = fill()
        host_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["host_bytes_per_block"] = round(
        host_bytes / sum(1 for _ in cache.blocks())
    )


# ----------------------------------------------------------------------
# End-to-end integration point
# ----------------------------------------------------------------------


def test_e2e_leotp_transfer(benchmark, monkeypatch):
    """A small fig12-style lossy multi-hop LEOTP run (whole stack): time,
    peak RSS, and — a count, so no host noise — Python frames per
    packet-hop of the 3-hop 300 kB transfer tier-1 fences."""
    import importlib
    import pathlib

    from repro.experiments.common import PathSpec, run_chain
    from repro.netsim.topology import uniform_chain_specs
    from repro.obs.rss import peak_rss_bytes, reset_peak_rss

    spec = PathSpec(
        hops=uniform_chain_specs(4, rate_bps=20e6, delay_s=0.01, plr=0.005)
    )

    def run_transfer():
        metrics, _ = run_chain(spec, duration_s=E2E_DURATION_S, seed=1)
        return metrics

    reset_peak_rss()
    metrics = benchmark(run_transfer)
    peak = peak_rss_bytes()
    assert metrics.throughput_mbps > 1.0
    benchmark.extra_info["throughput_mbps"] = round(metrics.throughput_mbps, 2)
    if peak is not None:
        benchmark.extra_info["peak_rss_mib"] = round(peak / 2**20, 1)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "tools"))
    tool = importlib.import_module("frames_per_hop")
    benchmark.extra_info["py_frames_per_packet_hop"] = round(
        tool.measure(**tool.FENCE_FLOW)["py_frames_per_packet_hop"], 2
    )
