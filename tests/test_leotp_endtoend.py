"""End-to-end LEOTP tests: reliability, loss recovery, mobility, ablation."""

import importlib
import pathlib

import pytest

from repro.core import LeotpConfig, build_leotp_path
from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator


def run_leotp(
    n_hops=3, plr=0.0, total=150_000, until=30.0, seed=1,
    config=None, coverage=1.0, rate=10e6, delay=0.005,
):
    sim = Simulator()
    rng = RngRegistry(seed)
    path = build_leotp_path(
        sim, rng,
        uniform_chain_specs(n_hops, rate_bps=rate, delay_s=delay, plr=plr),
        config=config or LeotpConfig(),
        total_bytes=total, coverage=coverage,
    )
    sim.run(until=until)
    return sim, path


class TestCleanTransfer:
    def test_completes(self):
        sim, path = run_leotp()
        assert path.consumer.finished
        assert path.consumer.bytes_received == 150_000

    def test_delivery_exactly_once(self):
        sim, path = run_leotp()
        assert path.recorder.total_bytes == 150_000

    def test_no_shr_activity_without_loss(self):
        sim, path = run_leotp()
        assert path.consumer.vph_received == 0
        assert all(m.stats.retx_interests_sent == 0 for m in path.midnodes)

    def test_owd_near_propagation(self):
        sim, path = run_leotp()
        # 3 hops x 5 ms + modest pacing queues.
        assert path.recorder.owd_mean() < 0.06

    def test_cache_populated(self):
        sim, path = run_leotp()
        assert path.midnodes[0].cache.stored_bytes > 0


class TestLossyTransfer:
    def test_reliable_at_high_loss(self):
        sim, path = run_leotp(plr=0.03, until=60.0)
        assert path.consumer.finished
        assert path.consumer.bytes_received == 150_000

    def test_shr_recovers_in_network(self):
        sim, path = run_leotp(plr=0.02, until=60.0)
        assert sum(m.stats.retx_interests_sent for m in path.midnodes) > 0

    def test_vph_suppresses_duplicate_requests(self):
        """Each loss should be repaired roughly once, not once per
        downstream node (the VPH mechanism's purpose)."""
        sim, path = run_leotp(n_hops=5, plr=0.01, total=400_000, until=60.0)
        losses = sum(
            duplex.ab.stats.packets_dropped_loss
            + duplex.ba.stats.packets_dropped_loss
            for duplex in path.links
        )
        retx = (
            sum(m.stats.retx_interests_sent for m in path.midnodes)
            + path.consumer.retransmission_interests
        )
        assert losses > 0
        # Without VPH, each loss on hop i would be re-requested by every
        # downstream node (~n_hops/2 times on average).  With VPH the
        # total stays within a small factor of the loss count.
        assert retx < 3.0 * losses

    def test_retransmitted_owds_recorded(self):
        sim, path = run_leotp(plr=0.02, until=60.0)
        retx = path.recorder.owds(retransmitted_only=True)
        assert len(retx) > 0

    def test_cache_hits_serve_recovery(self):
        sim, path = run_leotp(plr=0.02, until=60.0)
        assert sum(m.cache.stats.hits for m in path.midnodes) > 0


class TestMobility:
    def test_survives_link_flush(self):
        """Packets stranded on a flushed hop (satellite handover) must be
        recovered end-to-end — the paper's reliability challenge (ii)."""
        sim = Simulator()
        rng = RngRegistry(4)
        path = build_leotp_path(
            sim, rng, uniform_chain_specs(4, rate_bps=10e6, delay_s=0.005),
            total_bytes=400_000,
        )
        def handover():
            for duplex in path.links[1:3]:
                duplex.ab.flush(drop_inflight=True)
                duplex.ba.flush(drop_inflight=True)
        for t in (0.2, 0.5, 0.8):
            sim.schedule(t, handover)
        sim.run(until=60.0)
        assert path.consumer.finished
        assert path.consumer.bytes_received == 400_000

    def test_midnode_keeps_no_hard_state(self):
        """A Midnode swapped mid-flow (state lost) must not break the
        transfer: new per-flow state is rebuilt from passing packets."""
        sim = Simulator()
        rng = RngRegistry(4)
        path = build_leotp_path(
            sim, rng, uniform_chain_specs(3, rate_bps=10e6, delay_s=0.005),
            total_bytes=300_000,
        )
        def amnesia():
            for mid in path.midnodes:
                mid._flows.clear()
        sim.schedule(0.4, amnesia)
        sim.run(until=60.0)
        assert path.consumer.finished


class TestPartialCoverage:
    def test_quarter_coverage_still_reliable(self):
        sim, path = run_leotp(
            n_hops=5, plr=0.01, coverage=0.25, until=60.0
        )
        assert path.consumer.finished
        assert len(path.midnodes) == 1

    def test_zero_coverage_is_endpoint_only(self):
        sim, path = run_leotp(n_hops=3, plr=0.01, coverage=0.0, until=90.0)
        assert path.midnodes == []
        assert path.consumer.finished


class TestAblationFlags:
    def test_no_cache_disables_shr(self):
        sim, path = run_leotp(
            plr=0.02, until=60.0, config=LeotpConfig(enable_cache=False)
        )
        assert path.consumer.finished
        assert all(m.stats.retx_interests_sent == 0 for m in path.midnodes)
        assert all(m.cache.stored_bytes == 0 for m in path.midnodes)

    def test_endpoint_cc_still_reliable(self):
        sim, path = run_leotp(
            plr=0.02, until=90.0, config=LeotpConfig(hop_by_hop_cc=False)
        )
        assert path.consumer.finished

    def test_full_config_beats_endpoint_cc_in_throughput(self):
        _, full = run_leotp(n_hops=5, plr=0.01, total=None, until=15.0)
        _, e2e = run_leotp(
            n_hops=5, plr=0.01, total=None, until=15.0,
            config=LeotpConfig(hop_by_hop_cc=False),
        )
        thr_full = full.recorder.throughput_bps(5.0, 15.0)
        thr_e2e = e2e.recorder.throughput_bps(5.0, 15.0)
        assert thr_full > thr_e2e


class TestThroughput:
    def test_near_capacity_on_clean_chain(self):
        sim, path = run_leotp(n_hops=3, total=None, until=15.0)
        thr = path.recorder.throughput_bps(5.0, 15.0)
        assert thr > 0.7 * 10e6

    def test_insensitive_to_loss(self):
        """The headline LEOTP property (Fig. 12): throughput is nearly flat
        as the per-hop loss rate rises to 1 %."""
        _, clean = run_leotp(n_hops=5, total=None, until=15.0, seed=7)
        _, lossy = run_leotp(n_hops=5, plr=0.01, total=None, until=15.0, seed=7)
        thr_clean = clean.recorder.throughput_bps(5.0, 15.0)
        thr_lossy = lossy.recorder.throughput_bps(5.0, 15.0)
        assert thr_lossy > 0.85 * thr_clean


class TestVphAblation:
    def test_disabling_vph_multiplies_requests(self):
        """Without VPH, every downstream node re-requests each hole; the
        per-loss request count must rise well above the VPH configuration."""
        def requests_per_loss(vph: bool) -> float:
            sim, path = run_leotp(
                n_hops=5, plr=0.015, total=None, until=15.0, seed=2,
                config=LeotpConfig(enable_vph=vph),
            )
            losses = sum(
                d.ab.stats.packets_dropped_loss + d.ba.stats.packets_dropped_loss
                for d in path.links
            )
            retx = (
                sum(m.stats.retx_interests_sent for m in path.midnodes)
                + path.consumer.retransmission_interests
            )
            return retx / max(losses, 1)

        assert requests_per_loss(False) > 1.5 * requests_per_loss(True)

    def test_no_vph_packets_when_disabled(self):
        sim, path = run_leotp(
            plr=0.02, until=20.0, config=LeotpConfig(enable_vph=False)
        )
        assert path.consumer.vph_received == 0


class _ConsumerEventLog(Simulator):
    """Logs ``(time, callback name)`` of every event scheduled with a
    callback bound to ``owner`` (set it once the path is built)."""

    def __init__(self):
        super().__init__()
        self.owner = None
        self.log = []

    def _note(self, callback):
        if self.owner is not None and getattr(callback, "__self__", None) is self.owner:
            self.log.append((self.now, callback.__name__))

    def schedule(self, delay, callback, *args, priority=0):
        self._note(callback)
        return super().schedule(delay, callback, *args, priority=priority)

    def schedule_at(self, time, callback, *args, priority=0):
        self._note(callback)
        return super().schedule_at(time, callback, *args, priority=priority)

    def schedule_call(self, delay, callback, *args, priority=0):
        self._note(callback)
        super().schedule_call(delay, callback, *args, priority=priority)


class TestDeliveryClockedEmission:
    """Interest emission has no timer of its own: ``start()`` fills the
    window once, after that only Data arrivals (and the TR tick's
    retransmissions) move it."""

    def _lossy_path(self, sim, total):
        return build_leotp_path(
            sim, RngRegistry(3),
            uniform_chain_specs(5, rate_bps=10e6, delay_s=0.005, plr=0.01),
            total_bytes=total,
        )

    def test_nothing_runs_after_completion(self):
        sim = Simulator()
        path = self._lossy_path(sim, 600_000)
        consumer = path.consumer
        while not consumer.finished:
            sim.run(until=sim.now + 0.05)
        fct = consumer.completed_at
        # What is left is in flight already: duplicates on the links and
        # the one armed TR tick, which finds the flow finished.
        sim.run(until=fct + 0.2)
        drained = sim.events_executed
        sim.run(until=10 * fct)
        assert sim.events_executed == drained
        assert sim.pending_events == 0
        assert consumer.bytes_received == 600_000

    def test_consumer_schedules_only_tr_ticks(self):
        sim = _ConsumerEventLog()
        path = self._lossy_path(sim, 600_000)
        sim.owner = path.consumer  # built: ``start`` is already scheduled
        sim.run(until=30.0)
        assert path.consumer.finished
        assert path.consumer.retransmission_interests > 0  # loss was repaired
        assert {name for _, name in sim.log} == {"_tr_tick"}

    def test_stalled_consumer_runs_tr_ticks_only(self):
        total = 4_000_000
        sim = _ConsumerEventLog()
        path = self._lossy_path(sim, total)
        consumer = path.consumer
        sim.owner = consumer
        access = path.links[-1]
        window = {}

        def set_access(up):
            if not up:
                window["full"] = (
                    consumer.outstanding_bytes + consumer.config.mss
                    > consumer._outstanding_cap()
                )
            access.ab.up = access.ba.up = up

        sim.schedule_at(1.0, set_access, False)
        sim.schedule_at(3.0, set_access, True)
        sim.run(until=60.0)
        assert window["full"]
        # One TR tick per check interval is all the Consumer arms while
        # nothing can reach it (first ~RTT excluded: Data still in flight
        # on the upstream hops drains into the dead link).
        stalled = [name for t, name in sim.log if 1.1 <= t < 3.0]
        assert set(stalled) == {"_tr_tick"}
        per_second = 1.0 / consumer.config.tr_check_interval_s
        assert abs(len(stalled) - 1.9 * per_second) <= 1
        assert consumer.finished and consumer.completed_at > 3.0
        assert consumer.bytes_received == total


class TestFramesPerPacketHop:
    def test_one_frame_per_layer_per_packet(self, monkeypatch):
        """Python frames entered per packet-hop offered, on a 3-hop lossy
        300 kB transfer (``tools/frames_per_hop.py``): a count, exact for
        a given tree, so host noise cannot move it — a trampoline, a
        re-derived quantity or a per-hop copy on the per-packet path can
        (20.5 here; 25.5 while every hop re-built the packet it forwarded,
        41.7 before the helper pairs were folded)."""
        tools_dir = pathlib.Path(__file__).parent.parent / "tools"
        monkeypatch.syspath_prepend(str(tools_dir))
        tool = importlib.import_module("frames_per_hop")
        counts = tool.measure(**tool.FENCE_FLOW)
        assert counts["events"] > 2 * counts["packet_hops"] > 2_000
        assert counts["py_frames_per_packet_hop"] <= 22


class TestHostMemoryPerTransfer:
    def test_transfer_peak_host_bytes(self):
        """The host memory one LEOTP transfer peaks at: ``leotp_bulk``'s
        path (5 hops, 20 Mbit/s, 10 ms, plr 0.005, seed 0) at 1/20 of its
        size, traced from the first event to the horizon.  What grows with
        the transfer is one cached block per 4 KiB at each of the five
        caches, and one resend-guard entry per packet at each responder
        (0.48 MB here; 0.97 MB with all-double slots and a dict guard,
        1.28 MB when every block was an array of its own)."""
        import gc
        import tracemalloc

        total = 1_200_000
        sim = Simulator()
        path = build_leotp_path(
            sim, RngRegistry(0),
            uniform_chain_specs(5, rate_bps=20e6, delay_s=0.010, plr=0.005),
            total_bytes=total,
        )
        gc.collect()
        tracemalloc.start()
        try:
            sim.run(until=total * 8 / 15.5e6 * 1.5 + 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.consumer.bytes_received == total
        assert peak <= 0.60e6
