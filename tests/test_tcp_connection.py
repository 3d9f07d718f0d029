"""Integration tests for the TCP engine over the network substrate."""

import pytest

from repro.netsim.topology import HopSpec, uniform_chain_specs
from repro.simcore import RngRegistry, Simulator
from repro.tcp import (
    FiniteStream,
    InfiniteStream,
    ProxyStream,
    build_e2e_tcp_path,
    build_split_tcp_path,
)
from repro.tcp.cc import CCSpec, as_cc_spec


def run_transfer(n_hops=2, plr=0.0, cc="reno", total=200_000, until=30.0, seed=1,
                 rate=10e6, delay=0.005):
    sim = Simulator()
    rng = RngRegistry(seed)
    path = build_e2e_tcp_path(
        sim, rng,
        uniform_chain_specs(n_hops, rate_bps=rate, delay_s=delay, plr=plr),
        as_cc_spec(cc), stream=FiniteStream(total),
    )
    sim.run(until=until)
    return sim, path


class TestStreams:
    def test_infinite_stream(self):
        assert InfiniteStream().available_from(10**9) > 0

    def test_finite_stream(self):
        s = FiniteStream(1000)
        assert s.available_from(0) == 1000
        assert s.available_from(900) == 100
        assert s.available_from(2000) == 0

    def test_finite_stream_validation(self):
        with pytest.raises(ValueError):
            FiniteStream(0)

    def test_proxy_stream_order_and_timestamps(self):
        s = ProxyStream()
        s.push(100, 1.0)
        s.push(200, 2.0)
        assert s.available_from(0) == 300
        assert s.timestamp_at(0) == 1.0
        assert s.timestamp_at(150) == 2.0
        assert s.buffered_bytes(250) == 50

    def test_proxy_stream_validation(self):
        with pytest.raises(ValueError):
            ProxyStream().push(0, 1.0)


class TestCleanTransfer:
    def test_completes_and_delivers_all_bytes(self):
        sim, path = run_transfer()
        assert path.sender.finished
        assert path.receiver.bytes_delivered == 200_000

    def test_no_retransmissions_without_loss_or_overflow(self):
        sim, path = run_transfer(total=50_000)
        assert path.sender.retransmissions == 0

    def test_owd_close_to_propagation(self):
        sim, path = run_transfer(total=50_000)
        # 2 hops x 5 ms propagation plus serialisation.
        assert path.recorder.owd_mean() < 0.030

    def test_throughput_reasonable(self):
        sim, path = run_transfer(total=2_000_000, until=10.0)
        elapsed = path.sender.completed_at
        assert elapsed is not None
        assert 2_000_000 * 8 / elapsed > 5e6  # > half the 10 Mbps link


class TestLossyTransfer:
    def test_reliable_despite_loss(self):
        sim, path = run_transfer(n_hops=3, plr=0.02, until=60.0)
        assert path.sender.finished
        assert path.receiver.bytes_delivered == 200_000

    def test_retransmissions_occur(self):
        sim, path = run_transfer(n_hops=3, plr=0.02, until=60.0)
        assert path.sender.retransmissions > 0

    def test_retransmitted_owd_recorded(self):
        sim, path = run_transfer(n_hops=3, plr=0.02, until=60.0)
        retx_owds = path.recorder.owds(retransmitted_only=True)
        assert len(retx_owds) > 0
        # Recovered packets carry at least one extra RTT of delay.
        assert retx_owds.mean() > path.recorder.owds().mean()

    def test_survives_mid_transfer_blackout(self):
        """Flushing in-flight data mid-transfer must not break reliability."""
        sim = Simulator()
        rng = RngRegistry(5)
        path = build_e2e_tcp_path(
            sim, rng, uniform_chain_specs(2, rate_bps=10e6, delay_s=0.005),
            CCSpec("reno"), stream=FiniteStream(500_000),
        )
        def blackout():
            for duplex in path.links:
                duplex.ab.flush(drop_inflight=True)
        sim.schedule(0.15, blackout)
        sim.run(until=40.0)
        assert path.sender.finished
        assert path.receiver.bytes_delivered == 500_000

    def test_tail_loss_recovered_by_rto(self):
        """A transfer whose entire (final) window is lost has no SACK
        feedback left, so only the retransmission timer can recover it."""
        sim = Simulator()
        rng = RngRegistry(6)
        path = build_e2e_tcp_path(
            sim, rng, uniform_chain_specs(1, rate_bps=10e6, delay_s=0.005),
            CCSpec("reno"), stream=FiniteStream(5 * 1400),
        )
        # The whole 5-segment transfer fits in the initial window; flush it
        # all while in flight.
        sim.schedule(0.004, lambda: path.links[0].ab.flush(drop_inflight=True))
        sim.run(until=20.0)
        assert path.sender.timeouts >= 1
        assert path.sender.finished

    def test_receiver_deduplicates(self):
        sim, path = run_transfer(n_hops=3, plr=0.05, until=120.0, total=100_000)
        assert path.receiver.bytes_delivered == 100_000

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "TCP defect (a), ROADMAP item 4: `delivered = acked + "
        "newly_sacked` in TcpSender._process_ack (tcp/connection.py) "
        "counts SACKed bytes again when the cumulative ACK passes them"
    ))
    def test_delivered_total_stays_within_the_transfer(self):
        """BBR, 3 MB over 5 x (20 Mbit/s, 10 ms, 1 % loss): every byte
        arrives once, yet the sender counts 5,748,000 B delivered at seed
        0 (5,879,600 B at seed 1) — the figure BBR's rate samples read."""
        total = 3_000_000
        sim, path = run_transfer(n_hops=5, plr=0.01, cc="bbr", total=total,
                                 until=60.0, seed=0, rate=20e6, delay=0.010)
        assert path.sender.delivered_total <= total


class TestAckPath:
    def test_ack_loss_tolerated(self):
        """Lossy reverse path only: cumulative ACKs cover the gaps."""
        sim = Simulator()
        rng = RngRegistry(9)
        # Forward clean; reverse lossy (same plr applies both ways here, so
        # use a moderate value).
        path = build_e2e_tcp_path(
            sim, rng, uniform_chain_specs(2, rate_bps=10e6, delay_s=0.005, plr=0.01),
            CCSpec("reno"), stream=FiniteStream(150_000),
        )
        sim.run(until=60.0)
        assert path.sender.finished


class TestSplitTcp:
    def test_end_to_end_delivery_through_proxies(self):
        sim = Simulator()
        rng = RngRegistry(2)
        split = build_split_tcp_path(
            sim, rng, uniform_chain_specs(3, rate_bps=10e6, delay_s=0.005),
            CCSpec("reno"), stream=FiniteStream(200_000),
        )
        sim.run(until=30.0)
        assert split.receiver.bytes_delivered == 200_000

    def test_owd_spans_whole_path(self):
        """Bytes carry origin timestamps across proxies, so measured OWD
        covers all hops, not just the last connection."""
        sim = Simulator()
        rng = RngRegistry(2)
        from repro.netsim.trace import FlowRecorder

        rec = FlowRecorder(sim)
        split = build_split_tcp_path(
            sim, rng, uniform_chain_specs(3, rate_bps=10e6, delay_s=0.010),
            CCSpec("reno"), stream=FiniteStream(100_000), recorder=rec,
        )
        sim.run(until=30.0)
        # 3 hops x 10 ms = 30 ms propagation minimum.
        assert rec.owd_mean() >= 0.030

    def test_split_beats_e2e_on_lossy_path(self):
        """The Fig. 4 effect: splitting improves loss-based throughput."""
        total, until = 400_000, 120.0
        sim1 = Simulator()
        e2e = build_e2e_tcp_path(
            sim1, RngRegistry(3),
            uniform_chain_specs(4, rate_bps=10e6, delay_s=0.005, plr=0.01),
            CCSpec("reno"), stream=FiniteStream(total),
        )
        sim1.run(until=until)
        sim2 = Simulator()
        split = build_split_tcp_path(
            sim2, RngRegistry(3),
            uniform_chain_specs(4, rate_bps=10e6, delay_s=0.005, plr=0.01),
            CCSpec("reno"), stream=FiniteStream(total),
        )
        sim2.run(until=until)
        assert split.receiver.bytes_delivered >= e2e.receiver.bytes_delivered

    def test_proxy_backlog_measurable(self):
        sim = Simulator()
        rng = RngRegistry(4)
        # Fast first hop, slow second: backlog must accumulate at proxy.
        hops = [
            HopSpec(rate_bps=50e6, delay_s=0.002),
            HopSpec(rate_bps=2e6, delay_s=0.002),
        ]
        split = build_split_tcp_path(sim, rng, hops, CCSpec("reno"))
        sim.run(until=3.0)
        assert split.total_proxy_backlog_bytes > 0


class TestSenderChurn:
    def make_path(self, cc="orbcc", until=2.0):
        sim = Simulator()
        rng = RngRegistry(7)
        path = build_e2e_tcp_path(
            sim, rng, uniform_chain_specs(2, rate_bps=10e6, delay_s=0.005),
            CCSpec(cc), stream=FiniteStream(5_000_000),
        )
        sim.run(until=until)
        return sim, path

    def test_stop_quiesces_sender(self):
        sim, path = self.make_path(cc="reno")
        sent_at_stop = path.sender.wire_bytes_sent
        path.sender.stop()
        assert not path.sender._rto_timer.armed
        sim.run(until=sim.now + 3.0)
        assert path.sender.wire_bytes_sent == sent_at_stop

    def test_churn_rearm_pulls_rto_in(self):
        # orbcc declares churn_rearm_rto + a fast-repair deadline: the
        # signal may only move a pending timer EARLIER, never later.
        sim, path = self.make_path(cc="orbcc")
        sender = path.sender
        assert sender._rto_timer.armed
        before = sender._rto_timer.expiry
        sender.notify_churn("PathSwitch")
        after = sender._rto_timer.expiry
        assert after <= before
        assert after <= sim.now + sender.cc.churn_retx_delay_s + sender.rto.rto_s

    def test_reno_ignores_churn_timer(self):
        sim, path = self.make_path(cc="reno")
        sender = path.sender
        before = sender._rto_timer.expiry
        sender.notify_churn("PathSwitch")
        assert sender._rto_timer.expiry == before

    def test_notify_churn_after_finish_is_noop(self):
        sim, path = self.make_path(cc="reno", until=40.0)
        assert path.sender.finished
        path.sender.notify_churn("PathSwitch")  # must not raise or rearm
        assert not path.sender._rto_timer.armed

    def test_churn_signal_reaches_cc(self):
        sim, path = self.make_path(cc="orbcc")
        assert path.sender.cc.churn_resets == 0
        path.sender.notify_churn("GsReattach")
        assert path.sender.cc.churn_resets == 1


class TestEventDrivenPacing:
    """The paced sender schedules work only when a segment can leave."""

    @pytest.mark.parametrize("cc", ["bbr", "pcc"])
    def test_no_events_once_idle(self, cc):
        sim, path = run_transfer(cc=cc, until=60.0)
        sender = path.sender
        assert sender.finished and 50 * sender.completed_at <= 60.0
        assert sim.events_executed <= 40 * sender.data_segments_sent
        # Nothing of the sender's outlives the transfer.
        assert not sender._pace_timer.armed and not sender._rto_timer.armed
        assert sim.pending_events == 0

    @pytest.mark.parametrize("cc", ["bbr", "pcc"])
    def test_departures_respect_pacing_rate(self, cc):
        sim = Simulator()
        path = build_e2e_tcp_path(
            sim, RngRegistry(1),
            uniform_chain_specs(2, rate_bps=10e6, delay_s=0.005),
            CCSpec(cc), stream=FiniteStream(300_000),
        )
        sender, link = path.sender, path.sender.out_link
        departures = []  # (time, seconds this segment occupies the pacer)
        send = link.send

        def spy(seg):
            rate = sender.cc.pacing_rate_bps(sim.now)
            departures.append((sim.now, seg.payload_bytes * 8.0 / rate))
            send(seg)

        link.send = spy
        sim.run(until=30.0)
        assert sender.finished and sender.retransmissions == 0
        assert len(departures) == sender.data_segments_sent > 100
        for (t0, gap), (t1, _) in zip(departures, departures[1:]):
            assert t1 - t0 >= gap - 1e-12

    def test_push_on_idle_sender_needs_no_prior_timer(self):
        sim = Simulator()
        stream = ProxyStream()
        path = build_e2e_tcp_path(
            sim, RngRegistry(1),
            uniform_chain_specs(1, rate_bps=10e6, delay_s=0.005),
            CCSpec("bbr"), stream=stream,
        )
        sim.run(until=1.0)
        sender = path.sender
        assert sender.data_segments_sent == 0 and sim.pending_events == 0
        stream.push(1000, sim.now)
        sender.kick()
        # The write alone arms the one pace event, for the next slot.
        slot_s = sender.mss * 8.0 / sender.cc.pacing_rate_bps(sim.now)
        assert sim.pending_events == 1
        assert sim.now <= sender._pace_timer.expiry <= sim.now + slot_s
        sim.run(until=2.0)
        assert sender.data_segments_sent == 1
        assert path.receiver.bytes_delivered == 1000
        assert sim.pending_events == 0

    def test_split_tcp_over_paced_cc_is_byte_exact(self):
        sim = Simulator()
        split = build_split_tcp_path(
            sim, RngRegistry(2),
            uniform_chain_specs(3, rate_bps=10e6, delay_s=0.005, plr=0.005),
            CCSpec("bbr"), stream=FiniteStream(200_000),
        )
        sim.run(until=30.0)
        assert split.receiver.bytes_delivered == 200_000

    def test_clock_wakeup_dies_with_the_transfer(self):
        # OrbCC's handover hold clamps the window and lifts on the clock
        # (cc.wake_at); a 30 s hold outlasts the transfer, so completion
        # must cancel the wake-up the closed window asked for.
        from repro.tcp.cc import CCSpec
        sim, path = run_transfer(cc=CCSpec("orbcc", {"hold_s": 30.0}), until=0.1)
        sender = path.sender
        sender.notify_churn("PathSwitch")
        while not sender._wake_timer.armed:
            assert sim.step() and sim.now < 1.0
        assert sender._wake_timer.expiry == pytest.approx(30.1)
        sim.run(until=20.0)
        assert sender.finished and sim.pending_events == 0
        # ... and so must stop().
        sim, path = run_transfer(cc="orbcc", total=5_000_000, until=0.5)
        sender = path.sender
        sender.notify_churn("PathSwitch")
        while not sender._wake_timer.armed:
            assert sim.step() and sim.now < 0.6
        sender.stop()
        assert not sender._wake_timer.armed and not sender._pace_timer.armed

    def test_stop_disarms_pace_event(self):
        sim = Simulator()
        path = build_e2e_tcp_path(
            sim, RngRegistry(1),
            uniform_chain_specs(2, rate_bps=10e6, delay_s=0.005),
            CCSpec("bbr"), stream=FiniteStream(5_000_000),
        )
        sim.run(until=0.5)
        sender = path.sender
        sender.stop()
        sent = sender.data_segments_sent
        assert not sender._pace_timer.armed and not sender._rto_timer.armed
        sim.run(until=5.0)  # ACKs still in flight must re-arm nothing
        assert sender.data_segments_sent == sent
        assert not sender._rto_timer.armed
