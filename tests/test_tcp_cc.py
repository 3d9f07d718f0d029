"""Unit tests for the congestion-control algorithms."""

import pytest

from repro.tcp.cc import (
    CC_REGISTRY,
    BbrCC,
    CubicCC,
    HyblaCC,
    PccVivaceCC,
    RenoCC,
    VegasCC,
    WestwoodCC,
    make_cc,
)
from repro.tcp.cc.bbr import DRAIN, PROBE_BW, STARTUP

MSS = 1400


class TestRegistry:
    def test_all_names_resolve(self):
        """Each name builds its own law; none is a protocol's name."""
        for name in CC_REGISTRY:
            cc = make_cc(name)
            assert cc.name == name
            assert cc.cwnd_bytes > 0
        assert "leotp" not in CC_REGISTRY

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_cc("quic")


class TestReno:
    def test_slow_start_doubles_per_window(self):
        cc = RenoCC(MSS)
        start = cc.cwnd_bytes
        cc.on_ack(0.1, int(start), 0.05, 0)
        assert cc.cwnd_bytes == pytest.approx(2 * start)

    def test_congestion_avoidance_linear(self):
        cc = RenoCC(MSS)
        cc.on_fast_retransmit(0.0)  # sets ssthresh = cwnd/2 and exits SS
        cwnd = cc.cwnd_bytes
        cc.on_ack(0.1, int(cwnd), 0.05, 0)
        assert cc.cwnd_bytes == pytest.approx(cwnd + MSS)

    def test_fast_retransmit_halves(self):
        cc = RenoCC(MSS)
        cwnd = cc.cwnd_bytes
        cc.on_fast_retransmit(0.0)
        assert cc.cwnd_bytes == pytest.approx(cwnd / 2)

    def test_rto_collapses_to_one_mss(self):
        cc = RenoCC(MSS)
        cc.on_rto(0.0)
        assert cc.cwnd_bytes == MSS

    def test_no_growth_in_recovery(self):
        cc = RenoCC(MSS)
        cwnd = cc.cwnd_bytes
        cc.on_ack(0.1, MSS, 0.05, 0, in_recovery=True)
        assert cc.cwnd_bytes == cwnd


class TestCubic:
    def test_window_grows_after_loss_epoch(self):
        cc = CubicCC(MSS)
        cc.on_fast_retransmit(0.0)
        w0 = cc.cwnd_bytes
        t = 0.0
        for _ in range(200):
            t += 0.01
            cc.on_ack(t, MSS, 0.05, 0)
        assert cc.cwnd_bytes > w0

    def test_beta_decrease(self):
        cc = CubicCC(MSS)
        cc._cwnd = 100.0
        cc._ssthresh = 50.0
        cc.on_fast_retransmit(1.0)
        assert cc.cwnd_bytes == pytest.approx(70.0 * MSS)

    def test_rto_resets_to_one(self):
        cc = CubicCC(MSS)
        cc.on_rto(0.0)
        assert cc.cwnd_bytes == MSS

    def test_recovers_toward_w_max(self):
        """Cubic plateaus near the pre-loss window (its defining shape)."""
        cc = CubicCC(MSS)
        cc._cwnd = 100.0
        cc._ssthresh = 100.0  # not in slow start
        cc.on_fast_retransmit(0.0)
        t = 0.0
        for _ in range(2000):
            t += 0.005
            cc.on_ack(t, MSS, 0.05, 0)
            if cc._cwnd >= 99.0:
                break
        assert 90.0 <= cc._cwnd <= 130.0


class TestHybla:
    def test_rho_uses_min_rtt(self):
        cc = HyblaCC(MSS)
        cc.on_ack(0.1, MSS, 0.5, 0)  # rtt 500 ms -> rho 20 capped at 8
        assert cc.rho == pytest.approx(8.0)
        cc.on_ack(0.2, MSS, 0.05, 0)  # min now 50 ms -> rho 2
        assert cc.rho == pytest.approx(2.0)
        cc.on_ack(0.3, MSS, 0.5, 0)  # inflated sample must not raise rho
        assert cc.rho == pytest.approx(2.0)

    def test_faster_growth_with_higher_rho(self):
        slow, fast = HyblaCC(MSS), HyblaCC(MSS)
        slow.on_ack(0.1, MSS, 0.025, 0)   # rho = 1
        fast.on_ack(0.1, MSS, 0.1, 0)     # rho = 4
        assert fast.cwnd_bytes > slow.cwnd_bytes

    def test_loss_response(self):
        cc = HyblaCC(MSS)
        cwnd = cc.cwnd_bytes
        cc.on_fast_retransmit(0.0)
        assert cc.cwnd_bytes == pytest.approx(cwnd / 2)


class TestWestwood:
    def test_bandwidth_estimate_converges(self):
        cc = WestwoodCC(MSS)
        t = 0.0
        for _ in range(300):
            t += 0.01
            cc.on_ack(t, 12_500, 0.05, 0)  # 10 Mbps of ACKed data
        assert cc.bandwidth_estimate_bps == pytest.approx(10e6, rel=0.05)

    def test_loss_sets_ssthresh_to_bdp(self):
        cc = WestwoodCC(MSS)
        t = 0.0
        for _ in range(300):
            t += 0.01
            cc.on_ack(t, 12_500, 0.05, 0)
        cc.on_fast_retransmit(t)
        expected_bdp = 10e6 * 0.05 / 8
        assert cc.cwnd_bytes <= expected_bdp * 1.2

    def test_rto_resets_window(self):
        cc = WestwoodCC(MSS)
        cc.on_rto(0.0)
        assert cc.cwnd_bytes == MSS


class TestVegas:
    def test_grows_when_queue_small(self):
        cc = VegasCC(MSS)
        cc._in_slow_start = False
        w0 = cc.cwnd_bytes
        cc.on_ack(0.1, MSS, 0.050, 0)  # establishes base
        cc.on_ack(0.2, MSS, 0.0501, 0)  # nearly no queue
        assert cc.cwnd_bytes > w0

    def test_shrinks_when_queue_large(self):
        cc = VegasCC(MSS)
        cc._in_slow_start = False
        cc._base_rtt = 0.05
        cc._cwnd = 50.0
        w0 = cc.cwnd_bytes
        cc.on_ack(0.1, MSS, 0.1, 0)  # rtt doubled: big queue
        assert cc.cwnd_bytes < w0

    def test_slow_start_exits_on_queue(self):
        cc = VegasCC(MSS)
        cc._base_rtt = 0.05
        cc._cwnd = 20.0
        cc.on_ack(0.1, MSS, 0.08, 0)  # diff > gamma
        assert not cc.in_slow_start


class TestBbr:
    def feed(self, cc, rate_bps, rtt, n=100, t0=0.0, dt=0.01):
        t = t0
        for _ in range(n):
            t += dt
            acked = int(rate_bps * dt / 8)
            cc.on_ack(t, acked, rtt, int(rate_bps * rtt / 8), rate_sample_bps=rate_bps)
        return t

    def test_startup_to_drain_to_probe_bw(self):
        cc = BbrCC(MSS)
        assert cc.state == STARTUP
        # Constant-rate samples: full-pipe detector should fire.
        t = self.feed(cc, 10e6, 0.05, n=50)
        assert cc.state in (DRAIN, PROBE_BW)
        self.feed(cc, 10e6, 0.05, n=100, t0=t)
        assert cc.state == PROBE_BW

    def test_btl_bw_tracks_max(self):
        cc = BbrCC(MSS)
        self.feed(cc, 10e6, 0.05, n=50)
        assert cc.btl_bw_bps == pytest.approx(10e6, rel=0.01)

    def test_rt_prop_tracks_min(self):
        cc = BbrCC(MSS)
        self.feed(cc, 10e6, 0.05, n=10)
        cc.on_ack(1.0, 1000, 0.04, 0, rate_sample_bps=10e6)
        assert cc.rt_prop_s == pytest.approx(0.04)

    def test_pacing_rate_positive_before_estimates(self):
        cc = BbrCC(MSS)
        assert cc.pacing_rate_bps(0.0) > 0

    def test_cwnd_is_two_bdp_in_probe_bw(self):
        cc = BbrCC(MSS)
        t = self.feed(cc, 10e6, 0.05, n=200)
        bdp = 10e6 * cc.rt_prop_s / 8
        assert cc.cwnd_bytes == pytest.approx(2 * bdp, rel=0.3)

    def test_loss_does_not_collapse_window(self):
        cc = BbrCC(MSS)
        self.feed(cc, 10e6, 0.05, n=100)
        w0 = cc.cwnd_bytes
        cc.on_fast_retransmit(2.0)
        assert cc.cwnd_bytes == w0


class TestPcc:
    def run_clean_link(self, seconds=20.0, capacity_bps=50e6, rtt=0.05):
        """Feed PCC loss-free feedback at its own rate, delayed by one RTT
        (PCC's MI attribution assumes ACKs lag transmission by ~1 RTT)."""
        from collections import deque

        cc = PccVivaceCC(MSS, initial_rate_bps=2e6)
        t, dt = 0.0, 0.01
        pipeline = deque()
        while t < seconds:
            t += dt
            rate = min(cc.pacing_rate_bps(t), capacity_bps)
            pipeline.append((t + rtt, int(rate * dt / 8)))
            while pipeline and pipeline[0][0] <= t:
                _, nbytes = pipeline.popleft()
                cc.on_ack(t, nbytes, rtt, 0)
        return cc

    def test_rate_climbs_on_clean_link(self):
        cc = self.run_clean_link()
        assert cc.rate_bps > 8e6  # grew at least 4x from 2 Mbps

    def test_loss_penalty_reduces_utility(self):
        cc = PccVivaceCC(MSS)
        clean = cc._utility(10e6, 0.0, 0.0)
        lossy = cc._utility(10e6, 0.1, 0.0)
        assert lossy < clean

    def test_latency_gradient_penalty(self):
        cc = PccVivaceCC(MSS)
        flat = cc._utility(10e6, 0.0, 0.0)
        inflating = cc._utility(10e6, 0.0, 0.5)
        assert inflating < flat

    def test_small_gradient_tolerated(self):
        cc = PccVivaceCC(MSS)
        assert cc._utility(10e6, 0.0, 0.01) == pytest.approx(
            cc._utility(10e6, 0.0, 0.0)
        )

    def test_rto_backs_off_rate(self):
        cc = PccVivaceCC(MSS, initial_rate_bps=10e6)
        cc.on_rto(1.0)
        assert cc.rate_bps == pytest.approx(7e6)

    def test_rate_floor(self):
        cc = PccVivaceCC(MSS, initial_rate_bps=0.3e6)
        for _ in range(50):
            cc.on_rto(1.0)
        assert cc.rate_bps == pytest.approx(cc.MIN_RATE_BPS)


class TestCCSpec:
    def test_coercion_and_case(self):
        from repro.tcp.cc import CCSpec, as_cc_spec

        spec = as_cc_spec("BBR")
        assert spec == CCSpec("bbr")
        assert as_cc_spec(spec) is spec

    def test_params_frozen_sorted(self):
        from repro.tcp.cc import CCSpec

        a = CCSpec("orbcc", {"probe_s": 0.5, "hold_s": 0.1})
        b = CCSpec("orbcc", {"hold_s": 0.1, "probe_s": 0.5})
        assert a == b and hash(a) == hash(b)
        assert a.params == (("hold_s", 0.1), ("probe_s", 0.5))
        assert a.params_dict == {"hold_s": 0.1, "probe_s": 0.5}

    def test_label(self):
        from repro.tcp.cc import CCSpec

        assert CCSpec("bbr").label() == "bbr"
        assert CCSpec("orbcc", {"probe_gain": 2.5}).label() == \
            "orbcc(probe_gain=2.5)"

    def test_duplicate_param_rejected(self):
        from repro.tcp.cc import CCSpec

        with pytest.raises(ValueError):
            CCSpec("orbcc", (("k", 1), ("k", 2)))

    def test_empty_name_rejected(self):
        from repro.tcp.cc import CCSpec

        with pytest.raises(ValueError):
            CCSpec("")

    def test_pickle_round_trip(self):
        import pickle

        from repro.tcp.cc import CCSpec

        spec = CCSpec("orbcc", {"probe_gain": 2.5, "hold_s": 0.1})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params_dict == spec.params_dict

    def test_parse_cc_params_types(self):
        from repro.tcp.cc import parse_cc_params

        params = parse_cc_params(
            ["a=1", "b=2.5", "c=true", "d=False", "e=text"]
        )
        assert params == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": "text"
        }
        assert isinstance(params["a"], int)

    def test_parse_cc_params_rejects_bare_word(self):
        from repro.tcp.cc import parse_cc_params

        with pytest.raises(ValueError):
            parse_cc_params(["noequals"])


class TestMakeCCParams:
    def test_params_forwarded(self):
        from repro.tcp.cc import CCSpec

        cc = make_cc(CCSpec("orbcc", {"probe_gain": 2.5, "hold_s": 0.2}))
        assert cc.probe_gain == 2.5
        assert cc.hold_s == 0.2

    def test_bad_param_is_value_error(self):
        from repro.tcp.cc import CCSpec

        with pytest.raises(ValueError, match="orbcc"):
            make_cc(CCSpec("orbcc", {"no_such_knob": 1}))

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError) as err:
            make_cc("quic")
        for name in sorted(CC_REGISTRY):
            assert name in str(err.value)


def _feed_orbcc(cc, now, bw_bps=8e6, rtt=0.05, n=20, dt=0.05):
    for _ in range(n):
        now += dt
        cc.on_ack(now, 14_000, rtt, 10_000, rate_sample_bps=bw_bps)
    return now


class TestOrbCC:
    def make(self, **kw):
        from repro.tcp.cc import OrbCC

        return OrbCC(MSS, **kw)

    def test_declares_churn_contract(self):
        cc = self.make(hold_s=0.1)
        assert cc.churn_rearm_rto is True
        assert cc.churn_retx_delay_s == pytest.approx(0.15)

    def test_blind_rate_before_estimates(self):
        cc = self.make(blind_rate_bps=2e6)
        assert cc.pacing_rate_bps(0.0) == pytest.approx(2e6)

    def test_startup_fills_then_cruises(self):
        from repro.tcp.cc.orbcc import CRUISE, STARTUP

        cc = self.make()
        assert cc.state == STARTUP
        _feed_orbcc(cc, 0.0)
        assert cc.state == CRUISE
        assert cc.btl_bw_bps == pytest.approx(8e6)
        assert cc.rt_prop_s == pytest.approx(0.05)

    def test_churn_reset_drops_model_keeps_floor(self):
        cc = self.make(carryover=0.85)
        now = _feed_orbcc(cc, 0.0)
        cc.on_churn(now, "PathSwitch")
        assert cc.churn_resets == 1
        # Raw filter cleared; discounted carry-over keeps pacing alive.
        assert cc._btl_bw == 0.0
        assert cc.btl_bw_bps == pytest.approx(0.85 * 8e6)
        # RTprop survives as a working guess.
        assert cc.rt_prop_s == pytest.approx(0.05)

    def test_non_reset_kinds_ignored(self):
        cc = self.make()
        now = _feed_orbcc(cc, 0.0)
        cc.on_churn(now, "RouteLost")
        assert cc.churn_resets == 0
        assert cc.btl_bw_bps == pytest.approx(8e6)

    def test_hold_then_probe_then_drain(self):
        from repro.tcp.cc.orbcc import (
            DRAIN,
            HOLD_HANDOVER,
            PROBE_HANDOVER,
        )

        cc = self.make(hold_s=0.1, probe_s=0.4, probe_gain=2.0)
        now = _feed_orbcc(cc, 0.0)
        cc.on_churn(now, "GsReattach")
        hold_rate = cc.pacing_rate_bps(now + 0.05)
        assert cc.state == HOLD_HANDOVER
        probe_rate = cc.pacing_rate_bps(now + 0.2)
        assert cc.state == PROBE_HANDOVER
        assert probe_rate > hold_rate
        # Past the probe window the burst drains (BBR-style).
        cc.pacing_rate_bps(now + 0.6)
        assert cc.state == DRAIN
        drain_rate = cc.pacing_rate_bps(now + 0.6)
        assert drain_rate < probe_rate

    def test_probe_cwnd_at_least_probe_gain_bdp(self):
        cc = self.make(hold_s=0.0, probe_s=0.5, probe_gain=3.0)
        now = _feed_orbcc(cc, 0.0)
        cc.on_churn(now, "PathSwitch")
        cc.pacing_rate_bps(now + 0.01)  # in PROBE_HANDOVER
        bdp = cc.btl_bw_bps * cc.rt_prop_s / 8.0
        assert cc.cwnd_bytes >= 3.0 * bdp * 0.99

    def test_stale_floor_decays(self):
        cc = self.make(hold_s=0.05, probe_s=0.1, carryover=1.0)
        now = _feed_orbcc(cc, 0.0)
        cc.on_churn(now, "PathSwitch")
        floor_at_churn = cc.btl_bw_bps
        # Ride past hold+probe with ACKs that carry no usable rate
        # sample (delivery stalled): the floor must fade, not persist.
        t = now + 0.2
        for _ in range(12):
            t += 0.05
            cc.on_ack(t, 1400, 0.05, 1400, rate_sample_bps=None)
        assert cc.btl_bw_bps < floor_at_churn * 0.6

    def test_fresh_samples_supersede_floor(self):
        cc = self.make(hold_s=0.0, probe_s=0.1)
        now = _feed_orbcc(cc, 0.0, bw_bps=8e6)
        cc.on_churn(now, "PathSwitch")
        now = _feed_orbcc(cc, now + 0.2, bw_bps=12e6, n=10)
        assert cc.btl_bw_bps == pytest.approx(12e6)

    def test_validation(self):
        from repro.tcp.cc import OrbCC

        with pytest.raises(ValueError):
            OrbCC(MSS, probe_gain=0.5)
        with pytest.raises(ValueError):
            OrbCC(MSS, carryover=1.5)
        with pytest.raises(ValueError):
            OrbCC(MSS, hold_s=-0.1)
        with pytest.raises(ValueError):
            OrbCC(MSS, blind_rate_bps=0)

    def test_rto_does_not_collapse_rate(self):
        cc = self.make()
        now = _feed_orbcc(cc, 0.0)
        rate_before = cc.pacing_rate_bps(now)
        cc.on_rto(now)
        assert cc.pacing_rate_bps(now) == pytest.approx(rate_before)


class TestAdaptive:
    def make(self, **kw):
        from repro.tcp.cc import AdaptiveCC

        return AdaptiveCC(MSS, **kw)

    def feed(self, cc, now, n=40, rtt=0.05, dt=0.05, loss_every=0):
        for i in range(n):
            now += dt
            if loss_every and i % loss_every == 0:
                cc.on_fast_retransmit(now)
            cc.on_ack(now, 14_000, rtt, 10_000)
        return now

    def test_warmup_grows_rate(self):
        cc = self.make(initial_rate_bps=1e6)
        self.feed(cc, 0.0, n=20)
        assert cc.rate_bps > 1e6

    def test_deterministic(self):
        a, b = self.make(), self.make()
        self.feed(a, 0.0, n=60, loss_every=7)
        self.feed(b, 0.0, n=60, loss_every=7)
        assert a.rate_bps == b.rate_bps
        assert a._scores == b._scores

    def test_loss_exits_warmup(self):
        cc = self.make()
        now = self.feed(cc, 0.0, n=5)
        cc.on_fast_retransmit(now)
        self.feed(cc, now, n=5)
        assert not cc._warmup

    def test_rto_halves_rate(self):
        cc = self.make(initial_rate_bps=4e6)
        cc.on_rto(1.0)
        assert cc.rate_bps == pytest.approx(2e6)
        assert not cc._warmup

    def test_churn_resets_learning(self):
        cc = self.make()
        now = self.feed(cc, 0.0, n=40, loss_every=9)
        assert not cc._warmup
        cc.on_churn(now, "PathSwitch")
        assert cc.churn_resets == 1
        assert cc._scores == [0.0, 0.0, 0.0]
        assert cc._warmup

    def test_non_reset_kind_ignored(self):
        cc = self.make()
        cc.on_churn(1.0, "RouteLost")
        assert cc.churn_resets == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            self.make(explore_every=1)


class TestChurnDefaults:
    def test_base_defaults(self):
        for name in CC_REGISTRY:
            cc = make_cc(name)
            if name in ("orbcc",):
                continue
            assert cc.churn_rearm_rto is False
            assert cc.churn_retx_delay_s is None

    def test_on_churn_noop_everywhere(self):
        # Every registered CC must tolerate churn signals (default no-op).
        for name in CC_REGISTRY:
            cc = make_cc(name)
            cc.on_churn(1.0, "PathSwitch")
            cc.on_churn(1.5, "RouteLost")
            assert cc.cwnd_bytes > 0
