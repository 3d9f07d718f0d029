"""Tests for measurement collection (FlowRecorder, CDFs, probes)."""

import pickle

import numpy as np
import pytest

from repro.netsim.trace import FlowRecorder, TimeSeriesProbe, cdf
from repro.simcore import Simulator


class TestFlowRecorder:
    def record_at(self, sim, rec, t, nbytes, owd, retx=False):
        sim.schedule(t - sim.now, rec.on_delivery, nbytes, owd, retx)

    def test_throughput_over_span(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        for t in [1.0, 2.0, 3.0]:
            self.record_at(sim, rec, t, 1000, 0.01)
        sim.run()
        # 3000 bytes over [1, 3] seconds.
        assert rec.throughput_bps() == pytest.approx(3000 * 8 / 2.0)

    def test_throughput_with_explicit_window(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        for t in [1.0, 2.0, 3.0, 4.0]:
            self.record_at(sim, rec, t, 1000, 0.01)
        sim.run()
        assert rec.throughput_bps(2.0, 4.0) == pytest.approx(3000 * 8 / 2.0)

    def test_empty_recorder(self):
        rec = FlowRecorder(Simulator())
        assert rec.throughput_bps() == 0.0
        assert np.isnan(rec.owd_mean())

    def test_owd_statistics(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        for i, owd in enumerate([0.01, 0.02, 0.03]):
            self.record_at(sim, rec, 1.0 + i, 100, owd)
        sim.run()
        assert rec.owd_mean() == pytest.approx(0.02)
        assert rec.owd_percentile(50) == pytest.approx(0.02)

    def test_retransmitted_filter(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        self.record_at(sim, rec, 1.0, 100, 0.01, retx=False)
        self.record_at(sim, rec, 2.0, 100, 0.09, retx=True)
        sim.run()
        assert list(rec.owds(retransmitted_only=True)) == [0.09]
        assert len(rec.owds()) == 2

    def test_total_bytes(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        self.record_at(sim, rec, 1.0, 700, 0.01)
        self.record_at(sim, rec, 2.0, 300, 0.01)
        sim.run()
        assert rec.total_bytes == 1000

    def test_columns_answer_like_a_list_of_rows(self):
        """Every aggregate equals the value computed here from a plain
        list of ``(time, nbytes, owd, retx)`` tuples, and the recorder
        (shard checkpoints pickle live ones) survives a round trip."""
        rows = [
            (0.5, 1400, 0.050, False), (0.5, 600, 0.051, False),
            (1.0, 1400, 0.250, True), (1.75, 1400, 0.049, False),
            (2.0, 100, 0.300, True), (2.0, 1400, 0.052, False),
            (3.25, 1400, 0.048, False),
        ]
        sim = Simulator()
        rec = FlowRecorder(sim, name="scripted")
        for row in rows:
            self.record_at(sim, rec, *row)
        sim.run()
        clone = pickle.loads(pickle.dumps(rec))
        for r in (rec, clone):
            assert list(zip(r.times, r.sizes, r.owd_s, r.retx)) == rows
            assert r.owds().tolist() == [owd for _, _, owd, _ in rows]
            assert r.owds(retransmitted_only=True).tolist() == [0.250, 0.300]
            assert r.total_bytes == sum(n for _, n, _, _ in rows) == 7700
            assert (r.start_time, r.end_time) == (0.5, 3.25)
            # Closed windows: first-to-last, edges on deliveries, edges
            # between deliveries.
            for t0, t1 in [(None, None), (0.5, 2.0), (0.6, 1.9)]:
                lo = 0.5 if t0 is None else t0
                hi = 3.25 if t1 is None else t1
                held = sum(n for t, n, _, _ in rows if lo <= t <= hi)
                assert r.throughput_bps(t0, t1) == held * 8.0 / (hi - lo)
        # The clone is live: it keeps recording on its own clock.
        clone.sim.schedule(1.0, clone.on_delivery, 50, 0.01, True)
        clone.sim.run()
        assert clone.total_bytes == 7750 and rec.total_bytes == 7700
        assert clone.owds().size == 8  # after owds(): columns still growable


class TestCdf:
    def test_empty(self):
        xs, ps = cdf(np.array([]))
        assert len(xs) == 0

    def test_sorted_and_normalised(self):
        xs, ps = cdf(np.array([3.0, 1.0, 2.0]))
        assert list(xs) == [1.0, 2.0, 3.0]
        assert ps[-1] == 1.0
        assert ps[0] == pytest.approx(1 / 3)


class TestTimeSeriesProbe:
    def test_samples_at_interval(self):
        sim = Simulator()
        values = iter(range(100))
        probe = TimeSeriesProbe(sim, 1.0, lambda: next(values))
        sim.run(until=3.5)
        assert probe.times == [1.0, 2.0, 3.0]
        assert probe.values == [0.0, 1.0, 2.0]

    def test_mean_with_start(self):
        sim = Simulator()
        values = iter([10, 20, 30])
        probe = TimeSeriesProbe(sim, 1.0, lambda: next(values))
        sim.run(until=3.5)
        assert probe.mean(t_start=2.0) == pytest.approx(25.0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesProbe(Simulator(), 0.0, lambda: 1)
