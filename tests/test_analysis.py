"""Tests for the analytical models of paper Sec. II-B and stats helpers."""

import numpy as np
import pytest

from repro.analysis import (
    end_to_end_plr,
    hbh_owd_ratio,
    hbh_throughput_gain,
    jain_fairness,
    mean_owd_e2e,
    mean_owd_hbh,
    percentile,
    simulate_owd_e2e,
    simulate_owd_hbh,
    summarize,
    throughput_e2e,
    throughput_hbh,
)


class TestFormulas:
    def test_e2e_plr_single_hop(self):
        assert end_to_end_plr(1, 0.01) == pytest.approx(0.01)

    def test_e2e_plr_compounds(self):
        assert end_to_end_plr(10, 0.005) == pytest.approx(
            1 - 0.995**10
        )

    def test_e2e_plr_approximates_np(self):
        assert end_to_end_plr(10, 0.005) == pytest.approx(0.05, rel=0.05)

    def test_owd_e2e_lossless(self):
        assert mean_owd_e2e(10, 0.0, 0.01) == pytest.approx(0.1)

    def test_owd_hbh_lossless(self):
        assert mean_owd_hbh(10, 0.0, 0.01) == pytest.approx(0.1)

    def test_hbh_owd_below_e2e(self):
        assert mean_owd_hbh(10, 0.005, 0.01) < mean_owd_e2e(10, 0.005, 0.01)

    def test_throughput_bounds(self):
        assert throughput_e2e(10, 0.005, 20e6) == pytest.approx(20e6 * 0.95)
        assert throughput_hbh(0.005, 20e6) == pytest.approx(20e6 * 0.995)

    def test_paper_example_gain(self):
        """Paper: N=10, p=0.5% -> hop-by-hop gives 4.7% higher throughput
        and 8.7% lower mean OWD."""
        assert hbh_throughput_gain(10, 0.005) == pytest.approx(1.047, abs=0.002)
        assert hbh_owd_ratio(10, 0.005) == pytest.approx(1 - 0.087, abs=0.003)

    def test_validation(self):
        with pytest.raises(ValueError):
            end_to_end_plr(0, 0.01)
        with pytest.raises(ValueError):
            mean_owd_e2e(10, 0.2, 0.01)  # N*p >= 1
        with pytest.raises(ValueError):
            throughput_hbh(1.0, 1e6)


class TestOwdMonteCarlo:
    def test_lossless_is_deterministic(self):
        dist = simulate_owd_e2e(1000, 10, 0.0, 0.01)
        assert dist.mean_s == pytest.approx(0.1)
        assert dist.max_s == pytest.approx(0.1)

    def test_mean_matches_closed_form_e2e(self):
        dist = simulate_owd_e2e(200_000, 10, 0.005, 0.01, seed=1)
        assert dist.mean_s == pytest.approx(mean_owd_e2e(10, 0.005, 0.01), rel=0.03)

    def test_mean_matches_closed_form_hbh(self):
        dist = simulate_owd_hbh(200_000, 10, 0.005, 0.01, seed=2)
        assert dist.mean_s == pytest.approx(mean_owd_hbh(10, 0.005, 0.01), rel=0.03)

    def test_hbh_tail_is_shorter(self):
        """The Fig. 3 claim: hop-by-hop removes the long OWD tail."""
        e2e = simulate_owd_e2e(100_000, 10, 0.005, 0.01, seed=0)
        hbh = simulate_owd_hbh(100_000, 10, 0.005, 0.01, seed=0)
        assert hbh.percentile_s(99) < e2e.percentile_s(99)
        assert hbh.max_s < e2e.max_s

    def test_paper_magnitudes(self):
        """Paper reports p99 300 ms / max 700 ms (e2e) vs p99 120 ms /
        max 160 ms (hbh); allow generous slack for RNG."""
        e2e = simulate_owd_e2e(100_000, 10, 0.005, 0.01, seed=0)
        hbh = simulate_owd_hbh(100_000, 10, 0.005, 0.01, seed=0)
        assert 0.25 <= e2e.percentile_s(99) <= 0.35
        assert 0.10 <= hbh.percentile_s(99) <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_owd_e2e(0)
        with pytest.raises(ValueError):
            simulate_owd_hbh(10, plr_per_hop=1.5)


class TestStats:
    def test_jain_equal_allocations(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_hog(self):
        assert jain_fairness([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 2.0])

    def test_jain_all_zero(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_percentile(self):
        assert percentile(range(101), 99) == pytest.approx(99.0)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["mean"] == pytest.approx(2.5)
        assert s["max"] == 4.0
        assert set(s) == {"mean", "p50", "p95", "p99", "max"}

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCcbenchSummary:
    def rows(self):
        out = []
        for cc, rec in (("bbr", 300.0), ("orbcc", 220.0)):
            for cadence in ("low", "high"):
                out.append({
                    "cc": cc, "cadence": cadence, "load": "light",
                    "loss": "clean", "recovery_mean_ms": rec,
                    "recovery_max_ms": rec * 2, "unrecovered": 0,
                    "arrivals": 10, "completed": 9, "goodput_mbps": 3.0,
                    "fct_p90_s": 1.5, "jain_mean": 0.8,
                })
        return out

    def test_renders_and_ranks(self):
        from repro.analysis import ccbench_summary

        text = ccbench_summary(self.rows())
        lines = text.splitlines()
        # Ranked by recovery: orbcc (220 ms) before bbr (300 ms).
        assert lines[1].strip().startswith("orbcc:")
        assert "orbcc=2" in text  # per-cell wins
        assert "orbcc faster in 2/2 cells" in text

    def test_empty_rows(self):
        from repro.analysis import ccbench_summary

        assert "ccbench" in ccbench_summary([])
