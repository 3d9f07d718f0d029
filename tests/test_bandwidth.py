"""Tests for bandwidth profiles and the Starlink bandwidth generators."""

import numpy as np
import pytest

from repro.netsim.bandwidth import (
    BandwidthProfile,
    HandoverVCurveBandwidth,
    SquareWaveBandwidth,
    starlink_download_bandwidth_samples,
)


class TestConstantBandwidth:
    """The base profile is the constant rate."""

    def test_rate(self):
        assert BandwidthProfile(5e6).rate_at(123.0) == 5e6

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthProfile(0)


class TestSquareWave:
    def test_alternates_high_low(self):
        prof = SquareWaveBandwidth(10e6, 1e6, period_s=2.0)
        assert prof.rate_at(0.5) == 11e6
        assert prof.rate_at(1.5) == 9e6
        assert prof.rate_at(2.5) == 11e6

    def test_mean_rate(self):
        assert SquareWaveBandwidth(10e6, 1e6).mean_rate() == 10e6

    def test_phase_shift(self):
        prof = SquareWaveBandwidth(10e6, 1e6, period_s=2.0, phase_s=1.0)
        assert prof.rate_at(0.5) == 9e6

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            SquareWaveBandwidth(10e6, 10e6)
        with pytest.raises(ValueError):
            SquareWaveBandwidth(10e6, 1e6, period_s=0)


class TestHandoverVCurve:
    def test_peak_mid_interval_floor_at_handover(self):
        prof = HandoverVCurveBandwidth(10e6, handover_interval_s=10.0, bias_bps=0)
        mid = prof.rate_at(5.0)
        edge = prof.rate_at(0.05)
        assert mid == pytest.approx(10e6, rel=0.02)
        assert edge < 0.6 * mid

    def test_bias_is_deterministic(self):
        p1 = HandoverVCurveBandwidth(10e6, seed=1)
        p2 = HandoverVCurveBandwidth(10e6, seed=1)
        assert p1.rate_at(3.3) == p2.rate_at(3.3)

    def test_bias_changes_with_seed(self):
        p1 = HandoverVCurveBandwidth(10e6, seed=1)
        p2 = HandoverVCurveBandwidth(10e6, seed=2)
        assert p1.rate_at(3.3) != p2.rate_at(3.3)

    def test_rate_never_collapses_to_zero(self):
        prof = HandoverVCurveBandwidth(10e6, floor_fraction=0.1)
        for t in np.linspace(0, 60, 500):
            assert prof.rate_at(float(t)) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HandoverVCurveBandwidth(10e6, floor_fraction=0.0)
        with pytest.raises(ValueError):
            HandoverVCurveBandwidth(10e6, handover_interval_s=0)


class TestStarlinkGenerators:
    def test_download_samples_respect_published_range(self):
        samples = starlink_download_bandwidth_samples(
            2000, np.random.default_rng(0)
        )
        assert samples.min() >= 2e6
        assert samples.max() <= 386e6
        # Right-skewed body around ~100 Mbps.
        assert 50e6 < np.median(samples) < 200e6

    def test_download_samples_validation(self):
        with pytest.raises(ValueError):
            starlink_download_bandwidth_samples(0)
