"""Time-varying bandwidth profiles.

A profile maps simulated time to an instantaneous link rate in bits/s.
Links query their profile at the start of each packet serialisation, which
is the same granularity `tc`-based emulation achieves.

The generators here model the bandwidth phenomena the paper relies on:

* square-wave fluctuation at the bottleneck (Figs. 5 and 14);
* the "V"-curve bandwidth dip around a GSL handover, from the Planet
  high-speed-radio trace the paper cites [30] (Starlink emulation, Sec. V-C);
* small random bias (±0.5 Mbps) on top of the handover curve;
* the long-tailed Starlink download-bandwidth distribution of Fig. 1a,
  matched to the IMC'22 measurement study's published range (2–386 Mbps).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


class BandwidthProfile:
    """Base class: a constant rate."""

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.base_rate_bps = rate_bps

    def rate_at(self, t: float) -> float:
        """Instantaneous rate in bits/s at simulated time ``t``."""
        return self.base_rate_bps

    def mean_rate(self) -> float:
        """Long-run average rate, used by experiments to compute utilisation."""
        return self.base_rate_bps


class SquareWaveBandwidth(BandwidthProfile):
    """Rate alternating between ``base + amplitude`` and ``base - amplitude``.

    Matches the paper's fluctuation model: "fluctuates as a square wave with
    a fixed period (2s) and amplitude (1Mbps)" around a mean bandwidth.
    The first half-period is the high phase.
    """

    def __init__(
        self,
        rate_bps: float,
        amplitude_bps: float,
        period_s: float = 2.0,
        phase_s: float = 0.0,
    ) -> None:
        super().__init__(rate_bps)
        if amplitude_bps < 0 or amplitude_bps >= rate_bps:
            raise ValueError("amplitude must be in [0, rate)")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.amplitude_bps = amplitude_bps
        self.period_s = period_s
        self.phase_s = phase_s

    def rate_at(self, t: float) -> float:
        pos = math.fmod(t + self.phase_s, self.period_s)
        if pos < 0:
            pos += self.period_s
        high = pos < self.period_s / 2
        return self.base_rate_bps + (self.amplitude_bps if high else -self.amplitude_bps)


class HandoverVCurveBandwidth(BandwidthProfile):
    """GSL bandwidth around handovers: a periodic "V" dip plus random bias.

    Between handovers the rate ramps linearly down to ``floor_fraction`` of
    the peak at the handover instant and back up afterwards — the "V" shape
    of the paper's cited radio trace.  A per-interval uniform bias in
    ``±bias_bps`` models short-term fluctuation; the bias is drawn
    deterministically from the interval index so the profile is a pure
    function of time (reproducible and cheap).
    """

    def __init__(
        self,
        rate_bps: float,
        handover_interval_s: float = 15.0,
        floor_fraction: float = 0.5,
        bias_bps: float = 0.5e6,
        seed: int = 0,
    ) -> None:
        super().__init__(rate_bps)
        if not 0 < floor_fraction <= 1:
            raise ValueError("floor_fraction must be in (0, 1]")
        if handover_interval_s <= 0:
            raise ValueError("handover interval must be positive")
        self.handover_interval_s = handover_interval_s
        self.floor_fraction = floor_fraction
        self.bias_bps = bias_bps
        self._seed = seed

    def _bias_for_interval(self, idx: int) -> float:
        if self.bias_bps == 0:
            return 0.0
        rng = np.random.default_rng(np.random.SeedSequence([self._seed, idx]))
        return float(rng.uniform(-self.bias_bps, self.bias_bps))

    def rate_at(self, t: float) -> float:
        interval = self.handover_interval_s
        idx = int(t // interval)
        # Distance from the nearest handover instant, normalised to [0, 1]
        # where 0 is mid-interval (peak) and 1 is the handover instant (floor).
        pos = (t - idx * interval) / interval  # in [0, 1)
        closeness = abs(pos - 0.5) * 2.0  # 0 at middle, 1 at the edges
        peak = self.base_rate_bps
        floor = self.base_rate_bps * self.floor_fraction
        rate = peak - (peak - floor) * closeness + self._bias_for_interval(idx)
        return max(rate, 0.05 * self.base_rate_bps)

    def mean_rate(self) -> float:
        # Linear V between peak and floor averages to their midpoint.
        return self.base_rate_bps * (1 + self.floor_fraction) / 2


def starlink_download_bandwidth_samples(
    n: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample download bandwidths (bits/s) matching Fig. 1a's distribution.

    The IMC'22 Starlink study reports download throughput ranging 2–386 Mbps
    with a right-skewed body centred around ~100 Mbps.  We model this as a
    lognormal clipped to the published range; the exact parametric family is
    immaterial — Fig. 1a is used by the paper only to motivate "bottleneck
    bandwidth is time-varying over two orders of magnitude".
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    # median ~100 Mbps, sigma chosen so the 2-386 Mbps range covers ~99%.
    samples = rng.lognormal(mean=math.log(100e6), sigma=0.85, size=n)
    return np.clip(samples, 2e6, 386e6)
