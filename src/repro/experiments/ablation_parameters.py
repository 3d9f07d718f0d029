"""Design-choice sensitivity: the constants of the congestion law.

The paper fixes several constants without sweeping them: the congestion
backoff k = 0.8 ("a value not much less than BDP to achieve faster
recovery"), the queue threshold M, the SHR disorder threshold N = 3, and
our damping gain on the backpressure correction.  This ablation sweeps
each around its default on a lossy fluctuating-bottleneck chain and
reports the throughput/latency consequences, so the defaults are
justified by measurement rather than assertion.
"""

from __future__ import annotations

from repro.core import LeotpConfig
from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.bandwidth import SquareWaveBandwidth
from repro.netsim.topology import HopSpec

SWEEPS = {
    "k (cwnd backoff)": [
        ("cwnd_backoff_factor", v) for v in (0.5, 0.7, 0.8, 0.9)
    ],
    "M (queue threshold, pkts)": [
        ("queue_threshold_bytes", v * 1400) for v in (2, 6, 12, 24)
    ],
    "N (SHR disorder threshold)": [
        ("shr_disorder_threshold", v) for v in (1, 3, 6, 12)
    ],
    "backpressure gain": [
        ("backpressure_gain", v) for v in (0.25, 0.5, 1.0)
    ],
}


def _hops() -> list[HopSpec]:
    specs = []
    for i in range(6):
        if i == 1:
            specs.append(HopSpec(
                rate_bps=10e6, delay_s=0.008, plr=0.005,
                profile=SquareWaveBandwidth(10e6, 1e6, period_s=2.0),
            ))
        else:
            specs.append(HopSpec(rate_bps=20e6, delay_s=0.008, plr=0.005))
    return specs


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    result = ExperimentResult(
        "Parameter ablation",
        "LEOTP constants swept on a lossy, fluctuating 6-hop chain",
    )
    hops = _hops()
    for sweep_name, settings in SWEEPS.items():
        for field, value in settings:
            config = LeotpConfig(**{field: value})
            metrics, _ = run_chain(
                PathSpec(hops=hops, config=config), duration, seed=seed
            )
            display = (
                value // 1400 if field == "queue_threshold_bytes" else value
            )
            result.add(
                parameter=sweep_name,
                value=display,
                is_default=value == getattr(LeotpConfig(), field),
                throughput_mbps=metrics.throughput_mbps,
                owd_mean_ms=metrics.owd_mean_ms,
                owd_p99_ms=metrics.owd_p99_ms,
            )
    return result


if __name__ == "__main__":
    print(run().table())
