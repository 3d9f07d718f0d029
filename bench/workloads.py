"""The five benchmark workloads: how their inputs come from the seed.

A workload is a *job spec*: a JSON-able dict of plain numbers that
``bench/child.py`` turns into ``PathSpec`` / ``WorkloadSpec`` /
``ContentSpec`` / ``ShardPlan`` values.  The spec carries a ``kind``
(``path`` | ``pool`` | ``sharded``) and parameters only — the workload
*name* never crosses into the child, so neither the child nor ``repro``
can special-case a benchmark workload.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``bench/README.md``.

Sizes were calibrated on a 2-core, Python 3.11 box so one untraced
repetition costs 4-6 s of host time, calibration passes and set-up
included: the benchmark contract caps a driver session (114 invocations)
at 3420 s, i.e. ~22 s of measurement per invocation, and an invocation
must fit three or four repetitions untraced, or one untraced plus one
traced run (tracing doubles the wall).

The driver passes a different seed on every run and requires the
metrics to stay steady across them, so inputs are built to keep the
*sampling* noise of the seed out of the simulated metrics (see
``_stratified_trace`` and the notes on each spec) while the seed still
moves everything that is random: which flow arrives when, loss draws,
popularity draws, shard seeds.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

#: Chain shared by the pool workloads (the ``workload`` experiment's chain).
POOL_HOPS = {"n_hops": 5, "rate_bps": 20e6, "delay_s": 0.008}
ARRIVAL_RATE_PER_S = 150.0
MEAN_SIZE_BYTES = 12_000
SIZE_SIGMA = 1.2
MIN_SIZE_BYTES = 1_400
MAX_SIZE_BYTES = 200_000
#: Arrivals are uniform within consecutive windows of this many flows.
ARRIVALS_PER_STRATUM = 10
#: Simulated seconds between two looks at the host clock (see
#: ``child.run_stepped``): a few ms of host time on every workload.
STEP_S = 0.02


def _stratified_trace(seed: int, n_flows: int) -> list[list[float]]:
    """Open-loop arrivals + lognormal sizes with the sampling noise removed.

    Arrivals are a Poisson process conditioned on its count in every
    window of ``ARRIVALS_PER_STRATUM / rate`` seconds (67 ms, about one
    flow lifetime): uniform within each window, so bursts survive inside
    a window but no seed is busier than another.  Sizes are the
    ``(i + 0.5) / n`` quantiles of the clipped lognormal, shuffled by the
    seed.  Every seed therefore offers the same bytes at the same coarse
    rate — the seed moves *which* flow arrives *when*, so the seed-to-seed
    spread of the simulated metrics reflects the protocol, not the draw
    (plain Poisson + sampled sizes: 13 % IQR on p90 FCT at 100 flows).
    """
    if n_flows % ARRIVALS_PER_STRATUM:
        raise ValueError(f"n_flows must be a multiple of {ARRIVALS_PER_STRATUM}")
    rng = np.random.default_rng([seed, 0xBE7C])
    stratum = np.repeat(
        np.arange(n_flows // ARRIVALS_PER_STRATUM), ARRIVALS_PER_STRATUM
    )
    arrivals = np.sort(
        (stratum + rng.random(n_flows))
        * (ARRIVALS_PER_STRATUM / ARRIVAL_RATE_PER_S)
    )
    mu = math.log(MEAN_SIZE_BYTES) - SIZE_SIGMA**2 / 2.0
    inv_cdf = NormalDist().inv_cdf
    sizes = np.array([
        math.exp(mu + SIZE_SIGMA * inv_cdf((i + 0.5) / n_flows))
        for i in range(n_flows)
    ]).clip(MIN_SIZE_BYTES, MAX_SIZE_BYTES)
    rng.shuffle(sizes)
    return [[float(t), int(s)] for t, s in zip(arrivals, sizes)]


def _trace_pool(seed: int, protocol: str, n_flows: int, drain_s: float,
                step_s: float = STEP_S) -> dict:
    return {
        "kind": "pool",
        "seed": seed,
        "protocol": protocol,
        "hops": POOL_HOPS,
        "workload": {
            "arrival": "trace",
            "trace": _stratified_trace(seed, n_flows),
        },
        "n_flows": n_flows,
        "memory_ceiling_bytes": 8 << 20,
        "cache_fraction": 0.75,
        "cache_policy": None,
        "horizon_s": n_flows / ARRIVAL_RATE_PER_S + drain_s,
        "step_s": step_s,
    }


def make_spec(name: str, seed: int, quick: bool = False) -> dict:
    """The job spec of workload ``name`` for ``seed`` (a pure function).

    ``quick`` shrinks every workload about tenfold (CI smoke).
    """
    if name == "leotp_bulk":
        total = 2_400_000 if quick else 24_000_000
        return {
            "kind": "path",
            "seed": seed,  # drives the per-hop loss streams
            "hops": {"n_hops": 5, "rate_bps": 20e6, "delay_s": 0.010,
                     "plr": 0.005},
            "total_bytes": total,
            "step_s": STEP_S,
            # ~15.5 Mbit/s today; 1.5x headroom, so a slower protocol
            # fails the transfer instead of stretching the run.
            "horizon_s": total * 8 / 15.5e6 * 1.5 + 1.0,
        }
    if name == "leotp_pool":
        return _trace_pool(seed, "leotp", 300 if quick else 1500, drain_s=8.0)
    if name == "tcp_pool":
        # A completed flow's sender never sees its last ACKs (the pool
        # withdraws the routes) and pace-ticks until the horizon, so host
        # cost is flows x drain: 1.5 s of drain (4x today's p99 FCT) buys
        # three times the flows — and a steadier p90 — of an 8 s one.
        # A simulated second costs ~2 s of host time here: finer steps.
        return _trace_pool(seed, "bbr", 30 if quick else 240, drain_s=1.5,
                           step_s=STEP_S / 4)
    if name == "content_zipf":
        n_flows = 300 if quick else 2400
        return {
            "kind": "pool",
            "seed": seed,  # catalog, arrivals and popularity draws
            "protocol": "leotp",
            "hops": POOL_HOPS,
            "workload": {
                "arrival": "poisson",
                "rate_per_s": ARRIVAL_RATE_PER_S,
                "n_flows": n_flows,
                "content": {
                    "n_objects": 60 if quick else 600,
                    "zipf_s": 1.1,
                    "mean_object_bytes": MEAN_SIZE_BYTES,
                    # Near-equal sizes: at sigma 0.6 the few top-ranked
                    # objects' sizes (one draw each) decided every
                    # simulated metric (28 % IQR across seeds).
                    "size_sigma": 0.05,
                },
            },
            "n_flows": n_flows,
            # 4 MiB of cache (0.8 MiB per midnode) against a ~7 MB
            # catalog: about two thirds of the flows hit at the hub, so
            # the median FCT sits on the hit path with margin, not on the
            # hit/miss cliff (2 MiB: 70 % IQR on p50 across seeds).
            "memory_ceiling_bytes": (1 << 20) if quick else (8 << 20),
            "cache_fraction": 0.5,
            "cache_policy": ["uniform", "lru"],
            "horizon_s": n_flows / ARRIVAL_RATE_PER_S + 8.0,
            "step_s": STEP_S,
        }
    if name == "shard_jobs2":
        return {
            "kind": "sharded",
            "jobs": 2,
            "plan": {
                "n_shards": 4 if quick else 16,
                "seed": seed,  # shard i simulates with seed * 10007 + i
                "arrivals_per_shard": 100 if quick else 160,
                "drain_s": 4.0,
                # The plan draws its own flows; a lighter size tail keeps
                # the offered bytes (hence events and wall) steady by seed.
                "size_sigma": 0.8,
                # No injected blackouts: they hit 4 of 16 shards for 0.4 s
                # of a ~1 s arrival window, which parks p90 FCT on the
                # edge of the affected tenth of flows (14 % IQR by seed).
                "fault_every": 0,
            },
        }
    raise KeyError(f"unknown workload {name!r}")
