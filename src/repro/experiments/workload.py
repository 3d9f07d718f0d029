"""Many-flow contention on a 5-hop chain: LEOTP vs. BBR and Cubic.

The paper evaluates single transfers; real gateway traffic is a churning
population of mostly-small flows.  This experiment drives the
:class:`~repro.workload.pool.FlowPool` with a Poisson arrival process of
heavy-tailed (lognormal) object sizes over one shared 5-hop chain, for
each protocol in turn, and reports the scale-aware outcome: flow
completion times (p50/p90/p99), per-flow goodput, windowed Jain fairness
(1 s windows), and the memory-budget ledger — peak accounted bytes,
shared-cache-pool evictions, and admission rejects.

Every run is bounded by a hard 8 MiB memory ceiling shared between the
Midnode caches (3/4) and per-flow soft state (1/4); ``budget_breaches``
staying at 0 is the accounting proof that the pool's eviction and
admission policies enforce it.

Scaling: ``scale`` multiplies the number of arrivals (2000 at full
scale, 1000 at the CLI default of 0.5); the arrival rate is fixed so the
offered load — about 70 % of the bottleneck — does not change with scale.
"""

from __future__ import annotations

from repro.experiments.paper import Figure, Run
from repro.netsim.topology import uniform_chain_specs
from repro.obs.metrics import METRICS
from repro.simcore import RngRegistry, Simulator
from repro.workload import FlowPool, WorkloadSpec

PROTOCOLS = ("leotp", "bbr", "cubic")
N_HOPS = 5
HOP_RATE_BPS = 20e6
HOP_DELAY_S = 0.008
ARRIVAL_RATE_PER_S = 150.0
MEAN_SIZE_BYTES = 12_000
SIZE_SIGMA = 1.2
MAX_SIZE_BYTES = 200_000
MEMORY_CEILING_BYTES = 8 << 20
DRAIN_S = 8.0  # extra simulated time after the last arrival


def _n_flows(run: Run) -> int:
    return max(int(round(2000 * run.scale)), 60)


def _protocols(run: Run) -> list[tuple]:
    """(label, protocol) points; ``run.cc`` swaps the TCP rows' CC."""
    protocols = PROTOCOLS if run.cc is None else ("leotp", run.cc)
    return [(str(protocol), protocol) for protocol in protocols]


def run_pool(run: Run, spec: WorkloadSpec, **pool_options) -> dict:
    """``spec``'s flows over the shared chain, drained for
    :data:`DRAIN_S` after the last arrival; returns the pool's summary."""
    sim = Simulator()
    pool = FlowPool(
        sim,
        RngRegistry(run.seed),
        spec=spec,
        hops=uniform_chain_specs(
            N_HOPS, rate_bps=HOP_RATE_BPS, delay_s=HOP_DELAY_S
        ),
        **pool_options,
    )
    if METRICS.enabled:
        pool.attach_samplers()
    sim.run(until=spec.n_flows / ARRIVAL_RATE_PER_S + DRAIN_S)
    pool.finalize()
    return pool.summary()


def _pool(run: Run, label: str, protocol) -> dict:
    """One protocol's pool over the chain; returns its summary."""
    spec = WorkloadSpec(
        arrival="poisson",
        rate_per_s=ARRIVAL_RATE_PER_S,
        n_flows=_n_flows(run),
        size_dist="lognormal",
        mean_size_bytes=MEAN_SIZE_BYTES,
        sigma=SIZE_SIGMA,
        max_size_bytes=MAX_SIZE_BYTES,
    )
    return run_pool(run, spec, protocol=protocol,
                    memory_ceiling_bytes=MEMORY_CEILING_BYTES)


def _row(run: Run, s: dict, *_) -> dict:
    return dict(
        arrivals=int(s["arrivals"]),
        completed=int(s["completed"]),
        aborted=int(s["aborted"]),
        peak_conc=int(s["peak_concurrency"]),
        fct_p50_ms=s["fct_p50_s"] * 1e3,
        fct_p90_ms=s["fct_p90_s"] * 1e3,
        fct_p99_ms=s["fct_p99_s"] * 1e3,
        goodput_kBs=s.get("goodput_mean_bytes_s", 0.0) / 1e3,
        jain_mean=s["jain_mean"],
        jain_min=s["jain_min"],
        budget_peak_MiB=s["budget_peak_bytes"] / (1 << 20),
        budget_breaches=int(s["budget_breaches"]),
        cache_evictions=int(s.get("cache_pool_evictions", 0)),
        admission_rejects=int(s["admission_rejects"]),
    )


run = Figure(
    "Workload",
    lambda run: f"{_n_flows(run)} Poisson flow arrivals (lognormal sizes, "
    f"mean {MEAN_SIZE_BYTES} B) multiplexed over a shared "
    f"{N_HOPS}-hop chain, {MEMORY_CEILING_BYTES >> 20} MiB memory budget",
    ("protocol",),
    grid=_protocols,
    cell=_pool,
    row=_row,
    notes=lambda *_: [
        "jain_mean/jain_min = windowed (1 s) Jain index over concurrently "
        "active flows; budget_breaches = ledger updates above the ceiling "
        "(0 proves the budget held)"
    ],
    # Pool-level gauges move slowly, so 200 ms is plenty and keeps the
    # sample stream proportionate to the run length.
    sampler_interval_s=0.2,
)
