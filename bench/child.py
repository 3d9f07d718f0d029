"""One benchmark repetition, in a fresh interpreter.

Reads one JSON job from stdin — ``{"spec", "t_spawn", "scratch",
"trace", "setup_only", "trace_out"}`` — and prints one JSON result line.
The job's ``spec`` is a bag of numbers (see ``bench/workloads.py``); this
module turns it into the public ``repro`` spec types, builds the scenario
(*set-up*), runs it (*timed region*), and reads the outcome back through
public attributes.

Host time and simulated time are kept apart: ``setup_s`` / ``wall_s``
(reference seconds, see ``bench/calib.py``) / ``raw_setup_s`` /
``raw_wall_s`` / ``cpu_s`` / ``peak_rss_mib`` are host measurements;
everything under ``sim`` is a simulated statistic and a pure function of
the spec.
"""

from __future__ import annotations

import builtins
import json
import sys
import time

import calib

# Set-up began when the parent spawned this process and is mostly these
# imports, so it is calibrated from the first line on: every import
# statement executed below, nested ones included, gives the pacer a
# chance to take a reading (one ``__import__`` call is too coarse: the
# ``repro.experiments`` import alone is two thirds of the set-up).
JOB = json.load(sys.stdin)
_unobserved_s = time.monotonic() - JOB["t_spawn"]  # one clock system-wide
KERNEL = calib.Kernel()
SETUP_PACER = calib.SlicePacer(KERNEL, _unobserved_s)
_import = builtins.__import__


def _paced_import(*args, **kwargs):
    SETUP_PACER.mark()
    return _import(*args, **kwargs)


builtins.__import__ = _paced_import

import hashlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402

from repro.content import CachePolicy, ContentSpec  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    PathSpec, build_path, metrics_from_recorder,
)
from repro.netsim.topology import uniform_chain_specs  # noqa: E402
from repro.shard import ShardPlan, iter_jsonl, run_sharded  # noqa: E402
from repro.simcore import RngRegistry, Simulator  # noqa: E402
from repro.workload import FlowPool, WorkloadSpec  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
#
# Each ``prepare_*`` does the whole set-up and returns ``(run, collect)``.
# ``run(pacer)`` is the timed region: it starts with the pacer's
# construction, ends with ``pacer.finish()`` and returns the pacer's
# timing plus the program's raw result under ``"out"``.  ``collect(raw)``
# runs after the clock stopped and returns the outcome:
#   flows    [(scheduled arrival_s, size_bytes, finish_s or None), ...]
#   events   events executed by the simulator(s)
#   rate_bps bottleneck rate (aggregate goodput can never exceed it)
#   checks   {name: bool} correctness checks only this kind can make
#   extra    numbers only this kind can reach


class RawTimer:
    """The uncalibrated stand-in for a ``calib`` pacer: raw seconds only."""

    def __init__(self, _kernel):
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        pass

    def finish(self) -> dict:
        return {"raw_wall_s": time.perf_counter() - self._t0}


def run_stepped(sim, horizon_s: float, step_s: float, pacer) -> None:
    """``sim.run(until=horizon_s)`` in steps of ``step_s`` simulated
    seconds, ``pacer.mark()`` between them (where it may calibrate).  A
    later ``run`` resumes from the exact heap state, so the schedule is
    that of one call; ``step_s`` is sized to a few ms of host time.
    """
    for i in range(1, int(horizon_s / step_s) + 1):
        sim.run(until=min(i * step_s, horizon_s))
        pacer.mark()
    sim.run(until=horizon_s)


def prepare_path(spec: dict, sim_cls, scratch: str):
    sim = sim_cls()
    total = spec["total_bytes"]
    path = build_path(sim, RngRegistry(spec["seed"]), PathSpec(
        protocol="leotp",
        hops=tuple(uniform_chain_specs(**spec["hops"])),
        total_bytes=total,
    ))

    def run(pacer) -> dict:
        run_stepped(sim, spec["horizon_s"], spec["step_s"], pacer)
        return {**pacer.finish(), "out": None}

    def collect(_raw) -> dict:
        consumer = path.consumer
        done = consumer.completed_at
        exact = done is not None and consumer.bytes_received == total
        retx_owd = None
        if done is not None:
            retx_owd = metrics_from_recorder(
                path.recorder, 0.0, done
            ).retx_owd_mean_ms
        return {
            "flows": [(0.0, total, done if exact else None)],
            "events": sim.events_executed,
            "rate_bps": spec["hops"]["rate_bps"],
            "checks": {},
            "extra": {"core.retx_owd_ms": retx_owd or 0.0},
        }

    return run, collect


def prepare_pool(spec: dict, sim_cls, scratch: str):
    sim = sim_cls()
    wl = dict(spec["workload"])
    if "content" in wl:
        wl["content"] = ContentSpec(**wl["content"])
    if "trace" in wl:
        wl["trace"] = tuple((t, s) for t, s in wl["trace"])
    policy = spec["cache_policy"]
    pool = FlowPool(
        sim,
        RngRegistry(spec["seed"]),
        spec=WorkloadSpec(**wl),
        hops=uniform_chain_specs(**spec["hops"]),
        protocol=spec["protocol"],
        memory_ceiling_bytes=spec["memory_ceiling_bytes"],
        cache_fraction=spec["cache_fraction"],
        cache_policy=(
            CachePolicy(placement=policy[0], eviction=policy[1])
            if policy else None
        ),
    )

    def run(pacer) -> dict:
        run_stepped(sim, spec["horizon_s"], spec["step_s"], pacer)
        pool.finalize()
        summary = pool.summary()
        return {**pacer.finish(), "out": summary}

    def collect(summary: dict) -> dict:
        records = pool.records
        checks = {
            "all_arrivals_spawned": len(records) == spec["n_flows"],
            "completed_eq_arrivals": pool.completed == pool.arrivals,
            "delivered_eq_demand": (
                pool.delivered_bytes == sum(r.size_bytes for r in records)
            ),
            "budget_breaches_zero": summary["budget_breaches"] == 0,
        }
        if "content" in wl:
            # Under a placement policy each member evicts against its own
            # share, so count member evictions, not only pool-forced ones.
            evictions = sum(
                m.stats.evictions for m in pool.cache_pool.members
            )
            checks["hit_ratio_in_band"] = (
                0.1 < summary["cache_hit_ratio"] < 0.9
            )
            checks["evictions_positive"] = evictions > 0
        return {
            "flows": [
                (r.arrival_s, r.size_bytes,
                 r.finish_s if r.completed else None)
                for r in records
            ],
            "events": sim.events_executed,
            "rate_bps": spec["hops"]["rate_bps"],
            "checks": checks,
            "extra": {},
        }

    return run, collect


def prepare_sharded(spec: dict, sim_cls, scratch: str):
    plan = ShardPlan(**spec["plan"])
    if sim_cls is not Simulator:
        # The shard worker constructs its simulators itself; the traced
        # run (jobs=1, inline) swaps the class the worker module names.
        import repro.shard.worker as worker

        worker.Simulator = sim_cls
    # Per-flow rows leave the engine through its spill sink: the result
    # rows alone carry per-shard percentiles, not flows.
    sink_dir = os.path.join(scratch, "spill")

    def run(pacer) -> dict:
        out = run_sharded(plan, jobs=spec["jobs"], sink_dir=sink_dir)
        return {**pacer.finish(), "out": out}

    def collect(out: dict) -> dict:
        flows = [
            (row["arrival_s"], row["size_b"],
             row["finish_s"] if row["status"] == "completed" else None)
            for row in iter_jsonl(out["sink"]["merged_path"])
        ]
        total = out["rows"][-1]
        rss = out["rss"] or {}
        return {
            "flows": flows,
            "events": out["events_executed"],
            "rate_bps": plan.hop_rate_bps * plan.n_shards,
            "checks": {
                "all_arrivals_spawned": (
                    len(flows) == plan.n_shards * plan.arrivals_per_shard
                ),
                "completed_eq_arrivals": (
                    total["completed"] == total["arrivals"]
                ),
                "budget_breaches_zero": total["budget_breaches"] == 0,
            },
            "extra": {
                "shard.exchange_payload_bytes": out["exchange_payload_bytes"],
                "shard.exchange_report_bytes": out["exchange_report_bytes"],
                "shard.worker_peak_rss_mib": rss.get("worker_peak_mib", 0.0),
            },
            "rows_digest": _sha(json.dumps(out["rows"], sort_keys=True)),
            "peak_rss_mib": rss.get("total_peak_mib"),
        }

    return run, collect


PREPARE = {"path": prepare_path, "pool": prepare_pool,
           "sharded": prepare_sharded}


# ----------------------------------------------------------------------
# Outcome -> simulated end-to-end statistics, correctness, digest
# ----------------------------------------------------------------------


def summarise(outcome: dict) -> dict:
    """Simulated statistics + correctness gate of one repetition.

    An *operation* is one flow (or the one transfer).  It fails when it
    did not complete byte-exact before the horizon — aborts and admission
    rejects included.  FCT is ``finish - scheduled arrival`` (open loop:
    a stall that delays a later flow's start still counts against it),
    and goodput is the mean over operations of ``size / FCT``: in an open
    loop the aggregate rate is just the offered load, whereas the
    per-operation rate is what the protocol decides.
    """
    flows = outcome["flows"]
    done = [(a, s, f) for a, s, f in flows if f is not None]
    delivered = sum(s for _, s, _ in done)
    if done:
        fcts = np.array([f - a for a, _, f in done])
        sizes = np.array([s for _, s, _ in done])
        span = max(f for _, _, f in done) - min(a for a, _, _ in flows)
        aggregate_bps = delivered * 8.0 / span
        goodput_mbps = float(np.mean(sizes * 8.0 / fcts) / 1e6)
        p50, p90, p99 = (
            float(np.percentile(fcts, q) * 1e3) for q in (50, 90, 99)
        )
    else:
        span = aggregate_bps = goodput_mbps = p50 = p90 = p99 = 0.0
    checks = dict(outcome["checks"])
    checks["all_operations_completed"] = len(done) == len(flows)
    checks["goodput_le_bottleneck"] = aggregate_bps <= outcome["rate_bps"]
    sim = {
        "attempted": len(flows),
        "failed": len(flows) - len(done),
        "delivered_bytes": delivered,
        "span_s": span,
        "events": outcome["events"],
        "sim_goodput_mbps": goodput_mbps,
        "sim_fct_p50_ms": p50,
        "sim_fct_p90_ms": p90,
        "sim_fct_p99_ms": p99,
    }
    rounded = {k: round(v, 9) if isinstance(v, float) else v
               for k, v in sim.items()}
    rounded["flows"] = _sha(json.dumps([
        (round(a, 9), s, None if f is None else round(f, 9))
        for a, s, f in flows
    ]))
    return {
        "sim": sim,
        "checks": checks,
        "sim_digest": _sha(json.dumps(rounded, sort_keys=True)),
    }


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    job = JOB
    spec = job["spec"]
    scratch = job["scratch"]
    tracer = None
    sim_cls = Simulator
    if job.get("trace"):
        import trace as tracing

        tracer = tracing.Tracer()
        tracer.install()
        sim_cls = tracer.simulator_class()
    os.makedirs(scratch, exist_ok=True)
    try:
        run, collect = PREPARE[spec["kind"]](spec, sim_cls, scratch)
        builtins.__import__ = _import
        setup = SETUP_PACER.finish()
        setup_s, raw_setup_s = setup["wall_s"], setup["raw_wall_s"]
        kernel = KERNEL
        if job.get("setup_only"):
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        # A traced run is not calibrated (the kernel would show up as
        # unattributed time), nor is an in-process sharded one (the
        # reading thread would fight the engine for the GIL): both feed
        # per-layer metrics only, which are raw host seconds.
        if tracer is not None or spec.get("jobs") == 1:
            pacer_cls = RawTimer
        elif spec["kind"] == "sharded":
            pacer_cls = calib.ThreadPacer
        else:
            pacer_cls = calib.SlicePacer
        cpu0 = _cpu_s()
        if tracer is None:
            timing = run(pacer_cls(kernel))
        else:
            # What no span covers belongs to the engine on a sharded run
            # (epoch loop, pickling, spill merge) and to nobody otherwise.
            root = "shard" if spec["kind"] == "sharded" else tracing.OTHER
            with tracer.timed_region(root):
                timing = run(pacer_cls(kernel))
        raw = timing.pop("out")
        cpu_s = _cpu_s() - cpu0 - timing.get("calib_cpu_s", 0.0)
        outcome = collect(raw)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = summarise(outcome)
    peak = outcome.get("peak_rss_mib")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
        **timing,
        cpu_s=cpu_s,
        peak_rss_mib=peak,
        extra=outcome["extra"],
        rows_digest=outcome.get("rows_digest"),
    )
    if tracer is not None:
        sim = result["sim"]
        result["ledger"] = tracer.ledger()
        result["counters"] = tracer.counters(
            sim["delivered_bytes"], sim["span_s"]
        )
        if job.get("trace_out"):
            tracer.dump(job["trace_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
