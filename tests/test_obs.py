"""Observability layer: off-path cost, determinism, schema, fig10 smoke.

Four guarantees are pinned here:

* **off-path no-op** — with tracing disabled (the default), instrumented
  code emits nothing and allocates nothing per packet: the module-level
  ``TRACER``/``METRICS`` singletons keep their identity and stay empty
  through a full experiment run.
* **read-only observation** — enabling the tracer and samplers never
  changes simulation results: result rows are bit-identical with
  observation on or off.
* **sampler determinism** — per-experiment record/sample streams are
  bit-identical between ``jobs=1`` and ``jobs=2``, because ``run_one``
  resets the global observability state per experiment (not per process).
* **schema** — every emitted record/sample passes ``validate_record``
  and survives a JSONL dump/load round trip unchanged.

Plus a fig10 smoke run asserting the traced recovery timeline is
populated and the recovery cost lands in a band around the reported
82–116 ms (EXPERIMENTS.md, Fig. 10 row).
"""

from __future__ import annotations

import pytest

import repro.obs
import repro.obs.tracer
from repro.analysis.report import (
    cache_efficiency,
    event_counts,
    rate_ladder,
    recovery_latency_ms,
    recovery_timeline,
    run_summary,
)
from repro.obs import (
    METRICS,
    TRACER,
    EventTracer,
    dump_jsonl,
    load_jsonl,
    validate_record,
)
from repro.experiments.runner import RunSpec, run_experiments, run_one

_TINY = 0.02
_SEED = 0
_SPEC = RunSpec(scale=_TINY, seed=_SEED)
_OBS_SPEC = RunSpec(scale=_TINY, seed=_SEED, observe=True)


@pytest.fixture(autouse=True)
def _obs_clean():
    """Leave the global observability state as the suite expects: off."""
    yield
    TRACER.reset()
    METRICS.reset()
    TRACER.disable()
    METRICS.disable()


class TestOffPath:
    def test_singleton_identity(self):
        # The hot-path guard `if TRACER.enabled:` binds this one object at
        # import time in every instrumented module; its identity must
        # never change.
        assert repro.obs.TRACER is repro.obs.tracer.TRACER
        assert repro.obs.METRICS is repro.obs.metrics.METRICS

    def test_untraced_run_records_nothing(self):
        tracer_before = repro.obs.TRACER
        metrics_before = repro.obs.METRICS
        run_one("fig02", _SPEC)
        assert repro.obs.TRACER is tracer_before
        assert repro.obs.METRICS is metrics_before
        assert not TRACER.enabled and not TRACER.records
        assert not METRICS.enabled and not METRICS.samples

    def test_observation_is_read_only(self):
        # Result rows must be bit-identical with observation on or off.
        plain = run_one("fig02", _SPEC)
        observed = run_one("fig02", _OBS_SPEC)
        assert plain.result == observed.result
        assert observed.trace_records and observed.metric_samples
        assert plain.trace_records is None and plain.metric_samples is None


class TestDeterminism:
    def test_streams_identical_across_jobs(self):
        names = ["fig10", "fig02"]
        serial = run_experiments(names, _OBS_SPEC, jobs=1)
        pooled = run_experiments(names, _OBS_SPEC, jobs=2)
        for a, b in zip(serial, pooled):
            assert a.name == b.name
            assert a.result == b.result
            assert a.trace_records == b.trace_records
            assert a.metric_samples == b.metric_samples


class TestSchema:
    def test_emitted_records_validate(self):
        outcome = run_one("fig02", _OBS_SPEC)
        for rec in outcome.trace_records:
            validate_record(rec)
        for row in outcome.metric_samples:
            validate_record(row)
            assert row["event"] == "sample"
            assert {"run", "series", "value"} <= row.keys()

    def test_jsonl_round_trip(self, tmp_path):
        outcome = run_one("fig02", _OBS_SPEC)
        rows = outcome.trace_records + outcome.metric_samples
        dest = tmp_path / "obs.jsonl"
        dump_jsonl(rows, dest)
        assert load_jsonl(dest) == rows

    def test_validate_rejects_bad_records(self):
        with pytest.raises(ValueError):
            validate_record({"t": 0.0, "event": "x"})  # missing node
        with pytest.raises(ValueError):
            validate_record({"t": "late", "event": "x", "node": "n"})
        with pytest.raises(ValueError):
            validate_record([("t", 0.0)])  # not a dict

    def test_tracer_bounded(self):
        tracer = EventTracer(max_records=2)
        tracer.enable()
        for i in range(5):
            tracer.emit(float(i), "e", "n")
        assert len(tracer.records) == 2
        assert tracer.dropped_records == 3


class TestStreaming:
    """Past max_records the tracer drops and counts, never grows."""

    def test_without_stream_old_drop_behaviour(self):
        tracer = EventTracer(max_records=10)
        tracer.enable()
        for i in range(35):
            tracer.emit(float(i), "e", "n")
        assert len(tracer.records) == 10
        assert tracer.dropped_records == 25


class TestReport:
    def test_summary_renders_all_sections(self):
        outcome = run_one("fig10", _OBS_SPEC)
        records, samples = outcome.trace_records, outcome.metric_samples
        counts = event_counts(records)
        # fig10 flows are duration-bounded (no flow_complete); losses and
        # repairs must both have been traced.
        assert counts["data_recv"] > 0 and counts["link_drop"] > 0
        assert recovery_timeline(records, limit=10)
        assert cache_efficiency(records)  # Midnodes saw lookups
        ladder = rate_ladder(samples)
        assert any(row["series"].endswith("rate_bp_bytes_s") for row in ladder)
        text = run_summary(records, samples, title="fig10")
        for needle in ("observability summary: fig10", "events (",
                       "cache efficiency", "per-hop state",
                       "recovery timeline"):
            assert needle in text

    def test_chaos_harness_carries_obs_streams(self):
        from functools import partial

        from repro.experiments.common import PathSpec, build_path
        from repro.faults import FaultSchedule, LinkDown, run_chaos
        from repro.netsim.topology import uniform_chain_specs

        schedule = FaultSchedule([
            LinkDown(at_s=1.0, link="hop2", duration_s=0.5),
        ])
        build = partial(build_path, spec=PathSpec(
            hops=uniform_chain_specs(6, rate_bps=20e6, delay_s=0.008),
            total_bytes=2_000_000,
        ))
        untraced = run_chaos(schedule, build, seed=1, duration_s=4.0)
        assert untraced.trace_records is None

        TRACER.enable()
        METRICS.enable()
        traced = run_chaos(schedule, build, seed=1, duration_s=4.0)
        assert traced.trace_records and traced.metric_samples
        kinds = {rec["event"] for rec in traced.trace_records}
        assert "fault" in kinds and "data_recv" in kinds
        # Observation must not change the chaos outcome.
        assert untraced.recovery.to_dict() == traced.recovery.to_dict()

    def test_fig10_smoke_recovery_band(self):
        """Traced loss recovery lands near the reported 82-116 ms.

        EXPERIMENTS.md reports recovery cost 82-116 ms at scale 0.5; at
        tiny scale the transfer is short so per-run variance is higher —
        assert a generous band around the report plus the structural
        facts (retransmitted deliveries exist and cost > 0).
        """
        outcome = run_one("fig10", _OBS_SPEC)
        latency = recovery_latency_ms(outcome.trace_records)
        assert latency is not None
        assert latency["retx_deliveries"] > 0
        # Trace mixes LEOTP and BBR sub-runs across all loss rates, so
        # the blended mean sits above the LEOTP-only 82-116 ms report.
        assert 50.0 < latency["recovery_cost_ms"] < 2000.0
        # The experiment's own LEOTP rows are the Fig. 10 quantity.
        rows = [r for r in outcome.result["rows"]
                if r["protocol"] == "leotp" and r["recovery_cost_ms"]]
        assert rows
        for row in rows:
            assert 40.0 < row["recovery_cost_ms"] < 600.0
