"""Periodic protocol-state samplers feeding a process-global registry.

Where the tracer (:mod:`repro.obs.tracer`) records *events* at the moment
they happen, the :class:`MetricsRegistry` records *state* on a fixed
cadence: every ``interval_s`` (default 50 ms of simulated time) a
:class:`~repro.simcore.process.PeriodicProcess` reads a group of named
sampler callables and appends one row per series.

Rows reuse the tracer's record schema so one validator and one JSONL
format cover both streams::

    {"t": 1.25, "event": "sample", "node": "leotp-mid2", "run": "leotp#0",
     "series": "rate_bp_bytes_s", "value": 2101432.7}

Samplers are **read-only**: they observe protocol state without mutating
it, and their ticks ride the kernel's fire-and-forget path, so enabling
metrics never changes a simulation's results — only adds rows.

:func:`attach_leotp_samplers` wires the full per-hop ladder of a built
LEOTP path (Consumer cwnd/rate/RTO/in-flight, each Midnode's cwnd,
backpressure bound rate_bp (eq. 9), sending-buffer BL, token-bucket level
and cache occupancy, Producer backlog, and per-link queue depth);
:func:`attach_tcp_samplers` does the TCP baselines (cwnd, srtt, pipe,
RTO).  Both are invoked automatically by the path builders while
``METRICS.enabled`` is True.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

#: Default sampling cadence in simulated seconds (see DESIGN.md §8).
DEFAULT_INTERVAL_S = 0.05


class MetricsRegistry:
    """Process-global accumulator of periodic state samples.

    A *run* groups the series of one built path (one flow over one
    simulator); :meth:`new_run` mints sequential run labels so multiple
    paths inside one experiment — and repeated builds across an
    experiment's sweep — stay distinguishable.  :meth:`reset` restarts
    the numbering, which is what makes per-experiment sample streams
    deterministic regardless of process-pool placement.
    """

    __slots__ = ("enabled", "interval_s", "samples", "max_samples",
                 "dropped_samples", "_run_seq")

    def __init__(self, max_samples: int = 2_000_000) -> None:
        self.enabled = False
        self.interval_s = DEFAULT_INTERVAL_S
        self.samples: list[dict] = []
        self.max_samples = max_samples
        self.dropped_samples = 0
        self._run_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear samples and restart run numbering (keeps ``enabled``)."""
        self.samples.clear()
        self.dropped_samples = 0
        self._run_seq = 0

    def drain(self) -> list[dict]:
        """Return the buffered samples and clear the buffer."""
        out = self.samples
        self.samples = []
        self.dropped_samples = 0
        return out

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def new_run(self, label: str) -> str:
        """Mint a unique run id for one built path (e.g. ``"leotp#0"``)."""
        run = f"{label}#{self._run_seq}"
        self._run_seq += 1
        return run

    def attach_group(
        self,
        sim,
        run: str,
        samplers: dict[str, tuple[str, Callable[[], float]]],
        interval_s: Optional[float] = None,
    ):
        """Sample every series in ``samplers`` each tick until the run ends.

        ``samplers`` maps series name -> (node name, zero-arg callable).
        A callable may raise or return None (state not built yet — e.g. a
        Midnode flow entry before the first Interest); those ticks are
        skipped for that series.  Returns the PeriodicProcess handle.
        """
        items = list(samplers.items())

        def _tick() -> None:
            now = sim.now
            append = self.samples.append
            for series, (node, fn) in items:
                if len(self.samples) >= self.max_samples:
                    self.dropped_samples += 1
                    continue
                try:
                    value = fn()
                except Exception:
                    continue
                if value is None:
                    continue
                value = float(value)
                if math.isnan(value):
                    continue
                append({"t": now, "event": "sample", "node": node,
                        "run": run, "series": series, "value": value})

        return sim.schedule_periodic(
            self.interval_s if interval_s is None else interval_s, _tick
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def series(self, run: str, name: str) -> tuple[list[float], list[float]]:
        """(times, values) of one series of one run, in sample order."""
        times, values = [], []
        for row in self.samples:
            if row["run"] == run and row["series"] == name:
                times.append(row["t"])
                values.append(row["value"])
        return times, values

    def runs(self) -> list[str]:
        """Distinct run ids, in first-seen order."""
        seen: dict[str, None] = {}
        for row in self.samples:
            seen.setdefault(row["run"], None)
        return list(seen)


#: The process-global registry (same lifetime rules as ``TRACER``).
METRICS = MetricsRegistry()


# ----------------------------------------------------------------------
# Default sampler ladders for the built-in path shapes
# ----------------------------------------------------------------------

def attach_leotp_samplers(sim, path, interval_s: Optional[float] = None) -> str:
    """Register the per-hop sampler ladder for one built LEOTP path.

    Called by :func:`repro.core.flow.build_leotp_path` when
    ``METRICS.enabled``; may also be called explicitly after building a
    custom topology.  Returns the run id.
    """
    consumer = path.consumer
    producer = path.producer
    flow_id = consumer.flow_id
    run = METRICS.new_run(flow_id)
    samplers: dict[str, tuple[str, Callable[[], float]]] = {
        "cwnd_bytes": (consumer.name, lambda: consumer.cc.cwnd_bytes),
        "rate_bytes_s": (consumer.name,
                         lambda: consumer.cc.sending_rate_bytes_s()),
        "rto_s": (consumer.name, lambda: consumer.rto.rto_s),
        "outstanding_bytes": (consumer.name,
                              lambda: consumer.outstanding_bytes),
        "delivered_bytes": (consumer.name, lambda: consumer.delivered_bytes),
        "producer_backlog_bytes": (producer.name,
                                   lambda: producer.backlog_bytes(flow_id)),
    }

    def _mid_state(mid):
        return mid._flows.get(flow_id)

    for mid in path.midnodes:
        def _cwnd(mid=mid):
            st = _mid_state(mid)
            return st.cc.cwnd_bytes if st else None

        def _rate(mid=mid):
            st = _mid_state(mid)
            return st.cc.sending_rate_bytes_s() if st else None

        def _rate_bp(mid=mid):
            st = _mid_state(mid)
            return st.cc.backpressure_rate() if st else None

        def _bl(mid=mid):
            st = _mid_state(mid)
            return st.sender.backlog_bytes if st else None

        def _bucket(mid=mid):
            st = _mid_state(mid)
            return st.sender.bucket.tokens_available if st else None

        samplers.update({
            f"{mid.name}.cwnd_bytes": (mid.name, _cwnd),
            f"{mid.name}.rate_bytes_s": (mid.name, _rate),
            f"{mid.name}.rate_bp_bytes_s": (mid.name, _rate_bp),
            f"{mid.name}.bl_bytes": (mid.name, _bl),
            f"{mid.name}.bucket_tokens": (mid.name, _bucket),
            f"{mid.name}.cache_bytes": (
                mid.name, lambda mid=mid: mid.cache.stored_bytes),
            f"{mid.name}.cache_hit_rate": (
                mid.name, lambda mid=mid: mid.cache.stats.hit_rate),
        })
    # Queue estimate per hop: the drop-tail occupancy of the data-bearing
    # direction (Producer -> Consumer is the ``ab`` direction in a chain).
    for i, duplex in enumerate(getattr(path, "links", []) or []):
        samplers[f"hop{i}.queue_bytes"] = (
            duplex.ab.name, lambda link=duplex.ab: link.queued_bytes)
    METRICS.attach_group(sim, run, samplers, interval_s)
    return run


def attach_tcp_samplers(sim, path, interval_s: Optional[float] = None) -> str:
    """Register the endpoint samplers for one built TCP path."""
    sender = path.sender
    run = METRICS.new_run(sender.flow_id)
    samplers: dict[str, tuple[str, Callable[[], float]]] = {
        "cwnd_bytes": (sender.name, lambda: sender.cc.cwnd_bytes),
        "srtt_s": (sender.name, lambda: sender.rto.srtt_s),
        "rto_s": (sender.name, lambda: sender.rto.rto_s),
        "inflight_bytes": (sender.name, lambda: sender.inflight_bytes),
    }
    for i, duplex in enumerate(getattr(path, "links", []) or []):
        samplers[f"hop{i}.queue_bytes"] = (
            duplex.ab.name, lambda link=duplex.ab: link.queued_bytes)
    METRICS.attach_group(sim, run, samplers, interval_s)
    return run
