"""The paper's correctness claims, checked on one LEOTP flow as it ends.

:func:`check_flow` reads counters and high-water marks the protocol
already keeps, so it costs nothing while the flow runs.  Every value a
rule bounds is recorded at the place it is written: the Consumer keeps
its in-flight peak and worst Interest retry count, each Responder's
sending buffer its backlog peak, :class:`~repro.common.rto.RtoEstimator`
the lowest and highest RTO it ever set, and
:class:`~repro.core.congestion.HopRateController` its largest window
and the first non-finite or non-positive one.  So an excursion that
came back inside its bound before the flow ended is still seen.

The six rules (reliability, Sec. III-B; bounded buffers, eq. 9):

* **byte-exact-delivery** — the flow received exactly its size, once;
* **no-duplicate-delivery** — the application was handed exactly the
  bytes the in-order frontier advanced (wire duplicates are fine);
* **bounded-requester-window** — the Consumer never had more than
  :data:`WINDOW_LIMIT_BYTES` requested and unanswered;
* **bounded-responder-buffers** — no Producer/Midnode sending buffer of
  the flow ever held more than :data:`BACKLOG_LIMIT_BYTES`;
* **rto-sanity** — the RTO stayed in [min, max] and no Interest was
  retried more than ``tr_max_retries`` times;
* **cwnd-sanity** — every hop window of the flow stayed positive,
  finite and at most ``max_cwnd_bytes``.

:func:`repro.faults.run_chaos` runs it after its run, and
:class:`repro.workload.FlowPool` on every LEOTP flow it retires.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.tracer import TRACER

#: Hard ceiling on the Consumer's in-flight bytes.  Its window is
#: adaptive; this is far above any sane configuration's.
WINDOW_LIMIT_BYTES = 8 << 20

#: Ceiling on one flow's sending buffer at any Responder.  Buffers target
#: ``buffer_target_bytes`` (~11 KB); two orders of magnitude above that
#: means duplicate absorption broke down.
BACKLOG_LIMIT_BYTES = 1 << 20


class InvariantViolation(AssertionError):
    """A flow broke a rule; the message names each rule and its detail."""

    @classmethod
    def of(cls, violations: dict[str, str], where: str = "") -> "InvariantViolation":
        return cls(where + "; ".join(
            f"{rule}: {detail}" for rule, detail in violations.items()
        ))


def check_flow(
    consumer,
    responders: Sequence,
    *,
    app_bytes: Optional[int] = None,
    size: Optional[int] = None,
) -> dict[str, str]:
    """The rules ``consumer``'s flow broke, as ``{rule: detail}``.

    ``responders`` are the Producer and Midnodes the flow crossed; each
    is read for its own state of the flow, if it still holds any.
    ``app_bytes`` is the application's own count of delivered bytes
    (``None``: not observed, no-duplicate-delivery is skipped); ``size``
    is the byte count the flow must have completed with (``None``: an
    open-ended or aborted flow, byte-exact-delivery is skipped).
    """
    out: dict[str, str] = {}
    frontier = consumer.delivered_bytes
    if size is not None:
        if not consumer.finished:
            out["byte-exact-delivery"] = (
                f"transfer incomplete: {consumer.bytes_received}/{size} "
                f"bytes received, frontier at {frontier}"
            )
        elif consumer.bytes_received != size:
            out["byte-exact-delivery"] = (
                f"first-arrival accounting saw {consumer.bytes_received} "
                f"bytes for a {size}-byte flow"
            )
        elif app_bytes is not None and frontier != size:
            out["byte-exact-delivery"] = (
                f"app frontier {frontier} != flow size {size}"
            )
    if app_bytes is not None and app_bytes != frontier:
        out["no-duplicate-delivery"] = (
            f"app observed {app_bytes} bytes but the frontier advanced "
            f"{frontier}"
        )
    peak = consumer.max_outstanding_bytes
    if peak > WINDOW_LIMIT_BYTES:
        out["bounded-requester-window"] = (
            f"in-flight peak {peak} bytes (limit {WINDOW_LIMIT_BYTES})"
        )
    flow_id = consumer.flow_id
    senders, ccs = [], [(consumer.name, consumer.cc)]
    for node in responders:
        state = node._flows.get(flow_id)
        if state is not None:
            senders.append((node.name, state.sender))
            if hasattr(state, "cc"):  # a Producer has no Requester side
                ccs.append((node.name, state.cc))
    backlogs = [
        f"{name} peaked at {sender.max_backlog_bytes}"
        for name, sender in senders
        if sender.max_backlog_bytes > BACKLOG_LIMIT_BYTES
    ]
    if backlogs:
        out["bounded-responder-buffers"] = (
            f"backlog limit {BACKLOG_LIMIT_BYTES} exceeded: " + "; ".join(backlogs)
        )
    cap = consumer.config.tr_max_retries
    rto = consumer.rto
    if consumer.max_interest_retries > cap:
        out["rto-sanity"] = (
            f"an Interest was retried {consumer.max_interest_retries} times "
            f"(cap {cap})"
        )
    elif rto.lowest_rto_s < rto.min_rto_s or rto.highest_rto_s > rto.max_rto_s:
        out["rto-sanity"] = (
            f"RTO ranged over [{rto.lowest_rto_s:.3f}, {rto.highest_rto_s:.3f}]s,"
            f" outside [{rto.min_rto_s}, {rto.max_rto_s}]"
        )
    for name, cc in ccs:
        if cc.bad_cwnd_bytes is not None:
            out["cwnd-sanity"] = f"{name} cwnd degenerate: {cc.bad_cwnd_bytes}"
            break
        if cc.peak_cwnd_bytes > cc.config.max_cwnd_bytes:
            out["cwnd-sanity"] = (
                f"{name} cwnd peaked at {cc.peak_cwnd_bytes:.0f}, above cap "
                f"{cc.config.max_cwnd_bytes}"
            )
            break
    if out and TRACER.enabled:
        for rule, detail in out.items():
            TRACER.emit(
                consumer.sim.now, "invariant_violation", consumer.name,
                flow=flow_id, rule=rule, detail=detail,
            )
    return out
