"""Per-handover recovery metrics.

The chaos layer's :func:`~repro.faults.metrics.recovery_report` measures
one fault window.  Under churn there are many — one per handover — and
the interesting quantities are distributional: how long recovery takes
per handover, how deep the goodput dip goes, and whether any handover
failed to recover at all.  This module slices a flow's delivery record
at each handover time and aggregates the per-window reports.

Window sizing: each handover's pre/post windows are clamped so they do
not bleed into the neighbouring handover — with real cadences two
handovers can land closer together than the default 5 s chaos window.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.metrics import RecoveryReport, recovery_report
from repro.netsim.trace import FlowRecorder

#: Floor for a measurement window; below this a goodput estimate over the
#: window is numerically meaningless at LEO RTTs.
MIN_WINDOW_S = 0.05


def per_handover_reports(
    recorder: FlowRecorder,
    handover_times: Sequence[float],
    *,
    outage_s: float,
    window_s: float = 1.0,
    recovery_fraction: float = 0.8,
    recovery_window_s: float = 0.25,
    horizon_s: Optional[float] = None,
) -> list[RecoveryReport]:
    """One :class:`RecoveryReport` per handover time.

    ``outage_s`` is the blackout each handover applied (see
    :func:`~repro.churn.churn_timeline`), so each
    report's fault window is ``[t, t + outage_s]``.  ``horizon_s`` caps
    the last handover's post window at the end of the run.
    """
    times = sorted(handover_times)
    reports: list[RecoveryReport] = []
    for i, t in enumerate(times):
        pre_w = window_s
        if i > 0:
            pre_w = min(pre_w, t - (times[i - 1] + outage_s))
        post_w = window_s
        if i + 1 < len(times):
            post_w = min(post_w, times[i + 1] - (t + outage_s))
        if horizon_s is not None:
            post_w = min(post_w, horizon_s - (t + outage_s))
        pre_w = max(pre_w, MIN_WINDOW_S)
        post_w = max(post_w, MIN_WINDOW_S)
        reports.append(
            recovery_report(
                recorder, t, t + outage_s,
                window_s=pre_w,
                post_window_s=post_w,
                recovery_fraction=recovery_fraction,
                recovery_window_s=recovery_window_s,
            )
        )
    return reports


def handover_stats(reports: Sequence[RecoveryReport]) -> dict[str, float]:
    """Aggregate per-handover reports into flat row columns."""
    n = len(reports)
    if n == 0:
        return {
            "handovers_measured": 0.0,
            "unrecovered": 0.0,
            "recovery_mean_ms": 0.0,
            "recovery_max_ms": 0.0,
            "dip_depth_mean": 0.0,
            "dip_depth_max": 0.0,
            "ttfb_mean_ms": 0.0,
        }
    recoveries = [
        r.time_to_recovery_s for r in reports if r.time_to_recovery_s is not None
    ]
    dips = [max(0.0, 1.0 - min(r.goodput_ratio, 1.0)) for r in reports]
    ttfbs = [
        r.ttfb_after_fault_s for r in reports if r.ttfb_after_fault_s is not None
    ]
    return {
        "handovers_measured": float(n),
        "unrecovered": float(n - len(recoveries)),
        "recovery_mean_ms": (
            sum(recoveries) / len(recoveries) * 1000 if recoveries else 0.0
        ),
        "recovery_max_ms": max(recoveries) * 1000 if recoveries else 0.0,
        "dip_depth_mean": sum(dips) / len(dips),
        "dip_depth_max": max(dips),
        "ttfb_mean_ms": sum(ttfbs) / len(ttfbs) * 1000 if ttfbs else 0.0,
    }
