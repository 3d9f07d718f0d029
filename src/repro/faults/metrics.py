"""Recovery metrics: how fast and how cleanly a flow survives a fault
(quantifying the link-switching resilience of Sec. V-C / Figs. 16-17).

Computed from a :class:`~repro.netsim.trace.FlowRecorder`'s delivery
columns plus sender-side counters:

* **time-to-first-byte-after-fault** — gap between the end of the
  disturbance and the first goodput delivered after it (how long the
  protocol stays stunned once the network heals).
* **goodput ratio** — goodput in a window after the fault versus the same
  sized window before it (the acceptance bar: LEOTP recovers >= 80 %).
* **time-to-recovery** — how far past the fault the protocol needs before
  a sliding window first sustains the target fraction of pre-fault
  goodput.
* **retransmission amplification** — wire bytes the Producer emitted per
  goodput byte delivered (how expensive the recovery was).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Optional

from repro.netsim.trace import FlowRecorder


@dataclass
class RecoveryReport:
    """Structured recovery summary for one fault window."""

    fault_start_s: float
    fault_end_s: float
    pre_goodput_bps: float
    post_goodput_bps: float
    goodput_ratio: float
    ttfb_after_fault_s: Optional[float]
    time_to_recovery_s: Optional[float]
    retx_amplification: Optional[float]
    delivered_bytes: int

    @property
    def recovered(self) -> bool:
        return self.time_to_recovery_s is not None

    def to_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        ttfb = (
            f"{self.ttfb_after_fault_s * 1000:.1f} ms"
            if self.ttfb_after_fault_s is not None
            else "never"
        )
        rec = (
            f"{self.time_to_recovery_s:.2f} s"
            if self.time_to_recovery_s is not None
            else "never"
        )
        return (
            f"goodput {self.pre_goodput_bps / 1e6:.2f} -> "
            f"{self.post_goodput_bps / 1e6:.2f} Mbps "
            f"({self.goodput_ratio:.0%}), first byte after {ttfb}, "
            f"recovered in {rec}"
        )


def recovery_report(
    recorder: FlowRecorder,
    fault_start_s: float,
    fault_end_s: float,
    window_s: float = 5.0,
    recovery_fraction: float = 0.8,
    recovery_window_s: float = 1.0,
    wire_bytes_sent: Optional[int] = None,
    post_window_s: Optional[float] = None,
) -> RecoveryReport:
    """Summarise recovery around the fault window ``[start, end]``.

    ``window_s`` sizes both the pre-fault baseline window (ending at
    ``fault_start_s``) and the post-fault window (starting at
    ``fault_end_s``); ``post_window_s`` overrides the latter, e.g. to stop
    measuring when a finite flow completed and goodput legitimately went
    idle.  ``time_to_recovery_s`` is the first time after the fault at
    which goodput over a trailing ``recovery_window_s`` reaches
    ``recovery_fraction`` of the pre-fault baseline.
    """
    if fault_end_s < fault_start_s:
        raise ValueError("fault must end after it starts")
    if window_s <= 0 or recovery_window_s <= 0:
        raise ValueError("windows must be positive")
    if post_window_s is None:
        post_window_s = window_s
    pre_t0 = max(fault_start_s - window_s, 0.0)
    pre = recorder.throughput_bps(pre_t0, fault_start_s)
    post = recorder.throughput_bps(fault_end_s, fault_end_s + post_window_s)
    ratio = post / pre if pre > 0 else (1.0 if post > 0 else 0.0)

    times, sizes = recorder.times, recorder.sizes
    first = bisect_right(times, fault_end_s)  # first delivery after the fault
    ttfb = times[first] - fault_end_s if first < len(times) else None

    recovery_at: Optional[float] = None
    if pre > 0 and ttfb is not None:
        target_bytes = recovery_fraction * pre * recovery_window_s / 8.0
        # Slide a trailing window over the post-fault deliveries; recovery
        # is the first instant the window holds the target byte count.
        tail = first  # oldest row still inside the window
        acc = 0.0
        for i in range(first, len(times)):
            acc += sizes[i]
            while times[tail] < times[i] - recovery_window_s:
                acc -= sizes[tail]
                tail += 1
            if acc >= target_bytes:
                recovery_at = times[i] - fault_end_s
                break
    elif pre == 0:
        recovery_at = 0.0

    delivered = recorder.total_bytes
    amplification = (
        wire_bytes_sent / delivered
        if wire_bytes_sent is not None and delivered > 0
        else None
    )
    return RecoveryReport(
        fault_start_s=fault_start_s,
        fault_end_s=fault_end_s,
        pre_goodput_bps=pre,
        post_goodput_bps=post,
        goodput_ratio=ratio,
        ttfb_after_fault_s=ttfb,
        time_to_recovery_s=recovery_at,
        retx_amplification=amplification,
        delivered_bytes=delivered,
    )
