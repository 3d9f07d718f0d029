"""Resident-set-size observation for memory-bounded runs.

The sharded engine's claim is *bounded RSS at 10⁵ flows* — a claim the
benchmarks regression-test rather than assert once.  The reading is
Linux ``/proc`` based and is ``None`` where ``/proc`` is unavailable
(callers treat missing RSS as "unmeasured", never as an error).

:func:`reset_peak_rss` / :func:`peak_rss_bytes` are the kernel's own
high-water mark, restarted at the start of a measured stretch (a shard
task, a sharded run, a benchmark) and read at its end: the exact peak
over it, a momentary one included, with no sampler thread (one cost a
measurable share of the shards' wall time in GIL hand-offs).  Unlike
``ru_maxrss``, a process-*lifetime* mark, it does not report whichever
earlier test of a long pytest process was hungriest.
"""

from __future__ import annotations

from typing import Optional


def reset_peak_rss() -> None:
    """Restart this process's high-water mark from its current RSS
    (``/proc/self/clear_refs``).  Where that is unavailable the mark
    keeps counting from process start, an upper bound."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_bytes() -> Optional[int]:
    """This process's peak RSS since the last :func:`reset_peak_rss`
    (``VmHWM``), or ``None`` off-Linux."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    return None
