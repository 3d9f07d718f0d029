"""Resident-set-size observation for memory-bounded runs.

The sharded engine's claim is *bounded RSS at 10⁵ flows* — a claim the
benchmarks regression-test rather than assert once (ISSUE 8).  Two
mechanisms, both Linux ``/proc`` based and returning ``None`` where
``/proc`` is unavailable (callers treat missing RSS as "unmeasured",
never as an error):

* :func:`current_rss_bytes` — instantaneous RSS from ``/proc/self/statm``.
* :class:`RssSampler` — a daemon thread sampling the calling process at
  a fixed wall-clock interval, for the engine parent over the whole
  run.  Preferred over ``ru_maxrss``, which is a process-*lifetime*
  high-water mark: in a long pytest process the lifetime peak reflects
  whichever earlier test was hungriest, not the run being measured.
* :func:`reset_peak_rss` / :func:`peak_rss_bytes` — the kernel's own
  high-water mark, restarted at the start of a shard task and read at
  its end: the exact peak over the task, a mid-shard one included,
  with no thread (a sampler thread per task cost a measurable share of
  the shards' wall time in GIL hand-offs).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> Optional[int]:
    """This process's resident set right now, or ``None`` off-Linux."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


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


class RssSampler:
    """Background peak-RSS sampler for the calling process.

    ``start()`` spawns a daemon thread; ``stop()`` joins it and returns
    the peak observed (including one final synchronous sample, so even a
    run shorter than the interval gets measured).  ``peak_bytes`` is
    ``None`` when ``/proc`` is unavailable.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.interval_s = interval_s
        self.peak_bytes: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        rss = current_rss_bytes()
        if rss is not None and (self.peak_bytes is None or rss > self.peak_bytes):
            self.peak_bytes = rss

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval_s)

    def start(self) -> "RssSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._sample()
        if self.peak_bytes is None:
            return self  # /proc unavailable: stay a no-op
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Optional[int]:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self._sample()
        return self.peak_bytes
