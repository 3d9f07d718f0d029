"""Host-speed calibration: what makes ``wall_s`` and ``setup_s`` steady.

The benchmark runs on a few cores of a shared host whose speed moves by
10-50 % for seconds to minutes at a time (a neighbour on the sibling
hyper-thread, the last-level cache, the clock): the same repetition of
the same code took 4.5 s or 7.0 s, with CPU time following wall time, so
neither medians nor minima over the repetitions that fit in a run
steadied it (30-50 % inter-quartile spread across ten runs).

What does: a small **calibration kernel**, frozen here and independent of
``src/``, that loads the host the way the simulator does — it allocates
and frees small objects (tuples, floats, lists, ``__slots__`` instances)
through a dict, which is what the host's slow phases hit hardest.  It
runs for ~4 ms every ~30 ms *inside* the timed region
(between two steps of simulated time, never inside an event), so each
*slice* of the region has a reading of how slow the host was right then.
The reported time is in **reference seconds**::

    wall_s = sum(slice_s[i] * REFERENCE_S / calib_s[i])

the time the region would have taken on a host where one kernel pass
takes ``REFERENCE_S`` (4 ms — about this box on a quiet day).
A change to the program moves every ``slice_s`` and leaves ``calib_s``
alone, so a 10 % speed-up still reads as 10 %.  On the noisy host the
per-repetition spread fell from 22 % (raw) to 2.8 % (reference seconds);
slices four times longer lost half of that, hence the fine slicing.

Set-up is measured the same way (``bench/child.py`` lets the pacer look
at the clock at every import statement).  Raw seconds are kept next to
the normalised ones (``raw_host`` in ``bench/out/result.json``).
"""

from __future__ import annotations

import threading
from time import monotonic, thread_time

#: Records per kernel pass, and the pass time that defines the reference
#: host (about this box on a quiet day).
KERNEL_RECORDS = 7500
REFERENCE_S = 4e-3
#: The timed region is calibrated about this often (host seconds).
SLICE_S = 0.03


class _Packet:
    __slots__ = ("seq", "stamp", "hops")

    def __init__(self, seq: int):
        self.seq = seq
        self.stamp = seq * 0.5
        self.hops = 0


class Kernel:
    """A frozen allocation loop; ``run()`` is one calibration pass.

    Each step builds a record — a tuple holding an int, a float, a list
    and a ``__slots__`` object — enters it into a dict and retires the
    record made ``IN_FLIGHT`` steps earlier: what the simulator does for
    every packet and event, without the protocol.  Of the kernels tried
    beside the simulator on this host, the share of a host slow-down
    that was left in the normalised time (slope of log normalised on log
    raw seconds over repetitions) was, on ``leotp_bulk`` / ``tcp_pool``:
    arithmetic loop 0.23 / 0.18, event loop over a fixed 400 k-object
    table 0.33 / 0.42, event loop with one allocation per event 0.02 /
    0.24, this loop 0.02 / 0.07.
    """

    IN_FLIGHT = 2000

    def __init__(self):
        self.live: dict[int, tuple] = {}
        self.seq = 0
        self.run()  # warm-up: the first pass pays for cold caches

    def run(self) -> None:
        live = self.live
        seq = self.seq
        retire = seq - self.IN_FLIGHT
        for _ in range(KERNEL_RECORDS):
            seq += 1
            retire += 1
            live[seq] = (seq, float(seq), [seq, seq + 1], _Packet(seq))
            if retire > 0:
                del live[retire]
        self.seq = seq

    def timed(self) -> float:
        """Host seconds one pass takes right now."""
        t0 = monotonic()
        self.run()
        return monotonic() - t0


def slowness(calib_s: float) -> float:
    """How many times slower than the reference host a reading is."""
    return calib_s / REFERENCE_S


class SlicePacer:
    """Calibrates a single-threaded timed region from inside.

    The region calls :meth:`mark` between steps of its work; whenever
    ``SLICE_S`` has passed since the last reading the pacer closes the
    slice and takes another.  Calibration time is not part of any slice.
    """

    def __init__(self, kernel: Kernel, unobserved_s: float = 0.0):
        """``unobserved_s`` of the region passed before a reading could
        be taken (set-up starts in the parent): the first slice's."""
        self.kernel = kernel
        self.slices: list[tuple[float, float]] = []  # (slice_s, calib_s)
        self._calib = kernel.timed()
        self._spent = 0.0
        self._t0 = monotonic() - unobserved_s

    def mark(self) -> None:
        now = monotonic()
        if now - self._t0 >= SLICE_S:
            self._close(now)

    def _close(self, now: float) -> None:
        after = self.kernel.timed()
        self._spent += after
        self.slices.append((now - self._t0, (self._calib + after) / 2.0))
        self._calib = after
        self._t0 = monotonic()

    def finish(self) -> dict:
        self._close(monotonic())
        return {
            "raw_wall_s": sum(s for s, _ in self.slices),
            "wall_s": sum(s / slowness(c) for s, c in self.slices),
            "calib_cpu_s": self._spent,
        }


class ThreadPacer:
    """Calibrates a region whose work runs in *other* processes.

    The sharded engine's epoch loop cannot be cut from outside and its
    work runs in two worker processes while this one waits, so a thread
    here takes a reading every ``SLICE_S``.  It shares the cores with the
    workers: readings are in thread CPU time, which a wait for a core
    does not inflate but a slow host does, and the ~10 % of one core the
    thread takes is the same in every run.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._readings = [self._timed()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._t0 = monotonic()
        self._thread.start()

    def _timed(self) -> float:
        c0 = thread_time()
        self.kernel.run()
        return thread_time() - c0

    def _loop(self) -> None:
        while not self._stop.wait(SLICE_S):
            self._readings.append(self._timed())

    def finish(self) -> dict:
        raw = monotonic() - self._t0
        self._stop.set()
        self._thread.join()
        self._readings.append(self._timed())
        speed = [1.0 / slowness(c) for c in self._readings]
        return {
            "raw_wall_s": raw,
            "wall_s": raw * sum(speed) / len(speed),
            "calib_cpu_s": sum(self._readings[1:-1]),
        }
