"""Half-open byte-range algebra.

LEOTP names data by ``(FlowID, [rangeStart, rangeEnd))`` and several
components track which byte ranges have been seen (receiver reassembly,
SHR hole tracking, cache indexing).  :class:`RangeSet` keeps a sorted set
of disjoint half-open intervals with O(log n) queries.

Both classes sit on per-packet paths, so they are tuned accordingly:
:class:`ByteRange` is a hand-rolled ``__slots__`` class (construction is
~3x cheaper than the frozen dataclass it replaced) with an unchecked
factory for ranges derived from already-validated ones, and
:class:`RangeSet` maintains its covered-byte total incrementally so
``len()`` — issued by buffer-length and backpressure checks on every
packet — is O(1) instead of O(intervals).  ``add`` and ``remove`` first
test for the in-order shapes (append to / grow the last interval, consume
the head of the first) and only otherwise bisect and rebuild a slice.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator


class ByteRange:
    """A half-open interval [start, end) of byte offsets.

    Immutable by convention (nothing in the codebase mutates one); kept a
    plain slots class rather than a frozen dataclass for construction
    speed.  Ordering and hashing follow the ``(start, end)`` tuple.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or end <= start:
            raise ValueError(f"invalid range [{start}, {end})")
        self.start = start
        self.end = end

    @classmethod
    def unchecked(cls, start: int, end: int) -> "ByteRange":
        """Fast constructor for internally-derived ranges.

        Skips validation: callers must guarantee ``0 <= start < end``
        (true for any sub-range of an existing ByteRange or any interval
        a RangeSet stores).
        """
        r = _new_range(cls)
        r.start = start
        r.end = end
        return r

    # -- value semantics ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ByteRange):
            return self.start == other.start and self.end == other.end
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __lt__(self, other: "ByteRange") -> bool:
        return (self.start, self.end) < (other.start, other.end)

    def __le__(self, other: "ByteRange") -> bool:
        return (self.start, self.end) <= (other.start, other.end)

    def __gt__(self, other: "ByteRange") -> bool:
        return (self.start, self.end) > (other.start, other.end)

    def __ge__(self, other: "ByteRange") -> bool:
        return (self.start, self.end) >= (other.start, other.end)

    # -- algebra --------------------------------------------------------

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "ByteRange") -> bool:
        return self.start < other.end and other.start < self.end

    def contains(self, other: "ByteRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersection(self, other: "ByteRange") -> "ByteRange | None":
        start = self.start if self.start > other.start else other.start
        end = self.end if self.end < other.end else other.end
        return ByteRange.unchecked(start, end) if start < end else None

    def split(self, chunk: int) -> Iterator["ByteRange"]:
        """Yield consecutive sub-ranges of at most ``chunk`` bytes."""
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        pos = self.start
        end = self.end
        while pos < end:
            nxt = pos + chunk
            yield ByteRange.unchecked(pos, nxt if nxt < end else end)
            pos = nxt

    def __repr__(self) -> str:
        return f"[{self.start},{self.end})"


_new_range = object.__new__
_unchecked = ByteRange.unchecked


class RangeSet:
    """A set of byte offsets stored as sorted disjoint half-open intervals."""

    __slots__ = ("_starts", "_ends", "_total")

    def __init__(self, ranges: Iterable[ByteRange] = ()) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._total = 0  # covered bytes, maintained incrementally
        for r in ranges:
            self.add(r)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total bytes covered (O(1): maintained by add/remove)."""
        return self._total

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[ByteRange]:
        for s, e in zip(self._starts, self._ends):
            yield _unchecked(s, e)

    def intervals(self) -> list[ByteRange]:
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RangeSet({list(self)})"

    # ------------------------------------------------------------------

    def add(self, r: ByteRange) -> None:
        """Insert a range, merging with any overlapping/adjacent intervals."""
        start, end = r.start, r.end
        starts, ends = self._starts, self._ends
        # In-order arrival (the per-packet case): ``r`` follows the last
        # interval or grows its tail, so no search and no list rebuild.
        if not ends or start > ends[-1]:
            starts.append(start)
            ends.append(end)
            self._total += end - start
            return
        if start >= starts[-1]:
            if end > ends[-1]:
                self._total += end - ends[-1]
                ends[-1] = end
            return
        # Find all intervals touching [start, end] and merge them.
        lo = bisect.bisect_left(ends, start)  # first interval ending >= start
        hi = bisect.bisect_right(starts, end)  # last interval starting <= end
        if lo < hi:
            absorbed = 0
            for i in range(lo, hi):
                absorbed += ends[i] - starts[i]
            if starts[lo] < start:
                start = starts[lo]
            if ends[hi - 1] > end:
                end = ends[hi - 1]
            self._total += (end - start) - absorbed
        else:
            self._total += end - start
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]

    def remove(self, r: ByteRange) -> None:
        """Delete the intersection of ``r`` from the set."""
        start, end = r.start, r.end
        starts, ends = self._starts, self._ends
        if not starts:
            return
        # FIFO consumption (sending buffers drain in order): ``r`` ends
        # inside the first interval, so only that interval's head can go.
        first = starts[0]
        if start <= first and end <= ends[0]:
            if end > first:
                self._total -= end - first
                if end == ends[0]:
                    del starts[0], ends[0]
                else:
                    starts[0] = end
            return
        lo = bisect.bisect_right(ends, start)
        new_starts: list[int] = []
        new_ends: list[int] = []
        removed = 0
        i = lo
        while i < len(starts) and starts[i] < end:
            s, e = starts[i], ends[i]
            removed += (e if e < end else end) - (s if s > start else start)
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
            i += 1
        starts[lo:i] = new_starts
        ends[lo:i] = new_ends
        self._total -= removed

    def contains(self, r: ByteRange) -> bool:
        """True if every byte of ``r`` is in the set."""
        idx = bisect.bisect_right(self._starts, r.start) - 1
        return idx >= 0 and self._ends[idx] >= r.end

    def overlaps(self, r: ByteRange) -> bool:
        """True if any byte of ``r`` is in the set."""
        idx = bisect.bisect_right(self._starts, r.start) - 1
        if idx >= 0 and self._ends[idx] > r.start:
            return True
        idx += 1
        return idx < len(self._starts) and self._starts[idx] < r.end

    def missing_within(self, r: ByteRange) -> list[ByteRange]:
        """Sub-ranges of ``r`` not present in the set (the "holes")."""
        holes: list[ByteRange] = []
        starts, ends = self._starts, self._ends
        pos = r.start
        r_end = r.end
        idx = bisect.bisect_right(starts, pos) - 1
        if idx >= 0 and ends[idx] > pos:
            pos = min(ends[idx], r_end)
        idx += 1
        n = len(starts)
        while pos < r_end:
            if idx >= n or starts[idx] >= r_end:
                holes.append(_unchecked(pos, r_end))
                break
            if starts[idx] > pos:
                holes.append(_unchecked(pos, starts[idx]))
            pos = min(ends[idx], r_end)
            idx += 1
        return holes

    def first_missing_from(self, offset: int) -> int:
        """Smallest byte >= offset not in the set (reassembly frontier)."""
        idx = bisect.bisect_right(self._starts, offset) - 1
        if idx >= 0 and self._ends[idx] > offset:
            return self._ends[idx]
        return offset
