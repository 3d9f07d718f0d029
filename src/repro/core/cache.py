"""The Midnode block cache (paper Sec. IV-A).

Data is stored in 4096-byte-aligned blocks per cache key, addressed by
``(key, block_index)``, with LRU (default) or LFU replacement.  The real
implementation stores payload bytes; the simulation stores which byte
ranges of each block are present plus the metadata the Consumer's
measurements need (the Producer's original transmission timestamp per
range).

A block is the one thing every packet leaves behind at every hop, so it
is kept out of the garbage collector's view: its stored pieces are one
flat ``array('d')`` of ``(start, end, origin_ts)`` triples (offsets are
exact as doubles below 2**53) beside a parallel writer list, not a graph
of range/tuple objects.  While stores arrive *in order* — each piece
starts at or after the previous piece's end, 97 % of inserts on the
benchmark — the pieces are ascending and disjoint and therefore *are*
the block's coverage; a :class:`RangeSet` is materialised only from the
first out-of-order store (a re-store after eviction, a repair) and
dropped again by compaction, which rebuilds ascending disjoint pieces.

The cache key is normally the FlowID.  Under a content workload
(:mod:`repro.content`) Midnodes alias the key to the flow's bound
*object name*, so flows fetching the same named object share blocks;
each stored range remembers the flow that wrote it (``writer``), which
is how lookups distinguish genuine cross-flow hits from a flow re-
reading its own retransmitted bytes.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.common.ranges import ByteRange, RangeSet

#: Replacement policies a cache supports — the one eviction vocabulary
#: (:class:`repro.content.CachePolicy` and ``content_study`` read it).
CACHE_EVICTION_POLICIES = ("lru", "lfu")


_unchecked = ByteRange.unchecked


class _Block:
    """Stored pieces and access bookkeeping for one 4096-byte block."""

    __slots__ = ("pieces", "writers", "covered", "coverage", "freq", "seq")

    def __init__(self) -> None:
        # Flat (start, end, origin_ts) triples in insertion order; lookups
        # scan them newest-first.  ``writers[i]`` is the flow that stored
        # piece ``i``: None for unattributed stores (single-flow caches,
        # compacted mixed history).
        self.pieces = array("d")
        self.writers: list[Optional[str]] = []
        self.covered = 0  # bytes present: the length of the pieces' union
        # None while the pieces ascend without overlap (they are their
        # own union); the union as a RangeSet once a store broke that.
        self.coverage: Optional[RangeSet] = None
        # Access bookkeeping for LFU replacement: ``freq`` is the touch
        # count, ``seq`` the creation counter (deterministic tie-break).
        # Recency (LRU) is the cache's ``OrderedDict`` order.
        self.freq = 0
        self.seq = 0


def _union(pieces: array) -> RangeSet:
    """The byte set a block's pieces cover."""
    coverage = RangeSet()
    for i in range(0, len(pieces), 3):
        coverage.add(_unchecked(int(pieces[i]), int(pieces[i + 1])))
    return coverage


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    partial_hits: int = 0
    insertions: int = 0
    evictions: int = 0
    # Byte-granular effectiveness: requested vs served, and the subset
    # served from bytes a *different* flow wrote (the content-sharing
    # signal the ``content_study`` experiment reports).
    lookup_bytes: int = 0
    hit_bytes: int = 0
    cross_hits: int = 0
    cross_hit_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class BlockCache:
    """Block cache keyed by (cache key, block index)."""

    MAX_ORIGINS_PER_BLOCK = 64

    def __init__(
        self,
        capacity_bytes: int = 64 << 20,
        block_bytes: int = 4096,
        eviction: str = "lru",
    ) -> None:
        if capacity_bytes <= 0 or block_bytes <= 0:
            raise ValueError("capacity and block size must be positive")
        if eviction not in CACHE_EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; "
                f"choose from {CACHE_EVICTION_POLICIES}"
            )
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.eviction = eviction
        self._blocks: "OrderedDict[tuple[str, int], _Block]" = OrderedDict()
        # [lowest, highest] block index ever created per cache key, so
        # dropping a flow probes its own span instead of scanning every
        # block of the node (eviction leaves it stale, which only costs
        # a missed probe).
        self._key_span: dict[str, list[int]] = {}
        self._stored_bytes = 0
        self._created = 0  # blocks ever created (source of ``_Block.seq``)
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

    def _block_span(self, rng: ByteRange) -> range:
        return range(rng.start // self.block_bytes, (rng.end - 1) // self.block_bytes + 1)

    def store(
        self,
        key: str,
        rng: ByteRange,
        origin_ts: float,
        writer: Optional[str] = None,
    ) -> None:
        """Insert a received data range (O(1) per touched block).

        ``key`` is the cache key (FlowID, or the object name under a
        content workload); ``writer`` attributes the bytes to the flow
        that fetched them so later lookups can count cross-flow hits.
        """
        self.stats.insertions += 1
        block_bytes = self.block_bytes
        blocks = self._blocks
        r_start, r_end = rng.start, rng.end
        for bidx in range(r_start // block_bytes, (r_end - 1) // block_bytes + 1):
            bkey = (key, bidx)
            block = blocks.get(bkey)
            if block is None:
                block = blocks[bkey] = _Block()
                span = self._key_span.get(key)
                if span is None:
                    self._key_span[key] = [bidx, bidx]
                elif bidx > span[1]:
                    span[1] = bidx
                elif bidx < span[0]:
                    span[0] = bidx
                self._created += 1
                block.seq = self._created
            else:
                blocks.move_to_end(bkey)
            block.freq += 1
            # The piece of ``rng`` in this block: ``rng`` itself unless it
            # straddles a block edge (every block of the span overlaps it).
            bstart = bidx * block_bytes
            bend = bstart + block_bytes
            start = r_start if r_start > bstart else bstart
            end = r_end if r_end < bend else bend
            pieces = block.pieces
            coverage = block.coverage
            if coverage is None and (not pieces or start >= pieces[-2]):
                added = end - start  # in order: disjoint from every piece
            else:
                if coverage is None:
                    coverage = block.coverage = _union(pieces)
                coverage.add(_unchecked(start, end))
                added = len(coverage) - block.covered
            pieces.fromlist([start, end, origin_ts])
            block.writers.append(writer)
            block.covered += added
            self._stored_bytes += added
            if len(block.writers) > self.MAX_ORIGINS_PER_BLOCK:
                self._compact(block)
        if self._stored_bytes > self.capacity_bytes:
            self._evict_if_needed()

    def lookup(
        self,
        key: str,
        rng: ByteRange,
        requester: Optional[str] = None,
    ) -> list[tuple[ByteRange, float]]:
        """Cached sub-ranges of ``rng`` with their origin timestamps.

        Returns a list of (sub-range, origin_ts); empty on a miss.  The
        union of returned sub-ranges is the cached intersection with
        ``rng`` (they do not overlap each other).  When ``requester`` is
        given, served bytes whose recorded writer is a *different* flow
        are counted as cross-flow hits in :attr:`stats`.
        """
        self.stats.lookups += 1
        self.stats.lookup_bytes += rng.length
        found: list[tuple[ByteRange, float]] = []
        cross_bytes = 0
        r_start, r_end = rng.start, rng.end
        # The scan compares these with doubles; float-to-float is the cheap one.
        f_start, f_end = float(r_start), float(r_end)
        remaining: Optional[RangeSet] = None  # built at the first present block
        for bidx in self._block_span(rng):
            bkey = (key, bidx)
            block = self._blocks.get(bkey)
            if block is None:
                continue
            if remaining is None:
                remaining = RangeSet([rng])
            self._blocks.move_to_end(bkey)
            block.freq += 1
            # Scan this block's stored pieces newest-first so re-stored
            # (retransmitted) data wins, then clip against what is still
            # needed to keep results disjoint.
            pieces = block.pieces
            for i in range(len(pieces) - 3, -1, -3):
                if not remaining:
                    break
                start = pieces[i]
                if start >= f_end:
                    continue
                end = pieces[i + 1]
                if end <= f_start:
                    continue
                part = _unchecked(
                    int(start) if start > f_start else r_start,
                    int(end) if end < f_end else r_end,
                )
                if remaining.contains(part):
                    # In-order hit: nothing newer overlapped this piece.
                    covered = (part,)
                elif remaining.overlaps(part):
                    covered = RangeSet([part])
                    for hole in remaining.missing_within(part):
                        covered.remove(hole)
                else:
                    continue
                origin_ts = pieces[i + 2]
                writer = block.writers[i // 3]
                for sub in covered:
                    found.append((sub, origin_ts))
                    remaining.remove(sub)
                    if (
                        requester is not None
                        and writer is not None
                        and writer != requester
                    ):
                        cross_bytes += sub.length
        if not found:
            return []
        total = sum(r.length for r, _ in found)
        self.stats.hit_bytes += total
        if cross_bytes:
            self.stats.cross_hits += 1
            self.stats.cross_hit_bytes += cross_bytes
        if total >= rng.length:
            self.stats.hits += 1
        else:
            self.stats.partial_hits += 1
        return found

    def contains(self, key: str, rng: ByteRange) -> bool:
        """True if every byte of ``rng`` is cached."""
        for bidx in self._block_span(rng):
            block = self._blocks.get((key, bidx))
            if block is None:
                return False
            bstart = bidx * self.block_bytes
            part = rng.intersection(ByteRange.unchecked(bstart, bstart + self.block_bytes))
            if part is not None and not (
                block.coverage or _union(block.pieces)
            ).contains(part):
                return False
        return True

    # -- replacement ----------------------------------------------------

    def evict_one(self) -> int:
        """Evict one block under this cache's policy; returns bytes freed
        (0 if empty)."""
        if not self._blocks:
            return 0
        if self.eviction == "lfu":
            # O(n) scan; only paid under memory pressure with LFU selected.
            victim = min(
                self._blocks, key=lambda k: (
                    self._blocks[k].freq, self._blocks[k].seq
                )
            )
            block = self._blocks.pop(victim)
        else:
            _, block = self._blocks.popitem(last=False)
        freed = block.covered
        self._stored_bytes -= freed
        self.stats.evictions += 1
        return freed

    def drop_flow(self, key: str) -> int:
        """Discard every block under cache key ``key``; returns bytes freed.

        Called on flow retirement for flow-keyed blocks: once a flow has
        completed, its cached blocks can only serve straggler re-requests,
        so a multi-flow node reclaims them eagerly instead of waiting for
        LRU pressure.  (Content-keyed blocks are *not* dropped at
        retirement — see :meth:`repro.core.midnode.Midnode.retire_flow`.)
        """
        freed = 0
        lo, hi = self._key_span.pop(key, (0, -1))
        for bidx in range(lo, hi + 1):
            block = self._blocks.pop((key, bidx), None)
            if block is not None:
                freed += block.covered
        self._stored_bytes -= freed
        return freed

    @staticmethod
    def _compact(block: _Block) -> None:
        """Collapse a block's pieces onto its coverage intervals.

        Heavy retransmission can pile up many overlapping pieces;
        compaction rebuilds one piece per covered interval, stamped with
        the block's earliest timestamp (conservative for OWD accounting).
        The writer attribution survives only if the whole block has a
        single writer — mixed history compacts to None (conservative:
        never inflates cross-flow hit counts).  The rebuilt pieces ascend
        without overlap, so the block is in order again.
        """
        oldest = min(block.pieces[2::3])
        writers = set(block.writers)
        writer = writers.pop() if len(writers) == 1 else None
        coverage = block.coverage or _union(block.pieces)
        block.pieces = array("d")
        for iv in coverage:
            block.pieces.fromlist([iv.start, iv.end, oldest])
        block.writers = [writer] * (len(block.pieces) // 3)
        block.coverage = None

    def _evict_if_needed(self) -> None:
        while self._stored_bytes > self.capacity_bytes and self._blocks:
            self.evict_one()
