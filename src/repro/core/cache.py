"""The Midnode block cache (paper Sec. IV-A).

Data is stored in 4096-byte-aligned blocks per cache key, addressed by
``(key, block_index)``, with LRU (default) or LFU replacement.  The real
implementation stores payload bytes; the simulation stores which byte
ranges of each block are present plus the metadata the Consumer's
measurements need (the Producer's original transmission timestamp per
range).

A block is the one thing every packet leaves behind at every hop, so a
block is one flat ``array('d')`` and nothing else::

    [covered, freq, seq,  start, end, origin_ts, writer_id,  ...]

a 3-double header — the bytes present (the length of the pieces'
union), the touch count and the creation counter (LFU's key and its
deterministic tie-break) — then one ``(start, end, origin_ts,
writer_id)`` quadruple per stored piece, in insertion order (offsets
and ids are exact as doubles below 2**53).  Writers are interned in a
per-cache table (id 0 is "unattributed"), and the ``OrderedDict`` that
holds the blocks in LRU order is keyed by one int, ``key_id << 32 |
block_index``, with each cache key's id kept beside its block span.

While stores arrive *in order* — each piece starts at or after the
previous piece's end, 97 % of inserts on the benchmark — the pieces are
ascending and disjoint and therefore *are* the block's coverage; a
:class:`RangeSet` is materialised only from the first out-of-order store
(a re-store after eviction, a repair), kept in a side dict keyed like
the blocks, and dropped again by compaction, which rebuilds ascending
disjoint pieces.

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


def _union(block: array) -> RangeSet:
    """The byte set a block's pieces cover."""
    coverage = RangeSet()
    for i in range(3, len(block), 4):
        coverage.add(_unchecked(int(block[i]), int(block[i + 1])))
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
    #: Writers interned before the first sweep, and over twice the
    #: survivors before each next one (see ``_intern``).
    WRITER_SWEEP_SLACK = 64

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
        # ``key_id << 32 | block_index`` -> block array, in LRU order.
        self._blocks: "OrderedDict[int, array]" = OrderedDict()
        # Materialised coverage of the blocks stored out of order.
        self._coverage: dict[int, RangeSet] = {}
        # [lowest, highest] block index ever created per cache key, so
        # dropping a flow probes its own span instead of scanning every
        # block of the node (eviction leaves it stale, which only costs
        # a missed probe), then the key's id.
        self._key_span: dict[str, list[int]] = {}
        self._next_key_id = 0
        # Interned writers: ``_writers[id]`` and ``_writer_ids[writer]``;
        # ids no stored piece names any more are reused (see ``_intern``).
        self._writers: list[Optional[str]] = [None]
        self._writer_ids: dict[Optional[str], int] = {None: 0}
        self._free_ids: list[int] = []
        self._sweep_at = self.WRITER_SWEEP_SLACK  # table size that sweeps
        self._stored_bytes = 0
        self._created = 0  # blocks ever created (a block's ``seq``)
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
        coverage_of = self._coverage
        r_start, r_end = rng.start, rng.end
        first = r_start // block_bytes
        span = self._key_span.get(key)
        if span is None:
            span = self._key_span[key] = [first, first, self._next_key_id]
            self._next_key_id += 1
        base = span[2] << 32
        wid = self._writer_ids.get(writer)
        if wid is None:
            wid = self._intern(writer)
        for bidx in range(first, (r_end - 1) // block_bytes + 1):
            bkey = base | bidx
            block = blocks.get(bkey)
            if block is None:
                self._created += 1
                block = blocks[bkey] = array("d", (0.0, 0.0, self._created))
                if bidx > span[1]:
                    span[1] = bidx
                elif bidx < span[0]:
                    span[0] = bidx
            else:
                blocks.move_to_end(bkey)
            block[1] += 1.0
            # The piece of ``rng`` in this block: ``rng`` itself unless it
            # straddles a block edge (every block of the span overlaps it).
            bstart = bidx * block_bytes
            bend = bstart + block_bytes
            start = r_start if r_start > bstart else bstart
            end = r_end if r_end < bend else bend
            if (len(block) == 3 or start >= block[-3]) and bkey not in coverage_of:
                added = end - start  # in order: disjoint from every piece
            else:
                coverage = coverage_of.get(bkey)
                if coverage is None:
                    coverage = coverage_of[bkey] = _union(block)
                coverage.add(_unchecked(start, end))
                added = len(coverage) - int(block[0])
            block.fromlist([start, end, origin_ts, wid])
            block[0] += added
            self._stored_bytes += added
            if len(block) > 3 + 4 * self.MAX_ORIGINS_PER_BLOCK:
                self._compact(bkey, block)
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
        span = self._key_span.get(key)
        if span is None:
            return []
        base = span[2] << 32
        blocks = self._blocks
        # Writer ids of cross-flow bytes: attributed, and not the requester
        # (who may never have stored anything here: id -1).
        own = (
            None if requester is None
            else self._writer_ids.get(requester, -1)
        )
        found: list[tuple[ByteRange, float]] = []
        cross_bytes = 0
        r_start, r_end = rng.start, rng.end
        # The scan compares these with doubles; float-to-float is the cheap one.
        f_start, f_end = float(r_start), float(r_end)
        remaining: Optional[RangeSet] = None  # built at the first present block
        for bidx in self._block_span(rng):
            bkey = base | bidx
            block = blocks.get(bkey)
            if block is None:
                continue
            if remaining is None:
                remaining = RangeSet([rng])
            blocks.move_to_end(bkey)
            block[1] += 1.0
            # Scan this block's stored pieces newest-first so re-stored
            # (retransmitted) data wins, then clip against what is still
            # needed to keep results disjoint.
            for i in range(len(block) - 4, 2, -4):
                if not remaining:
                    break
                start = block[i]
                if start >= f_end:
                    continue
                end = block[i + 1]
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
                origin_ts = block[i + 2]
                wid = block[i + 3]
                for sub in covered:
                    found.append((sub, origin_ts))
                    remaining.remove(sub)
                    if own is not None and wid and wid != own:
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
        span = self._key_span.get(key)
        if span is None:
            return False
        base = span[2] << 32
        for bidx in self._block_span(rng):
            bkey = base | bidx
            block = self._blocks.get(bkey)
            if block is None:
                return False
            bstart = bidx * self.block_bytes
            part = rng.intersection(ByteRange.unchecked(bstart, bstart + self.block_bytes))
            if part is not None and not (
                self._coverage.get(bkey) or _union(block)
            ).contains(part):
                return False
        return True

    def _intern(self, writer: str) -> int:
        """A new writer's id.

        A Midnode sees every flow that crosses it, but its blocks name only
        the writers of what it still holds.  So once the table has doubled
        since the last look, the writers no stored piece names are dropped
        and their ids reused: the table is the size of the cache's
        contents, not of every flow it ever served.
        """
        ids = self._writer_ids
        if len(ids) > self._sweep_at:
            live = {0.0}
            for block in self._blocks.values():
                live.update(block[6::4])
            for name, wid in list(ids.items()):
                if wid not in live:
                    del ids[name]
                    self._writers[wid] = None
                    self._free_ids.append(wid)
            self._sweep_at = 2 * len(ids) + self.WRITER_SWEEP_SLACK
        if self._free_ids:
            wid = self._free_ids.pop()
            self._writers[wid] = writer
        else:
            wid = len(self._writers)
            self._writers.append(writer)
        ids[writer] = wid
        return wid

    # -- replacement ----------------------------------------------------

    def evict_one(self) -> int:
        """Evict one block under this cache's policy; returns bytes freed
        (0 if empty)."""
        blocks = self._blocks
        if not blocks:
            return 0
        if self.eviction == "lfu":
            # O(n) scan; only paid under memory pressure with LFU selected.
            victim = min(blocks, key=lambda k: (blocks[k][1], blocks[k][2]))
            block = blocks.pop(victim)
        else:
            victim, block = blocks.popitem(last=False)
        self._coverage.pop(victim, None)
        freed = int(block[0])
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
        span = self._key_span.pop(key, None)
        if span is None:
            return 0
        lo, hi, key_id = span
        base = key_id << 32
        freed = 0
        for bkey in range(base | lo, (base | hi) + 1):
            block = self._blocks.pop(bkey, None)
            if block is not None:
                freed += int(block[0])
                self._coverage.pop(bkey, None)
        self._stored_bytes -= freed
        return freed

    def _compact(self, bkey: int, block: array) -> None:
        """Collapse a block's pieces onto its coverage intervals.

        Heavy retransmission can pile up many overlapping pieces;
        compaction rebuilds one piece per covered interval, stamped with
        the block's earliest timestamp (conservative for OWD accounting).
        The writer attribution survives only if the whole block has a
        single writer — mixed history compacts to unattributed
        (conservative: never inflates cross-flow hit counts).  The
        rebuilt pieces ascend without overlap, so the block is in order
        again.
        """
        oldest = min(block[5::4])
        writers = set(block[6::4])
        wid = writers.pop() if len(writers) == 1 else 0.0
        coverage = self._coverage.pop(bkey, None) or _union(block)
        block[3:] = array("d", [
            x for iv in coverage for x in (iv.start, iv.end, oldest, wid)
        ])

    def _evict_if_needed(self) -> None:
        while self._stored_bytes > self.capacity_bytes and self._blocks:
            self.evict_one()
