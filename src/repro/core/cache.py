"""The Midnode block cache (paper Sec. IV-A).

Data is stored in 4096-byte-aligned blocks per cache key, addressed by
``(key, block_index)``, with LRU (default) or LFU replacement.  The real
implementation stores payload bytes; the simulation stores which byte
ranges of each block are present plus the metadata the Consumer's
measurements need (the Producer's original transmission timestamp per
range).

A block is the one thing every packet leaves behind at every hop, so a
cache is one *slab*: a block is a fixed-stride slot in two flat arrays,
each field at its own width, and owns no Python object of its own.  The
unsigned 32-bit ``_slab`` holds::

    [covered, freq, seq, count, key_id, block_index,  (start, end, writer_id) x INLINE_PIECES]

an 18-int slot: a 6-int header — the bytes present (the length of the
pieces' union), the touch count and the creation counter (LFU's key and
its deterministic tie-break), the number of stored pieces, and the
block's address — then room for :data:`INLINE_PIECES` ``(start, end,
writer_id)`` triples in insertion order, ``start`` and ``end`` as
offsets within the block.  The double ``_ts`` holds each inline piece's
``origin_ts``, :data:`INLINE_PIECES` to a slot.  A slot is 104 bytes,
and nothing wraps: ``store`` refuses a block index past 32 bits with
``OverflowError``, and the arrays refuse any other value that does not
fit.  Pieces past the inline ones go in a side dict of
``(triples, stamps)`` array pairs keyed by slot.  The LRU order is a
circular doubly linked list over two int arrays of slot indices
(``_prev``/``_next``), with slot 0 as its sentinel, so the least recent
block is ``_next[0]`` and the most recent ``_prev[0]``.  Each cache key
maps to ``[lo, slot map, key_id, live blocks]``, the slot map an int
array indexed by ``block_index - lo`` in which 0 means absent.  Eviction
and ``drop_flow`` return slots and key ids to free lists, so a node's
tables are the size of its live contents, not of every flow it ever
served.  Writers are interned in a per-cache table (id 0 is
"unattributed").

While stores arrive *in order* — each piece starts at or after the
previous piece's end, 97 % of inserts on the benchmark — the pieces are
ascending and disjoint and therefore *are* the block's coverage; a
:class:`RangeSet` (of in-block offsets) is materialised only from the
first out-of-order store into a block that is not yet full (a re-store
after eviction, a repair), kept in a side dict keyed by slot, and
dropped again as soon as the block is full — a store into a full block
adds nothing, so it needs no coverage to say so — or by compaction,
which rebuilds ascending disjoint pieces.

The cache key is normally the FlowID.  Under a content workload
(:mod:`repro.content`) Midnodes alias the key to the flow's bound
*object name*, so flows fetching the same named object share blocks;
each stored range remembers the flow that wrote it (``writer``), which
is how lookups distinguish genuine cross-flow hits from a flow re-
reading its own retransmitted bytes.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.common.ranges import ByteRange, RangeSet

#: Replacement policies a cache supports — the one eviction vocabulary
#: (:class:`repro.content.CachePolicy` and ``content_study`` read it).
CACHE_EVICTION_POLICIES = ("lru", "lfu")

#: Pieces a slot holds inline (91 % of ``leotp_bulk``'s blocks hold
#: exactly four 1,400-byte-MSS pieces); later ones overflow to a side dict.
INLINE_PIECES = 4
#: Ints per slot of ``_slab``: the 6-int header, then the inline triples.
_STRIDE = 6 + 3 * INLINE_PIECES
_EMPTY_SLOT = bytes(4 * _STRIDE)
_EMPTY_STAMPS = bytes(8 * INLINE_PIECES)
# Write ints into the slab at a byte offset in one call: a piece, and a
# new slot's header with its first piece.
_pack_piece = struct.Struct("3I").pack_into
_pack_new_slot = struct.Struct("9I").pack_into
#: Block indices must stay below this (the slab holds them in 32 bits).
_MAX_BLOCKS = 1 << 32


_unchecked = ByteRange.unchecked


def _union(pieces: array) -> RangeSet:
    """The offsets a flat run of ``(start, end, writer_id)`` triples covers."""
    coverage = RangeSet()
    for i in range(0, len(pieces), 3):
        coverage.add(_unchecked(pieces[i], pieces[i + 1]))
    return coverage


@dataclass(slots=True)
class CacheStats:
    lookups: int = 0
    hits: int = 0
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

    # No per-instance dict: a Producer keeps one cache per live flow.
    __slots__ = (
        "capacity_bytes", "block_bytes", "eviction", "stats",
        "_slab", "_ts", "_prev", "_next", "_free", "_overflow", "_coverage",
        "_keys", "_keys_by_id", "_free_key_ids", "_writers", "_writer_ids",
        "_free_ids", "_sweep_at", "_stored_bytes", "_created",
    )

    #: A block holding more pieces than this compacts them (keep it at
    #: least :data:`INLINE_PIECES`: only overflowing stores check it).
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
        self.stats = CacheStats()
        # Not ``self.clear()``: a subclass's clear() may read state its own
        # constructor has not set yet.
        BlockCache.clear(self)

    def clear(self) -> None:
        """Drop every stored block, in place (a node crash).

        The geometry (capacity, block size, policy) and :attr:`stats`
        stay: they describe the cache, not what it holds.
        """
        # Slot 0 is the LRU list's sentinel; slots 1.. hold blocks.
        self._slab = array("I", _EMPTY_SLOT)
        self._ts = array("d", _EMPTY_STAMPS)
        self._prev = array("i", [0])
        self._next = array("i", [0])
        self._free = array("i")  # released slots, reused first
        # Pieces past the inline ones as ``(triples, stamps)``, and the
        # materialised coverage of the blocks stored out of order and not
        # yet full, by slot.
        self._overflow: dict[int, tuple[array, array]] = {}
        self._coverage: dict[int, RangeSet] = {}
        # cache key -> [lo, slot map, key_id, live blocks]; ``_keys_by_id``
        # names a key id's key (None once freed).
        self._keys: dict[str, list] = {}
        self._keys_by_id: list[Optional[str]] = []
        self._free_key_ids: list[int] = []
        # Interned writers: ``_writers[id]`` and ``_writer_ids[writer]``;
        # ids no stored piece names any more are reused (see ``_intern``).
        self._writers: list[Optional[str]] = [None]
        self._writer_ids: dict[Optional[str], int] = {None: 0}
        self._free_ids: list[int] = []
        self._sweep_at = self.WRITER_SWEEP_SLACK  # table size that sweeps
        self._stored_bytes = 0
        self._created = 0  # blocks ever created (a block's ``seq``)

    # ------------------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

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
        Raises ``OverflowError`` for a block index past 2**32.
        """
        block_bytes = self.block_bytes
        r_start, r_end = rng.start, rng.end
        first = r_start // block_bytes
        last = (r_end - 1) // block_bytes
        if last >= _MAX_BLOCKS:
            raise OverflowError(
                f"range [{r_start}, {r_end}) reaches block {last}; a cache "
                f"holds block indices below 2**32"
            )
        self.stats.insertions += 1
        slab, ts, nxt = self._slab, self._ts, self._next
        entry = self._keys.get(key)
        if entry is None:
            if self._free_key_ids:
                kid = self._free_key_ids.pop()
                self._keys_by_id[kid] = key
            else:
                kid = len(self._keys_by_id)
                self._keys_by_id.append(key)
            # Room for 16 blocks from the first: a short flow's map never grows.
            entry = self._keys[key] = [
                first, array("i", bytes(4 * max(16, last - first + 1))), kid, 0,
            ]
        lo, smap = entry[0], entry[1]
        if first < lo:
            smap = entry[1] = array("i", bytes(4 * (lo - first))) + smap
            entry[0] = lo = first
        wid = self._writer_ids.get(writer)
        if wid is None:
            wid = self._intern(writer)
        for bidx in range(first, last + 1):
            # The piece of ``rng`` in this block, as offsets within it:
            # ``rng`` itself unless it straddles a block edge (every block
            # of the span overlaps it).
            bstart = bidx * block_bytes
            start = r_start - bstart
            if start < 0:
                start = 0
            end = r_end - bstart
            if end > block_bytes:
                end = block_bytes
            try:
                slot = smap[bidx - lo]
            except IndexError:  # past the map's end: grow it by an eighth
                smap.frombytes(
                    bytes(4 * max(bidx - lo + 1 - len(smap), len(smap) >> 3))
                )
                slot = 0
            if not slot:
                # A new block, born holding this piece: reuse a released
                # slot or grow the slab by one, then link it in as the
                # most recent.
                prev = self._prev
                if self._free:
                    slot = self._free.pop()
                else:
                    slot = len(prev)
                    slab.frombytes(_EMPTY_SLOT)
                    ts.frombytes(_EMPTY_STAMPS)
                    prev.append(0)
                    nxt.append(0)
                self._created += 1
                _pack_new_slot(
                    slab, 4 * _STRIDE * slot, end - start, 1, self._created,
                    1, entry[2], bidx, start, end, wid,
                )
                ts[INLINE_PIECES * slot] = origin_ts
                smap[bidx - lo] = slot
                entry[3] += 1
                tail = prev[0]
                prev[slot] = tail
                nxt[slot] = 0
                nxt[tail] = slot
                prev[0] = slot
                self._stored_bytes += end - start
                continue
            after = nxt[slot]
            if after:  # not already the most recent: relink at the tail
                prev = self._prev
                before = prev[slot]
                nxt[before] = after
                prev[after] = before
                tail = prev[0]
                prev[slot] = tail
                nxt[slot] = 0
                nxt[tail] = slot
                prev[0] = slot
            b = slot * _STRIDE
            slab[b + 1] += 1
            n = slab[b + 3]
            p = b + 6 + 3 * n  # where the next inline piece goes
            covered = slab[b]
            if covered == block_bytes:
                added = 0  # full: nothing is new, and no coverage is kept
            # In order: at or past the last piece's end.
            elif start >= (
                slab[p - 2] if n <= INLINE_PIECES else self._overflow[slot][0][-2]
            ) and slot not in self._coverage:
                added = end - start  # disjoint from every piece
            else:
                coverage = self._coverage.get(slot)
                if coverage is None:
                    coverage = self._coverage[slot] = _union(self._pieces(slot)[0])
                coverage.add(_unchecked(start, end))
                added = len(coverage) - covered
                if covered + added == block_bytes:
                    del self._coverage[slot]
            slab[b + 3] = n + 1
            slab[b] = covered + added
            self._stored_bytes += added
            if n < INLINE_PIECES:
                _pack_piece(slab, 4 * p, start, end, wid)
                ts[INLINE_PIECES * slot + n] = origin_ts
            else:
                if n == INLINE_PIECES:
                    self._overflow[slot] = (
                        array("I", (start, end, wid)), array("d", (origin_ts,)),
                    )
                else:
                    triples, stamps = self._overflow[slot]
                    triples.extend((start, end, wid))
                    stamps.append(origin_ts)
                if n >= self.MAX_ORIGINS_PER_BLOCK:
                    self._compact(slot)
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
        stats = self.stats
        r_start, r_end = rng.start, rng.end
        stats.lookups += 1
        stats.lookup_bytes += r_end - r_start
        entry = self._keys.get(key)
        if entry is None:
            return []
        lo, smap = entry[0], entry[1]
        block_bytes = self.block_bytes
        first = r_start // block_bytes - lo
        last = (r_end - 1) // block_bytes - lo
        if last < 0:  # every block of ``rng`` lies below the key's lowest
            return []
        if first < 0:
            first = 0
        remaining: Optional[RangeSet] = None  # set up at the first present block
        for slot in smap[first:last + 1]:
            if not slot:
                continue
            if remaining is None:
                remaining = RangeSet([rng])
                slab, nxt = self._slab, self._next
                # Writer ids of cross-flow bytes: attributed, and not the
                # requester (who may never have stored anything here: id -1).
                own = (
                    None if requester is None
                    else self._writer_ids.get(requester, -1)
                )
                found: list[tuple[ByteRange, float]] = []
                cross_bytes = 0
            after = nxt[slot]
            if after:  # not already the most recent: relink at the tail
                prev = self._prev
                before = prev[slot]
                nxt[before] = after
                prev[after] = before
                tail = prev[0]
                prev[slot] = tail
                nxt[slot] = 0
                nxt[tail] = slot
                prev[0] = slot
            b = slot * _STRIDE
            slab[b + 1] += 1
            # ``rng`` as offsets within this block (they may reach past it).
            bstart = slab[b + 5] * block_bytes
            f_start, f_end = r_start - bstart, r_end - bstart
            # Scan this block's stored pieces newest-first so re-stored
            # (retransmitted) data wins, then clip against what is still
            # needed to keep results disjoint.
            n = slab[b + 3]
            t = INLINE_PIECES * slot
            if n <= INLINE_PIECES:
                pieces, stamps, base = slab, self._ts, b + 6
            else:
                triples, stamps = self._overflow[slot]
                pieces = slab[b + 6:b + _STRIDE] + triples
                stamps = self._ts[t:t + INLINE_PIECES] + stamps
                base = t = 0
            for j in range(n - 1, -1, -1):
                if not remaining:
                    break
                i = base + 3 * j
                start = pieces[i]
                if start >= f_end:
                    continue
                end = pieces[i + 1]
                if end <= f_start:
                    continue
                part = _unchecked(
                    bstart + start if start > f_start else r_start,
                    bstart + end if end < f_end else r_end,
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
                origin_ts = stamps[t + j]
                wid = pieces[i + 2]
                for sub in covered:
                    found.append((sub, origin_ts))
                    remaining.remove(sub)
                    if own is not None and wid and wid != own:
                        cross_bytes += sub.end - sub.start
        if remaining is None or not found:
            return []
        total = sum(r.end - r.start for r, _ in found)
        stats.hit_bytes += total
        if cross_bytes:
            stats.cross_hits += 1
            stats.cross_hit_bytes += cross_bytes
        if total >= r_end - r_start:
            stats.hits += 1
        return found

    def contains(self, key: str, rng: ByteRange) -> bool:
        """True if every byte of ``rng`` is cached."""
        entry = self._keys.get(key)
        if entry is None:
            return False
        lo, smap = entry[0], entry[1]
        block_bytes = self.block_bytes
        for bidx in range(rng.start // block_bytes, (rng.end - 1) // block_bytes + 1):
            i = bidx - lo
            slot = smap[i] if 0 <= i < len(smap) else 0
            if not slot:
                return False
            bstart = bidx * block_bytes
            part = _unchecked(
                max(rng.start - bstart, 0), min(rng.end - bstart, block_bytes),
            )
            if not (
                self._coverage.get(slot) or _union(self._pieces(slot)[0])
            ).contains(part):
                return False
        return True

    def blocks(self) -> Iterator[tuple]:
        """Every stored block, least recently used first, as ``(key,
        block_index, covered, freq, seq, pieces)`` with ``pieces`` the
        ``(start, end, origin_ts, writer)`` tuples in store order.

        Read-only: a view for tests and reports, not a way to edit the
        cache (do not store, look up or drop while iterating).
        """
        slab, nxt, writers = self._slab, self._next, self._writers
        slot = nxt[0]
        while slot:
            b = slot * _STRIDE
            bidx = slab[b + 5]
            bstart = bidx * self.block_bytes
            triples, stamps = self._pieces(slot)
            yield (
                self._keys_by_id[slab[b + 4]], bidx, slab[b], slab[b + 1],
                slab[b + 2],
                [
                    (bstart + triples[3 * j], bstart + triples[3 * j + 1],
                     stamp, writers[triples[3 * j + 2]])
                    for j, stamp in enumerate(stamps)
                ],
            )
            slot = nxt[slot]

    def _pieces(self, slot: int) -> tuple[array, array]:
        """A slot's pieces in store order: their ``(start, end,
        writer_id)`` triples as one flat run, and their stamps."""
        b = slot * _STRIDE
        t = INLINE_PIECES * slot
        n = self._slab[b + 3]
        if n <= INLINE_PIECES:
            return self._slab[b + 6:b + 6 + 3 * n], self._ts[t:t + n]
        triples, stamps = self._overflow[slot]
        return (
            self._slab[b + 6:b + _STRIDE] + triples,
            self._ts[t:t + INLINE_PIECES] + stamps,
        )

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
            live = {0}
            nxt = self._next
            slot = nxt[0]
            while slot:
                live.update(self._pieces(slot)[0][2::3])
                slot = nxt[slot]
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
        slab, nxt = self._slab, self._next
        victim = nxt[0]
        if not victim:
            return 0
        if self.eviction == "lfu":
            # O(n) scan; only paid under memory pressure with LFU selected.
            best = (slab[victim * _STRIDE + 1], slab[victim * _STRIDE + 2])
            slot = nxt[victim]
            while slot:
                rank = (slab[slot * _STRIDE + 1], slab[slot * _STRIDE + 2])
                if rank < best:
                    victim, best = slot, rank
                slot = nxt[slot]
        b = victim * _STRIDE
        key = self._keys_by_id[slab[b + 4]]
        entry = self._keys[key]
        entry[1][slab[b + 5] - entry[0]] = 0
        entry[3] -= 1
        if not entry[3]:  # the key's last block: its id goes too
            del self._keys[key]
            self._release_key(entry[2])
        freed = self._release([victim])
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
        entry = self._keys.pop(key, None)
        if entry is None:
            return 0
        freed = self._release(list(filter(None, entry[1])))  # its live slots
        self._release_key(entry[2])
        self._stored_bytes -= freed
        return freed

    def _release(self, slots: list[int]) -> int:
        """Unlink ``slots`` and put them on the free list; returns the bytes
        their blocks held (the caller clears the slot map entries)."""
        prev, nxt, slab = self._prev, self._next, self._slab
        overflow, coverage = self._overflow, self._coverage
        freed = 0
        for slot in slots:
            before, after = prev[slot], nxt[slot]
            nxt[before] = after
            prev[after] = before
            if overflow:
                overflow.pop(slot, None)
            if coverage:
                coverage.pop(slot, None)
            freed += slab[slot * _STRIDE]
        self._free.extend(slots)
        return freed

    def _release_key(self, kid: int) -> None:
        self._keys_by_id[kid] = None
        self._free_key_ids.append(kid)

    def _compact(self, slot: int) -> None:
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
        triples, stamps = self._pieces(slot)
        oldest = min(stamps)
        writers = set(triples[2::3])
        wid = writers.pop() if len(writers) == 1 else 0
        coverage = self._coverage.pop(slot, None) or _union(triples)
        flat = array("I", [x for iv in coverage for x in (iv.start, iv.end, wid)])
        count = len(flat) // 3
        inline = min(count, INLINE_PIECES)
        b = slot * _STRIDE
        t = INLINE_PIECES * slot
        self._slab[b + 6:b + 6 + 3 * inline] = flat[:3 * inline]
        self._ts[t:t + inline] = array("d", [oldest] * inline)
        self._slab[b + 3] = count
        if count > INLINE_PIECES:
            self._overflow[slot] = (
                flat[3 * inline:], array("d", [oldest] * (count - inline)),
            )
        else:
            self._overflow.pop(slot, None)

    def _evict_if_needed(self) -> None:
        while self._stored_bytes > self.capacity_bytes and self._next[0]:
            self.evict_one()
