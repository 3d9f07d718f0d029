"""Cross-cutting property-based tests on core invariants."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ranges import ByteRange, RangeSet
from repro.core import BlockCache, TokenBucket
from repro.core.cache import INLINE_PIECES
from repro.netsim.link import Link
from repro.netsim.node import SinkNode
from repro.netsim.packet import Packet
from repro.simcore import Simulator

ranges = st.tuples(
    st.integers(min_value=0, max_value=20_000),
    st.integers(min_value=1, max_value=3_000),
).map(lambda t: ByteRange(t[0], t[0] + t[1]))


@settings(max_examples=100, deadline=None)
@given(
    stores=st.lists(st.tuples(ranges, st.floats(0, 100)), max_size=20),
    query=ranges,
)
def test_cache_lookup_returns_only_stored_bytes(stores, query):
    """Every byte a lookup returns must have been stored, results must be
    disjoint, and all of them must lie inside the queried range."""
    cache = BlockCache(capacity_bytes=1 << 22, block_bytes=4096)
    stored = RangeSet()
    for rng, ts in stores:
        cache.store("f", rng, ts)
        stored.add(rng)
    hits = cache.lookup("f", query)
    seen = RangeSet()
    for rng, _ in hits:
        assert query.contains(rng)
        assert stored.contains(rng)
        assert not seen.overlaps(rng), "lookup results overlap"
        seen.add(rng)


@settings(max_examples=100, deadline=None)
@given(
    stores=st.lists(st.tuples(ranges, st.floats(0, 100)), max_size=20),
    query=ranges,
)
def test_cache_lookup_is_complete(stores, query):
    """A lookup returns *all* cached bytes of the query (no false misses),
    provided nothing was evicted (capacity is ample here)."""
    cache = BlockCache(capacity_bytes=1 << 22, block_bytes=4096)
    stored = RangeSet()
    for rng, ts in stores:
        cache.store("f", rng, ts)
        stored.add(rng)
    hits = cache.lookup("f", query)
    total_hit = sum(r.length for r, _ in hits)
    expected = query.length - sum(
        h.length for h in stored.missing_within(query)
    )
    assert total_hit == expected


@settings(max_examples=60, deadline=None)
@given(
    consumes=st.lists(st.integers(min_value=1, max_value=4_000), max_size=30),
    rate=st.floats(min_value=100.0, max_value=1e6),
)
def test_token_bucket_never_exceeds_budget(consumes, rate):
    """Tokens granted can never exceed burst + rate * elapsed."""
    sim = Simulator()
    burst = 5_000.0
    bucket = TokenBucket(sim, rate, burst_bytes=burst)
    granted = 0
    t = 0.0
    for i, nbytes in enumerate(consumes):
        t += 0.01
        sim.schedule_at(t, lambda: None)
        sim.run(until=t)
        if bucket.take(nbytes) == 0.0:
            granted += nbytes
        assert granted <= burst + rate * t + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=50))
def test_rto_estimator_stays_in_bounds(samples):
    from repro.common.rto import RtoEstimator

    est = RtoEstimator(min_rto_s=0.1, max_rto_s=10.0)
    for s in samples:
        est.on_sample(s)
        assert 0.1 <= est.rto_s <= 10.0
        assert est.srtt_s is not None and est.srtt_s > 0


# ----------------------------------------------------------------------
# Independent oracles for the in-order fast branches
# ----------------------------------------------------------------------
#
# RangeSet.add/remove, BlockCache.store/lookup and SeqHoleDetector.on_packet
# each start with a branch for the in-order case and fall through to the
# general code.  The models below share no code with them: a set of ints,
# a dict of bytes, and a transcription of Algorithm 1.


def _runs(offsets):
    """Sorted maximal runs ``[(start, end), ...]`` of a set of ints."""
    runs = []
    for b in sorted(offsets):
        if runs and runs[-1][1] == b:
            runs[-1][1] = b + 1
        else:
            runs.append([b, b + 1])
    return [tuple(r) for r in runs]


def _as_pairs(ranges_):
    return [(r.start, r.end) for r in ranges_]


def _ascending(pieces):
    """Pieces that ascend without overlap *are* their block's coverage."""
    return all(a[1] <= b[0] for a, b in zip(pieces, pieces[1:]))


def _cache_snapshot(cache):
    """Every block in LRU order as ``((key, block index), pieces,
    coverage, freq)``, read through :meth:`BlockCache.blocks`: pieces
    ``(start, end, ts, writer)`` in store order and coverage the runs of
    their union, computed here.  Each block's own ``covered`` is checked
    against that union, its pieces against its bounds, and creation
    numbers are distinct."""
    snapshot, seqs = [], set()
    for key, bidx, covered, freq, seq, pieces in cache.blocks():
        lo, hi = bidx * cache.block_bytes, (bidx + 1) * cache.block_bytes
        assert pieces and all(lo <= s < e <= hi for s, e, _, _ in pieces)
        union = set()
        for start, end, _, _ in pieces:
            union.update(range(start, end))
        assert covered == len(union)
        assert freq >= 1 and seq >= 1 and seq not in seqs
        seqs.add(seq)
        snapshot.append(((key, bidx), pieces, _runs(union), freq))
    return snapshot


def _check_slab(cache):
    """The slab's own bookkeeping, which :meth:`BlockCache.blocks` does
    not show: the LRU links agree both ways and walk exactly the live
    slots; every other slot is free, once, and in no key's slot map;
    each live slot sits in its own key's map at its own block index;
    key ids resolve both ways; side entries belong to live slots —
    overflow pieces to exactly those holding more than ``INLINE_PIECES``,
    materialised coverage (the union of the pieces) to exactly those
    whose pieces do not ascend and whose block is not full — and writer
    ids resolve both ways."""
    prev, nxt, slab, ts = cache._prev, cache._next, cache._slab, cache._ts
    assert slab.itemsize == 4 and ts.itemsize == 8
    stride = len(slab) // len(prev)
    assert stride == 6 + 3 * INLINE_PIECES
    assert len(slab) == stride * len(prev) == len(nxt) * stride
    assert len(ts) == INLINE_PIECES * len(prev)
    live, slot = [], 0
    while True:
        after = nxt[slot]
        assert prev[after] == slot  # links agree
        if not after:
            break
        live.append(after)
        assert len(live) < len(prev)  # no cycle short of the sentinel
        slot = after
    free = list(cache._free)
    assert len(set(free)) == len(free) and set(free).isdisjoint(live)
    assert sorted(live + free) == list(range(1, len(prev)))
    mapped = {}
    for key, (lo, smap, kid, count) in cache._keys.items():
        assert cache._keys_by_id[kid] == key
        held = {i + lo: s for i, s in enumerate(smap) if s}
        assert len(held) == count >= 1
        for bidx, s in held.items():
            assert s not in mapped
            mapped[s] = (kid, bidx)
    assert sorted(mapped) == sorted(live)  # live == walked == mapped
    assert sum(k is not None for k in cache._keys_by_id) == len(cache._keys)
    assert all(cache._keys_by_id[k] is None for k in cache._free_key_ids)
    assert len(set(cache._free_key_ids)) == len(cache._free_key_ids)
    for s in live:
        b = s * stride
        assert mapped[s] == (slab[b + 4], slab[b + 5])
        assert 1 <= slab[b + 2] <= cache._created  # seq
        covered, count = slab[b], slab[b + 3]
        assert 1 <= covered <= cache.block_bytes
        assert (s in cache._overflow) == (count > INLINE_PIECES)
        triples, stamps = cache._pieces(s)
        assert len(triples) == 3 * count and len(stamps) == count
        if count > INLINE_PIECES:
            side, side_stamps = cache._overflow[s]
            assert side.itemsize == 4 and side_stamps.itemsize == 8
        for wid in triples[2::3]:
            assert 0 <= wid < len(cache._writers)
            assert cache._writer_ids[cache._writers[wid]] == wid
        # Offsets within the block.
        pieces = [tuple(triples[i:i + 2]) for i in range(0, len(triples), 3)]
        assert all(0 <= start < end <= cache.block_bytes for start, end in pieces)
        coverage = cache._coverage.get(s)
        full = covered == cache.block_bytes
        assert (coverage is None) == (_ascending(pieces) or full)
        if coverage is not None:
            union = set()
            for start, end in pieces:
                union.update(range(start, end))
            assert _as_pairs(coverage) == _runs(union)
    assert set(cache._coverage) <= set(live) and set(cache._overflow) <= set(live)


_small = st.integers(min_value=1, max_value=40)
# Symbolic operations, resolved against the model's state when executed,
# so the generator keeps hitting the shapes the fast branches test for.
_rangeset_ops = st.one_of(
    st.tuples(st.just("append_after_last"), st.integers(1, 20), _small),
    st.tuples(st.just("extend_last"), st.integers(0, 20), _small),
    st.tuples(st.just("remove_exact_head")),
    st.tuples(st.just("remove_head_prefix"), _small),
    st.tuples(st.just("add"), st.integers(0, 300), _small),
    st.tuples(st.just("remove"), st.integers(0, 300), _small),
)


def _resolve(op, model):
    """``(is_add, start, end)`` of a symbolic op on the current model."""
    runs = _runs(model)
    kind = op[0]
    if kind == "append_after_last":
        start = (runs[-1][1] if runs else 0) + op[1]
        return True, start, start + op[2]
    if kind == "extend_last":
        # From inside (or exactly at the end of) the last interval.
        if not runs:
            return True, 0, op[2]
        start = max(runs[-1][0], runs[-1][1] - op[1])
        return True, start, runs[-1][1] + op[2]
    if kind == "remove_exact_head":
        return (False, *runs[0]) if runs else (False, 5, 9)  # empty set
    if kind == "remove_head_prefix":
        if not runs:
            return False, 0, op[1]
        return False, max(0, runs[0][0] - 3), min(runs[0][1], runs[0][0] + op[1])
    return kind == "add", op[1], op[1] + op[2]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(_rangeset_ops, max_size=40),
    query=st.tuples(st.integers(0, 320), _small),
)
def test_rangeset_matches_integer_set_model(ops, query):
    rs, model = RangeSet(), set()
    q = ByteRange(query[0], query[0] + query[1])
    q_bytes = set(range(q.start, q.end))
    for op in ops:
        is_add, start, end = _resolve(op, model)
        if end <= start:
            continue
        if is_add:
            rs.add(ByteRange(start, end))
            model |= set(range(start, end))
        else:
            rs.remove(ByteRange(start, end))
            model -= set(range(start, end))
        assert _as_pairs(rs) == _runs(model)
        assert len(rs) == len(model)
        assert bool(rs) == bool(model)
        assert rs.contains(q) == (q_bytes <= model)
        assert rs.overlaps(q) == bool(q_bytes & model)
        assert _as_pairs(rs.missing_within(q)) == _runs(q_bytes - model)
        frontier = q.start
        while frontier in model:
            frontier += 1
        assert rs.first_missing_from(q.start) == frontier


class _SmallBlockCache(BlockCache):
    MAX_ORIGINS_PER_BLOCK = 5  # reach compaction within a short op list
    WRITER_SWEEP_SLACK = 0  # and writer-id reuse among three writers


class _ByteCacheModel:
    """Byte-granular reference: ``(key, byte) -> (origin_ts, writer)``,
    newest store wins; LRU or LFU over blocks; piece-list compaction;
    dropping a key frees its bytes without counting evictions."""

    def __init__(self, capacity, block_bytes, max_origins, eviction="lru"):
        self.capacity, self.block, self.max_origins = capacity, block_bytes, max_origins
        self.eviction = eviction
        self.bytes = {}
        self.lru = {}      # (key, block index) -> None, oldest first
        # (key, block index) -> [(start, end, ts, writer)] since compaction
        self.entries = {}
        # (key, block index) -> touches since created, creation number
        self.freq, self.seq, self.created = {}, {}, 0
        self.hit_bytes = self.cross_hit_bytes = self.evictions = 0

    def _block_bytes(self, bkey):
        key, bidx = bkey
        lo = bidx * self.block
        return [(key, b) for b in range(lo, lo + self.block) if (key, b) in self.bytes]

    def _touch(self, bkey):
        if bkey not in self.lru:
            self.created += 1
            self.freq[bkey], self.seq[bkey] = 0, self.created
        self.lru.pop(bkey, None)
        self.lru[bkey] = None
        self.freq[bkey] += 1

    def _forget(self, bkey):
        """Remove one block; returns the bytes it held."""
        del self.lru[bkey], self.entries[bkey], self.freq[bkey], self.seq[bkey]
        held = self._block_bytes(bkey)
        for kb in held:
            del self.bytes[kb]
        return len(held)

    def store(self, key, start, end, ts, writer):
        for bidx in range(start // self.block, (end - 1) // self.block + 1):
            bkey = (key, bidx)
            self._touch(bkey)
            lo, hi = max(start, bidx * self.block), min(end, (bidx + 1) * self.block)
            for b in range(lo, hi):
                self.bytes[(key, b)] = (ts, writer)
            entries = self.entries.setdefault(bkey, [])
            entries.append((lo, hi, ts, writer))
            if len(entries) > self.max_origins:
                oldest = min(t for _, _, t, _ in entries)
                writers = {w for _, _, _, w in entries}
                merged = (oldest, writers.pop() if len(writers) == 1 else None)
                held = self._block_bytes(bkey)
                for kb in held:
                    self.bytes[kb] = merged
                self.entries[bkey] = [
                    (*run, *merged) for run in _runs(b for _, b in held)
                ]
        while len(self.bytes) > self.capacity and self.lru:
            if self.eviction == "lfu":  # fewest touches, then oldest block
                victim = min(self.lru, key=lambda b: (self.freq[b], self.seq[b]))
            else:
                victim = next(iter(self.lru))
            self._forget(victim)
            self.evictions += 1

    def lookup(self, key, start, end, requester):
        for bidx in range(start // self.block, (end - 1) // self.block + 1):
            if (key, bidx) in self.lru:
                self._touch((key, bidx))
        hit = {b: self.bytes[(key, b)] for b in range(start, end) if (key, b) in self.bytes}
        self.hit_bytes += len(hit)
        self.cross_hit_bytes += sum(
            1 for _, w in hit.values()
            if requester is not None and w is not None and w != requester
        )
        return {b: ts for b, (ts, _) in hit.items()}

    def drop(self, key):
        return sum(self._forget(bkey) for bkey in list(self.lru) if bkey[0] == key)


_cache_ranges = st.one_of(
    # MSS-like pieces in order, pieces that straddle a block edge, anything,
    # and now and then a block far up the key (its slot map grows).
    st.tuples(st.integers(0, 9).map(lambda i: i * 24), st.just(24)),
    st.tuples(st.integers(1, 4).map(lambda i: i * 64 - 10), st.integers(11, 40)),
    st.tuples(st.integers(0, 250), st.integers(1, 70)),
    st.tuples(st.integers(16, 40).map(lambda i: i * 64 + 5), st.integers(1, 70)),
)
_flows = st.sampled_from(["f1", "f2", "f3", None])
_keys = st.sampled_from(["a", "a", "a", "b"])  # pile up on one key: compaction
_store_op = st.tuples(
    st.just("store"), _keys, _cache_ranges, st.integers(0, 50), _flows
)
# More stores into one block than MAX_ORIGINS_PER_BLOCK: forces compaction.
_burst_op = st.tuples(
    st.just("burst"), _keys, st.integers(0, 3),
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 14), st.integers(0, 50), _flows),
        min_size=6, max_size=9,
    ),
)
# Symbolic, resolved against the model's pieces of block ``(key, block)``
# when executed: "restore" stores an earlier piece of the block again and
# "before" a piece ending before the last one starts — the two shapes (a
# re-store after eviction, a repair) that take a block out of order, so
# with the bursts every run crosses in order -> materialised coverage ->
# compaction -> in order again.
_out_of_order_op = st.tuples(
    st.sampled_from(["restore", "before"]), _keys,
    st.tuples(st.integers(0, 3), st.integers(0, 9)), st.integers(0, 50), _flows,
)
_cache_ops = st.one_of(
    _store_op,
    _store_op,
    _burst_op,
    _out_of_order_op,
    st.tuples(st.just("lookup"), _keys, _cache_ranges, st.just(0), _flows),
    # Flow retirement: the key's blocks go, whatever the policy.
    st.tuples(st.just("drop"), _keys, st.just((0, 1)), st.just(0), _flows),
)


def _resolve_cache_op(op, model):
    """The plain store a symbolic op means on the model's state now."""
    kind, key, (block, pick), ts, flow = op
    lo = block * 64
    entries = model.entries.get((key, block))
    if not entries:  # never stored or evicted: this is the first piece
        start, end = lo + pick, lo + pick + 8
    elif kind == "restore" or entries[-1][0] == lo:  # (no room before)
        start, end = entries[pick % len(entries)][:2]
    else:
        end = entries[-1][0] - pick % (entries[-1][0] - lo)
        start = max(lo, end - 8)
    return "store", key, (start, end - start), ts, flow


def _flatten_bursts(ops):
    for op in ops:
        if op[0] == "burst":
            _, key, block, pieces = op
            for offset, length, ts, flow in pieces:
                yield "store", key, (block * 64 + offset, length), ts, flow
        else:
            yield op


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(_cache_ops, max_size=40),
    capacity=st.sampled_from([150, 10_000]),
    eviction=st.sampled_from(["lru", "lfu"]),
)
@example(  # one block through every state: two pieces in order, the first
    # again, four more (the sixth compacts), then in order past the end
    ops=[("store", "a", (0, 8), 5, "f1"), ("store", "a", (8, 8), 6, "f1"),
         ("restore", "a", (0, 0), 7, "f2"), ("before", "a", (0, 1), 1, "f1"),
         ("store", "a", (30, 4), 2, None), ("store", "a", (20, 4), 3, "f1"),
         ("store", "a", (40, 4), 4, "f1"), ("store", "a", (60, 4), 9, "f2"),
         ("lookup", "a", (0, 64), 0, "f2")],
    capacity=10_000, eviction="lru",
)
@example(  # LFU keeps the twice-read block 0 over the newer, colder block 1;
    # an out-of-order block is dropped with its key, then the key comes back
    ops=[("store", "a", (0, 60), 1, "f1"), ("lookup", "a", (0, 8), 0, "f2"),
         ("store", "a", (64, 60), 2, "f1"), ("store", "a", (128, 60), 3, "f2"),
         ("restore", "a", (2, 0), 4, "f1"), ("drop", "a", (0, 1), 0, None),
         ("store", "a", (0, 8), 5, "f1"), ("lookup", "a", (0, 64), 0, "f1")],
    capacity=150, eviction="lfu",
)
@example(  # a dropped key's slots and id are reused: by the other key's next
    # block, then by the key itself coming back below its old lowest block;
    # then a block far past the key's first outgrows its slot map
    ops=[("store", "a", (0, 60), 1, "f1"), ("store", "a", (64, 60), 2, "f1"),
         ("store", "b", (0, 8), 3, "f2"), ("drop", "a", (0, 1), 0, None),
         ("store", "b", (64, 8), 4, "f2"), ("store", "a", (128, 8), 5, "f1"),
         ("store", "a", (0, 8), 6, "f3"), ("store", "a", (8, 8), 7, "f3"),
         ("store", "b", (64 * 40 - 4, 8), 8, "f2"),
         ("lookup", "a", (0, 200), 0, "f2"), ("lookup", "b", (0, 64 * 41), 0, "f1")],
    capacity=10_000, eviction="lru",
)
@example(  # a block filled out of order forgets its coverage when full; a
    # later store into it, past its last piece's end, adds nothing
    ops=[("store", "a", (32, 32), 1, "f1"), ("store", "a", (0, 32), 2, "f1"),
         ("store", "a", (40, 8), 3, "f2"), ("store", "a", (8, 8), 4, "f2"),
         ("lookup", "a", (0, 64), 0, "f2")],
    capacity=10_000, eviction="lru",
)
@example(  # a lookup that ends below the lowest block its key holds
    ops=[("store", "a", (192, 24), 0, "f1"), ("store", "a", (128, 1), 0, "f1"),
         ("lookup", "a", (0, 24), 0, "f1")],
    capacity=150, eviction="lru",
)
def test_block_cache_matches_byte_model(ops, capacity, eviction):
    cache = _SmallBlockCache(
        capacity_bytes=capacity, block_bytes=64, eviction=eviction
    )
    model = _ByteCacheModel(
        capacity, 64, _SmallBlockCache.MAX_ORIGINS_PER_BLOCK, eviction
    )
    for op in _flatten_bursts(ops):
        if op[0] in ("restore", "before"):
            op = _resolve_cache_op(op, model)
        kind, key, (start, length), ts, flow = op
        rng = ByteRange(start, start + length)
        if kind == "store":
            cache.store(key, rng, float(ts), writer=flow)
            model.store(key, rng.start, rng.end, float(ts), flow)
        elif kind == "drop":
            assert cache.drop_flow(key) == model.drop(key)
        else:
            got = {}
            for sub, origin_ts in cache.lookup(key, rng, requester=flow):
                for b in range(sub.start, sub.end):
                    assert b not in got, "lookup results overlap"
                    got[b] = origin_ts
            assert got == model.lookup(key, rng.start, rng.end, flow)
        # Block for block, in LRU order: the pieces the model holds and
        # the touches LFU ranks by (the snapshot itself checks each
        # ``covered`` against their union), over a slab whose links, free
        # lists, slot maps and side dicts agree with each other.
        _check_slab(cache)
        assert [(bkey, pieces, freq) for bkey, pieces, _, freq in (
            _cache_snapshot(cache)
        )] == [
            (bkey, model.entries[bkey], model.freq[bkey]) for bkey in model.lru
        ]
        assert cache.stored_bytes == len(model.bytes) == sum(
            covered for _, _, covered, _, _, _ in cache.blocks()
        )
        assert cache.contains(key, rng) == all(
            (key, b) in model.bytes for b in range(rng.start, rng.end)
        )
    assert cache.stats.hit_bytes == model.hit_bytes
    assert cache.stats.cross_hit_bytes == model.cross_hit_bytes
    assert cache.stats.evictions == model.evictions


def _shr_reference(state, start, end, threshold):
    """Algorithm 1 on plain lists; returns ``(announce, request)``."""
    announce, request = [], []
    if not state["primed"]:
        state["primed"], state["last"] = True, start
    if start > state["last"]:
        announce.append((state["last"], start))
        state["holes"].append([state["last"], start, 0])
    elif start < state["last"]:
        kept = []
        for hs, he, count in state["holes"]:
            if hs < end and start < he:  # overlap: keep the uncovered pieces
                if hs < start:
                    kept.append([hs, start, count])
                if end < he:
                    kept.append([end, he, count])
            else:
                kept.append([hs, he, count])
        state["holes"] = kept
    still_open = []
    for hole in state["holes"]:
        if start > hole[1]:
            hole[2] += 1
            if hole[2] > threshold:
                request.append((hole[0], hole[1]))
                continue
        still_open.append(hole)
    state["holes"] = still_open
    state["last"] = max(state["last"], end)
    return announce, request


# Mostly in-order and late duplicates (the fast return), some gaps.
_shr_steps = st.one_of(
    st.tuples(st.just("next"), st.just(0)),
    st.tuples(st.just("next"), st.just(0)),
    st.tuples(st.just("late"), st.integers(1, 8)),
    st.tuples(st.just("skip"), st.integers(1, 3)),
)


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 5), steps=st.lists(_shr_steps, max_size=60))
def test_shr_detector_matches_algorithm_1_transcription(first, steps):
    from repro.core.shr import SeqHoleDetector

    mss = 100
    shr = SeqHoleDetector(disorder_threshold=3)
    ref = {"primed": False, "last": 0, "holes": []}
    chunk = first
    for kind, n in steps:
        if kind == "late":
            idx = max(first, chunk - n)
        else:
            chunk += n
            idx = chunk
            chunk += 1
        actions = shr.on_packet(ByteRange(idx * mss, (idx + 1) * mss))
        announce, request = _shr_reference(ref, idx * mss, (idx + 1) * mss, 3)
        assert _as_pairs(actions.announce) == announce
        assert _as_pairs(actions.request) == request
        assert shr.last_byte == ref["last"]
        assert _as_pairs(shr.open_holes) == [(s, e) for s, e, _ in ref["holes"]]


# ----------------------------------------------------------------------
# The resend guard against a dict reference
# ----------------------------------------------------------------------


class _DictGuard:
    """Reference resend guard: one dict from ``(start, end)`` to the time
    the range last left, cleared when a record finds it at the cap, and
    looked up by a scan over every entry: the candidate is the departure
    with the last start at or before the range's (the longest of equal
    starts), and it decides if it reaches the range's end."""

    MAX_ENTRIES = 8

    def __init__(self, sim):
        self.sim, self.sent = sim, {}

    def record(self, rng):
        if len(self.sent) >= self.MAX_ENTRIES:
            self.sent.clear()
        self.sent[rng.start, rng.end] = self.sim.now

    def suppressed(self, rng, window_s):
        before = [k for k in self.sent if k[0] <= rng.start]
        if not before or max(before)[1] < rng.end:
            return False
        return self.sim.now - self.sent[max(before)] < window_s


_guard_ranges = st.tuples(st.integers(0, 12), st.integers(1, 3))
_guard_ops = st.one_of(
    st.tuples(st.just("record"), _guard_ranges),
    st.tuples(st.just("suppressed"), _guard_ranges, st.sampled_from([0.1, 0.5])),
    st.tuples(st.just("advance"), st.sampled_from([0.01, 0.2, 3.0])),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_guard_ops, max_size=80))
@example(  # at the cap, an existing key is recorded again: the guard clears
    # and only then takes the key, so it is kept
    ops=[("record", (i, 1)) for i in range(8)]
    + [("record", (0, 1)), ("suppressed", (0, 1), 0.1),
       ("suppressed", (1, 1), 0.1)],
)
@example(  # a piece matches the departure it was cut from, not a neighbour
    ops=[("record", (2, 3)), ("record", (5, 1)),
         ("suppressed", (2, 1), 0.1), ("suppressed", (4, 1), 0.1),
         ("suppressed", (4, 2), 0.1), ("suppressed", (1, 2), 0.1)],
)
def test_resend_guard_matches_dict_reference(ops):
    """Differential: the sorted-array guard against the dict reference,
    with the cap at 8 so that clears fire — every suppression decision,
    and the remembered ranges and times, match."""
    from repro.core.paced import ResendSuppressor

    class SmallGuard(ResendSuppressor):
        MAX_ENTRIES = 8

    sim = SimpleNamespace(now=0.0)
    guard, model = SmallGuard(sim), _DictGuard(sim)
    for op in ops:
        if op[0] == "advance":
            sim.now += op[1]
            continue
        start, length = op[1]
        rng = ByteRange(start * 100, (start + length) * 100)
        if op[0] == "record":
            guard.record(rng)
            model.record(rng)
        else:
            assert guard.suppressed(rng, op[2]) == model.suppressed(rng, op[2])
        keys = sorted(model.sent)
        assert list(guard._keys) == [s << 32 | e for s, e in keys]
        assert list(guard._times) == [model.sent[k] for k in keys]


# ----------------------------------------------------------------------
# The cache budget split: apportion against its closed form, and a
# SharedCachePool against the standalone caches it claims to be.
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(0, 1 << 26),
    weights=st.lists(st.integers(0, 50), min_size=1, max_size=8),
)
def test_apportion_is_largest_remainder(total, weights):
    from repro.common.apportion import apportion

    shares = apportion(total, weights)
    quota = weights if any(weights) else [1] * len(weights)
    wsum = sum(quota)
    assert sum(shares) == total
    for share, w in zip(shares, quota):
        # Within one of the exact quota total * w / wsum, in integers.
        assert abs(share * wsum - total * w) < wsum
    for i, wi in enumerate(quota):
        for j in range(i + 1, len(quota)):
            if wi == quota[j]:
                # Equal weights: at most one apart, the extra unit first.
                assert shares[i] - shares[j] in (0, 1)
            else:
                # A larger weight never gets a smaller share.
                assert (shares[i] - shares[j]) * (wi - quota[j]) >= 0


def test_apportion_pinned_cases():
    from repro.common.apportion import apportion
    from repro.content import placement_weights

    # Six exact 8/12 remainder ties for four spare bytes: index order.
    assert apportion(854636, [4, 1, 1, 1, 1, 4]) == [
        284879, 71220, 71220, 71220, 71219, 284878,
    ]
    # content_study's shares: 2 MiB over five Midnodes.
    assert [
        apportion(2 << 20, list(placement_weights(p, 5)))
        for p in ("uniform", "gateway", "hot_orbit")
    ] == [
        [419431, 419431, 419430, 419430, 419430],
        [762601, 190650, 190650, 190650, 762601],
        [262144, 262144, 1048576, 262144, 262144],
    ]


_member = st.integers(0, 5)
_pool_ops = st.one_of(
    st.tuples(st.just("store"), _member, _keys, _cache_ranges,
              st.integers(0, 50), _flows),
    st.tuples(st.just("store"), _member, _keys, _cache_ranges,
              st.integers(0, 50), _flows),
    st.tuples(st.just("lookup"), _member, _keys, _cache_ranges, _flows),
    st.tuples(st.just("drop_flow"), _member, _keys),
)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    capacity=st.integers(100, 1500),
    eviction=st.sampled_from(["lru", "lfu"]),
    ops=st.lists(_pool_ops, max_size=50),
)
def test_shared_cache_pool_members_are_standalone_caches(
    weights, capacity, eviction, ops
):
    """Differential: the pool adds nothing to its members but the total."""
    from repro.common.apportion import apportion
    from repro.workload import MemoryBudget, SharedCachePool

    budget = MemoryBudget(1 << 20)
    pool = SharedCachePool(
        capacity, weights, block_bytes=64, budget=budget, eviction=eviction
    )
    twins = [
        BlockCache(share, 64, eviction)
        for share in apportion(capacity, weights)
    ]
    for op in ops:
        kind = op[0]
        i = op[1] % len(weights)
        member, twin = pool.members[i], twins[i]
        if kind == "store":
            _, _, key, (start, length), ts, flow = op
            rng = ByteRange(start, start + length)
            member.store(key, rng, float(ts), writer=flow)
            twin.store(key, rng, float(ts), writer=flow)
        elif kind == "lookup":
            _, _, key, (start, length), flow = op
            rng = ByteRange(start, start + length)
            assert member.lookup(key, rng, requester=flow) == twin.lookup(
                key, rng, requester=flow
            )
        else:
            # What a scan of every block finds under the key is what
            # the per-key span must free, leaving the others in order.
            held = sum(
                end - start
                for (key, _), _, runs, _ in _cache_snapshot(member)
                if key == op[2]
                for start, end in runs
            )
            kept = [s for s in _cache_snapshot(member) if s[0][0] != op[2]]
            assert member.drop_flow(op[2]) == twin.drop_flow(op[2]) == held
            assert _cache_snapshot(member) == kept
        for member, twin in zip(pool.members, twins):
            assert member.capacity_bytes == twin.capacity_bytes
            _check_slab(member)
            assert _cache_snapshot(member) == _cache_snapshot(twin)
            assert member.stats == twin.stats
        assert sum(m.capacity_bytes for m in pool.members) == pool.capacity_bytes
        assert pool.stored_bytes == sum(m.stored_bytes for m in pool.members)
        assert pool.stored_bytes <= pool.capacity_bytes
        assert budget.account("cache") == pool.stored_bytes
    assert pool.evictions == sum(t.stats.evictions for t in twins)


# ----------------------------------------------------------------------
# Consumer: the aligned Interest walk is the window scan
# ----------------------------------------------------------------------

_MSS = 100


@settings(max_examples=200, deadline=None)
@given(
    total=st.one_of(st.none(), st.integers(1, 40 * _MSS)),
    n_sent=st.integers(0, 40),
    satisfied=st.sets(st.integers(0, 39)),
    query=st.tuples(st.integers(0, 42 * _MSS), st.integers(1, 5 * _MSS)),
)
def test_consumer_aligned_walk_visits_what_the_window_scan_visits(
    total, n_sent, satisfied, query
):
    """For any window ``_fill_window`` can have built (MSS chunks from 0,
    the last one cut at ``total_bytes``, any subset already satisfied)
    and any range, ``_overlapping`` returns exactly the states a scan of
    the whole window finds, in the scan's (insertion) order."""
    from repro.core import Consumer, LeotpConfig
    from repro.core.consumer import _InterestState

    consumer = Consumer(
        Simulator(), "c", "f", LeotpConfig(mss=_MSS), total_bytes=total
    )
    for k in range(n_sent):
        start = k * _MSS
        end = start + _MSS if total is None else min(start + _MSS, total)
        if start < end and k not in satisfied:
            consumer._outstanding[start] = _InterestState(
                ByteRange(start, end), 0.0, 1.0
            )
    rng = ByteRange(query[0], query[0] + query[1])
    scan = [
        state for state in consumer._outstanding.values()
        if state.rng.overlaps(rng)
    ]
    walk = consumer._overlapping(rng)
    assert len(walk) == len(scan)
    assert all(a is b for a, b in zip(walk, scan))



# ----------------------------------------------------------------------
# The pacing decision, the hop control law and the link
# ----------------------------------------------------------------------
#
# References written here from the definitions: a bucket level in exact
# rationals, equations (9)-(10) of the paper, the Lindley recursion of a
# FIFO server with a finite byte buffer, and scalar draws from a twin of
# the link's generator.

# Dyadic inputs (power-of-two rates in a narrow band, sleeps on a 2**-12 s
# grid, integer sizes) keep every float operation of the bucket exact, so
# the model in Fractions must agree to the last bit and "sleep exactly
# the wait" is a statement about the bucket, not about rounding.
_TICK = Fraction(1, 4096)
_rate_log2 = st.integers(14, 16)


@settings(max_examples=200, deadline=None)
@given(
    rate_log2=_rate_log2,
    burst=st.integers(1_000, 6_000),
    steps=st.lists(
        st.tuples(
            st.integers(0, 400),               # sleep first, in ticks
            st.one_of(st.none(), _rate_log2),  # then maybe retune
            st.integers(1, 7_000),             # then ask for this many bytes
        ),
        max_size=20,
    ),
)
def test_token_bucket_take_matches_closed_form_model(rate_log2, burst, steps):
    """``take`` grants iff ``min(burst, level + rate * elapsed)`` covers the
    request; a refusal leaves the level untouched and returns the wait
    that, slept exactly, makes the same request succeed."""
    sim = Simulator()
    bucket = TokenBucket(sim, float(2 ** rate_log2), burst_bytes=float(burst))
    rate, level, last = Fraction(2 ** rate_log2), Fraction(burst), Fraction(0)

    def sleep(seconds):
        nonlocal level, last
        sim.run(until=sim.now + seconds)
        now = Fraction(sim.now)
        level, last = min(Fraction(burst), level + rate * (now - last)), now

    for ticks, retune, nbytes in steps:
        sleep(float(ticks * _TICK))
        if retune is not None:  # what accrued so far did so at the old rate
            rate = Fraction(2 ** retune)
            bucket.set_rate(float(rate))
        assert bucket.tokens_available == level
        wait = bucket.take(nbytes)
        if level >= nbytes:
            assert wait == 0.0
            level -= nbytes
        else:
            assert wait == (nbytes - level) / rate
            assert bucket.tokens_available == level  # nothing was spent
            if nbytes <= burst:  # (a larger request no sleep can cover)
                sleep(wait)
                assert level == nbytes
                assert bucket.take(nbytes) == 0.0
                level = Fraction(0)
        assert bucket.tokens_available == level


@settings(max_examples=200, deadline=None)
@given(
    cwnd=st.floats(1.0, 1e8),
    hoprtt=st.one_of(st.none(), st.floats(1e-4, 2.0)),
    next_hop=st.one_of(st.none(), st.floats(1e3, 1e9)),
    backlog=st.one_of(st.none(), st.integers(0, 8 << 20)),
)
def test_hop_controller_rate_is_equations_9_and_10(cwnd, hoprtt, next_hop, backlog):
    """``sending_rate_bytes_s`` is ``max(min(cwnd/hopRTT, rate_bp), min_rate)``
    with ``rate_bp = rate_nextHop + gain * (BL_tar - BL) / hopRTT`` — and no
    backpressure term at an endpoint (no sender) or before the first
    downstream Interest (no next-hop rate)."""
    from repro.core import HopRateController, LeotpConfig

    cfg = LeotpConfig()
    sender = None if backlog is None else SimpleNamespace(backlog_bytes=backlog)
    cc = HopRateController(Simulator(), cfg, sender=sender)
    cc.cwnd_bytes, cc.hoprtt_s, cc.next_hop_rate_bytes_s = cwnd, hoprtt, next_hop
    rtt = cfg.initial_hoprtt_s if hoprtt is None else hoprtt
    rate = cwnd / rtt
    if sender is None or next_hop is None:
        assert cc.backpressure_rate() is None
    else:
        rate_bp = (
            next_hop
            + cfg.backpressure_gain * (cfg.buffer_target_bytes - backlog) / rtt
        )
        assert cc.backpressure_rate() == pytest.approx(rate_bp, rel=1e-12)
        rate = min(rate, rate_bp)
    assert cc.sending_rate_bytes_s() == pytest.approx(
        max(rate, cfg.min_rate_bytes_s), rel=1e-12
    )
    # The rate evaluates eq. (9) in its own frame: bit-equal to eq. (10)
    # over the reference ``backpressure_rate``.
    bp = cc.backpressure_rate()
    assert cc.sending_rate_bytes_s() == max(
        cfg.min_rate_bytes_s, cwnd / rtt if bp is None else min(cwnd / rtt, bp)
    )


_RATE_BPS = 8e6
_DELAY_S = 0.004


def _lindley(arrivals, queue_bytes):
    """FIFO single server with a finite byte buffer, by recursion.

    ``arrivals`` is ``[(time, size)]`` in time order.  Returns, per
    packet, ``None`` (tail-dropped) or its departure time, plus the
    buffer's high-water mark and the summed service time.  An arrival
    that coincides with a departure finds that packet still in service
    (arrivals were scheduled first, so the kernel runs them first).
    """
    departures, in_system = [], []  # in_system: (finish, size), head in service
    high_water, busy = 0, 0.0
    for t, size in arrivals:
        in_system = [p for p in in_system if p[0] >= t]
        service = size * 8.0 / _RATE_BPS
        start = t
        if in_system:
            waiting = sum(s for _, s in in_system[1:])
            if queue_bytes is not None and waiting + size > queue_bytes:
                departures.append(None)
                continue
            high_water = max(high_water, waiting + size)
            start = in_system[-1][0]
        busy += service
        in_system.append((start + service, size))
        departures.append(start + service)
    return departures, high_water, busy


@settings(max_examples=150, deadline=None)
@given(
    script=st.lists(
        st.tuples(st.sampled_from([0.0, 2e-4, 5e-4, 1e-3, 1.5e-3, 4e-3]),
                  st.sampled_from([64, 500, 1000, 1500])),
        min_size=1, max_size=60,
    ),
    queue_bytes=st.sampled_from([None, 1500, 3000, 6000]),
    plr=st.sampled_from([0.0, 0.3]),
)
def test_drop_tail_link_matches_lindley_reference(script, queue_bytes, plr):
    """Acceptance, departure and delivery times, queue drops, busy time and
    the queue's high-water mark of a drop-tail link on scripted arrivals;
    with ``plr > 0`` the survivors are the twin generator's."""
    sim = Simulator()
    sink = SinkNode(sim)
    link = Link(sim, sink, rate_bps=_RATE_BPS, delay_s=_DELAY_S, plr=plr,
                queue_bytes=queue_bytes, rng=np.random.default_rng(7))
    arrivals, packets, accepted, t = [], [], [], 0.0
    for gap, size in script:
        t += gap
        arrivals.append((t, size))
        packets.append(Packet(size))
        sim.schedule_at(t, lambda p=packets[-1]: accepted.append(link.send(p)))
    sim.run()
    departures, high_water, busy = _lindley(arrivals, queue_bytes)
    assert accepted == [d is not None for d in departures]
    twin = np.random.default_rng(7)
    expected = [
        (pkt.uid, dep + _DELAY_S)
        for pkt, dep in zip(packets, departures)
        if dep is not None and not (plr > 0 and twin.random() < plr)
    ]
    # Equal floats, not approximately: the same sums in the same order.
    assert list(zip((p.uid for p in sink.received), sink.receive_times)) == expected
    stats = link.stats
    assert stats.packets_dropped_queue == departures.count(None)
    assert stats.packets_dropped_loss == sum(accepted) - len(expected)
    assert stats.max_queue_bytes == high_water
    assert stats.busy_time_s == busy


class _DropEveryNth:
    """A ``loss_model`` that drops every ``n``-th packet it is shown."""

    def __init__(self, n):
        self.n, self.seen = n, 0

    def __call__(self, packet):
        self.seen += 1
        return self.seen % self.n == 0


_loss_ops = st.one_of(
    st.tuples(st.just("retune"), st.sampled_from([0.0, 0.05, 0.4])),
    # Re-install the generator in use, or a fresh one.  (Going *back* to
    # a generator the link left is not stream-exact — its unread draws
    # were discarded — and no caller does: DESIGN.md "Performance model".)
    st.tuples(st.just("set_rng"), st.sampled_from(["same", "fresh"])),
    st.tuples(st.just("model"), st.sampled_from([0, 3, 7])),  # 0 detaches
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), _loss_ops), min_size=1, max_size=8))
@example([
    (200, ("set_rng", "same")), (300, ("retune", 0.05)),
    (50, ("model", 3)), (100, ("set_rng", "fresh")),
    (10, ("model", 0)), (40, ("retune", 0.4)), (300, ("retune", 0.0)),
])
def test_link_loss_pattern_is_the_scalar_draws_of_a_twin_generator(segments):
    """Block-buffered loss draws are stream-exact: the serialised packets
    a lossy link drops are those with ``twin.random() < plr`` drawn one
    at a time — across a retune, a re-installed and a fresh generator,
    and a ``loss_model`` that drops some packets first (no draw for
    those)."""

    def generator_and_twin(k):
        return np.random.default_rng([11, k]), np.random.default_rng([11, k])

    n_gens = 1
    gen, twin = generator_and_twin(0)
    sim = Simulator()
    sink = SinkNode(sim)
    link = Link(sim, sink, rate_bps=_RATE_BPS, delay_s=0.0, plr=0.2,
                queue_bytes=None, rng=gen)
    plr, model_n, shown = 0.2, 0, 0
    uids, expected_lost = [], []
    for n_packets, (op, arg) in segments:
        for _ in range(n_packets):
            packet = Packet(100)
            uids.append(packet.uid)
            link.send(packet)
            shown += 1
            if model_n and shown % model_n == 0:
                expected_lost.append(packet.uid)  # before any draw
            elif plr > 0 and twin.random() < plr:
                expected_lost.append(packet.uid)
        sim.run()
        if op == "retune":
            plr = arg
            link.set_loss(plr)
        elif op == "set_rng":
            if arg == "fresh":
                gen, twin = generator_and_twin(n_gens)
                n_gens += 1
            link.set_loss(plr, rng=gen)
        else:
            model_n, shown = arg, 0
            link.loss_model = _DropEveryNth(arg) if arg else None
    delivered = {p.uid for p in sink.received}
    assert [uid for uid in uids if uid not in delivered] == expected_lost
