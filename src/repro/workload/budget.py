"""Per-run memory budgeting: accounted ledgers and shared cache pools.

A single LEOTP flow owns its Midnode caches outright, but a pool of
hundreds of flows multiplexed over one chain must share them.  This
module provides the two pieces the :class:`~repro.workload.pool.FlowPool`
uses to keep a whole run under one configured byte ceiling:

* :class:`MemoryBudget` — a named-account ledger (``cache``, ``flows``,
  ...) with peak tracking and breach counting, so experiments can
  *assert* that a run stayed within budget instead of hoping;
* :class:`SharedCachePool` — one byte budget split across
  :class:`PooledBlockCache` members (one per Midnode) by placement
  weights (:func:`repro.content.placement.placement_weights`:
  gateway-heavy, uniform, or hot-orbit).  Each member is a plain
  :class:`~repro.core.cache.BlockCache` evicting against its own share
  (LRU or LFU); the shares sum to the budget exactly, so the combined
  occupancy can never exceed it and nothing arbitrates between members.
  The pool itself only keeps the running total that feeds the ledger.

The ledger models *protocol* memory — cached payload and per-flow soft
state — not Python object overhead; it corresponds to the RAM a real
Midnode deployment would provision.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.apportion import apportion
from repro.core.cache import BlockCache


class MemoryBudget:
    """Named-account byte ledger with a hard ceiling.

    Accounts are set absolutely (:meth:`set_account`) or adjusted
    incrementally (:meth:`charge`).  ``peak_bytes`` records the high-water
    total; ``breaches`` counts excursions above the ceiling, once each
    however often the ledger is written while over (a correctly enforced
    pool never breaches).
    """

    def __init__(self, ceiling_bytes: int) -> None:
        if ceiling_bytes <= 0:
            raise ValueError("ceiling must be positive")
        self.ceiling_bytes = ceiling_bytes
        self._accounts: dict[str, int] = {}
        self._total = 0
        self.peak_bytes = 0
        self.breaches = 0

    @property
    def total_bytes(self) -> int:
        return self._total

    def account(self, name: str) -> int:
        return self._accounts.get(name, 0)

    def set_account(self, name: str, nbytes: int) -> None:
        """Set an account to an absolute value."""
        if nbytes < 0:
            raise ValueError(f"account {name!r} cannot go negative")
        was_over = self._total > self.ceiling_bytes
        self._total += nbytes - self._accounts.get(name, 0)
        self._accounts[name] = nbytes
        if self._total > self.peak_bytes:
            self.peak_bytes = self._total
        if self._total > self.ceiling_bytes and not was_over:
            self.breaches += 1

    def charge(self, name: str, delta: int) -> None:
        """Adjust an account by a (possibly negative) delta."""
        self.set_account(name, self._accounts.get(name, 0) + delta)


class PooledBlockCache(BlockCache):
    """A :class:`BlockCache` that reports occupancy changes to its pool.

    Its capacity is the member's share of the pool budget; it evicts
    against that share on its own, exactly like a standalone cache.
    """

    def __init__(self, pool: "SharedCachePool", capacity_bytes: int) -> None:
        super().__init__(
            capacity_bytes, pool.block_bytes, eviction=pool.eviction
        )
        self._pool = pool
        self._reported_bytes = 0

    def _sync_pool_total(self) -> None:
        """Push this member's occupancy delta into the pool's running total.

        Keeping the pool total incremental (instead of re-summing every
        member on every store) is a measured hot-path win in many-flow
        runs; the delta form stays correct however the underlying
        :class:`BlockCache` moved (store, internal eviction, drop).
        """
        current = self._stored_bytes
        delta = current - self._reported_bytes
        if delta:
            self._pool._stored_total += delta
            self._reported_bytes = current

    def store(self, key, rng, origin_ts, writer=None) -> None:
        super().store(key, rng, origin_ts, writer)
        self._sync_pool_total()
        self._pool._post_ledger()

    def drop_flow(self, key: str) -> int:
        freed = super().drop_flow(key)
        if freed:
            self._sync_pool_total()
            self._pool._post_ledger()
        return freed

    def clear(self) -> None:
        """Empty the member in place (its Midnode crashed): the bytes it
        held leave the pool total and the ledger, and it stays the pool's
        member, so what it stores next is counted."""
        super().clear()
        self._sync_pool_total()
        self._pool._post_ledger()


class SharedCachePool:
    """One byte budget split across per-node block caches by ``weights``.

    Member ``i`` gets the largest-remainder share of ``capacity_bytes``
    for ``weights[i]`` (integers; the shares sum to the capacity byte for
    byte) and enforces it itself.  ``members`` is in weight order — the
    chain's Midnodes, producer side first.
    """

    def __init__(
        self,
        capacity_bytes: int,
        weights: Sequence[int],
        block_bytes: int = 4096,
        budget: Optional[MemoryBudget] = None,
        account: str = "cache",
        eviction: str = "lru",
    ) -> None:
        if capacity_bytes <= 0 or block_bytes <= 0:
            raise ValueError("capacity and block size must be positive")
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be non-empty and positive")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.budget = budget
        self.account = account
        self.eviction = eviction
        self._stored_total = 0  # incrementally maintained by members
        self.members = [
            PooledBlockCache(self, share)
            for share in apportion(capacity_bytes, list(weights))
        ]

    @property
    def stored_bytes(self) -> int:
        return self._stored_total

    @property
    def evictions(self) -> int:
        """Blocks evicted so far, whichever member's share caused it."""
        return sum(m.stats.evictions for m in self.members)

    def _post_ledger(self) -> None:
        if self.budget is not None:
            self.budget.set_account(self.account, self._stored_total)
