"""Bounded LRU caches with hit/miss counters.

Serving keeps two per-shard caches: one over *embedding rows* fetched
from other shards (a hit saves the cross-shard feature transfer) and
one over *neighbor lists* fetched from the graph store for top-k
exclusion (a hit saves a structure round-trip).  Both only need
membership plus recency — the numeric payload lives in the artifact's
embedding table — so the cache tracks keys, not values.

Everything is deterministic: eviction is strict LRU over the exact
lookup order, so the same request stream always produces the same
hit/miss sequence (and therefore the same simulated byte charges) on
every execution backend.  A duplicate-free key array (a top-k
candidate sweep) is admitted in one vectorised pass that reproduces
the per-key sequence exactly (:meth:`LRUCache.admit_unique`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List

import numpy as np


#: Keys per block of :func:`_earlier_and_smaller`'s blocked count.
_BLOCK = 256


def _earlier_and_smaller(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{j < i : values[j] < values[i]}`` in O(P) memory.

    Up to :data:`_BLOCK` values compare among themselves directly.  More
    go in blocks of that size, each counting the smaller values of all
    earlier blocks with one ``searchsorted`` into their merged, sorted
    union.
    """
    if values.size <= _BLOCK:
        return np.tril(values[:, None] > values, -1).sum(axis=1)
    out = np.empty(values.size, dtype=np.int64)
    seen = np.empty(0, dtype=values.dtype)   # earlier blocks, sorted
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK]
        out[start:start + _BLOCK] = np.searchsorted(seen, block) + np.tril(
            block[:, None] > block, -1).sum(axis=1)
        block = np.sort(block)
        seen = np.insert(seen, np.searchsorted(seen, block), block)
    return out


class LRUCache:
    """A bounded LRU key set with hit/miss accounting.

    ``capacity = 0`` disables caching: every lookup misses and nothing
    is retained (useful to measure the uncached baseline).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        # Pure membership probe: no counters, no recency update.
        return int(key) in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def admit(self, keys: Iterable[int]) -> List[int]:
        """Record a lookup for every key, in order; return the misses.

        Hits refresh recency; misses are inserted (evicting the least
        recently used entries past ``capacity``) and returned so the
        caller can charge the corresponding fetches.  Duplicate keys
        within one call hit on their second occurrence — exactly the
        dedup-within-batch rule the training-side accounting uses.
        """
        missing: List[int] = []
        for key in keys:
            key = int(key)
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                continue
            self.misses += 1
            missing.append(key)
            if self.capacity:
                self._entries[key] = None
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        return missing

    def admit_unique(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`admit` for a duplicate-free key array; the misses come
        back as an array.

        A batch at least ``capacity`` long is one vectorised pass.  LRU
        inclusion property: the cache holds the ``capacity`` most
        recently looked-up distinct keys, so a lookup hits iff fewer
        than ``capacity`` distinct keys were looked up since that key's
        last lookup.  For the entry of recency rank ``r`` (0 = newest)
        at batch position ``p`` that count is ``r + p`` minus the
        entries that are both newer and earlier in the batch (counted
        twice otherwise), so only the first ``capacity`` positions can
        hit, and afterwards the cache holds exactly the batch's last
        ``capacity`` keys.  A shorter batch runs the per-key loop.
        Hits, misses and the final recency order equal the loop's.
        """
        keys = np.asarray(keys, dtype=np.int64)
        capacity = self.capacity
        if keys.size < capacity:
            return np.array(self.admit(keys.tolist()), dtype=np.int64)
        head = keys[:capacity]
        missing = keys
        if self._entries.keys() & head.tolist():
            cached = np.fromiter(self._entries, np.int64, len(self._entries))
            sorter = np.argsort(cached)
            slot = sorter[np.minimum(
                np.searchsorted(cached, head, sorter=sorter),
                cached.size - 1)]
            pos = np.flatnonzero(cached[slot] == head)
            slot = slot[pos]
            rank = cached.size - 1 - slot   # 0 = most recent
            hit = np.zeros(keys.size, dtype=bool)
            hit[pos[rank + pos - _earlier_and_smaller(rank) < capacity]] = True
            missing = keys[~hit]
        self.hits += keys.size - missing.size
        self.misses += missing.size
        self._entries = OrderedDict.fromkeys(
            keys[keys.size - capacity:].tolist())
        return missing

    def counters(self) -> dict:
        """Snapshot of the hit/miss counters (plain dict)."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._entries)}
