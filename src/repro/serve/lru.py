"""Bounded in-memory LRU for the serving tier.

The pipeline's own stage caches are *unbounded* dictionaries — correct for
a batch run over a known corpus, wrong for a server that must survive
unbounded distinct traffic.  :class:`LRUCache` is the serving tier's
memory bound: a fixed number of fully rendered response payloads, evicting
least-recently-served entries.  Anything evicted is still one disk-cache
(or stage-cache) probe away, so eviction costs latency, never correctness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from ..counters import Counters


@dataclass
class LRUStats(Counters):
    """Counters for one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LRUCache:
    """A fixed-capacity mapping with least-recently-used eviction.

    ``max_entries <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — useful for measuring a truly cold server.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.stats = LRUStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshed to most-recent), else ``default``."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the oldest entry when full."""
        if self.max_entries <= 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
