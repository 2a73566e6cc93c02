"""One residency core for every cache tier in the simulator.

BaM's GPU software cache and Ginex's host page cache — the two caches
the paper measures CAM against — keep resident data in recency order
under a fixed capacity.  Every tier here does the same:

* :class:`~repro.backends.cache.CachedBackend` — host DRAM pages;
* :class:`~repro.cache.gpucache.GpuCache` — GPU DRAM cache lines;
* :class:`~repro.net.tiered.TieredBackend` — local flash pages over a
  remote tier, with dirty pages pinned until the remote tier acks them;
* :class:`~repro.serving.kvstore.KvBlockStore` — KV blocks, with the
  blocks of in-flight decodes pinned and, under windowed attention,
  dead blocks evicted first.

:class:`Residency` owns the recency order, the capacity check, the
victim choice and the overflow count for all of them.  What differs per
owner is passed in: a ``pinned`` container of keys that must stay and a
``dead(key)`` predicate for keys that no reader needs any more.

The module also holds the page geometry the byte-addressed tiers share:
the pages a request touches (:func:`page_span`) and the contiguous fetch
window covering its missing pages (:func:`miss_window`).

Nothing here touches the event heap, so a tier whose residency is only
observed replays bit-identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Container, Hashable, Iterator, List, Optional

from repro.errors import ConfigurationError


class Residency:
    """Resident keys in recency order under a capacity.

    :meth:`touch` admits a key as most recently used and evicts over
    capacity.  The victim is the least recently used *dead* key when a
    ``dead`` predicate is given, else the least recently used key, and
    never a key in ``pinned``.  When every candidate is pinned the set
    runs over capacity instead of deadlocking its owner, and
    :attr:`overflows` counts each such admission.
    """

    __slots__ = ("capacity", "pinned", "dead", "overflows", "_order")

    def __init__(
        self,
        capacity: int,
        pinned: Container = (),
        dead: Optional[Callable[[Hashable], bool]] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("residency capacity must be >= 1")
        self.capacity = capacity
        #: keys that are never victims; the owner updates it in place
        self.pinned = pinned
        self.dead = dead
        self.overflows = 0
        #: key -> None, end = most recently used
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator:
        """Resident keys, least recently used first."""
        return iter(self._order)

    def refresh(self, key) -> None:
        """Mark a resident key most recently used."""
        self._order.move_to_end(key)

    def touch(self, key) -> List:
        """Admit ``key`` (or refresh it); return the evicted keys."""
        order = self._order
        order[key] = None
        order.move_to_end(key)
        evicted = []
        while len(order) > self.capacity:
            victim = self.victim()
            if victim is None:
                self.overflows += 1
                break
            del order[victim]
            evicted.append(victim)
        return evicted

    def victim(self):
        """The key :meth:`touch` would evict next; ``None`` when every
        resident key is pinned."""
        pinned = self.pinned
        dead = self.dead
        fallback = None
        for key in self._order:
            if key in pinned:
                continue
            if dead is None or dead(key):
                return key
            if fallback is None:
                fallback = key
        return fallback


def page_span(lba: int, nbytes: int, block: int, page_bytes: int) -> range:
    """The pages of ``page_bytes`` a request of ``nbytes`` at ``lba``
    touches (a zero-byte request still touches its first page)."""
    start = lba * block
    return range(
        start // page_bytes,
        (start + max(1, nbytes) - 1) // page_bytes + 1,
    )


def miss_window(
    lba: int, nbytes: int, block: int, page_bytes: int,
    first: int, last: int,
):
    """The contiguous fetch window covering missing pages ``first`` to
    ``last``, clipped to the request, so resident pages at the edges are
    never refetched.

    Returns ``(window_lba, offset, window_nbytes)``; ``offset`` is the
    window start in bytes from the request start.
    """
    start = lba * block
    window_lba = max(start, first * page_bytes) // block
    window_start = window_lba * block
    window_end = min(start + nbytes, (last + 1) * page_bytes)
    return window_lba, window_start - start, window_end - window_start
