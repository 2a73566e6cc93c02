"""GPU-memory cache tier with readahead prefetching (see
docs/CACHING.md).

* :class:`GpuCache` — fixed-size cache lines in GPU DRAM, plan/commit
  access protocol, per-consumer readahead, ``cam_gpucache_*`` metrics;
* :class:`GpuCachedBackend` — the tier as a drop-in
  :class:`~repro.backends.base.StorageBackend` wrapper;
* :mod:`repro.cache.residency` — the LRU residency core every cache
  tier shares (pins, dead-key victims, overflow) and its page geometry;
* :mod:`repro.cache.readahead` — the stride detector + accuracy loop.
"""

from repro.cache.backend import GpuCacheCompletion, GpuCachedBackend
from repro.cache.gpucache import CachePlan, GpuCache
from repro.cache.readahead import ReadaheadConfig, ReadaheadStream
from repro.cache.residency import Residency

__all__ = [
    "CachePlan",
    "GpuCache",
    "GpuCacheCompletion",
    "GpuCachedBackend",
    "ReadaheadConfig",
    "ReadaheadStream",
    "Residency",
]
