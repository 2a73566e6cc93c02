"""Tiered flash: local NVMe as a write-back cache over remote capacity.

:class:`TieredBackend` is the partition-tolerance capstone: the local
array (any :class:`~repro.backends.base.StorageBackend`) caches a
disaggregated :class:`~repro.net.remote.RemoteFlashBackend` that holds
the full dataset.  In steady state reads hit the local tier and misses
are fetched from remote and admitted; writes land locally first
(write-back) and a **dirty log** records which pages still owe a flush
to the remote tier.

When the fabric fails (any :class:`~repro.errors.NetworkError` out of
the remote backend) the tier downgrades to **local-only degraded mode**:

* resident reads keep being served from the local array;
* non-resident reads fail fast with a typed
  :class:`~repro.errors.RemoteUnavailableError` (never a hang);
* writes are accepted locally and queued in the dirty log;
* dirty pages are pinned — the LRU never evicts a page the remote tier
  has not acked, preferring cache overflow to data loss
  (``stats()["overflow_admissions"]`` counts each admission that ran
  over capacity).

Heal detection is lazy and rate-limited: at most once per
``probe_interval`` a degraded operation pings the fabric
(:meth:`RemoteFlashBackend.probe`); on answer the tier **resyncs** —
drains the dirty log by reading each page from the local array and
replicating it out — and only leaves degraded mode once the log is
empty.  A partition that re-opens mid-resync simply drops the tier back
to degraded with the remaining pages still queued.

No background processes: every state transition happens inside a
caller's operation, so an idle tier costs zero events and replays
deterministically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.backends.base import StorageBackend
from repro.cache.residency import Residency, miss_window, page_span
from repro.errors import (
    ConfigurationError,
    NetworkError,
    RemoteUnavailableError,
)
from repro.net.remote import RemoteFlashBackend
from repro.sim.stats import Counter


class TieredBackend(StorageBackend):
    """Local write-back cache tier over a remote flash backend."""

    accepts_trace_ctx = True

    def __init__(
        self,
        local: StorageBackend,
        remote: RemoteFlashBackend,
        capacity_bytes: int,
        page_blocks: int = 8,
        flush_watermark: int = 64,
        flush_burst: int = 8,
        probe_interval: float = 200e-6,
    ):
        if page_blocks < 1:
            raise ConfigurationError("page_blocks must be >= 1")
        super().__init__(local.platform, reliability=local.reliability)
        self.local = local
        self.remote = remote
        self.model_name = local.model_name
        self._block = block = self.platform.config.ssd.block_size
        self.page_bytes = page_blocks * block
        self.page_blocks = page_blocks
        if capacity_bytes < self.page_bytes:
            raise ConfigurationError("tier must hold at least one page")
        self.capacity_pages = capacity_bytes // self.page_bytes
        if flush_watermark < 1:
            raise ConfigurationError("flush_watermark must be >= 1")
        self.flush_watermark = flush_watermark
        if flush_burst < 1:
            raise ConfigurationError("flush_burst must be >= 1")
        #: pages written back per watermark trigger.  A full drain
        #: inside one write op would stall that caller for the whole
        #: backlog; a small burst amortises the write-back across the
        #: writes that keep the log above the watermark.
        self.flush_burst = flush_burst
        if probe_interval <= 0:
            raise ConfigurationError("probe_interval must be positive")
        self.probe_interval = probe_interval
        #: page -> write generation for pages the remote tier has not
        #: acked yet (insertion = age order, which is the resync drain
        #: order); pinned in the LRU.  The generation lets a flush
        #: detect a write that re-dirtied the page while the flush's
        #: remote ack was in flight — popping the flag then would lose
        #: the newer write.
        self._dirty: "OrderedDict[int, int]" = OrderedDict()
        self._resident = Residency(self.capacity_pages, pinned=self._dirty)
        self._write_gen = 0
        self.degraded = False
        self._last_probe = -float("inf")
        #: per-page operation locks (the range-lock a real tiering
        #: engine keeps), in two modes.  *Exclusive* (fetches, flushes)
        #: so a slow remote fetch can never admit stale bytes over a
        #: write that landed while it was in flight.  *Shared* (writes
        #: to fully-covered pages): overlapping writes may interleave —
        #: block-device semantics, and the dirty-log generation guard
        #: keeps flushes correct — but they exclude fetches, which is
        #: the pairing the stale-admission race needs.  Hot-page write
        #: traffic therefore never convoys.  Uncontended
        #: acquire/release never yields, so a workload without page
        #: conflicts runs event-for-event identically.
        self._locked: set = set()
        self._writers: dict = {}
        self._waiters: dict = {}
        self.hits = Counter(self.env)
        self.misses = Counter(self.env)
        self.evictions = Counter(self.env)
        self.degraded_misses = Counter(self.env)
        self.queued_writes = Counter(self.env)
        self.flushed_pages = Counter(self.env)
        self.partitions_detected = Counter(self.env)
        self.resyncs = Counter(self.env)
        self._instruments = None

    @property
    def name(self) -> str:
        return f"{self.local.name}+remote-tier"

    # -- page bookkeeping ------------------------------------------------
    def _page_lba(self, page: int) -> int:
        return page * self.page_blocks

    def _touch(self, pages) -> None:
        """Admit ``pages`` as most recently used.  Dirty pages are
        pinned, so when every resident page is dirty the tier runs over
        capacity rather than dropping unflushed data."""
        for page in pages:
            evicted = self._resident.touch(page)
            if evicted:
                self.evictions.add(len(evicted))

    def dirty_pages(self) -> int:
        return len(self._dirty)

    # -- per-page op locks ------------------------------------------------
    def _acquire(self, pages, shared=()) -> Generator:
        """Process: lock ``pages`` in ascending order (wait-for edges
        only ever point to higher pages, so no cycles).  Pages listed
        in ``shared`` take the writer-shared mode; the rest are
        exclusive.  Free pages are taken without yielding."""
        shared = set(shared)
        for page in sorted(set(pages)):
            if page in shared:
                while page in self._locked:
                    event = self.env.event()
                    self._waiters.setdefault(page, []).append(event)
                    yield event
                self._writers[page] = self._writers.get(page, 0) + 1
            else:
                while page in self._locked or self._writers.get(page):
                    event = self.env.event()
                    self._waiters.setdefault(page, []).append(event)
                    yield event
                self._locked.add(page)
        return None

    def _release(self, pages, shared=()) -> None:
        shared = set(shared)
        for page in set(pages):
            if page in shared:
                count = self._writers.get(page, 0) - 1
                if count > 0:
                    self._writers[page] = count
                else:
                    self._writers.pop(page, None)
            else:
                self._locked.discard(page)
            for event in self._waiters.pop(page, ()):
                event.succeed()

    def _lock_missing(self, pages) -> Generator:
        """Process: exclusively lock the non-resident pages of a read,
        stable against pages being fetched — or evicted — while we
        waited.  Returns the held page list (empty when everything is
        resident, in which case nothing is held)."""
        while True:
            missing = [p for p in pages if p not in self._resident]
            if not missing:
                return []
            yield from self._acquire(missing)
            still = [p for p in pages if p not in self._resident]
            if set(still) <= set(missing):
                return missing
            self._release(missing)  # a page was evicted under us: retry

    def resident_pages(self) -> int:
        return len(self._resident)

    # -- degraded-mode transitions ---------------------------------------
    def _enter_degraded(self, error: NetworkError) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.partitions_detected.add()
        self._last_probe = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "net_degraded_enter",
                reason=type(error).__name__,
                dirty=len(self._dirty),
            )
        self._publish()

    def _exit_degraded(self) -> None:
        self.degraded = False
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("net_degraded_exit", dirty=len(self._dirty))
        self._publish()

    def _maybe_heal(self) -> Generator:
        """Process: rate-limited heal probe + resync while degraded.

        Returns ``True`` when the tier is back in normal mode."""
        if not self.degraded:
            return True
        now = self.env.now
        if now - self._last_probe < self.probe_interval:
            return False
        self._last_probe = now
        if not self.remote.reachable():
            return False
        try:
            yield from self.remote.probe()
        except NetworkError:
            return False
        # the fabric answered: drain the dirty log, then leave degraded
        self.resyncs.add()
        yield from self.flush()
        if self._dirty:
            return False  # partition re-opened mid-resync
        self._exit_degraded()
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("net_resync_done", resyncs=self.resyncs.total)
        return True

    # -- the dirty log ----------------------------------------------------
    def flush(self, max_pages: Optional[int] = None,
              trace_ctx=None) -> Generator:
        """Process: write dirty pages out to the remote tier (oldest
        first).  Never raises: a fabric failure flips the tier to
        degraded mode and leaves the remaining pages queued.  Returns
        the number of pages flushed.

        ``trace_ctx`` attributes the remote write legs to the request
        whose write tripped the watermark (it pays the flush latency).
        """
        flushed = 0
        for page in list(self._dirty):
            if max_pages is not None and flushed >= max_pages:
                break
            if page in self._locked:
                continue  # an op owns the page right now; next pass
            self._locked.add(page)
            try:
                generation = self._dirty.get(page)
                if generation is None:
                    continue  # a concurrent flush already drained it
                lba = self._page_lba(page)
                cqe = yield from self.local.io(lba, self.page_bytes)
                payload = getattr(cqe, "value", None)
                try:
                    yield from self.remote.io(
                        lba, self.page_bytes, is_write=True,
                        payload=payload, trace_ctx=trace_ctx,
                    )
                except NetworkError as error:
                    self._enter_degraded(error)
                    break
                if self._dirty.get(page) == generation:
                    # only clear if no write re-dirtied the page while
                    # the remote ack was in flight
                    del self._dirty[page]
                flushed += 1
                self.flushed_pages.add()
            finally:
                self._release((page,))
        self._publish()
        return flushed

    def sync(self) -> Generator:
        """Process: explicit full drain (plus a heal attempt when
        degraded).  Returns the number of pages still dirty."""
        if self.degraded:
            self._last_probe = -float("inf")  # sync may always probe
            yield from self._maybe_heal()
        else:
            yield from self.flush()
        return len(self._dirty)

    # -- remote span fetch (read miss / write allocate) -------------------
    def _fetch_span(
        self, missing, span_lba: int, span_nbytes: int, target,
        target_offset: int, trace_ctx=None,
    ) -> Generator:
        """Process: fetch a span from remote, admit the missing runs.

        Only the *missing* pages are written into the local array:
        pages sitting between two missing runs are already resident —
        possibly dirty with newer data — and must not be overwritten.
        The caller holds the op locks for ``missing``, so no write can
        land on those pages while the remote read is in flight."""
        fill_span = (
            trace_ctx.begin("cache_fill", pages=len(missing),
                            bytes=span_nbytes)
            if trace_ctx is not None else None
        )
        try:
            cqe = yield from self._fetch_span_inner(
                missing, span_lba, span_nbytes, target, target_offset,
                trace_ctx,
            )
            return cqe
        finally:
            if fill_span is not None:
                trace_ctx.end(fill_span)

    def _fetch_span_inner(
        self, missing, span_lba: int, span_nbytes: int, target,
        target_offset: int, trace_ctx=None,
    ) -> Generator:
        cqe = yield from self.remote.io(
            span_lba, span_nbytes, target=target,
            target_offset=target_offset, trace_ctx=trace_ctx,
        )
        block = self._block
        span_start = span_lba * block
        span_end = span_start + span_nbytes
        value = getattr(cqe, "value", None)
        runs: list = []
        for page in missing:
            if runs and page == runs[-1][-1] + 1:
                runs[-1].append(page)
            else:
                runs.append([page])
        for run in runs:
            run_start = max(span_start, run[0] * self.page_bytes)
            run_end = min(span_end, (run[-1] + 1) * self.page_bytes)
            payload = None
            if value is not None:
                payload = value[run_start - span_start:
                                run_end - span_start]
            yield from self.local.io(
                run_start // block, run_end - run_start,
                is_write=True, payload=payload,
            )
        return cqe

    # -- the backend interface --------------------------------------------
    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
        trace_ctx=None,
    ) -> Generator:
        if is_write:
            cqe = yield from self._write(
                lba, nbytes, payload, target, target_offset,
                trace_ctx=trace_ctx,
            )
        else:
            cqe = yield from self._read(lba, nbytes, target,
                                        target_offset,
                                        trace_ctx=trace_ctx)
        return cqe

    def _read(self, lba, nbytes, target, target_offset,
              trace_ctx=None) -> Generator:
        pages = page_span(lba, nbytes, self._block, self.page_bytes)
        missing = [page for page in pages if page not in self._resident]
        if not missing:
            self.hits.add(len(pages))
            cqe = yield from self.local.io(
                lba, nbytes, target=target, target_offset=target_offset
            )
            self._touch(pages)
            self._publish()
            return cqe

        if self.degraded:
            healed = yield from self._maybe_heal()
            if not healed:
                self.degraded_misses.add()
                self._publish()
                raise RemoteUnavailableError(
                    f"degraded tier: {len(missing)} of {len(pages)} pages "
                    f"not resident locally (lba {lba})"
                )
            missing = [p for p in pages if p not in self._resident]
            if not missing:
                cqe = yield from self._read(lba, nbytes, target,
                                            target_offset,
                                            trace_ctx=trace_ctx)
                return cqe

        held = yield from self._lock_missing(pages)
        try:
            # a concurrent op may have fetched pages while we waited
            # for the locks: recompute under the lock
            missing = [p for p in pages if p not in self._resident]
            if not missing:
                self.hits.add(len(pages))
                cqe = yield from self.local.io(
                    lba, nbytes, target=target,
                    target_offset=target_offset,
                )
                self._touch(pages)
                self._publish()
                return cqe
            self.hits.add(len(pages) - len(missing))
            self.misses.add(len(missing))
            # fetch the contiguous window covering the missing pages,
            # clipped to the request
            block = self._block
            span_lba, span_offset, span_nbytes = miss_window(
                lba, nbytes, block, self.page_bytes, missing[0],
                missing[-1],
            )
            start_byte = lba * block
            end_byte = start_byte + nbytes
            span_start = start_byte + span_offset
            span_end = span_start + span_nbytes
            try:
                cqe = yield from self._fetch_span(
                    missing, span_lba, span_nbytes, target,
                    target_offset + span_offset, trace_ctx=trace_ctx,
                )
            except NetworkError as error:
                self._enter_degraded(error)
                raise
            # resident pages — the edges outside the span, plus any
            # runs *inside* it between missing pages — come off the
            # local array, which may hold newer bytes than remote
            if span_start > start_byte:
                yield from self.local.io(
                    lba, span_start - start_byte,
                    target=target, target_offset=target_offset,
                )
            if span_end < end_byte:
                yield from self.local.io(
                    span_end // block, end_byte - span_end,
                    target=target,
                    target_offset=target_offset + (span_end - start_byte),
                )
            if target is not None:
                for page in pages:
                    if page in missing:
                        continue
                    page_start = max(span_start, page * self.page_bytes)
                    page_end = min(span_end,
                                   (page + 1) * self.page_bytes)
                    if page_start >= page_end:
                        continue  # outside the span: already served
                    yield from self.local.io(
                        page_start // block, page_end - page_start,
                        target=target,
                        target_offset=(target_offset
                                       + (page_start - start_byte)),
                    )
            self._touch(pages)
        finally:
            self._release(held)
        self._publish()
        return cqe

    def _write(self, lba, nbytes, payload, target, target_offset,
               trace_ctx=None) -> Generator:
        pages = page_span(lba, nbytes, self._block, self.page_bytes)
        start_byte = lba * self._block
        end_byte = start_byte + nbytes
        # partially-covered edge pages may need a write-allocate fetch,
        # so they take the exclusive mode; fully-covered pages only
        # need to fence off concurrent fetches (shared mode)
        covered = [
            page for page in pages
            if start_byte <= page * self.page_bytes
            and end_byte >= (page + 1) * self.page_bytes
        ]
        yield from self._acquire(pages, shared=covered)
        try:
            if not self.degraded:
                # write-allocate: a partially-covered non-resident edge
                # page must be fetched first, or its untouched bytes
                # would later be flushed from a local array that never
                # held them
                for page in (pages[0], pages[-1]):
                    if page in covered or page in self._resident:
                        continue
                    try:
                        yield from self._fetch_span(
                            [page], self._page_lba(page),
                            self.page_bytes, None, 0,
                            trace_ctx=trace_ctx,
                        )
                    except NetworkError as error:
                        self._enter_degraded(error)
                        break
                    self._touch((page,))

            cqe = yield from self.local.io(
                lba, nbytes, is_write=True, payload=payload,
                target=target, target_offset=target_offset,
            )
            self._write_gen += 1
            for page in pages:
                # marked before the touch: a page being written is
                # never its own write's eviction victim
                self._dirty[page] = self._write_gen
                self._touch((page,))
        finally:
            self._release(pages, shared=covered)
        if self.degraded:
            self.queued_writes.add()
            yield from self._maybe_heal()
        elif len(self._dirty) >= self.flush_watermark:
            yield from self.flush(max_pages=self.flush_burst,
                                  trace_ctx=trace_ctx)
        self._publish()
        return cqe

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        """Steady state assumes the cache-friendly case: local-tier
        service (misses/flushes are modelled per-request only)."""
        return self.local.bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )

    # -- stats / live metrics ---------------------------------------------
    def hit_rate(self) -> float:
        total = self.hits.total + self.misses.total
        return self.hits.total / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits.total,
            "misses": self.misses.total,
            "hit_rate": self.hit_rate(),
            "evictions": self.evictions.total,
            "overflow_admissions": self._resident.overflows,
            "degraded": self.degraded,
            "degraded_misses": self.degraded_misses.total,
            "queued_writes": self.queued_writes.total,
            "dirty_pages": len(self._dirty),
            "resident_pages": len(self._resident),
            "flushed_pages": self.flushed_pages.total,
            "partitions_detected": self.partitions_detected.total,
            "resyncs": self.resyncs.total,
        }

    def _publish(self) -> None:
        metrics = self.env.metrics
        if not metrics.enabled:
            return
        registry = metrics.registry
        if self._instruments is None or self._instruments[0] is not registry:
            specs = (
                ("cam_net_tier_hits_total", "counter",
                 "tier pages served from the local array"),
                ("cam_net_tier_misses_total", "counter",
                 "tier pages fetched from the remote backend"),
                ("cam_net_tier_degraded", "gauge",
                 "1 while the tier is in local-only degraded mode"),
                ("cam_net_tier_dirty_pages", "gauge",
                 "pages in the write-back dirty log"),
                ("cam_net_tier_degraded_misses_total", "counter",
                 "reads refused because degraded + not resident"),
                ("cam_net_tier_queued_writes_total", "counter",
                 "writes accepted locally while degraded"),
                ("cam_net_tier_flushed_pages_total", "counter",
                 "dirty pages acked by the remote tier"),
                ("cam_net_tier_resyncs_total", "counter",
                 "post-heal dirty-log drains started"),
            )
            self._instruments = (registry, *(
                registry.ensure(name, kind, help=text).child()
                for name, kind, text in specs
            ))
        (_, hits, misses, degraded, dirty, dmisses, queued, flushed,
         resyncs) = self._instruments
        hits.set_total(self.hits.total)
        misses.set_total(self.misses.total)
        degraded.set(1.0 if self.degraded else 0.0)
        dirty.set(float(len(self._dirty)))
        dmisses.set_total(self.degraded_misses.total)
        queued.set_total(self.queued_writes.total)
        flushed.set_total(self.flushed_pages.total)
        resyncs.set_total(self.resyncs.total)

    def publish(self) -> None:
        """Pull-refresh for the sampler; cascades into the remote tier."""
        self._publish()
        self.remote.publish()
