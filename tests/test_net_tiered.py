"""Tiered backend: write-back caching, degraded mode, resync, coherence.

All tests run the full functional stack so the partition-tolerance
claims are checked on actual bytes: an acked write must survive
eviction pressure, degraded mode and the post-heal resync.
"""

import pytest

from repro.config import PlatformConfig
from repro.errors import (
    ConfigurationError,
    NetworkError,
    RemoteUnavailableError,
)
from repro.hw.platform import Platform
from repro.net import NetworkFaultInjector, build_disagg


def _tiered(capacity_pages=8, num_nodes=2, **kwargs):
    platform = Platform(PlatformConfig(num_ssds=1), functional=True)
    injector = NetworkFaultInjector()
    tier = build_disagg(
        platform,
        num_nodes=num_nodes,
        functional=True,
        fault_injector=injector,
        capacity_bytes=capacity_pages * 4096,
        **kwargs,
    )
    return platform, injector, tier


def _run(platform, gen):
    env = platform.env
    return env.run(env.process(gen))


def _payload(fill, nbytes=4096):
    return bytes([fill % 256]) * nbytes


def _partition_all(injector, tier):
    for node in tier.remote.nodes:
        injector.set_partitioned(node.link.link_id)


def _heal_all(injector, tier):
    for node in tier.remote.nodes:
        injector.set_partitioned(node.link.link_id, False)


def test_write_back_lands_locally_then_flushes():
    platform, _, tier = _tiered()
    data = _payload(4)

    def proc():
        yield from tier.io(0, tier.page_bytes, is_write=True, payload=data)
        assert tier.dirty_pages() == 1
        assert tier.remote.remote_writes.total == 0
        left = yield from tier.sync()
        assert left == 0
        cqe = yield from tier.remote.io(0, tier.page_bytes)
        return cqe

    cqe = _run(platform, proc())
    assert bytes(cqe.value) == data
    assert tier.flushed_pages.total == 1


def test_read_miss_fetches_admits_and_then_hits():
    platform, _, tier = _tiered()
    data = _payload(6)

    def proc():
        yield from tier.remote.io(0, tier.page_bytes, is_write=True,
                                  payload=data)
        first = yield from tier.io(0, tier.page_bytes)
        reads_after_miss = tier.remote.remote_reads.total
        second = yield from tier.io(0, tier.page_bytes)
        return first, second, reads_after_miss

    first, second, reads_after_miss = _run(platform, proc())
    assert bytes(first.value) == data
    assert bytes(second.value) == data
    assert tier.misses.total == 1
    assert tier.hits.total >= 1
    # the hit never touched the fabric again
    assert tier.remote.remote_reads.total == reads_after_miss


def test_lru_evicts_clean_pages_at_capacity():
    platform, _, tier = _tiered(capacity_pages=2)

    def proc():
        for page in range(4):
            lba = page * tier.page_blocks
            yield from tier.remote.io(lba, tier.page_bytes, is_write=True,
                                      payload=_payload(page))
        for page in range(4):
            yield from tier.io(page * tier.page_blocks, tier.page_bytes)

    _run(platform, proc())
    assert tier.evictions.total == 2
    assert tier.resident_pages() == 2


def test_dirty_pages_are_pinned_over_capacity():
    platform, injector, tier = _tiered(capacity_pages=2)

    def proc():
        _partition_all(injector, tier)
        with pytest.raises(NetworkError):
            yield from tier.io(0, tier.page_bytes)  # miss -> degraded
        assert tier.degraded
        for page in range(4):
            yield from tier.io(page * tier.page_blocks, tier.page_bytes,
                               is_write=True, payload=_payload(page))

    _run(platform, proc())
    # every page is dirty: the LRU overflows rather than losing data
    assert tier.dirty_pages() == 4
    assert tier.resident_pages() == 4
    assert tier.evictions.total == 0
    assert tier.queued_writes.total == 4
    # the writes of pages 2 and 3 each ran over the 2-page capacity
    assert tier.stats()["overflow_admissions"] == 2


def test_normal_mode_overflow_run_is_pinned():
    """A healthy fabric with the flush watermark equal to the capacity:
    dirty pages pin most of the tier, so clean-page eviction and the
    overflow rule both run on every few requests.  Pinned to the exact
    simulated outputs."""
    from repro.units import KiB
    from repro.workloads.trace import TraceReplayer, make_zipfian_trace

    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    tier = build_disagg(platform, num_nodes=2, functional=False,
                        capacity_bytes=256 * KiB, flush_watermark=64)
    trace = make_zipfian_trace(4000, granularity=4 * KiB, skew=1.5,
                               write_fraction=0.5, seed=0)
    TraceReplayer(tier).replay(trace, open_loop=False, concurrency=16)
    stats = tier.stats()
    assert platform.env.now == 0.024260701666224144
    assert platform.env.events_processed == 68663
    assert (stats["hits"], stats["misses"], stats["evictions"]) == (
        1718, 308, 529,
    )
    assert (stats["resident_pages"], stats["dirty_pages"]) == (64, 5)


def test_degraded_mode_serves_residents_and_fails_misses_fast():
    platform, injector, tier = _tiered()
    data = _payload(2)

    def proc():
        yield from tier.io(0, tier.page_bytes, is_write=True, payload=data)
        _partition_all(injector, tier)
        with pytest.raises(NetworkError):
            yield from tier.io(64, tier.page_bytes)  # miss trips degraded
        # resident page keeps being served locally
        cqe = yield from tier.io(0, tier.page_bytes)
        assert bytes(cqe.value) == data
        # non-resident read fails with the typed degraded error
        yield platform.env.timeout(tier.probe_interval)
        with pytest.raises(RemoteUnavailableError):
            yield from tier.io(128, tier.page_bytes)

    _run(platform, proc())
    assert tier.degraded
    assert tier.degraded_misses.total >= 1


def test_heal_resyncs_the_dirty_log_and_nothing_is_lost():
    platform, injector, tier = _tiered()
    env = platform.env

    def proc():
        _partition_all(injector, tier)
        with pytest.raises(NetworkError):
            yield from tier.io(0, tier.page_bytes)
        # queue writes while degraded, re-writing page 1 so the resync
        # must replicate the *newest* version
        for page, fill in ((0, 10), (1, 11), (1, 12), (2, 13)):
            yield from tier.io(page * tier.page_blocks, tier.page_bytes,
                               is_write=True, payload=_payload(fill))
        assert tier.dirty_pages() == 3
        _heal_all(injector, tier)
        yield env.timeout(tier.probe_interval)
        left = yield from tier.sync()
        assert left == 0
        copies = {}
        for node in tier.remote.nodes:
            for page in (0, 1, 2):
                cqe = yield from node.backend.io(
                    page * tier.page_blocks, tier.page_bytes
                )
                copies[(node.node_id, page)] = bytes(cqe.value)
        return copies

    copies = _run(platform, proc())
    assert not tier.degraded
    assert tier.resyncs.total == 1
    want = {0: _payload(10), 1: _payload(12), 2: _payload(13)}
    for (node_id, page), value in copies.items():
        assert value == want[page], (node_id, page)


def test_partial_write_allocates_the_missing_edge_page():
    platform, _, tier = _tiered()
    block = platform.config.ssd.block_size
    base = _payload(1)
    patch = bytes([9]) * block

    def proc():
        yield from tier.remote.io(0, tier.page_bytes, is_write=True,
                                  payload=base)
        # sub-page write: the rest of the page must be fetched first,
        # or the flush below would push garbage for the other blocks
        yield from tier.io(1, block, is_write=True, payload=patch)
        yield from tier.sync()
        cqe = yield from tier.remote.io(0, tier.page_bytes)
        return cqe

    cqe = _run(platform, proc())
    want = base[:block] + patch + base[2 * block:]
    assert bytes(cqe.value) == want


def test_concurrent_fetch_and_write_keep_the_newer_data():
    """A slow remote fetch must not admit stale bytes over a write that
    landed while the fetch was in flight (the op-lock coherence rule)."""
    platform, _, tier = _tiered()
    env = platform.env
    old, new = _payload(1), _payload(2)

    def reader():
        yield from tier.io(0, tier.page_bytes)

    def writer():
        # start after the fetch's remote read is already in flight
        yield env.timeout(1e-6)
        yield from tier.io(0, tier.page_bytes, is_write=True, payload=new)

    def proc():
        yield from tier.remote.io(0, tier.page_bytes, is_write=True,
                                  payload=old)
        yield env.all_of([env.process(reader()), env.process(writer())])
        cqe = yield from tier.io(0, tier.page_bytes)
        assert bytes(cqe.value) == new
        yield from tier.sync()
        cqe = yield from tier.remote.io(0, tier.page_bytes)
        assert bytes(cqe.value) == new

    _run(platform, proc())


def test_interior_dirty_page_survives_a_spanning_read():
    platform, _, tier = _tiered()

    def proc():
        for page in range(3):
            yield from tier.remote.io(page * tier.page_blocks,
                                      tier.page_bytes, is_write=True,
                                      payload=_payload(page))
        # page 1 becomes resident + dirty with newer data
        yield from tier.io(tier.page_blocks, tier.page_bytes,
                           is_write=True, payload=_payload(42))
        # a read spanning pages 0-2 misses on 0 and 2; the fetch span
        # covers page 1 but must not overwrite its dirty copy
        yield from tier.io(0, 3 * tier.page_bytes)
        cqe = yield from tier.io(tier.page_blocks, tier.page_bytes)
        assert bytes(cqe.value) == _payload(42)

    _run(platform, proc())


def test_watermark_flush_is_bounded_by_the_burst():
    platform, _, tier = _tiered(
        capacity_pages=64, flush_watermark=4, flush_burst=2
    )

    def proc():
        for page in range(4):
            yield from tier.io(page * tier.page_blocks, tier.page_bytes,
                               is_write=True, payload=_payload(page))

    _run(platform, proc())
    # the 4th write crossed the watermark and drained one burst, not
    # the whole log
    assert tier.flushed_pages.total == 2
    assert tier.dirty_pages() == 2


def test_concurrent_mixed_ops_all_terminate():
    platform, _, tier = _tiered(capacity_pages=4)
    env = platform.env

    def proc():
        for page in range(4):
            yield from tier.remote.io(page * tier.page_blocks,
                                      tier.page_bytes, is_write=True,
                                      payload=_payload(page))
        workers = []
        for index in range(16):
            page = index % 4

            def op(page=page, index=index):
                yield env.timeout(index * 1e-7)
                if index % 3 == 0:
                    yield from tier.io(
                        page * tier.page_blocks, tier.page_bytes,
                        is_write=True, payload=_payload(index),
                    )
                else:
                    yield from tier.io(
                        page * tier.page_blocks, tier.page_bytes
                    )

            workers.append(env.process(op()))
        yield env.all_of(workers)
        yield from tier.sync()

    _run(platform, proc())
    assert tier.dirty_pages() == 0


def test_tier_validation():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    with pytest.raises(ConfigurationError):
        build_disagg(platform, functional=False, capacity_bytes=1)
    with pytest.raises(ConfigurationError):
        build_disagg(platform, functional=False, flush_burst=0)
    with pytest.raises(ConfigurationError):
        build_disagg(platform, functional=False, probe_interval=0.0)
