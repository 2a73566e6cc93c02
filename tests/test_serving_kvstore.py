"""KvBlockStore: layout math, striping, and eviction policies."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.serving import (
    KvBlockStore,
    KvLayout,
    LruPolicy,
    SlidingWindowPolicy,
)
from repro.units import KiB


def _store(num_ssds=4, **kwargs):
    platform = Platform(PlatformConfig(num_ssds=num_ssds),
                        functional=False)
    return platform, KvBlockStore(platform, **kwargs)


# -- layout ------------------------------------------------------------

def test_layout_geometry():
    layout = KvLayout(num_layers=2, block_bytes=64 * KiB,
                      kv_bytes_per_token=256)
    assert layout.tokens_per_block == 256
    assert layout.blocks_per_layer(0) == 0
    assert layout.blocks_per_layer(1) == 1
    assert layout.blocks_per_layer(256) == 1
    assert layout.blocks_per_layer(257) == 2
    assert layout.blocks_for(257) == 4  # 2 per layer x 2 layers


def test_layout_validation():
    with pytest.raises(ConfigurationError):
        KvLayout(num_layers=0)
    with pytest.raises(ConfigurationError):
        KvLayout(block_bytes=100, kv_bytes_per_token=256)
    with pytest.raises(ConfigurationError):
        KvLayout(block_bytes=1000, kv_bytes_per_token=256)


def test_block_bytes_must_align_to_ssd_blocks():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    with pytest.raises(ConfigurationError, match="multiple"):
        KvBlockStore(
            platform, KvLayout(block_bytes=768, kv_bytes_per_token=256)
        )


# -- striping ----------------------------------------------------------

def test_allocation_round_robins_across_ssds():
    """Consecutive block allocations land on consecutive SSDs: the
    store aligns the platform stripe to the KV block size, so the
    RAID0 mapping becomes a round-robin over allocation order."""
    num_ssds = 4
    platform, store = _store(num_ssds=num_ssds, capacity_blocks=4096)
    created = store.append_tokens(0, 10 * store.layout.tokens_per_block)
    assert len(created) == 20  # 10 blocks x 2 layers
    assert max(store.blocks_per_ssd) - min(store.blocks_per_ssd) == 0
    # and the mapping really is the platform's, not a parallel scheme
    for block, lba in created:
        ssd, _ = platform.ssd_for_lba(lba, store.stripe_blocks)
        assert ssd.ssd_id == (lba // store.stripe_blocks) % num_ssds


def test_lbas_are_unique_and_block_aligned():
    _, store = _store(capacity_blocks=4096)
    store.append_tokens(1, 1000)
    store.append_tokens(2, 1000)
    lbas = [store.lba_of(b) for b in store.session_blocks(1)]
    lbas += [store.lba_of(b) for b in store.session_blocks(2)]
    assert len(set(lbas)) == len(lbas)
    assert all(lba % store.stripe_blocks == 0 for lba in lbas)


# -- residency / acquire -----------------------------------------------

def test_acquire_counts_hits_and_misses():
    _, store = _store(capacity_blocks=4)
    tokens = 3 * store.layout.tokens_per_block  # 3 blocks x 2 layers
    store.append_tokens(0, tokens)  # 6 admits into capacity 4 -> evicts
    hits, missing = store.acquire(0)
    assert len(hits) + len(missing) == 6
    assert len(hits) == 4  # capacity worth stayed resident
    assert store.hits == 4 and store.misses == 2
    for block, lba in missing:
        assert not store.is_resident(block)
        assert lba == store.lba_of(block)


def test_admit_requires_allocation():
    _, store = _store()
    with pytest.raises(ConfigurationError):
        store.admit((0, 0, 0))


def test_pinned_blocks_survive_pressure():
    _, store = _store(capacity_blocks=2)
    first = store.append_tokens(0, 1)  # 1 block x 2 layers
    store.pin([block for block, _ in first])
    store.append_tokens(1, 1)  # 2 more admits over capacity
    for block, _ in first:
        assert store.is_resident(block)
    assert store.evictions == 2  # session 1's own blocks churned


def test_all_pinned_overflows_instead_of_deadlocking():
    _, store = _store(capacity_blocks=1)
    created = [block for block, _ in store.append_tokens(0, 1)]
    store.pin(created)  # pin both; only the second is still resident
    evicted = next(b for b in created if not store.is_resident(b))
    store.admit(evicted)  # a prefetch landing while everything is pinned
    assert store.resident_blocks == 2  # over budget, by design
    assert store.overflow_admissions == 1
    assert store.evictions == 1  # only the pre-pin churn from append


# -- LRU property test -------------------------------------------------

class _ReferenceLru:
    """Reference model of acquire+admit over an LRU residency set."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._resident = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, blocks):
        missing = []
        for block in blocks:
            if block in self._resident:
                self.hits += 1
                self._resident.move_to_end(block)
            else:
                self.misses += 1
                missing.append(block)
        for block in missing:
            self._resident[block] = None
            self._resident.move_to_end(block)
            while len(self._resident) > self.capacity:
                self._resident.popitem(last=False)

    def admit(self, block):
        self._resident[block] = None
        self._resident.move_to_end(block)
        while len(self._resident) > self.capacity:
            self._resident.popitem(last=False)


@given(
    capacity=st.integers(2, 12),
    sessions=st.lists(st.integers(0, 5), min_size=1, max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_lru_matches_reference(capacity, sessions):
    """acquire/admit across interleaved sessions produces exactly the
    reference LRU's hit/miss sequence."""
    _, store = _store(capacity_blocks=capacity)
    reference = _ReferenceLru(capacity)
    tokens = store.layout.tokens_per_block  # 1 block per layer / session
    for session_id in sessions:
        if store.session_tokens(session_id) == 0:
            created = store.append_tokens(session_id, tokens)
            for block, _ in created:
                reference.admit(block)
            continue
        _, missing = store.acquire(session_id)
        reference.access(store.session_blocks(session_id))
        for block, _ in missing:
            store.admit(block)
    assert store.hits == reference.hits
    assert store.misses == reference.misses


# -- sliding-window policy ---------------------------------------------

def test_window_policy_requires_only_prefix_and_window():
    _, store = _store(
        capacity_blocks=4096,
        policy=SlidingWindowPolicy(window_blocks=2, prefix_blocks=1),
    )
    store.append_tokens(0, 10 * store.layout.tokens_per_block)
    hits, missing = store.acquire(0)
    required = {block for block in hits}
    required.update(block for block, _ in missing)
    for layer in range(store.layout.num_layers):
        indices = sorted(i for (_, lyr, i) in required if lyr == layer)
        assert indices == [0, 8, 9]  # prefix + last-2 window


def test_window_policy_evicts_dead_weight_first():
    _, store = _store(
        capacity_blocks=4096,
        policy=SlidingWindowPolicy(window_blocks=2, prefix_blocks=1),
    )
    store.append_tokens(0, 10 * store.layout.tokens_per_block)
    victim = store._resident.victim()
    _, _, index = victim
    length = store.session_layer_blocks(0)
    assert 1 <= index < length - 2  # not prefix, not window


def test_window_policy_falls_back_to_lru_when_all_needed():
    _, store = _store(
        capacity_blocks=4096,
        policy=SlidingWindowPolicy(window_blocks=8, prefix_blocks=1),
    )
    store.append_tokens(0, 3 * store.layout.tokens_per_block)
    assert store._resident.victim() is not None


def test_window_policy_validation():
    with pytest.raises(ConfigurationError):
        SlidingWindowPolicy(window_blocks=0)
    with pytest.raises(ConfigurationError):
        SlidingWindowPolicy(window_blocks=1, prefix_blocks=-1)


def test_store_validation_and_repr():
    with pytest.raises(ConfigurationError):
        _store(capacity_blocks=0)
    _, store = _store()
    assert "lru" in repr(store)
    assert isinstance(store.policy, LruPolicy)
