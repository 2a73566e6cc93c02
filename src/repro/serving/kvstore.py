"""SSD-backed KV-cache block store for LLM serving.

Long-context serving spills per-session KV cache to SSD (the Tutti
scenario from PAPERS.md): each session's attention state is laid out as
fixed-size **blocks** — one stream per transformer layer, blocks filling
up as tokens are generated — and the blocks are **round-robin striped**
across every SSD of the platform (the FlexKV ``GDSManager`` idiom:
consecutive blocks land on consecutive devices, so one session's
prefetch fans out over the whole array).

The :class:`KvBlockStore` owns three things:

* the **layout** (:class:`KvLayout`): tokens-per-block geometry and the
  block -> LBA mapping.  LBAs are allocated so the platform's RAID0
  striping (:meth:`~repro.hw.platform.Platform.ssd_for_lba`) maps block
  ``i`` of the global allocation order to SSD ``i mod num_ssds``;
* the **residency set**: which blocks currently sit in simulated
  GPU/host memory (``capacity_blocks``), kept by the shared
  :class:`~repro.cache.residency.Residency` core in LRU order with the
  blocks of in-flight decodes pinned.  Everything else lives only on
  SSD and must be prefetched before a decode turn can use it;
* the **attention pattern** (the policy): which blocks a decode turn
  needs, and which blocks are dead.  Two policies ship:
  :class:`LruPolicy` (full attention: every block is needed, plain LRU
  eviction) and :class:`SlidingWindowPolicy` (prefix-aware windowed
  attention: a session only *needs* its prompt-prefix blocks plus the
  last ``window`` blocks per layer, so everything in between is dead
  and the residency core evicts it first).

Eviction never costs I/O here: new blocks are written back to SSD as
they are produced (the engine's ``write_back`` path), so a resident
block is always clean and can simply be dropped.

Counters (``hits``/``misses``/``evictions``) are plain integers — the
store is used inside bit-identity differentials, so it must never touch
the event heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.residency import Residency
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.units import KiB

#: a KV block key: ``(session_id, layer, index)`` — index counts blocks
#: of the session's token stream within one layer
BlockKey = Tuple[int, int, int]


@dataclass(frozen=True)
class KvLayout:
    """Per-session, per-layer KV block geometry."""

    #: transformer layers modelled (each keeps its own block stream)
    num_layers: int = 2
    #: bytes per KV block — also the I/O granularity of every transfer
    block_bytes: int = 64 * KiB
    #: KV bytes one token contributes to one layer
    kv_bytes_per_token: int = 256

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if self.kv_bytes_per_token < 1:
            raise ConfigurationError("kv_bytes_per_token must be >= 1")
        if self.block_bytes < self.kv_bytes_per_token:
            raise ConfigurationError(
                "block_bytes must hold at least one token"
            )
        if self.block_bytes % self.kv_bytes_per_token:
            raise ConfigurationError(
                "block_bytes must be a multiple of kv_bytes_per_token"
            )

    @property
    def tokens_per_block(self) -> int:
        return self.block_bytes // self.kv_bytes_per_token

    def blocks_per_layer(self, tokens: int) -> int:
        """Blocks one layer needs to hold ``tokens`` of context."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.tokens_per_block)  # ceil

    def blocks_for(self, tokens: int) -> int:
        """Total blocks (all layers) for ``tokens`` of context."""
        return self.num_layers * self.blocks_per_layer(tokens)


class LruPolicy:
    """Full attention: a decode turn needs the session's *entire*
    context resident, no block is ever dead, and the residency core
    evicts the least-recently-used block."""

    name = "lru"
    #: no dead-block predicate: plain LRU victims
    dead = None

    def bind(self, store: "KvBlockStore") -> None:
        self._store = store

    def required(self, session_id: int,
                 blocks: List[BlockKey]) -> List[BlockKey]:
        """The blocks a decode turn must have resident (all of them)."""
        return blocks

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SlidingWindowPolicy(LruPolicy):
    """Prefix-aware windowed attention (StreamingLLM-style).

    A decode turn only attends to the first ``prefix_blocks`` of each
    layer (the prompt "attention sink") plus the last ``window_blocks``;
    blocks in between are never needed again, so they are :meth:`dead`:
    excluded from :meth:`required` and evicted before any live block.
    """

    name = "window"

    def __init__(self, window_blocks: int = 4, prefix_blocks: int = 1):
        super().__init__()
        if window_blocks < 1 or prefix_blocks < 0:
            raise ConfigurationError(
                "window_blocks must be >= 1 and prefix_blocks >= 0"
            )
        self.window_blocks = window_blocks
        self.prefix_blocks = prefix_blocks

    def dead(self, block: BlockKey) -> bool:
        """True for a block outside both the prefix and the window."""
        session_id, _, index = block
        if index < self.prefix_blocks:
            return False
        length = self._store.session_layer_blocks(session_id)
        return index < length - self.window_blocks

    def required(self, session_id: int,
                 blocks: List[BlockKey]) -> List[BlockKey]:
        return [b for b in blocks if not self.dead(b)]


class KvBlockStore:
    """Session/layer KV blocks striped across the platform's SSDs."""

    def __init__(
        self,
        platform: Platform,
        layout: Optional[KvLayout] = None,
        capacity_blocks: int = 1024,
        policy: Optional[LruPolicy] = None,
    ):
        if capacity_blocks < 1:
            raise ConfigurationError("capacity_blocks must be >= 1")
        self.platform = platform
        self.layout = layout or KvLayout()
        block_size = platform.config.ssd.block_size
        if self.layout.block_bytes % block_size:
            raise ConfigurationError(
                f"block_bytes {self.layout.block_bytes} must be a "
                f"multiple of the SSD block size {block_size}"
            )
        #: LBAs per KV block; the RAID0 stripe is aligned to it so each
        #: KV block maps to exactly one SSD and consecutive allocations
        #: round-robin across the array
        self.stripe_blocks = self.layout.block_bytes // block_size
        platform.stripe_blocks = self.stripe_blocks
        self.capacity_blocks = capacity_blocks
        self.policy = policy or LruPolicy()
        self.policy.bind(self)
        #: block -> global LBA (allocation is permanent for a session)
        self._lbas: Dict[BlockKey, int] = {}
        #: session -> tokens appended so far
        self._tokens: Dict[int, int] = {}
        #: blocks an in-flight decode depends on (never victims)
        self._pinned: set = set()
        self._resident = Residency(
            capacity_blocks, pinned=self._pinned, dead=self.policy.dead
        )
        #: blocks placed per SSD (allocation-order round-robin proof)
        self.blocks_per_ssd: List[int] = [0] * platform.num_ssds
        self._next_slot = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- layout ---------------------------------------------------------
    def _allocate(self, block: BlockKey) -> int:
        slot = self._next_slot
        self._next_slot += 1
        lba = slot * self.stripe_blocks
        ssd, _ = self.platform.ssd_for_lba(lba, self.stripe_blocks)
        self.blocks_per_ssd[ssd.ssd_id] += 1
        self._lbas[block] = lba
        return lba

    def lba_of(self, block: BlockKey) -> int:
        return self._lbas[block]

    def session_tokens(self, session_id: int) -> int:
        return self._tokens.get(session_id, 0)

    def session_layer_blocks(self, session_id: int) -> int:
        """Blocks per layer the session currently owns."""
        return self.layout.blocks_per_layer(self.session_tokens(session_id))

    def session_blocks(self, session_id: int) -> List[BlockKey]:
        """Every allocated block of one session, layer-major order."""
        per_layer = self.session_layer_blocks(session_id)
        return [
            (session_id, layer, index)
            for layer in range(self.layout.num_layers)
            for index in range(per_layer)
        ]

    @property
    def allocated_blocks(self) -> int:
        return len(self._lbas)

    @property
    def resident_blocks(self) -> int:
        return len(self._resident)

    def is_resident(self, block: BlockKey) -> bool:
        return block in self._resident

    @property
    def overflow_admissions(self) -> int:
        """Admissions that exceeded capacity while every candidate
        victim was pinned (the store runs temporarily over budget
        rather than deadlocking an in-flight decode)."""
        return self._resident.overflows

    # -- the serving fast path ------------------------------------------
    def append_tokens(
        self, session_id: int, tokens: int
    ) -> List[Tuple[BlockKey, int]]:
        """Extend a session by ``tokens`` freshly produced tokens.

        Allocates any new blocks the extension needs (per layer),
        admits them resident (they are produced in GPU memory) and
        returns ``[(block, lba), ...]`` for the engine to write back.
        """
        if tokens < 0:
            raise ConfigurationError(f"negative token append: {tokens}")
        before = self.session_layer_blocks(session_id)
        self._tokens[session_id] = self.session_tokens(session_id) + tokens
        after = self.session_layer_blocks(session_id)
        created: List[Tuple[BlockKey, int]] = []
        for layer in range(self.layout.num_layers):
            for index in range(before, after):
                block = (session_id, layer, index)
                created.append((block, self._allocate(block)))
                self.admit(block)
        return created

    def acquire(
        self, session_id: int
    ) -> Tuple[List[BlockKey], List[Tuple[BlockKey, int]]]:
        """Look up the blocks a decode turn needs.

        Returns ``(hits, missing)``: resident required blocks (touched)
        and non-resident ones as ``(block, lba)`` pairs to prefetch.
        The caller admits each missing block once its fetch lands.
        """
        required = self.policy.required(
            session_id, self.session_blocks(session_id)
        )
        hits: List[BlockKey] = []
        missing: List[Tuple[BlockKey, int]] = []
        for block in required:
            if block in self._resident:
                self._resident.refresh(block)
                hits.append(block)
            else:
                missing.append((block, self._lbas[block]))
        self.hits += len(hits)
        self.misses += len(missing)
        return hits, missing

    def admit(self, block: BlockKey) -> List[BlockKey]:
        """Mark one block resident, evicting over-capacity victims.

        Returns the evicted blocks (dropped clean — write-back happened
        when they were produced).  Pinned blocks are never victims; if
        everything is pinned the store goes temporarily over capacity.
        """
        if block not in self._lbas:
            raise ConfigurationError(f"admit of unallocated block {block}")
        evicted = self._resident.touch(block)
        self.evictions += len(evicted)
        return evicted

    # -- pinning (blocks an in-flight decode depends on) ----------------
    def pin(self, blocks) -> None:
        self._pinned.update(blocks)

    def unpin(self, blocks) -> None:
        self._pinned.difference_update(blocks)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<KvBlockStore {self.allocated_blocks} blocks "
            f"({self.resident_blocks}/{self.capacity_blocks} resident), "
            f"policy={self.policy.name}>"
        )
