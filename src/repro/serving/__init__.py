"""SSD-backed LLM serving subsystem (KV block store + session engine).

The serving stack composes four pieces, each importable from here:

* :class:`KvBlockStore` / :class:`KvLayout` — per-session, per-layer KV
  blocks round-robin striped across the platform's SSDs, resident under
  the shared LRU residency core, with attention-pattern policies
  (:class:`LruPolicy`, :class:`SlidingWindowPolicy`);
* :class:`SessionPool` / :class:`SessionConfig` — seed-deterministic
  open-loop arrival model (think times, context/decode lengths);
* :class:`ServingEngine` — the sim-process that serves every session
  turn, prefetching evicted KV through the CAM device API and
  overlapping decode compute with I/O;
* :class:`ServingMetrics` — TTFT/tokens-per-second/queueing/hit-rate
  families in the live metrics registry.

See ``docs/SERVING.md`` for the full design.
"""

from repro.serving.engine import ServingEngine, ServingResult
from repro.serving.kvstore import (
    BlockKey,
    KvBlockStore,
    KvLayout,
    LruPolicy,
    SlidingWindowPolicy,
)
from repro.serving.metrics import FAMILY_SPECS, ServingMetrics
from repro.serving.sessions import Session, SessionConfig, SessionPool, Turn

__all__ = [
    "BlockKey",
    "FAMILY_SPECS",
    "KvBlockStore",
    "KvLayout",
    "LruPolicy",
    "ServingEngine",
    "ServingMetrics",
    "ServingResult",
    "Session",
    "SessionConfig",
    "SessionPool",
    "SlidingWindowPolicy",
    "Turn",
]
