"""Serving metric families: TTFT, tokens/s, queueing, KV hit rate.

The :class:`ServingMetrics` bundle follows the same contract as the
core :class:`~repro.obs.metrics.Metrics` push helpers: every update is
plain Python arithmetic (no events, no simulated time), so serving runs
with metrics enabled are bit-identical in simulated history to
metrics-off runs — ``tests/test_serving_engine.py`` pins this down the
same way the sampler differential does.

Families are resolved get-or-register against the environment's live
registry, so a serving engine composes with an already-installed
telemetry stack (sampler, SLO monitors, cam-top) without double
registration, and multiple engines in one process share the families.
"""

from __future__ import annotations

from typing import Optional


#: the serving metric catalog (documented in docs/SERVING.md and the
#: OBSERVABILITY.md metric table)
FAMILY_SPECS = (
    ("serving_ttft_seconds", "histogram",
     "turn arrival -> first response token", "seconds"),
    ("serving_queue_wait_seconds", "histogram",
     "turn arrival -> decode slot granted", "seconds"),
    ("serving_turns_total", "counter", "completed serving turns", ""),
    ("serving_tokens_total", "counter", "response tokens decoded", ""),
    ("serving_active_sessions", "gauge",
     "sessions currently arrived and not finished", ""),
    ("serving_decoding_sessions", "gauge",
     "sessions currently holding a decode slot", ""),
    ("serving_tokens_per_second", "gauge",
     "aggregate decode throughput so far", ""),
    ("serving_kv_hits_total", "counter",
     "required KV blocks found resident", ""),
    ("serving_kv_misses_total", "counter",
     "required KV blocks prefetched from SSD", ""),
    ("serving_kv_evictions_total", "counter",
     "resident KV blocks dropped by the eviction policy", ""),
    ("serving_kv_hit_rate", "gauge", "KV hits / lookups so far", ""),
    ("serving_kv_resident_blocks", "gauge",
     "KV blocks currently in simulated GPU/host memory", ""),
    ("serving_overload_retries_total", "counter",
     "batches re-rung after an admission-control shed", ""),
)


class ServingMetrics:
    """Push helpers over the serving families of a live registry."""

    def __init__(self, registry):
        self.registry = registry
        instruments = {
            name: registry.ensure(name, kind, help=text, unit=unit).child()
            for name, kind, text, unit in FAMILY_SPECS
        }
        self._ttft = instruments["serving_ttft_seconds"]
        self._queue_wait = instruments["serving_queue_wait_seconds"]
        self._turns = instruments["serving_turns_total"]
        self._tokens = instruments["serving_tokens_total"]
        self._active = instruments["serving_active_sessions"]
        self._decoding = instruments["serving_decoding_sessions"]
        self._tokens_per_s = instruments["serving_tokens_per_second"]
        self._hits = instruments["serving_kv_hits_total"]
        self._misses = instruments["serving_kv_misses_total"]
        self._evictions = instruments["serving_kv_evictions_total"]
        self._hit_rate = instruments["serving_kv_hit_rate"]
        self._resident = instruments["serving_kv_resident_blocks"]
        self._overload_retries = instruments[
            "serving_overload_retries_total"
        ]

    @classmethod
    def from_env(cls, env) -> Optional["ServingMetrics"]:
        """The bundle for ``env``, or ``None`` with metrics disabled.

        Callers hold the result and guard pushes with ``if smetrics is
        not None`` — the serving mirror of ``if metrics.enabled``.
        """
        metrics = env.metrics
        if not metrics.enabled:
            return None
        return cls(metrics.registry)

    # -- push helpers (pure arithmetic; never touch the event heap) -----
    def session_started(self) -> None:
        self._active.add(1)

    def session_finished(self) -> None:
        self._active.add(-1)

    def decode_started(self, queue_wait: float) -> None:
        self._decoding.add(1)
        self._queue_wait.observe(queue_wait)

    def decode_finished(self) -> None:
        self._decoding.add(-1)

    def first_token(self, ttft: float) -> None:
        self._ttft.observe(ttft)

    def turn_done(self, tokens: int) -> None:
        self._turns.inc()
        self._tokens.inc(tokens)

    def overload_retry(self) -> None:
        self._overload_retries.inc()

    def store_state(self, store, now: float, tokens_done: int) -> None:
        """Refresh the gauges/counters mirrored from a
        :class:`~repro.serving.kvstore.KvBlockStore`."""
        self._hits.set_total(store.hits)
        self._misses.set_total(store.misses)
        self._evictions.set_total(store.evictions)
        self._hit_rate.set(store.hit_rate())
        self._resident.set(store.resident_blocks)
        if now > 0:
            self._tokens_per_s.set(tokens_done / now)

    def __repr__(self) -> str:
        return f"<ServingMetrics {self.registry!r}>"
