"""The four benchmark workloads, composed from the simulator's public API.

Each workload is a class with the same four steps, so ``run.py`` can
drive any of them the same way:

* ``setup(seed)`` builds a fresh stack and generates the inputs from
  ``seed`` (the ``tiered_zipf`` warm pass is part of set-up);
* ``run(spans, pause)`` performs the timed operations and returns how
  many ops it attempted; between two timed steps it calls ``pause()``,
  whose time the runner keeps out of the timed ops;
* ``outputs()`` returns the simulated outputs of the round: values the
  simulation computes, identical on any host;
* ``invariants(out)`` takes those outputs and returns the checks that
  hold for every seed, as ``(name, ok, detail)`` tuples.

``outputs()`` is called once per round: reading the reactor busy
fractions resets their window.

Nothing here reaches below the public constructors and entry points,
and nothing under ``src/`` is changed to make it measurable.
"""

from __future__ import annotations

import numpy as np

from repro.backends import make_backend
from repro.cache import GpuCache
from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.net import build_disagg
from repro.obs import install_metrics
from repro.reliability import Reliability
from repro.serving import (
    KvBlockStore,
    KvLayout,
    ServingEngine,
    SessionConfig,
    SessionPool,
)
from repro.units import KiB, MiB
from repro.workloads.trace import IOTrace, TraceReplayer, make_zipfian_trace

#: the seed whose simulated outputs are pinned in ``pins.json``
DEFAULT_SEED = 0


def _platform_outputs(platform, since=None):
    """Clock, heap events and per-SSD completions, counted from the
    ``since`` snapshot (an earlier return value) when one is given."""
    ssds = platform.ssds
    out = {
        "sim_end": platform.env.now,
        "events": platform.env.events_processed,
        "ssd_reads": [int(s.reads_completed.total) for s in ssds],
        "ssd_writes": [int(s.writes_completed.total) for s in ssds],
    }
    if since is not None:
        out["events"] -= since["events"]
        for key in ("ssd_reads", "ssd_writes"):
            out[key] = [a - b for a, b in zip(out[key], since[key])]
    return out


def _batch_outputs(platform, manager):
    return {
        **_platform_outputs(platform),
        "requests_done": manager.requests_done.total,
        "batches_done": manager.batches_done.total,
        "reactor_busy_frac": float(
            np.mean(list(manager.reactor_busy_fractions().values()))
        ),
    }


class BatchRead:
    """fig08-shaped coalesced 4 KiB reads over 8 SSDs via ``ring``."""

    name = "batch_read"
    op_unit = "4 KiB read request"
    loop = "closed: each batch is rung after the previous one completes"
    sizes = {
        "ssds": 8, "batches": 10, "requests_per_batch": 8192,
        "granularity_bytes": 4 * KiB, "caches": "none on the path",
    }

    def setup(self, seed):
        sizes = self.sizes
        self.platform = Platform(
            PlatformConfig(num_ssds=sizes["ssds"]), functional=False
        )
        self.manager = CamManager(self.platform)
        count = sizes["requests_per_batch"]
        if seed == DEFAULT_SEED:
            # run_bench.py's batch_sweep LBAs, exactly
            base = np.arange(count, dtype=np.int64) * 3
            self.batches = [
                (base + index) % (1 << 20) for index in range(sizes["batches"])
            ]
        else:
            rng = np.random.default_rng(seed)
            self.batches = [
                rng.integers(0, 1 << 20, size=count)
                for _ in range(sizes["batches"])
            ]

    def run(self, spans, pause):
        env = self.platform.env
        ops = 0
        for index, lbas in enumerate(self.batches):
            if index:
                pause()
            ops += len(lbas)
            with spans.span("ring", requests=len(lbas)):
                env.run(self.manager.ring(BatchRequest(
                    lbas=lbas, granularity=self.sizes["granularity_bytes"],
                    is_write=False,
                )))
        return ops

    def ops(self):
        return sum(len(lbas) for lbas in self.batches)

    def outputs(self):
        return _batch_outputs(self.platform, self.manager)

    def invariants(self, out):
        requests = self.ops()
        return [
            ("every request completes once",
             out["requests_done"] == requests
             and sum(out["ssd_reads"]) == requests,
             f"done={out['requests_done']} "
             f"ssd_reads={sum(out['ssd_reads'])} submitted={requests}"),
            ("every batch completes once",
             out["batches_done"] == len(self.batches),
             f"{out['batches_done']} of {len(self.batches)}"),
        ]


class BatchMixedFaults:
    """The batch control plane with reliability attached and media
    faults planted: 3 in 10 batches are 16 KiB writes."""

    name = "batch_mixed_faults"
    op_unit = "storage request (4 KiB read or 16 KiB write)"
    loop = "closed: each batch is rung after the previous one completes"
    sizes = {
        "ssds": 8, "batches": 10, "requests_per_batch": 4096,
        "write_batches": (2, 5, 8), "read_bytes": 4 * KiB,
        "write_bytes": 16 * KiB, "error_rate": 2e-4,
        "caches": "none on the path",
    }

    def setup(self, seed):
        sizes = self.sizes
        rng = np.random.default_rng(seed)
        self.injector = FaultInjector(
            error_rate=sizes["error_rate"], seed=seed
        )
        self.platform = Platform(
            PlatformConfig(num_ssds=sizes["ssds"]), functional=False,
            fault_injector=self.injector,
        )
        self.reliability = Reliability(self.platform)
        self.manager = CamManager(
            self.platform, reliability=self.reliability
        )
        self.batches = []
        for index in range(sizes["batches"]):
            is_write = index in sizes["write_batches"]
            nbytes = sizes["write_bytes"] if is_write else sizes["read_bytes"]
            # 4 KiB-aligned starts, so writes spread over every SSD too
            lbas = 8 * rng.integers(
                0, 1 << 21, size=sizes["requests_per_batch"]
            )
            self.batches.append((lbas, nbytes, is_write))

    def run(self, spans, pause):
        env = self.platform.env
        ops = 0
        for index, (lbas, nbytes, is_write) in enumerate(self.batches):
            if index:
                pause()
            ops += len(lbas)
            # a batch that surfaces an error fails its event, and
            # env.run raises it: the run then counts as failed
            with spans.span("ring", requests=len(lbas), write=is_write):
                env.run(self.manager.ring(BatchRequest(
                    lbas=lbas, granularity=nbytes, is_write=is_write,
                )))
        return ops

    def ops(self):
        return sum(len(lbas) for lbas, _, _ in self.batches)

    def outputs(self):
        out = _batch_outputs(self.platform, self.manager)
        out["retries"] = int(self.reliability.retries.total)
        out["faults"] = int(self.injector.faults_delivered)
        return out

    def invariants(self, out):
        requests = self.ops()
        commands = sum(out["ssd_reads"]) + sum(out["ssd_writes"])
        return [
            # a faulted command is not counted as completed; its retry is
            ("every request completes once",
             out["requests_done"] == requests and commands == requests,
             f"done={out['requests_done']} commands={commands} "
             f"submitted={requests} retries={out['retries']}"),
            ("no request fails fast on an open breaker",
             self.reliability.fail_fasts.total == 0,
             f"fail_fasts={self.reliability.fail_fasts.total}"),
            ("every fault recovered by one retry",
             out["faults"] == out["retries"],
             f"faults={out['faults']} retries={out['retries']}"),
        ]


class ServingKv:
    """CAM KV-cache serving: 12 SSDs, a 512-block KV store, a 2048-line
    GPU cache without readahead, and the metrics registry installed."""

    name = "serving_kv"
    op_unit = "session turn"
    loop = (
        "closed per session: Poisson arrivals, each next turn after "
        "the previous one and an exponential think time"
    )
    sizes = {
        "ssds": 12, "sessions": 3000, "kv_store_blocks": 512,
        "gpu_cache_lines": 2048, "block_bytes": 64 * KiB,
        "max_concurrent_decodes": 64, "turns": "2-4 per session",
    }

    def setup(self, seed):
        sizes = self.sizes
        self.platform = Platform(
            PlatformConfig(num_ssds=sizes["ssds"]), functional=False
        )
        install_metrics(self.platform.env)
        backend = make_backend("cam", self.platform)
        layout = KvLayout()
        self.store = KvBlockStore(
            self.platform, layout, capacity_blocks=sizes["kv_store_blocks"]
        )
        self.pool = SessionPool(SessionConfig(
            num_sessions=sizes["sessions"], seed=seed,
            mean_think_s=20e-3, turns_min=2, turns_max=4,
        ))
        self.turns = self.pool.total_turns
        self.gpu_cache = GpuCache(
            self.platform,
            capacity_bytes=sizes["gpu_cache_lines"] * layout.block_bytes,
            line_bytes=layout.block_bytes,
            readahead=False,
        )
        self.engine = ServingEngine(
            self.platform, backend, self.store, self.pool,
            max_concurrent_decodes=sizes["max_concurrent_decodes"],
            gpu_cache=self.gpu_cache,
        )

    def run(self, spans, pause):
        with spans.span("engine.run", turns=self.turns):
            self.result = self.engine.run()
        return self.turns

    def ops(self):
        return self.turns

    def outputs(self):
        result = self.result
        return {
            **_platform_outputs(self.platform),
            "turns_done": result.turns_done,
            "tokens_done": result.tokens_done,
            "ttft_p50": result.ttft_p50,
            "ttft_p99": result.ttft_p99,
            "kv_hits": result.kv_hits,
            "kv_misses": result.kv_misses,
            "kv_evictions": result.kv_evictions,
            "gpu_cache_hits": self.gpu_cache.hits,
            "gpu_cache_misses": self.gpu_cache.misses,
        }

    def invariants(self, out):
        return [
            ("every turn completes once",
             out["turns_done"] == self.turns
             and len(self.result.ttfts) == self.turns,
             f"done={out['turns_done']} ttfts={len(self.result.ttfts)} "
             f"submitted={self.turns}"),
            ("no turn re-rang on overload",
             self.result.overload_retries == 0,
             f"overload_retries={self.result.overload_retries}"),
        ]


class TieredZipf:
    """A zipf(1.5) 80/20 read/write 4 KiB trace replayed closed-loop
    through the write-back tier over 2 replica nodes."""

    name = "tiered_zipf"
    op_unit = "4 KiB storage request"
    loop = (
        "closed: 32 workers, each issues its next request on completion; "
        "the measured trace is replayed in 10 consecutive segments"
    )
    sizes = {
        "local_ssds": 2, "replica_nodes": 2, "tier_bytes": 16 * MiB,
        "hot_set_bytes": 8 * MiB, "warm_requests": 10_000,
        "requests": 30_000, "segments": 10, "concurrency": 32, "skew": 1.5,
        "write_fraction": 0.2, "granularity_bytes": 4 * KiB,
        # below the ~40 us remote read, so every tier miss is hedged; in
        # a fault-free run the primary always answers first
        "hedge_after_s": 20e-6,
    }

    def _trace(self, requests, seed):
        sizes = self.sizes
        return make_zipfian_trace(
            requests, granularity=sizes["granularity_bytes"],
            target_iops=10_000_000, skew=sizes["skew"],
            spread_blocks=sizes["hot_set_bytes"] // 512,
            write_fraction=sizes["write_fraction"], seed=seed,
        )

    def setup(self, seed):
        sizes = self.sizes
        self.platform = Platform(
            PlatformConfig(num_ssds=sizes["local_ssds"]), functional=False
        )
        self.backend = build_disagg(
            self.platform, num_nodes=sizes["replica_nodes"],
            functional=False, capacity_bytes=sizes["tier_bytes"],
            flush_watermark=64, deadline=10e-3,
            hedge_after=sizes["hedge_after_s"],
        )
        self.replayer = TraceReplayer(self.backend)
        warm = self._trace(sizes["warm_requests"], 2 * seed)
        trace = self._trace(sizes["requests"], 2 * seed + 1)
        # consecutive slices of one trace keep its hot set; the runner
        # times the host's speed between them
        bounds = np.linspace(0, len(trace), sizes["segments"] + 1, dtype=int)
        self.segments = [
            IOTrace(arrival=trace.arrival[lo:hi], lba=trace.lba[lo:hi],
                    nbytes=trace.nbytes[lo:hi],
                    is_write=trace.is_write[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self.replayer.replay(warm, open_loop=False,
                             concurrency=sizes["concurrency"])
        # the measured pass is counted from here
        self.warm_platform = _platform_outputs(self.platform)
        self.warm_counters = self._counters()

    def run(self, spans, pause):
        self.reports = []
        for index, segment in enumerate(self.segments):
            if index:
                pause()
            with spans.span("replay", requests=len(segment)):
                self.reports.append(self.replayer.replay(
                    segment, open_loop=False,
                    concurrency=self.sizes["concurrency"],
                ))
        return self.ops()

    def ops(self):
        return sum(len(segment) for segment in self.segments)

    def _counters(self):
        stats = self.backend.stats()
        remote = self.backend.remote
        return {
            "tier_hits": stats["hits"],
            "tier_misses": stats["misses"],
            "flushed_pages": stats["flushed_pages"],
            "remote_reads": remote.remote_reads.total,
            "hedged_reads": remote.hedged_reads.total,
            "hedge_wins": remote.hedge_wins.total,
        }

    def outputs(self):
        reports = self.reports
        out = {
            **_platform_outputs(self.platform, since=self.warm_platform),
            **{
                key: value - self.warm_counters[key]
                for key, value in self._counters().items()
            },
            "reads_done": sum(r.read_latency.count for r in reports),
            "writes_done": sum(r.write_latency.count for r in reports),
            "read_p99": [r.latency_percentile(99) for r in reports],
        }
        # the explicit drain comes after every replay-time counter above
        self.platform.env.run(
            self.platform.env.process(self.backend.sync())
        )
        out["dirty_after_sync"] = self.backend.dirty_pages()
        return out

    def invariants(self, out):
        requests = self.ops()
        return [
            ("every request completes once",
             out["reads_done"] + out["writes_done"] == requests,
             f"reads={out['reads_done']} writes={out['writes_done']} "
             f"submitted={requests}"),
            ("sync() drains the dirty log", out["dirty_after_sync"] == 0,
             f"dirty_after_sync={out['dirty_after_sync']}"),
            ("no remote timeout", self.backend.remote.remote_timeouts.total == 0,
             f"remote_timeouts={self.backend.remote.remote_timeouts.total}"),
        ]


WORKLOADS = {
    cls.name: cls for cls in (BatchRead, BatchMixedFaults, ServingKv, TieredZipf)
}
