"""ServingEngine: completion, overlap, and composition with the
reliability / admission / elastic / telemetry subsystems."""

import numpy as np
import pytest

from repro.backends.base import make_backend
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.serving import (
    KvBlockStore,
    KvLayout,
    ServingEngine,
    SessionConfig,
    SessionPool,
)


def _engine(backend_name="cam", num_sessions=30, capacity=256,
            injector=None, reliability=None, seed=17, **engine_kwargs):
    platform = Platform(
        PlatformConfig(num_ssds=4), functional=False,
        fault_injector=injector,
    )
    kwargs = {}
    if reliability is not None:
        kwargs["reliability"] = reliability(platform)
    backend = make_backend(backend_name, platform, **kwargs)
    store = KvBlockStore(platform, KvLayout(), capacity_blocks=capacity)
    pool = SessionPool(SessionConfig(num_sessions=num_sessions, seed=seed,
                                     mean_think_s=5e-3,
                                     turns_min=2, turns_max=3))
    engine_kwargs.setdefault("max_concurrent_decodes", 16)
    engine = ServingEngine(platform, backend, store, pool, **engine_kwargs)
    return platform, engine


def test_every_turn_completes_with_a_ttft():
    _, engine = _engine()
    result = engine.run()
    assert result.turns_done == engine.pool.total_turns
    assert result.tokens_done == engine.pool.total_decode_tokens
    assert len(result.ttfts) == result.turns_done
    assert len(result.queue_waits) == result.turns_done
    assert all(t > 0 for t in result.ttfts)
    assert all(w >= 0 for w in result.queue_waits)
    assert result.elapsed_s > 0
    assert result.ttft_p50 <= result.ttft_p99
    assert result.kv_hits + result.kv_misses > 0


def test_engine_validation():
    with pytest.raises(ConfigurationError):
        _engine(max_concurrent_decodes=0)
    with pytest.raises(ConfigurationError):
        _engine(decode_time_per_token=0.0)


def test_overlap_defaults_to_cam_only():
    _, cam = _engine("cam")
    assert cam.overlap
    _, bam = _engine("bam")
    assert not bam.overlap


def test_cam_overlap_beats_cam_serial():
    """The async-API win in isolation: the same CAM run with overlap
    forced off pays the KV loads on the critical path."""
    _, overlapped = _engine("cam", num_sessions=80, capacity=128)
    _, serial = _engine("cam", num_sessions=80, capacity=128,
                        overlap=False)
    fast = overlapped.run()
    slow = serial.run()
    assert fast.ttfts != slow.ttfts
    assert fast.ttft_p99 <= slow.ttft_p99
    assert fast.elapsed_s <= slow.elapsed_s


def test_cam_beats_bam_under_memory_pressure():
    """The headline gate at test scale: with evicted KV on the turn
    critical path, CAM's TTFT tail beats the synchronous backend."""
    from repro.experiments.serving import serve_once

    cam, _ = serve_once("cam", 250)
    bam, _ = serve_once("bam", 250)
    assert cam.kv_misses > 0  # the regime is actually exercised
    assert cam.ttft_p99 < bam.ttft_p99


def test_window_policy_engine_run_is_pinned(monkeypatch):
    """The sliding-window victim path at engine scale: 250 sessions over
    the 512-block store, where dead blocks outside the prefix and the
    window are evicted first.  Every value is simulated, so any change
    to the victim order shows up here."""
    import repro.experiments.serving as serving
    from repro.serving import SlidingWindowPolicy

    platforms = []

    class _Recorded(serving.Platform):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            platforms.append(self)

    monkeypatch.setattr(serving, "Platform", _Recorded)
    result, _ = serving.serve_once(
        "cam", 250,
        policy=SlidingWindowPolicy(window_blocks=2, prefix_blocks=1),
    )
    assert (result.kv_hits, result.kv_misses, result.kv_evictions) == (
        1002, 1850, 3268,
    )
    assert result.ttft_p50 == 0.000302891670329708
    assert result.ttft_p99 == 0.002118700000000003
    assert platforms[0].env.events_processed == 45719


def test_metrics_on_run_is_bit_identical():
    """Telemetry observes the run, it never changes it: the
    instrumented run replays the exact simulated history."""
    from repro.experiments.serving import serve_once

    plain, end_plain = serve_once("cam", 60)
    instrumented, end_instrumented = serve_once("cam", 60, metrics=True)
    assert end_plain == end_instrumented
    assert plain.ttfts == instrumented.ttfts
    assert plain.queue_waits == instrumented.queue_waits
    assert plain.kv_evictions == instrumented.kv_evictions


def test_serving_metrics_families_populated():
    from repro.obs import install_metrics

    platform, engine = _engine()
    metrics = install_metrics(platform.env)
    result = engine.run()
    snap = metrics.registry.snapshot()
    assert snap["serving_turns_total"] == result.turns_done
    assert snap["serving_tokens_total"] == result.tokens_done
    assert snap["serving_ttft_seconds:count"] == result.turns_done
    assert snap["serving_kv_hits_total"] == result.kv_hits
    assert snap["serving_kv_misses_total"] == result.kv_misses
    assert snap["serving_active_sessions"] == 0  # all finished
    assert snap["serving_ttft_seconds:p99"] > 0


def test_transient_faults_recover_through_reliability():
    """A one-shot media fault on a KV write-back retries invisibly:
    the serving run completes with no engine-level special case."""
    from repro.reliability import Reliability

    injector = FaultInjector()
    platform, engine = _engine(
        "cam", injector=injector, reliability=Reliability,
    )
    ssd, local = platform.ssd_for_lba(0, engine.store.stripe_blocks)
    injector.inject_lba(ssd.ssd_id, local)  # one-shot
    result = engine.run()
    assert result.turns_done == engine.pool.total_turns
    assert engine.backend.context.reliability.retries.total >= 1
    assert injector.faults_delivered == 1


def test_admission_shed_retries_and_completes():
    """Admission control composes: sheds surface as OverloadError,
    the engine backs off and re-rings, every turn still completes."""
    from repro.reliability.admission import AdmissionController

    platform, engine = _engine("cam", num_sessions=60, capacity=128)
    engine.backend.manager.admission = AdmissionController(
        platform.env, max_inflight_requests=24,
    )
    result = engine.run()
    assert result.turns_done == engine.pool.total_turns
    assert result.overload_retries > 0


def test_elastic_controller_rides_along():
    """The closed-loop core tuner runs over a serving workload: cores
    stay inside the policy band and the run completes unchanged."""
    from repro.core import ElasticController, ElasticCorePolicy
    from repro.obs import install_metrics, install_sampler

    platform, engine = _engine("cam", num_sessions=60, capacity=128)
    metrics = install_metrics(platform.env)
    sampler = install_sampler(
        metrics, manager=engine.backend.manager, interval=100e-6,
    )
    controller = ElasticController(
        sampler,
        manager=engine.backend.manager,
        policy=ElasticCorePolicy(num_ssds=platform.num_ssds),
    )
    result = engine.run()
    controller.stop()
    sampler.stop()
    assert result.turns_done == engine.pool.total_turns
    lo, hi = controller.policy.bounds
    cores = [int(v) for _, v in sampler.series("cam_active_cores")]
    assert cores and all(lo <= c <= hi for c in cores)


def test_serving_registered_as_experiment():
    from repro.experiments.registry import EXTRAS, get_experiment

    assert EXTRAS["serving"] == "repro.experiments.serving:run_serving"
    runner = get_experiment("serving")
    assert callable(runner)
