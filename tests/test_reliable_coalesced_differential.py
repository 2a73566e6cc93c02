"""Differential tests: coalesced + reliability vs fan-out + reliability.

ISSUE 4's tentpole claim is that attaching the reliability bundle no
longer downgrades the manager to per-request fan-out: the coalesced path
(:meth:`~repro.spdk.driver.SpdkDriver.io_batch`) peels failed
commands off the completion group and re-drives them through the same
:meth:`~repro.reliability.Reliability.run` loop the fan-out path uses.
Every simulated quantity — batch outcomes, per-request device latencies
(values *and* completion order), retry/fault/breaker counters, watchdog
firings, and the final simulated clock — must match the fan-out path bit
for bit.  Heap-event counts are the one thing allowed (expected) to
differ: coalescing exists to shrink them.
"""

import numpy as np

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import (
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
)
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.reliability import Reliability


def _run_batches(
    coalesce,
    num_ssds=4,
    num_cores=2,
    requests=256,
    is_write=False,
    batches=2,
    error_rate=0.0,
    persistent_faults=(),
    offline=None,
):
    """Run ``batches`` deterministic batches with a reliability bundle;
    return everything observable.

    ``persistent_faults`` is a list of ``(ssd_id, local_lba)`` pairs;
    ``offline`` is ``(ssd_id, at_seconds)`` to drop a device mid-flight.
    """
    injector = FaultInjector(seed=7, error_rate=error_rate)
    for ssd_id, local_lba in persistent_faults:
        injector.inject_lba(ssd_id, local_lba, persistent=True)
    platform = Platform(
        PlatformConfig(num_ssds=num_ssds), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform)
    manager = CamManager(
        platform, num_cores=num_cores, coalesce=coalesce,
        reliability=reliability,
    )
    env = platform.env
    if offline is not None:
        ssd_id, at = offline

        def drop():
            yield env.timeout(at)
            injector.set_offline(ssd_id)

        env.process(drop())
    outcomes = []
    for index in range(batches):
        lbas = (np.arange(requests, dtype=np.int64) * 7 + index * 13) % (
            1 << 18
        )
        done = manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=is_write)
        )
        try:
            outcomes.append(("ok", env.run(done)))
        except DeviceError as error:
            outcomes.append(("err", type(error).__name__, str(error)))
    stat = "write_latency" if is_write else "read_latency"
    latencies = [tuple(getattr(s, stat)._samples) for s in platform.ssds]
    counts = [
        (s.reads_completed.total, s.writes_completed.total, s.faults_reported)
        for s in platform.ssds
    ]
    return {
        "outcomes": outcomes,
        "latencies": latencies,
        "counts": counts,
        "sim_end": env.now,
        "events": env.events_processed,
        "requests_done": manager.requests_done.total,
        "retries": reliability.retries.total,
        "fail_fasts": reliability.fail_fasts.total,
        "watchdog_timeouts": (
            reliability.watchdog.timeouts_fired
            if reliability.watchdog is not None
            else 0
        ),
        "health": reliability.health.snapshot(),
        "breaker_trips": reliability.health.breaker_trips.total,
        "faults_delivered": injector.faults_delivered,
        "duplicates": manager.driver.duplicate_completions,
    }


def _assert_identical(fanout, coalesced):
    assert coalesced["outcomes"] == fanout["outcomes"]
    # per-SSD latency sample lists pin both the values and the completion
    # order of every individual device command (including retries)
    assert coalesced["latencies"] == fanout["latencies"]
    assert coalesced["counts"] == fanout["counts"]
    assert coalesced["sim_end"] == fanout["sim_end"]
    assert coalesced["requests_done"] == fanout["requests_done"]
    assert coalesced["retries"] == fanout["retries"]
    assert coalesced["fail_fasts"] == fanout["fail_fasts"]
    assert coalesced["watchdog_timeouts"] == fanout["watchdog_timeouts"]
    assert coalesced["health"] == fanout["health"]
    assert coalesced["breaker_trips"] == fanout["breaker_trips"]
    assert coalesced["faults_delivered"] == fanout["faults_delivered"]
    assert coalesced["duplicates"] == 0
    assert fanout["duplicates"] == 0


def test_fault_free_reliable_batches_identical():
    fanout = _run_batches(False)
    coalesced = _run_batches(True)
    assert all(o[0] == "ok" for o in fanout["outcomes"])
    _assert_identical(fanout, coalesced)


def test_fault_free_reliable_writes_identical():
    fanout = _run_batches(False, is_write=True)
    coalesced = _run_batches(True, is_write=True)
    _assert_identical(fanout, coalesced)


def test_transient_faults_retried_identically():
    fanout = _run_batches(False, error_rate=0.02)
    coalesced = _run_batches(True, error_rate=0.02)
    assert fanout["retries"] > 0, (
        "fault config produced no retries; raise error_rate"
    )
    _assert_identical(fanout, coalesced)


def test_shared_reactor_reliable_batches_identical():
    # more SSDs than reactors: groups span SSDs on the same reactor
    fanout = _run_batches(
        False, num_ssds=8, num_cores=3, requests=512, error_rate=0.01
    )
    coalesced = _run_batches(
        True, num_ssds=8, num_cores=3, requests=512, error_rate=0.01
    )
    _assert_identical(fanout, coalesced)


def test_persistent_fault_exhausts_retries_identically():
    # LBA 0 of SSD 0 is hit by the deterministic batch pattern
    fanout = _run_batches(False, persistent_faults=[(0, 0)])
    coalesced = _run_batches(True, persistent_faults=[(0, 0)])
    assert any(o[0] == "err" for o in fanout["outcomes"]), (
        "persistent fault never surfaced; check the LBA pattern"
    )
    assert fanout["retries"] > 0
    _assert_identical(fanout, coalesced)


def test_mid_flight_offline_device_identical():
    """Satellite (b): ``set_offline`` mid-flight on a coalesced group
    produces the same typed errors and completion counts as fan-out."""
    fanout = _run_batches(False, offline=(1, 50e-6), batches=1)
    coalesced = _run_batches(True, offline=(1, 50e-6), batches=1)
    assert fanout["outcomes"][0][0] == "err"
    assert fanout["outcomes"][0][1] in (
        "DeviceOfflineError", "DeviceTimeoutError"
    )
    assert fanout["watchdog_timeouts"] > 0
    _assert_identical(fanout, coalesced)


def test_reliable_coalesced_processes_fewer_events():
    fanout = _run_batches(False, num_ssds=8, num_cores=3, requests=512)
    coalesced = _run_batches(True, num_ssds=8, num_cores=3, requests=512)
    # the point of the exercise: same simulation, fewer heap events
    assert coalesced["events"] < 0.7 * fanout["events"]


# -- satellite (a): the silent downgrade is gone ---------------------------

def test_manager_keeps_coalesce_with_reliability():
    """``coalesce=True`` + a reliability bundle must stay coalesced —
    the PR 3 guard that silently downgraded to fan-out is deleted."""
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    reliability = Reliability(platform)
    manager = CamManager(platform, reliability=reliability, coalesce=True)
    assert manager.coalesce is True


def test_driver_routes_reliable_batches_through_io_batch():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    reliability = Reliability(platform)
    manager = CamManager(platform, reliability=reliability, coalesce=True)
    calls = []
    original = manager.driver.io_batch

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    manager.driver.io_batch = spy
    lbas = np.arange(32, dtype=np.int64) * 8
    platform.env.run(
        manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        )
    )
    assert calls, "coalesced reliable batches must use io_batch"
