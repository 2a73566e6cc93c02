"""Pins for the coalesced batch walk (:meth:`SpdkDriver.io_batch`).

Three groups of checks:

* the two fail-fast walk edges the differential suites never reach — an
  elastic remap landing mid-group (the group drains on its original
  reactor) and a reactor crash mid-group (unsubmitted items come back as
  :class:`~repro.errors.ReactorOfflineError`) — pinned to the exact
  simulated outputs and checked against the fan-out path;
* heap-event gates: ``env.events_processed`` for three small runs.  The
  count does not depend on the host, so a walk that starts spending
  extra events per item or per walk fails here before it shows up as
  host time;
* batch-level error typing: a batch whose reactor died with no failover
  surfaces a :class:`~repro.errors.ReactorOfflineError` on every
  {coalesce} x {reliability} combination.
"""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ConfigurationError, DeviceError, ReactorOfflineError
from repro.hw.platform import Platform
from repro.reliability import Reliability
from repro.spdk.driver import SpdkDriver


def _run(
    coalesce=True,
    reliable=False,
    num_ssds=4,
    num_cores=2,
    requests=32,
    batches=1,
    event=None,
):
    """Ring ``batches`` read batches one after another; return every
    observable.  ``event`` is ``(at_seconds, callable(manager))`` fired
    once, mid-flight."""
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    manager = CamManager(
        platform,
        num_cores=num_cores,
        coalesce=coalesce,
        reliability=Reliability(platform) if reliable else None,
    )
    env = platform.env
    if event is not None:
        at, action = event

        def fire():
            yield env.timeout(at)
            action(manager)

        env.process(fire())
    outcomes = []
    for index in range(batches):
        lbas = (np.arange(requests, dtype=np.int64) * 7 + index * 13) % (
            1 << 18
        )
        done = manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        )
        try:
            outcomes.append(("ok", env.run(done)))
        except DeviceError as error:
            outcomes.append(("err", error))
    return {
        "outcomes": outcomes,
        "latencies": [tuple(s.read_latency._samples) for s in platform.ssds],
        "counts": [s.reads_completed.total for s in platform.ssds],
        "sim_end": env.now,
        "events": env.events_processed,
        "driver": manager.driver,
    }


def _shrink_to_one(manager):
    manager.set_active_reactors(1)


def _crash_reactor_0(manager):
    manager.driver.pool.reactors[0].crash()


# the walk starts 1.75 us after the ring and spends 0.9 us per item, so
# 10 us lands in the middle of both 16-item groups
MID_GROUP = 10e-6

REMAP_LATENCIES = [
    (
        2.7526652014652014e-05, 2.8055223443223446e-05,
        2.7742271062271065e-05, 2.752665201465202e-05,
        2.7526652014652014e-05, 2.7526652014652014e-05,
        2.7526652014652017e-05, 2.7526652014652014e-05,
    ),
    (
        2.774227106227106e-05, 2.7742271062271065e-05,
        2.774227106227107e-05, 2.7742271062271065e-05,
        2.7526652014652014e-05, 2.7526652014652014e-05,
        2.8055223443223442e-05, 2.7742271062271065e-05,
    ),
    (
        2.7526652014652014e-05, 2.7526652014652017e-05,
        2.7526652014652014e-05, 2.7526652014652017e-05,
        2.8055223443223446e-05, 2.7742271062271065e-05,
        2.752665201465202e-05, 2.752665201465202e-05,
    ),
    (
        2.752665201465202e-05, 2.7526652014652014e-05,
        2.8055223443223442e-05, 2.7742271062271065e-05,
        2.7742271062271068e-05, 2.7742271062271065e-05,
        2.774227106227107e-05, 2.774227106227107e-05,
    ),
]

CRASH_LATENCIES = [
    (
        2.7526652014652014e-05, 2.8055223443223446e-05,
        2.7742271062271065e-05, 2.752665201465202e-05,
        2.7526652014652014e-05,
    ),
    (
        2.774227106227106e-05, 2.7742271062271065e-05,
        2.774227106227107e-05, 2.7742271062271065e-05,
        2.7526652014652014e-05, 2.7526652014652014e-05,
        2.8055223443223442e-05, 2.7683794871794876e-05,
    ),
    (
        2.7526652014652014e-05, 2.7526652014652017e-05,
        2.7526652014652014e-05, 2.7526652014652017e-05,
        2.8055223443223446e-05,
    ),
    (
        2.752665201465202e-05, 2.7526652014652014e-05,
        2.8055223443223442e-05, 2.7742271062271065e-05,
        2.7742271062271068e-05, 2.7526652014652014e-05,
        2.752665201465202e-05, 2.752665201465202e-05,
    ),
]


# -- fail-fast walk edges ---------------------------------------------------

def test_failfast_remap_mid_group_drains_on_original_reactor():
    run = _run(event=(MID_GROUP, _shrink_to_one))
    driver = run["driver"]
    # the remap really moved SSDs while the group was in flight
    assert driver.resize_epoch == 1
    assert run["outcomes"] == [("ok", 4.389227106227107e-05)]
    assert run["sim_end"] == 4.389227106227107e-05
    assert run["latencies"] == REMAP_LATENCIES
    assert run["counts"] == [8.0, 8.0, 8.0, 8.0]
    assert driver.requests_done.total == 32
    assert driver.duplicate_completions == 0
    fanout = _run(coalesce=False, event=(MID_GROUP, _shrink_to_one))
    assert fanout["sim_end"] == run["sim_end"]
    assert fanout["latencies"] == run["latencies"]


def test_failfast_crash_mid_group_types_unsubmitted_items():
    run = _run(event=(MID_GROUP, _crash_reactor_0))
    driver = run["driver"]
    [(kind, error)] = run["outcomes"]
    assert kind == "err"
    assert isinstance(error, DeviceError)
    assert str(error).startswith("6 of 32 requests failed")
    assert run["sim_end"] == 4.367665201465202e-05
    assert run["latencies"] == CRASH_LATENCIES
    # reactor 0 owns SSDs 0 and 2: three items each never hit the wire
    assert run["counts"] == [5.0, 8.0, 5.0, 8.0]
    assert driver.requests_done.total == 26
    assert driver.duplicate_completions == 0
    fanout = _run(coalesce=False, event=(MID_GROUP, _crash_reactor_0))
    assert fanout["sim_end"] == run["sim_end"]
    assert fanout["latencies"] == run["latencies"]
    assert str(fanout["outcomes"][0][1]) == str(error)


def test_reliable_walk_rejects_mixed_group_without_remap():
    """The mixed-group guard covers both modes: only a remap after the
    group was formed may move an SSD off the group's reactor."""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    driver = SpdkDriver(
        platform, num_reactors=2, reliability=Reliability(platform)
    )
    # SSDs 0 and 1 live on different reactors under round-robin
    items = [(0, 0, 0, None), (1, 1, 0, None)]

    def caller():
        yield from driver.io_batch(items, 4096)

    with pytest.raises(ConfigurationError):
        platform.env.run(platform.env.process(caller()))


# -- heap-event gates -------------------------------------------------------

# measured while fail-fast and reliable groups still had separate walks;
# the single walk must spend exactly as many heap events
EVENTS_FAILFAST = 14392
EVENTS_RELIABLE = 18472
EVENTS_TINY = 2760


def test_event_gate_failfast_batches():
    run = _run(num_ssds=8, num_cores=None, requests=1024, batches=2)
    assert run["events"] == EVENTS_FAILFAST


def test_event_gate_reliable_batches():
    run = _run(
        reliable=True, num_ssds=8, num_cores=None, requests=1024, batches=2
    )
    assert run["events"] == EVENTS_RELIABLE


def test_event_gate_many_tiny_walks():
    run = _run(num_ssds=8, num_cores=None, requests=4, batches=64)
    assert run["events"] == EVENTS_TINY


# -- batch-level error typing -----------------------------------------------

@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("reliable", [False, True])
def test_dead_reactor_batch_surfaces_reactor_offline(coalesce, reliable):
    run = _run(
        coalesce=coalesce,
        reliable=reliable,
        requests=256,
        event=(20e-6, _crash_reactor_0),
    )
    [(kind, error)] = run["outcomes"]
    assert kind == "err"
    assert type(error) is ReactorOfflineError
    assert str(error).startswith("107 of 256 requests failed")
    assert error.reactor_id == 0
    # reactor 0 owns the even SSDs under round-robin
    assert error.ssd_id in (0, 2)
    assert error.lba is not None
