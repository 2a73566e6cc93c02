"""Network-fabric link model + network fault injector.

:class:`FabricLink` is the network sibling of
:class:`~repro.hw.pcie.PCIeFabric`: a shared, serializing pipe
(:class:`~repro.sim.links.BandwidthLink`) carrying RDMA-style messages
between the GPU server and a remote all-flash node, plus the three
things a network has that a PCIe complex does not:

* **propagation latency with jitter** — a fixed one-way latency per
  message, widened by deterministic jitter (FNV-hashed per message, the
  same no-RNG discipline as
  :class:`~repro.reliability.policy.RetryPolicy`);
* **packet loss** — each message is lost with the link's current loss
  probability; the sender notices after ``retransmit_timeout`` and
  retransmits, up to ``max_retransmits`` before surfacing a typed
  :class:`~repro.errors.NetworkError`;
* **partitions** — while the link is partitioned every frame is dropped
  on the floor; senders burn ``partition_detect`` seconds (the
  heartbeat/TCP-RST stand-in) and then fail with
  :class:`~repro.errors.LinkPartitionedError` instead of hanging.

:class:`NetworkFaultInjector` mirrors the device-side
:class:`~repro.hw.faults.FaultInjector` API: faults are *planned* as
windows of simulated time (``partition`` with a heal time, ``flap``
trains, ``brownout`` latency episodes, ``lossy`` windows) and the link
consults the plan as a pure function of ``env.now`` — no background
processes, so an unused injector perturbs nothing.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    LinkPartitionedError,
    NetworkError,
)
from repro.sim.core import Environment
from repro.sim.links import BandwidthLink
from repro.sim.stats import Counter
from repro.units import US, gb_per_s


def _hash_unit(*parts: int) -> float:
    """Deterministic pseudo-random float in [0, 1) from integer parts
    (FNV-1a) — jitter and loss draws must not disturb RNG streams or
    depend on event order."""
    value = 2166136261
    for part in parts:
        value ^= part & 0xFFFFFFFF
        value = (value * 16777619) & 0xFFFFFFFF
    # FNV alone mixes consecutive small integers poorly (successive
    # retransmit draws for one message stay correlated, so a frame
    # could be "unlucky forever" at moderate loss rates); a murmur3
    # finalizer avalanches the low bits
    value ^= value >> 16
    value = (value * 0x85EBCA6B) & 0xFFFFFFFF
    value ^= value >> 13
    value = (value * 0xC2B2AE35) & 0xFFFFFFFF
    value ^= value >> 16
    return value / 2.0 ** 32


class NetworkFaultInjector:
    """Plants fabric-level failures as windows of simulated time.

    The network analogue of :class:`~repro.hw.faults.FaultInjector`:

    * :meth:`partition` — drop every frame on a link during
      ``[start, start + duration)``; the heal time is part of the plan;
    * :meth:`flap` — a train of short partitions (link bouncing);
    * :meth:`brownout` — multiply the link's latency during a window
      (congestion, a dying transceiver) without dropping frames;
    * :meth:`lossy` — raise the link's loss probability during a window;
    * :meth:`set_partitioned` — immediate manual control, for tests and
      degraded-mode scenarios that partition "now".

    Every query is a pure function of ``(link_id, now)`` so replaying a
    simulation replays the faults exactly.
    """

    def __init__(self):
        self._manual: set = set()
        #: link_id -> [(start, end)] partition windows
        self._partitions: Dict[str, List[Tuple[float, float]]] = {}
        #: link_id -> [(start, end, factor)] latency brownouts
        self._brownouts: Dict[str, List[Tuple[float, float, float]]] = {}
        #: link_id -> [(start, end, loss_rate)] lossy windows
        self._loss: Dict[str, List[Tuple[float, float, float]]] = {}
        self.partitions_planted = 0

    # -- planting -------------------------------------------------------
    def partition(
        self,
        link_id: str,
        start: float = 0.0,
        duration: float = float("inf"),
    ) -> None:
        """Partition ``link_id`` for ``[start, start + duration)``; the
        link heals itself when the window closes."""
        if duration <= 0:
            raise ConfigurationError(
                f"partition duration must be positive, got {duration}"
            )
        self._partitions.setdefault(link_id, []).append(
            (start, start + duration)
        )
        self.partitions_planted += 1

    def flap(
        self,
        link_id: str,
        start: float,
        period: float,
        count: int,
        down_fraction: float = 0.5,
    ) -> None:
        """A train of ``count`` short partitions: every ``period``
        seconds the link goes down for ``period * down_fraction``."""
        if period <= 0 or count < 1:
            raise ConfigurationError("flap needs period > 0 and count >= 1")
        if not 0.0 < down_fraction < 1.0:
            raise ConfigurationError(
                f"down_fraction must be in (0, 1), got {down_fraction}"
            )
        for index in range(count):
            self.partition(
                link_id, start + index * period, period * down_fraction
            )

    def brownout(
        self,
        link_id: str,
        factor: float,
        start: float = 0.0,
        duration: float = float("inf"),
    ) -> None:
        """Multiply ``link_id``'s latency by ``factor`` during the
        window (mirrors :meth:`FaultInjector.degrade`)."""
        if factor < 1.0:
            raise ConfigurationError(
                f"brownout factor must be >= 1, got {factor}"
            )
        self._brownouts.setdefault(link_id, []).append(
            (start, start + duration, factor)
        )

    def lossy(
        self,
        link_id: str,
        loss_rate: float,
        start: float = 0.0,
        duration: float = float("inf"),
    ) -> None:
        """Drop each frame with probability ``loss_rate`` during the
        window (on top of the link's base loss rate)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1], got {loss_rate}"
            )
        self._loss.setdefault(link_id, []).append(
            (start, start + duration, loss_rate)
        )

    # -- manual control -------------------------------------------------
    def set_partitioned(self, link_id: str, partitioned: bool = True) -> None:
        """Partition (or heal) a link immediately, outside any window."""
        if partitioned:
            if link_id not in self._manual:
                self._manual.add(link_id)
                self.partitions_planted += 1
        else:
            self._manual.discard(link_id)

    # -- the link-side checks -------------------------------------------
    def is_partitioned(self, link_id: str, now: float) -> bool:
        if link_id in self._manual:
            return True
        for start, end in self._partitions.get(link_id, ()):
            if start <= now < end:
                return True
        return False

    def latency_factor(self, link_id: str, now: float) -> float:
        factor = 1.0
        for start, end, episode in self._brownouts.get(link_id, ()):
            if start <= now < end:
                factor *= episode
        return factor

    def loss_rate(self, link_id: str, now: float) -> float:
        rate = 0.0
        for start, end, episode in self._loss.get(link_id, ()):
            if start <= now < end:
                rate = 1.0 - (1.0 - rate) * (1.0 - episode)
        return rate

    def next_heal(self, link_id: str, now: float) -> Optional[float]:
        """When the partition covering ``now`` ends (``None`` when the
        link is up, ``inf`` while manually partitioned)."""
        if link_id in self._manual:
            return float("inf")
        heal = None
        for start, end in self._partitions.get(link_id, ()):
            if start <= now < end and (heal is None or end > heal):
                heal = end
        return heal


class FabricLink:
    """One network link between the GPU server and a remote flash node.

    Defaults model a 100 GbE / RDMA-style fabric: 12.5 GB/s raw, ~5 us
    one-way latency, 4 KiB MTU payloads with per-frame header overhead.
    The wire itself is a :class:`~repro.sim.links.BandwidthLink`, so
    concurrent messages share bandwidth exactly like PCIe transfers do.
    """

    def __init__(
        self,
        env: Environment,
        link_id: str,
        bandwidth: float = gb_per_s(12.5),
        latency: float = 5 * US,
        jitter: float = 1 * US,
        mtu_payload: int = 4096,
        header_bytes: int = 66,
        loss_rate: float = 0.0,
        retransmit_timeout: float = 100 * US,
        max_retransmits: int = 4,
        partition_detect: float = 50 * US,
        fault_injector: Optional[NetworkFaultInjector] = None,
    ):
        if latency < 0 or jitter < 0:
            raise ConfigurationError("latency and jitter must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        if max_retransmits < 0:
            raise ConfigurationError("max_retransmits must be >= 0")
        if partition_detect <= 0 or retransmit_timeout <= 0:
            raise ConfigurationError(
                "partition_detect and retransmit_timeout must be positive"
            )
        self.env = env
        self.link_id = link_id
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.retransmit_timeout = retransmit_timeout
        self.max_retransmits = max_retransmits
        self.partition_detect = partition_detect
        self.fault_injector = fault_injector
        self.wire = BandwidthLink(
            env,
            name=f"net:{link_id}",
            bandwidth=bandwidth,
            header_bytes=header_bytes,
            max_payload=mtu_payload,
            transaction_bytes=header_bytes,
            chunk_bytes=256 * 1024,
        )
        self.transfers = Counter(env)
        self.retransmits = Counter(env)
        self.drops = Counter(env)
        #: transfers that failed on a partitioned link
        self.partition_failures = Counter(env)
        self._seq = 0
        #: last partitioned state this link *observed* (drives the
        #: net_link_down / net_link_up tracer instants)
        self._seen_down = False
        self._instruments = None

    # -- state ----------------------------------------------------------
    def is_partitioned(self, now: Optional[float] = None) -> bool:
        if self.fault_injector is None:
            return False
        return self.fault_injector.is_partitioned(
            self.link_id, self.env.now if now is None else now
        )

    def _latency_now(self, draw: float) -> float:
        factor = (
            self.fault_injector.latency_factor(self.link_id, self.env.now)
            if self.fault_injector is not None
            else 1.0
        )
        return self.latency * factor + self.jitter * draw

    def _loss_now(self) -> float:
        extra = (
            self.fault_injector.loss_rate(self.link_id, self.env.now)
            if self.fault_injector is not None
            else 0.0
        )
        return 1.0 - (1.0 - self.loss_rate) * (1.0 - extra)

    def _observe(self, down: bool) -> None:
        if down == self._seen_down:
            return
        self._seen_down = down
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "net_link_down" if down else "net_link_up",
                link=self.link_id,
            )

    # -- transfers ------------------------------------------------------
    def transfer(self, nbytes: int, trace_ctx=None) -> Generator:
        """Process: move one ``nbytes`` message across the link.

        Raises :class:`LinkPartitionedError` after ``partition_detect``
        seconds when the link is (or goes) down, and
        :class:`NetworkError` once ``max_retransmits`` retransmissions
        were lost.  Never hangs.

        ``trace_ctx`` (a :class:`~repro.obs.causal.RequestContext`)
        wraps the whole transfer — retransmissions and partition
        detection included — in one ``fabric_transfer`` span so the
        critical-path analyzer can attribute fabric time per request.
        """
        env = self.env
        self._seq += 1
        seq = self._seq
        attempts = 0
        fabric_span = (
            trace_ctx.begin(
                "fabric_transfer", link=self.link_id, bytes=nbytes
            )
            if trace_ctx is not None else None
        )
        try:
            result = yield from self._transfer_inner(
                nbytes, seq, fabric_span
            )
            return result
        finally:
            if fabric_span is not None:
                trace_ctx.end(fabric_span)

    def _transfer_inner(self, nbytes: int, seq: int,
                        fabric_span) -> Generator:
        env = self.env
        attempts = 0
        while True:
            if self.is_partitioned():
                self._observe(True)
                self.drops.add()
                self.partition_failures.add()
                self._publish()
                yield env.timeout(self.partition_detect)
                raise LinkPartitionedError(
                    f"link {self.link_id} partitioned "
                    f"({nbytes} B message dropped)",
                    link_id=self.link_id,
                    attempts=attempts + 1,
                )
            self._observe(False)
            attempts += 1
            draw = _hash_unit(seq, attempts, nbytes)
            yield from self.wire.transfer(
                nbytes, extra_latency=self._latency_now(draw)
            )
            if self.is_partitioned():
                # the partition opened mid-flight: the frame is gone
                continue
            loss = self._loss_now()
            if loss and _hash_unit(seq, attempts, 0x10C5) < loss:
                self.drops.add()
                if attempts > self.max_retransmits:
                    self._publish()
                    raise NetworkError(
                        f"link {self.link_id}: message lost "
                        f"{attempts} times (loss rate {loss:.3f})",
                        link_id=self.link_id,
                        attempts=attempts,
                    )
                self.retransmits.add()
                yield env.timeout(self.retransmit_timeout)
                continue
            self.transfers.add()
            self._publish()
            return nbytes

    def ping(self, nbytes: int = 64) -> Generator:
        """Process: one tiny round-trip message — the heal probe."""
        yield from self.transfer(nbytes)
        yield from self.transfer(nbytes)
        return True

    # -- stats ----------------------------------------------------------
    def throughput(self) -> float:
        return self.wire.throughput()

    def utilization(self) -> float:
        return self.wire.utilization()

    def reset_stats(self) -> None:
        self.wire.reset_stats()
        self.transfers.reset()
        self.retransmits.reset()
        self.drops.reset()
        self.partition_failures.reset()

    # -- live metrics ---------------------------------------------------
    def _publish(self) -> None:
        """Mirror link counters into the live metrics registry (pure
        arithmetic guarded on ``metrics.enabled``, like every hot-path
        push — a metrics-on run stays bit-identical)."""
        metrics = self.env.metrics
        if not metrics.enabled:
            return
        registry = metrics.registry
        if self._instruments is None or self._instruments[0] is not registry:
            specs = (
                ("cam_net_transfers_total", "counter",
                 "messages delivered per fabric link"),
                ("cam_net_bytes_total", "counter",
                 "payload bytes delivered per fabric link"),
                ("cam_net_retransmits_total", "counter",
                 "messages retransmitted after a loss"),
                ("cam_net_drops_total", "counter",
                 "frames dropped (loss + partition)"),
                ("cam_net_link_down", "gauge",
                 "1 while the link observes itself partitioned"),
            )
            self._instruments = (registry, *(
                registry.ensure(name, kind, help=text, labels=("link",))
                .labels(self.link_id)
                for name, kind, text in specs
            ))
        _, transfers, nbytes, retrans, drops, down = self._instruments
        transfers.set_total(self.transfers.total)
        nbytes.set_total(self.wire.bytes_moved.total)
        retrans.set_total(self.retransmits.total)
        drops.set_total(self.drops.total)
        down.set(1.0 if self._seen_down else 0.0)

    def publish(self) -> None:
        """Pull-refresh for the sampler (also updates the down gauge
        from the *current* injector state, not just the last observer)."""
        self._seen_down = self.is_partitioned()
        self._publish()

    def __repr__(self) -> str:
        return (
            f"<FabricLink {self.link_id} "
            f"{self.wire.bandwidth / 1e9:.1f}GB/s {self.latency * 1e6:.1f}us>"
        )
