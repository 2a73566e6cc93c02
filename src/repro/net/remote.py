"""Remote all-flash nodes behind fabric links (the GNStor ingredient).

:class:`RemoteFlashBackend` speaks the same
:class:`~repro.backends.base.StorageBackend` interface as every local
control plane, but each operation crosses a :class:`~repro.net.fabric.
FabricLink` to one of N replica nodes — a remote array that holds a
full copy of the LBA space.  The partition-tolerance machinery reuses
:mod:`repro.reliability` wholesale:

* **deadline reads/writes** — every operation is guarded by a
  :class:`~repro.reliability.watchdog.CompletionWatchdog`; a remote node
  that never answers surfaces as a typed
  :class:`~repro.errors.RemoteTimeoutError` instead of a hang;
* **hedged reads** — when the primary has not answered within
  ``hedge_after``, the same read is launched against a replica node and
  the first success wins (the classic tail-tolerant hedge);
* **per-link circuit breakers** — a
  :class:`~repro.reliability.health.HealthTracker` keyed by *node id*
  trips after consecutive failures, steering traffic to surviving
  replicas without burning deadlines against a dead link.

Writes replicate to every breaker-admitted node.  With
``write_acks="all"`` (the default) a write succeeds only when **every**
data node acked — replicas never diverge, which is what the tiered
backend's dirty-log resync relies on; ``write_acks="one"`` gives RAID1
availability semantics instead (first ack wins, stragglers are counted
as degraded writes).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.backends.base import StorageBackend
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceTimeoutError,
    NetworkError,
    RemoteTimeoutError,
    RemoteUnavailableError,
)
from repro.net.fabric import FabricLink
from repro.reliability.health import HealthTracker
from repro.reliability.watchdog import CompletionWatchdog
from repro.sim.stats import Counter


class RemoteNode:
    """One remote all-flash node: a fabric link + the node's backend."""

    def __init__(self, node_id: int, link: FabricLink,
                 backend: StorageBackend):
        self.node_id = node_id
        self.link = link
        self.backend = backend

    def __repr__(self) -> str:
        return f"<RemoteNode {self.node_id} via {self.link.link_id}>"


class RemoteFlashBackend(StorageBackend):
    """Replicated remote flash behind deadline + hedged + breaker reads."""

    model_name = "remote"
    accepts_trace_ctx = True

    def __init__(
        self,
        platform,
        nodes: Sequence[RemoteNode],
        deadline: float = 2e-3,
        hedge_after: Optional[float] = 200e-6,
        health: Optional[HealthTracker] = None,
        write_acks: str = "all",
        request_bytes: int = 128,
        response_bytes: int = 128,
    ):
        """``platform`` is the *local* (GPU-server) platform — it only
        supplies the environment and block geometry; the data lives on
        the ``nodes``' own platforms."""
        super().__init__(platform, reliability=None)
        if not nodes:
            raise ConfigurationError("need at least one remote node")
        if deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        if hedge_after is not None and not 0 < hedge_after < deadline:
            raise ConfigurationError(
                "hedge_after must fall inside (0, deadline)"
            )
        if write_acks not in ("all", "one"):
            raise ConfigurationError(
                f"write_acks must be 'all' or 'one', got {write_acks!r}"
            )
        self.nodes: List[RemoteNode] = list(nodes)
        self.deadline = deadline
        self.hedge_after = hedge_after
        self.write_acks = write_acks
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        #: per-*node* circuit breaker (HealthTracker is generic over
        #: integer ids; here an id is a node, not an SSD)
        self.health = health or HealthTracker(self.env, len(self.nodes))
        #: deadline supervision reuses the reliability watchdog; its
        #: DeviceTimeoutError is re-raised as RemoteTimeoutError
        self.watchdog = CompletionWatchdog(self.env, timeout=deadline)
        self.remote_reads = Counter(self.env)
        self.remote_writes = Counter(self.env)
        self.hedged_reads = Counter(self.env)
        self.hedge_wins = Counter(self.env)
        self.remote_timeouts = Counter(self.env)
        self.degraded_writes = Counter(self.env)
        self.breaker_rejections = Counter(self.env)
        self._read_rr = 0
        self._instruments = None

    @property
    def name(self) -> str:
        return f"remote[{len(self.nodes)}]"

    # -- node selection -------------------------------------------------
    def _eligible(self) -> List[RemoteNode]:
        """Nodes whose breaker admits traffic right now."""
        return [
            node for node in self.nodes if self.health.allow(node.node_id)
        ]

    def reachable(self) -> bool:
        """Is any node's link up right now (pure injector check)?"""
        return any(not node.link.is_partitioned() for node in self.nodes)

    def probe(self) -> Generator:
        """Process: ping nodes in order; returns the first node id that
        answered, or raises :class:`RemoteUnavailableError` when every
        link is down."""
        last: Optional[NetworkError] = None
        for node in self.nodes:
            try:
                yield from node.link.ping()
            except NetworkError as error:
                last = error
                continue
            return node.node_id
        raise RemoteUnavailableError(
            f"no remote node answered a probe ({len(self.nodes)} tried)",
            link_id=last.link_id if last is not None else None,
        )

    # -- one leg (never raises) -----------------------------------------
    def _leg(
        self,
        node: RemoteNode,
        lba: int,
        nbytes: int,
        is_write: bool,
        payload,
        target,
        target_offset: int,
        trace_ctx=None,
    ) -> Generator:
        """One request against one node: command frame out, the node's
        own array I/O, response frame back.  Returns ``(cqe, error)``
        and feeds the node's breaker — never raises, so hedge legs can
        be abandoned safely."""
        try:
            yield from node.link.transfer(
                self.request_bytes, trace_ctx=trace_ctx
            )
            if is_write:
                yield from node.link.transfer(
                    nbytes, trace_ctx=trace_ctx
                )
            cqe = yield from node.backend.io(
                lba, nbytes, is_write=is_write, payload=payload,
                target=target, target_offset=target_offset,
            )
            yield from node.link.transfer(
                self.response_bytes if is_write else nbytes,
                trace_ctx=trace_ctx,
            )
        except NetworkError as error:
            if error.node_id is None:
                error.node_id = node.node_id
            self.health.record_failure(node.node_id, status=-1)
            return None, error
        except DeviceError as error:
            self.health.record_failure(node.node_id)
            return None, error
        if cqe is not None and not cqe.ok:
            self.health.record_failure(node.node_id, cqe.status)
            return cqe, None
        self.health.record_success(node.node_id)
        return cqe, None

    @staticmethod
    def _leg_ok(result) -> bool:
        cqe, error = result
        return error is None and (cqe is None or cqe.ok)

    # -- reads: hedged race (never raises; returns (cqe, error)) --------
    def _read_race(
        self, eligible, lba, nbytes, target, target_offset, started,
        trace_ctx=None,
    ) -> Generator:
        """One read against the replica set.

        The primary leg races a hedge timer: a *slow* primary gets a
        hedge leg against the next replica (first success wins), while a
        *failed* leg fails over to the next untried replica at once —
        loss on one link must not burn the whole deadline.
        """
        env = self.env
        untried = list(eligible)

        def launch():
            node = untried.pop(0)
            started.append(node.node_id)
            return env.process(
                self._leg(node, lba, nbytes, False, None, target,
                          target_offset, trace_ctx=trace_ctx)
            )

        legs = [launch()]
        hedge_timer = (
            env.timeout(self.hedge_after)
            if self.hedge_after is not None and untried
            else None
        )
        hedge_index = None
        hedge_span = None
        failure = None
        harvested = set()
        while True:
            index = 0
            while index < len(legs):
                leg = legs[index]
                if leg.processed and index not in harvested:
                    harvested.add(index)
                    if self._leg_ok(leg.value):
                        won = index == hedge_index
                        if won:
                            self.hedge_wins.add()
                        if hedge_span is not None:
                            trace_ctx.end(hedge_span, hedge_won=won)
                        return leg.value[0], None
                    if failure is None:
                        failure = leg.value
                    if untried:
                        legs.append(launch())
                index += 1
            pending = [leg for leg in legs if not leg.processed]
            if not pending:
                break
            waits = list(pending)
            if hedge_timer is not None and not hedge_timer.processed:
                waits.append(hedge_timer)
            yield env.any_of(waits)
            if (
                hedge_timer is not None
                and hedge_timer.processed
                and hedge_index is None
                and untried
                and any(not leg.processed for leg in legs)
            ):
                # the primary is slow, not failed: hedge a replica
                self.hedged_reads.add()
                hedge_node = untried[0]
                tracer = env.tracer
                if tracer.enabled:
                    # the hedge leg flow-links back to the originating
                    # request (links=[trace_id]) so the analyzer and
                    # the Perfetto flow arrows can tie them together
                    hedge_tags = dict(
                        node=hedge_node.node_id,
                        primary=eligible[0].node_id,
                        lba=lba,
                    )
                    if trace_ctx is not None:
                        hedge_tags["trace_id"] = trace_ctx.trace_id
                        hedge_tags["links"] = [trace_ctx.trace_id]
                        hedge_span = trace_ctx.begin(
                            "hedge_wait", node=hedge_node.node_id
                        )
                    tracer.instant("net_hedged_read", **hedge_tags)
                hedge_index = len(legs)
                legs.append(launch())
        if hedge_span is not None:
            trace_ctx.end(hedge_span, hedge_won=False)
        cqe, error = failure
        if error is not None:
            return None, error
        return cqe, None

    # -- writes: replicate (never raises; returns (cqe, error)) ---------
    def _write_fanout(
        self, eligible, lba, nbytes, payload, started, trace_ctx=None,
    ) -> Generator:
        env = self.env
        legs = []
        for node in eligible:
            legs.append(
                env.process(
                    self._leg(node, lba, nbytes, True, payload, None, 0,
                              trace_ctx=trace_ctx)
                )
            )
            started.append(node.node_id)
        yield env.all_of(legs)
        results = [leg.value for leg in legs]
        acks = sum(1 for result in results if self._leg_ok(result))
        required = len(self.nodes) if self.write_acks == "all" else 1
        if acks < len(results):
            self.degraded_writes.add()
        if acks >= required:
            good = next(r for r in results if self._leg_ok(r))
            return good[0], None
        if acks >= 1:
            # some copies landed but not enough for the ack policy: the
            # write must be retried (the tiered dirty log keeps it)
            bad = next(r for r in results if not self._leg_ok(r))
            if bad[1] is not None:
                return None, bad[1]
            return bad[0], None
        cqe, error = results[0]
        if error is not None:
            return None, error
        return cqe, None

    # -- the backend interface ------------------------------------------
    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
        trace_ctx=None,
    ) -> Generator:
        eligible = self._eligible()
        if is_write and self.write_acks == "all":
            # strict replication must reach *every* node, eligible or not
            # — an open breaker just means the attempt will fail fast
            eligible = list(self.nodes) if eligible else []
        if not eligible:
            self.breaker_rejections.add()
            self._publish()
            raise RemoteUnavailableError(
                "every remote node is breaker-open or partitioned",
            )
        if not is_write and len(eligible) > 1:
            # rotate the read primary across the replica set so one
            # node does not absorb every miss; hedges and failover
            # still walk the remaining replicas in rotated order
            shift = self._read_rr % len(eligible)
            self._read_rr += 1
            eligible = eligible[shift:] + eligible[:shift]
        started: List[int] = []
        if is_write:
            race = self.env.process(
                self._write_fanout(eligible, lba, nbytes, payload,
                                   started, trace_ctx=trace_ctx)
            )
        else:
            race = self.env.process(
                self._read_race(
                    eligible, lba, nbytes, target, target_offset,
                    started, trace_ctx=trace_ctx,
                )
            )
        try:
            cqe, error = yield from self.watchdog.guard(
                race,
                nbytes=nbytes,
                description=f"remote {'write' if is_write else 'read'}",
            )
        except DeviceTimeoutError as timeout_error:
            self.remote_timeouts.add()
            for node_id in started:
                self.health.record_failure(node_id, status=-1)
            self._publish()
            raise RemoteTimeoutError(
                f"remote {'write' if is_write else 'read'} of {nbytes} B "
                f"missed its {self.deadline * 1e3:.1f} ms deadline",
                node_id=started[0] if started else None,
                attempts=len(started),
                timeout=timeout_error.timeout,
            ) from None
        if error is not None:
            self._publish()
            raise error
        (self.remote_writes if is_write else self.remote_reads).add()
        self._publish()
        return cqe

    def bulk_time(self, total_bytes, granularity=4096, is_write=False,
                  **kwargs):
        """Steady state: the node array's time plus the wire time of the
        payload over the primary link (they pipeline, so take the max,
        plus one propagation latency)."""
        node = self.nodes[0]
        inner = node.backend.bulk_time(
            total_bytes, granularity, is_write, **kwargs
        )
        wire = total_bytes / node.link.wire.bandwidth
        return max(inner, wire) + node.link.latency

    # -- live metrics ---------------------------------------------------
    def _publish(self) -> None:
        metrics = self.env.metrics
        if not metrics.enabled:
            return
        registry = metrics.registry
        if self._instruments is None or self._instruments[0] is not registry:
            specs = (
                ("cam_net_remote_reads_total", "counter",
                 "reads completed against remote nodes"),
                ("cam_net_remote_writes_total", "counter",
                 "writes acked by the replica set"),
                ("cam_net_hedged_reads_total", "counter",
                 "reads hedged to a replica after hedge_after"),
                ("cam_net_hedge_wins_total", "counter",
                 "hedged legs that answered first"),
                ("cam_net_remote_timeouts_total", "counter",
                 "operations that missed the remote deadline"),
                ("cam_net_degraded_writes_total", "counter",
                 "replicated writes with at least one failed leg"),
                ("cam_net_breaker_rejections_total", "counter",
                 "operations refused because no node was eligible"),
            )
            self._instruments = (registry, *(
                registry.ensure(name, kind, help=text).child()
                for name, kind, text in specs
            ))
        (_, reads, writes, hedged, wins, timeouts, degraded,
         rejections) = self._instruments
        reads.set_total(self.remote_reads.total)
        writes.set_total(self.remote_writes.total)
        hedged.set_total(self.hedged_reads.total)
        wins.set_total(self.hedge_wins.total)
        timeouts.set_total(self.remote_timeouts.total)
        degraded.set_total(self.degraded_writes.total)
        rejections.set_total(self.breaker_rejections.total)

    def publish(self) -> None:
        """Pull-refresh for the sampler; cascades into every link."""
        self._publish()
        for node in self.nodes:
            node.link.publish()
