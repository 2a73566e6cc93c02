"""SPDK user-space NVMe driver.

Kernel-bypass I/O: no file system, no io_map, no block layer — a request
costs only the reactor's sub-microsecond submission/poll time, then goes
straight onto the device queue pair.  "The NVMe driver takes no locks in
the I/O path [...] it scales linearly in terms of performance per thread"
(paper Section III-A); here each queue pair is owned by exactly one
reactor, so no lock is needed in the model either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.config import SPDKConfig
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
    ReactorOfflineError,
)
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.oskernel.blockio import CompletionDispatcher
from repro.sim.core import Timeout
from repro.sim.stats import Counter
from repro.spdk.reactor import Reactor, ReactorPool, ReactorSupervisor


@dataclass
class SpdkQueuePairHandle:
    """One (queue pair, dispatcher, reactor) binding for an SSD."""

    ssd_index: int
    queue_pair: object
    dispatcher: CompletionDispatcher
    reactor: Reactor


class SpdkDriver:
    """Per-SSD user-space queue pairs driven by a reactor pool."""

    #: how often a re-homed request re-checks its SSD's handle while
    #: waiting for failover, and how long it waits before giving up
    failover_poll = 1e-3
    failover_grace = 25e-3

    def __init__(
        self,
        platform: Platform,
        num_reactors: Optional[int] = None,
        config: Optional[SPDKConfig] = None,
        occupy_cores: bool = False,
        reliability=None,
        admission=None,
    ):
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.spdk
        #: optional :class:`~repro.reliability.Reliability` bundle; None
        #: keeps the original fail-fast behaviour
        self.reliability = reliability
        #: optional :class:`~repro.reliability.AdmissionController`
        #: bounding in-flight work through :meth:`io`
        self.admission = admission
        reactors = num_reactors or platform.num_ssds
        self.pool = ReactorPool(
            self.env,
            platform.num_ssds,
            reactors,
            self.config,
            cpu=platform.cpu if occupy_cores else None,
        )
        self._handles: List[SpdkQueuePairHandle] = []
        for index, ssd in enumerate(platform.ssds):
            qp = ssd.create_queue_pair()
            dispatcher = CompletionDispatcher(self.env, qp)
            self._handles.append(
                SpdkQueuePairHandle(
                    index, qp, dispatcher, self.pool.reactor_for(index)
                )
            )
        self.requests_done = Counter(self.env)
        self.bytes_done = Counter(self.env)
        #: chaos invariant: a request settling twice would count here
        self.duplicate_completions = 0
        #: bumped whenever a remap moves any SSD between reactors; lets
        #: in-flight coalesced groups distinguish "my SSD was re-homed
        #: under me" (drain on the original reactor) from a malformed
        #: group (still a ConfigurationError)
        self.resize_epoch = 0
        self.supervisor: Optional[ReactorSupervisor] = None
        self._install_reactor_faults()

    @property
    def num_reactors(self) -> int:
        return self.pool.num_reactors

    def remap(self, active_count: Optional[int] = None) -> None:
        """Spread the SSDs over the first ``active_count`` reactors and
        rebind each queue-pair handle to its new owner.

        A resize (an ``active_count`` different from the current window)
        emits a ``core_grow``/``core_shrink`` tracer instant and bumps
        the ``cam_core_resizes_total`` counter; failover's same-size
        re-homing stays silent (it has its own ``reactor_failover``
        telemetry).  Every path that changes the window — the elastic
        controller, :meth:`CamManager.set_active_reactors`, direct
        calls — funnels through here, so the record is complete.
        """
        previous = self.pool.active_count
        self.pool.remap(active_count)
        moved = False
        for handle in self._handles:
            reactor = self.pool.reactor_for(handle.ssd_index)
            if reactor is not handle.reactor:
                handle.reactor = reactor
                moved = True
        if moved:
            self.resize_epoch += 1
        active = self.pool.active_count
        if active_count is None or active == previous:
            return
        direction = "grow" if active > previous else "shrink"
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                f"core_{direction}",
                from_cores=previous,
                to_cores=active,
            )
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.core_resize(direction, active)

    # -- reactor fault tolerance ---------------------------------------
    def fail_reactor(self, reactor_id: int) -> None:
        """Declare a reactor dead and fail its work over to survivors.

        Re-homes every SSD the dead reactor owned onto alive reactors
        (within the active window), rebinds the queue-pair handles, and
        only then fails the dead reactor's queued charges — rescued
        submitters re-fetch their SSD's handle and land on the new
        owner.  With no survivors the handles stay put and waiters get
        :class:`~repro.errors.ReactorOfflineError`.
        """
        if not 0 <= reactor_id < len(self.pool.reactors):
            raise ConfigurationError(f"no reactor {reactor_id}")
        reactor = self.pool.reactors[reactor_id]
        first = not reactor.crashed
        reactor.crashed = True
        try:
            self.remap()
        except ReactorOfflineError:
            # the whole pool is dead: nothing to re-home onto; queued
            # work still gets typed errors from the drain below
            pass
        if first:
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.instant(
                    "reactor_failover",
                    reactor=reactor_id,
                    survivors=len(self.pool.alive_reactors()),
                )
            metrics = self.env.metrics
            if metrics.enabled:
                metrics.failover(reactor_id)
        reactor.crash()

    def revive_reactor(self, reactor_id: int) -> None:
        """Bring a crashed reactor back and re-balance SSDs over it."""
        if not 0 <= reactor_id < len(self.pool.reactors):
            raise ConfigurationError(f"no reactor {reactor_id}")
        self.pool.reactors[reactor_id].revive()
        self.remap()

    def supervise(self, **kwargs) -> ReactorSupervisor:
        """Start (or return) the stall/crash supervisor for this pool."""
        if self.supervisor is None:
            self.supervisor = ReactorSupervisor(
                self.pool, self.fail_reactor, **kwargs
            )
        return self.supervisor

    def _install_reactor_faults(self) -> None:
        """Schedule injector-planted reactor stalls/crashes.

        No processes (and no heap entries) are created when the injector
        has no reactor faults, so fault-free runs stay bit-identical.
        """
        injector = self.platform.fault_injector
        if injector is None or not injector.has_reactor_faults():
            return
        for reactor_id, start, duration in injector.reactor_stalls:
            if not 0 <= reactor_id < len(self.pool.reactors):
                raise ConfigurationError(
                    f"stall planted on unknown reactor {reactor_id}"
                )
            self.env.process(
                self._stall_episode(reactor_id, start, duration)
            )
        for reactor_id, at in injector.reactor_crashes:
            if not 0 <= reactor_id < len(self.pool.reactors):
                raise ConfigurationError(
                    f"crash planted on unknown reactor {reactor_id}"
                )
            self.env.process(self._crash_episode(reactor_id, at))

    def _stall_episode(
        self, reactor_id: int, start: float, duration: float
    ) -> Generator:
        if start:
            yield self.env.timeout(start)
        self.platform.fault_injector.reactor_faults_delivered += 1
        yield from self.pool.reactors[reactor_id].stall(duration)

    def _crash_episode(self, reactor_id: int, at: float) -> Generator:
        if at:
            yield self.env.timeout(at)
        self.platform.fault_injector.reactor_faults_delivered += 1
        # the crash itself only kills the reactor; healing (re-homing
        # its SSDs) is the supervisor's job — or the test's, explicitly
        self.pool.reactors[reactor_id].crash()

    def _await_failover(
        self, ssd_index: int, dead_reactor: Reactor
    ) -> Generator:
        """Process: wait briefly for a supervisor to re-home an SSD.

        Returns the SSD's re-homed handle, or ``None`` if nothing
        rescued it within ``failover_grace``.
        """
        waited = 0.0
        while waited < self.failover_grace:
            yield self.env.timeout(self.failover_poll)
            waited += self.failover_poll
            handle = self._handles[ssd_index]
            if not handle.reactor.crashed:
                return handle
        return None

    def handle(self, ssd_index: int) -> SpdkQueuePairHandle:
        if not 0 <= ssd_index < len(self._handles):
            raise ConfigurationError(f"no SSD {ssd_index}")
        return self._handles[ssd_index]

    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
        parent_span=None,
    ) -> Generator:
        """Process: one kernel-bypass I/O; resumes when the CQE is polled.

        ``lba`` is striped across SSDs unless ``ssd_index`` is given.
        ``parent_span`` (e.g. a CAM batch span) parents the per-request
        ``submit`` and ``nvme_io`` spans when tracing is enabled.
        """
        block_size = self.platform.config.ssd.block_size
        num_blocks = max(1, -(-nbytes // block_size))
        if ssd_index is None:
            ssd, local_lba = self.platform.ssd_for_lba(lba)
            ssd_index = ssd.ssd_id
        else:
            local_lba = lba

        def attempt():
            # re-fetch the handle each attempt: a failover may have
            # re-homed this SSD onto a surviving reactor between retries
            return self._attempt(
                self._handles[ssd_index], ssd_index, local_lba,
                num_blocks, nbytes, is_write, payload, target,
                target_offset, parent_span,
            )

        admission = self.admission
        if admission is not None:
            admission.admit(1, nbytes)
        try:
            if self.reliability is None:
                cqe = yield from attempt()
            else:
                try:
                    cqe = yield from self.reliability.run(
                        attempt,
                        ssd_id=ssd_index,
                        lba=local_lba,
                        is_write=is_write,
                        parent_span=parent_span,
                    )
                except DeviceTimeoutError:
                    # the watchdog expired: the device is not answering
                    self.reliability.health.mark_offline(ssd_index)
                    raise
        finally:
            if admission is not None:
                admission.release(1, nbytes)

        self.requests_done.add()
        self.bytes_done.add(nbytes)
        return cqe

    def _attempt(
        self,
        handle: SpdkQueuePairHandle,
        ssd_index: int,
        local_lba: int,
        num_blocks: int,
        nbytes: int,
        is_write: bool,
        payload,
        target,
        target_offset: int,
        parent_span,
    ) -> Generator:
        """One device attempt: reactor charge, fresh SQE, CQE wait.

        If the owning reactor is (or goes) offline, the attempt follows
        the SSD's handle to its failed-over reactor; with a reliability
        bundle it additionally waits up to ``failover_grace`` for a
        supervisor to re-home the SSD before giving up with
        :class:`~repro.errors.ReactorOfflineError`.
        """
        # submission + completion-poll CPU on the owning reactor
        while True:
            try:
                span = yield from handle.reactor.charge(parent=parent_span)
                break
            except ReactorOfflineError as error:
                current = self._handles[ssd_index]
                if (
                    current.reactor is not handle.reactor
                    and not current.reactor.crashed
                ):
                    # failover already re-homed this SSD — retry there
                    handle = current
                    continue
                rescued = None
                if self.reliability is not None:
                    rescued = yield from self._await_failover(
                        ssd_index, current.reactor
                    )
                if rescued is None:
                    # name the request the dead reactor stranded
                    error.ssd_id = ssd_index
                    error.lba = local_lba
                    raise error
                handle = rescued
        cost = handle.reactor.account_request(
            poll_iterations=self._poll_iterations(is_write)
        )
        if span is not None:
            span.tags["ssd"] = ssd_index
            span.tags["is_write"] = is_write
            span.tags.update(cost)

        opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
        sqe = SQE(
            opcode=opcode,
            lba=local_lba,
            num_blocks=num_blocks,
            payload=payload,
            target=target,
            target_offset=target_offset,
            trace_span=parent_span,
        )
        done = handle.dispatcher.register(sqe.command_id)
        yield handle.queue_pair.submit(sqe)
        reliability = self.reliability
        if reliability is not None and reliability.watchdog is not None:
            cqe = yield from reliability.watchdog.guard(
                done,
                nbytes=nbytes,
                ssd_ids=(ssd_index,),
                fault_injector=self.platform.fault_injector,
                description=f"spdk ssd {ssd_index} lba {local_lba}",
                parent_span=parent_span,
            )
        else:
            cqe = yield done
        return cqe

    def io_batch(
        self,
        items,
        granularity: int,
        is_write: bool = False,
        target=None,
        parent_span=None,
        epoch: Optional[int] = None,
    ) -> Generator:
        """Process: coalesced submission of one reactor's share of a batch.

        ``items`` is a list of ``(orig_index, ssd_index, local_lba,
        payload)`` tuples whose SSDs are all owned by the *same* reactor
        (the caller groups per reactor, preserving batch order).  The
        reactor's serial stage is held once for the whole group; each
        request still pays its ``per_request_cpu`` charge and lands on the
        wire at exactly the instant the fan-out path would put it there
        (the fan-out path's waiters enqueue on the reactor back-to-back,
        so holding the stage across the group does not reorder anything).
        Completions are collected through one
        :class:`~repro.oskernel.blockio.CompletionGroup` per SSD instead
        of one waiter event + process per request.

        Without a reliability bundle the walk is fail-fast: each SSD's
        group event delivers its CQEs, and items the owning reactor
        crashed under before they reached the wire come back as
        :class:`~repro.errors.ReactorOfflineError`.  With a bundle each
        group gets a *sink* instead: successful CQEs settle at coalesced
        speed, failed CQEs are re-driven through :meth:`Reliability.run`
        (the failed CQE counts as attempt 1, so retry/backoff/breaker
        accounting matches the fan-out path exactly), every item on the
        wire carries the watchdog deadline the fan-out path would arm,
        and items a crash left unsubmitted ride the full per-request
        path, which waits out a failover.

        Returns a list of ``(orig_index, outcome)`` sorted by
        ``orig_index`` — each outcome a CQE (with a bundle: ok, or the
        final failure after the retry budget) or a typed
        :class:`~repro.errors.DeviceError`.

        ``epoch`` is the :attr:`resize_epoch` observed when the caller
        formed the group (defaults to the value at generator start).  If
        a remap moves an SSD to another reactor after that point — an
        elastic resize or a failover landing mid-group — a fail-fast
        group keeps draining on its original reactor (in-flight work
        drains where it was charged; only *new* groups land on the new
        assignment), while a reliable group re-drives the item
        per-request on its new owner.  A mixed group with no intervening
        remap is a caller bug and raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not items:
            return []
        if epoch is None:
            epoch = self.resize_epoch
        env = self.env
        block_size = self.platform.config.ssd.block_size
        num_blocks = max(1, -(-granularity // block_size))
        poll_iterations = self._poll_iterations(is_write)
        opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
        handles = self._handles
        ssds = self.platform.ssds
        reactor = handles[items[0][1]].reactor
        tracer = env.tracer
        tracing = tracer.enabled
        metrics = env.metrics
        per_request_cpu = self.config.per_request_cpu
        reliability = self.reliability
        groups = {}  # ssd_index -> CompletionGroup
        owners = {}  # command_id -> orig_index
        sink = None
        if reliability is not None:
            # reliability-only state is built only when a bundle is
            # attached: serving rings many tiny batches, so anything set
            # up per walk is paid every few requests on the fail-fast path
            watchdog = reliability.watchdog
            injector = self.platform.fault_injector
            by_index = {item[0]: item for item in items}
            outcomes = {}  # orig_index -> CQE | DeviceError
            #: orig_indexes whose first CQE arrived (disarms the watchdog;
            #: retries arm their own guards inside _attempt)
            first_done = set()
            all_done = env.event()
            count = remaining = len(items)

            def settle(orig_index, outcome):
                nonlocal remaining
                if orig_index in outcomes:
                    # invariant: a request terminates exactly once
                    self.duplicate_completions += 1
                    return
                outcomes[orig_index] = outcome
                remaining -= 1
                if remaining == 0:
                    all_done.succeed()

            def redrive(orig_index, first_cqe=None, hop=None):
                """Process: the full per-request reliable path for one item.

                ``first_cqe`` is a failed CQE the sink peeled off the
                group; it counts as attempt 1.  The fan-out path delivers
                it to its request process across three same-instant event
                hops — the CQ-ring wake (``hop``, scheduled by the sink),
                the per-command waiter event, and the watchdog's AnyOf
                condition — so they are replayed first: the retry's
                backoff timer is then created at exactly the position in
                the event order where the fan-out path would create it,
                keeping same-instant tie-breaks on shared stages
                bit-identical.
                """
                _, ssd_index, local_lba, payload = by_index[orig_index]
                if metrics.enabled:
                    metrics.redrive()
                if tracing and parent_span is not None:
                    # flow-link the redrive back to the originating
                    # request so cam-trace can attribute retry latency
                    # to its trace_id
                    tracer.instant(
                        "redrive_link",
                        parent=parent_span,
                        ssd=ssd_index,
                        lba=local_lba,
                        trace_id=parent_span.tags.get("trace_id"),
                        links=parent_span.tags.get("links"),
                    )
                if hop is not None:
                    yield hop                # CQ-ring -> dispatcher wake
                    yield env.timeout(0.0)   # per-command waiter event
                    yield env.timeout(0.0)   # watchdog AnyOf condition

                def attempt():
                    # re-fetch the handle: after a failover the SSD may
                    # have been re-homed onto a surviving reactor
                    return self._attempt(
                        self._handles[ssd_index], ssd_index, local_lba,
                        num_blocks, granularity, is_write, payload, target,
                        orig_index * granularity, parent_span,
                    )

                try:
                    outcome = yield from reliability.run(
                        attempt,
                        ssd_id=ssd_index,
                        lba=local_lba,
                        is_write=is_write,
                        parent_span=parent_span,
                        first_cqe=first_cqe,
                    )
                except DeviceError as error:
                    if isinstance(error, DeviceTimeoutError):
                        # the watchdog expired: the device is not answering
                        reliability.health.mark_offline(ssd_index)
                    outcome = error
                settle(orig_index, outcome)

            def sink(cqe):
                orig_index = owners[cqe.command_id]
                if orig_index in outcomes:
                    return  # watchdog already settled it
                first_done.add(orig_index)
                if cqe.ok:
                    # mirror Reliability.run's first-attempt success
                    cqe.attempts = 1
                    reliability.health.record_success(by_index[orig_index][1])
                    settle(orig_index, cqe)
                    return
                hop = env.timeout(0.0)
                env.process(redrive(orig_index, cqe, hop))

            def arm_watchdog(orig_index, ssd_index, local_lba):
                # same deadline the fan-out guard would race the CQE against
                deadline = watchdog.deadline(granularity)
                timer = env.timeout(deadline)

                def expire(_event):
                    if orig_index in first_done or orig_index in outcomes:
                        return
                    watchdog.timeouts_fired += 1
                    error = watchdog.classify(
                        ssd_ids=(ssd_index,),
                        fault_injector=injector,
                        deadline=deadline,
                        description=f"spdk ssd {ssd_index} lba {local_lba}",
                    )
                    if tracer.enabled:
                        tracer.instant(
                            "watchdog_timeout",
                            parent=parent_span,
                            deadline=deadline,
                            offline=isinstance(error, DeviceOfflineError),
                        )
                    reliability.health.mark_offline(ssd_index)
                    first_done.add(orig_index)
                    settle(orig_index, error)

                timer.callbacks.append(expire)

        walked = 0  # items taken off the list: on the wire or re-driven
        peeled = 0  # of those, the ones re-driven per-request
        # Manual request lifecycle (not ``with``): a crash may fail our
        # queued slot request, and the context manager's release on a
        # triggered-but-never-granted request raises double-release.
        slot = reactor._serial.request()
        granted = False
        try:
            try:
                yield slot
                granted = True
            except ReactorOfflineError:
                pass  # every item is left over; handled below
            if granted:
                for orig_index, ssd_index, local_lba, payload in items:
                    if reactor.crashed:
                        break
                    handle = handles[ssd_index]
                    if handle.reactor is not reactor:
                        if self.resize_epoch == epoch:
                            raise ConfigurationError(
                                f"io_batch group mixes reactors: SSD "
                                f"{ssd_index} is owned by reactor "
                                f"{handle.reactor.reactor_id}, group "
                                f"started on {reactor.reactor_id}"
                            )
                        if reliability is not None:
                            # a remap re-homed this SSD after grouping:
                            # re-drive it per-request on its new owner
                            # instead of charging the wrong reactor
                            env.process(redrive(orig_index))
                            walked += 1
                            peeled += 1
                            continue
                        # fail-fast: keep draining on the original
                        # reactor (queue pair and dispatcher never move)
                    span = None
                    if tracing:
                        span = tracer.begin(
                            "submit",
                            parent=parent_span,
                            reactor=reactor.reactor_id,
                        )
                    yield Timeout(env, per_request_cpu)
                    reactor.busy_seconds += per_request_cpu
                    reactor.last_progress = env._now
                    if tracing:
                        # per-request spans keep the fig03/fig13
                        # breakdowns intact; the bulk accounting below
                        # covers the instruction/cycle charges when
                        # tracing is off
                        cost = reactor.account_request(
                            poll_iterations=poll_iterations
                        )
                        span.tags["ssd"] = ssd_index
                        span.tags["is_write"] = is_write
                        span.tags.update(cost)
                        tracer.end(span)
                    sqe = SQE(
                        opcode=opcode,
                        lba=local_lba,
                        num_blocks=num_blocks,
                        payload=payload,
                        target=target,
                        target_offset=orig_index * granularity,
                        trace_span=parent_span,
                    )
                    group = groups.get(ssd_index)
                    if group is None:
                        group = handle.dispatcher.open_group()
                        group.sink = sink
                        groups[ssd_index] = group
                    handle.dispatcher.expect(group, sqe.command_id)
                    owners[sqe.command_id] = orig_index
                    walked += 1
                    if reliability is None:
                        # ring bypass: the SQ consumer would spawn the
                        # handler at this same instant anyway; hand the
                        # SQE to the device directly and skip the ring hop
                        ssds[ssd_index].submit_direct(handle.queue_pair, sqe)
                        continue
                    # Fan-out order inside this instant: the finishing
                    # charge releases the reactor serial (granting the
                    # next waiter) *before* the SQE goes on the wire and
                    # the guard is armed, and the next request's CPU
                    # timer is only created when that grant event pops.
                    # Replay it: schedule the grant-analog hop first,
                    # submit through the SQ ring (retries share these
                    # rings, so the device-side hops must match theirs),
                    # then let the hop pop before the next item's timer
                    # exists.  Dropping either hop changes same-instant
                    # tie-breaks between first attempts and retries.
                    hop = env.timeout(0.0) if walked != count else None
                    yield handle.queue_pair.submit(sqe)
                    if watchdog is not None:
                        arm_watchdog(orig_index, ssd_index, local_lba)
                    if hop is not None:
                        yield hop
        finally:
            if granted:
                reactor._serial.release(slot)
            elif not slot.triggered:
                slot.cancel()
        # reactor accounting covers only items that reached the wire;
        # re-driven items charge their own reactor inside _attempt
        submitted = walked - peeled
        reactor.requests.add(submitted)
        if not tracing and submitted:
            reactor.account_batch(
                submitted, poll_iterations=poll_iterations
            )
        if metrics.enabled and submitted:
            metrics.coalesced_group(reactor.reactor_id, submitted)
        for ssd_index, group in groups.items():
            handles[ssd_index].dispatcher.seal(group)
        leftovers = items[walked:]
        if reliability is None:
            # no per-CQE sink call on the fail-fast path: each SSD's
            # group event hands over all of its CQEs at once
            results = []
            for group in groups.values():
                cqes = yield group.event
                for command_id, cqe in cqes.items():
                    results.append((owners[command_id], cqe))
            for orig_index, ssd_index, local_lba, _ in leftovers:
                results.append((
                    orig_index,
                    ReactorOfflineError(
                        f"reactor {reactor.reactor_id} crashed before "
                        f"submitting ssd {ssd_index} lba {local_lba}",
                        reactor_id=reactor.reactor_id,
                        ssd_id=ssd_index,
                        lba=local_lba,
                    ),
                ))
            results.sort()  # orig_index is unique: outcomes never compare
            completed = submitted
        else:
            # unsubmitted leftovers ride the full per-request reliable
            # path (charge waits out a failover, every attempt is guarded)
            for item in leftovers:
                env.process(redrive(item[0]))
            if remaining:
                yield all_done
            results = sorted(outcomes.items())
            completed = sum(
                1 for _, outcome in results
                if not isinstance(outcome, DeviceError)
            )
        self.requests_done.add(completed)
        self.bytes_done.add(completed * granularity)
        return results

    def _poll_iterations(self, is_write: bool) -> float:
        """Average empty poll iterations charged per request (Fig. 13).

        With ~16 requests in flight per queue pair, the poller spins
        roughly ``latency / 16`` microseconds between completions; the
        slower write path (82 us vs 15 us) therefore burns several times
        more poll iterations per request — the Fig. 13 read/write gap.
        """
        ssd = self.platform.config.ssd
        latency = ssd.media_latency(is_write)
        return max(1.0, min(64.0, latency / 16e-6))
