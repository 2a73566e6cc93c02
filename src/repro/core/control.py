"""CAM's CPU-side management threads.

A persistent CPU poller watches the doorbell region; when the GPU rings,
the manager reads the LBA batch, fans the requests out across the
per-SSD SPDK queue pairs (charging each owning reactor's per-request CPU
cost), waits for every completion, and flags the completion region.

The number of *active* reactors is controlled by the
:class:`~repro.core.autotune.CoreAutotuner`; inactive reactors' SSDs are
re-assigned to active ones, which is how "one thread controls multiple
NVMes" (Fig. 12) happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.config import CAMConfig
from repro.errors import (
    APIUsageError,
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
    MediaError,
    ReactorOfflineError,
    RetryExhaustedError,
)
from repro.hw.platform import Platform
from repro.obs.causal import mint_context
from repro.sim.core import Event
from repro.sim.resources import Store
from repro.sim.stats import Counter, LatencyStat
from repro.spdk.driver import SpdkDriver


@dataclass
class BatchRequest:
    """One rung batch travelling from the doorbell to the manager."""

    lbas: np.ndarray
    granularity: int
    is_write: bool
    dest: object = None  # pinned GPU buffer (or None for timing runs)
    payloads: Optional[list] = None  # write data per request
    done: Event = None  # signalled when the whole batch completed
    regions: object = None  # SyncRegions to flag on completion
    submit_time: float = 0.0
    trace_span: object = None  # open "batch" span when tracing is enabled
    #: originating :class:`~repro.obs.causal.RequestContext` (or None);
    #: the batch span flow-links back to it via a ``links`` tag
    context: object = None
    #: True when the manager minted the context itself at ``ring`` (the
    #: raw entry point) and therefore owns finishing it
    context_owned: bool = False

    @property
    def request_count(self) -> int:
        return len(self.lbas)

    @property
    def total_bytes(self) -> int:
        return self.request_count * self.granularity


class CamManager:
    """The persistent CPU thread(s) managing the SSDs for one GPU."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[CAMConfig] = None,
        num_cores: Optional[int] = None,
        occupy_cores: bool = False,
        reliability=None,
        coalesce: bool = True,
        admission=None,
        supervise_reactors: bool = False,
    ):
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.cam
        #: optional :class:`~repro.reliability.Reliability` bundle; the
        #: driver retries/guards each request, the manager types the
        #: batch-level failure
        self.reliability = reliability
        #: submit batches through the coalesced per-reactor walk
        #: (:meth:`SpdkDriver.io_batch`) instead of one process per
        #: request.  Timings are identical; ``coalesce=False`` keeps the
        #: fan-out path for differential testing.  With a reliability
        #: bundle the same walk peels failed commands off the group and
        #: re-drives them per-request.
        self.coalesce = coalesce
        #: optional :class:`~repro.reliability.AdmissionController`;
        #: :meth:`ring` sheds batches beyond its in-flight bounds with a
        #: typed :class:`~repro.errors.OverloadError`
        self.admission = admission
        max_cores = max(1, -(-platform.num_ssds // 2))  # ceil(N/2)
        self.driver = SpdkDriver(
            platform,
            num_reactors=num_cores or max_cores,
            occupy_cores=occupy_cores,
            reliability=reliability,
        )
        #: optional stall/crash supervisor driving reactor failover
        self.supervisor = (
            self.driver.supervise() if supervise_reactors else None
        )
        self._active_reactors = self.driver.num_reactors
        self._inbox: Store = Store(self.env)
        self._poller = self.env.process(self._poll_loop())
        self.batches_done = Counter(self.env)
        self.requests_done = Counter(self.env)
        self.bytes_done = Counter(self.env)
        self.batch_io_time = LatencyStat()
        #: io time of the most recent batch (fed to the autotuner)
        self.last_io_time = 0.0
        #: window baseline for :meth:`reactor_busy_fractions` —
        #: (sim time, {reactor_id: busy_seconds}) at the last call
        self._busy_mark = (
            self.env.now,
            {
                reactor.reactor_id: reactor.busy_seconds
                for reactor in self.driver.pool.reactors
            },
        )

    # -- core adjustment ----------------------------------------------------
    @property
    def active_reactors(self) -> int:
        return self._active_reactors

    def set_active_reactors(self, count: int) -> None:
        """Apply the autotuner's decision: remap SSDs over ``count`` cores."""
        if not 1 <= count <= self.driver.num_reactors:
            raise ConfigurationError(
                f"active reactor count {count} outside "
                f"[1, {self.driver.num_reactors}]"
            )
        self._active_reactors = count
        self.driver.remap(count)

    # -- the doorbell -> completion path ----------------------------------
    def ring(self, batch: BatchRequest) -> Event:
        """GPU side: hand a batch to the manager (region 3 doorbell).

        Returns the batch's completion event (region 4).

        With an admission controller attached, a batch that would push
        the manager past its in-flight bounds is shed here —
        synchronously, before the doorbell is even recorded — with a
        typed :class:`~repro.errors.OverloadError`.
        """
        if batch.request_count == 0:
            raise APIUsageError("empty batch")
        if self.admission is not None:
            self.admission.admit(batch.request_count, batch.total_bytes)
        if batch.done is None:
            batch.done = self.env.event()
        batch.submit_time = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            context = batch.context
            if context is None:
                # raw ring() is itself an entry point: mint the causal
                # context here so even bare batches get a trace_id
                context = mint_context(tracer, "batch")
                batch.context = context
                batch.context_owned = True
            causal_tags = (
                {
                    "parent": context.root,
                    "trace_id": context.trace_id,
                    "links": [context.trace_id],
                }
                if context is not None else {}
            )
            batch.trace_span = tracer.begin(
                "batch",
                requests=batch.request_count,
                bytes=batch.total_bytes,
                is_write=batch.is_write,
                **causal_tags,
            )
        self._inbox.put(batch)
        return batch.done

    def _poll_loop(self) -> Generator:
        while True:
            batch = yield self._inbox.get()
            # the poller notices the doorbell after (on average) half a
            # poll interval, then marshals the batch arguments
            tracer = self.env.tracer
            poll_span = (
                tracer.begin("doorbell_poll", parent=batch.trace_span)
                if tracer.enabled
                else None
            )
            yield self.env.timeout(
                self.config.poll_interval / 2 + self.config.batch_setup_time
            )
            if poll_span is not None:
                tracer.end(poll_span)
            # batches proceed concurrently (e.g. a read batch overlapping
            # a write-back batch); per-reactor CPU contention still
            # serializes the actual submission work
            self.env.process(self._handle_batch(batch))

    def _handle_batch(self, batch: BatchRequest) -> Generator:
        try:
            failures = yield from self._process_batch(batch)
        finally:
            if self.admission is not None:
                self.admission.release(
                    batch.request_count, batch.total_bytes
                )
        # one definition of batch I/O time everywhere: doorbell ring to
        # completion, as the GPU observes it (includes the poll delay)
        io_time = self.env.now - batch.submit_time
        self.last_io_time = io_time
        self.batch_io_time.record(io_time)
        self.batches_done.add()
        self.requests_done.add(batch.request_count)
        self.bytes_done.add(batch.total_bytes)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.batch_done(
                "write" if batch.is_write else "read",
                io_time,
                batch.request_count,
                batch.total_bytes,
                len(failures),
                trace_id=(
                    batch.context.trace_id
                    if batch.context is not None else None
                ),
            )
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "completion_signal",
                parent=batch.trace_span,
                requests=batch.request_count,
                failures=len(failures),
            )
            if batch.trace_span is not None:
                tracer.end(batch.trace_span, failures=len(failures))
            if batch.context is not None and batch.context_owned:
                batch.context.finish(failures=len(failures))
        if batch.regions is not None:
            batch.regions.signal_completion()
        if failures:
            batch.done.fail(self._batch_error(batch, failures))
        else:
            batch.done.succeed(io_time)

    def _batch_error(self, batch: BatchRequest, failures) -> DeviceError:
        """Type the batch-level failure from the per-request records.

        ``failures`` is a list of ``(lba, status, attempts, error)``;
        ``error`` is the typed per-request exception when the driver
        raised (watchdog timeouts), else ``None`` for error CQEs.
        """
        prefix = (
            f"{len(failures)} of {batch.request_count} requests failed"
        )

        def first(cls):
            return next(
                (error for *_, error in failures if isinstance(error, cls)),
                None,
            )

        timeout = first(DeviceOfflineError) or first(DeviceTimeoutError)
        if timeout is not None:
            return type(timeout)(
                f"{prefix}; first: {timeout}",
                ssd_id=timeout.ssd_id,
                lba=timeout.lba,
                attempts=timeout.attempts,
                timeout=timeout.timeout,
            )
        dead = first(ReactorOfflineError)
        if dead is not None:
            # built from fields, not the message: the coalesced and
            # fan-out paths word the per-request error differently
            return ReactorOfflineError(
                f"{prefix}; first: reactor {dead.reactor_id} offline "
                f"(ssd {dead.ssd_id} lba {dead.lba})",
                reactor_id=dead.reactor_id,
                ssd_id=dead.ssd_id,
                lba=dead.lba,
                attempts=dead.attempts,
            )
        lba, status, attempts, _ = failures[0]
        cls = MediaError if self.reliability is None else (
            RetryExhaustedError
        )
        return cls(
            f"{prefix}; first: lba {lba} status {status:#x}",
            lba=lba,
            status=status,
            attempts=attempts,
        )

    def _process_batch(self, batch: BatchRequest) -> Generator:
        """Submit the batch and wait for every CQE.

        The coalesced path groups the batch per owning reactor and walks
        each group inside one generator
        (:meth:`~repro.spdk.driver.SpdkDriver.io_batch`, with or without
        a reliability bundle); the fan-out path spawns one process per
        request.  Both produce identical simulated timestamps — the
        differential tests in ``tests/test_coalesced_differential.py``
        and ``tests/test_reliable_coalesced_differential.py`` pin that
        down.

        In degraded mode (admission controller past its high-water mark,
        or an open circuit breaker) the batch is processed in slices of
        ``admission.batch_limit()`` requests so a struggling backend
        works through smaller units.
        """
        limit = (
            self.admission.batch_limit()
            if self.admission is not None
            else None
        )
        walk = (
            self._process_batch_coalesced
            if self.coalesce
            else self._process_batch_fanout
        )
        count = batch.request_count
        if limit is None or limit >= count:
            outcomes = yield from walk(batch, 0, count)
            return self._failures(batch, outcomes)
        failures = []
        for start in range(0, count, limit):
            outcomes = yield from walk(batch, start, min(start + limit, count))
            failures.extend(self._failures(batch, outcomes))
        return failures

    @staticmethod
    def _failures(batch: BatchRequest, outcomes) -> list:
        """The ``(lba, status, attempts, error)`` records of the failed
        requests among ``outcomes``, a list of ``(index, outcome)``.

        ``error`` is the typed exception when the driver raised for the
        request (watchdog timeout, offline device, dead reactor), else
        ``None`` for an error CQE.
        """
        failures = []
        for index, outcome in outcomes:
            if isinstance(outcome, DeviceError):
                failures.append((
                    int(batch.lbas[index]),
                    getattr(outcome, "status", None) or 0,
                    getattr(outcome, "attempts", 1),
                    outcome,
                ))
            elif outcome is not None and not outcome.ok:
                failures.append((
                    int(batch.lbas[index]),
                    outcome.status,
                    outcome.attempts,
                    None,
                ))
        return failures

    def _payload(self, batch: BatchRequest, index: int):
        if batch.payloads is not None:
            return batch.payloads[index]
        if batch.is_write and batch.dest is not None:
            # write-back: the data comes from the pinned GPU buffer
            return batch.dest.read_bytes(
                index * batch.granularity, batch.granularity
            )
        return None

    def _process_batch_coalesced(
        self, batch: BatchRequest, start: int, stop: int
    ) -> Generator:
        """Group requests ``start:stop`` per reactor (batch order kept
        inside each group) and walk each group through one
        :meth:`SpdkDriver.io_batch` generator; returns ``(index,
        outcome)`` pairs in batch order."""
        driver = self.driver
        platform = self.platform
        handles = driver._handles
        # the resize epoch the grouping is computed against: a remap
        # landing mid-flight is then told apart from a malformed group
        epoch = driver.resize_epoch
        groups: dict = {}  # Reactor -> [(index, ssd_index, local_lba, payload)]
        for index in range(start, stop):
            lba = batch.lbas[index]
            ssd, local_lba = platform.ssd_for_lba(int(lba))
            reactor = handles[ssd.ssd_id].reactor
            items = groups.get(reactor)
            if items is None:
                items = groups[reactor] = []
            items.append(
                (index, ssd.ssd_id, local_lba, self._payload(batch, index))
            )
        walks = [
            driver.io_batch(
                items,
                batch.granularity,
                is_write=batch.is_write,
                target=batch.dest,
                parent_span=batch.trace_span,
                epoch=epoch,
            )
            for items in groups.values()
        ]
        if len(walks) == 1:
            results = yield from walks[0]
            return results
        procs = [self.env.process(walk) for walk in walks]
        done = yield self.env.all_of(procs)
        results = []
        for proc in procs:
            results.extend(done[proc])
        results.sort()  # batch indexes are unique: outcomes never compare
        return results

    def _process_batch_fanout(
        self, batch: BatchRequest, start: int, stop: int
    ) -> Generator:
        """Fan requests ``start:stop`` out over the SSDs, one process
        each; returns ``(index, outcome)`` pairs in batch order."""
        indexes = range(start, stop)
        children = [
            self.env.process(
                self._request(batch, index, self._payload(batch, index))
            )
            for index in indexes
        ]
        results = yield self.env.all_of(children)
        return [
            (index, results[child]) for index, child in zip(indexes, children)
        ]

    def _request(self, batch: BatchRequest, index: int, payload) -> Generator:
        """One fan-out request; typed device errors (watchdog timeouts)
        become return values so a single bad request cannot kill the
        whole batch process tree."""
        try:
            cqe = yield from self.driver.io(
                int(batch.lbas[index]),
                batch.granularity,
                is_write=batch.is_write,
                payload=payload,
                target=batch.dest,
                target_offset=index * batch.granularity,
                parent_span=batch.trace_span,
            )
        except DeviceError as error:
            return error
        return cqe

    def achieved_throughput(self) -> float:
        """Bytes/second over the observation window."""
        return self.bytes_done.rate()

    def reactor_busy_fractions(self) -> dict:
        """Per-reactor busy fraction since the previous call.

        Returns ``{reactor_id: fraction}`` over the window ending now and
        starting at the last call (or construction).  This is the
        compute/IO-ratio signal the paper's dynamic core adjustment rule
        consumes — a window of near-1.0 fractions on every active reactor
        means the manager is CPU-bound and wants more cores; near-0.0
        means cores can be released.  Derived purely from
        :attr:`Reactor.busy_seconds` deltas, so calling it never touches
        the event heap.  A zero-length window reports 0.0 everywhere.
        """
        now = self.env.now
        last_time, last_busy = self._busy_mark
        window = now - last_time
        fractions = {}
        marks = {}
        for reactor in self.driver.pool.reactors:
            rid = reactor.reactor_id
            busy = reactor.busy_seconds
            marks[rid] = busy
            delta = busy - last_busy.get(rid, 0.0)
            fractions[rid] = (
                min(1.0, delta / window) if window > 0 else 0.0
            )
        self._busy_mark = (now, marks)
        return fractions
