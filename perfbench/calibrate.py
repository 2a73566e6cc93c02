"""Host-speed calibration: a fixed pure-Python kernel timed between the
simulator's timed steps.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and the drift shows in neither CPU time nor steal time.
So every wall time the benchmark reports is also expressed in
*reference seconds*: wall seconds divided by the host time one
calibration unit took, measured in the same round, a few hundred
milliseconds from the work it scales.  A reference second is the time
this host needs for one unit; a host that runs the kernel in exactly one
wall second has reference seconds equal to wall seconds.

The kernel does the kinds of work the simulator spends its time on:

* a discrete-event loop: generator processes resumed from a ``heapq``
  of ``(time, seq, process)`` entries, with attribute reads and writes
  on small objects between resumes;
* dependent loads over a shuffled successor table larger than the
  caches, plus lookups in a large ``dict``, the memory-bound part.

Its inputs are fixed and it checks its own result, so a unit is the same
work on every run.  Its tables hold only ints (one tracked list, one
untracked dict), so they add nothing to what the garbage collector
walks during the simulator's timed steps.  The collector is off while a
slice runs: a full collection there would walk the simulator's heap and
bill it to the host's speed.  Every object a slice makes is freed by
the time it ends, so no collection is pushed onto the simulator.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: calibration slices in one unit; a slice takes 25-40 ms on a 2-vCPU
#: x86-64 VM, so a unit takes 1.0-1.5 s there, as the host's speed drifts
SLICES_PER_UNIT = 40
_PROCESSES = 512
_RESUMES = 32
_TABLE = 1 << 19
_CHASE = 10_000


class _Proc:
    __slots__ = ("pid", "clock", "done")

    def __init__(self, pid):
        self.pid = pid
        self.clock = 0.0
        self.done = 0


def _process(proc, delays):
    for step in range(_RESUMES):
        proc.clock += delays[(proc.pid + step) % len(delays)]
        proc.done += 1
        yield proc.clock


class Calibrator:
    """Times calibration slices and turns them into a host speed."""

    def __init__(self):
        rng = random.Random(20250101)
        order = list(range(_TABLE))
        rng.shuffle(order)
        successor = [0] * _TABLE
        for here, there in zip(order, order[1:] + order[:1]):
            successor[here] = there
        self._successor = successor
        self._lookup = {key * 2654435761 % (1 << 31): key
                        for key in range(0, _TABLE, 4)}
        self._keys = list(self._lookup)
        self._delays = [rng.expovariate(1e4) for _ in range(97)]
        self._expected = None
        #: seconds of every slice timed so far, in order
        self.slices = []

    def _events(self):
        heap = []
        seq = 0
        procs = [_Proc(pid) for pid in range(_PROCESSES)]
        for proc in procs:
            gen = _process(proc, self._delays)
            heapq.heappush(heap, (next(gen), seq, gen))
            seq += 1
        while heap:
            _, _, gen = heapq.heappop(heap)
            when = next(gen, None)
            if when is not None:
                heapq.heappush(heap, (when, seq, gen))
                seq += 1
        return sum(p.done for p in procs)

    def _memory(self):
        successor = self._successor
        lookup = self._lookup
        keys = self._keys
        here = 0
        found = 0
        for step in range(_CHASE):
            here = successor[here]
            found += lookup[keys[(here + step) % len(keys)]]
        return here, found

    def slice(self):
        """Run one calibration slice and record its host time."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = self._events(), self._memory()
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        if self._expected is None:
            self._expected = result
        elif result != self._expected:
            raise RuntimeError(
                f"calibration kernel gave {result}, not {self._expected}"
            )
        self.slices.append(elapsed)
        return elapsed

    def unit_s(self, first=0):
        """Host seconds per calibration unit, from the mean of the slices
        recorded since index ``first``.  The mean, not the median: a
        stall that slows the simulator for part of a round slows the
        slices it hits in the same proportion of their time."""
        return SLICES_PER_UNIT * statistics.fmean(self.slices[first:])
