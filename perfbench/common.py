"""Shared helpers for the benchmark: paths, statistics, and spans.

Nothing here imports ``repro``; the launcher (``run.py``) and the
steadiness tool use it before any program code is loaded.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import statistics
import sys
import time
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch output of a run (trace files, span dumps, the service
#: cache).  Listed in the root ``.gitignore``.
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("paper-tables", "goal-traced", "fleet-matrix", "service-stream")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Percentiles considered for a tail; the tail is the highest one that
#: still has at least ``TAIL_BEYOND`` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def program_present():
    """True when the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_program_source():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """``(percentile, value, samples)`` for the tail of ``values``.

    The tail is the highest percentile with at least ten samples beyond
    it; with too few samples for any, it is the maximum (percentile 100).
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, percentile(values, pct), n
    return 100.0, max(values), n


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Spans:
    """In-memory spans around the benchmark's calls into the program.

    Each span has a name, start, end, parent span id, and operation id;
    spans are written out once, when the run ends.  A disabled recorder
    costs one attribute test per call.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.records = []
        self._stack = []
        self._next_id = 1

    @contextmanager
    def span(self, name, op):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({"id": span_id, "name": name, "op": op,
                                 "parent": parent, "start": start,
                                 "end": end})

    def durations(self, name):
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)
            handle.write("\n")



class _Cell:
    __slots__ = ("key", "joules")

    def __init__(self, key):
        self.key = key
        self.joules = 0.0

    def add(self, watts, seconds):
        self.joules += watts * seconds
        return self.joules


def reference_loop():
    """A fixed pure-Python load shaped like the simulator's inner loops
    (method calls, slot updates, float arithmetic, dict stores)."""
    cells = [_Cell(i) for i in range(1500)]
    index = {}
    total = 0.0
    for rounds in range(24):
        for cell in cells:
            total += cell.add(1.5 + rounds, 0.25)
            index[cell.key % 101] = total
    return total


def at_reference(wall, cpu, factor):
    """``wall`` seconds with their ``cpu`` part scaled by ``factor``.

    Time spent waiting (on sleeps, sockets or other processes) stays as
    measured, because host speed does not change it.
    """
    return wall - cpu + cpu * factor


class Stretch:
    """A timed stretch without its host-speed samples' own time.

    ``wall`` and ``cpu`` are host seconds; ``ref`` is ``wall`` with each
    segment's CPU part scaled to the reference host speed.
    """

    def __init__(self, wall, cpu, ref, sampled_wall, sampled_cpu):
        self.wall, self.cpu, self.ref = wall, cpu, ref
        #: Wall and CPU seconds the samples took.
        self.sampled_wall, self.sampled_cpu = sampled_wall, sampled_cpu

    @property
    def factor(self):
        """The CPU-weighted scale factor of the stretch's segments."""
        return (self.ref - self.wall + self.cpu) / self.cpu if self.cpu else 1.0


class HostSpeed:
    """Samples how long this host takes for :func:`reference_loop`.

    The speed of a shared host changes by tens of percent within a
    second, for every process on it alike (on a 2-vCPU VM the reference
    loop flips between two speeds about 1.7x apart).  A timed stretch is
    therefore cut into segments by samples: a burst just before it
    begins, a burst just after it ends and, when asked, one sample every
    :attr:`INTERVAL_S` of process CPU time inside it, taken by a
    ``SIGPROF`` timer wherever the program happens to be.  Each
    segment's CPU part is scaled by the mean of the two samples around
    it, and the samples' own time is left out of the stretch.
    """

    #: Seconds :func:`reference_loop` takes at the reference speed.
    NOMINAL_S = 0.0075
    INTERVAL_S = 0.1
    #: Loops in the sample that opens or closes a stretch (their median
    #: is the sample's reading).
    BRACKET = 3

    def __init__(self):
        #: ``(wall_began, wall_ended, cpu_began, cpu_ended, loop_s)``
        #: for each sample of the current stretch.
        self._samples = []
        self._busy = False

    def _sample(self, loops=1):
        if self._busy:
            return
        self._busy = True
        began, began_cpu = time.perf_counter(), time.process_time()
        took = []
        for _ in range(loops):
            start = time.perf_counter()
            reference_loop()
            took.append(time.perf_counter() - start)
        self._samples.append((began, time.perf_counter(), began_cpu,
                              time.process_time(), statistics.median(took)))
        self._busy = False

    def _on_timer(self, _signum, _frame):
        self._sample()

    def begin(self, during=False):
        """Open a stretch; with ``during``, also sample inside it."""
        self._samples = []
        self._sample(self.BRACKET)
        if during:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S,
                             self.INTERVAL_S)

    def end(self):
        """Close the stretch and return it as a :class:`Stretch`."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self._sample(self.BRACKET)
        wall = cpu = ref = 0.0
        for before, after in zip(self._samples, self._samples[1:]):
            seg_wall = after[0] - before[1]
            seg_cpu = min(seg_wall, after[2] - before[3])
            factor = 2 * self.NOMINAL_S / (before[4] + after[4])
            wall += seg_wall
            cpu += seg_cpu
            ref += at_reference(seg_wall, seg_cpu, factor)
        return Stretch(wall, cpu, ref,
                       sum(s[1] - s[0] for s in self._samples),
                       sum(s[3] - s[2] for s in self._samples))
