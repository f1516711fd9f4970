"""Host-speed reference: a fixed pass of program-independent work.

On a 2-vCPU VM that shares its host with other machines, how fast Python
runs drifts by 10-30% over minutes, so consecutive runs of identical work
differ by that much in host seconds.  A :class:`HostReference` pass
is a fixed amount of work that touches none of the program under test,
mixing what the simulator spends its time on: a dependent walk through
small objects with tuple-key dict lookups and a heap, interpreter
arithmetic, HMAC-SHA256 tags and small numpy distance queries.  The
benchmark runs one pass after every timed operation and after every
set-up probe, untimed, and reports its host-time metrics scaled by
``NOMINAL_PASS_S / median(pass seconds)``: host seconds converted to a
host that runs the pass in ``NOMINAL_PASS_S``.  A program change cannot
move the pass, so a change that makes an operation 10% slower makes its
scaled time 10% larger.

The pass runs with the cyclic garbage collector off, so its cost does not
depend on how many objects the program left alive.  Its own objects are
built once, before the first operation, and held for the whole run.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import hmac
import random
import statistics
import time
from typing import List

import numpy

#: Seconds one pass takes on a host the benchmark calls nominal (the
#: median on a 2-vCPU Xeon VM under Python 3.11).  Only a unit: changing
#: it rescales every scaled metric and so changes the benchmark.
NOMINAL_PASS_S = 0.16


class _Cell:
    __slots__ = ("next", "value", "key")

    def __init__(self, nxt: int, value: float, key: tuple) -> None:
        self.next = nxt
        self.value = value
        self.key = key


class HostReference:
    """One fixed pass of work, timed by :meth:`measure`."""

    def __init__(self, cells: int = 30_000, steps: int = 80_000) -> None:
        rng = random.Random(20240101)
        order = list(range(cells))
        rng.shuffle(order)
        successor = [0] * cells
        for here, there in zip(order, order[1:] + order[:1]):
            successor[here] = there
        self._cells = [_Cell(successor[i], rng.random(), (i % 389, i % 97))
                       for i in range(cells)]
        self._table = {(i % 389, i % 97): i for i in range(cells)}
        self._steps = steps
        self._points = numpy.random.default_rng(1).random((300, 2))
        self.passes: List[float] = []

    def _walk(self) -> float:
        """Dependent loads through objects, dict lookups, a heap."""
        cells, table = self._cells, self._table
        heap: List[tuple] = []
        index, total = 0, 0.0
        for step in range(self._steps):
            cell = cells[index]
            total += cell.value + table[cell.key]
            if step % 8 == 0:
                heapq.heappush(heap, (cell.value, step))
                if len(heap) > 512:
                    heapq.heappop(heap)
            index = cell.next
        return total

    @staticmethod
    def _arithmetic() -> int:
        total = 0
        for i in range(400_000):
            total += i * i % 7
        return total

    @staticmethod
    def _hmac() -> bytes:
        key, message, tag = b"k" * 32, b"x" * 120, b""
        for _ in range(15_000):
            tag = hmac.new(key, message, hashlib.sha256).digest()
        return tag

    def _neighbours(self) -> int:
        """Small-array distance queries, as a radio medium makes them."""
        points, found = self._points, 0
        for i in range(3_000):
            squared = ((points - points[i % 300]) ** 2).sum(axis=1)
            found += len(numpy.nonzero(squared < 0.01)[0].tolist())
        return found

    def _work(self) -> None:
        self._walk()
        self._arithmetic()
        self._hmac()
        self._neighbours()

    def measure(self) -> float:
        """Run one pass; record and return its host seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.passes.append(seconds)
        return seconds

    def scale(self) -> float:
        """Factor from host seconds to nominal-host seconds."""
        return NOMINAL_PASS_S / statistics.median(self.passes)
