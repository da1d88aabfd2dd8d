"""Host-speed reference: express measured times in reference seconds.

The benchmark runs on a shared host whose speed drifts: a fixed piece of
Python work can take 1.7 times as long from one minute to the next, and
process CPU time drifts with wall time, so neither clock alone gives figures
that two runs of the same code agree on.  :class:`Calibrator` runs a fixed
reference walk every ``PERIOD_S`` seconds from a ``SIGALRM`` handler, in the
same thread as the program, and times it.  The walk mixes the two kinds of
work the program is made of: a random-order pass over a list of floats
(interpreter work that misses the caches, like the program's object graphs)
and a loop of small numpy array operations.  The program time between two
walks is divided by the second walk's time and multiplied by ``NOMINAL_S``:
the result is that stretch's length on a host where one walk takes exactly
``NOMINAL_S``.  A span's reference seconds are the sum over the stretches it
covers.  Time spent in the walks is never counted as program time.

The reference is part of the benchmark, not of the program, so a change to
the program moves these figures and a change of host speed mostly does not.
Raw wall-clock figures are kept in the report line next to them.
"""

from __future__ import annotations

import signal
import time
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

#: Seconds between two reference walks.
PERIOD_S = 0.03
#: List elements read per walk.
WALK = 2500
#: Size of the list walked; its floats span about 10 MB.
SIZE = 300_000
#: Small numpy operations per walk, on an array of ``ARRAY`` floats.
ARRAY_OPS = 150
ARRAY = 40
#: Walk duration that defines one reference second (a walk takes 1.5 to
#: 2.5 ms on a 2-core Xeon host).
NOMINAL_S = 0.0018


class Mark(NamedTuple):
    """A point in time, with the walk time and reference time reached by then."""

    at: float
    spent: float
    ref: float


class Calibrator:
    """Times the reference walk in the background of a measured span."""

    def __init__(self) -> None:
        order = np.random.default_rng(20_240_601).permutation(SIZE)
        self._data = [float(i) for i in range(SIZE)]
        self._order: List[int] = order.tolist()
        self._array = np.arange(float(ARRAY))
        self._pos = 0
        self._busy = False
        self._previous: Optional[Tuple[object, Tuple[float, float]]] = None
        #: Seconds spent in walks so far.
        self.spent = 0.0
        #: Duration of every walk, in order.
        self.walks: List[float] = []
        #: Reference seconds of program time up to the end of the last walk.
        self._ref = 0.0
        self._since = time.perf_counter()

    def _walk(self) -> float:
        data, order, pos = self._data, self._order, self._pos
        total = 0.0
        for j in range(pos, pos + WALK):
            total += data[order[j]]
        self._pos = (pos + WALK) % (SIZE - WALK)
        array = self._array
        for i in range(ARRAY_OPS):
            total += float((array * i + 1.0).sum())
        return total

    def _tick(self, signum: int, frame: object) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._walk()
        end = time.perf_counter()
        elapsed = end - start
        self._ref += (start - self._since) * NOMINAL_S / elapsed
        self._since = end
        self.spent += elapsed
        self.walks.append(elapsed)
        self._busy = False

    def start(self) -> "Calibrator":
        self._tick(signal.SIGALRM, None)
        handler = signal.signal(signal.SIGALRM, self._tick)
        timer = signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._previous = (handler, timer)
        return self

    def stop(self) -> None:
        if self._previous is None:
            return
        handler, _ = self._previous
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, handler)  # type: ignore[arg-type]
        self._previous = None

    def mark(self) -> Mark:
        """Now; the stretch since the last walk is scaled by that walk (by
        1.0 before the first walk, so an idle calibrator gives wall time)."""
        now = time.perf_counter()
        scale = NOMINAL_S / self.walks[-1] if self.walks else 1.0
        return Mark(now, self.spent, self._ref + (now - self._since) * scale)

    @staticmethod
    def raw_s(begin: Mark, end: Mark) -> float:
        """Program wall seconds between two marks (walks excluded)."""
        return (end.at - begin.at) - (end.spent - begin.spent)

    @staticmethod
    def ref_s(begin: Mark, end: Mark) -> float:
        """Program seconds between two marks, in reference seconds."""
        return end.ref - begin.ref
