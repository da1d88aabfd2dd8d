"""Wall-clock asyncio event source satisfying the :class:`EventClock` protocol.

:class:`WallClockRuntime` is the live-service twin of the DES
:class:`~repro.sim.engine.Engine`: the same heap of ``(time, priority, seq,
Event)`` tuples and the same cohort-dispatch semantics, but time advances
with the asyncio event loop's monotonic clock instead of jumping to the next
event.  The platform components cannot tell the difference — they see the
:class:`~repro.sim.clock.EventClock` surface only — which is what lets one
:class:`~repro.platform.scheduling.SchedulingComponent` instance run a
simulation today and a live gateway tomorrow.

Design notes
------------

* **One armed timer.**  Instead of one ``loop.call_at`` per event (which
  would make ``cancel`` an O(log n) loop-handle dance), the runtime keeps
  its own heap and arms a single timer for the head.  Scheduling an earlier
  event re-arms; cancellation just flags the event (lazily skipped), the
  same strategy the DES engine uses.
* **Cohorts.**  When the timer fires, every event whose due time has passed
  is drained in ``(time, priority, seq)`` order and grouped into
  ``(time, priority)`` cohorts; consecutive same-callback members with a
  registered cohort handler are delivered as one ``handler(now, events)``
  call — bit-for-bit the dispatch grouping of ``Engine.run()``.
* **Frozen ``now``.**  ``now`` is monotone nondecreasing and *frozen* for
  the duration of one cohort dispatch, so every member of a cohort observes
  the same instant — the DES engine gives the same guarantee, and the Eq. 2
  sweep's batch evaluation depends on it.  Between cohorts the clock is
  re-read, so a callback loop cannot livelock the loop at one instant.
* **Sliced draining.**  One timer firing drains due cohorts for at most
  :data:`DRAIN_SLICE_WALL` wall seconds; if the runtime is still behind it
  yields the loop one iteration (``call_soon``) and resumes.  Without the
  slice, a runtime that falls behind real time — self-rescheduling events
  whose processing outpaces their period under CPU contention — would
  drain forever inside one callback, starving every socket on the loop:
  heartbeats and answers stop flowing, so the backlog that caused the
  lag can never clear, and the loop livelocks at 100% CPU.
* **``time_scale``.**  Clock seconds per wall second.  1.0 for real
  serving; the conformance and gateway tests run at 50-500x so a "10
  simulated seconds" scenario finishes in tens of milliseconds of real
  time.  Scaling happens at the clock read, so schedules/deadlines are
  expressed in *clock* seconds everywhere.
* **``transient`` is accepted but inert.**  The DES engine recycles
  transient events through an :class:`~repro.sim.events.EventPool`; here
  event allocation is nowhere near the HTTP stack's cost, so pooled reuse
  would buy risk (a live callback retaining a recycled event) and no
  latency.

The runtime never blocks the loop: ``_fire`` runs synchronously (platform
callbacks are plain functions), then control returns to asyncio.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import heapq

from ..sim.clock import CohortHandler
from ..sim.engine import SimulationError
from ..sim.events import Event, EventKind

_HeapEntry = Tuple[float, int, int, Event]

#: Wall seconds one timer firing may spend draining before yielding the
#: loop back to I/O.  Large enough that no sane backlog ever hits it;
#: small enough that sockets stay responsive while the runtime catches up.
DRAIN_SLICE_WALL = 0.05


class ServiceRuntimeError(RuntimeError):
    """Raised for misuse of the wall-clock runtime (e.g. use after close)."""


class WallClockRuntime:
    """Monotonic wall-clock event source driven by an asyncio loop."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._scale = time_scale
        self._origin = self._loop.time()
        self._heap: List[_HeapEntry] = []
        self._timer: Optional[asyncio.Handle] = None
        #: Clock time the armed timer targets (inf = no timer armed).
        self._armed_for = math.inf
        self._cohort_handlers: Dict[Callable[[Event], None], CohortHandler] = {}
        self._dispatching = False
        #: Clock value every callback in the current cohort observes.
        self._frozen: Optional[float] = None
        #: Monotone floor: ``now`` never reads below the last dispatch time.
        self._floor = 0.0
        self._dispatched = 0
        self._closed = False
        self._idle_waiters: List[asyncio.Future[None]] = []

    # ------------------------------------------------------------------ time
    def _read(self) -> float:
        return (self._loop.time() - self._origin) * self._scale

    @property
    def now(self) -> float:
        """Monotonic clock seconds since the runtime was created."""
        if self._frozen is not None:
            return self._frozen
        value = self._read()
        if value < self._floor:
            return self._floor
        self._floor = value
        return value

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Queued events, including cancelled ones (cheap)."""
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Queued events that will actually fire."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    @property
    def time_scale(self) -> float:
        return self._scale

    @property
    def closed(self) -> bool:
        return self._closed

    def peek_time(self) -> Optional[float]:
        """Clock time of the next non-cancelled event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` clock seconds from now."""
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(
            time=self.now + delay,
            kind=kind,
            callback=callback,
            payload=payload,
            priority=priority,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._arm()
        return event

    def schedule_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` at absolute clock time ``time``.

        The event is placed at exactly ``time`` rather than via a delay
        round-trip: wall time advances between two ``now`` reads, so
        ``schedule(time - now, ...)`` would give two events scheduled for
        the same literal instant slightly different times and split what
        must be one coincident cohort.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        event = Event(
            time=time,
            kind=kind,
            callback=callback,
            payload=payload,
            priority=priority,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._arm()
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazily skipped at dispatch)."""
        event.cancelled = True

    # ------------------------------------------------------------- cohorts
    def register_cohort_handler(
        self, callback: Callable[[Event], None], handler: CohortHandler
    ) -> None:
        """Route cohorts of ``callback`` events through ``handler``."""
        self._cohort_handlers[callback] = handler

    def unregister_cohort_handler(self, callback: Callable[[Event], None]) -> None:
        self._cohort_handlers.pop(callback, None)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Drop every pending event and refuse further scheduling."""
        self._closed = True
        self._cancel_timer()
        self._heap.clear()
        self._notify_idle()

    async def drained(self) -> None:
        """Await the instant the heap holds no live events.

        Events scheduled *while* waiting extend the wait; a closed runtime
        resolves immediately.
        """
        if self._closed or self.pending_active == 0:
            return
        waiter: asyncio.Future[None] = self._loop.create_future()
        self._idle_waiters.append(waiter)
        await waiter

    async def run_for(self, clock_seconds: float) -> None:
        """Let the runtime dispatch for ``clock_seconds`` of clock time.

        Test/driver convenience: sleeps the calling coroutine for the
        corresponding *wall* duration while timers fire underneath.
        """
        await asyncio.sleep(clock_seconds / self._scale)

    # ------------------------------------------------------------ internals
    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_for = math.inf

    def _notify_idle(self) -> None:
        if not self._idle_waiters:
            return
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _arm(self) -> None:
        """Point the single timer at the heap's head (no-op mid-dispatch)."""
        if self._dispatching or self._closed:
            return
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            self._cancel_timer()
            self._notify_idle()
            return
        head = heap[0][0]
        if self._timer is not None and self._armed_for <= head:
            return
        self._cancel_timer()
        self._armed_for = head
        wall_at = self._origin + head / self._scale
        self._timer = self._loop.call_at(
            max(wall_at, self._loop.time()), self._fire
        )

    def _fire(self) -> None:
        """Timer callback: drain due cohorts for one slice, then re-arm.

        Draining is bounded to :data:`DRAIN_SLICE_WALL` wall seconds per
        firing; a runtime still behind after the slice re-queues itself
        with ``call_soon`` so the loop can service I/O in between — the
        sockets delivering answers are what shrink the backlog.
        """
        self._timer = None
        self._armed_for = math.inf
        heap = self._heap
        slice_end = self._loop.time() + DRAIN_SLICE_WALL
        behind = False
        self._dispatching = True
        try:
            while heap:
                wall_now = self._read()
                if wall_now < self._floor:
                    wall_now = self._floor
                key_time, key_priority = heap[0][0], heap[0][1]
                if key_time > wall_now:
                    break
                if self._loop.time() >= slice_end:
                    behind = True
                    break
                cohort: List[Event] = []
                while heap and heap[0][0] == key_time and heap[0][1] == key_priority:
                    event = heapq.heappop(heap)[3]
                    if not event.cancelled:
                        cohort.append(event)
                if not cohort:
                    continue
                # Every member observes the cohort's due time, exactly as the
                # DES engine sets `_now = key_time`; the floor keeps `now`
                # monotone across late-fired cohorts.
                self._floor = max(self._floor, key_time)
                self._frozen = self._floor
                try:
                    self._dispatch_cohort(cohort, self._frozen, key_priority)
                finally:
                    self._frozen = None
        finally:
            self._dispatching = False
        if behind and not self._closed:
            # -inf keeps _arm from cancelling this handle: any head is later.
            self._armed_for = -math.inf
            self._timer = self._loop.call_soon(self._fire)
            return
        self._arm()

    def _dispatch_cohort(
        self, cohort: List[Event], now: float, key_priority: int
    ) -> None:
        """Walk one cohort in seq order with consecutive-callback batching.

        Mirrors ``Engine._dispatch_cohort``: cancellation is re-checked per
        member (an earlier member may cancel a later one), and a same-time
        *higher-priority* event scheduled mid-cohort preempts the remaining
        members (they re-queue and fire in the next drain iteration).

        Preemption compares the head against the cohort's own due time, not
        against ``now``: ``now`` is the monotone floor, which may already sit
        past later events, and a later higher-priority head must not preempt
        an earlier cohort — the cohort would re-queue ahead of that head and
        be preempted again on every drain iteration.
        """
        heap = self._heap
        handlers = self._cohort_handlers
        key_time = cohort[0].time
        index = 0
        n = len(cohort)
        while index < n:
            if heap:
                head = heap[0]
                if head[0] <= key_time and head[1] < key_priority:
                    break
            event = cohort[index]
            if event.cancelled:
                index += 1
                continue
            handler = handlers.get(event.callback) if handlers else None
            if handler is None:
                index += 1
                self._dispatched += 1
                event.callback(event)
                continue
            batch = [event]
            scan = index + 1
            while scan < n:
                peer = cohort[scan]
                if peer.callback != event.callback:
                    break
                if not peer.cancelled:
                    batch.append(peer)
                scan += 1
            index = scan
            self._dispatched += len(batch)
            handler(now, batch)
        if index < n:
            # Preempted: the undispatched tail re-queues and the outer drain
            # loop picks it up after the higher-priority event fires.
            for event in cohort[index:]:
                heapq.heappush(
                    heap, (event.time, event.priority, event.seq, event)
                )
