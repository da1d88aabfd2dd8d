"""WallClockRuntime unit tests beyond the shared conformance battery.

The cross-clock contract (ordering, cohorts, cancellation, ``now``
semantics) lives in ``test_clock_protocol.py``; this file covers the
runtime-only surface: lifecycle (close/drained/run_for), the lazy
cancellation counters, and constructor validation.
"""

import asyncio

import pytest

from repro.service.runtime import ServiceRuntimeError, WallClockRuntime
from repro.sim.events import EventKind

#: Clock seconds per wall second: scenarios finish in milliseconds.
SCALE = 200.0


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


class TestConstruction:
    def test_time_scale_validated(self):
        async def main():
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError, match="time_scale"):
                    WallClockRuntime(time_scale=bad)

        run_async(main())

    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            WallClockRuntime()

    def test_properties(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            assert runtime.time_scale == SCALE
            assert not runtime.closed
            assert runtime.pending == 0
            assert runtime.dispatched == 0
            assert runtime.peek_time() is None

        run_async(main())


class TestLifecycle:
    def test_close_refuses_further_scheduling(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.schedule(5.0, EventKind.CALLBACK, lambda _e: None)
            runtime.close()
            assert runtime.closed
            assert runtime.pending == 0  # pending events dropped
            with pytest.raises(ServiceRuntimeError):
                runtime.schedule(1.0, EventKind.CALLBACK, lambda _e: None)
            with pytest.raises(ServiceRuntimeError):
                runtime.schedule_at(1.0, EventKind.CALLBACK, lambda _e: None)

        run_async(main())

    def test_close_is_idempotent(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.close()
            runtime.close()

        run_async(main())

    def test_drained_resolves_immediately_when_idle(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            await runtime.drained()  # empty heap: no wait
            runtime.close()
            await runtime.drained()  # closed: no wait

        run_async(main())

    def test_drained_waits_for_chained_events(self):
        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)

            def second(_event):
                fired.append("second")

            def first(_event):
                fired.append("first")
                runtime.schedule(1.0, EventKind.CALLBACK, second)

            runtime.schedule(1.0, EventKind.CALLBACK, first)
            await runtime.drained()

        run_async(main())
        assert fired == ["first", "second"]

    def test_drained_resolves_on_close_with_pending_work(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            # Far-future event the test never waits out.
            runtime.schedule(10_000.0, EventKind.CALLBACK, lambda _e: None)
            waiter = asyncio.ensure_future(runtime.drained())
            await asyncio.sleep(0)
            assert not waiter.done()
            runtime.close()
            await asyncio.wait_for(waiter, timeout=5.0)

        run_async(main())

    def test_run_for_lets_timers_fire(self):
        fired = []

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            runtime.schedule(1.0, EventKind.CALLBACK, lambda _e: fired.append(1))
            await runtime.run_for(5.0)

        run_async(main())
        assert fired == [1]


class TestQueueIntrospection:
    def test_pending_counts_cancelled_pending_active_does_not(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            keep = runtime.schedule_at(5.0, EventKind.CALLBACK, lambda _e: None)
            drop = runtime.schedule_at(2.0, EventKind.CALLBACK, lambda _e: None)
            runtime.cancel(drop)
            assert runtime.pending == 2
            assert runtime.pending_active == 1
            # peek_time skips the cancelled head and reports the live event.
            assert runtime.peek_time() == keep.time == 5.0
            runtime.close()

        run_async(main())

    def test_dispatched_counts_and_transient_is_inert(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            event = runtime.schedule(
                0.0, EventKind.CALLBACK, lambda _e: None, transient=True
            )
            await runtime.drained()
            assert runtime.dispatched == 1
            # No pool recycling on the wall clock: the handle stays intact.
            assert not event.cancelled

        run_async(main())

    def test_now_is_monotone_between_reads(self):
        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            readings = [runtime.now for _ in range(50)]
            assert readings == sorted(readings)

        run_async(main())


class TestSlicedDraining:
    def test_backlogged_drain_does_not_starve_the_loop(self):
        """A chain that can't catch up must still let other loop work run.

        Each firing burns more wall time than the next event's delay is
        worth, so the drain loop is permanently behind: without the
        DRAIN_SLICE_WALL yield, ``_fire`` would never return and the
        concurrent sleep below would never complete (the loop is starved
        exactly the way a backlogged gateway starves its sockets).
        """
        import time

        async def main():
            runtime = WallClockRuntime(time_scale=SCALE)
            fired = [0]

            def spin(_event):
                fired[0] += 1
                # 2 ms of wall work, then reschedule 1 ms (wall) out: the
                # chain outruns the clock forever.
                time.sleep(0.002)
                runtime.schedule(0.001 * SCALE, EventKind.CALLBACK, spin)

            runtime.schedule(0.0, EventKind.CALLBACK, spin)
            # This sleep only completes if the drain yields the loop.
            await asyncio.wait_for(asyncio.sleep(0.2), timeout=5.0)
            assert fired[0] > 0
            runtime.close()

        run_async(main())


class _ManualLoop:
    """Loop stand-in with a hand-driven clock.

    Each ``time()`` read advances the clock by one microsecond, so a drain
    loop that never makes progress still reaches the end of its wall slice
    and returns instead of hanging the test.
    """

    def __init__(self) -> None:
        self.t = 0.0
        self.soon: list = []

    def time(self) -> float:
        self.t += 1e-6
        return self.t

    def call_at(self, when, callback):
        return asyncio.Handle(callback, (), self)

    def call_soon(self, callback):
        handle = asyncio.Handle(callback, (), self)
        self.soon.append(handle)
        return handle

    def get_debug(self) -> bool:
        return False


class TestFloorPastDueCohort:
    def test_later_higher_priority_head_does_not_preempt_earlier_cohort(self):
        """The floor sits past a due cohort with a higher-priority event
        between them: the cohort must dispatch, then the later event, in a
        single timer firing (the old floor comparison re-queued the cohort
        ahead of that event forever)."""
        loop = _ManualLoop()
        runtime = WallClockRuntime(loop=loop, time_scale=1.0)
        fired = []
        runtime.schedule_at(
            1.0, EventKind.CALLBACK, lambda _e: fired.append("cohort"), priority=5
        )
        runtime.schedule_at(
            2.0, EventKind.CALLBACK, lambda _e: fired.append("urgent"), priority=1
        )
        loop.t = 3.0
        assert runtime.now >= 3.0  # the floor has passed both events
        runtime._fire()
        assert fired == ["cohort", "urgent"]
        assert runtime.dispatched == 2
        assert loop.soon == []  # the drain finished inside its slice
