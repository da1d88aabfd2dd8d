"""LiveRegionServer on the deterministic DES engine.

The acceptance claim of the live-service PR is that the four platform
component classes run unmodified under either clock.  Here the live bridge
— pull-delivery inboxes, answer staleness, AMT expiry, liveness culling —
is exercised on the :class:`~repro.sim.engine.Engine`, where every timing
assertion is exact; the wall-clock side of the same claim is the gateway
suite plus the loadgen round-trip.
"""

import pytest

from repro.model.task import Task, TaskCategory, TaskPhase
from repro.model.worker import WorkerBehavior, WorkerProfile
from repro.platform.cost import PaperCalibratedCost, ZeroCost
from repro.platform.invariants import InvariantMonitor, check_server_invariants
from repro.platform.policies import react_policy
from repro.platform.resilience import ResilienceConfig
from repro.scenarios.budget import BudgetLedger
from repro.service.bridge import LiveRegionServer
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def build_live_server(policy=None, **kwargs):
    engine = Engine()
    server = LiveRegionServer(
        engine=engine,
        policy=policy if policy is not None else react_policy(batch_threshold=1),
        rng=RngRegistry(seed=7),
        cost_model=ZeroCost(),
        **kwargs,
    )
    server.start()
    return engine, server


def make_task(deadline=60.0):
    return Task(
        latitude=5.0,
        longitude=5.0,
        deadline=deadline,
        reward=0.05,
        category=TaskCategory.GENERIC,
    )


def register(server, worker_id=1):
    profile = WorkerProfile(worker_id=worker_id, latitude=5.0, longitude=5.0)
    server.add_worker(profile)
    return profile


class TestDispatchAndAnswer:
    def test_end_to_end_on_the_des_engine(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        engine.run(until=1.0)  # dispatch the threshold-triggered batch

        notice = server.heartbeat(1)
        assert notice is not None
        assert notice.task_id == task.task_id
        assert notice.worker_id == 1
        assert notice.generation == 1
        assert notice.deadline_at == task.absolute_deadline
        # The inbox slot is consumed: the next poll is empty.
        assert server.heartbeat(1) is None

        engine.run(until=5.0)
        outcome = server.submit_answer(1, task.task_id)
        assert outcome.completed and outcome.met_deadline
        assert task.phase is TaskPhase.COMPLETED
        assert server.in_flight == 0

        summary = server.drain_and_summary()
        assert summary["received"] == 1
        assert summary["pending_unassigned"] == 0

    def test_answer_frees_worker_for_next_task(self):
        engine, server = build_live_server()
        register(server)
        first, second = make_task(), make_task()
        server.submit_task(first)
        engine.run(until=1.0)
        assert server.heartbeat(1).task_id == first.task_id
        server.submit_answer(1, first.task_id)
        # The completion's maybe_trigger matches queued work to the freed
        # worker on the next engine step.
        server.submit_task(second)
        engine.run(until=2.0)
        assert server.heartbeat(1).task_id == second.task_id

    def test_answer_unknown_worker_and_task(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        assert server.submit_answer(99, task.task_id).status == "unknown_worker"
        assert server.submit_answer(1, 10_000_000).status == "unknown_task"


class TestRunningExpiry:
    def test_expiry_withdraws_and_releases_the_worker(self):
        engine, server = build_live_server()
        profile = register(server)
        task = make_task(deadline=2.0)
        server.submit_task(task)
        engine.run(until=1.0)
        assert profile.current_task == task.task_id
        # The worker never polls; the deadline lapses with the task out.
        engine.run(until=10.0)
        assert task.phase is not TaskPhase.ASSIGNED
        assert profile.current_task is None
        assert server.metrics.expiry_returns == 1
        # The undelivered notice died with the assignment.
        assert server.heartbeat(1) is None

    def test_answer_after_expiry_is_stale(self):
        engine, server = build_live_server()
        register(server)
        task = make_task(deadline=2.0)
        server.submit_task(task)
        engine.run(until=1.0)
        notice = server.heartbeat(1)
        assert notice is not None
        engine.run(until=10.0)  # deadline passes while the worker dawdles
        outcome = server.submit_answer(1, task.task_id)
        assert outcome.status == "stale"
        assert not outcome.completed
        assert server.metrics.summary()["completed"] == 0


class TestWorkerLifecycle:
    def test_heartbeat_unknown_worker_raises(self):
        _, server = build_live_server()
        with pytest.raises(KeyError):
            server.heartbeat(42)

    def test_deregister_requeues_in_flight_task(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        engine.run(until=1.0)
        assert task.phase is TaskPhase.ASSIGNED
        server.remove_worker(1)
        assert task.phase is TaskPhase.UNASSIGNED
        with pytest.raises(KeyError):
            server.heartbeat(1)
        # A fresh worker picks the requeued task up.
        register(server, worker_id=2)
        engine.run(until=3.0)
        notice = server.heartbeat(2)
        assert notice is not None and notice.task_id == task.task_id
        assert notice.generation == 2

    def test_liveness_cull_deregisters_silent_workers(self):
        engine, server = build_live_server(
            liveness_timeout=5.0, liveness_interval=1.0
        )
        register(server)
        engine.run(until=10.0)  # never heartbeats: culled after 5 s
        assert 1 not in server.profiling
        with pytest.raises(KeyError):
            server.heartbeat(1)

    def test_heartbeat_keeps_worker_alive(self):
        engine, server = build_live_server(
            liveness_timeout=5.0, liveness_interval=1.0
        )
        register(server)
        for t in (3.0, 6.0, 9.0):
            engine.run(until=t)
            server.heartbeat(1)
        engine.run(until=12.0)
        assert 1 in server.profiling

    def test_behavior_selects_simulated_delivery(self):
        engine, server = build_live_server()
        server.add_worker(
            WorkerProfile(worker_id=3, latitude=5.0, longitude=5.0),
            behavior=WorkerBehavior(
                min_time=2.0, max_time=3.0, quality=1.0, delay_probability=0.0
            ),
        )
        assert 3 in server.profiling
        # A simulated worker is not a pull worker: no heartbeat, no answers.
        with pytest.raises(KeyError):
            server.heartbeat(3)
        task = make_task()
        server.submit_task(task)
        engine.run(until=10.0)
        assert server.submit_answer(3, task.task_id).status == "unknown_worker"
        # His sampled completion finished the task on the clock.
        assert task.phase is TaskPhase.COMPLETED
        assert task.assigned_worker == 3


class TestTaskStatus:
    def test_status_through_the_lifecycle(self):
        engine, server = build_live_server()
        register(server)
        task = make_task()
        server.submit_task(task)
        status = server.task_status(task.task_id)
        assert status["phase"] in ("unassigned", "assigned")
        assert status["met_deadline"] is None
        engine.run(until=1.0)
        server.submit_answer(1, task.task_id)
        status = server.task_status(task.task_id)
        assert status["phase"] == "completed"
        assert status["met_deadline"] is True
        assert status["assignments"] == 1

    def test_unknown_task_raises(self):
        _, server = build_live_server()
        with pytest.raises(KeyError):
            server.task_status(123456789)


class TestConstruction:
    def test_double_start_raises(self):
        _, server = build_live_server()
        with pytest.raises(RuntimeError, match="started"):
            server.start()

    def test_liveness_validation(self):
        engine = Engine()
        with pytest.raises(ValueError, match="liveness_timeout"):
            LiveRegionServer(
                engine=engine,
                policy=react_policy(),
                rng=RngRegistry(seed=1),
                liveness_timeout=0.0,
            )
        with pytest.raises(ValueError, match="liveness_interval"):
            LiveRegionServer(
                engine=engine,
                policy=react_policy(),
                rng=RngRegistry(seed=1),
                liveness_interval=-1.0,
            )

    def test_stop_disarms_timers(self):
        engine, server = build_live_server(
            liveness_timeout=5.0, liveness_interval=1.0
        )
        server.stop()
        engine.run(until=50.0)
        assert engine.pending_active == 0


def answer_after(engine, server, worker_id, seconds):
    """Poll for ``worker_id``'s assignment and answer it ``seconds`` later."""
    notice = server.heartbeat(worker_id)
    assert notice is not None
    engine.run(until=engine.now + seconds)
    return server.submit_answer(worker_id, notice.task_id)


class TestResilienceOnPullWorkers:
    def test_reassignment_budget_retires_on_second_withdrawal(self):
        engine, server = build_live_server(
            resilience=ResilienceConfig(retry_backoff_base=0.0, max_reassignments=2)
        )
        register(server, worker_id=1)
        task = make_task()
        server.submit_task(task)
        engine.run(until=1.0)
        # First withdrawal (the worker leaves): one handout left, re-queued.
        server.remove_worker(1)
        assert task.phase is TaskPhase.UNASSIGNED
        assert server.metrics.reassignment_budget_exhausted == 0
        register(server, worker_id=2)
        engine.run(until=2.0)
        assert server.heartbeat(2).generation == 2
        # Second withdrawal spends the budget: retired, not re-queued.
        server.remove_worker(2)
        assert task.phase is TaskPhase.EXPIRED
        assert server.metrics.reassignment_budget_exhausted == 1
        summary = server.drain_and_summary()
        assert summary["expired_unassigned"] == 1
        assert summary["pending_unassigned"] == 0

    def test_reassignment_budget_retires_on_expiry(self):
        engine, server = build_live_server(
            resilience=ResilienceConfig(retry_backoff_base=0.0, max_reassignments=1)
        )
        register(server)
        task = make_task(deadline=2.0)
        server.submit_task(task)
        engine.run(until=10.0)
        assert server.metrics.expiry_returns == 1
        assert server.metrics.reassignment_budget_exhausted == 1
        assert task.phase is TaskPhase.EXPIRED

    def test_backoff_defers_a_withdrawn_task(self):
        engine, server = build_live_server(
            resilience=ResilienceConfig(retry_backoff_base=5.0)
        )
        register(server, worker_id=1)
        task = make_task()
        server.submit_task(task)
        engine.run(until=1.0)
        server.remove_worker(1)
        assert server.metrics.deferred_retries == 1
        assert server.drain_and_summary()["pending_deferred"] == 1
        register(server, worker_id=2)
        engine.run(until=5.0)
        # Parked for backoff_delay(1) = 5 s: invisible to the matcher.
        assert server.heartbeat(2) is None
        engine.run(until=7.0)
        notice = server.heartbeat(2)
        assert notice is not None and notice.task_id == task.task_id
        assert notice.generation == 2


class TestBudgetOnPullWorkers:
    def test_ledger_sheds_at_intake_and_is_charged_on_answer(self):
        ledger = BudgetLedger({1: 0.05})
        engine, server = build_live_server(budget=ledger)
        server.completion_hook = lambda task, worker_id: ledger.charge(task)
        register(server)
        first = make_task()
        first.requester_id = 1
        server.submit_task(first)
        engine.run(until=1.0)
        assert answer_after(engine, server, 1, 2.0).completed
        assert ledger.summary()["charges"] == 1
        assert ledger.remaining(1) == 0.0
        # The requester's budget is spent: intake sheds the next task.
        second = make_task()
        second.requester_id = 1
        server.submit_task(second)
        assert second.phase is TaskPhase.EXPIRED
        engine.run(until=10.0)
        assert server.heartbeat(1) is None
        summary = server.drain_and_summary()
        assert summary["received"] == 2
        assert summary["completed"] == 1
        assert summary["expired_unassigned"] == 1
        assert server.in_flight == 0


class TestBreakerOnPullWorkers:
    def test_latency_budget_trips_react_to_greedy(self):
        engine = Engine()
        server = LiveRegionServer(
            engine=engine,
            policy=react_policy(batch_threshold=1),
            rng=RngRegistry(seed=7),
            cost_model=PaperCalibratedCost(batch_overhead=3.0),
            resilience=ResilienceConfig(
                retry_backoff_base=0.0, latency_budget=1.0, trip_after=1
            ),
        )
        server.start()
        assert server.scheduling.matcher.name == "react"
        register(server)
        task = make_task()
        server.submit_task(task)
        engine.run(until=5.0)  # the 3 s batch publishes, over budget
        assert server.degraded_mode.degraded
        assert server.scheduling.matcher.name == "greedy"
        assert server.metrics.degraded_mode_switches == 1
        # Pull delivery is unaffected by the swap.
        assert answer_after(engine, server, 1, 1.0).completed


class TestLifecycleInvariantsOnPullWorkers:
    def test_invariant_monitor_over_a_pull_worker_run(self):
        engine, server = build_live_server(
            policy=react_policy(batch_threshold=1, release_on_reassign=False),
            liveness_timeout=20.0,
            liveness_interval=1.0,
        )
        monitor = InvariantMonitor(engine, server, period=0.5).start()
        register(server, worker_id=1)

        # On-time answers train worker 1's profile past min_history.
        for seconds in (1.0, 2.0, 1.5, 3.0, 2.5):
            server.submit_task(make_task())
            engine.run(until=engine.now + 1.0)
            outcome = answer_after(engine, server, 1, seconds)
            assert outcome.completed and outcome.met_deadline

        # Worker 1 dawdles on the next task; Eq. 2 withdraws it and, with
        # release_on_reassign off, he stays busy until his late answer.
        slow = make_task(deadline=60.0)
        server.submit_task(slow)
        engine.run(until=engine.now + 1.0)
        assert server.heartbeat(1).task_id == slow.task_id
        register(server, worker_id=2)
        while not server.dynamic_assignment.withdrawals:
            engine.run(until=engine.now + 1.0)
            server.heartbeat(2)
        assert server.dynamic_assignment.withdrawals[0].worker_id == 1
        engine.run(until=engine.now + 1.0)
        server.heartbeat(1)
        assert slow.assigned_worker == 2
        assert server.submit_answer(1, slow.task_id).status == "stale"
        assert server.submit_answer(2, slow.task_id).completed

        # Worker 2 takes a short task and never answers: running expiry.
        short = make_task(deadline=3.0)
        server.submit_task(short)
        engine.run(until=engine.now + 0.5)
        assert server.heartbeat(2).task_id == short.task_id
        for _ in range(5):
            engine.run(until=engine.now + 1.0)
            server.heartbeat(1)
            server.heartbeat(2)
        assert server.metrics.expiry_returns == 1

        # Worker 2 falls silent and is culled; worker 1 keeps polling.
        for _ in range(25):
            engine.run(until=engine.now + 1.0)
            server.heartbeat(1)
        assert 2 not in server.profiling and 1 in server.profiling

        monitor.stop()
        check_server_invariants(server)
        assert monitor.audits > 100
        summary = server.drain_and_summary()
        assert summary["completed"] == 6
        assert summary["completed_on_time"] == 6
        assert summary["expired_unassigned"] == 1
        assert summary["received"] == 7
