"""The due-queue Eq. 2 monitor against the polling sweep it replaced.

Each case runs one seeded workload twice: once with the real
:class:`~repro.platform.dynamic_assignment.DynamicAssignmentComponent`, once
with :class:`~tests.platform.monitor_reference.PollingDynamicAssignment`
substituted inside every server.  The withdrawal streams (time, task,
worker, elapsed, probability) and the task outcomes must be identical, and
non-empty, so the case really exercises withdrawals.
"""

import pytest

from repro.chaos import (
    AbandonmentWave,
    FaultSchedule,
    MatcherStallFault,
    NoShowFault,
    SweepOutageFault,
)
from repro.core.deadline import DeadlineEstimator
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.platform import server as server_module
from repro.platform.dynamic_assignment import DynamicAssignmentComponent
from repro.platform.policies import react_policy, traditional_policy
from repro.platform.profiling import ProfilingComponent
from repro.platform.server import REACTServer
from repro.platform.task_management import TaskManagementComponent
from repro.sim.engine import Engine
from repro.sim.events import EventKind

from .helpers import build_server, submit
from .monitor_reference import PollingDynamicAssignment


def _small(seed: int, n_tasks: int = 1200) -> EndToEndConfig:
    return EndToEndConfig(
        n_workers=150, arrival_rate=1.875, n_tasks=n_tasks, seed=seed, drain_time=400
    )


def _chaos_config(seed: int) -> ChaosConfig:
    return ChaosConfig(n_workers=40, arrival_rate=0.8, n_tasks=200, drain_time=250.0, seed=seed)


def _observe(monkeypatch, oracle: bool, run, on_start=None):
    """Run ``run()``; return (withdrawal streams, outcomes) of every server."""
    servers = []
    original_start = REACTServer.start

    def start(self):
        servers.append(self)
        original_start(self)
        if on_start is not None:
            on_start(self)

    with monkeypatch.context() as patch:
        patch.setattr(REACTServer, "start", start)
        if oracle:
            patch.setattr(server_module, "DynamicAssignmentComponent", PollingDynamicAssignment)
        run()
    expected = PollingDynamicAssignment if oracle else DynamicAssignmentComponent
    assert servers and all(type(s.dynamic_assignment) is expected for s in servers)
    streams = [
        [(w.time, w.task_id, w.worker_id, w.elapsed, w.probability) for w in s.dynamic_assignment.withdrawals]
        for s in servers
    ]
    outcomes = [
        [(o.task_id, o.completed_at, o.met_deadline, o.final_worker, o.assignments) for o in s.metrics.outcomes]
        for s in servers
    ]
    return streams, outcomes


def _assert_same(monkeypatch, run, on_start=None):
    streams, outcomes = _observe(monkeypatch, False, run, on_start)
    ref_streams, ref_outcomes = _observe(monkeypatch, True, run, on_start)
    assert sum(len(s) for s in streams) > 0, "the case withdrew nothing"
    assert streams == ref_streams
    assert outcomes == ref_outcomes
    return streams


@pytest.mark.parametrize("seed", [42, 1051, 3])
def test_default_react(monkeypatch, seed):
    _assert_same(monkeypatch, lambda: run_endtoend(react_policy(), _small(seed)))


def test_workers_stay_busy_after_withdrawal(monkeypatch):
    policy = react_policy(release_on_reassign=False)
    _assert_same(monkeypatch, lambda: run_endtoend(policy, _small(7)))


def test_non_power_law_duration_model(monkeypatch):
    """Non-power-law fits get horizon 0: every open row is due at once."""
    policy = react_policy(duration_model="lognormal")
    _assert_same(monkeypatch, lambda: run_endtoend(policy, _small(11, n_tasks=400)))


def test_mid_run_threshold_change(monkeypatch):
    """A policy mutated mid-run re-arms every watch (ablation harnesses
    mutate policies in place, so the frozen dataclass is bypassed here)."""

    def raise_threshold(server):
        def change(_event):
            object.__setattr__(server.policy, "reassign_threshold", 0.3)

        server.engine.schedule(150.0, EventKind.CALLBACK, change)

    streams = _assert_same(
        monkeypatch,
        lambda: run_endtoend(react_policy(), _small(5)),
        on_start=raise_threshold,
    )
    times = [w[0] for w in streams[0]]
    assert min(times) < 150.0 < max(times)


def test_chaos_no_show(monkeypatch):
    schedule = FaultSchedule(
        faults=(NoShowFault(start=30.0, duration=60.0, probability=0.6, hold_time=40.0),),
        seed=4,
    )
    _assert_same(
        monkeypatch,
        lambda: run_chaos(react_policy(cycles=200), _chaos_config(8), schedule=schedule),
    )


def test_chaos_generation_stamp_race(monkeypatch):
    """Abandon -> re-match -> late withdrawal: the same worker backs two
    assigned tasks, which exercises the in-sweep re-evaluation path."""
    schedule = FaultSchedule(
        faults=(
            MatcherStallFault(start=40.0, duration=80.0, extra_latency=20.0),
            AbandonmentWave(start=60.0, fraction=1.0),
            AbandonmentWave(start=90.0, fraction=1.0),
        ),
        seed=2,
    )
    config = ChaosConfig(n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=250.0, seed=31)
    _assert_same(
        monkeypatch,
        lambda: run_chaos(react_policy(cycles=200), config, schedule=schedule),
    )


def test_chaos_sweep_outage(monkeypatch):
    schedule = FaultSchedule(
        faults=(SweepOutageFault(start=40.0, duration=70.0),),
        seed=6,
    )
    _assert_same(
        monkeypatch,
        lambda: run_chaos(react_policy(cycles=200), _chaos_config(12), schedule=schedule),
    )


def _rematched_abandoner_script(monitor_cls):
    """Worker 0 silently abandoned task A and now holds task B.

    At the single sweep A is past its horizon and withdrawn.  Its censored
    hold time changes the worker's fit, under which B — still below its
    old horizon — falls under the threshold: B must be re-evaluated and
    withdrawn in the same sweep, right after A.
    """
    tasks = TaskManagementComponent()
    profiling = ProfilingComponent()
    monitor = monitor_cls(
        engine=Engine(),
        policy=react_policy(),
        task_management=tasks,
        profiling=profiling,
        estimator=DeadlineEstimator(min_history=3),
        on_withdraw=lambda _task: None,
    )
    worker = WorkerProfile(worker_id=0)
    profiling.register(worker)
    for duration in (15.8, 18.6, 28.9):
        worker.record_completion(duration, TaskCategory.GENERIC, True)

    def commit(task, now):
        tasks.add_task(task)
        tasks.checkout_batch(now, assign_expired=False)
        tasks.commit_assignment(task, 0, now)
        profiling.record_assignment(0, task.task_id)

    task_a = Task(latitude=0.0, longitude=0.0, deadline=100.0, submitted_at=0.0)
    task_b = Task(latitude=0.0, longitude=0.0, deadline=16.4, submitted_at=24.0)
    commit(task_a, 0.0)
    worker.release()  # walked away from A without telling the platform
    commit(task_b, 24.0)
    assert monitor.sweep(32.8) == 2
    label = {task_a.task_id: "A", task_b.task_id: "B"}
    return [
        (w.time, label[w.task_id], w.worker_id, w.elapsed, w.probability)
        for w in monitor.withdrawals
    ]


def test_withdrawal_re_evaluates_the_workers_later_assignment():
    stream = _rematched_abandoner_script(DynamicAssignmentComponent)
    assert [(w[0], w[1]) for w in stream] == [(32.8, "A"), (32.8, "B")]
    assert stream == _rematched_abandoner_script(PollingDynamicAssignment)


def test_monitor_off_records_nothing():
    """Policies without Eq. 2 subscribe to no commits or history changes."""
    engine, server = build_server(n_workers=3, policy=traditional_policy())
    for _ in range(6):
        submit(server, engine, deadline=90.0)
    engine.run(until=60.0)
    assert server.metrics.completed > 0
    assert server.profiling.table.history_changes is None
    monitor = server.dynamic_assignment
    assert not monitor._watches and not monitor._pending and not monitor._armed
