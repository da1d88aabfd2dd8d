"""Reference Eq. 2 monitor: the polling sweep the due-queue replaced.

:class:`repro.platform.dynamic_assignment.DynamicAssignmentComponent` only
evaluates assignments past their withdrawal horizon.  This module keeps the
sweep it replaced — every monitor tick walks every assigned task, consulting
a per-task skip-horizon cache — as the oracle the due-queue is compared
against (the same role ``repro.core.kernels.reference`` plays for the
matching kernels).  Its constructor matches the component's, so a test can
substitute it for the component inside a server and require identical
withdrawal streams.  It is test code: nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.deadline import DeadlineEstimator
from repro.model.task import Task
from repro.obs.runtime import ObservabilityLike, resolve
from repro.obs.trace import MONITOR_TRACK
from repro.platform.dynamic_assignment import Withdrawal
from repro.platform.policies import SchedulingPolicy
from repro.platform.profiling import ProfilingComponent
from repro.platform.task_management import TaskManagementComponent
from repro.sim.clock import EventClock
from repro.sim.events import EventKind
from repro.sim.process import PeriodicProcess


class PollingDynamicAssignment:
    """The polling Eq. (2) monitor (reference; see the module docstring)."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        task_management: TaskManagementComponent,
        profiling: ProfilingComponent,
        estimator: DeadlineEstimator,
        on_withdraw: Callable[[Task], None],
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._tasks = task_management
        self._profiles = profiling
        self._estimator = estimator
        self._on_withdraw = on_withdraw
        self._process: Optional[PeriodicProcess] = None
        obs = resolve(observability)
        self._tracer = obs.tracer
        self._obs_sweeps = obs.registry.counter(
            "react_sweeps_total", "Eq. 2 monitor sweeps that evaluated >= 1 task"
        )
        self._obs_evaluations = obs.registry.counter(
            "react_sweep_evaluations_total", "Assigned tasks evaluated against Eq. 2"
        )
        self._obs_withdrawals = obs.registry.counter(
            "react_sweep_withdrawals_total", "Tasks withdrawn by the Eq. 2 rule"
        )
        self.withdrawals: List[Withdrawal] = []
        #: Chaos switch (:class:`repro.chaos.SweepOutageFault` / blackout):
        #: while True the periodic sweep fires but evaluates nothing, so no
        #: dawdling task is rescued until the outage lifts.
        self.suspended = False
        # Crossing-time skip cache: task_id → (worker_id, observation count,
        # assigned_at, horizon, ttd).  While the key fields are unchanged,
        # any sweep with elapsed < horizon provably reports Eq. 2 ≥ threshold
        # (see DeadlineEstimator.withdrawal_skip_horizon), so the row's
        # batch evaluation is skipped without changing any decision.  The TTD
        # rides along because it is constant per (task, assigned_at) and its
        # recomputation (a property chain) showed up in sweep profiles.
        self._skip_horizon: dict[int, tuple[int, int, float, float, float]] = {}
        self._skip_threshold: Optional[float] = None

    def start(self) -> None:
        """Begin the periodic sweep (no-op when the model is disabled)."""
        if not self._policy.use_probabilistic_model:
            return
        if self._process is not None:
            raise RuntimeError("monitor already started")
        self._process = PeriodicProcess(
            self._engine,
            period=self._policy.reassign_check_interval,
            action=self.sweep,
            kind=EventKind.REASSIGNMENT_CHECK,
            cohort_action=self.sweep_cohort,
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # --------------------------------------------------------------- sweep
    def sweep_cohort(self, now: float, count: int) -> int:
        """Cohort entry point: ``count`` coincident monitor events, one call.

        Each coincident monitor event still performs a full sweep pass —
        a withdrawal inside pass *k* changes the assigned set that pass
        *k + 1* must observe, exactly as the sequential dispatch would —
        but the passes arrive as one batched dispatch, and every pass
        evaluates its whole task set through the one stacked Eq. 2 call.
        """
        pulled = 0
        for _ in range(count):
            pulled += self.sweep(now)
        return pulled

    def sweep(self, now: float) -> int:
        """Evaluate Eq. (2) for every running task; withdraw the hopeless.

        Rows that provably cannot be withdrawn yet are skipped outright via
        the crossing-time cache (closed windows, and tasks whose elapsed
        time sits under the conservative horizon from
        :meth:`~repro.core.deadline.DeadlineEstimator.withdrawal_skip_horizon`);
        the remaining rows are evaluated in one batched estimator call
        (stacked power-law parameters, see
        :meth:`~repro.core.deadline.DeadlineEstimator.window_probability_batch`)
        before any withdrawal is materialized.  Withdrawals happen in the
        same task order as the original per-task loop, and the one
        sequential dependency is preserved explicitly: a withdrawal feeds a
        censored observation into the worker's history, so in the rare case
        the same worker backs *another* assigned task later in the sweep
        (the silent-abandonment re-match race), that task is re-evaluated
        against the updated profile — skipped or not — instead of using the
        batch value.  The evaluation counters keep counting every assigned
        task: a skipped row *is* an Eq. 2 decision, just one reached without
        recomputing the probability.

        Returns the number of withdrawals performed this sweep.
        """
        if self.suspended:
            return 0
        tasks = self._tasks.assigned_tasks()
        if not tasks:
            return 0
        threshold = self._policy.reassign_threshold
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")

        n = len(tasks)
        get_profile = self._profiles.get
        estimator = self._estimator
        cache = self._skip_horizon
        if threshold != self._skip_threshold:
            # Cached horizons embed the threshold; a mid-run policy change
            # (ablation harnesses mutate policies) invalidates them all.
            cache.clear()
            self._skip_threshold = threshold
        workers_l: List[int] = []
        # Row index into the batch arrays per task, -1 for skipped rows.
        row_of = [-1] * n
        eval_profiles = []
        eval_elapsed: List[float] = []
        eval_ttd: List[float] = []
        for idx, task in enumerate(tasks):
            worker_id = task.assigned_worker
            assigned_at = task.assigned_at
            assert worker_id is not None and assigned_at is not None
            workers_l.append(worker_id)
            elapsed_i = now - assigned_at
            profile = get_profile(worker_id)
            n_obs = len(profile.execution_times)
            entry = cache.get(task.task_id)
            if (
                entry is not None
                and entry[0] == worker_id
                and entry[1] == n_obs
                and entry[2] == assigned_at
            ):
                # Cached TTD is exact: the deadline is fixed per task and the
                # anchor (assigned_at) is part of the cache key.
                ttd_i = entry[4]
                if elapsed_i < entry[3] or ttd_i <= elapsed_i:
                    # Under the horizon, or window closed (Eq. 2 reports
                    # untrained/0.0 — never a withdrawal, and the window
                    # only closes further): skip the batch evaluation.
                    continue
            else:
                # TimeToDeadline_ij is anchored at the assignment instant.
                ttd_i = task.absolute_deadline - assigned_at
                if ttd_i <= elapsed_i:
                    continue
                horizon = estimator.withdrawal_skip_horizon(profile, ttd_i, threshold)
                cache[task.task_id] = (worker_id, n_obs, assigned_at, horizon, ttd_i)
                if elapsed_i < horizon:
                    continue
            row_of[idx] = len(eval_profiles)
            eval_profiles.append(profile)
            eval_elapsed.append(elapsed_i)
            eval_ttd.append(ttd_i)

        if eval_profiles:
            probs, trained = estimator.window_probability_batch(
                eval_profiles,
                np.asarray(eval_elapsed, dtype=np.float64),
                np.asarray(eval_ttd, dtype=np.float64),
            )
        else:
            probs = trained = ()

        pulled = 0
        withdrawn_workers: set[int] = set()
        for idx, task in enumerate(tasks):
            worker_id = workers_l[idx]
            if worker_id in withdrawn_workers:
                # This worker's history changed earlier in the sweep;
                # re-evaluate sequentially (matches the pre-batch loop).
                assigned_at = task.assigned_at
                assert assigned_at is not None
                elapsed_i = now - assigned_at
                estimate = estimator.window_probability(
                    get_profile(worker_id),
                    elapsed_i,
                    task.absolute_deadline - assigned_at,
                )
                if not estimate.trained or estimate.probability >= threshold:
                    continue
                probability = estimate.probability
            else:
                row = row_of[idx]
                if row < 0 or not trained[row] or probs[row] >= threshold:
                    continue
                probability = float(probs[row])
                elapsed_i = eval_elapsed[row]
            self._tasks.withdraw(task)
            self._profiles.record_withdrawal(
                worker_id,
                elapsed=elapsed_i,
                release=self._policy.release_on_reassign,
                task_id=task.task_id,
            )
            self.withdrawals.append(
                Withdrawal(
                    time=now,
                    task_id=task.task_id,
                    worker_id=worker_id,
                    elapsed=elapsed_i,
                    probability=probability,
                )
            )
            self._tracer.instant(
                "task.withdrawn",
                cat="task",
                tid=MONITOR_TRACK,
                task_id=task.task_id,
                worker_id=worker_id,
                reason="eq2",
                probability=round(probability, 6),
                elapsed=round(elapsed_i, 3),
            )
            withdrawn_workers.add(worker_id)
            pulled += 1
            self._on_withdraw(task)
        if len(cache) > 2 * n + 256:
            live = {task.task_id for task in tasks}
            for dead in [tid for tid in cache if tid not in live]:
                del cache[dead]
        self._obs_sweeps.inc()
        self._obs_evaluations.inc(n)
        self._obs_withdrawals.inc(pulled)
        self._tracer.instant(
            "sweep",
            cat="monitor",
            tid=MONITOR_TRACK,
            evaluated=n,
            withdrawn=pulled,
        )
        return pulled
