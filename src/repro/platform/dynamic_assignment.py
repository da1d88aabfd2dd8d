"""Dynamic Assignment Component (§III-A, §IV-B).

Periodically checks the assigned tasks and evaluates Eq. (2) — the
probability that the current worker finishes inside the remaining window,
given that ``t_ij`` seconds have already elapsed — against the worker's
power-law profile.  When the probability drops below the policy threshold
(10% in the paper) the task is withdrawn and handed back to the Scheduling
Component "so as to enable the Scheduling Component to find a better match".

Per §V-C, a worker with fewer than ``z = 3`` completed tasks is never
reassigned (the system is still training his profile), and a task whose
deadline has already passed is left with its worker — no other worker could
beat the deadline either, so reassignment would only waste a second slot.

The monitor is a due-queue, not a poll.  For a power-law fit the Eq. (2)
probability only falls as the task runs, so
:meth:`~repro.core.deadline.DeadlineEstimator.withdrawal_skip_horizon` gives
an elapsed time before which the rule cannot fire.  Each assignment is armed
with that horizon when it is committed, re-armed when its worker's history
length or the threshold changes, and only assignments past their horizon
are evaluated at the monitor ticks.  A tick thus costs O(changes + due
rows), not O(assigned tasks), and withdraws exactly what evaluating every
assigned task would (``tests/platform/monitor_reference.py`` keeps that
polling sweep as the test oracle).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.deadline import DeadlineEstimator
from ..model.task import Task
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import MONITOR_TRACK
from ..sim.clock import EventClock
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess
from .policies import SchedulingPolicy
from .profiling import ProfilingComponent
from .task_management import TaskManagementComponent

# Watch states.
_PENDING = 0  # committed (or invalidated), horizon not computed yet
_ARMED = 1  # in the heap, below its horizon
_DUE = 2  # past its horizon: evaluated at every tick
_CLOSED = 3  # window closed: never withdrawn again
_GONE = 4  # left the assigned pool

_SEQ = attrgetter("seq")


class _Watch:
    """One assignment under Eq. 2 watch."""

    __slots__ = ("task", "worker_id", "assigned_at", "ttd", "seq", "horizon", "state", "epoch")

    def __init__(self, task: Task, worker_id: int, assigned_at: float, seq: int) -> None:
        self.task = task
        self.worker_id = worker_id
        self.assigned_at = assigned_at
        # TimeToDeadline_ij is anchored at the assignment instant.
        self.ttd = task.absolute_deadline - assigned_at
        #: commit order (= ``TaskManagementComponent.assigned_tasks`` order)
        self.seq = seq
        self.horizon = 0.0
        self.state = _PENDING
        #: bumped on every re-arm; heap entries of older epochs are stale
        self.epoch = 0


@dataclass(frozen=True)
class Withdrawal:
    """Trace record of one Eq. 2-triggered reassignment."""

    time: float
    task_id: int
    worker_id: int
    elapsed: float
    probability: float


class DynamicAssignmentComponent:
    """The Eq. (2) monitor (a due-queue; see the module docstring)."""

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
        # Due-queue state.  Every live watch is in ``_watches`` and in its
        # worker's ``_by_worker`` entry, and in exactly one of: ``_pending``,
        # the ``_armed`` heap (key: assigned_at + horizon), ``_due``, or
        # nowhere (closed).
        self._watches: Dict[int, _Watch] = {}
        self._by_worker: Dict[int, Dict[int, _Watch]] = {}
        self._pending: List[_Watch] = []
        self._armed: List[Tuple[float, int, int, _Watch]] = []
        self._armed_live = 0
        self._due: Dict[int, _Watch] = {}
        self._commits = 0
        self._threshold: Optional[float] = None
        # Workers whose history length changed since the last tick (their
        # horizons embed the old fit).  Only a running monitor subscribes,
        # so policies without Eq. 2 record nothing.
        self._history_changes: Set[int] = set()
        if policy.use_probabilistic_model:
            task_management.watch_assignments(self._on_assigned, self._on_unassigned)
            profiling.table.history_changes = self._history_changes

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

    # ------------------------------------------------------------ watches
    def _on_assigned(self, task: Task) -> None:
        worker_id = task.assigned_worker
        assigned_at = task.assigned_at
        assert worker_id is not None and assigned_at is not None
        watch = _Watch(task, worker_id, assigned_at, self._commits)
        self._commits += 1
        self._watches[task.task_id] = watch
        self._by_worker.setdefault(worker_id, {})[task.task_id] = watch
        self._pending.append(watch)

    def _on_unassigned(self, task: Task) -> None:
        watch = self._watches.pop(task.task_id, None)
        if watch is None:
            return
        if watch.state == _ARMED:
            self._armed_live -= 1
        elif watch.state == _DUE:
            del self._due[task.task_id]
        watch.state = _GONE
        peers = self._by_worker[watch.worker_id]
        del peers[task.task_id]
        if not peers:
            del self._by_worker[watch.worker_id]

    def _invalidate(self, watch: _Watch) -> None:
        """Send an armed or due watch back to pending (its horizon is stale)."""
        if watch.state == _ARMED:
            self._armed_live -= 1
        elif watch.state == _DUE:
            del self._due[watch.task.task_id]
        else:
            return
        watch.state = _PENDING
        watch.epoch += 1
        self._pending.append(watch)

    def _arm(self, watch: _Watch, now: float, threshold: float) -> None:
        """Compute a pending watch's horizon at tick ``now`` and file it."""
        if watch.ttd <= now - watch.assigned_at:
            # Window closed: Eq. 2 reports 0 untrained, never a withdrawal,
            # and the window only closes further.
            watch.state = _CLOSED
            return
        profile = self._profiles.get(watch.worker_id)
        watch.horizon = self._estimator.withdrawal_skip_horizon(profile, watch.ttd, threshold)
        watch.state = _ARMED
        self._armed_live += 1
        heapq.heappush(
            self._armed, (watch.assigned_at + watch.horizon, watch.seq, watch.epoch, watch)
        )

    def _collect_due(self, now: float, threshold: float) -> None:
        """Bring the watches up to tick ``now``: re-arm, arm, pop the due."""
        if threshold != self._threshold:
            # Horizons embed the threshold; a mid-run policy change (ablation
            # harnesses mutate policies) re-arms every watch.
            for watch in self._watches.values():
                self._invalidate(watch)
            self._threshold = threshold
        if self._history_changes:
            for worker_id in sorted(self._history_changes):
                for watch in self._by_worker.get(worker_id, {}).values():
                    self._invalidate(watch)
            self._history_changes.clear()
        if self._pending:
            for watch in self._pending:
                if watch.state == _PENDING:
                    self._arm(watch, now, threshold)
            self._pending.clear()
        heap = self._armed
        if len(heap) > 2 * self._armed_live + 64:
            # Drop entries of re-armed or departed watches.
            heap[:] = [
                entry for entry in heap if entry[3].state == _ARMED and entry[3].epoch == entry[2]
            ]
            heapq.heapify(heap)
        # The heap key rounds assigned_at + horizon; the decision uses the
        # exact ``now - assigned_at < horizon`` test, so pop a hair past now
        # and put back what the exact test still holds off.
        limit = now + 1e-9 * (abs(now) + 1.0)
        held: List[Tuple[float, int, int, _Watch]] = []
        while heap and heap[0][0] <= limit:
            entry = heapq.heappop(heap)
            watch = entry[3]
            if watch.state != _ARMED or watch.epoch != entry[2]:
                continue
            if now - watch.assigned_at < watch.horizon:
                held.append(entry)
                continue
            watch.state = _DUE
            self._armed_live -= 1
            self._due[watch.task.task_id] = watch
        for entry in held:
            heapq.heappush(heap, entry)

    # --------------------------------------------------------------- sweep
    def sweep_cohort(self, now: float, count: int) -> int:
        """Cohort entry point: ``count`` coincident monitor events, one call.

        Each coincident monitor event still performs a full sweep pass —
        a withdrawal inside pass *k* changes the assigned set that pass
        *k + 1* must observe, exactly as the sequential dispatch would —
        but the passes arrive as one batched dispatch.
        """
        pulled = 0
        for _ in range(count):
            pulled += self.sweep(now)
        return pulled

    def sweep(self, now: float) -> int:
        """One monitor tick: evaluate Eq. (2) for the due assignments.

        Assignments below their horizon provably hold Eq. 2 ≥ threshold and
        are not touched; the due ones are evaluated in one batched
        estimator call
        (:meth:`~repro.core.deadline.DeadlineEstimator.window_probability_batch`)
        and withdrawn in commit order — the order of a sweep over
        :meth:`~repro.platform.task_management.TaskManagementComponent.assigned_tasks`.
        One sequential dependency is kept explicitly: a withdrawal feeds a
        censored observation into the worker's history, so when the same
        worker backs *another* assignment later in that order (the
        silent-abandonment re-match race), that assignment is re-evaluated
        against the updated profile, due or not, instead of using the batch
        value.  The evaluation counters count every assigned task: one
        below its horizon *is* an Eq. 2 decision, just one reached without
        recomputing the probability.

        Returns the number of withdrawals performed this sweep.
        """
        if self.suspended:
            return 0
        n = self._tasks.assigned_count
        if n == 0:
            # Nothing is assigned, so every queued watch is gone.
            self._pending.clear()
            self._armed.clear()
            self._history_changes.clear()
            return 0
        threshold = self._policy.reassign_threshold
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")
        self._collect_due(now, threshold)
        # Watches committed from here on belong to the next tick.
        seq_limit = self._commits

        evaluated: List[_Watch] = []
        for watch in sorted(self._due.values(), key=_SEQ):
            if watch.ttd <= now - watch.assigned_at:
                del self._due[watch.task.task_id]
                watch.state = _CLOSED
                continue
            evaluated.append(watch)
        if not evaluated:
            return self._finish_sweep(n, 0)

        get_profile = self._profiles.get
        estimator = self._estimator
        elapsed = np.asarray([now - w.assigned_at for w in evaluated], dtype=np.float64)
        probs, trained = estimator.window_probability_batch(
            self._profiles.table.rows([get_profile(w.worker_id) for w in evaluated]),
            elapsed,
            np.asarray([w.ttd for w in evaluated], dtype=np.float64),
        )

        # Walk the evaluated watches in commit order, merged with the
        # re-evaluations a withdrawal adds for its worker's later watches.
        pulled = 0
        withdrawn_workers: Set[int] = set()
        in_batch = {id(w) for w in evaluated}
        extra: List[Tuple[int, _Watch]] = []
        index = 0
        while index < len(evaluated) or extra:
            if extra and (index == len(evaluated) or extra[0][0] < evaluated[index].seq):
                watch = heapq.heappop(extra)[1]
                row = -1
            else:
                watch = evaluated[index]
                row = index
                index += 1
            if watch.state == _GONE:
                continue
            worker_id = watch.worker_id
            elapsed_i = now - watch.assigned_at
            if worker_id in withdrawn_workers:
                # This worker's history changed earlier in the sweep.
                estimate = estimator.window_probability(
                    get_profile(worker_id), elapsed_i, watch.ttd
                )
                if not estimate.trained or estimate.probability >= threshold:
                    continue
                probability = estimate.probability
            else:
                if not trained[row] or probs[row] >= threshold:
                    continue
                probability = float(probs[row])
            task = watch.task
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
            if worker_id not in withdrawn_workers:
                withdrawn_workers.add(worker_id)
                for peer in self._by_worker.get(worker_id, {}).values():
                    if (
                        watch.seq < peer.seq < seq_limit
                        and peer.state != _CLOSED
                        and id(peer) not in in_batch
                    ):
                        heapq.heappush(extra, (peer.seq, peer))
            pulled += 1
            self._on_withdraw(task)
        return self._finish_sweep(n, pulled)

    def _finish_sweep(self, evaluated: int, pulled: int) -> int:
        self._obs_sweeps.inc()
        self._obs_evaluations.inc(evaluated)
        self._obs_withdrawals.inc(pulled)
        self._tracer.instant(
            "sweep",
            cat="monitor",
            tid=MONITOR_TRACK,
            evaluated=evaluated,
            withdrawn=pulled,
        )
        return pulled

