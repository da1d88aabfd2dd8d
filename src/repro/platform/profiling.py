"""Profiling Component (§III-A).

"Responsible to keep track of the workers' information and statistics": for
every registered worker it maintains geographic location, availability
status, completion times and per-category feedback accuracy.  This is the
*platform-observable* worker state — the latent ground-truth behaviour lives
with the simulator (:mod:`repro.model.worker`), never here.

Registered profiles are bound to the component's
:class:`~repro.model.table.WorkerTable`, the columnar mirror the per-batch
paths (free-worker set, Eq. 3, Eq. 1, cold start) read instead of walking
the profiles.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..model.table import WorkerRows, WorkerTable
from ..model.task import TaskCategory
from ..model.worker import WorkerProfile


class ProfilingComponent:
    """Registry of worker profiles for one REACT server's region."""

    def __init__(self) -> None:
        self._profiles: Dict[int, WorkerProfile] = {}
        #: Columnar mirror of the registered profiles (one slot per
        #: registration, in registration order).
        self.table = WorkerTable()
        #: Chaos hook (:class:`repro.chaos.StaleProfileFault`): maps a raw
        #: ``(worker_id, execution_time)`` observation to the value actually
        #: stored, letting fault injection feed the profiler stale or
        #: corrupted measurements without touching the true outcome.
        self.observation_hook: Optional[Callable[[int, float], float]] = None
        self._deregister_hooks: List[Callable[[int], None]] = []

    # ---------------------------------------------------------- membership
    def register(self, profile: WorkerProfile) -> None:
        if profile.worker_id in self._profiles:
            raise ValueError(f"worker {profile.worker_id} is already registered")
        self.table.attach(profile)
        self._profiles[profile.worker_id] = profile

    def add_deregister_hook(self, hook: Callable[[int], None]) -> None:
        """Subscribe to worker departures (churn / region migration).

        Used to invalidate per-worker caches held elsewhere — notably the
        :class:`~repro.core.deadline.DeadlineEstimator` fit cache, which
        would otherwise retain an entry for every worker that ever trained.
        """
        self._deregister_hooks.append(hook)

    def deregister(self, worker_id: int) -> WorkerProfile:
        """Remove a worker (churn); raises ``KeyError`` if unknown."""
        profile = self._profiles.pop(worker_id)
        self.table.detach(profile)
        for hook in self._deregister_hooks:
            hook(worker_id)
        return profile

    def get(self, worker_id: int) -> WorkerProfile:
        return self._profiles[worker_id]

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[WorkerProfile]:
        return iter(self._profiles.values())

    # ------------------------------------------------------------- queries
    def available_workers(self) -> WorkerRows:
        """Workers that are online and not executing a task, in a stable
        (registration) order so batch construction is deterministic.

        The result is a list of profiles that also carries their table
        slots, so graph construction gathers the workers' scalars by index.
        """
        return self.table.free_rows()

    def any_available(self) -> bool:
        """Whether at least one worker is online and free (O(1) counter)."""
        return self.table.free_count > 0

    def busy_workers(self) -> List[WorkerProfile]:
        return [p for p in self._profiles.values() if p.online and not p.available]

    # ------------------------------------------------------------- updates
    def record_assignment(self, worker_id: int, task_id: int) -> None:
        self._profiles[worker_id].assign(task_id)

    def record_completion(
        self,
        worker_id: int,
        execution_time: float,
        category: TaskCategory,
        positive_feedback: bool,
    ) -> None:
        """Store a finished task's stats and free the worker."""
        profile = self._profiles[worker_id]
        if self.observation_hook is not None:
            execution_time = self.observation_hook(worker_id, execution_time)
        profile.record_completion(execution_time, category, positive_feedback)
        profile.release()

    def record_withdrawal(
        self,
        worker_id: int,
        elapsed: float,
        release: bool,
        task_id: Optional[int] = None,
    ) -> None:
        """The platform pulled the worker's task after ``elapsed`` seconds.

        The elapsed hold time enters the profile as a *censored* duration
        observation (the worker takes at least that long), so chronic
        dawdlers accumulate a heavy-tailed history and Eq. 3 stops routing
        tasks to them.  ``release`` follows
        :attr:`SchedulingPolicy.release_on_reassign`: when False the worker
        remains unavailable until his sampled finish time (he is presumed
        still dawdling on the withdrawn task).

        ``task_id`` identifies *which* task was withdrawn.  The worker's
        availability is only touched when his profile still claims that very
        task: a worker who silently abandoned it was already released at his
        sampled walk-away time and may since have been matched to a *newer*
        task — blindly detaching would kick him off the task he is actually
        executing, making him matchable a second time while the newer task
        is still assigned to him (the completion/withdrawal generation-stamp
        race; see ``tests/chaos/test_generation_stamp_race.py``).  ``None``
        preserves the legacy unguarded behaviour for direct component use.
        """
        profile = self._profiles[worker_id]
        profile.record_censored(elapsed)
        if task_id is not None and profile.current_task != task_id:
            return
        profile.detach_task()
        if release:
            profile.release()

    def release_after_dawdle(self, worker_id: int) -> None:
        """A dawdling worker's sampled duration elapsed; he is free again."""
        profile = self._profiles.get(worker_id)
        if profile is not None and not profile.available and profile.current_task is None:
            profile.release()

    # ------------------------------------------------------------ summary
    def trained_count(self, min_history: int) -> int:
        return sum(1 for p in self._profiles.values() if p.completed_tasks >= min_history)
