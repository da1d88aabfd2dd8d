"""Task Management Component (§III-A).

"Responsible to provide information about all the available tasks in the
REACT platform": remaining time until expiry, current assignment and elapsed
time.  Concretely it owns the three task pools — unassigned (the matcher's
input), assigned (the Eq. 2 monitor's input) and finished — and the
transitions between them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..graph.builders import BudgetGate
from ..model.task import Task, TaskPhase


class TaskManagementComponent:
    """Task pools and lifecycle transitions for one REACT server."""

    def __init__(self, budget: Optional[BudgetGate] = None) -> None:
        # Insertion-ordered dicts double as FIFO queues with O(1) removal.
        self._unassigned: Dict[int, Task] = {}
        self._assigned: Dict[int, Task] = {}
        self._finished: Dict[int, Task] = {}
        #: tasks currently locked inside a running matching batch
        self._in_batch: Dict[int, Task] = {}
        #: withdrawn tasks parked by the resilience layer's retry backoff;
        #: invisible to the matcher until their backoff delay elapses
        self._deferred: Dict[int, Task] = {}
        #: per-requester budget gate (budget-constrained scenarios); tasks
        #: of an exhausted requester are shed at intake instead of queued
        self._budget = budget
        #: tasks shed at intake because the requester's budget ran dry
        self.shed_by_budget = 0
        # Assignment watcher (the Eq. 2 monitor): told when a task enters
        # and when it leaves the assigned pool.  Unset when nothing watches,
        # so policies without a monitor record nothing.
        self._on_assigned: Optional[Callable[[Task], None]] = None
        self._on_unassigned: Optional[Callable[[Task], None]] = None

    def watch_assignments(
        self,
        on_assigned: Callable[[Task], None],
        on_unassigned: Callable[[Task], None],
    ) -> None:
        """Subscribe to assigned-pool entries (commits) and exits.

        ``on_assigned`` runs after a commit with the task's worker and
        assignment time set; ``on_unassigned`` runs when a completion or a
        withdrawal takes the task out of the pool.  Commit order is the
        :meth:`assigned_tasks` order.
        """
        self._on_assigned = on_assigned
        self._on_unassigned = on_unassigned

    # -------------------------------------------------------------- intake
    def add_task(self, task: Task) -> bool:
        """Queue a new task; returns False when it was budget-shed instead.

        A shed task moves straight to the finished pool with phase EXPIRED
        (mirroring the expired-at-checkout path): the requester can no
        longer fund its reward, so queueing it would only let the matcher
        waste batch capacity on a column the budget gate will clear anyway.
        The caller records the expired-unassigned outcome.
        """
        if task.phase is not TaskPhase.UNASSIGNED:
            raise ValueError(f"task {task.task_id} is not unassigned")
        if task.task_id in self._unassigned or task.task_id in self._assigned:
            raise ValueError(f"task {task.task_id} already known")
        if self._budget is not None and not self._budget.allows(task):
            task.mark_expired()
            self._finished[task.task_id] = task
            self.shed_by_budget += 1
            return False
        self._unassigned[task.task_id] = task
        return True

    # -------------------------------------------------------------- counts
    @property
    def unassigned_count(self) -> int:
        return len(self._unassigned)

    @property
    def assigned_count(self) -> int:
        return len(self._assigned)

    @property
    def finished_count(self) -> int:
        return len(self._finished)

    @property
    def deferred_count(self) -> int:
        return len(self._deferred)

    @property
    def in_flight(self) -> int:
        return (
            len(self._unassigned)
            + len(self._assigned)
            + len(self._in_batch)
            + len(self._deferred)
        )

    def unassigned_tasks(self) -> List[Task]:
        return list(self._unassigned.values())

    def assigned_tasks(self) -> List[Task]:
        return list(self._assigned.values())

    def get(self, task_id: int) -> Task:
        for pool in (
            self._unassigned,
            self._assigned,
            self._in_batch,
            self._deferred,
            self._finished,
        ):
            if task_id in pool:
                return pool[task_id]
        raise KeyError(f"unknown task {task_id}")

    def is_queued(self, task_id: int) -> bool:
        """True while the task waits (queued or backoff-deferred) for a match."""
        return task_id in self._unassigned or task_id in self._deferred

    # --------------------------------------------------------------- batch
    def checkout_batch(
        self, now: float, assign_expired: bool
    ) -> tuple[List[Task], List[Task]]:
        """Move the unassigned pool into a locked batch for the matcher.

        Returns ``(batch, retired)``: ``batch`` is the matcher's input;
        ``retired`` are tasks whose deadline already lapsed in the queue and
        which the policy chooses not to hand out (``assign_expired=False``)
        — they leave the system as expired-unassigned.
        """
        batch: List[Task] = []
        retired: List[Task] = []
        for task in self._unassigned.values():
            if not assign_expired and task.is_expired(now):
                task.mark_expired()
                retired.append(task)
            else:
                batch.append(task)
        self._unassigned.clear()
        for task in batch:
            self._in_batch[task.task_id] = task
        for task in retired:
            self._finished[task.task_id] = task
        return batch, retired

    def retire_expired(self, now: float) -> List[Task]:
        """Expire overdue queued tasks in place, without a batch checkout.

        Used by the periodic trigger when no worker is available: the
        expired-at-checkout retirement still has to happen on schedule, but
        starting a matcher batch just to run it would burn simulated latency
        on an empty worker set.
        """
        retired = [t for t in self._unassigned.values() if t.is_expired(now)]
        for task in retired:
            del self._unassigned[task.task_id]
            task.mark_expired()
            self._finished[task.task_id] = task
        return retired

    def commit_assignment(self, task: Task, worker_id: int, now: float) -> None:
        """A batch result assigned ``task`` to ``worker_id``."""
        if task.task_id not in self._in_batch:
            raise ValueError(f"task {task.task_id} is not checked out")
        del self._in_batch[task.task_id]
        task.mark_assigned(worker_id, now)
        self._assigned[task.task_id] = task
        if self._on_assigned is not None:
            self._on_assigned(task)

    def return_unmatched(self, task: Task) -> None:
        """A batch result left ``task`` unmatched; it rejoins the queue."""
        if task.task_id not in self._in_batch:
            raise ValueError(f"task {task.task_id} is not checked out")
        del self._in_batch[task.task_id]
        self._unassigned[task.task_id] = task

    # ----------------------------------------------------------- lifecycle
    def complete(self, task: Task, now: float) -> None:
        if task.task_id not in self._assigned:
            raise ValueError(f"task {task.task_id} is not assigned")
        del self._assigned[task.task_id]
        if self._on_unassigned is not None:
            self._on_unassigned(task)
        task.mark_completed(now)
        self._finished[task.task_id] = task

    def withdraw(self, task: Task) -> None:
        """Eq. 2 pulled the task back from its worker; it becomes unassigned."""
        if task.task_id not in self._assigned:
            raise ValueError(f"task {task.task_id} is not assigned")
        del self._assigned[task.task_id]
        if self._on_unassigned is not None:
            self._on_unassigned(task)
        task.mark_unassigned()
        self._unassigned[task.task_id] = task

    # ---------------------------------------------------------- resilience
    def defer(self, task: Task) -> None:
        """Park an unassigned task until its retry backoff elapses."""
        if task.task_id not in self._unassigned:
            raise ValueError(f"task {task.task_id} is not unassigned")
        del self._unassigned[task.task_id]
        self._deferred[task.task_id] = task

    def release_deferred(self, task: Task) -> bool:
        """Backoff elapsed: the task rejoins the matcher's queue.

        Returns False (no-op) when the task is no longer deferred — e.g. it
        was retired while parked.
        """
        if task.task_id not in self._deferred:
            return False
        del self._deferred[task.task_id]
        self._unassigned[task.task_id] = task
        return True

    def retire_unassigned(self, task: Task) -> None:
        """A queued task leaves the system unserved (reassignment budget).

        Mirrors the expired-at-checkout path: the task moves straight from
        the unassigned pool to finished with phase EXPIRED.
        """
        if task.task_id not in self._unassigned:
            raise ValueError(f"task {task.task_id} is not unassigned")
        del self._unassigned[task.task_id]
        task.mark_expired()
        self._finished[task.task_id] = task

    def extract_unassigned(self, predicate: Callable[[Task], bool]) -> List[Task]:
        """Remove and return queued tasks matching ``predicate``.

        Used by the multi-region coordinator when a region splits: queued
        (not yet batched or assigned) tasks whose coordinates fall in the
        new half migrate to the new server.
        """
        extracted = [t for t in self._unassigned.values() if predicate(t)]
        for task in extracted:
            del self._unassigned[task.task_id]
        return extracted

    def finished_tasks(self) -> List[Task]:
        return list(self._finished.values())

    def __iter__(self) -> Iterator[Task]:
        yield from self._unassigned.values()
        yield from self._in_batch.values()
        yield from self._assigned.values()
        yield from self._deferred.values()
        yield from self._finished.values()
