"""REACT region server (§III-A, Figure 1).

Wires the four components — Profiling, Task Management, Scheduling, Dynamic
Assignment — to an event clock for one region and runs every task's
lifecycle: intake with budget shedding, assignment, completion, Eq. (2)
withdrawal, running-task expiry, queue retirement, and the resilience policy
for withdrawn tasks.  The clock is the discrete-event engine in simulation
and the wall-clock runtime in the live service; the lifecycle code is the
same under both.

Each worker's delivery path is chosen by how he is added:

* **Simulated worker** — ``add_worker(profile, behavior)``.  The server owns
  his ground truth (:class:`WorkerBehavior`): when an assignment is published
  it draws the worker's *actual* duration and schedules the completion event;
  the platform components never see that draw, only its eventual outcome,
  exactly as the real middleware only observes what human workers return.
* **Pull worker** — ``add_worker(profile)``.  A live worker: the published
  assignment is parked as a :class:`DispatchNotice` that his next
  :meth:`REACTServer.heartbeat` delivers (AMT-style pull delivery — the
  middleware never calls the worker), and :meth:`REACTServer.submit_answer`
  completes the task.  With ``liveness_timeout`` set, a pull worker whose
  last heartbeat is older than that is removed like a departing worker.
  Positive feedback is ``met_deadline``: a live service draws no feedback
  coins from the experiment streams.

Completion/withdrawal race: a dawdling worker whose task was pulled back by
Eq. (2) or the deadline expiry still "finishes" — at his sampled time, or
when his late answer arrives.  The completion checks the task's phase and
worker (and, for simulated workers, the assignment generation stamp) and,
finding the task gone, merely frees the worker (the human walked away; no
result was returned to the platform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.deadline import DeadlineEstimator
from ..graph.builders import AssignmentGraphBuilder, BudgetGate, RewardRange
from ..model.feedback import FeedbackModel
from ..model.task import Task, TaskPhase
from ..model.worker import WorkerBehavior, WorkerProfile
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import worker_track
from ..sim.clock import EventClock
from ..sim.events import Event, EventKind
from ..sim.process import PeriodicProcess
from ..sim.rng import STREAM_FEEDBACK, STREAM_MATCHER, STREAM_WORKER_BEHAVIOR, RngRegistry
from ..stats.duration_models import make_family
from ..stats.metrics import MetricsCollector, TaskOutcome
from .cost import CostModel, PaperCalibratedCost
from .dynamic_assignment import DynamicAssignmentComponent
from .policies import SchedulingPolicy
from .profiling import ProfilingComponent
from .resilience import DegradedModeController, ResilienceConfig
from .scheduling import BatchRecord, SchedulingComponent
from .task_management import TaskManagementComponent


@dataclass
class _Execution:
    """Simulator-side record of one in-flight worker execution."""

    task_id: int
    worker_id: int
    generation: int  # task.assignments stamp at scheduling time
    duration: float
    abandoned: bool = False
    #: handle on the scheduled TASK_COMPLETION event, so chaos injection can
    #: cancel the sampled finish and replace it (mass-abandonment waves)
    completion_event: Optional[Event] = None


@dataclass
class DispatchNotice:
    """One published assignment awaiting delivery to its pull worker."""

    task_id: int
    worker_id: int
    #: ``task.assignments`` stamp at publication; delivery is validated
    #: against it so a withdrawn-then-reassigned task is never handed out
    #: twice.
    generation: int
    category: str
    reward: float
    #: Absolute clock deadline the worker must beat.
    deadline_at: float
    assigned_at: float


@dataclass(frozen=True)
class AnswerOutcome:
    """Result of one :meth:`REACTServer.submit_answer` call."""

    status: str  # "completed" | "stale" | "unknown_task" | "unknown_worker"
    met_deadline: bool = False

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class REACTServer:
    """One region's middleware instance, for simulated and pull workers alike."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        cost_model: Optional[CostModel] = None,
        metrics: Optional[MetricsCollector] = None,
        reward_ranges: Optional[Dict[int, RewardRange]] = None,
        resilience: Optional[ResilienceConfig] = None,
        observability: Optional[ObservabilityLike] = None,
        budget: Optional[BudgetGate] = None,
        liveness_timeout: Optional[float] = None,
        liveness_interval: float = 2.0,
    ) -> None:
        if liveness_timeout is not None and liveness_timeout <= 0:
            raise ValueError("liveness_timeout must be positive")
        if liveness_interval <= 0:
            raise ValueError("liveness_interval must be positive")
        self.engine = engine
        self.policy = policy
        self.resilience = resilience
        self.obs = resolve(observability)
        self.obs.bind_engine(engine)
        self._tracer = self.obs.tracer
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.metrics.bind_registry(self.obs.registry)
        cost_model = cost_model if cost_model is not None else PaperCalibratedCost()

        self.profiling = ProfilingComponent()
        self.task_management = TaskManagementComponent(budget=budget)
        self.estimator = DeadlineEstimator(
            min_history=policy.min_history,
            family=make_family(policy.duration_model),
        )
        # A departing worker's fit must not linger in the estimator cache
        # (unbounded growth under churn; stale entry if his id is reused).
        self.profiling.add_deregister_hook(self.estimator.evict)
        # Estimator fit-cache effectiveness, pulled at snapshot time (the
        # estimator itself keeps plain int counters; see docs/OBSERVABILITY.md).
        registry = self.obs.registry
        hits = registry.gauge(
            "react_fit_cache_hits", "DeadlineEstimator fit-cache hits"
        )
        misses = registry.gauge(
            "react_fit_cache_misses", "DeadlineEstimator fit-cache misses"
        )
        estimator = self.estimator
        registry.add_collect_hook(
            lambda: (hits.set(estimator.cache_hits), misses.set(estimator.cache_misses))
        )

        # With the probabilistic model off (traditional), edges are never
        # pruned: bound 0 keeps every candidate edge.
        bound = policy.edge_probability_bound if policy.use_probabilistic_model else 0.0
        builder = AssignmentGraphBuilder(
            weight_function=policy.build_weight_function(),
            estimator=self.estimator,
            edge_probability_bound=bound,
            reward_ranges=reward_ranges,
            budget=budget,
        )
        self.scheduling = SchedulingComponent(
            engine=engine,
            policy=policy,
            task_management=self.task_management,
            profiling=self.profiling,
            builder=builder,
            matcher=policy.build_matcher(),
            cost_model=cost_model,
            matcher_rng=rng.stream(STREAM_MATCHER),
            on_assign=self._on_assign,
            on_retired=self._on_retired,
            on_batch=self._on_batch,
            observability=self.obs,
        )
        self.degraded_mode: Optional[DegradedModeController] = None
        if resilience is not None and resilience.latency_budget is not None:
            self.degraded_mode = DegradedModeController(
                engine=engine,
                scheduling=self.scheduling,
                config=resilience,
                metrics=self.metrics,
                observability=self.obs,
            )
        self.dynamic_assignment = DynamicAssignmentComponent(
            engine=engine,
            policy=policy,
            task_management=self.task_management,
            profiling=self.profiling,
            estimator=self.estimator,
            on_withdraw=self._on_withdraw,
            observability=self.obs,
        )
        self._behaviors: Dict[int, WorkerBehavior] = {}
        self._behavior_rng = rng.stream(STREAM_WORKER_BEHAVIOR)
        self._feedback = FeedbackModel(rng.stream(STREAM_FEEDBACK))
        self._batch_timer: Optional[PeriodicProcess] = None
        self._started = False
        #: live executions keyed by (task_id, generation stamp); a task can
        #: have two live executions at once (an abandoner's stale draw plus
        #: the replacement worker's), hence the generation in the key
        self._live: Dict[Tuple[int, int], _Execution] = {}
        #: undelivered assignment per pull worker (a worker executes one task
        #: at a time, so one slot suffices)
        self._inbox: Dict[int, DispatchNotice] = {}
        #: last heartbeat per pull worker; its keys are the pull workers
        self._last_seen: Dict[int, float] = {}
        self._liveness_timeout = liveness_timeout
        self._liveness_interval = liveness_interval
        self._liveness_sweep: Optional[PeriodicProcess] = None
        #: chaos hook (:class:`repro.chaos.NoShowFault`): may mutate each
        #: freshly drawn execution before its events are scheduled
        self.execution_hook: Optional[
            Callable[[_Execution, Task, WorkerProfile], None]
        ] = None
        #: budget hook (:mod:`repro.scenarios.budget`): called once per
        #: completed task with (task, worker_id) so the requester's ledger
        #: can be charged exactly when the reward is actually owed
        self.completion_hook: Optional[Callable[[Task, int], None]] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Arm the periodic batch trigger, Eq. 2 monitor and liveness sweep."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.dynamic_assignment.start()
        self._batch_timer = PeriodicProcess(
            self.engine,
            period=self.policy.batch_period,
            action=self.scheduling.periodic_trigger,
            kind=EventKind.BATCH_TRIGGER,
            cohort_action=self.scheduling.periodic_trigger_cohort,
        )
        if self._liveness_timeout is not None:
            self._liveness_sweep = PeriodicProcess(
                self.engine,
                period=self._liveness_interval,
                action=self._cull_dead_workers,
            )

    def stop(self) -> None:
        self.dynamic_assignment.stop()
        if self._batch_timer is not None:
            self._batch_timer.stop()
            self._batch_timer = None
        if self._liveness_sweep is not None:
            self._liveness_sweep.stop()
            self._liveness_sweep = None
        if self.degraded_mode is not None:
            self.degraded_mode.finalize()
        self._started = False

    # -------------------------------------------------------------- workers
    def add_worker(
        self, profile: WorkerProfile, behavior: Optional[WorkerBehavior] = None
    ) -> None:
        """Register a worker: simulated with a ``behavior``, pull without."""
        self.profiling.register(profile)
        if behavior is not None:
            self._behaviors[profile.worker_id] = behavior
            return
        self._last_seen[profile.worker_id] = self.engine.now
        self._tracer.instant(
            "worker.registered", cat="service", worker_id=profile.worker_id
        )
        # Fresh supply may make queued work matchable right away.
        self.scheduling.maybe_trigger()

    def remove_worker(self, worker_id: int) -> Optional[WorkerBehavior]:
        """Worker churn: an online worker leaves the region.

        A task he was executing is withdrawn and re-queued (the paper's
        Dynamic Assignment Component "is able to deal with changes in the
        worker set ... by reassigning the tasks when workers abandon the
        system").  Returns his simulated behaviour (None for a pull worker),
        so a caller can move him to another server.
        """
        profile = self.profiling.get(worker_id)
        profile.online = False
        if profile.current_task is not None:
            task = self.task_management.get(profile.current_task)
            if task.phase is TaskPhase.ASSIGNED and task.assigned_worker == worker_id:
                self.task_management.withdraw(task)
                profile.detach_task()
                self._tracer.instant(
                    "task.withdrawn",
                    cat="task",
                    task_id=task.task_id,
                    worker_id=worker_id,
                    reason="worker_departed",
                )
                self._requeue_after_withdrawal(task)
                self.scheduling.maybe_trigger()
        self.profiling.deregister(worker_id)
        self._inbox.pop(worker_id, None)
        self._last_seen.pop(worker_id, None)
        return self._behaviors.pop(worker_id, None)

    def heartbeat(self, worker_id: int) -> Optional[DispatchNotice]:
        """Pull-worker keep-alive; returns a pending assignment, if any.

        Raises :class:`KeyError` for an unknown worker (the gateway maps
        that to 404 so a culled worker knows to re-register).
        """
        if worker_id not in self._last_seen:
            raise KeyError(worker_id)
        self._last_seen[worker_id] = self.engine.now
        notice = self._inbox.pop(worker_id, None)
        # Deliver only if the assignment is still current: Eq. 2 or expiry
        # may have withdrawn it between publication and this poll.
        if notice is None or self._current_task(notice) is None:
            return None
        return notice

    def submit_answer(self, worker_id: int, task_id: int) -> AnswerOutcome:
        """Answer callback: a pull worker returns a result for ``task_id``."""
        if worker_id not in self._last_seen:
            return AnswerOutcome(status="unknown_worker")
        try:
            task = self.task_management.get(task_id)
        except KeyError:
            return AnswerOutcome(status="unknown_task")
        now = self.engine.now
        self._last_seen[worker_id] = now
        if task.phase is not TaskPhase.ASSIGNED or task.assigned_worker != worker_id:
            # Withdrawn while the worker dawdled: the answer is discarded.
            self._end_dawdle(task_id, worker_id)
            self.scheduling.maybe_trigger()
            return AnswerOutcome(status="stale")
        assigned_at = task.assigned_at if task.assigned_at is not None else now
        on_time = self._complete(task, worker_id, now - assigned_at)
        return AnswerOutcome(status="completed", met_deadline=on_time)

    # ---------------------------------------------------------------- tasks
    def submit_task(self, task: Task) -> None:
        """Requester entry point: register the task and poke the scheduler."""
        task.submitted_at = self.engine.now if task.submitted_at == 0.0 else task.submitted_at
        self.metrics.record_received()
        self._tracer.instant(
            "task.submitted", cat="task", task_id=task.task_id, deadline=task.deadline
        )
        if not self.task_management.add_task(task):
            self._record_budget_shed(task)
            return
        self.scheduling.maybe_trigger()

    def adopt_task(self, task: Task) -> None:
        """Take over a task migrated from another server (region split).

        Unlike :meth:`submit_task`, the task was already counted as
        received by its original server, so only the queueing happens here.
        """
        self._tracer.instant("task.adopted", cat="task", task_id=task.task_id)
        if not self.task_management.add_task(task):
            self._record_budget_shed(task)
            return
        self.scheduling.maybe_trigger()

    def task_status(self, task_id: int) -> Dict[str, object]:
        """Requester-facing task state (gateway GET /tasks/{id})."""
        task = self.task_management.get(task_id)
        return {
            "task_id": task.task_id,
            "phase": task.phase.name.lower(),
            "assignments": task.assignments,
            "submitted_at": task.submitted_at,
            "completed_at": task.completed_at,
            "met_deadline": task.met_deadline if task.completed_at is not None else None,
        }

    def _record_budget_shed(self, task: Task) -> None:
        """Load shedding: intake refused the task (requester budget dry).

        Books the same expired-unassigned outcome as a queue retirement so
        ``check_conservation`` still balances (finished = completed + shed).
        """
        self._tracer.instant(
            "task.shed",
            cat="task",
            task_id=task.task_id,
            reason="budget_exhausted",
            requester_id=task.requester_id,
        )
        self.metrics.record_expired_unassigned(TaskOutcome.unfinished(task))

    # ------------------------------------------------------------ callbacks
    def _on_assign(self, task: Task, worker: WorkerProfile) -> None:
        """Assignment published: draw a simulated outcome or park a notice."""
        self.metrics.record_assignment(first=task.assignments == 1)
        self._tracer.instant(
            "task.assigned",
            cat="task",
            task_id=task.task_id,
            worker_id=worker.worker_id,
            generation=task.assignments,
        )
        behavior = self._behaviors.get(worker.worker_id)
        record: Union[_Execution, DispatchNotice]
        if behavior is None:
            record = DispatchNotice(
                task_id=task.task_id,
                worker_id=worker.worker_id,
                generation=task.assignments,
                category=task.category.value,
                reward=task.reward,
                deadline_at=task.absolute_deadline,
                assigned_at=self.engine.now,
            )
            self._inbox[worker.worker_id] = record
        else:
            draw = behavior.sample_outcome(self._behavior_rng)
            execution = _Execution(
                task_id=task.task_id,
                worker_id=worker.worker_id,
                generation=task.assignments,
                duration=draw.duration,
                abandoned=draw.abandoned,
            )
            if self.execution_hook is not None:
                self.execution_hook(execution, task, worker)
            execution.completion_event = self.engine.schedule(
                execution.duration,
                EventKind.TASK_COMPLETION,
                self._on_completion,
                payload=execution,
            )
            self._live[(execution.task_id, execution.generation)] = execution
            record = execution
        # AMT expiry semantics: if the deadline passes while the task is
        # still out with this worker, the platform pulls it back.  Only
        # armed when the deadline is still ahead — a task knowingly handed
        # out late (traditional's assign_expired) runs to completion.
        if self.policy.expire_running_tasks:
            remaining = task.absolute_deadline - self.engine.now
            if remaining > 0:
                self.engine.schedule(
                    remaining,
                    EventKind.CALLBACK,
                    self._on_running_expiry,
                    payload=record,
                    transient=True,
                )

    def _current_task(
        self, record: Union[_Execution, DispatchNotice]
    ) -> Optional[Task]:
        """The record's task if it is still out with that worker at that
        generation; None once it was withdrawn, finished or migrated."""
        try:
            task = self.task_management.get(record.task_id)
        except KeyError:  # migrated to another server by a region split
            return None
        if (
            task.phase is not TaskPhase.ASSIGNED
            or task.assigned_worker != record.worker_id
            or task.assignments != record.generation
        ):
            return None
        return task

    def _end_dawdle(self, task_id: int, worker_id: int) -> None:
        """A worker finished a task that was withdrawn from him: free him."""
        self.profiling.release_after_dawdle(worker_id)
        self._tracer.instant(
            "worker.dawdle_end", cat="task", task_id=task_id, worker_id=worker_id
        )

    def _on_completion(self, event: Event) -> None:
        execution: _Execution = event.payload
        self._live.pop((execution.task_id, execution.generation), None)
        task = self._current_task(execution)
        if task is None:
            # The task was withdrawn (or the worker deregistered) while the
            # human dawdled; his sampled duration just elapsed.
            self._end_dawdle(execution.task_id, execution.worker_id)
            return
        if execution.abandoned:
            # The worker walks away without informing the platform (§IV-B):
            # he becomes available for other tasks, but the task stays
            # "assigned" until Eq. 2 or the deadline-expiry pulls it back.
            self.profiling.get(execution.worker_id).release()
            self._tracer.instant(
                "task.abandoned",
                cat="task",
                task_id=execution.task_id,
                worker_id=execution.worker_id,
            )
            return
        self._complete(task, execution.worker_id, execution.duration)

    def _complete(self, task: Task, worker_id: int, duration: float) -> bool:
        """Book a returned result; returns whether the deadline was met.

        Shared by the simulated completion event and :meth:`submit_answer`.
        A simulated worker's feedback is drawn from his behaviour; a pull
        worker's is his punctuality.
        """
        now = self.engine.now
        self.task_management.complete(task, now)
        on_time = task.met_deadline
        self._tracer.complete(
            "task.execution",
            start=now - duration,
            end=now,
            cat="task",
            tid=worker_track(worker_id),
            task_id=task.task_id,
            worker_id=worker_id,
            on_time=on_time,
        )
        behavior = self._behaviors.get(worker_id)
        positive = (
            on_time
            if behavior is None
            else self._feedback.judge(behavior, on_time, category=task.category).positive
        )
        self.profiling.record_completion(
            worker_id,
            execution_time=duration,
            category=task.category,
            positive_feedback=positive,
        )
        self.metrics.record_completion(
            TaskOutcome(
                task_id=task.task_id,
                submitted_at=task.submitted_at,
                completed_at=now,
                deadline=task.deadline,
                met_deadline=on_time,
                positive_feedback=positive,
                assignments=task.assignments,
                final_worker=worker_id,
                worker_time=task.worker_time,
                total_time=task.total_time,
            )
        )
        if self.completion_hook is not None:
            self.completion_hook(task, worker_id)
        # A completion frees a worker; queued tasks may now be matchable.
        self.scheduling.maybe_trigger()
        return on_time

    def _on_running_expiry(self, event: Event) -> None:
        """AMT semantics: the deadline lapsed while the task was out.

        The task returns to the repository as unassigned (§II).  The worker,
        if he is still nominally on it, keeps dawdling until his sampled
        finish time or late answer; an abandoner has already walked away.
        """
        record: Union[_Execution, DispatchNotice] = event.payload
        task = self._current_task(record)
        if task is None:
            return
        assigned_at = task.assigned_at if task.assigned_at is not None else self.engine.now
        elapsed = self.engine.now - assigned_at
        self.task_management.withdraw(task)
        self.metrics.expiry_returns += 1
        self._tracer.instant(
            "task.expiry_return",
            cat="task",
            task_id=task.task_id,
            worker_id=record.worker_id,
        )
        if record.worker_id in self.profiling:
            profile = self.profiling.get(record.worker_id)
            if profile.current_task == record.task_id:
                # Still nominally on it: record the censored hold time and
                # detach (an abandoner who already walked away was released
                # — and his hold recorded — by the completion event).
                profile.record_censored(elapsed)
                profile.detach_task()
                if self.policy.release_on_reassign:
                    profile.release()
        # An undelivered notice for this generation is now dead.
        if self._inbox.get(record.worker_id) is record:
            del self._inbox[record.worker_id]
        self._requeue_after_withdrawal(task)
        self.scheduling.maybe_trigger()

    def _on_withdraw(self, task: Task) -> None:
        self._requeue_after_withdrawal(task)
        self.scheduling.maybe_trigger()

    def _on_batch(self, record: BatchRecord) -> None:
        self.metrics.record_matcher_run(record.simulated_seconds)
        if self.degraded_mode is not None:
            self.degraded_mode.observe(record)

    def _on_retired(self, retired: List[Task]) -> None:
        for task in retired:
            self._tracer.instant("task.expired", cat="task", task_id=task.task_id)
            self.metrics.record_expired_unassigned(TaskOutcome.unfinished(task))

    # ----------------------------------------------------------- resilience
    def _requeue_after_withdrawal(self, task: Task) -> None:
        """Apply the resilience policy to a freshly withdrawn task.

        Without a :class:`ResilienceConfig` this is a no-op and the task —
        already back in the unassigned pool — is immediately matchable, the
        paper's behaviour.  With one, the task is either retired (its
        reassignment budget is spent) or parked for an exponential-backoff
        delay before the matcher may see it again.
        """
        config = self.resilience
        if config is None or task.phase is not TaskPhase.UNASSIGNED:
            return
        if not self.task_management.is_queued(task.task_id):
            return
        if (
            config.max_reassignments is not None
            and task.assignments >= config.max_reassignments
        ):
            self.task_management.retire_unassigned(task)
            self.metrics.reassignment_budget_exhausted += 1
            self._tracer.instant(
                "task.retired",
                cat="resilience",
                task_id=task.task_id,
                reason="reassignment_budget",
                assignments=task.assignments,
            )
            self.metrics.record_expired_unassigned(TaskOutcome.unfinished(task))
            return
        if config.backoff_enabled:
            delay = config.backoff_delay(task.assignments)
            if delay > 0:
                self.task_management.defer(task)
                self.metrics.deferred_retries += 1
                self._tracer.instant(
                    "task.deferred",
                    cat="resilience",
                    task_id=task.task_id,
                    delay=delay,
                    assignments=task.assignments,
                )
                self.engine.schedule(
                    delay,
                    EventKind.CALLBACK,
                    self._on_deferred_release,
                    payload=task,
                    transient=True,
                )

    def _on_deferred_release(self, event: Event) -> None:
        task: Task = event.payload
        if self.task_management.release_deferred(task):
            self.scheduling.maybe_trigger()

    # ------------------------------------------------------------- liveness
    def _cull_dead_workers(self, now: float) -> None:
        assert self._liveness_timeout is not None  # armed only when set
        cutoff = now - self._liveness_timeout
        dead = [
            worker_id
            for worker_id, seen in self._last_seen.items()
            if seen < cutoff
        ]
        for worker_id in dead:
            self._tracer.instant(
                "worker.liveness_cull", cat="service", worker_id=worker_id
            )
            self.remove_worker(worker_id)
        if dead:
            self.scheduling.maybe_trigger()

    # ----------------------------------------------------- chaos interface
    def live_execution(self, task_id: int, generation: int) -> Optional[_Execution]:
        """The in-flight execution for (task, generation), if any."""
        return self._live.get((task_id, generation))

    def inject_abandonment(self, task_id: int) -> bool:
        """Chaos: the worker on ``task_id`` walks away *right now* (§IV-B).

        Cancels his sampled finish and replays the abandonment path
        immediately: the worker is freed without returning a result and the
        task stays ASSIGNED until Eq. 2 or the deadline expiry rescues it —
        exactly the paper's silent-abandonment semantics, just at an
        injected instant.  Returns False when the task has no live
        current-generation execution to corrupt.
        """
        try:
            task = self.task_management.get(task_id)
        except KeyError:
            return False
        if task.phase is not TaskPhase.ASSIGNED:
            return False
        execution = self._live.get((task_id, task.assignments))
        if execution is None:
            return False
        if execution.completion_event is not None:
            self.engine.cancel(execution.completion_event)
        execution.abandoned = True
        execution.completion_event = self.engine.schedule(
            0.0, EventKind.TASK_COMPLETION, self._on_completion, payload=execution
        )
        self.metrics.chaos_abandonments += 1
        return True

    def orphan_assigned_tasks(self) -> List[int]:
        """Chaos: a blackout wipes the server's assignment state.

        Every assigned task is pulled back into the unassigned pool (from
        which recovery re-adopts it) and its worker — if he still claims it
        — is detached and freed; his pending completion becomes a stale
        dawdle via the usual generation/phase check.  Returns the orphaned
        task ids.
        """
        now = self.engine.now
        orphaned: List[int] = []
        for task in self.task_management.assigned_tasks():
            worker_id = task.assigned_worker
            assigned_at = task.assigned_at if task.assigned_at is not None else now
            self.task_management.withdraw(task)
            if worker_id is not None and worker_id in self.profiling:
                self.profiling.record_withdrawal(
                    worker_id,
                    elapsed=now - assigned_at,
                    release=True,
                    task_id=task.task_id,
                )
            orphaned.append(task.task_id)
        self.metrics.blackout_orphaned += len(orphaned)
        return orphaned

    # -------------------------------------------------------------- summary
    @property
    def in_flight(self) -> int:
        """Tasks submitted and not yet finished (backpressure signal)."""
        return self.task_management.in_flight

    def drain_and_summary(self) -> Dict[str, float]:
        """Metrics summary plus queue state (for end-of-run reporting)."""
        summary = self.metrics.summary()
        summary["pending_unassigned"] = self.task_management.unassigned_count
        summary["pending_assigned"] = self.task_management.assigned_count
        summary["pending_deferred"] = self.task_management.deferred_count
        summary["withdrawals"] = len(self.dynamic_assignment.withdrawals)
        summary["batches"] = len(self.scheduling.batches)
        summary["aborted_batches"] = self.scheduling.aborted_batches
        return summary
