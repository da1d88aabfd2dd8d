"""Outside-in layer timing: wrap public functions of ``repro`` with a self-time stack.

Nothing under ``src/`` is changed.  :class:`LayerTracer` replaces class
attributes (methods) with wrappers while it is installed and restores the
originals on :meth:`LayerTracer.uninstall`.  Each wrapper charges its
elapsed time to its layer and subtracts it from the enclosing layer, so a
layer's ``self_s`` is its own time without the layers it calls.  Counters
that give each layer its ratios are taken from the wrapped calls' arguments
and results.

Install before the workload builds its objects: components bind some
methods at construction (e.g. the periodic Eq. 2 sweep).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in the order they are reported.  Every run prints all of them;
#: a layer the workload does not exercise reports zero calls.
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "graph.build",
    "deadline.eq3",
    "deadline.fit",
    "deadline.eq2",
    "dynamic_assignment.sweep",
    "weights.matrix",
    "matching.match",
    "task_management",
    "profiling",
    "coordinator.submit_task",
    "service.admission.check",
    "service.bridge",
    "service.runtime",
    "service.http",
)

#: Extra counters per layer (summed over calls); ratios are derived in
#: :meth:`LayerTracer.report`.
COUNTERS: Tuple[str, ...] = (
    "sim.engine.events",
    "graph.build.candidate_edges",
    "graph.build.kept_edges",
    "graph.build.prob_pruned",
    "deadline.eq3.cells",
    "deadline.fit.trained",
    "dynamic_assignment.sweep.withdrawals",
    "weights.matrix.cells",
    "matching.match.tasks",
    "matching.match.matched",
    "task_management.refused",
    "coordinator.submit_task.splits",
    "coordinator.submit_task.tasks_migrated",
    "service.admission.check.refused",
    "service.bridge.answers",
    "service.bridge.stale",
)

BeforeHook = Callable[[Tuple[Any, ...], Dict[str, Any]], Any]


class LayerTracer:
    """Self-time accounting over wrapped methods (see module docstring)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_ns: Dict[str, int] = {name: 0 for name in LAYERS}
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self.samples: Dict[str, List[float]] = {}
        # One accumulator of child time per active wrapped call.
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        owner: type,
        attr: str,
        layer: str,
        before: Optional[BeforeHook] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper charging ``layer``.

        ``before(args, kwargs)`` runs ahead of the call (its return value is
        handed to ``after``); ``after(args, kwargs, result, counters, token)``
        runs once the call returned.  Both run outside the timed interval of
        this call but inside that of the caller.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        counters = self.counters
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            stack.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[layer] += 1
                self_ns[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result, counters, token)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def wrap_async(self, owner: type, attr: str, layer: str) -> None:
        """Timed wrapper for a coroutine method that never suspends.

        The gateway's request handler is ``async def`` but runs to completion
        in one step, so the stack discipline of :meth:`wrap` still holds.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[layer] += 1
                self_ns[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results
    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def report(self, per: float = 1.0) -> Dict[str, float]:
        """Flat ``{metric: value}`` with counts and times divided by ``per``.

        ``per`` is the number of traced workload repetitions, so figures
        from runs of different length stay comparable.
        """
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name] / per
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9 / per
        c = self.counters
        out["sim.engine.events"] = c["sim.engine.events"] / per
        out["graph.build.kept_edge_ratio"] = _ratio(
            c["graph.build.kept_edges"], c["graph.build.candidate_edges"]
        )
        out["graph.build.prob_pruned"] = c["graph.build.prob_pruned"] / per
        out["deadline.eq3.cells"] = c["deadline.eq3.cells"] / per
        out["deadline.fit.trained_ratio"] = _ratio(
            c["deadline.fit.trained"], self.calls["deadline.fit"]
        )
        out["dynamic_assignment.sweep.withdrawals"] = (
            c["dynamic_assignment.sweep.withdrawals"] / per
        )
        out["weights.matrix.cells"] = c["weights.matrix.cells"] / per
        out["matching.match.matched_ratio"] = _ratio(
            c["matching.match.matched"], c["matching.match.tasks"]
        )
        out["task_management.refused"] = c["task_management.refused"] / per
        out["coordinator.submit_task.splits"] = c["coordinator.submit_task.splits"] / per
        out["coordinator.submit_task.tasks_migrated"] = (
            c["coordinator.submit_task.tasks_migrated"] / per
        )
        out["service.admission.check.refused"] = (
            c["service.admission.check.refused"] / per
        )
        out["service.bridge.stale_ratio"] = _ratio(
            c["service.bridge.stale"], c["service.bridge.answers"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- installers
def install_core(tracer: LayerTracer) -> None:
    """Wrap the layers shared by the simulator and the live gateway."""
    from repro.core.deadline import DeadlineEstimator
    from repro.core.matching.base import Matcher
    from repro.core.matching import registry as _registry  # noqa: F401 - loads every matcher
    from repro.core.weights import WeightFunction
    from repro.graph.builders import AssignmentGraphBuilder
    from repro.platform.coordinator import Coordinator
    from repro.platform.dynamic_assignment import DynamicAssignmentComponent
    from repro.platform.profiling import ProfilingComponent
    from repro.platform.task_management import TaskManagementComponent

    def after_build(args, kwargs, result, c, token) -> None:
        report = result[1]
        c["graph.build.candidate_edges"] += report.candidate_edges
        c["graph.build.kept_edges"] += report.kept_edges
        c["graph.build.prob_pruned"] += report.pruned_by_probability

    tracer.wrap(AssignmentGraphBuilder, "build", "graph.build", after=after_build)

    def after_eq3(args, kwargs, result, c, token) -> None:
        c["deadline.eq3.cells"] += result.size

    tracer.wrap(
        DeadlineEstimator, "completion_probability_matrix", "deadline.eq3", after=after_eq3
    )

    def after_fit(args, kwargs, result, c, token) -> None:
        if result is not None:
            c["deadline.fit.trained"] += 1

    tracer.wrap(DeadlineEstimator, "fit_worker", "deadline.fit", after=after_fit)
    tracer.wrap(DeadlineEstimator, "window_probability_batch", "deadline.eq2")

    def after_sweep(args, kwargs, result, c, token) -> None:
        c["dynamic_assignment.sweep.withdrawals"] += result

    tracer.wrap(
        DynamicAssignmentComponent, "sweep", "dynamic_assignment.sweep", after=after_sweep
    )

    def after_weights(args, kwargs, result, c, token) -> None:
        c["weights.matrix.cells"] += result.size

    for cls in _subclasses(WeightFunction):
        if "matrix" in cls.__dict__:
            tracer.wrap(cls, "matrix", "weights.matrix", after=after_weights)

    def after_match(args, kwargs, result, c, token) -> None:
        c["matching.match.tasks"] += result.graph.n_tasks
        c["matching.match.matched"] += result.size

    for cls in _subclasses(Matcher):
        if "match" in cls.__dict__:
            tracer.wrap(cls, "match", "matching.match", after=after_match)

    def after_add(args, kwargs, result, c, token) -> None:
        if result is False:
            c["task_management.refused"] += 1

    tracer.wrap(TaskManagementComponent, "add_task", "task_management", after=after_add)
    tracer.wrap(TaskManagementComponent, "checkout_batch", "task_management")
    tracer.wrap(ProfilingComponent, "available_workers", "profiling")
    tracer.wrap(ProfilingComponent, "record_completion", "profiling")

    def before_submit(args, kwargs):
        coordinator = args[0]
        return coordinator.splits_performed, coordinator.tasks_migrated

    def after_submit(args, kwargs, result, c, token) -> None:
        coordinator = args[0]
        c["coordinator.submit_task.splits"] += coordinator.splits_performed - token[0]
        c["coordinator.submit_task.tasks_migrated"] += (
            coordinator.tasks_migrated - token[1]
        )

    tracer.wrap(
        Coordinator,
        "submit_task",
        "coordinator.submit_task",
        before=before_submit,
        after=after_submit,
    )


def install_engine(tracer: LayerTracer) -> None:
    """Wrap the discrete-event engine's run loop (simulation workloads)."""
    from repro.sim.engine import Engine

    def before_run(args, kwargs):
        return args[0].dispatched

    def after_run(args, kwargs, result, c, token) -> None:
        c["sim.engine.events"] += args[0].dispatched - token

    tracer.wrap(Engine, "run", "sim.engine", before=before_run, after=after_run)


def install_service(tracer: LayerTracer) -> None:
    """Wrap the live-service layers (inside the gateway process)."""
    from repro.service.admission import AdmissionController
    from repro.service.bridge import LiveRegionServer
    from repro.service.gateway import ServiceGateway
    from repro.service.runtime import WallClockRuntime

    def after_check(args, kwargs, result, c, token) -> None:
        if not result.admitted:
            c["service.admission.check.refused"] += 1

    tracer.wrap(AdmissionController, "check", "service.admission.check", after=after_check)
    tracer.wrap(LiveRegionServer, "heartbeat", "service.bridge")
    tracer.wrap(LiveRegionServer, "submit_task", "service.bridge")

    def after_answer(args, kwargs, result, c, token) -> None:
        c["service.bridge.answers"] += 1
        if result.status == "stale":
            c["service.bridge.stale"] += 1

    tracer.wrap(LiveRegionServer, "submit_answer", "service.bridge", after=after_answer)

    def before_dispatch(args, kwargs):
        # How late the clock event runs against its due time, in wall ms:
        # the wait work spends behind the event loop.
        runtime, now = args[0], args[2]
        tracer.sample("dispatch_wait_ms", (runtime._read() - now) / runtime.time_scale * 1e3)

    # The timer callback and the cohort dispatch it drives are one layer:
    # the callback's own loop (heap pops, re-arming) is runtime time too.
    tracer.wrap(WallClockRuntime, "_fire", "service.runtime")
    tracer.wrap(WallClockRuntime, "_dispatch_cohort", "service.runtime", before=before_dispatch)
    tracer.wrap_async(ServiceGateway, "_handle", "service.http")


def _subclasses(root: type) -> List[type]:
    found: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found
