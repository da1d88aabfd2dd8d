"""The two simulation workloads: ``paper-react`` and ``scenario-hotspot``.

``paper-react`` is the §V-C Fig. 5 run: the default ``EndToEndConfig``
(750 workers, 8371 tasks at 9.375/s) under ``react_policy(cycles=1000)``.

``scenario-hotspot`` is ``run_scenario_comparison`` over the five
``scenario_policies()`` on the default ``ScenarioConfig``.  Its outcome is
chaotic in the seed (the ``ratio`` policy lands in one of two regimes whose
cost differs about fivefold), so one instance per run would measure the
seed, not the code.

A run of either workload therefore executes a fixed number of instances per
measured second, seeded ``seed + i * SEED_STRIDE``, and reports ratios and
quantiles pooled over all of them.

Both workloads check every instance: task conservation at the end, and,
at the default seed, the exact outcome counts pinned in ``expected.json``.
Timed runs measure program time in reference seconds (``calibrate.py``).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibrate import Calibrator

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Seed of the default configs; at these seeds the pinned counts apply.
DEFAULT_SEED = {"paper-react": 42, "scenario-hotspot": 7}
#: Distance between consecutive instance seeds.
SEED_STRIDE = 1009
#: Instances per measured second, fixed per ``--seconds`` so the inputs
#: depend only on the arguments.  On a 2-core Xeon host one paper-react
#: instance takes 3 to 6 s and one scenario comparison 0.6 to 1.1 s.
INSTANCES_PER_SECOND = {"paper-react": 0.2, "scenario-hotspot": 1.6}
#: Either workload runs at least this many instances.
MIN_INSTANCES = 3


@dataclass
class Instance:
    """Outcome of one workload instance (one policy run or one comparison)."""

    label: str
    #: Program wall seconds of the instance.
    wall_s: float
    #: The same span in reference seconds (equal to ``wall_s`` when the
    #: calibrator is not running, as in traced runs).
    ref_s: float
    received: int
    completed: int
    on_time: int
    policy_runs: int
    turnarounds: List[float]
    counts: Dict[str, Dict[str, int]]
    errors: List[str] = field(default_factory=list)
    #: Wall seconds of each requester submission (traced runs only).
    submit_s: List[float] = field(default_factory=list)


class _Capture:
    """Benchmark-side probes on the public entry points the workloads call.

    ``time_calls`` times every requester submission (the call a requester makes;
    it runs a whole batch when the queue reaches the threshold).  ``owners``
    collects the server or coordinator each run ends with, so the checks can
    read in-flight counts and outcomes that ``run_endtoend`` and
    ``run_scenario_comparison`` do not return.
    """

    def __init__(self) -> None:
        self.submit_s: List[float] = []
        self.owners: List[Any] = []
        self._patched: List[tuple] = []

    def time_calls(self, owner: type, attr: str) -> None:
        original = owner.__dict__[attr]
        samples = self.submit_s
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(*args, **kwargs)
            samples.append(clock() - start)
            return result

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def keep_owner(self, owner: type, attr: str) -> None:
        original = owner.__dict__[attr]
        owners = self.owners

        def kept(obj: Any, *args: Any, **kwargs: Any) -> Any:
            owners.append(obj)
            return original(obj, *args, **kwargs)

        setattr(owner, attr, kept)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class SimWorkload:
    """A built simulation workload: its instances and how to run one."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        expected = json.loads(EXPECTED_PATH.read_text())
        self.expected: Optional[Dict[str, Dict[str, int]]] = (
            expected[name] if seed == DEFAULT_SEED[name] else None
        )
        if name == "paper-react":
            from repro.experiments.config import EndToEndConfig
            from repro.experiments.endtoend import run_endtoend
            from repro.platform.policies import react_policy
            from repro.platform.server import REACTServer

            self._run_endtoend = run_endtoend
            self.policy = react_policy(cycles=1000)
            config_cls = EndToEndConfig
            self._server_cls = REACTServer
        elif name == "scenario-hotspot":
            from repro.experiments.scenario import ScenarioConfig, run_scenario_comparison
            from repro.platform.coordinator import Coordinator
            from repro.scenarios.baselines import scenario_policies

            self._run_comparison = run_scenario_comparison
            self.policies = scenario_policies()
            config_cls = ScenarioConfig
            self._coordinator_cls = Coordinator
        else:
            raise ValueError(f"not a simulation workload: {name}")
        count = max(MIN_INSTANCES, math.ceil(seconds * INSTANCES_PER_SECOND[name]))
        self.configs = [config_cls(seed=seed + i * SEED_STRIDE) for i in range(count)]

    # ------------------------------------------------------------- probes
    def capture(self, time_submits: bool) -> _Capture:
        capture = _Capture()
        if self.name == "paper-react":
            if time_submits:
                capture.time_calls(self._server_cls, "submit_task")
            capture.keep_owner(self._server_cls, "drain_and_summary")
        else:
            if time_submits:
                capture.time_calls(self._coordinator_cls, "submit_task")
            capture.keep_owner(self._coordinator_cls, "aggregate_summary")
        return capture

    # ------------------------------------------------------------ running
    def run_instance(self, index: int, capture: _Capture, calibrator: Calibrator) -> Instance:
        config = self.configs[index]
        capture.owners.clear()
        capture.submit_s.clear()
        gc.collect()
        begin = calibrator.mark()
        if self.name == "paper-react":
            result = self._run_endtoend(self.policy, config)
        else:
            results = self._run_comparison(config, policies=self.policies)
        end = calibrator.mark()
        wall = (calibrator.raw_s(begin, end), calibrator.ref_s(begin, end))
        if self.name == "paper-react":
            instance = self._check_endtoend(result, capture.owners, wall, index, config.seed)
        else:
            instance = self._check_scenario(results, capture.owners, wall, index, config.seed)
        instance.submit_s = list(capture.submit_s)
        return instance

    def _check_endtoend(
        self, result: Any, owners: List[Any], wall: Tuple[float, float], index: int, seed: int
    ) -> Instance:
        metrics = result.metrics
        server = owners[-1]
        shed = server.task_management.shed_by_budget
        counts = {
            "react": {
                "received": metrics.received,
                "completed": metrics.completed,
                "completed_on_time": metrics.completed_on_time,
                "splits": 0,
                "shed": shed,
            }
        }
        errors = _conservation(
            "react",
            metrics.received,
            metrics.completed,
            metrics.expired_unassigned,
            shed,
            server.task_management.in_flight,
        )
        if index == 0 and self.expected is not None:
            errors += _pinned(counts, self.expected)
        return Instance(
            label=f"seed={seed}",
            wall_s=wall[0],
            ref_s=wall[1],
            received=metrics.received,
            completed=metrics.completed,
            on_time=metrics.completed_on_time,
            policy_runs=1,
            turnarounds=[o.total_time for o in metrics.outcomes if o.total_time is not None],
            counts=counts,
            errors=errors,
        )

    def _check_scenario(
        self,
        results: Dict[str, Any],
        owners: List[Any],
        wall: Tuple[float, float],
        index: int,
        seed: int,
    ) -> Instance:
        if len(owners) != len(results):
            raise RuntimeError("expected one coordinator per policy run")
        counts: Dict[str, Dict[str, int]] = {}
        errors: List[str] = []
        turnarounds: List[float] = []
        for (name, result), coordinator in zip(results.items(), owners):
            summary = result.summary
            in_flight = sum(s.task_management.in_flight for s in coordinator.servers)
            counts[name] = {
                "received": int(summary["received"]),
                "completed": int(summary["completed"]),
                "completed_on_time": int(summary["completed_on_time"]),
                "splits": result.splits_performed,
                "shed": result.shed_by_budget,
            }
            errors += _conservation(
                name,
                int(summary["received"]),
                int(summary["completed"]),
                int(summary["expired_unassigned"]),
                result.shed_by_budget,
                in_flight,
            )
            for server in coordinator.servers:
                turnarounds.extend(
                    o.total_time for o in server.metrics.outcomes if o.total_time is not None
                )
        if index == 0 and self.expected is not None:
            errors += _pinned(counts, self.expected)
        return Instance(
            label=f"seed={seed}",
            wall_s=wall[0],
            ref_s=wall[1],
            received=sum(c["received"] for c in counts.values()),
            completed=sum(c["completed"] for c in counts.values()),
            on_time=sum(c["completed_on_time"] for c in counts.values()),
            policy_runs=len(counts),
            turnarounds=turnarounds,
            counts=counts,
            errors=errors,
        )

    def runs(self, traced: bool) -> int:
        """Instances a run executes.  A traced run runs every instance
        twice, so it takes only the first half to stay as long as a timed
        run."""
        return math.ceil(len(self.configs) / 2) if traced else len(self.configs)


def _conservation(
    policy: str, received: int, completed: int, expired: int, shed: int, in_flight: int
) -> List[str]:
    """received = completed + expired (queue retirements) + shed + in flight."""
    retired = expired - shed
    if retired < 0 or received != completed + retired + shed + in_flight:
        return [
            f"{policy}: conservation broken: received={received} completed={completed} "
            f"retired={retired} shed={shed} in_flight={in_flight}"
        ]
    return []


def _pinned(counts: Dict[str, Dict[str, int]], expected: Dict[str, Dict[str, int]]) -> List[str]:
    errors = []
    for policy, want in expected.items():
        got = counts.get(policy)
        if got != want:
            errors.append(f"{policy}: outcome counts {got} differ from pinned {want}")
    return errors


def measure(
    workload: SimWorkload, trace: bool, calibrator: Calibrator, calibrator_mb: float
) -> Dict[str, Any]:
    """Timed run (``trace`` False) or traced run (``trace`` True).

    The timed run keeps ``calibrator`` running and reports reference
    seconds; ``calibrator_mb`` (its list's resident size) is taken off the
    peak RSS.  The traced run leaves it stopped (its figures are wall
    seconds) and alternates untraced and traced repetitions of the same
    instances, so its overhead is measured against work done in the same
    process and time window; submissions are timed in the untraced ones.
    """
    from layers import LayerTracer, install_core, install_engine

    capture = workload.capture(time_submits=trace)
    instances: List[Instance] = []
    traced: List[Instance] = []
    tracer = LayerTracer()
    if not trace:
        calibrator.start()
    try:
        for index in range(workload.runs(trace)):
            instances.append(workload.run_instance(index, capture, calibrator))
            if trace:
                install_core(tracer)
                install_engine(tracer)
                try:
                    traced.append(workload.run_instance(index, capture, calibrator))
                finally:
                    tracer.uninstall()
    finally:
        calibrator.stop()
        capture.uninstall()
    errors = [e for inst in instances + traced for e in inst.errors]
    if trace and [i.counts for i in traced] != [i.counts for i in instances]:
        errors.append("traced repetitions changed the outcome counts")
    result: Dict[str, Any] = {
        "instances": instances,
        "errors": errors,
        "attempted": sum(i.policy_runs for i in instances + traced),
        "failed": sum(i.policy_runs for i in instances + traced if i.errors),
    }
    if not trace:
        result["metrics"] = _end_to_end(instances, calibrator_mb)
    else:
        result["metrics"] = _per_layer(tracer, instances, traced)
    return result


def completion_rate(instances: List[Instance], wall: str) -> float:
    """Completions per second of ``wall`` (``"ref_s"`` or ``"wall_s"``)."""
    return sum(i.completed for i in instances) / sum(getattr(i, wall) for i in instances)


def _end_to_end(instances: List[Instance], calibrator_mb: float) -> Dict[str, float]:
    turnarounds = sorted(t for i in instances for t in i.turnarounds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "completions_per_s": completion_rate(instances, "ref_s"),
        "on_time_frac": sum(i.on_time for i in instances) / sum(i.received for i in instances),
        "peak_rss_mb": peak_mb - calibrator_mb,
        "turnaround_p50_s": _quantile(turnarounds, 0.50),
    }


def _per_layer(tracer: Any, plain: List[Instance], traced: List[Instance]) -> Dict[str, float]:
    reps = len(traced)
    traced_wall = sum(i.wall_s for i in traced)
    plain_wall = sum(i.wall_s for i in plain)
    metrics = tracer.report(per=reps)
    layered = tracer.total_self_s()
    submits = sorted(t for i in plain for t in i.submit_s)
    metrics["submit.p50_ms"] = _quantile(submits, 0.50) * 1e3
    metrics["submit.p99_ms"] = _quantile(submits, 0.99) * 1e3
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    metrics["trace.wall_s"] = traced_wall / reps
    metrics["trace.unattributed_s"] = (traced_wall - layered) / reps
    metrics["trace.attributed_frac"] = layered / traced_wall
    return metrics


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])
