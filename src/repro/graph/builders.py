"""Assignment-graph construction (paper §IV-A "Graph Construction").

The Scheduling Component builds, per batch, the weighted bipartite graph
between the region's available workers and its unassigned tasks:

1. **Probabilistic pruning** (Eq. 3): the edge (worker_i, task_j) is only
   instantiated when ``Pr(ExecTime_ij < TimeToDeadline_ij)`` exceeds an
   application-defined bound; otherwise it is pruned outright.
2. **Cold start**: "for the first z assignments of a new worker, we
   instantiate the edges with all available tasks and we assign the maximum
   value of F(worker_i, task_j) to train him" — untrained workers connect
   everywhere with weight 1.0.
3. **Weights**: Eq. (1) accuracy (or any :class:`WeightFunction`).
4. **Optional reward-range filtering** (§III-C extension): an edge is not
   instantiated when the task's reward falls outside the worker's declared
   acceptable range.
5. **Optional low-weight pruning** (§IV-A suggestion) to shrink the graph.

The whole construction is vectorized: one weight-matrix call, one Eq. (3)
probability-matrix call, boolean masks, then a single ``from_dense``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.deadline import DeadlineEstimator
from ..core.weights import WeightFunction
from ..model.table import WorkerRows
from ..model.task import Task
from ..model.worker import WorkerProfile
from .bipartite import BipartiteGraph

#: Weight granted to cold-start (untrained) workers' edges.
MAX_WEIGHT = 1.0


class BudgetGate(Protocol):
    """Structural interface for per-requester budget enforcement.

    Implemented by :class:`repro.scenarios.budget.BudgetLedger`; declared
    here (structurally, so the graph layer never imports the scenarios
    layer) because edge *non-instantiation* is how every matcher respects
    budgets at once — a task whose requester cannot fund its reward gets no
    edges, so no matching algorithm can assign it.
    """

    def allows(self, task: Task) -> bool:
        """Whether the task's requester can still fund its reward."""
        ...


@dataclass(frozen=True)
class RewardRange:
    """A worker's acceptable task-reward interval (§III-C pricing extension)."""

    low: float = 0.0
    high: float = float("inf")

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"invalid reward range [{self.low}, {self.high}]")

    def accepts(self, reward: float) -> bool:
        return self.low <= reward <= self.high


@dataclass
class GraphBuildReport:
    """Accounting of what the builder did (for tests and tracing)."""

    candidate_edges: int = 0
    pruned_by_probability: int = 0
    pruned_by_reward: int = 0
    pruned_by_budget: int = 0
    pruned_by_weight: int = 0
    cold_start_workers: int = 0
    kept_edges: int = 0
    extra: Dict[str, int] = field(default_factory=dict)


class AssignmentGraphBuilder:
    """Builds the per-batch worker×task bipartite graph.

    Parameters
    ----------
    weight_function:
        ``F(worker, task)`` producing w_ij.
    estimator:
        Eq. (3) evaluator (also defines the cold-start ``z``).
    edge_probability_bound:
        The "application-defined lower bound" on Eq. (3) under which edges
        are pruned.
    min_weight:
        When set, additionally prune trained-worker edges below this weight.
    reward_ranges:
        Optional worker_id → :class:`RewardRange` map enabling the §III-C
        pricing extension.
    budget:
        Optional :class:`BudgetGate`: tasks whose requester can no longer
        fund the reward get no edges at all (budget-aware scenarios).
    """

    def __init__(
        self,
        weight_function: WeightFunction,
        estimator: DeadlineEstimator,
        edge_probability_bound: float = 0.1,
        min_weight: Optional[float] = None,
        reward_ranges: Optional[Dict[int, RewardRange]] = None,
        budget: Optional[BudgetGate] = None,
    ) -> None:
        if not (0.0 <= edge_probability_bound <= 1.0):
            raise ValueError(
                f"edge_probability_bound must be in [0,1], got {edge_probability_bound}"
            )
        if min_weight is not None and not (0.0 <= min_weight <= 1.0):
            raise ValueError(f"min_weight must be in [0,1], got {min_weight}")
        self.weight_function = weight_function
        self.estimator = estimator
        self.edge_probability_bound = edge_probability_bound
        self.min_weight = min_weight
        self.reward_ranges = reward_ranges or {}
        self.budget = budget

    def build(
        self,
        workers: Sequence[WorkerProfile],
        tasks: Sequence[Task],
        now: float,
    ) -> Tuple[BipartiteGraph, GraphBuildReport]:
        """Construct the pruned, weighted graph at simulated time ``now``.

        Worker index ``i`` in the returned graph corresponds to
        ``workers[i]``, task index ``j`` to ``tasks[j]``.
        """
        report = GraphBuildReport()
        n_w, n_t = len(workers), len(tasks)
        if n_w == 0 or n_t == 0:
            return BipartiteGraph.empty(n_w, n_t), report
        report.candidate_edges = n_w * n_t
        # One table view for every per-worker read below (Eq. 3, Eq. 1,
        # cold start): a plain sequence is packed once here.
        rows = WorkerRows.of(workers)

        ttd = np.array([task.time_to_deadline(now) for task in tasks], dtype=np.float64)
        # Two distinct notions of "new worker" (§IV-A): the cold-start boost
        # applies to a worker's first z *assignments* ("for the first z
        # assignments of a new worker, we instantiate the edges with all
        # available tasks and we assign the maximum value"), while the Eq. 3
        # probability model activates once the profile holds enough duration
        # observations (handled inside the estimator).
        cold_start = rows.table.assignment_count[rows.slots] < self.estimator.min_history
        report.cold_start_workers = int(cold_start.sum())

        if self.edge_probability_bound > 0.0:
            # Eq. (3) probabilities; untrained rows come back as 1.0 except
            # for already-expired tasks (columns with ttd <= 0), which stay 0.
            prob = self.estimator.completion_probability_matrix(rows, ttd)
            keep = prob >= self.edge_probability_bound
            # Cold-start workers connect to every (non-expired) task
            # regardless of the probability bound.
            keep |= cold_start[:, None] & (ttd > 0)[None, :]
        else:
            # A zero bound keeps every edge (probabilities are clipped to
            # [0, 1], so ``prob >= 0`` is vacuous) — the non-probabilistic
            # policies route through here, and evaluating Eq. 3 just to
            # compare it against zero was a measurable share of their
            # per-batch cost.
            keep = np.ones((n_w, n_t), dtype=bool)
        report.pruned_by_probability = report.candidate_edges - int(keep.sum())

        # Weights: Eq. (1) for established workers, MAX_WEIGHT for cold-start.
        weights = self.weight_function.matrix(rows, tasks)
        if weights.shape != (n_w, n_t):
            raise ValueError(
                f"weight function returned shape {weights.shape}, "
                f"expected {(n_w, n_t)}"
            )
        weights = np.where(~cold_start[:, None], weights, MAX_WEIGHT)

        # Reward-range filtering (edges "not instantiated" per §III-C).
        if self.reward_ranges:
            rewards = np.array([task.reward for task in tasks], dtype=np.float64)
            for i, worker in enumerate(workers):
                rng = self.reward_ranges.get(worker.worker_id)
                if rng is None:
                    continue
                ok = (rewards >= rng.low) & (rewards <= rng.high)
                dropped = int((keep[i] & ~ok).sum())
                report.pruned_by_reward += dropped
                keep[i] &= ok

        # Budget gate: a task whose requester cannot fund its reward gets
        # its whole column cleared — no matcher, randomized or greedy, can
        # then pick it up.  Applies to cold-start edges too: training a
        # worker on an unfundable task would still owe its reward.
        if self.budget is not None:
            funded = np.array(
                [self.budget.allows(task) for task in tasks], dtype=bool
            )
            if not funded.all():
                dropped = int((keep & ~funded[None, :]).sum())
                report.pruned_by_budget = dropped
                keep &= funded[None, :]

        # Low-weight pruning (established workers only — cold-start edges
        # are the training mechanism and must survive).
        if self.min_weight is not None:
            heavy = weights >= self.min_weight
            heavy |= cold_start[:, None]
            dropped = int((keep & ~heavy).sum())
            report.pruned_by_weight = dropped
            keep &= heavy

        graph = BipartiteGraph.from_dense(weights, mask=keep)
        report.kept_edges = graph.n_edges
        return graph, report
