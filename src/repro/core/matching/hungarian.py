"""Offline-optimal matching via the Hungarian method (reference).

The paper's introduction notes the offline assignment problem "can be solved
using linear programming or by the Hungarian algorithm [Kuhn 1955] ...
however, these approaches have high computational overhead which makes them
inappropriate for use in dynamic systems."  We include the optimal solver —
backed by :func:`scipy.optimize.linear_sum_assignment` — as the ground-truth
yardstick for Fig. 4's matching-output comparison and for the matcher
property tests (no algorithm may exceed the optimal objective).

Sparse graphs are handled by giving absent edges zero profit, then filtering
any such phantom pairs out of the result; a selected phantom pair simply
means "leave that task unmatched".  Zero (not negative) profit matters: the
objective is pure maximum weight (Σ w_ij, the paper's §III-C program), so
leaving a vertex unmatched must cost nothing — a negative phantom would
bribe the solver into low-weight pairings just to cover vertices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .base import Matcher, MatchingResult, empty_result

#: Profit of non-edges: zero, so unmatched vertices cost nothing.
_PHANTOM = 0.0


class HungarianMatcher(Matcher):
    """Exact maximum-weight bipartite matching (offline optimal)."""

    name = "hungarian"

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        # Imported here, not at module load: this offline oracle is the only
        # scipy.optimize user, and the import costs a large share of start-up
        # time and memory on paths that never solve an assignment.
        from scipy.optimize import linear_sum_assignment

        profit = np.full((graph.n_workers, graph.n_tasks), _PHANTOM, dtype=np.float64)
        profit[graph.edge_workers, graph.edge_tasks] = graph.edge_weights
        rows, cols = linear_sum_assignment(profit, maximize=True)

        # Map selected (worker, task) cells back to edge indices, dropping
        # phantom pairs (cells that are not real edges) and zero-gain picks.
        edge_lookup = {
            (int(w), int(t)): i
            for i, (w, t) in enumerate(zip(graph.edge_workers, graph.edge_tasks))
        }
        chosen = [
            edge_lookup[(int(w), int(t))]
            for w, t in zip(rows, cols)
            if (int(w), int(t)) in edge_lookup
        ]
        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(sorted(chosen), dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
        )
