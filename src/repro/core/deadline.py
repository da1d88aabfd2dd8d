"""Probabilistic deadline model (paper §IV-B, Eqs. 2-3).

For a worker with execution-time history ``k_1..k_n`` the Profiling
Component fits a power law (``k_min`` = the worker's fastest recorded time,
α via the CSN MLE — see :mod:`repro.stats.powerlaw`).  With CCDF
``P(k) = Pr(K >= k)`` the two decision probabilities are:

* **Edge instantiation** (Eq. 3), evaluated at graph-construction time:

      Pr(ExecTime < TimeToDeadline) = 1 − P(TimeToDeadline)

  The Scheduling Component only creates the edge when this exceeds an
  application-defined lower bound.

* **Mid-flight reassignment** (Eq. 2), evaluated by the Dynamic Assignment
  Component for a task that has been running ``t`` seconds:

      Pr(t < ExecTime < TTD) = 1 − (P(TTD) + (1 − P(t))) = P(t) − P(TTD)

  When it drops below the reassignment threshold (10% in the paper) the
  task is pulled back and rescheduled — "the probabilities for these
  distributions decrease rapidly after they exceed the typical values", so
  the remaining time may still suffice for a faster worker.

Workers with fewer than ``min_history`` completed tasks have no usable fit;
the paper trains each worker on his first ``z = 3`` tasks, during which both
probabilities are treated as certain (edges always instantiated, no
reassignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..model.table import WorkerRows, WorkerTable
from ..model.worker import WorkerProfile
from ..stats.duration_models import DurationModel, DurationModelFamily, PowerLawFamily
from ..stats.powerlaw import FitMethod, PowerLawFit
from .kernels.deadline import powerlaw_ccdf_grid, powerlaw_ccdf_values


@dataclass(frozen=True)
class DeadlineEstimate:
    """One Eq. 2/3 evaluation, kept for tracing and tests."""

    probability: float
    fit: Optional[PowerLawFit]
    trained: bool

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of [0,1]: {self.probability}")


class DeadlineEstimator:
    """Evaluates Eqs. (2) and (3) against worker histories.

    Parameters
    ----------
    min_history:
        The paper's ``z``: minimum completed tasks before the probabilistic
        model activates for a worker (3 in the experiments).
    fit_method:
        Which MLE variant estimates α (paper's discrete form by default).
    """

    def __init__(
        self,
        min_history: int = 3,
        fit_method: FitMethod = FitMethod.PAPER_DISCRETE,
        family: Optional[DurationModelFamily] = None,
    ) -> None:
        if min_history < 0:
            raise ValueError(f"min_history must be >= 0, got {min_history}")
        self.min_history = min_history
        self.fit_method = fit_method
        # The distribution family is pluggable (ABL-MODEL ablation); the
        # paper's power law is the default.
        self.family = family if family is not None else PowerLawFamily(fit_method)
        # Fit cache keyed by worker id; worker histories are append-only, so
        # a cached fit stays valid until the completed-task count changes.
        # The batch paths read the fitted parameters from the worker table's
        # fit columns instead (see _gather) and only come here to refit.
        self._fit_cache: dict[int, tuple[int, DurationModel]] = {}
        # Histories shorter than this are untrained (z, and never 0).
        self._trained_from = max(min_history, 1)
        # Cache effectiveness tallies, exported by the observability layer
        # (plain ints here — core must not depend on repro.obs).  A miss is
        # any trained fit_worker call that had to run the MLE.
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- fitting
    def fit_worker(self, worker: WorkerProfile) -> Optional[DurationModel]:
        """Fitted duration model for the worker, or None while untrained."""
        n_obs = len(worker.execution_times)
        if n_obs < self._trained_from:
            return None
        cached = self._fit_cache.get(worker.worker_id)
        if cached is not None and cached[0] == n_obs:
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        fit = self.family.fit(worker.execution_times)
        self._fit_cache[worker.worker_id] = (n_obs, fit)
        return fit

    def evict(self, worker_id: int) -> None:
        """Drop a worker's cached fit (called when he leaves the region).

        Without eviction the cache grows monotonically under churn — every
        worker who ever completed ``min_history`` tasks stays resident
        forever.  :class:`~repro.platform.profiling.ProfilingComponent`
        invokes this from its deregister hook.
        """
        self._fit_cache.pop(worker_id, None)

    def _store_fit(
        self, table: WorkerTable, slot: int, n_obs: int, fit: Optional[DurationModel]
    ) -> None:
        if isinstance(fit, PowerLawFit):
            table.set_fit(slot, n_obs, fit.alpha, fit.k_min, True)
        else:
            table.set_fit(slot, n_obs, math.nan, math.nan, False)

    def _gather(
        self, rows: WorkerRows, candidates: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, DurationModel]]]:
        """Fitted models of the trained rows among ``candidates``.

        Returns ``(powerlaw_rows, alpha, k_min, others)``: ascending row
        indices whose fit is a power law with their parameters, and
        ``(row, fit)`` pairs for fits of any other family.  A row whose fit
        columns are current (same owner, same history length) and hold a
        power law is a cache hit read by fancy index; every other trained
        row goes through :meth:`fit_worker`, which refits only when the
        history grew, and its table row is rewritten.
        """
        table, slots = rows.table, rows.slots
        table.claim_fits(self)
        if candidates is None:
            candidates = np.arange(len(rows), dtype=np.intp)
        n_obs = table.n_obs[slots[candidates]]
        trained_mask = n_obs >= self._trained_from
        trained = candidates[trained_mask]
        trained_slots = slots[trained]
        fast = (table.fit_n_obs[trained_slots] == n_obs[trained_mask]) & (
            table.is_power_law[trained_slots]
        )
        self.cache_hits += int(fast.sum())
        others: List[Tuple[int, DurationModel]] = []
        for i in trained[~fast].tolist():
            worker = rows[i]
            fit = self.fit_worker(worker)
            self._store_fit(table, int(slots[i]), len(worker.execution_times), fit)
            if fit is not None and not isinstance(fit, PowerLawFit):
                others.append((i, fit))
        powerlaw = trained[table.is_power_law[trained_slots]]
        powerlaw_slots = slots[powerlaw]
        return powerlaw, table.alpha[powerlaw_slots], table.k_min[powerlaw_slots], others

    # ------------------------------------------------------------- Eq. (3)
    def completion_probability(
        self, worker: WorkerProfile, time_to_deadline: float
    ) -> DeadlineEstimate:
        """Eq. (3): Pr(ExecTime < TimeToDeadline) for a fresh assignment."""
        if time_to_deadline <= 0:
            return DeadlineEstimate(probability=0.0, fit=None, trained=False)
        fit = self.fit_worker(worker)
        if fit is None:
            # Untrained worker: the paper instantiates all edges for the
            # first z assignments, i.e. treats completion as certain.
            return DeadlineEstimate(probability=1.0, fit=None, trained=False)
        prob = 1.0 - float(fit.ccdf(time_to_deadline))
        return DeadlineEstimate(probability=min(max(prob, 0.0), 1.0), fit=fit, trained=True)

    def completion_probability_matrix(
        self,
        workers: Sequence[WorkerProfile],
        time_to_deadline: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Eq. (3): (len(workers), len(ttd)) probabilities.

        This is the graph-construction hot path.  Power-law fits (the
        paper's model, and the overwhelmingly common case) are gathered from
        the worker table's fit columns into ``alpha`` / ``k_min`` arrays and
        evaluated as a single broadcasted power over the worker × TTD grid;
        any other fitted family falls back to one vectorized ``ccdf`` call
        per worker.  Both paths are bit-identical to the scalar
        :meth:`completion_probability` (NumPy applies the same elementwise
        ``pow`` either way).  A plain profile sequence is packed into a
        table first; :class:`~repro.model.table.WorkerRows` (what
        ``ProfilingComponent.available_workers`` returns) is read in place.
        """
        ttd = np.asarray(time_to_deadline, dtype=np.float64)
        rows = WorkerRows.of(workers)
        # Untrained rows (and non-fits) treat completion as certain.
        out = np.ones((len(rows), len(ttd)), dtype=np.float64)
        powerlaw, alpha, k_min, others = self._gather(rows)
        for i, fit in others:
            out[i, :] = 1.0 - fit.ccdf(ttd)
        if len(powerlaw):
            out[powerlaw, :] = 1.0 - powerlaw_ccdf_grid(alpha, k_min, ttd)
        # Expired deadlines can never be met, trained or not.
        out[:, ttd <= 0] = 0.0
        return np.clip(out, 0.0, 1.0)

    # ------------------------------------------------------------- Eq. (2)
    def window_probability(
        self,
        worker: WorkerProfile,
        elapsed: float,
        time_to_deadline: float,
    ) -> DeadlineEstimate:
        """Eq. (2): Pr(t < ExecTime < TimeToDeadline) mid-execution.

        ``elapsed`` is ``t_ij`` (seconds since assignment); ``time_to_deadline``
        is measured from the *assignment* instant, so the window is
        ``(elapsed, time_to_deadline)``.
        """
        if elapsed < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed}")
        if time_to_deadline <= elapsed:
            # Deadline already inside the elapsed window: no chance left.
            return DeadlineEstimate(probability=0.0, fit=None, trained=False)
        fit = self.fit_worker(worker)
        if fit is None:
            return DeadlineEstimate(probability=1.0, fit=None, trained=False)
        # 1 - (P(TTD) + (1 - P(t))) = P(t) - P(TTD); clamp guards the tiny
        # negative values the formula yields when t < k_min (both CCDFs 1).
        prob = float(fit.ccdf(elapsed)) - float(fit.ccdf(time_to_deadline))
        return DeadlineEstimate(probability=min(max(prob, 0.0), 1.0), fit=fit, trained=True)

    def window_probability_batch(
        self,
        workers: Sequence[WorkerProfile],
        elapsed: np.ndarray,
        time_to_deadline: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. (2): one probability per (worker, window) row.

        ``workers[i]`` has been executing for ``elapsed[i]`` seconds against
        window ``time_to_deadline[i]``; this is the Dynamic Assignment sweep
        shape — all assigned tasks evaluated in one batch call.

        Returns ``(probabilities, trained)``.  Rows with ``trained`` False
        (untrained worker, or window already closed) carry the same
        probability the scalar :meth:`window_probability` reports (1.0 and
        0.0 respectively); power-law rows are evaluated with stacked
        ``alpha`` / ``k_min`` arrays, bit-identically to the scalar path.
        """
        elapsed = np.asarray(elapsed, dtype=np.float64)
        ttd = np.asarray(time_to_deadline, dtype=np.float64)
        n = len(workers)
        if elapsed.shape != (n,) or ttd.shape != (n,):
            raise ValueError(
                f"elapsed/time_to_deadline must be ({n},) arrays, "
                f"got {elapsed.shape} and {ttd.shape}"
            )
        if n and elapsed.min() < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed.min()}")

        probs = np.ones(n, dtype=np.float64)
        trained = np.zeros(n, dtype=bool)
        closed = ttd <= elapsed
        probs[closed] = 0.0
        rows = WorkerRows.of(workers)
        powerlaw, alpha, k_min, others = self._gather(rows, (~closed).nonzero()[0])
        for i, fit in others:
            p = float(fit.ccdf(elapsed[i])) - float(fit.ccdf(ttd[i]))
            probs[i] = min(max(p, 0.0), 1.0)
            trained[i] = True
        if len(powerlaw):
            p = powerlaw_ccdf_values(alpha, k_min, elapsed[powerlaw]) - powerlaw_ccdf_values(
                alpha, k_min, ttd[powerlaw]
            )
            probs[powerlaw] = np.clip(p, 0.0, 1.0)
            trained[powerlaw] = True
        return probs, trained

    def withdrawal_skip_horizon(
        self,
        worker: WorkerProfile,
        time_to_deadline: float,
        threshold: float,
    ) -> float:
        """Conservative elapsed-time horizon below which Eq. (2) stays ≥ threshold.

        For a power-law fit the Eq. (2) probability ``P(t) − P(TTD)`` is
        nonincreasing in the elapsed time ``t``, so there is a crossing time
        before which the withdrawal rule *cannot* fire.  Solving
        ``(t/k_min)^{1−α} = threshold + P(TTD)`` for ``t`` and keeping 0.1%
        of safety margin (many orders of magnitude above ``pow`` rounding)
        gives a horizon with the guarantee: while the worker's observation
        count is unchanged, any sweep with ``elapsed < horizon`` would
        evaluate a probability ≥ threshold — i.e. no withdrawal.  The Eq. 2
        monitor arms each assignment with this horizon and evaluates it only
        once the horizon has passed, without changing a single withdrawal
        decision.

        Returns ``inf`` for untrained workers (never withdrawn until their
        fit activates, which changes the observation count and re-arms the
        assignment) and ``0.0`` (never skip) for non-power-law duration
        families, whose CCDF shape this closed form does not cover.  A
        profile bound to a worker table reads its current fit from the
        table's fit columns.
        """
        n_obs = len(worker.execution_times)
        if n_obs < self._trained_from:
            return math.inf
        table, slot = worker._table, worker._slot
        if (
            table is not None
            and table.fit_owner is self
            and table.fit_n_obs[slot] == n_obs
            and table.is_power_law[slot]
        ):
            self.cache_hits += 1
            alpha = float(table.alpha[slot])
            k_min = float(table.k_min[slot])
        else:
            fit = self.fit_worker(worker)
            if table is not None:
                table.claim_fits(self)
                self._store_fit(table, slot, n_obs, fit)
            if not isinstance(fit, PowerLawFit):
                return 0.0
            alpha = fit.alpha
            k_min = fit.k_min
        if time_to_deadline <= k_min:
            p_ttd = 1.0
        else:
            p_ttd = min(max((time_to_deadline / k_min) ** (1.0 - alpha), 0.0), 1.0)
        target = threshold + p_ttd
        if target <= 0.0:
            # threshold 0 against a fully-decayed window: probability can
            # never go strictly below 0, so the rule never fires.
            return math.inf
        if target > 1.0:
            # Even an instant evaluation (P(t) = 1) sits under threshold:
            # the task is withdrawn at the very next sweep, never skip.
            return 0.0
        if alpha <= 1.0:
            # Degenerate fit: the CCDF head clamp keeps P(t) = 1 everywhere.
            return math.inf
        log_ratio = -math.log(target) / (alpha - 1.0)
        if log_ratio > 700.0:  # exp would overflow; the horizon is unreachable
            return math.inf
        return 0.999 * k_min * math.exp(log_ratio)

    def should_reassign(
        self,
        worker: WorkerProfile,
        elapsed: float,
        time_to_deadline: float,
        threshold: float,
    ) -> bool:
        """Reassignment rule: pull the task when Eq. (2) < ``threshold``.

        Untrained workers are never reassigned (the paper: "the first 3
        tasks in every worker are not going to be reassigned so as to train
        the system about his performance").
        """
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")
        estimate = self.window_probability(worker, elapsed, time_to_deadline)
        if not estimate.trained:
            return False
        return estimate.probability < threshold
