"""Columnar worker state: one struct-of-arrays slot per worker registration.

The per-batch hot paths — the Eq. 3 probability matrix, the cold-start mask,
the Eq. 1 accuracy weights and the free-worker set — read a handful of
scalars per worker.  Walking :class:`~repro.model.worker.WorkerProfile`
objects for them costs a Python loop over every available worker in every
batch, although almost none of those scalars changed since the last batch.
:class:`WorkerTable` keeps those scalars in NumPy columns instead, so the
hot paths gather them with one fancy index.

The profile stays the public object and the source of truth.  A registered
profile is *bound* to its :class:`~repro.platform.profiling.ProfilingComponent`'s
table and mirrors every write into its slot: ``record_completion`` and
``record_censored`` push the history length and accuracy, ``assign`` /
``release`` and direct ``online`` / ``available`` writes push the flags.
Each write is O(1); nothing rescans the table.

Slots are append-only: a slot is never reused, so slot order is
registration order (a worker who leaves and comes back gets a new slot at
the end, exactly where a re-insertion lands in an insertion-ordered dict).

The fitted duration-model parameters are columns too, written by the
deadline estimator that claimed the table (``fit_owner``): a fit is current
while its ``fit_n_obs`` equals the row's ``n_obs`` (histories are
append-only), so only rows whose history grew are refit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set

import numpy as np

from .task import TaskCategory

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .worker import WorkerProfile

#: Column of each task category in :attr:`WorkerTable.accuracy`.
CATEGORY_INDEX = {category: i for i, category in enumerate(TaskCategory)}

_COLUMNS = (
    ("worker_id", np.int64, 0),
    ("registered", np.bool_, False),
    ("online", np.bool_, False),
    ("available", np.bool_, False),
    ("free", np.bool_, False),
    ("n_obs", np.int64, 0),
    ("assignment_count", np.int64, 0),
    ("fit_n_obs", np.int64, -1),
    ("alpha", np.float64, np.nan),
    ("k_min", np.float64, np.nan),
    ("is_power_law", np.bool_, False),
)


class WorkerTable:
    """Struct-of-arrays mirror of worker profiles (see module docstring).

    Columns (arrays of length ``capacity``; only ``[:size]`` is meaningful):
    ``worker_id``, ``registered``, ``online``,
    ``available``, ``free`` (registered and online and available),
    ``n_obs`` (history length), ``assignment_count``, ``accuracy``
    (``size × len(TaskCategory)`` Eq. 1 accuracy) and the fit columns
    ``fit_n_obs`` / ``alpha`` / ``k_min`` / ``is_power_law``.  ``profiles``
    maps slots back to profile objects; it is a plain list, not an object
    array, because the profiles point back at the table and the cyclic
    garbage collector does not traverse NumPy object arrays.
    """

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(1, capacity)
        self.size = 0
        self.profiles: List["WorkerProfile"] = []
        self.worker_id = np.zeros(capacity, dtype=np.int64)
        self.registered = np.zeros(capacity, dtype=np.bool_)
        self.online = np.zeros(capacity, dtype=np.bool_)
        self.available = np.zeros(capacity, dtype=np.bool_)
        self.free = np.zeros(capacity, dtype=np.bool_)
        self.n_obs = np.zeros(capacity, dtype=np.int64)
        self.assignment_count = np.zeros(capacity, dtype=np.int64)
        self.fit_n_obs = np.full(capacity, -1, dtype=np.int64)
        self.alpha = np.full(capacity, np.nan, dtype=np.float64)
        self.k_min = np.full(capacity, np.nan, dtype=np.float64)
        self.is_power_law = np.zeros(capacity, dtype=np.bool_)
        self.accuracy = np.zeros((capacity, len(CATEGORY_INDEX)), dtype=np.float64)
        #: Number of ``free`` slots, kept in step with every flag write.
        self.free_count = 0
        #: Estimator whose fits the fit columns hold (see :meth:`claim_fits`).
        self.fit_owner: object = None
        #: When not None, worker ids whose history length changed are added
        #: here (the Eq. 2 monitor re-arms their assignments).  Off by
        #: default so nothing accumulates without a consumer.
        self.history_changes: Optional[Set[int]] = None

    # ----------------------------------------------------------- building
    @classmethod
    def pack(cls, profiles: Sequence["WorkerProfile"]) -> "WorkerRows":
        """A fresh, unbound table holding ``profiles`` in order.

        For callers that hold plain profile sequences (tests, benchmarks):
        the columns are read from the profiles once, and the profiles stay
        bound to whatever table they already belong to.
        """
        table = cls(capacity=len(profiles))
        for profile in profiles:
            table._append(profile, registered=True)
        return WorkerRows(profiles, table, np.arange(len(profiles), dtype=np.intp))

    def _grow(self) -> None:
        capacity = 2 * len(self.worker_id)
        for name, dtype, fill in _COLUMNS:
            old = getattr(self, name)
            new = np.full(capacity, fill, dtype=dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        accuracy = np.zeros((capacity, self.accuracy.shape[1]), dtype=np.float64)
        accuracy[: len(self.accuracy)] = self.accuracy
        self.accuracy = accuracy

    def _append(self, profile: "WorkerProfile", registered: bool) -> int:
        if self.size == len(self.worker_id):
            self._grow()
        slot = self.size
        self.size += 1
        self.profiles.append(profile)
        self.worker_id[slot] = profile.worker_id
        self.registered[slot] = registered
        self.online[slot] = profile.online
        self.available[slot] = profile.available
        self.n_obs[slot] = len(profile.execution_times)
        self.assignment_count[slot] = profile.assignment_count
        for category, accuracy in profile.accuracy_by_category.items():
            self.accuracy[slot, CATEGORY_INDEX[category]] = accuracy
        self._refresh_free(slot)
        return slot

    # --------------------------------------------------------- membership
    def attach(self, profile: "WorkerProfile") -> int:
        """Give a newly registered profile a slot and bind it to this table."""
        if profile._table is not None:
            raise ValueError(
                f"worker {profile.worker_id} is already registered in another table"
            )
        slot = self._append(profile, registered=True)
        profile._table = self
        profile._slot = slot
        return slot

    def detach(self, profile: "WorkerProfile") -> None:
        """The profile's worker deregistered: retire its slot and unbind it."""
        if profile._table is not self:
            raise ValueError(f"worker {profile.worker_id} is not bound to this table")
        slot = profile._slot
        self.registered[slot] = False
        self._refresh_free(slot)
        profile._table = None
        profile._slot = -1

    def rows(self, profiles: Sequence["WorkerProfile"]) -> "WorkerRows":
        """Rows view over profiles already bound to this table."""
        slots = np.array([p._slot for p in profiles], dtype=np.intp)
        return WorkerRows(profiles, self, slots)

    def free_rows(self) -> "WorkerRows":
        """Registered, online, available workers in slot (registration) order."""
        slots = self.free[: self.size].nonzero()[0]
        profiles = self.profiles
        return WorkerRows([profiles[slot] for slot in slots.tolist()], self, slots)

    # ------------------------------------------------------------- writes
    def _refresh_free(self, slot: int) -> None:
        free = bool(self.registered[slot] and self.online[slot] and self.available[slot])
        if free != bool(self.free[slot]):
            self.free[slot] = free
            self.free_count += 1 if free else -1

    def set_online(self, slot: int, value: bool) -> None:
        self.online[slot] = value
        self._refresh_free(slot)

    def set_available(self, slot: int, value: bool) -> None:
        self.available[slot] = value
        self._refresh_free(slot)

    def set_assignment_count(self, slot: int, value: int) -> None:
        self.assignment_count[slot] = value

    def set_history(self, slot: int, n_obs: int) -> None:
        """The worker's duration history grew to ``n_obs`` observations."""
        self.n_obs[slot] = n_obs
        if self.history_changes is not None:
            self.history_changes.add(int(self.worker_id[slot]))

    def set_accuracy(self, slot: int, category: TaskCategory, accuracy: float) -> None:
        self.accuracy[slot, CATEGORY_INDEX[category]] = accuracy

    # --------------------------------------------------------------- fits
    def claim_fits(self, owner: object) -> None:
        """Make ``owner`` the estimator whose fits the fit columns hold.

        A different owner (another estimator reading the same profiles)
        invalidates every stored fit first, so no estimator ever reads a fit
        of another family or MLE variant.
        """
        if self.fit_owner is not owner:
            self.fit_n_obs[:] = -1
            self.fit_owner = owner

    def set_fit(
        self, slot: int, n_obs: int, alpha: float, k_min: float, is_power_law: bool
    ) -> None:
        self.fit_n_obs[slot] = n_obs
        self.alpha[slot] = alpha
        self.k_min[slot] = k_min
        self.is_power_law[slot] = is_power_law


class WorkerRows(List["WorkerProfile"]):
    """Worker profiles plus their slots in one :class:`WorkerTable`.

    A plain list of the profiles (row ``i`` is ``self[i]``), so every caller
    that iterates or indexes workers keeps working; the columnar paths read
    ``table`` at ``slots[i]`` instead.  Treat it as read-only: the slot
    array does not follow list mutations.
    """

    def __init__(
        self, profiles: Iterable["WorkerProfile"], table: WorkerTable, slots: np.ndarray
    ) -> None:
        super().__init__(profiles)
        self.table = table
        self.slots = slots

    @staticmethod
    def of(workers: Sequence["WorkerProfile"]) -> "WorkerRows":
        """``workers`` itself when it already carries slots, else a packed copy."""
        if isinstance(workers, WorkerRows):
            return workers
        return WorkerTable.pack(workers)
