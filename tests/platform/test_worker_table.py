"""The WorkerTable mirror: columns always equal the profile fields.

Random sequences of registrations, departures, migrations between two
regions, assignments, completions, censored withdrawals, churn and direct
flag writes are applied to real profiles; after every step each region's
table must agree with its profiles, and ``available_workers()`` must equal
the listcomp it replaced, in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.table import CATEGORY_INDEX, WorkerRows, WorkerTable
from repro.model.task import TaskCategory
from repro.model.worker import WorkerProfile
from repro.platform.profiling import ProfilingComponent

N_WORKERS = 6
CATEGORIES = list(TaskCategory)[:3]

_op = st.one_of(
    st.tuples(st.just("register"), st.integers(0, N_WORKERS - 1), st.integers(0, 1)),
    st.tuples(st.just("deregister"), st.integers(0, N_WORKERS - 1)),
    st.tuples(st.just("migrate"), st.integers(0, N_WORKERS - 1)),
    st.tuples(st.just("assign"), st.integers(0, N_WORKERS - 1)),
    st.tuples(
        st.just("complete"),
        st.integers(0, N_WORKERS - 1),
        st.floats(0.5, 120.0),
        st.sampled_from(CATEGORIES),
        st.booleans(),
    ),
    st.tuples(
        st.just("censor"),
        st.integers(0, N_WORKERS - 1),
        st.floats(0.0, 120.0),
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("churn"), st.integers(0, N_WORKERS - 1)),
    st.tuples(st.just("set_available"), st.integers(0, N_WORKERS - 1), st.booleans()),
    st.tuples(st.just("dawdle_end"), st.integers(0, N_WORKERS - 1)),
)


def _home(regions, worker_id):
    for region in regions:
        if worker_id in region:
            return region
    return None


def _apply(op, regions, profiles, next_task):
    kind, worker_id = op[0], op[1]
    profile = profiles[worker_id]
    home = _home(regions, worker_id)
    if kind == "register":
        if home is None:
            regions[op[2]].register(profile)
    elif kind == "deregister":
        if home is not None:
            home.deregister(worker_id)
    elif kind == "migrate":
        # Coordinator split migration: leave one region, join the other.
        if home is not None:
            home.deregister(worker_id)
            profile.online = True
            regions[1 - regions.index(home)].register(profile)
    elif kind == "assign":
        if home is not None and profile.online and profile.available:
            home.record_assignment(worker_id, next(next_task))
    elif kind == "complete":
        if home is not None:
            _, _, duration, category, positive = op
            home.record_completion(worker_id, duration, category, positive)
    elif kind == "censor":
        if home is not None:
            _, _, elapsed, release, guarded = op
            task_id = profile.current_task if guarded else None
            home.record_withdrawal(worker_id, elapsed, release, task_id=task_id)
    elif kind == "churn":
        profile.online = not profile.online
    elif kind == "set_available":
        profile.available = op[2]
    elif kind == "dawdle_end":
        if home is not None:
            home.release_after_dawdle(worker_id)


def _assert_mirrors(table: WorkerTable, profile: WorkerProfile, slot: int) -> None:
    assert table.profiles[slot] is profile
    assert table.worker_id[slot] == profile.worker_id
    assert table.online[slot] == profile.online
    assert table.available[slot] == profile.available
    assert table.n_obs[slot] == len(profile.execution_times)
    assert table.assignment_count[slot] == profile.assignment_count
    expected = np.zeros(len(CATEGORY_INDEX))
    for category, accuracy in profile.accuracy_by_category.items():
        expected[CATEGORY_INDEX[category]] = accuracy
    assert np.array_equal(table.accuracy[slot], expected)


def _assert_region(region: ProfilingComponent) -> None:
    table = region.table
    for profile in region:
        assert profile._table is table
        assert table.registered[profile._slot]
        _assert_mirrors(table, profile, profile._slot)
    assert int(table.registered[: table.size].sum()) == len(region)
    listcomp = [p for p in region if p.online and p.available]
    rows = region.available_workers()
    assert isinstance(rows, WorkerRows)
    assert [id(p) for p in rows] == [id(p) for p in listcomp]
    assert [table.profiles[s] for s in rows.slots] == rows
    assert region.any_available() == bool(listcomp)
    assert table.free_count == len(listcomp)


@settings(max_examples=150, deadline=None)
@given(st.lists(_op, max_size=60))
def test_table_mirrors_profiles(ops):
    regions = [ProfilingComponent(), ProfilingComponent()]
    profiles = [WorkerProfile(worker_id=i) for i in range(N_WORKERS)]
    next_task = iter(range(10**6))
    for op in ops:
        _apply(op, regions, profiles, next_task)
        for region in regions:
            _assert_region(region)
    for profile in profiles:
        if _home(regions, profile.worker_id) is None:
            assert profile._table is None


@settings(max_examples=50, deadline=None)
@given(st.lists(_op, max_size=40))
def test_packed_table_reads_plain_profiles(ops):
    """Plain profile sequences are packed once, without rebinding them."""
    regions = [ProfilingComponent(), ProfilingComponent()]
    profiles = [WorkerProfile(worker_id=i) for i in range(N_WORKERS)]
    next_task = iter(range(10**6))
    for op in ops:
        _apply(op, regions, profiles, next_task)
    bound = [p._table for p in profiles]
    rows = WorkerRows.of(profiles)
    assert list(rows) == profiles
    for i, profile in enumerate(profiles):
        _assert_mirrors(rows.table, profile, int(rows.slots[i]))
    assert [p._table for p in profiles] == bound
    assert WorkerRows.of(rows) is rows


def test_double_registration_is_refused():
    first, second = ProfilingComponent(), ProfilingComponent()
    profile = WorkerProfile(worker_id=1)
    first.register(profile)
    with pytest.raises(ValueError, match="already registered"):
        second.register(profile)
    assert 1 not in second
    assert second.table.size == 0


def test_table_grows_past_its_capacity():
    region = ProfilingComponent()
    profiles = [WorkerProfile(worker_id=i) for i in range(200)]
    for profile in profiles:
        region.register(profile)
    profiles[150].record_completion(3.0, TaskCategory.GENERIC, True)
    assert region.table.size == 200
    _assert_region(region)
