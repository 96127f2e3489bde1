import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbpinn.scheduling import (active_set, alternating_schedule,
                               colored_schedule, explicit_schedule,
                               parallel_schedule)


def test_parallel_all_active_every_round():
    sched = parallel_schedule(5)
    for r in range(7):
        assert active_set(sched, r).active == frozenset(range(1, 6))


def test_alternating_cycles_one_at_a_time():
    sched = alternating_schedule(4)
    seq = [active_set(sched, r).active for r in range(6)]
    assert seq == [frozenset({1}), frozenset({2}), frozenset({3}),
                   frozenset({4}), frozenset({1}), frozenset({2})]


def test_colored_groups_cycle():
    sched = colored_schedule(4, [[1, 3], [2, 4]])
    assert active_set(sched, 0).active == frozenset({1, 3})
    assert active_set(sched, 1).active == frozenset({2, 4})
    assert active_set(sched, 2).active == frozenset({1, 3})


def test_colored_validation():
    with pytest.raises(ValueError):
        colored_schedule(4, [])
    with pytest.raises(ValueError):
        colored_schedule(4, [[1, 2], []])
    with pytest.raises(ValueError):
        colored_schedule(4, [[1, 2], [2, 3, 4]])       # overlap
    with pytest.raises(ValueError):
        colored_schedule(4, [[1, 2], [4]])             # 3 uncovered
    with pytest.raises(ValueError):
        colored_schedule(4, [[1, 2], [3, 5]])          # out of range


def test_explicit_allows_partial_cover_and_repeats():
    sched = explicit_schedule(3, [[1], [1, 2], [1]])
    assert active_set(sched, 0).active == frozenset({1})
    assert active_set(sched, 1).active == frozenset({1, 2})
    assert active_set(sched, 4).active == frozenset({1, 2})
    with pytest.raises(ValueError):
        explicit_schedule(3, [])
    with pytest.raises(ValueError):
        explicit_schedule(3, [[0]])


@pytest.mark.parametrize("index", [1.5, 2.0, True, "2", np.float64(2.0), None])
def test_a_group_index_that_is_not_an_integer_is_rejected(index):
    # int() would have turned 1.5 and True into 1 and "2" into 2
    for build in (lambda: explicit_schedule(4, [[index]]),
                  lambda: colored_schedule(4, [[1, 3, index], [4]])):
        with pytest.raises(ValueError, match="is not an integer"):
            build()


def test_numpy_integer_indices_are_accepted():
    sched = explicit_schedule(np.int64(3), [np.arange(1, 4)])
    assert active_set(sched, 0).active == frozenset({1, 2, 3})
    assert all(type(j) is int for j in active_set(sched, 0).active)


def test_active_set_round_validation():
    sched = parallel_schedule(2)
    with pytest.raises(ValueError):
        active_set(sched, -1)
    with pytest.raises(ValueError):
        parallel_schedule(0)


@given(n=st.integers(1, 10), r=st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_alternating_visits_everyone_within_one_cycle(n, r):
    sched = alternating_schedule(n)
    window = set()
    for k in range(n):
        window |= active_set(sched, r + k).active
    assert window == set(range(1, n + 1))
    assert len(active_set(sched, r).active) == 1


@given(n=st.integers(1, 8), r=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_active_sets_stay_in_range(n, r):
    for sched in (parallel_schedule(n), alternating_schedule(n),
                  explicit_schedule(n, [[1], list(range(1, n + 1))])):
        act = active_set(sched, r).active
        assert act
        assert all(1 <= j <= n for j in act)
