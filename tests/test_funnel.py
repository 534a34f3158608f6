import random

import pytest
from hypothesis import given, settings

import bstbounds as bb
from bstbounds.funnel import (
    f_value,
    funnel_bound,
    funnel_bound_fast,
    funnel_of,
    move_to_root,
)
from bstbounds.geometry import PointSet, from_trace, hflip, rotate90, time_reverse

from conftest import (
    FUNNEL_LEFT,
    FUNNEL_POINT,
    FUNNEL_RIGHT,
    FUNNEL_TRACE,
    TRIO,
    funnel_brute,
    point_sets,
    seeded_perms,
    traces,
)


def test_funnel_worked_example():
    P = from_trace(FUNNEL_TRACE)
    view = funnel_of(P, FUNNEL_POINT)
    assert view.left == FUNNEL_LEFT
    assert view.right == FUNNEL_RIGHT
    assert len(view.left) + len(view.right) == 5
    assert f_value(P, FUNNEL_POINT) == 3


def test_lowest_point_has_empty_funnel():
    P = from_trace([3, 1, 2])
    assert funnel_of(P, (3, 1)) == ([], [])
    assert f_value(P, (3, 1)) == 0


def test_three_point_funnels():
    assert funnel_of(TRIO, (2, 3)) == ([(1, 1)], [(3, 2)])
    assert [f_value(TRIO, p) for p in TRIO.by_y] == [0, 1, 2]


def test_funnel_of_requires_membership():
    # (2, 2) and (3, 3) share a time with a point of TRIO but not its key.
    for missing in ((9, 9), (0, 0), (2, 2), (3, 3), (2, 4)):
        with pytest.raises(ValueError, match="not in"):
            funnel_of(TRIO, missing)


def test_funnel_bound_examples():
    assert funnel_bound(TRIO) == 3
    assert funnel_bound(time_reverse(TRIO)) == 2
    assert funnel_bound(PointSet([(5, 5)])) == 0
    for n in (2, 5, 20):
        assert funnel_bound(from_trace(range(1, n + 1))) == n - 1


@given(point_sets())
def test_funnel_matches_definition_literal_oracle(P):
    for p in P:
        left, right = funnel_brute(P, p)
        view = funnel_of(P, p)
        assert view.left == left
        assert view.right == right


@given(point_sets())
def test_funnel_bound_is_sum_of_point_values(P):
    assert funnel_bound(P) == sum(f_value(P, p) for p in P)


@given(point_sets())
def test_staircase_fronts(P):
    # Left funnel: x strictly decreases as y increases; mirrored on the
    # right.  Both sides narrow toward the apex from below.
    for p in P:
        view = funnel_of(P, p)
        left_x = [x for x, _ in view.left]
        right_x = [x for x, _ in view.right]
        assert all(a > b for a, b in zip(left_x, left_x[1:]))
        assert all(a < b for a, b in zip(right_x, right_x[1:]))


@given(point_sets())
def test_hflip_preserves_point_contributions(P):
    flipped = hflip(P)
    for x, y in P:
        assert f_value(P, (x, y)) == f_value(flipped, (-x, y))
    assert funnel_bound(P) == funnel_bound(flipped)


def test_concatenation_is_superadditive():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 12)
        first = [rng.randint(1, n) for _ in range(rng.randint(0, 15))]
        second = [rng.randint(1, n) for _ in range(rng.randint(0, 15))]
        whole = funnel_bound(from_trace(first + second))
        assert whole >= funnel_bound(from_trace(first)) + funnel_bound(
            from_trace(second)
        )


@given(point_sets(max_size=10))
@settings(max_examples=50)
def test_order_isomorphism_invariance(P):
    # Only the relative order of keys and of times matters.
    xs = sorted({x for x, _ in P})
    ys = sorted({y for _, y in P})
    x_map = {v: 3 * i - 40 for i, v in enumerate(xs)}
    y_map = {v: 7 * i + 2 for i, v in enumerate(ys)}
    Q = PointSet((x_map[x], y_map[y]) for x, y in P)
    assert funnel_bound(Q) == funnel_bound(P)


def test_fast_mode_examples():
    assert funnel_bound_fast(TRIO) == 3
    assert funnel_bound_fast(from_trace(range(1, 31))) == 29
    assert funnel_bound_fast(PointSet()) == 0


def test_fast_mode_accepts_repeated_keys():
    P = from_trace([1, 2, 1])
    assert funnel_bound_fast(P) == funnel_bound(P) == 2
    sep = from_trace(bb.separation_sequence(bb.SeparationParams(2)))
    assert not sep.has_distinct_x
    assert funnel_bound_fast(sep) == funnel_bound(sep)


def test_fast_mode_matches_reference():
    for P in seeded_perms(150, 60, seed=301):
        assert funnel_bound_fast(P) == funnel_bound(P)
        Q = rotate90(P)
        assert funnel_bound_fast(Q) == funnel_bound(Q)
    rng = random.Random(302)
    for _ in range(200):  # repeated keys, from few to nearly all distinct
        n = rng.randint(1, 80)
        keys = rng.randint(1, n)
        P = from_trace([rng.randint(1, keys) for _ in range(n)])
        assert funnel_bound_fast(P) == funnel_bound(P)


@given(traces())
def test_fast_mode_matches_reference_on_repeated_keys(trace):
    P = from_trace(trace)
    assert funnel_bound_fast(P) == funnel_bound(P)


@given(point_sets(distinct_x=True))
def test_fast_mode_matches_reference_on_rotated_sets(P):
    Q = rotate90(P)
    assert funnel_bound_fast(Q) == funnel_bound(Q)


@given(point_sets(key_span=4))
def test_fast_mode_matches_reference_on_repeated_x(P):
    assert funnel_bound_fast(P) == funnel_bound(P)


def _assert_kernel_runs_are_point_values(P):
    runs: list[int] = []
    total = move_to_root(P, runs_out=runs)
    assert runs == [f_value(P, p) for p in P.by_y]
    assert total == sum(runs)


def test_kernel_runs_worked_examples():
    runs: list[int] = []
    move_to_root(from_trace(FUNNEL_TRACE), runs_out=runs)
    assert runs[FUNNEL_POINT[1] - 1] == 3
    runs.clear()
    move_to_root(TRIO, runs_out=runs)
    assert runs == [0, 1, 2]


@given(traces())
def test_kernel_runs_match_point_values_on_repeated_keys(trace):
    _assert_kernel_runs_are_point_values(from_trace(trace))


@given(point_sets(key_span=4))
def test_kernel_runs_match_point_values_on_point_sets(P):
    _assert_kernel_runs_are_point_values(P)


@given(point_sets(distinct_x=True))
def test_kernel_runs_match_point_values_on_rotated_and_flipped_sets(P):
    _assert_kernel_runs_are_point_values(rotate90(P))
    _assert_kernel_runs_are_point_values(hflip(P))


def test_funnel_requires_distinct_y():
    with pytest.raises(ValueError, match="distinct y"):
        PointSet([(1, 1), (2, 1)])
