import random
from collections import Counter

import pytest
from hypothesis import given, settings

from bstbounds.funnel import funnel_bound_fast, move_to_root
from bstbounds.geometry import PointSet, from_trace, hflip, rotate90
from bstbounds.zrect import zrect_counts, zrects

from conftest import (
    SWEEP_SET,
    SWEEP_ZRECT,
    ZR_BLOCKED,
    ZR_BLOCKED_ROLES,
    ZR_MISORDERED,
    ZR_VALID,
    ZR_VALID_ROLES,
    ZRect,
    is_zrect,
    point_sets,
    seeded_perms,
    zrects_brute,
    zrects_forced_roles,
)


def _runs(P: PointSet) -> list[int]:
    runs: list[int] = []
    move_to_root(P, runs)
    return runs


def _per_access(P: PointSet) -> list[int]:
    return zrect_counts(P.xs, _runs(P))


def _oracle_per_access(P: PointSet) -> list[int]:
    tops = Counter(w.top for w in zrects_forced_roles(P))
    assert tops.keys() <= set(P)
    return [tops[p] for p in P]


def _images(P: PointSet) -> tuple[PointSet, ...]:
    """P, its two rotations by 90 and 180 degrees, and its key mirror."""
    once = rotate90(P)
    return P, once, rotate90(once), hflip(P)


def _sparse_sets(count: int, max_n: int, seed: int):
    """Seeded point sets with distinct, sparse and partly negative
    coordinates."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        xs = rng.sample(range(-10 * max_n, 10 * max_n), n)
        ys = rng.sample(range(-10 * max_n, 10 * max_n), n)
        yield PointSet(zip(xs, ys))


def test_is_zrect_on_the_three_panels():
    assert is_zrect(ZR_VALID, *ZR_VALID_ROLES)
    assert not is_zrect(ZR_BLOCKED, *ZR_BLOCKED_ROLES)
    pts = sorted(ZR_MISORDERED.by_y)
    for p in pts:
        for q in pts:
            for r in pts:
                for s in pts:
                    if len({p, q, r, s}) == 4:
                        assert not is_zrect(ZR_MISORDERED, p, q, r, s)


def test_is_zrect_requires_membership():
    with pytest.raises(ValueError, match="not in"):
        is_zrect(ZR_VALID, (9, 9), *ZR_VALID_ROLES[1:])


def test_counts_on_the_three_panels():
    assert zrects(ZR_VALID).count == 1
    assert zrects(ZR_BLOCKED).count == 0
    assert zrects(ZR_MISORDERED).count == 0
    assert zrects_brute(ZR_VALID) == 1
    assert zrects_brute(ZR_BLOCKED) == 0
    assert zrects_brute(ZR_MISORDERED) == 0


def test_valid_panel_witness_roles():
    assert zrects_forced_roles(ZR_VALID) == [ZRect(*ZR_VALID_ROLES)]
    top = ZR_VALID_ROLES[0]
    assert _per_access(ZR_VALID) == [int(p == top) for p in ZR_VALID]


def test_small_sets_have_no_zrects():
    for trace in ([], [1], [2, 1], [2, 3, 1]):
        P = from_trace(trace)
        assert zrects(P).count == 0
        assert zrects_brute(P) == 0


def test_sweep_example_witness():
    result = zrects(SWEEP_SET)
    assert result.count >= 1
    assert SWEEP_ZRECT in zrects_forced_roles(SWEEP_SET)
    assert _per_access(SWEEP_SET) == _oracle_per_access(SWEEP_SET)
    assert result.count == zrects_brute(SWEEP_SET)


def test_refusals_on_degenerate_coordinates():
    dup_x = from_trace([1, 2, 1])
    with pytest.raises(ValueError, match="distinct x"):
        zrects(dup_x)
    with pytest.raises(ValueError, match="distinct x"):
        zrects_brute(dup_x)
    with pytest.raises(ValueError, match="distinct x"):
        is_zrect(dup_x, (1, 1), (2, 2), (1, 3), (1, 3))


def test_brute_cap():
    P = from_trace(range(1, 14))
    with pytest.raises(ValueError, match="cap"):
        zrects_brute(P)
    assert zrects_brute(P, max_points=13) == 0


def test_count_matches_brute_on_random_permutations():
    for P in seeded_perms(150, 10, seed=404):
        assert zrects(P).count == zrects_brute(P)


@given(point_sets(max_size=9, distinct_x=True))
@settings(max_examples=60)
def test_rotation_invariance_with_witness_bijection(P):
    rotated = rotate90(P)
    assert zrects(rotated).count == zrects(P).count

    def rot(p):
        return (-p[1], p[0])

    mapped = {
        ZRect(rot(w.right), rot(w.top), rot(w.left), rot(w.bottom))
        for w in zrects_forced_roles(P)
    }
    assert mapped == set(zrects_forced_roles(rotated))


@given(point_sets(max_size=12, distinct_x=True))
@settings(max_examples=60)
def test_every_witness_satisfies_the_definition(P):
    found = zrects_forced_roles(P)
    for w in found:
        assert is_zrect(P, w.top, w.left, w.bottom, w.right)
    assert len(set(found)) == len(found) == zrects(P).count == zrects_brute(P)
    for Q in _images(P):
        assert _per_access(Q) == _oracle_per_access(Q)


def test_per_top_counts_match_forced_role_oracle():
    # Up to m=200 the funnel paths hold many R L+ R patterns.
    sets = [
        *seeded_perms(30, 200, seed=606, min_n=100),
        *seeded_perms(200, 40, seed=607),
        *_sparse_sets(200, 30, seed=608),
    ]
    for P in sets:
        for Q in _images(P):
            assert _per_access(Q) == _oracle_per_access(Q), Q


def _assert_funnel_within_3m_of_twice_zrects(P: PointSet) -> None:
    m = len(P)
    runs = _runs(P)
    for k, z in zip(runs, zrect_counts(P.xs, runs)):
        assert 0 <= k - 2 * z <= 3
    F, Z = sum(runs), zrects(P).count
    assert 2 * Z <= F <= 2 * Z + 3 * m
    # Z is rotation-invariant, so the funnel moves by at most 3m.
    rotated = P
    for _ in range(3):
        rotated = rotate90(rotated)
        assert zrects(rotated).count == Z
        assert abs(funnel_bound_fast(rotated) - F) <= 3 * m


@given(point_sets(max_size=16, distinct_x=True))
@settings(max_examples=100)
def test_funnel_rotation_within_3m(P):
    _assert_funnel_within_3m_of_twice_zrects(P)


def test_funnel_rotation_within_3m_on_seeded_permutations():
    for P in seeded_perms(40, 300, seed=609):
        _assert_funnel_within_3m_of_twice_zrects(P)


def test_sandwich_inequalities_on_random_permutations():
    from bstbounds.funnel import f_value, funnel_bound

    for P in seeded_perms(100, 12, seed=505):
        zr = zrects(P).count
        assert funnel_bound(P) >= 2 * zr
        assert zr >= sum(max(0, f_value(P, p) // 2 - 1) for p in P)
