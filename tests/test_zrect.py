import pytest
from hypothesis import given, settings

import bstbounds as bb
from bstbounds.geometry import PointSet, from_trace, rotate90
from bstbounds.zrect import ZRect, is_zrect, zrects, zrects_brute

from conftest import (
    SWEEP_SET,
    SWEEP_ZRECT,
    ZR_BLOCKED,
    ZR_BLOCKED_ROLES,
    ZR_MISORDERED,
    ZR_VALID,
    ZR_VALID_ROLES,
    point_sets,
    seeded_perms,
    zrects_forced_roles,
)


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
    (witness,) = zrects(ZR_VALID).witnesses
    assert witness == ZRect(*ZR_VALID_ROLES)


def test_small_sets_have_no_zrects():
    for trace in ([], [1], [2, 1], [2, 3, 1]):
        P = from_trace(trace)
        assert zrects(P).count == 0
        assert zrects_brute(P) == 0


def test_sweep_example_witness():
    result = zrects(SWEEP_SET)
    assert result.count >= 1
    assert SWEEP_ZRECT in result.witnesses
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
    result = zrects(P)
    rotated = rotate90(P)
    rot_result = zrects(rotated)
    assert rot_result.count == result.count

    def rot(p):
        return (-p[1], p[0])

    mapped = {
        ZRect(rot(w.right), rot(w.top), rot(w.left), rot(w.bottom))
        for w in result.witnesses
    }
    assert mapped == set(rot_result.witnesses)


@given(point_sets(max_size=12, distinct_x=True))
@settings(max_examples=60)
def test_every_witness_satisfies_the_definition(P):
    result = zrects(P)
    for w in result.witnesses:
        assert is_zrect(P, w.top, w.left, w.bottom, w.right)
    assert len(set(result.witnesses)) == len(result.witnesses) == result.count
    assert result.count == zrects_brute(P)


def test_witnesses_match_forced_role_oracle():
    # Up to m=200 the funnel paths hold many R L+ R patterns.
    for P in seeded_perms(30, 200, seed=606, min_n=100):
        assert zrects(P).witnesses == zrects_forced_roles(P)
    for P in seeded_perms(200, 40, seed=607):
        assert zrects(P).witnesses == zrects_forced_roles(P)


def test_sandwich_inequalities_on_random_permutations():
    from bstbounds.funnel import f_value, funnel_bound

    for P in seeded_perms(100, 12, seed=505):
        zr = zrects(P).count
        assert funnel_bound(P) >= 2 * zr
        assert zr >= sum(max(0, f_value(P, p) // 2 - 1) for p in P)
