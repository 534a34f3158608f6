"""Shared worked examples, strategies, and definition-literal oracles."""

from __future__ import annotations

import random

from hypothesis import strategies as st

import bstbounds as bb
from bstbounds.geometry import Point, PointSet

# Trace with a repeated key; its alternation value for the five-leaf
# tree ((1 (2 3)) (4 5)) is 11.
SIX_TRACE = [4, 1, 3, 5, 4, 2]
SIX_TREE_TEXT = "((1 (2 3)) (4 5))"
SIX_ALT = 11

# Eleven-access trace whose point (4, 9) has a five-point funnel that
# alternates sides three times.
FUNNEL_TRACE = [4, 6, 3, 5, 1, 7, 2, 1, 4, 6, 3]
FUNNEL_POINT = (4, 9)
FUNNEL_LEFT = [(3, 3), (2, 7), (1, 8)]
FUNNEL_RIGHT = [(5, 4), (7, 6)]

# Smallest set whose funnel value changes under time reversal: 3 vs 2.
TRIO = PointSet([(1, 1), (3, 2), (2, 3)])

# One valid z-rectangle; the same shape with a blocking interior point;
# four points whose keys appear in the wrong relative order.
ZR_VALID = PointSet([(3, 1), (1, 2), (4, 3), (2, 4)])
ZR_VALID_ROLES = ((2, 4), (1, 2), (3, 1), (4, 3))
ZR_BLOCKED = PointSet([(6, 2), (2, 4), (8, 6), (4, 8), (5, 5)])
ZR_BLOCKED_ROLES = ((4, 8), (2, 4), (6, 2), (8, 6))
ZR_MISORDERED = PointSet([(2, 1), (1, 2), (4, 3), (3, 4)])

# Seven-access sweep example with known added sets, type labels, and
# the z-rectangle charged by the only type-c point.
SWEEP_SET = PointSet([(4, 0), (0, 1), (2, 2), (6, 3), (1, 4), (3, 5), (5, 6)])
SWEEP_UP_ADDED = {(0, 2), (2, 3), (4, 3), (0, 4), (1, 5), (2, 5), (3, 6), (4, 6)}
SWEEP_DOWN_ADDED = {(4, 1), (4, 2), (2, 4), (6, 4), (4, 5), (6, 5), (6, 6)}
SWEEP_LABELS = {
    (0, 2): "a",
    (2, 3): "c",
    (4, 3): "a",
    (0, 4): "ab",
    (1, 5): "b",
    (2, 5): "ab",
    (3, 6): "b",
    (4, 6): "ab",
}
SWEEP_ZRECT = bb.ZRect(top=(3, 5), left=(2, 2), bottom=(4, 0), right=(6, 3))

WORKED_EXAMPLES = [
    bb.from_trace(SIX_TRACE),
    bb.from_trace(FUNNEL_TRACE),
    TRIO,
    ZR_VALID,
    ZR_BLOCKED,
    ZR_MISORDERED,
    SWEEP_SET,
]


def perm_pointset(n: int, seed: int) -> PointSet:
    return bb.from_trace(bb.random_permutation(n, seed))


def seeded_perms(count: int, max_n: int, seed: int, min_n: int = 1):
    """Deterministic stream of random-permutation point sets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        yield perm_pointset(n, rng.randrange(2**63))


def rect_points(P: PointSet, a: Point, b: Point) -> set[Point]:
    """All points of P inside the closed rectangle spanned by a and b."""
    x_lo, x_hi = min(a[0], b[0]), max(a[0], b[0])
    y_lo, y_hi = min(a[1], b[1]), max(a[1], b[1])
    return {(x, y) for x, y in P if x_lo <= x <= x_hi and y_lo <= y <= y_hi}


def funnel_brute(P: PointSet, p: Point) -> tuple[list[Point], list[Point]]:
    """Definition-literal funnel: test every candidate's rectangle."""
    left = [
        q
        for q in P.by_y
        if q[1] < p[1] and q[0] < p[0] and rect_points(P, p, q) == {p, q}
    ]
    right = [
        q
        for q in P.by_y
        if q[1] < p[1] and q[0] > p[0] and rect_points(P, p, q) == {p, q}
    ]
    return left, right


coords = st.integers(-50, 50)


@st.composite
def point_sets(
    draw, max_size: int = 12, distinct_x: bool = False, key_span: int = 50
) -> PointSet:
    """Random point sets with distinct y; optionally distinct x too.

    x is drawn from [-key_span, key_span]; a small span makes repeated
    x common.
    """
    ys = draw(st.lists(coords, unique=True, max_size=max_size))
    xs = draw(
        st.lists(
            st.integers(-key_span, key_span),
            unique=distinct_x,
            min_size=len(ys),
            max_size=len(ys),
        )
    )
    return PointSet(zip(xs, ys))


def traces(max_keys: int = 6, max_size: int = 40):
    """Random traces over few keys, so that keys repeat."""
    return st.lists(st.integers(1, max_keys), max_size=max_size)


@st.composite
def disjoint_int_sets(draw, max_size: int = 20) -> tuple[set[int], set[int]]:
    pool = draw(st.lists(st.integers(-100, 100), unique=True, max_size=max_size))
    mask = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    left = {v for v, lm in zip(pool, mask) if lm}
    return left, set(pool) - left


def zrects_forced_roles(P: PointSet) -> list:
    """Cubic z-rectangle scan, kept as an oracle for ``zrects``.

    For a candidate (top, bottom) pair the other two roles are forced:
    the left point must be the rightmost point left of the top within
    the open y-band, and the right point the leftmost point right of
    the bottom.  Each forced quadruple is then checked against the full
    definition.  Returns the witnesses, sorted.
    """
    pts = P.by_y
    found = []
    for ti in range(len(pts)):  # top point
        px, py = pts[ti]
        for tr in range(ti):  # bottom point, strictly earlier in time
            rx, ry = pts[tr]
            if rx <= px:
                continue
            qx = qy = sx = sy = None
            for tb in range(tr + 1, ti):
                bx, by = pts[tb]
                if bx < px and (qx is None or bx > qx):
                    qx, qy = bx, by
                if bx > rx and (sx is None or bx < sx):
                    sx, sy = bx, by
            if qx is None or sx is None:
                continue
            if not (qx < px < rx < sx and ry < qy < sy < py):
                continue
            band_hits = sum(1 for tb in range(tr + 1, ti) if qx <= pts[tb][0] <= sx)
            if band_hits == 2:  # exactly the forced left and right points
                found.append(bb.ZRect((px, py), (qx, qy), (rx, ry), (sx, sy)))
    found.sort()
    return found
