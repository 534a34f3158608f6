"""Recognition and counting of z-rectangles.

A z-rectangle is a quadruple of points (top, left, bottom, right) whose
keys appear in relative order 3,1,4,2 over time and whose spanned
axis-aligned box contains no other point of the set.  Counting them
requires distinct x- and y-coordinates; on degenerate inputs the count
is meaningless, so such inputs are refused.

``zrects`` reads them off the funnel walk of ``funnel.move_to_root``.
Label each point of the top's funnel R or L by side and read it in
descending time.  Every ``R L+ R`` pattern is exactly one z-rectangle:
left is the last L of the run (the closest to the top in x), bottom is
the R that ends the run, and right is the last R before the run.
Conversely, the left, bottom and right of a z-rectangle all lie in
the top's funnel, and a funnel point between them in time would lie
inside the box.  ``is_zrect`` and ``zrects_brute`` check the definition literally and
serve as oracles.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .funnel import ZRectRoles, move_to_root
from .geometry import Point, PointSet, require_distinct_xy


class ZRect(NamedTuple):
    top: Point
    left: Point
    bottom: Point
    right: Point


class ZRectResult(NamedTuple):
    count: int
    witnesses: list[ZRect]


def is_zrect(P: PointSet, p: Point, q: Point, r: Point, s: Point) -> bool:
    """Check the three z-rectangle conditions for roles (top p, left q,
    bottom r, right s)."""
    require_distinct_xy(P, "is_zrect")
    for pt in (p, q, r, s):
        if pt not in P:
            raise ValueError(f"is_zrect: {pt} not in the point set")
    if not (q[0] < p[0] < r[0] < s[0]):
        return False
    if not (r[1] < q[1] < s[1] < p[1]):
        return False
    inside = sum(
        1 for x, y in P if q[0] <= x <= s[0] and r[1] <= y <= p[1]
    )
    return inside == 4


def zrects(P: PointSet) -> ZRectResult:
    """Count all z-rectangles and return them, canonically sorted.

    Read off the move-to-root funnel walk: the z-rectangles with top p
    are the left-runs with a right-run on both sides in p's funnel,
    taken in descending time.
    """
    require_distinct_xy(P, "zrects")
    found: list[ZRectRoles] = []
    move_to_root(P.by_y, found)
    found.sort()
    return ZRectResult(len(found), [ZRect(*w) for w in found])


def zrects_brute(P: PointSet, max_points: int = 12) -> int:
    """Oracle count: test every ordered quadruple with a containment scan."""
    require_distinct_xy(P, "zrects_brute")
    if len(P) > max_points:
        raise ValueError(
            f"zrects_brute: {len(P)} points exceeds the cap of {max_points}"
        )
    pts = list(P)
    count = 0
    for p, q, r, s in permutations(pts, 4):
        if not (q[0] < p[0] < r[0] < s[0]):
            continue
        if not (r[1] < q[1] < s[1] < p[1]):
            continue
        inside = sum(
            1 for x, y in pts if q[0] <= x <= s[0] and r[1] <= y <= p[1]
        )
        if inside == 4:
            count += 1
    return count
