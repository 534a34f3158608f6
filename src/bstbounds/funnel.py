"""Funnel decomposition of points and the Funnel lower bound.

The funnel of a point p is the set of points below p that span an empty
axis-aligned rectangle with p, split into a left part (smaller x) and a
right part (larger x).  A point's contribution is the number of maximal
runs when its funnel is read in time order and labeled by side; the
bound sums the contributions.

``move_to_root`` is the one production kernel.  It replays the points
in time order through a tree that keeps each key's latest access, with
more recent accesses as ancestors, and brings every access to the root.
The root-to-key path of an access is then its funnel in descending
time, so its direction runs are the point's contribution and its
``R L+ R`` patterns are the z-rectangles with that point on top.  An
access whose key is already in the tree stops the walk there, since
the earlier access blocks both sides; that node is spliced out, its
left subtree going to the left part and its right subtree to the right
part.  ``funnel_bound_fast`` and ``zrect.zrects`` are thin wrappers
over it.

``funnel_bound`` is the definition scan, one backward walk per point;
it stays as the oracle and as the independent computation that
``verify`` compares against the z-rectangle count.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .geometry import Point, PointSet, require_distinct_y
from .mixing import mix_value


class FunnelView(NamedTuple):
    """Left/right funnel of one point, each ordered by ascending y."""

    left: list[Point]
    right: list[Point]


def funnel_of(P: PointSet, p: Point) -> FunnelView:
    """Exact left and right funnel of p within P.

    One descending-y scan below p suffices: a point enters the left
    funnel exactly when it raises the running maximum x seen on p's left
    (symmetrically with the minimum on the right), and a point sharing
    p's x blocks everything below it on both sides.
    """
    require_distinct_y(P, "funnel_of")
    if p not in P:
        raise ValueError(f"funnel_of: {p} not in the point set")
    px, py = p
    left: list[Point] = []
    right: list[Point] = []
    hi: int | None = None
    lo: int | None = None
    for q in reversed(P.by_y):
        qx, qy = q
        if qy >= py:
            continue
        if qx < px:
            if hi is None or qx > hi:
                hi = qx
                left.append(q)
                if hi >= px - 1 and lo is not None and lo <= px + 1:
                    break
        elif qx > px:
            if lo is None or qx < lo:
                lo = qx
                right.append(q)
                if lo <= px + 1 and hi is not None and hi >= px - 1:
                    break
        else:
            break
    left.reverse()
    right.reverse()
    return FunnelView(left, right)


def f_value(P: PointSet, p: Point) -> int:
    """Side-alternation count of p's funnel in time order."""
    view = funnel_of(P, p)
    return mix_value([y for _, y in view.left], [y for _, y in view.right])


def funnel_bound(P: PointSet) -> int:
    """Sum of per-point funnel alternation counts over all of P.

    Quadratic reference scan; ``funnel_bound_fast`` is the fast path.
    """
    require_distinct_y(P, "funnel_bound")
    xs = [x for x, _ in P.by_y]
    total = 0
    for t in range(len(xs)):
        px = xs[t]
        hi_open = True  # an integer strictly between hi and px still exists
        lo_open = True
        hi = None
        lo = None
        runs = 0
        last = 0
        for u in range(t - 1, -1, -1):
            qx = xs[u]
            if qx < px:
                if hi is None or qx > hi:
                    hi = qx
                    if last != 1:
                        runs += 1
                        last = 1
                    if qx == px - 1:
                        hi_open = False
                        if not lo_open:
                            break
            elif qx > px:
                if lo is None or qx < lo:
                    lo = qx
                    if last != 2:
                        runs += 1
                        last = 2
                    if qx == px + 1:
                        lo_open = False
                        if not hi_open:
                            break
            else:
                break  # same key: blocks both sides outright
        total += runs
    return total


class _Node:
    __slots__ = ("key", "y", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.y = 0  # time of the key's latest access
        self.left: _Node | None = None
        self.right: _Node | None = None


ZRectRoles = tuple[Point, Point, Point, Point]  # (top, left, bottom, right)


def move_to_root(
    points: Iterable[Point], zrects: list[ZRectRoles] | None = None
) -> int:
    """Funnel bound of time-ordered points, and optionally their z-rectangles.

    Each key lives in one node holding its latest access; ancestors are
    more recent accesses, so the root-to-key path of an access p lists
    its funnel in descending time, and a step to the left marks a point
    right of p.  The walk counts direction runs and unzips the tree into
    p's left and right subtrees in the same pass.  On an equal key the
    walk stops, because that key blocks both sides: its node is spliced
    out, its left subtree hung on the left tail and its right subtree on
    the right tail, and it becomes the new root.

    With ``zrects`` given (distinct keys), every left-run with a
    right-run on both sides, ``R L+ R`` on the path, appends one
    z-rectangle: top p, left the last L node of the run, bottom the R
    node ending it, right the last R node before it.
    """
    root: _Node | None = None
    total = 0
    for x, y in points:
        node = root
        l_root = r_root = l_tail = r_tail = None
        runs = 0
        while node is not None:
            k = node.key
            if x < k:  # right-side funnel point: a right-run starts
                runs += 1
                if zrects is not None and l_tail is not None and r_tail is not None:
                    left = (l_tail.key, l_tail.y)
                    zrects.append(((x, y), left, (k, node.y), (r_tail.key, r_tail.y)))
                if r_tail is None:
                    r_root = node
                else:
                    r_tail.left = node
                r_tail = node
                node = node.left
                while node is not None and x < node.key:
                    r_tail.left = node
                    r_tail = node
                    node = node.left
            elif x > k:  # left-side funnel point: a left-run starts
                runs += 1
                if l_tail is None:
                    l_root = node
                else:
                    l_tail.right = node
                l_tail = node
                node = node.right
                while node is not None and x > node.key:
                    l_tail.right = node
                    l_tail = node
                    node = node.right
            else:  # earlier access of the same key: splice it out
                if l_tail is None:
                    l_root = node.left
                else:
                    l_tail.right = node.left
                if r_tail is None:
                    r_root = node.right
                else:
                    r_tail.left = node.right
                break
        else:
            if l_tail is not None:
                l_tail.right = None
            if r_tail is not None:
                r_tail.left = None
            node = _Node(x)
        node.y = y
        node.left = l_root
        node.right = r_root
        root = node
        total += runs
    return total


def funnel_bound_fast(P: PointSet) -> int:
    """Funnel bound by one move-to-root replay; the production path.

    Takes any point set with distinct y, repeated keys included, and is
    checked differentially against ``funnel_bound``.
    """
    require_distinct_y(P, "funnel_bound_fast")
    return move_to_root(P.by_y)
