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
time, so its direction runs are the point's contribution.  The kernel
counts runs only; ``zrect`` reads the z-rectangles off those runs.  An
access whose key is already in the tree stops the walk there, since
the earlier access blocks both sides; that node is spliced out, its
left subtree going to the left part and its right subtree to the right
part.  ``funnel_bound_fast`` and ``zrect.zrects`` are thin wrappers
over it.  The kernel takes the point set and folds it by its own repeat
plan, so a block repeated r times is walked twice: on the full
separation sequence (129 blocks of 8 keys, 256 times each) that is
2,064 of 264,192 accesses.

``funnel_of`` is the one definition scan, a backward walk from one
point; the value of its view, ``f_value``, and ``funnel_bound``, their
sum, are the oracle, and ``verify`` sums the views itself for its one
independent funnel value.  Every other funnel value, per point or
summed, comes from the kernel.  Only ``FunnelView.value`` needs
``mixing``, and imports it itself, so the kernel loads no oracle code.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .geometry import Point, PointSet, require_distinct_y, stretches


class FunnelView(NamedTuple):
    """Left/right funnel of one point, each ordered by ascending y."""

    left: list[Point]
    right: list[Point]

    @property
    def value(self) -> int:
        """Side-alternation count of the funnel in time order."""
        from .mixing import mix_value  # an oracle's import, off the kernels' load path

        return mix_value([y for _, y in self.left], [y for _, y in self.right])


def funnel_of(P: PointSet, p: Point) -> FunnelView:
    """Exact left and right funnel of p within P.

    One descending-y scan of the columns from p's row suffices: a point
    enters the left funnel (and only then becomes a tuple) exactly when
    it raises the running maximum x seen on p's left (symmetrically with
    the minimum on the right), and a point sharing p's x blocks
    everything below it on both sides.
    """
    require_distinct_y(P, "funnel_of")
    xs, ys = P.xs, P.ys
    px, py = p
    t = bisect_left(ys, py)
    if t == len(ys) or ys[t] != py or xs[t] != px:
        raise ValueError(f"funnel_of: {p} not in the point set")
    left: list[Point] = []
    right: list[Point] = []
    hi: int | None = None
    lo: int | None = None
    for u in range(t - 1, -1, -1):
        qx = xs[u]
        if qx < px:
            if hi is None or qx > hi:
                hi = qx
                left.append((qx, ys[u]))
                if hi >= px - 1 and lo is not None and lo <= px + 1:
                    break
        elif qx > px:
            if lo is None or qx < lo:
                lo = qx
                right.append((qx, ys[u]))
                if lo <= px + 1 and hi is not None and hi >= px - 1:
                    break
        else:
            break
    left.reverse()
    right.reverse()
    return FunnelView(left, right)


def f_value(P: PointSet, p: Point) -> int:
    """Side-alternation count of p's funnel in time order."""
    return funnel_of(P, p).value


def funnel_bound(P: PointSet) -> int:
    """Sum of per-point funnel alternation counts over all of P.

    Quadratic reference, one ``f_value`` per point; ``funnel_bound_fast``
    is the fast path.
    """
    require_distinct_y(P, "funnel_bound")
    return sum(f_value(P, p) for p in P)


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None


def move_to_root(P: PointSet, runs_out: list[int] | None = None) -> int:
    """Funnel bound of P.

    Each key lives in one node, placed by its latest access; ancestors
    are more recent accesses, so the root-to-key path of an access p lists
    its funnel in descending time, and a step to the left marks a point
    right of p.  The walk counts direction runs and unzips the tree into
    p's left and right subtrees in the same pass, starting both parts
    on one head node: its right link roots the left part and its left
    link the right part.  On an equal key the walk stops, because that
    key blocks both sides: its node is spliced out, its left subtree
    hung on the left tail and its right subtree on the right tail, and
    it becomes the new root.

    With ``runs_out`` given, each access's run count, its ``f_value``,
    is appended to it in time order.

    P's repeat plan (``PointSet.repeats``) folds each repeated block:
    the runs of the period before a plan entry's start are added
    ``count`` more times, and those points are skipped.  After whole
    periods the tree has the shape it had after one, since it is the
    Cartesian tree of the keys by their latest access.
    """
    head = _Node(0)
    root: _Node | None = None
    total = mark = 0
    for stretch, period, count in stretches(iter(P.xs), P.repeats):
        for x in stretch:
            node = root
            l_tail = r_tail = head
            runs = 0
            while node is not None:
                k = node.key
                if x < k:  # right-side funnel point: a right-run starts
                    runs += 1
                    r_tail.left = node
                    r_tail = node
                    node = node.left
                    while node is not None and x < node.key:
                        r_tail.left = node
                        r_tail = node
                        node = node.left
                elif x > k:  # left-side funnel point: a left-run starts
                    runs += 1
                    l_tail.right = node
                    l_tail = node
                    node = node.right
                    while node is not None and x > node.key:
                        l_tail.right = node
                        l_tail = node
                        node = node.right
                else:  # earlier access of the same key: splice it out
                    l_tail.right = node.left
                    r_tail.left = node.right
                    break
            else:
                l_tail.right = None
                r_tail.left = None
                node = _Node(x)
            node.left = head.right
            node.right = head.left
            root = node
            total += runs
            if runs_out is not None:
                runs_out.append(runs)
        if count:  # the period just walked repeats count more times
            total += count * (total - mark)
            if runs_out is not None:
                runs_out += runs_out[-period:] * count
        mark = total
    return total


def funnel_bound_fast(P: PointSet) -> int:
    """Funnel bound by one move-to-root replay; the production path.

    Takes any point set with distinct y, repeated keys included, folds
    its repeated blocks, and is checked differentially against
    ``funnel_bound``.
    """
    require_distinct_y(P, "funnel_bound_fast")
    return move_to_root(P)
