"""Bottom-up sweep that materializes empty-rectangle corners, and the
charging classification of the points it adds.

Sweeping the accesses by increasing y, each access p contributes, for
every point q of the current set (earlier accesses plus previously added
points) lying strictly lower-left of p with an empty rectangle between
them, the upper-left corner (q.x, p.y).  The count of added points is
the upward half of the independent-rectangle lower bound; the downward
half mirrors it with lower-right partners and upper-right corners.

Corners created while handling one access only enter the set after all
of that access's partners have been gathered.  A sweep returns its
corners as plain ``(x, y)`` points, grouped by access in time order and,
within an access, in descending y of the partner.  Times are distinct,
so the access that created a corner is the one in its row.

The kernel works on column ranks and keeps one number per column: the
time of the highest point in it (0 while it is empty).  Only that point
can be a partner, since it blocks every lower point of its column.  The
partners of an access in column r are therefore the chain of columns
met walking left from r whose top is strictly higher than every top
passed so far.  After the step the access's column and every partner
column hold a point at the current time, the largest time yet.  The
tops sit in a max segment tree: each partner is one descent ("rightmost
column left of c whose top exceeds v") and each write stops climbing at
the first node that already holds the current time, so a sweep costs
O((m + added) * log m) for m accesses.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from .geometry import Point, PointSet, require_distinct_xy
from .zrect import zrects


class SweepOutput(NamedTuple):
    accesses: PointSet
    added: tuple[Point, ...]
    direction: str  # "up" | "down"

    @property
    def added_points(self) -> frozenset[Point]:
        return frozenset(self.added)


def _sweep_up(cols: list[int]) -> list[tuple[int, int]]:
    """Up-sweep over column ranks 0..m-1 in time order (distinct).

    Returns one ``(column, time index)`` pair per added corner, grouped
    by access in time order and, within an access, in descending y of
    the partner, which is ascending column.
    """
    size = 1 << max(len(cols) - 1, 0).bit_length()
    top = [0] * (2 * size)  # max over the node's columns; leaves at size + col
    added: list[tuple[int, int]] = []
    for t, r in enumerate(cols):
        now = t + 1
        chain: list[int] = []  # partner columns, walking left from r
        i, v = size + r, 0
        while i > 1:
            if i & 1 and top[i - 1] > v:
                i -= 1  # the left sibling holds the nearest higher top
                while i < size:
                    i = 2 * i + 1 if top[2 * i + 1] > v else 2 * i
                chain.append(i - size)
                v = top[i]
            else:
                i >>= 1
        added.extend((c, t) for c in reversed(chain))
        chain.append(r)
        for c in chain:
            i = size + c
            while i and top[i] < now:
                top[i] = now
                i >>= 1
    return added


def _sweep(P: PointSet, mirrored: bool) -> tuple[Point, ...]:
    # Descending keys give the mirrored ranks m-1-r, and map them back.
    ys = P.ys
    keys = P.keys[::-1] if mirrored else P.keys
    rank = {x: i for i, x in enumerate(keys)}
    return tuple((keys[c], ys[t]) for c, t in _sweep_up([rank[x] for x in P.xs]))


def sweep_add_up(P: PointSet) -> SweepOutput:
    require_distinct_xy(P, "sweep_add_up")
    return SweepOutput(P, _sweep(P, mirrored=False), "up")


def sweep_add_down(P: PointSet) -> SweepOutput:
    """Mirror sweep: partners to the lower right, upper-right corners.

    Runs the up-sweep kernel on mirrored column ranks and maps the
    columns back to keys.
    """
    require_distinct_xy(P, "sweep_add_down")
    return SweepOutput(P, _sweep(P, mirrored=True), "down")


def irb_up(P: PointSet) -> int:
    return len(sweep_add_up(P).added)


def irb_down(P: PointSet) -> int:
    return len(sweep_add_down(P).added)


class AddedPointType(NamedTuple):
    """Charging class of one added point; at least one flag must hold."""

    point: Point
    rightmost_in_row: bool  # type a: rightmost added point at its y
    highest_in_column: bool  # type b: highest added point at its x
    zrect_top: Optional[Point] = None  # type c: charged z-rectangle top

    @property
    def labels(self) -> str:
        out = ""
        if self.rightmost_in_row:
            out += "a"
        if self.highest_in_column:
            out += "b"
        if self.zrect_top is not None:
            out += "c"
        return out


class ClassificationError(RuntimeError):
    """An added point fits none of the three charging types; this
    signals an implementation bug, not bad input."""


def classify_added(P: PointSet, out: SweepOutput) -> list[AddedPointType]:
    """Type every added point of an up-sweep.

    A point is type (a) if it is the rightmost added point in its row
    and type (b) if it is the highest added point in its column.  A
    point that is neither must be type (c): the lowest added point
    above it in its column shares its y with an access that tops some
    z-rectangle; that access is recorded as the witness.
    """
    if out.direction != "up":
        raise ValueError("classify_added: requires an up-sweep output")
    if out.accesses != P:
        raise ValueError("classify_added: sweep output does not belong to P")
    max_x_at_y: dict[int, int] = {}
    ys_at_x: dict[int, list[int]] = {}
    for x, y in out.added:
        max_x_at_y[y] = max(max_x_at_y.get(y, x), x)
        ys_at_x.setdefault(x, []).append(y)
    for ys in ys_at_x.values():
        ys.sort()
    access_by_y = {y: (x, y) for x, y in P}
    tops: set[Point] | None = None  # computed lazily, only when needed

    result: list[AddedPointType] = []
    for x, y in out.added:
        column = ys_at_x[x]
        is_a = max_x_at_y[y] == x
        is_b = column[-1] == y
        witness: Point | None = None
        if not is_a and not is_b:
            # the lowest added point above; it exists, as y is not highest
            d = access_by_y.get(column[bisect_right(column, y)])
            if tops is None:
                tops = {w.top for w in zrects(P).witnesses}
            if d is None or d not in tops:
                raise ClassificationError(
                    f"added point ({x}, {y}) fits no charging type"
                )
            witness = d
        result.append(AddedPointType((x, y), is_a, is_b, witness))
    return result


def serialize_sweep(
    out: SweepOutput, types: Optional[list[AddedPointType]] = None
) -> str:
    """Text form: `A <x> <y>` per access and `+ <x> <y> [<types>]` per
    added point, ascending y then x."""
    by_point = {t.point: t.labels for t in types} if types else {}
    lines = [("A", x, y, "") for x, y in out.accesses] + [
        ("+", x, y, by_point.get((x, y), "")) for x, y in out.added
    ]
    lines.sort(key=lambda rec: (rec[2], rec[1]))
    return "".join(
        f"{tag} {x} {y} {lbl}".rstrip() + "\n" for tag, x, y, lbl in lines
    )
