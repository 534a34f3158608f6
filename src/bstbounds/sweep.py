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

The kernel works on column ranks.  A column's top is the time of the
highest point in it (0 while it is empty).  Only that point can be a
partner, since it blocks every lower point of its column.  The partners
of an access in column r are therefore the chain of columns met walking
left from r whose top is strictly higher than every top passed so far.
After the step the access's column and every partner column hold a
point at the current time, the largest time yet.  The kernel returns
each corner's partner column and, per access, where its corners end;
the counting sweeps take the length and build no points.

The sweep runs in two phases.  The first keeps the non-empty columns
in a Cartesian tree: in column order, and a max-heap on (top, column),
so among equal tops the column further right ranks higher.  A column
left of r is then a partner exactly when it is an ancestor of r's place
in the tree, so a plain search for r meets the partners in ascending
column, the last being c1, the nearest non-empty column left of r.  The
search rebuilds the tree as it goes: r becomes the root; the partners
form a left spine under it with c1 on top, each partner's right subtree
being the old left subtree of the partner to its right; and the
columns right of r that it meets are chained by left links under r's
right.  The last of them keeps its old left link, which can point at a
partner, now on the spine, so the search cuts it; left in place, it
would close a cycle.

A search takes one step per partner and one per column right of r it
meets: c1's ancestors right of r and the left spine of c1's right
subtree.  Random permutations take about 4-6 steps per access and
corner, but some inputs (strided ones) take many more, so the first
phase counts its steps and stops once they pass ``_STEP_BUDGET`` per
access and corner handled so far.  The second phase then reads the
tops off the accesses and their corners so far, builds a max segment
tree of them in O(m + added) and finishes the sweep: each partner is
one descent ("rightmost column left of c whose top exceeds v") and each
write stops climbing at the first node that already holds the current
time.  The budget is checked after every access and one search
meets at most m columns, so the first phase takes at most
``_STEP_BUDGET * (m + added) + m`` steps, and a sweep still costs
O((m + added) * log m) for m accesses at worst.
"""

from __future__ import annotations

from itertools import pairwise
from math import inf
from typing import NamedTuple, Optional

from .geometry import Point, PointSet, require_distinct_xy


class SweepOutput(NamedTuple):
    accesses: PointSet
    added: tuple[Point, ...]
    direction: str  # "up" | "down"

    @property
    def added_points(self) -> frozenset[Point]:
        return frozenset(self.added)


# Steps the tree phase of ``_sweep_up`` may take per access and corner
# handled so far; past that the segment tree reads its tops off the
# corners and finishes the sweep.  A step is one node a search visits.
# Random permutations take 4.0, 4.8, 5.5 and 5.9 steps per access and
# corner at m = 2.5k, 10k, 40k and 100k; the stride-90 family
# (``j * 90 + i``, m = 8100) takes 44.2 if left to run, and hands over
# after 115 accesses.
_STEP_BUDGET = 8


def _sweep_up(
    cols: list[int], phase_out: Optional[list[int]] = None
) -> tuple[list[int], list[int]]:
    """Up-sweep over column ranks 0..m-1 in time order (distinct).

    Returns the partner column of every added corner and ``ends``: the
    corners of time index t are ``added[ends[t]:ends[t + 1]]``, in
    descending y of the partner, which is ascending column.  With
    ``phase_out`` given, the tree phase's steps and the number of
    accesses it handled are appended to it.
    """
    m = len(cols)
    # Child links; None marks an empty subtree, where a search ends.
    # Slot m of ``left`` heads the chain of columns right of r.
    left: list[Optional[int]] = [None] * (m + 1)
    right: list[Optional[int]] = [None] * m
    ends = [0] * (m + 1)
    root: Optional[int] = None
    added: list[int] = []
    climbed = 0  # steps onto columns right of the access
    budget = _STEP_BUDGET
    for t, r in enumerate(cols):
        now = t + 1
        # Search for r; spine is the last partner met, chain the last
        # column right of r (m before the first).
        node, spine, chain = root, None, m
        while node is not None:
            if node < r:
                added.append(node)
                if spine is not None:
                    right[spine] = left[node]
                    left[node] = spine
                spine = node
                node = right[node]
            else:
                climbed += 1
                left[chain] = node
                chain = node
                node = left[node]
        if spine is not None:
            right[spine] = None
        left[chain] = None  # it may still point at a partner
        right[r] = left[m]  # after the cut, which empties slot m if chain is m
        left[r] = spine
        root = r
        ends[now] = len(added)
        if climbed + len(added) > budget * (now + len(added)):
            break
    else:
        now = m
    if phase_out is not None:
        phase_out += (climbed + len(added), now)
    if now < m:
        _segment_sweep(cols, now, added, ends)
    return added, ends


def _segment_sweep(
    cols: list[int], start: int, added: list[int], ends: list[int]
) -> None:
    """The up-sweep from time index ``start`` on, appending to ``added``
    and ``ends``, which hold the accesses before it.

    The tops sit in a max segment tree: each partner is one descent
    ("rightmost column left of c whose top exceeds v") and each write
    stops climbing at the first node that already holds the current
    time.
    """
    size = 1 << max(len(cols) - 1, 0).bit_length()
    tree = [0] * (2 * size)  # leaves at size + col
    for t, r in enumerate(cols[:start]):  # a top: the last access or partner
        for c in (r, *added[ends[t] : ends[t + 1]]):
            tree[size + c] = t + 1
    h = size
    while h > 1:  # a level at a time: nodes h..2h-1 from children 2h..4h-1
        h //= 2
        tree[h : 2 * h] = map(max, tree[2 * h : 4 * h : 2], tree[2 * h + 1 : 4 * h : 2])
    for t, r in enumerate(cols[start:], start):
        now = t + 1
        chain: list[int] = []  # partner columns, walking left from r
        i, v = size + r, 0
        while i > 1:
            if i & 1 and tree[i - 1] > v:
                i -= 1  # the left sibling holds the nearest higher top
                while i < size:
                    i = 2 * i + 1 if tree[2 * i + 1] > v else 2 * i
                chain.append(i - size)
                v = tree[i]
            else:
                i >>= 1
        added.extend(reversed(chain))
        ends[now] = len(added)
        chain.append(r)
        for c in chain:
            i = size + c
            while i and tree[i] < now:
                tree[i] = now
                i >>= 1


def _sweep_columns(
    P: PointSet, mirrored: bool, op: str
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """P's keys in column order and the kernel's partner columns and
    ``ends``; descending keys give the mirrored ranks m-1-r.  ``op``, the
    public function called, names it in a refusal."""
    require_distinct_xy(P, op)
    keys = P.keys[::-1] if mirrored else P.keys
    rank = {x: i for i, x in enumerate(keys)}
    return keys, *_sweep_up([rank[x] for x in P.xs])


def _sweep(P: PointSet, mirrored: bool, op: str) -> tuple[Point, ...]:
    keys, added, ends = _sweep_columns(P, mirrored, op)
    return tuple(
        (keys[c], y) for y, (a, b) in zip(P.ys, pairwise(ends)) for c in added[a:b]
    )


def sweep_add_up(P: PointSet) -> SweepOutput:
    return SweepOutput(P, _sweep(P, mirrored=False, op="sweep_add_up"), "up")


def sweep_add_down(P: PointSet) -> SweepOutput:
    """Mirror sweep: partners to the lower right, upper-right corners.

    Runs the up-sweep kernel on mirrored column ranks and maps the
    columns back to keys.
    """
    return SweepOutput(P, _sweep(P, mirrored=True, op="sweep_add_down"), "down")


def irb_up(P: PointSet) -> int:
    """The up-sweep's count of added points, without building them."""
    return len(_sweep_columns(P, mirrored=False, op="irb_up")[1])


def irb_down(P: PointSet) -> int:
    """The down-sweep's count of added points, without building them."""
    return len(_sweep_columns(P, mirrored=True, op="irb_down")[1])


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
    """Type every added point of an up-sweep.  Its corners must be in
    sweep order, ascending (y, x), as the sweep emits them; any other
    order raises ``ClassificationError``.

    One walk back over the corners meets each row from the right and
    each column from the top.  A point is type (a) if it is the first
    met in its row, the rightmost, and type (b) if it is the first met
    in its column, the highest.  A point that is neither must be type
    (c): the corner last met in its column, the lowest added point
    above it, shares its y with an access that tops some z-rectangle;
    that access is recorded as the witness.  The tops come from one
    move-to-root replay of P.
    """
    if out.direction != "up":
        raise ValueError("classify_added: requires an up-sweep output")
    if out.accesses != P:
        raise ValueError("classify_added: sweep output does not belong to P")
    from .funnel import move_to_root
    from .zrect import zrect_counts

    runs: list[int] = []
    move_to_root(P, runs)
    tops = {y: (x, y) for x, y, z in zip(P.xs, P.ys, zrect_counts(P.xs, runs)) if z}
    above: dict[int, int] = {}  # per column, the y of the corner last met
    last = (inf, inf)  # (y, x) of the corner last met
    result: list[AddedPointType] = []
    for x, y in reversed(out.added):
        if (y, x) >= last:
            raise ClassificationError("added points are not in sweep order")
        is_a = y < last[0]
        is_b = x not in above
        witness = None if is_a or is_b else tops.get(above[x])
        if not (is_a or is_b) and witness is None:
            raise ClassificationError(f"added point ({x}, {y}) fits no charging type")
        result.append(AddedPointType((x, y), is_a, is_b, witness))
        above[x] = y
        last = (y, x)
    result.reverse()
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
