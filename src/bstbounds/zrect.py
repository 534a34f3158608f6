"""Recognition and counting of z-rectangles.

A z-rectangle is a quadruple of points (top, left, bottom, right) whose
keys appear in relative order 3,1,4,2 over time and whose spanned
axis-aligned box contains no other point of the set.  Counting them
requires distinct x- and y-coordinates; on degenerate inputs the count
is meaningless, so such inputs are refused.

``zrects`` reads them off the funnel runs that ``funnel.move_to_root``
counts.  Label each point of the top's funnel R or L by side and read
it in descending time.  Every ``R L+ R`` pattern is exactly one
z-rectangle: left is the last L of the run (the closest to the top in
x), bottom is the R that ends the run, and right is the last R before
the run.  Conversely, the left, bottom and right of a z-rectangle all
lie in the top's funnel, and a funnel point between them in time would
lie inside the box.  The labels alternate run by run, so the patterns
are a formula over the run count and the first label, and the first
funnel point is always the previous access, as nothing lies between
the two in time (``zrect_counts``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .funnel import move_to_root
from .geometry import PointSet, require_distinct_x


class ZRectResult(NamedTuple):
    count: int


def zrect_counts(xs: Sequence[int], runs: Sequence[int]) -> list[int]:
    """Per access of distinct keys, in time order, the z-rectangles it
    tops, from its key column ``xs`` and its funnel run counts ``runs``.

    With k runs, an access whose funnel starts right (the previous
    access has the larger key) tops ``(k - 1) // 2``, one per L run
    with an R run on both sides.  Otherwise its first run, if any, is
    an L run with no R before it, which leaves ``max(0, (k - 2) // 2)``.
    """
    return [
        (k - 1) // 2 if t and xs[t - 1] > xs[t] else max(0, (k - 2) // 2)
        for t, k in enumerate(runs)
    ]


def zrects(P: PointSet) -> ZRectResult:
    """Count all z-rectangles, from one move-to-root replay's runs."""
    require_distinct_x(P, "zrects")
    runs: list[int] = []
    move_to_root(P, runs)
    return ZRectResult(sum(zrect_counts(P.xs, runs)))

