"""Planar point sets, the trace-to-point-set map, and text I/O.

An access trace (x_1, ..., x_m) is viewed geometrically: the i-th access
becomes the point (x_i, i), with keys on the horizontal axis and time on
the vertical axis.  All coordinates are plain Python integers, so the
transforms below (which negate coordinates) are exact.

A ``PointSet`` keeps its points in time order (``by_y``) as its native
storage whenever it has that order for free: ``from_trace`` writes the
points ``(x, i)`` straight into ``by_y``, so a trace is read, checked and
ordered exactly once and is never re-sorted.  The frozenset behind set
equality, hashing and membership is built lazily, on the first ``==``,
``hash`` or ``in``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

Point = tuple[int, int]


class ParseError(ValueError):
    """Malformed trace or point-set text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PointSet:
    """Immutable finite set of integer points with set equality.

    Storage is the time-ordered list ``by_y`` when the set was built from
    a trace, and the frozenset ``points`` otherwise; each is derived from
    the other on first use and then cached.  Only ``==``, ``hash`` and
    ``in`` need the frozenset; length and iteration read ``by_y`` when it
    is already there.

    Duplicate y-coordinates are representable (rotating a set that has
    repeated x produces them), but every bound computation refuses such
    sets; check ``has_distinct_y`` / ``has_distinct_x`` before use.
    """

    def __init__(self, points: Iterable[Point] = ()):
        self.points = frozenset((int(x), int(y)) for x, y in points)

    @cached_property
    def points(self) -> frozenset[Point]:
        return frozenset(self.by_y)

    @cached_property
    def by_y(self) -> list[Point]:
        """Points ordered by ascending y (chronological order)."""
        return sorted(self.points, key=lambda p: (p[1], p[0]))

    @cached_property
    def keys(self) -> tuple[int, ...]:
        """The distinct x-coordinates, ascending."""
        return tuple(sorted({x for x, _ in self}))

    @cached_property
    def has_distinct_y(self) -> bool:
        return len({y for _, y in self}) == len(self)

    @cached_property
    def has_distinct_x(self) -> bool:
        return len(self.keys) == len(self)

    def _stored(self) -> Collection[Point]:
        stored = self.__dict__
        return stored["by_y"] if "by_y" in stored else self.points

    def __len__(self) -> int:
        return len(self._stored())

    def __iter__(self) -> Iterator[Point]:
        return iter(self._stored())

    def __contains__(self, p: object) -> bool:
        return p in self.points

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointSet):
            return self.points == other.points
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({self.by_y!r})"


def require_distinct_y(P: PointSet, op: str) -> None:
    if not P.has_distinct_y:
        raise ValueError(f"{op}: point set must have distinct y-coordinates")


def require_distinct_xy(P: PointSet, op: str) -> None:
    require_distinct_y(P, op)
    if not P.has_distinct_x:
        raise ValueError(f"{op}: point set must have distinct x-coordinates")


def from_trace(keys: Sequence[int]) -> PointSet:
    """Geometric view of a trace: access i of key x becomes point (x, i).

    The points are stored in time order as they are made; times are
    distinct by construction, so nothing is sorted or checked.
    """
    P = PointSet.__new__(PointSet)
    P.by_y = list(zip(keys, range(1, len(keys) + 1)))
    P.has_distinct_y = True
    return P


def time_reverse(P: PointSet) -> PointSet:
    """Flip time: (x, y) -> (x, -y).  Involutive."""
    return PointSet((x, -y) for x, y in P)


def rotate90(P: PointSet) -> PointSet:
    """Counter-clockwise quarter turn: (x, y) -> (-y, x).

    The result has distinct y only if P had distinct x; callers that
    need the distinct-y invariant must check the flag on the result.
    """
    return PointSet((-y, x) for x, y in P)


def hflip(P: PointSet) -> PointSet:
    """Mirror keys: (x, y) -> (-x, y).  Involutive."""
    return PointSet((-x, y) for x, y in P)


def parse_trace(text: str) -> list[int]:
    """Parse a trace file: one integer key per line.

    Blank lines and lines whose first field starts with '#' are skipped.
    ``int`` ignores surrounding whitespace, so a well-formed line is
    converted as it is; only a line it refuses is split and looked at.
    """
    keys: list[int] = []
    append = keys.append
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            append(int(line))
        except ValueError:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 1:
                raise ParseError(f"expected one integer, got {line.strip()!r}", lineno) from None
            raise ParseError(f"not an integer: {fields[0]!r}", lineno) from None
    return keys


def parse_pointset(text: str) -> PointSet:
    """Parse a point-set file: one `<x> <y>` pair per line, distinct y.

    Blank lines and lines whose first field starts with '#' are skipped.
    """
    points: list[Point] = []
    seen_y: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ParseError(f"expected `<x> <y>`, got {line.strip()!r}", lineno)
        try:
            x, y = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"not an integer pair: {line.strip()!r}", lineno) from None
        if y in seen_y:
            raise ParseError(
                f"duplicate y-coordinate {y} (first seen on line {seen_y[y]})", lineno
            )
        seen_y[y] = lineno
        points.append((x, y))
    return PointSet(points)


def serialize_trace(keys: Sequence[int]) -> str:
    return "".join(f"{x}\n" for x in keys)


def serialize_pointset(P: PointSet) -> str:
    """One `<x> <y>` line per point, ascending y for determinism."""
    return "".join(f"{x} {y}\n" for x, y in P.by_y)
