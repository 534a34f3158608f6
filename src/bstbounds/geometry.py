"""Planar point sets, the trace-to-point-set map, and text I/O.

An access trace (x_1, ..., x_m) is viewed geometrically: the i-th access
becomes the point (x_i, i), with keys on the horizontal axis and time on
the vertical axis.  All coordinates are plain Python integers, so the
transforms below (which negate coordinates) are exact.

Every ``PointSet`` is stored as its two columns ``xs`` and ``ys``, the
points in ascending (y, x) order, which every bound kernel reads as they
are.  A trace adopts its key list and ``range(1, m + 1)``: one list
pointer per access (~8 B; a ``(x, y)`` tuple cost ~97 B more), never
sorted.  A point-set file is sorted once as it is parsed, and so is any
rotation; time reversal and the key mirror of a set with distinct y map
the columns.  The time-ordered point list ``by_y`` and the frozenset
behind set equality, hashing and membership are built lazily, only when
something asks for them.

A key block repeated back to back is folded: ``PointSet.repeats``, the
repeat plan, names each stretch that repeats the block before it whole
times.  An access's funnel, and its switches in any reference tree,
depend only on its key and on the accesses since that key's previous
access (Wilber 1989), so every copy of a block after its second adds
what the second did, and leaves the kernel's state as the second left
it.  The funnel and alternation kernels walk the accesses through
``stretches``, which hands them each period to fold and skips its
copies unread.  Distinct keys have no plan.

A trace is folded as it is read.  Once a key repeats, ``parse_trace``
hands its reader to ``fold.read_on``, which runs the plan's gap walk
over the keys as they are converted, and counts each block's
copies by comparing the block's text with the text after it; the
copies join the key list as copies of the block, never split or
converted.  A copy whose text differs is converted and compared as
keys, so the plan handed to ``from_trace``, with the distinct keys, is
exactly the plan of the keys.  Of the 264,192 accesses of the full
separation sequence (``gen separation 3``), 2,498 are converted.

The parsers (and the CLI, to find the format or a faulty line) split
text about ``_CHUNK`` characters at a time, each piece cut right after
a line break that ``str.splitlines`` honours (``_line_cut``), so nothing
holds a string per line of the whole input, whatever its breaks.
``str.splitlines`` reads ``'\\r\\n'`` as one break, and no cut falls
inside one, so the lines, their numbers and the error messages are
those of splitting the whole text.  One rule, ``_data_fields``, says
which lines hold data.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

Point = tuple[int, int]
Repeat = tuple[int, int, int]  # (start, period, count) of one repeat-plan entry
T = TypeVar("T")


class ParseError(ValueError):
    """Malformed trace or point-set text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PointSet:
    """Immutable finite set of integer points with set equality.

    Stored as the columns ``xs``/``ys``, the points in ascending (y, x)
    order, each once: for a trace, the keys and the times.
    ``PointSet(points)`` de-duplicates and sorts; builders whose points
    come in that order adopt their columns through ``_columns``.  Only
    ``==``, ``hash`` and ``in`` need the frozenset ``points``.

    Duplicate y-coordinates are representable (rotating a set that has
    repeated x produces them), but every bound computation refuses such
    sets; check ``has_distinct_y`` / ``has_distinct_x`` before use.
    """

    xs: Sequence[int]
    ys: Sequence[int]

    def __init__(self, points: Iterable[Point] = ()):
        ordered = sorted({(int(y), int(x)) for x, y in points})
        self.xs = [x for _, x in ordered]
        self.ys = [y for y, _ in ordered]

    @cached_property
    def points(self) -> frozenset[Point]:
        return frozenset(zip(self.xs, self.ys))

    @cached_property
    def by_y(self) -> list[Point]:
        """Points ordered by ascending y (chronological order)."""
        return list(zip(self.xs, self.ys))

    @cached_property
    def keys(self) -> tuple[int, ...]:
        """The distinct x-coordinates, ascending."""
        return tuple(sorted(set(self.xs)))

    @cached_property
    def repeats(self) -> list[Repeat]:
        """The repeat plan: one ``(start, period, count)`` per stretch the
        kernels fold.  The ``period`` accesses before ``start`` have
        distinct keys and repeat the ``period`` accesses before them, and
        ``xs[start : start + count * period]`` is that block ``count``
        more times.  Entries are in order and do not overlap.  Distinct
        keys repeat no block, so they skip the pass over the accesses."""
        return [] if self.has_distinct_x else _repeat_plan(self.xs)

    @cached_property
    def has_distinct_y(self) -> bool:
        return len(set(self.ys)) == len(self)

    @cached_property
    def has_distinct_x(self) -> bool:
        return len(self.keys) == len(self)

    def __len__(self) -> int:
        return len(self.ys)

    def __iter__(self) -> Iterator[Point]:
        return zip(self.xs, self.ys)

    def __contains__(self, p: object) -> bool:
        return p in self.points

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointSet):
            return self is other or self.points == other.points
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({list(self)!r})"


def _columns(xs: Sequence[int], ys: Sequence[int]) -> PointSet:
    """The point set that adopts ``xs`` and ``ys`` as they are, with no
    copy or check: ``ys`` must strictly ascend (distinct y, (y, x) order)."""
    P = PointSet.__new__(PointSet)
    P.xs = xs
    P.ys = ys
    P.has_distinct_y = True
    return P


# Most keys, or characters of a trace's text, compared in one slice
# while a repeated block is extended.
_SLICE = 1 << 16


def _repeat_plan(
    xs: Iterable[int],
    copies: Optional[Callable[[int, int], int]] = None,
    last: Optional[dict[int, int]] = None,
) -> list[Repeat]:
    """One pass over the accesses that are not skipped.  Positions count
    only those, so a skipped stretch leaves the keys' gaps as if its
    copies were never there.  Once ``gap`` accesses in a row since the
    latest skip each follow their key's previous access by ``gap``, they
    are distinct and repeat the ``gap`` before them, and
    ``copies(start, gap)`` counts the whole copies of them from index
    ``start`` on and consumes those copies from ``xs``.  Counting only
    since the latest skip keeps each entry's block before ``start``
    clear of skipped copies.

    By default ``xs`` is a key list and ``_copies`` compares its slices.
    ``parse_trace`` walks the keys as it converts them, with its own
    count, after ``last`` maps the keys of an all-new prefix to their
    positions: a first access's gap is above its position plus one, so
    it neither ends nor joins a run, and the prefix leaves no other
    state.  ``last`` ends up holding every key walked.
    """
    plan: list[Repeat] = []
    last = {} if last is None else last
    get = last.get
    skipped = 0
    gap = run = 0  # the last `run` accesses each follow their key's previous one by `gap`
    accesses = iter(xs)
    if copies is None:

        def copies(start: int, period: int) -> int:
            count = _copies(xs, start, period)
            skip = count * period
            next(islice(accesses, skip, skip), None)
            return count

    for at, x in enumerate(accesses, len(last)):
        g = at - get(x, -2)  # a first access's gap, at + 2, can end no run
        last[x] = at
        if g != gap:
            gap = g
            run = 0
        run += 1
        if run == gap:
            start = at + skipped + 1
            count = copies(start, gap)
            if count:
                plan.append((start, gap, count))
                skipped += count * gap
                run = 0
    return plan


def _copies(seq: Sequence, start: int, period: int, end: Optional[int] = None) -> int:
    """How many whole times the ``period`` items before ``start`` repeat
    from ``start`` on, within the first ``end`` items (all of ``seq`` by
    default): keys of a list, or characters of a trace's text.  The
    periods compared at once double up to a slice of ``_SLICE`` items,
    then halve after the first mismatch, so the items compared are
    O(copies * period + period); only a period longer than a slice is
    compared a slice at a time."""
    if end is None:
        end = len(seq)
    count = 0
    step = 1
    most = max(1, _SLICE // period)
    growing = True
    while step:
        stop = start + step * period
        if stop <= end and (
            seq[start:stop] == seq[start - period : stop - period]
            if stop - start <= _SLICE
            else all(
                seq[a : min(a + _SLICE, stop)] == seq[a - period : min(a + _SLICE, stop) - period]
                for a in range(start, stop, _SLICE)
            )
        ):
            start = stop
            count += step
            if growing:
                step = min(2 * step, most)
        else:
            growing = False
            step //= 2
    return count


def stretches(
    accesses: Iterator[T], repeats: Sequence[Repeat]
) -> Iterator[tuple[Iterator[T], int, int]]:
    """A folding kernel's walk over ``accesses`` with the plan ``repeats``:
    ``(stretch, period, count)``, where the kernel walks ``stretch``.  A
    stretch with ``count`` 0 is only walked.  Otherwise it is the
    ``period`` accesses before a plan entry's start, and the kernel adds
    ``count`` times their share; the copies are then consumed unread."""
    done = 0
    for start, period, count in repeats:
        yield islice(accesses, start - period - done), 0, 0
        yield islice(accesses, period), period, count
        skip = count * period
        next(islice(accesses, skip, skip), None)
        done = start + skip
    yield accesses, 0, 0


def require_distinct_y(P: PointSet, op: str) -> None:
    if not P.has_distinct_y:
        raise ValueError(f"{op}: point set must have distinct y-coordinates")


def require_distinct_xy(P: PointSet, op: str) -> None:
    require_distinct_y(P, op)
    if not P.has_distinct_x:
        raise ValueError(f"{op}: point set must have distinct x-coordinates")


def from_trace(
    keys: Sequence[int],
    repeats: Optional[list[Repeat]] = None,
    distinct: Optional[Sequence[int]] = None,
) -> PointSet:
    """Geometric view of a trace: access i of key x becomes point (x, i).

    ``keys`` itself becomes the column ``xs`` (pass a list that nothing
    mutates afterwards) and ``range(1, m + 1)`` the column ``ys``.  The
    repeat plan and the distinct keys, ascending, that ``parse_trace``
    hands out become ``repeats`` and ``keys`` as they are, so neither
    walks the accesses again.
    """
    P = _columns(keys, range(1, len(keys) + 1))
    if repeats is not None:
        P.repeats = repeats
    if distinct is not None:
        P.keys = tuple(distinct)
    return P


def time_reverse(P: PointSet) -> PointSet:
    """Flip time: (x, y) -> (x, -y).  Involutive.  With distinct y the
    reversed columns are in (y, x) order already, and a trace's times
    stay a ``range``."""
    if not P.has_distinct_y:
        return PointSet((x, -y) for x, y in P)
    ys = P.ys
    if isinstance(ys, range):
        back = ys[::-1]
        return _columns(P.xs[::-1], range(-back.start, -back.stop, -back.step))
    return _columns(P.xs[::-1], [-y for y in reversed(ys)])


def rotate90(P: PointSet) -> PointSet:
    """Counter-clockwise quarter turn: (x, y) -> (-y, x).

    The result has distinct y only if P had distinct x; callers that
    need the distinct-y invariant must check the flag on the result.
    """
    return PointSet((-y, x) for x, y in P)


def hflip(P: PointSet) -> PointSet:
    """Mirror keys: (x, y) -> (-x, y).  Involutive.  With distinct y the
    order is by y alone, which the mirror keeps.  Negated keys repeat
    where P's do, so P's repeat plan, if it is cached, is carried over."""
    if not P.has_distinct_y:
        return PointSet((-x, y) for x, y in P)
    Q = _columns([-x for x in P.xs], P.ys)
    if "repeats" in P.__dict__:
        Q.__dict__["repeats"] = P.__dict__["repeats"]
    return Q


_CHUNK = 1 << 16  # characters split into lines at a time
_FIRST_PIECE = 64  # characters in a trace's first piece, and the first after a fold


def _line_cut(text: str, start: int, size: int) -> int:
    """The end of the piece of about ``size`` characters from ``start``:
    just after a line break that ``str.splitlines`` honours, never
    between the '\\r' and the '\\n' of a '\\r\\n', or the end of ``text``.
    ``re`` caches the compiled pattern."""
    breaks = re.compile("\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029]")
    brk = breaks.search(text, start + size - 1)
    return len(text) if brk is None else brk.end()


def line_chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """The lines of ``text`` as ``str.splitlines`` gives them, in pieces:
    (number of the piece's first line, its lines), for pieces of about
    ``_CHUNK`` characters cut by ``_line_cut``, so every line and its
    number are those of the whole text.
    """
    lineno = 1
    start = 0
    while start < len(text):
        end = _line_cut(text, start, _CHUNK)
        lines = text[start:end].splitlines()
        yield lineno, lines
        lineno += len(lines)
        start = end


class _TraceReader:
    """A trace's text converted to keys a piece at a time (``pieces``).

    Pieces start at ``_FIRST_PIECE`` characters and double up to
    ``_CHUNK``, so few keys past a repeated block are converted before
    the fold finds it; ``seek`` starts them small again.  Each piece read
    since is noted in ``read`` as (first key, text offset, first line
    number), to find a key's line again.  ``keys`` gets one slot per
    '\\n' up front, because growing it as it fills holds the old and the
    new array at once; a text broken by other line breaks grows it
    anyway.
    """

    def __init__(self, text: str):
        self.text = text
        self.keys: list[int] = [0] * (text.count("\n") + 1)
        self.given = 0  # keys handed out by `pieces` so far
        self.seek(0, 1, 0)

    def seek(self, pos: int, lineno: int, filled: int) -> None:
        """Read on from offset ``pos``, where line ``lineno`` starts, into
        the keys from index ``filled`` on."""
        self.pos, self.lineno, self.filled = pos, lineno, filled
        self.size = _FIRST_PIECE
        self.read: list[tuple[int, int, int]] = []

    def put(self, keys: list[int]) -> None:
        self.keys[self.filled : self.filled + len(keys)] = keys
        self.filled += len(keys)

    def convert(self) -> bool:
        """Add the keys of the next piece; False at the end of the text."""
        text, pos = self.text, self.pos
        if pos == len(text):
            return False
        end = _line_cut(text, pos, min(self.size, _CHUNK))
        lines = text[pos:end].splitlines()
        self.read.append((self.filled, pos, self.lineno))
        self.put(_parse_trace_lines(lines, self.lineno))
        self.pos, self.lineno, self.size = end, self.lineno + len(lines), 2 * self.size
        return True

    def pieces(self) -> Iterator[list[int]]:
        """The keys from index ``given`` on, a piece at a time: those
        converted already, then each piece as it is read."""
        while self.given < self.filled or self.convert():
            piece = self.keys[self.given : self.filled]
            self.given = self.filled
            yield piece


def parse_trace(
    text: str, plan_out: Optional[list[Repeat]] = None, keys_out: Optional[set[int]] = None
) -> list[int]:
    """Parse a trace file: one integer key per line.

    Blank lines and lines whose first field starts with '#' are skipped.
    The text is converted a piece at a time (``_TraceReader``).

    The trace is folded as it is read.  While every key so far is new,
    nothing else is done.  From the first piece that repeats a key on,
    ``fold.read_on`` reads the rest: ``_repeat_plan`` walks the keys as
    they are converted, and the copies of each block it finds are counted
    on the text and join the key list unconverted.  With ``plan_out``
    given, the plan, which is ``_repeat_plan`` of the keys, is added to
    it; with ``keys_out`` (an empty set), the distinct keys are.
    """
    reader = _TraceReader(text)
    seen = set() if keys_out is None else keys_out
    for piece in reader.pieces():
        seen.update(piece)
        if len(seen) < reader.given:  # this piece repeats a key
            from . import fold

            reader.given -= len(piece)  # the walk starts at this piece
            fold.read_on(reader, plan_out, keys_out)
            break
    del reader.keys[reader.filled :]
    return reader.keys


def _parse_trace_lines(lines: list[str], first: int) -> list[int]:
    """The keys of ``lines``, numbered from ``first``.  ``int`` ignores
    surrounding whitespace, so well-formed lines are converted as they
    are; only lines with one it refuses are gone through one at a time."""
    try:
        return list(map(int, lines))
    except ValueError:
        pass
    keys: list[int] = []
    for lineno, line in enumerate(lines, start=first):
        try:
            keys.append(int(line))
        except ValueError:
            fields = _data_fields(line)
            if not fields:
                continue
            if len(fields) != 1:
                raise ParseError(f"expected one integer, got {line.strip()!r}", lineno) from None
            raise ParseError(f"not an integer: {fields[0]!r}", lineno) from None
    return keys


def _data_fields(line: str) -> list[str]:
    """The fields of a data line, and none for a line that holds no data:
    a blank line, or one whose first field starts with '#'."""
    fields = line.split()
    return fields if fields and not fields[0].startswith("#") else []


def parse_pointset(text: str) -> PointSet:
    """Parse a point-set file: one `<x> <y>` pair per line, distinct y.

    Blank lines and lines whose first field starts with '#' are skipped.
    Sorting the distinct y gives the columns their order.  Only x is
    kept per y; a duplicate y's first line is found by a second pass.
    """
    seen_y: dict[int, int] = {}  # y -> x
    for first, lines in line_chunks(text):
        for lineno, line in enumerate(lines, start=first):
            fields = _data_fields(line)
            if not fields:
                continue
            if len(fields) != 2:
                raise ParseError(f"expected `<x> <y>`, got {line.strip()!r}", lineno)
            try:
                x, y = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(f"not an integer pair: {line.strip()!r}", lineno) from None
            if y in seen_y:
                first_seen = _first_line_of_y(text, y)
                raise ParseError(
                    f"duplicate y-coordinate {y} (first seen on line {first_seen})", lineno
                )
            seen_y[y] = x
    ys = sorted(seen_y)
    return _columns([seen_y[y] for y in ys], ys)


def _first_line_of_y(text: str, y: int) -> int:
    """The number of the first data line with y-coordinate ``y``; every
    data line before it is a well-formed pair."""
    return next(
        lineno
        for first, lines in line_chunks(text)
        for lineno, line in enumerate(lines, start=first)
        if (fields := _data_fields(line)) and int(fields[1]) == y
    )


def serialize_trace(keys: Sequence[int]) -> str:
    return "".join(f"{x}\n" for x in keys)


def serialize_pointset(P: PointSet) -> str:
    """One `<x> <y>` line per point, ascending y for determinism."""
    return "".join(f"{x} {y}\n" for x, y in P)
