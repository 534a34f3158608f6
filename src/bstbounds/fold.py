"""Folding a trace while it is read: the copies of a repeated block are
counted on the trace's text and never converted.

``geometry.parse_trace`` reads a trace's first pieces itself while every
key is new, which needs none of this.  From the first piece that repeats
a key on, it hands its reader to ``read_on``, so reading a trace of
distinct keys never imports this module.  ``read_on`` runs
``geometry._repeat_plan``'s gap walk over the reader's pieces as they
are converted, with ``copies`` as the walk's count of a block's copies.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, Optional

from . import geometry
from .geometry import Repeat, _TraceReader


def read_on(
    reader: _TraceReader, plan_out: Optional[list[Repeat]], keys_out: Optional[set[int]]
) -> None:
    """``geometry.parse_trace`` from key ``reader.given`` on, once the keys
    before it, all new, are read.  They are the walk's only state: each
    key's position."""
    last = dict(zip(reader.keys, range(reader.given)))
    walked = chain.from_iterable(reader.pieces())
    plan = geometry._repeat_plan(walked, partial(copies, reader, walked), last)
    if plan_out is not None:
        plan_out += plan
    if keys_out is not None:  # not a dict: that would size the set for both
        keys_out.update(last.keys())


def copies(reader: _TraceReader, walked: Iterator[int], start: int, period: int) -> int:
    """``_repeat_plan``'s count of the whole copies of the ``period`` keys
    before index ``start``, the last key the walk took from ``walked``.

    Copies among the keys converted so far are compared as keys.  A copy
    that runs on past them is looked for in the text: the keys after the
    last whole copy are dropped, and from the end of its line the block's
    text is compared with the text after it, as ``geometry._copies``
    compares keys.  A copy whose text differs may still hold the same
    keys (``05`` for ``5``, a comment, another line break), so the text
    after the copies is converted and compared as keys in turn, until a
    copy differs or the text ends.  The walk goes on after the copies,
    from keys converted already if any."""
    keys = reader.keys
    s = start  # where the copy not yet matched starts
    count = 0
    cut = False
    tried = -1  # the copy whose text has been compared
    while True:
        found = geometry._copies(keys, s, period, reader.filled)
        count += found
        s += found * period
        if s + period <= reader.filled or reader.pos == len(reader.text):
            break
        if s != tried:
            if not cut:
                rest = reader.given - start  # drop the walk's piece
                next(islice(walked, rest, rest), None)
                cut = True
            _cut(reader, s)
            found = _text_copies(reader, period)
            count += found
            s += found * period
            tried = s
        reader.convert()
    if cut:
        reader.given = s
    else:
        skip = count * period
        next(islice(walked, skip, skip), None)
    return count


def _cut(reader: _TraceReader, s: int) -> None:
    """Drop the keys from index ``s`` on, and read on from the end of the
    line of key ``s - 1``."""
    k = s - 1
    read = reader.read
    i = bisect_right(read, k, key=itemgetter(0)) - 1
    first, start, lineno = read[i]
    nxt, end, _ = read[i + 1] if i + 1 < len(read) else (reader.filled, reader.pos, 0)
    lines = reader.text[start:end].splitlines(True)
    j = k - first
    if nxt - first != len(lines):  # the piece has lines without a key
        j = [n for n, line in enumerate(lines) if geometry._data_fields(line)][j]
    reader.seek(start + sum(map(len, lines[: j + 1])), lineno + j + 1, s)


def _text_copies(reader: _TraceReader, period: int) -> int:
    """The copies, from the reader's offset on, of the text of its last
    ``period`` keys: they are added to the keys unconverted."""
    text, end = reader.text, reader.pos
    start, lines = _block_text(text, end, period)
    width = end - start
    count = geometry._copies(text, end, width)
    if count:
        block = reader.keys[reader.filled - period : reader.filled]
        per = max(1, geometry._SLICE // period)  # copies written at once
        for done in range(0, count, per):
            reader.put(block * min(per, count - done))
        reader.pos = end + count * width
        reader.lineno += count * lines
        if text[end - 1] == "\r" and text.startswith("\n", reader.pos):
            reader.pos += 1  # the last copy's '\r' and this '\n' are one break
    return count


def _block_text(text: str, end: int, period: int) -> tuple[int, int]:
    """Where the text of the ``period`` keys whose lines end at ``end``
    starts, and its number of lines: the lines after the line of the key
    before them (or from the start of ``text``).  ``end`` ends a line.
    The lines are read back from ``end`` in a window that doubles until
    it holds that key's line; the window's first line may be cut short,
    but only where a line ends is used."""
    width = 8 * (period + 1)
    while True:
        lo = max(0, end - width)
        lines = text[lo:end].splitlines(True)
        start = end
        found = 0
        for n, line in enumerate(reversed(lines)):
            if geometry._data_fields(line):
                if found == period:
                    return start, n
                found += 1
            start -= len(line)
        if not lo:
            return 0, len(lines)
        width *= 2
