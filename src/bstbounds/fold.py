"""Folding a trace while it is read: the copies of a repeated block are
counted on the trace's text and never converted.

``geometry.parse_trace`` reads a trace's first pieces itself while every
key is new, which needs none of this.  From the first piece that repeats
a key on, it hands the text to ``read_on``, so reading a trace of
distinct keys never imports this module.  ``read_on`` runs
``geometry._repeat_plan``'s gap walk over the keys as it converts them,
with ``_TraceReader.copies`` as the walk's count of a block's copies.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, Optional

from . import geometry
from .geometry import Repeat


def read_on(
    text: str,
    keys: list[int],
    filled: int,
    pos: int,
    lineno: int,
    plan_out: Optional[list[Repeat]],
    keys_out: Optional[set[int]],
) -> list[int]:
    """``geometry.parse_trace`` from the piece at offset ``pos`` on, where
    line ``lineno`` starts, once the first ``filled`` keys, all new, are
    in ``keys``.  They are the walk's only state: each key's position."""
    reader = _TraceReader(text, keys, filled, pos, lineno)
    last = dict(zip(keys, range(filled)))
    plan = geometry._repeat_plan(chain.from_iterable(reader.pieces()), reader.copies, last)
    if plan_out is not None:
        plan_out += plan
    if keys_out is not None:  # not a dict: that would size the set for both
        keys_out.update(last.keys())
    del keys[reader.filled :]
    return keys


class _TraceReader:
    """A trace's text converted to keys a piece at a time, for the gap
    walk and its copy count.

    Pieces start at ``geometry._FIRST_PIECE`` characters and double up
    to ``geometry._CHUNK``, so few keys past a block are converted before
    the walk finds it.  Reading on from a block's copies starts them
    small again.  Each piece read since is noted as (first key, text
    offset, first line number), to find a key's line again.
    """

    def __init__(self, text: str, keys: list[int], filled: int, pos: int, lineno: int):
        self.text = text
        self.keys = keys
        self.filled = filled  # keys converted or copied so far
        self.pos = pos  # the text read so far
        self.lineno = lineno  # the number of the line at `pos`
        self.size = geometry._FIRST_PIECE
        self.read: list[tuple[int, int, int]] = []
        self.given = filled  # keys handed to the walk so far
        self.current: Iterator[int] = iter(())  # the walk's piece, up to key `given`

    def convert(self) -> bool:
        """Add the keys of the next piece to ``keys``; False at the end of
        the text."""
        if self.pos == len(self.text):
            return False
        end, lines, piece = geometry._trace_piece(self.text, self.pos, self.lineno, self.size)
        self.read.append((self.filled, self.pos, self.lineno))
        self.keys[self.filled : self.filled + len(piece)] = piece
        self.filled += len(piece)
        self.pos, self.lineno, self.size = end, self.lineno + lines, 2 * self.size
        return True

    def pieces(self) -> Iterator[Iterator[int]]:
        """The keys from index ``given`` on, for the walk, a piece at a
        time: those converted already, then each piece as it is read."""
        while self.given < self.filled or self.convert():
            self.current = iter(self.keys[self.given : self.filled])
            self.given = self.filled
            yield self.current

    def copies(self, start: int, period: int) -> int:
        """``_repeat_plan``'s count of the whole copies of the ``period``
        keys before index ``start``, the last key the walk took.

        Copies among the keys converted so far are compared as keys.  A
        copy that runs on past them is looked for in the text: the keys
        after the last whole copy are dropped, and from the end of its
        line the block's text is compared with the text after it, as
        ``geometry._copies`` compares keys.  A copy whose text differs
        may still hold the same keys (``05`` for ``5``, a comment,
        another line break), so the text after the copies is converted
        and compared as keys in turn, until a copy differs or the text
        ends.  The walk goes on after the copies, from keys converted
        already if any."""
        keys = self.keys
        s = start  # where the copy not yet matched starts
        count = 0
        cut = False
        tried = -1  # the copy whose text has been compared
        while True:
            found = geometry._copies(keys, s, period, self.filled)
            count += found
            s += found * period
            if s + period <= self.filled or self.pos == len(self.text):
                break
            if s != tried:
                if not cut:
                    rest = self.given - start  # drop the walk's piece
                    next(islice(self.current, rest, rest), None)
                    cut = True
                self._cut(s)
                found = self._text_copies(period)
                count += found
                s += found * period
                tried = s
            self.convert()
        if cut:
            self.given = s
        else:
            skip = count * period
            next(islice(self.current, skip, skip), None)
        return count

    def _cut(self, s: int) -> None:
        """Drop the keys from index ``s`` on, and read on from the end of
        the line of key ``s - 1``."""
        k = s - 1
        read = self.read
        i = bisect_right(read, k, key=itemgetter(0)) - 1
        first, start, lineno = read[i]
        nxt, end, _ = read[i + 1] if i + 1 < len(read) else (self.filled, self.pos, 0)
        lines = self.text[start:end].splitlines(True)
        j = k - first
        if nxt - first != len(lines):  # the piece has lines without a key
            j = [n for n, line in enumerate(lines) if geometry._holds_key(line)][j]
        self.pos = start + sum(map(len, lines[: j + 1]))
        self.lineno = lineno + j + 1
        self.filled = s
        self.read = []
        self.size = geometry._FIRST_PIECE

    def _text_copies(self, period: int) -> int:
        """The copies, from ``pos`` on, of the text of the last ``period``
        keys: they are added to the keys unconverted."""
        text, end = self.text, self.pos
        start, lines = _block_text(text, end, period)
        width = end - start
        count = geometry._copies(text, end, width)
        if count:
            keys, filled = self.keys, self.filled
            block = keys[filled - period : filled]
            per = max(1, geometry._SLICE // period)  # copies written at once
            for done in range(0, count, per):
                n = min(per, count - done) * period
                keys[filled : filled + n] = block * (n // period)
                filled += n
            self.filled = filled
            self.pos = end + count * width
            self.lineno += count * lines
            if text[end - 1] == "\r" and text.startswith("\n", self.pos):
                self.pos += 1  # the last copy's '\r' and this '\n' are one break
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
            if geometry._holds_key(line):
                if found == period:
                    return start, n
                found += 1
            start -= len(line)
        if not lo:
            return 0, len(lines)
        width *= 2
