"""The trace reader, which folds a trace's repeated blocks as it reads it.

``parse_trace`` counts the copies of each block it finds on the text
and never converts them.  Whatever the text looks like, it must give
the keys, or the error (message and line), of ``parse_trace_whole``,
and the plan it hands out must be ``_repeat_plan`` of its keys, at every
piece size.
"""

import random
import tracemalloc

import pytest

import bstbounds as bb
from bstbounds import cli, fold, geometry
from bstbounds.geometry import ParseError, parse_trace
from conftest import parse_trace_whole

CHUNKS = (1, 2, 3, 4, 5, 6, 7, 8, 1 << 16)

BLOCK = [5, -3, 12, 0, 7]


def _read(text):
    """``parse_trace``'s keys, plan and distinct keys, or its error."""
    plan: list = []
    met: set = set()
    try:
        keys = parse_trace(text, plan, met)
    except ParseError as exc:
        return str(exc), exc.line
    return keys, plan, met


def _read_whole(text):
    """The same from the whole-text parser and the key-list plan."""
    try:
        keys = parse_trace_whole(text)
    except ParseError as exc:
        return str(exc), exc.line
    return keys, geometry._repeat_plan(keys), set(keys)


def _assert_read_as_whole(monkeypatch, text, chunks=CHUNKS):
    want = _read_whole(text)
    for chunk in chunks:
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        assert _read(text) == want, f"_CHUNK={chunk}"
    return want


def _lines(keys, line="{}\n"):
    return "".join(line.format(x) for x in keys)


_FORMATS = {
    "plain": _lines(BLOCK) * 40,
    "leading-zeros": _lines(BLOCK, "0{}\n").replace("0-", "-0") * 40,
    "spaces-and-tabs": _lines(BLOCK, " {}\t\n") * 40,
    "crlf": _lines(BLOCK, "{}\r\n") * 40,
    "cr-only": _lines(BLOCK, "{}\r") * 40,
    "cr-ends-copies-then-lf": (_lines(BLOCK[:-1]) + "7\r") * 40 + "\n" + _lines(BLOCK) * 3,
    "comment-inside-copies": (_lines(BLOCK[:2]) + "# c\n" + _lines(BLOCK[2:])) * 40,
    "blank-between-copies": (_lines(BLOCK) + "\n") * 40,
    "comments-between-some-copies": "".join(
        _lines(BLOCK) + ("# copy %d\n" % i if i % 7 == 3 else "") for i in range(40)
    ),
    "no-final-newline": (_lines(BLOCK) * 40)[:-1],
    "other-breaks": "".join(_lines(BLOCK, "{}" + brk) for brk in ["\n", "\x1c", "\x85"] * 13),
    "two-blocks": _lines(BLOCK) * 30 + _lines([4, 9]) * 50 + _lines(BLOCK) * 3,
    "one-key-block": "# header\n" + _lines([8]) * 300,
    # Negative controls: copies whose text differs from the block's.
    "05-for-5-in-one-copy": _lines(BLOCK) * 17 + _lines(BLOCK, "0{}\n").replace("0-", "-0")
    + _lines(BLOCK) * 22,
    "last-copy-changed": _lines(BLOCK) * 39 + _lines(BLOCK[:-1] + [70]),
    "last-copy-cut-short": _lines(BLOCK) * 39 + _lines(BLOCK[:3]),
}


@pytest.mark.parametrize("text", _FORMATS.values(), ids=_FORMATS.keys())
def test_folded_read_equals_whole_read(monkeypatch, text):
    keys, plan, _ = _assert_read_as_whole(monkeypatch, text)
    assert plan, "the text has a block to fold"


def test_a_copy_that_differs_across_pieces(monkeypatch):
    # A block of 3000 keys is longer than the pieces read after a fold.
    # One copy spells a key with a leading zero, so it is compared as
    # keys across several pieces; the last copy is cut short mid-piece.
    block = random.Random(5).sample(range(10**4), 3000)
    odd = _lines(block[:1500]) + f"0{block[1500]}\n" + _lines(block[1501:])
    text = _lines(block) * 3 + odd + _lines(block) * 2 + _lines(block[:2000])
    keys, plan, _ = _assert_read_as_whole(monkeypatch, text, (8, 1 << 16))
    assert plan == [(6000, 3000, 4)]


def test_text_compared_a_few_characters_at_a_time(monkeypatch):
    monkeypatch.setattr(geometry, "_SLICE", 3)
    for text in _FORMATS.values():
        _assert_read_as_whole(monkeypatch, text, (2, 1 << 16))


@pytest.mark.parametrize(
    "text, line",
    [
        (_lines(BLOCK) * 3000 + "x\n", 15_001),
        (_lines(BLOCK) * 2000 + _lines(BLOCK[:2]) + "1 2\n" + _lines(BLOCK) * 5, 10_003),
        (_lines(BLOCK, "{}\r") * 1000 + "# c\r\r" + "y\r", 5_003),
        # The last copy's '\r' and the '\n' after it are one break.
        ((_lines(BLOCK[:-1]) + "7\r") * 1000 + "\nx\n", 5_001),
        ((_lines(BLOCK) + "\n") * 1000 + "0x10\n", 6_001),
    ],
    ids=[
        "after-the-copies",
        "inside-a-late-copy",
        "after-cr-copies",
        "after-cr-copies-then-lf",
        "after-blank-lines",
    ],
)
def test_an_error_after_thousands_of_folded_copies(monkeypatch, text, line):
    message, at = _assert_read_as_whole(monkeypatch, text, (1, 5, 1 << 16))
    assert at == line


def _block_text(rng: random.Random) -> str:
    """Blocks repeated back to back, most copies written alike, some
    with another spelling of a key, other breaks, or a comment."""
    keys = rng.sample(range(-20, 40), rng.randint(1, 8))

    def line(x):
        text = str(x)
        r = rng.random()
        if r < 0.05 and x >= 0:
            text = "0" + text
        elif r < 0.1:
            text = f" {text}\t"
        text += rng.choice(["\n"] * 8 + ["\r\n", "\r", "\x1c", "\x85"])
        r = rng.random()
        return text + ("# c\n" if r < 0.03 else "\n" if r < 0.05 else "x\n" if r < 0.055 else "")

    pieces = []
    for _ in range(rng.randint(1, 5)):
        block = [rng.choice(keys) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.7:
            block = list(dict.fromkeys(block))
        plain = _lines(block)
        for _ in range(rng.choice([1, 2, 3, 5, 40, 300])):
            pieces.append(plain if rng.random() < 0.9 else "".join(map(line, block)))
        pieces.append("".join(map(line, block[: rng.randint(0, len(block))])))
    text = "".join(pieces)
    return text[:-1] if rng.random() < 0.3 else text


def test_folded_read_equals_whole_read_on_seeded_block_texts(monkeypatch):
    rng = random.Random(41)
    for _ in range(300):
        _assert_read_as_whole(monkeypatch, _block_text(rng), (1, 3, 8, 1 << 16))


def _converted(monkeypatch) -> list[int]:
    """The number of keys of each piece the reader converts."""
    counts: list[int] = []
    convert = geometry._parse_trace_lines

    def counting(lines, first):
        piece = convert(lines, first)
        counts.append(len(piece))
        return piece

    monkeypatch.setattr(geometry, "_parse_trace_lines", counting)
    return counts


def test_copies_are_counted_on_the_text_and_never_converted(monkeypatch):
    converted = _converted(monkeypatch)
    for block in ([3, 1, 4, 15, 9, 2, 6, 5], [10**30 + x for x in range(8)]):
        plan: list = []
        assert parse_trace(_lines(block) * 1000, plan) == block * 1000
        assert plan == [(16, 8, 998)]
        assert sum(converted) < 0.05 * 8000
        converted.clear()
    trace = bb.separation_sequence(bb.SeparationParams(3))
    assert parse_trace(_lines(trace)) == trace
    assert sum(converted) < 0.01 * len(trace)


def test_copies_are_written_a_slice_at_a_time():
    text = "5\n" * 10**6
    tracemalloc.start()
    try:
        keys = parse_trace(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys == [5] * 10**6
    # The key list is 8 MB; a slice of 2^16 copies of one key is 0.5 MiB.
    assert peak < 8 * 10**6 + (2 << 20)


def test_a_key_repeated_late_stays_inside_the_input_cap():
    # 50,000 new keys, then ten again: the keys met so far and the walk's
    # positions are both held once the walk starts.  The load peaks at
    # about 27 bytes per input byte; adding the walk's positions to the
    # set of keys as a dict would size the set for both, about 39.
    keys = random.Random(4).sample(range(10**6), 50_000)
    text = _lines(keys + keys[:10])
    tracemalloc.start()
    try:
        plan: list = []
        met: set = set()
        P = geometry.from_trace(parse_trace(text, plan, met), plan, sorted(met))
        assert len(P.keys) == 50_000 and P.repeats == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * len(text) < cli._PEAK_BYTES_PER_INPUT_BYTE * len(text)


def test_distinct_keys_are_read_without_a_walk(monkeypatch):
    walks = []
    monkeypatch.setattr(geometry, "_repeat_plan", lambda *args: walks.append(args))
    monkeypatch.setattr(fold, "read_on", lambda *args: walks.append(args))
    keys = random.Random(2).sample(range(-10**6, 10**6), 50_000)
    plan: list = []
    met: set = set()
    assert parse_trace(_lines(keys), plan, met) == keys
    assert (walks, plan, met) == ([], [], set(keys))


def test_a_loaded_trace_caches_the_plan_and_keys_of_its_text(tmp_path):
    for name, text in _FORMATS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, newline="")
        P = cli.load_pointset(str(path))
        assert list(P.xs) == parse_trace_whole(text)
        assert P.__dict__["repeats"] == geometry._repeat_plan(P.xs)
        assert P.has_distinct_x is False
        assert P.keys == tuple(sorted(set(P.xs)))
