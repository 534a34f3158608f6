from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstbounds as bb
from bstbounds import geometry
from bstbounds.geometry import (
    ParseError,
    PointSet,
    from_trace,
    hflip,
    parse_pointset,
    parse_trace,
    rotate90,
    serialize_pointset,
    serialize_trace,
    time_reverse,
)

from conftest import parse_trace_whole, point_sets, pointset_of_trace, rotate90_sorted


def test_from_trace():
    assert from_trace([4, 1, 3, 5, 4, 2]) == PointSet(
        [(4, 1), (1, 2), (3, 3), (5, 4), (4, 5), (2, 6)]
    )
    assert from_trace([]) == PointSet()
    assert from_trace([7]) == PointSet([(7, 1)])


@given(st.lists(st.integers(-6, 6), max_size=40))
def test_from_trace_matches_frozenset_construction(keys):
    # Each property is read first on a fresh time-ordered set, before
    # anything has built its frozenset.
    def fresh():
        return from_trace(keys)

    old = pointset_of_trace(keys)
    assert len(fresh()) == len(old)
    assert sorted(fresh()) == sorted(old)
    assert fresh().by_y == old.by_y
    assert list(fresh().xs) == list(old.xs) == keys
    assert list(fresh().ys) == list(old.ys) == list(range(1, len(keys) + 1))
    assert list(fresh()) == old.by_y
    assert fresh().keys == tuple(sorted(set(keys)))
    assert fresh().has_distinct_x == old.has_distinct_x
    assert serialize_pointset(fresh()) == serialize_pointset(old)
    ops = (rotate90, hflip, time_reverse) if old.has_distinct_x else (hflip, time_reverse)
    for op in ops:
        assert op(fresh()) == op(old)
        assert op(fresh()).by_y == op(old).by_y
    P = fresh()
    len(P), list(P), P.keys, P.has_distinct_x
    assert "by_y" not in vars(P)
    assert P.by_y == old.by_y
    serialize_pointset(P), *(op(P) for op in ops)
    assert "points" not in vars(P)
    assert fresh() == old and old == fresh()
    assert hash(fresh()) == hash(old)
    for p in old:
        assert p in fresh()
    for p in [(0, 0), (keys[0] if keys else 0, len(keys) + 1), (7, 1)]:
        assert (p in fresh()) == (p in old)


def test_from_trace_coordinate_flags():
    assert from_trace([3, 1, 2]).has_distinct_x
    assert not from_trace([3, 1, 3]).has_distinct_x


def test_time_reverse():
    assert time_reverse(PointSet([(1, 1), (3, 2), (2, 3)])) == PointSet(
        [(1, -1), (3, -2), (2, -3)]
    )
    assert time_reverse(PointSet()) == PointSet()


@pytest.mark.parametrize("m", [0, 1, 2, 7])
def test_time_reverse_keeps_a_trace_range(m):
    P = from_trace(list(range(m, 0, -1)))
    Q = time_reverse(P)
    assert isinstance(Q.ys, range)
    assert list(Q.ys) == [-y for y in reversed(list(P.ys))]
    assert list(Q.xs) == list(P.xs)[::-1]
    back = time_reverse(Q)
    assert isinstance(back.ys, range) and list(back.ys) == list(P.ys)


def test_rotate90():
    assert rotate90(PointSet([(3, 1), (1, 2), (4, 3), (2, 4)])) == PointSet(
        [(-1, 3), (-2, 1), (-3, 4), (-4, 2)]
    )
    assert rotate90(PointSet()) == PointSet()


def test_rotate90_refuses_repeated_keys():
    # Its two accesses of key 3 would share one time.
    with pytest.raises(ValueError, match="^rotate90: point set must have distinct x-coordinates$"):
        rotate90(from_trace([3, 1, 3]))


@given(point_sets(distinct_x=True))
def test_rotate90_equals_the_sorted_construction(P):
    Q, expected = rotate90(P), rotate90_sorted(P)
    assert (list(Q.xs), list(Q.ys)) == (expected.xs, expected.ys)


def test_pointset_refuses_a_repeated_time():
    with pytest.raises(ValueError, match="^PointSet: point set must have distinct y-coordinates$"):
        PointSet([(1, 5), (2, 5)])
    with pytest.raises(ValueError, match="distinct y"):
        PointSet([(3, 1), (1, 2), (3, 1), (-1, 1)])
    assert PointSet([(3, 1), (1, 2), (3, 1)]).by_y == [(3, 1), (1, 2)]  # equal points merge


@pytest.mark.parametrize("point", [(1.5, 1), (2, 2.9), ("3", 3), (3, "3")], ids=repr)
def test_pointset_takes_exact_integers_only(point):
    # Truncating the times 1.2 and 1.7 would put two points in one row.
    with pytest.raises(TypeError):
        PointSet([(0, 0), point])


def test_hflip():
    assert hflip(PointSet([(1, 1), (3, 2), (2, 3)])) == PointSet(
        [(-1, 1), (-3, 2), (-2, 3)]
    )


@given(point_sets(distinct_x=True))
def test_involutions(P):
    assert time_reverse(time_reverse(P)) == P
    assert hflip(hflip(P)) == P
    Q = P
    for _ in range(4):
        Q = rotate90(Q)
    assert Q == P


@given(point_sets(distinct_x=True))
def test_reverse_is_flip_of_half_turn(P):
    assert time_reverse(P) == hflip(rotate90(rotate90(P)))


# Each transform as a map of one point, for the sorted oracle below.
_POINT_MAPS = {
    rotate90: lambda p: (-p[1], p[0]),
    hflip: lambda p: (-p[0], p[1]),
    time_reverse: lambda p: (p[0], -p[1]),
}
_SMALL = st.integers(-3, 3)


@st.composite
def _built_sets(draw):
    """(set, its points): a set from each builder, with repeated x,
    points given twice (which merge), negative coordinates and the
    empty set."""
    kind = draw(st.sampled_from(["points", "trace", "parsed"]))
    if kind == "points":
        points = [(draw(_SMALL), y) for y in draw(st.lists(_SMALL, unique=True))]
        if points:
            points += draw(st.lists(st.sampled_from(points), max_size=3))
        return PointSet(points), points
    if kind == "trace":
        keys = draw(st.lists(_SMALL, max_size=12))
        return from_trace(keys), list(zip(keys, range(1, len(keys) + 1)))
    ys = draw(st.lists(st.integers(-20, 20), unique=True, max_size=12))
    points = [(draw(_SMALL), y) for y in ys]
    return parse_pointset("".join(f"{x} {y}\n" for x, y in points)), points


def _assert_columns_are_sorted_oracle(P, points):
    expected = sorted(frozenset(points), key=lambda p: p[1])
    assert list(P.xs) == [x for x, _ in expected]
    assert list(P.ys) == [y for _, y in expected]
    assert all(a < b for a, b in zip(P.ys, P.ys[1:]))
    assert list(P) == expected and len(P) == len(expected)
    assert P.keys == tuple(sorted({x for x, _ in expected}))
    assert P.has_distinct_x == (len(P.keys) == len(expected))
    assert P.by_y == expected
    assert P == PointSet(expected) and PointSet(expected) == P
    assert P.points == frozenset(expected)
    assert hash(P) == hash(frozenset(expected))


@settings(max_examples=300)
@given(_built_sets(), st.lists(st.sampled_from(list(_POINT_MAPS)), max_size=4))
def test_columns_match_a_sorted_oracle(built, ops):
    # Every builder, and every composition of up to four transforms, has
    # strictly ascending times; a rotation refuses repeated keys.
    P, points = built
    _assert_columns_are_sorted_oracle(P, points)
    Q, mapped = P, points
    for op in ops:
        if op is rotate90 and not Q.has_distinct_x:
            with pytest.raises(ValueError, match="distinct x"):
                rotate90(Q)
            break
        Q, mapped = op(Q), [_POINT_MAPS[op](p) for p in mapped]
        _assert_columns_are_sorted_oracle(Q, mapped)
    # No transform changed P, although hflip shares its ys column.
    _assert_columns_are_sorted_oracle(P, points)


def test_parse_pointset():
    assert parse_pointset("4 1\n1 2\n") == PointSet([(4, 1), (1, 2)])
    assert parse_pointset("# comment\n\n 4 1 \n") == PointSet([(4, 1)])


def test_parse_pointset_rejects_duplicate_y():
    with pytest.raises(ParseError, match="duplicate y"):
        parse_pointset("1 5\n2 5\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 5\n2 5\n", "line 2: duplicate y-coordinate 5 (first seen on line 1)"),
        (
            "# a 5\r\n\r\n 1 5\r\n# b\n2 6\r\n3 5\n",
            "line 6: duplicate y-coordinate 5 (first seen on line 3)",
        ),
        ("1 1\n2 2\n3 1\nx\n4 2\n", "line 3: duplicate y-coordinate 1 (first seen on line 1)"),
        ("1 1\n2 2\nx 1\n3 1\n", "line 3: not an integer pair: 'x 1'"),
        (
            "".join(f"{y} {y}\r\n" for y in range(30_000)) + "7 29999\n",
            "line 30001: duplicate y-coordinate 29999 (first seen on line 30000)",
        ),
    ],
    ids=["adjacent", "comments-and-crlf", "duplicate-before-junk", "junk-before-duplicate",
         "past-the-first-piece"],
)
def test_duplicate_y_names_its_first_line_at_every_piece_size(monkeypatch, text, message):
    for chunk in (1, 2, 3, 5, 1 << 16):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        with pytest.raises(ParseError) as exc:
            parse_pointset(text)
        assert str(exc.value) == message


def test_parse_pointset_reports_bad_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_pointset("1 1\n2 2\nthree\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_pointset("1 2 3\n")


def test_parse_trace():
    assert parse_trace("4\n1\n3\n") == [4, 1, 3]
    assert parse_trace("# hi\n\n-7\n") == [-7]
    with pytest.raises(ParseError, match="line 2"):
        parse_trace("1\n2 3\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_trace, "1 2\n", "line 1: expected one integer, got '1 2'"),
        (parse_pointset, "1\n", "line 1: expected `<x> <y>`, got '1'"),
    ],
    ids=["trace-refuses-a-pair", "pointset-refuses-a-key"],
)
def test_parsers_quote_a_line_of_the_other_width(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


# Line pieces as ``str.splitlines`` sees them: every break it knows
# that a trace may hold ('\r\n' built from '\r' and '\n' too),
# separators that are whitespace but no break, and lines of each kind.
_PARSE_PIECES = st.sampled_from(
    ["1", "-4", "#c", "x", "1 2", "", "\n", "\r\n", "\r", "\x1c", "\x85", " ", "\t"]
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=400)
@given(st.lists(_PARSE_PIECES, max_size=30).map("".join), st.integers(1, 8))
def test_chunked_parse_matches_whole_text_parse(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK", chunk)
        got = _parse_outcome(parse_trace, text)
        pointset = _parse_outcome(parse_pointset, text)
    assert got == _parse_outcome(parse_trace_whole, text)
    assert pointset == _parse_outcome(parse_pointset, text)


@pytest.mark.parametrize(
    "brk", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_every_line_break_cuts_a_piece(monkeypatch, brk):
    monkeypatch.setattr(geometry, "_CHUNK", 8)
    text = "".join(f"{y} {y}{brk}" for y in range(100))
    pieces = list(geometry.line_chunks(text))
    assert len(pieces) > 20
    assert [line for _, lines in pieces for line in lines] == text.splitlines()
    sizes = [len(lines) for _, lines in pieces]
    assert [first for first, _ in pieces] == list(accumulate([1] + sizes[:-1]))


def test_parse_trace_spans_default_chunks():
    keys = list(range(-3, 40_000))
    text = "\r\n".join(map(str, keys)) + "\r\nx\n"
    assert len(text) > 3 * geometry._CHUNK
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert (str(exc.value), exc.value.line) == _parse_outcome(parse_trace_whole, text)
    assert exc.value.line == len(keys) + 1
    assert parse_trace(text[: -len("x\n")]) == keys


@given(point_sets())
def test_pointset_round_trip(P):
    assert parse_pointset(serialize_pointset(P)) == P


def test_trace_round_trip():
    trace = [4, 1, 3, 5, 4, 2]
    assert parse_trace(serialize_trace(trace)) == trace
    assert serialize_trace([]) == ""


def test_serialization_is_ascending_y():
    text = serialize_pointset(PointSet([(2, 3), (1, 1), (5, 2)]))
    assert text == "1 1\n5 2\n2 3\n"


def test_pointset_is_a_set():
    assert PointSet([(1, 1), (1, 1)]) == PointSet([(1, 1)])
    assert len(PointSet([(1, 1), (2, 2)])) == 2
    assert (1, 1) in PointSet([(1, 1)])
    assert hash(PointSet([(1, 2)])) == hash(PointSet([(1, 2)]))
