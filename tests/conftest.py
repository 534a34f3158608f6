"""Shared worked examples, strategies, and definition-literal oracles."""

from __future__ import annotations

import functools
import random
import signal
from itertools import accumulate, permutations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import pytest
from hypothesis import strategies as st

import bstbounds as bb
from bstbounds.alternation import _build_tree
from bstbounds.geometry import (
    ParseError,
    Point,
    PointSet,
    hflip,
    require_distinct_xy,
    require_distinct_y,
    rotate90,
    time_reverse,
)
from bstbounds.mixing import merged_blocks

# Trace with a repeated key; its alternation value for the five-leaf
# tree ((1 (2 3)) (4 5)) is 11.
SIX_TRACE = [4, 1, 3, 5, 4, 2]
SIX_TREE_TEXT = "((1 (2 3)) (4 5))"
SIX_ALT = 11

# Eleven-access trace whose point (4, 9) has a five-point funnel that
# alternates sides three times.
FUNNEL_TRACE = [4, 6, 3, 5, 1, 7, 2, 1, 4, 6, 3]
FUNNEL_POINT = (4, 9)
FUNNEL_LEFT = [(3, 3), (2, 7), (1, 8)]
FUNNEL_RIGHT = [(5, 4), (7, 6)]

# Smallest set whose funnel value changes under time reversal: 3 vs 2.
TRIO = PointSet([(1, 1), (3, 2), (2, 3)])

# One valid z-rectangle; the same shape with a blocking interior point;
# four points whose keys appear in the wrong relative order.
ZR_VALID = PointSet([(3, 1), (1, 2), (4, 3), (2, 4)])
ZR_VALID_ROLES = ((2, 4), (1, 2), (3, 1), (4, 3))
ZR_BLOCKED = PointSet([(6, 2), (2, 4), (8, 6), (4, 8), (5, 5)])
ZR_BLOCKED_ROLES = ((4, 8), (2, 4), (6, 2), (8, 6))
ZR_MISORDERED = PointSet([(2, 1), (1, 2), (4, 3), (3, 4)])

# Seven-access sweep example with known added sets, type labels, and
# the z-rectangle charged by the only type-c point.
SWEEP_SET = PointSet([(4, 0), (0, 1), (2, 2), (6, 3), (1, 4), (3, 5), (5, 6)])
SWEEP_UP_ADDED = {(0, 2), (2, 3), (4, 3), (0, 4), (1, 5), (2, 5), (3, 6), (4, 6)}
SWEEP_DOWN_ADDED = {(4, 1), (4, 2), (2, 4), (6, 4), (4, 5), (6, 5), (6, 6)}
SWEEP_LABELS = {
    (0, 2): "a",
    (2, 3): "c",
    (4, 3): "a",
    (0, 4): "ab",
    (1, 5): "b",
    (2, 5): "ab",
    (3, 6): "b",
    (4, 6): "ab",
}


class ZRect(NamedTuple):
    """One z-rectangle found by ``zrects_forced_roles``: its four points
    by role."""

    top: Point
    left: Point
    bottom: Point
    right: Point


SWEEP_ZRECT = ZRect(top=(3, 5), left=(2, 2), bottom=(4, 0), right=(6, 3))

WORKED_EXAMPLES = [
    bb.from_trace(SIX_TRACE),
    bb.from_trace(FUNNEL_TRACE),
    TRIO,
    ZR_VALID,
    ZR_BLOCKED,
    ZR_MISORDERED,
    SWEEP_SET,
]


# Seconds one test may run; the slowest takes about 3 s.  A tree link
# that closes a cycle makes a kernel loop forever, and this ends the
# session with a failure instead of stalling it.
_TEST_DEADLINE = 120


class _Overrun(BaseException):
    """A test ran past ``_TEST_DEADLINE``.  Not an ``Exception``, so that
    Hypothesis does not take it for a failing example and replay it."""


@pytest.fixture(autouse=True)
def _deadline():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    expired = []

    def expire(signum, frame):
        expired.append(signum)
        raise _Overrun(f"ran past {_TEST_DEADLINE} s: a kernel may loop forever")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_TEST_DEADLINE)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if expired:  # the test fails with the overrun; the session ends here
        pytest.exit(f"a test ran past {_TEST_DEADLINE} s", returncode=1)


def pointset_of_trace(keys: list[int]) -> PointSet:
    """The frozenset construction of a trace's point set, kept as an
    oracle for ``from_trace``, which stores the key column as it is."""
    return PointSet((x, i) for i, x in enumerate(keys, start=1))


@pytest.fixture
def by_y_builds(monkeypatch) -> list[PointSet]:
    """The point sets whose cached ``by_y`` gets built during the test,
    in order; the property stays cached, as it is outside the test."""
    built: list[PointSet] = []
    real = PointSet.by_y.func

    def spying(P):
        built.append(P)
        return real(P)

    spy = functools.cached_property(spying)
    spy.__set_name__(PointSet, "by_y")
    monkeypatch.setattr(PointSet, "by_y", spy)
    return built


def perm_pointset(n: int, seed: int) -> PointSet:
    return bb.from_trace(bb.random_permutation(n, seed))


def seeded_perms(count: int, max_n: int, seed: int, min_n: int = 1):
    """Deterministic stream of random-permutation point sets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        yield perm_pointset(n, rng.randrange(2**63))


def rect_points(P: PointSet, a: Point, b: Point) -> set[Point]:
    """All points of P inside the closed rectangle spanned by a and b."""
    x_lo, x_hi = min(a[0], b[0]), max(a[0], b[0])
    y_lo, y_hi = min(a[1], b[1]), max(a[1], b[1])
    return {(x, y) for x, y in P if x_lo <= x <= x_hi and y_lo <= y <= y_hi}


def funnel_brute(P: PointSet, p: Point) -> tuple[list[Point], list[Point]]:
    """Definition-literal funnel: test every candidate's rectangle."""
    left = [
        q
        for q in P.by_y
        if q[1] < p[1] and q[0] < p[0] and rect_points(P, p, q) == {p, q}
    ]
    right = [
        q
        for q in P.by_y
        if q[1] < p[1] and q[0] > p[0] and rect_points(P, p, q) == {p, q}
    ]
    return left, right


def small_traces() -> list[list[int]]:
    """The bounded-exhaustive inputs, shortest first, so the first one a
    kernel fails is a smallest witness: every permutation of 1..n with
    n <= 6 (873), and every trace over the keys 1-3 of length at most 6
    that repeats a key (1,077)."""
    perms = [list(p) for n in range(1, 7) for p in permutations(range(1, n + 1))]
    repeats = [list(t) for n in range(2, 7) for t in product((1, 2, 3), repeat=n) if len(set(t)) < n]
    return sorted(perms + repeats, key=len)


SMALL_TRANSFORMS: dict[str, Callable[[PointSet], PointSet]] = {
    "as-is": lambda P: P,
    "rotate90": rotate90,
    "hflip": hflip,
    "time_reverse": time_reverse,
}


@functools.cache
def small_inputs(transform: str) -> list[tuple[list[int], PointSet]]:
    """Each of ``small_traces`` with its point set under ``transform``."""
    return [(t, SMALL_TRANSFORMS[transform](bb.from_trace(t))) for t in small_traces()]


coords = st.integers(-50, 50)


@st.composite
def point_sets(
    draw, max_size: int = 12, distinct_x: bool = False, key_span: int = 50
) -> PointSet:
    """Random point sets with distinct y; optionally distinct x too.

    x is drawn from [-key_span, key_span]; a small span makes repeated
    x common.
    """
    ys = draw(st.lists(coords, unique=True, max_size=max_size))
    xs = draw(
        st.lists(
            st.integers(-key_span, key_span),
            unique=distinct_x,
            min_size=len(ys),
            max_size=len(ys),
        )
    )
    return PointSet(zip(xs, ys))


def traces(max_keys: int = 6, max_size: int = 40):
    """Random traces over few keys, so that keys repeat."""
    return st.lists(st.integers(1, max_keys), max_size=max_size)


@st.composite
def disjoint_int_sets(draw, max_size: int = 20) -> tuple[set[int], set[int]]:
    pool = draw(st.lists(st.integers(-100, 100), unique=True, max_size=max_size))
    mask = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    left = {v for v, lm in zip(pool, mask) if lm}
    return left, set(pool) - left


def mix(left: Iterable[int], right: Iterable[int]) -> str:
    """Label the sorted union of two disjoint sets by origin ('L'/'R')."""
    L, R = set(left), set(right)
    if L & R:
        raise ValueError(f"mix: sets overlap on {sorted(L & R)}")
    return "".join("L" if v in L else "R" for v in sorted(L | R))


def blocks(s: str) -> int:
    """Number of maximal runs of equal symbols; 0 for the empty string."""
    if bad := set(s) - {"L", "R"}:
        raise ValueError(f"blocks: alphabet is {{L,R}}, got {sorted(bad)}")
    if not s:
        return 0
    return 1 + sum(1 for a, b in zip(s, s[1:]) if a != b)


def zrects_forced_roles(P: PointSet) -> list[ZRect]:
    """Cubic z-rectangle scan, kept as an oracle for ``zrects``.

    For a candidate (top, bottom) pair the other two roles are forced:
    the left point must be the rightmost point left of the top within
    the open y-band, and the right point the leftmost point right of
    the bottom.  Each forced quadruple is then checked against the full
    definition.  Returns the witnesses, sorted.
    """
    pts = P.by_y
    found = []
    for ti in range(len(pts)):  # top point
        px, py = pts[ti]
        for tr in range(ti):  # bottom point, strictly earlier in time
            rx, ry = pts[tr]
            if rx <= px:
                continue
            qx = qy = sx = sy = None
            for tb in range(tr + 1, ti):
                bx, by = pts[tb]
                if bx < px and (qx is None or bx > qx):
                    qx, qy = bx, by
                if bx > rx and (sx is None or bx < sx):
                    sx, sy = bx, by
            if qx is None or sx is None:
                continue
            if not (qx < px < rx < sx and ry < qy < sy < py):
                continue
            band_hits = sum(1 for tb in range(tr + 1, ti) if qx <= pts[tb][0] <= sx)
            if band_hits == 2:  # exactly the forced left and right points
                found.append(ZRect((px, py), (qx, qy), (rx, ry), (sx, sy)))
    found.sort()
    return found


def _zrect_holds(P: PointSet, p: Point, q: Point, r: Point, s: Point) -> bool:
    return (
        q[0] < p[0] < r[0] < s[0]
        and r[1] < q[1] < s[1] < p[1]
        and sum(1 for x, y in P if q[0] <= x <= s[0] and r[1] <= y <= p[1]) == 4
    )


def is_zrect(P: PointSet, p: Point, q: Point, r: Point, s: Point) -> bool:
    """Check the three z-rectangle conditions for roles (top p, left q,
    bottom r, right s)."""
    require_distinct_xy(P, "is_zrect")
    for pt in (p, q, r, s):
        if pt not in P:
            raise ValueError(f"is_zrect: {pt} not in the point set")
    return _zrect_holds(P, p, q, r, s)


def zrects_brute(P: PointSet, max_points: int = 12) -> int:
    """Oracle count: test every ordered quadruple against the definition."""
    require_distinct_xy(P, "zrects_brute")
    if len(P) > max_points:
        raise ValueError(
            f"zrects_brute: {len(P)} points exceeds the cap of {max_points}"
        )
    return sum(_zrect_holds(P, *roles) for roles in permutations(P, 4))


def alt_bound_filtered(P: PointSet, tree: bb.Tree) -> int:
    """Alternation bound by one filtered copy of the keys per tree node,
    kept as an oracle for ``alt_bound``: at every internal node, count
    the side switches of the keys under it, then recurse into both
    sides with the keys each side holds."""
    require_distinct_y(P, "alt_bound_filtered")
    assert bb.tree_leaves(tree) == list(P.keys)
    total = 0
    stack = [(tree, [x for x, _ in P.by_y])]
    while stack:
        node, xs = stack.pop()
        if isinstance(node, int) or not xs:
            continue
        left, right = node
        boundary = max(bb.tree_leaves(left))
        last = 0
        for x in xs:
            side = 1 if x <= boundary else 2
            if side != last:
                total += 1
                last = side
        stack.append((left, [x for x in xs if x <= boundary]))
        stack.append((right, [x for x in xs if x > boundary]))
    return total


def enumerate_trees(keys: Sequence[int]) -> Iterator[bb.Tree]:
    """All full binary trees over the sorted keys (Catalan many)."""
    keys = list(keys)
    if not keys:
        raise ValueError("enumerate_trees: need at least one key")

    def gen(lo: int, hi: int) -> Iterator[bb.Tree]:
        if lo == hi:
            yield keys[lo]
            return
        for k in range(lo, hi):
            for left in gen(lo, k):
                for right in gen(k + 1, hi):
                    yield (left, right)

    return gen(0, len(keys) - 1)


def alt_brute(P: PointSet, max_keys: int = 10) -> bb.AltWitness:
    """Exhaustive maximum over all reference trees; oracle for alt_opt."""
    require_distinct_y(P, "alt_brute")
    if not len(P):
        raise ValueError("alt_brute: empty point set")
    keys = P.keys
    if len(keys) > max_keys:
        raise ValueError(
            f"alt_brute: {len(keys)} distinct keys exceeds the cap of {max_keys}"
        )
    best: bb.AltWitness | None = None
    for tree in enumerate_trees(keys):
        v = bb.alt_bound(P, tree)
        if best is None or v > best.value:
            best = bb.AltWitness(v, tree)
    assert best is not None
    return best


def parse_trace_whole(text: str) -> list[int]:
    """Trace parser over ``text.splitlines()`` in one piece, kept as an
    oracle for the chunked ``parse_trace``."""
    keys: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            keys.append(int(line))
        except ValueError:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 1:
                raise ParseError(f"expected one integer, got {line.strip()!r}", lineno) from None
            raise ParseError(f"not an integer: {fields[0]!r}", lineno) from None
    return keys


def alt_opt_merged_table(P: PointSet) -> bb.AltWitness:
    """Interval DP over a table of merged access times, kept as an oracle
    for ``alt_opt``.

    ``ys[i][j]`` holds the sorted times of keys i..j, and every split k
    costs one ``merged_blocks(ys[i][k], ys[k + 1][j])``.  Same recurrence
    and leftmost-split tie rule as ``alt_opt``, so the witness tree must
    match too.
    """
    keys = sorted({x for x, _ in P})
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    times: list[list[int]] = [[] for _ in range(n)]
    for x, y in P.by_y:
        times[index[x]].append(y)
    ys = [[times[i] if i == j else [] for j in range(n)] for i in range(n)]
    value = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            ys[i][j] = sorted(ys[i][j - 1] + times[j])
            best = -1
            for k in range(i, j):
                v = merged_blocks(ys[i][k], ys[k + 1][j]) + value[i][k] + value[k + 1][j]
                if v > best:
                    best, split[i][j] = v, k
            value[i][j] = best

    def build(i: int, j: int):
        if i == j:
            return keys[i]
        k = split[i][j]
        return (build(i, k), build(k + 1, j))

    return bb.AltWitness(value[0][n - 1], build(0, n - 1))


def alt_opt_linked(P: PointSet) -> bb.AltWitness:
    """Interval DP over dancing links, kept as an oracle for ``alt_opt``.

    Consecutive accesses to one key are collapsed.  The left end i runs
    down from n-1 with the accesses to keys i..n-1 linked in time order;
    on a copy of the links, j runs down from n-1, the crossing counts of
    i..j are saved as the prefix sums of a difference array (+1 at a,
    -1 at b for each linked pair of ranks a < b), and key j's accesses
    are unlinked, each unlink replacing the pairs (prev, node) and
    (node, next) with (prev, next).  O(n * m + n^3); same recurrence and
    leftmost-split tie rule as ``alt_opt``, so the witness tree must
    match too.
    """
    require_distinct_y(P, "alt_opt")
    if not len(P):
        raise ValueError("alt_opt: empty point set")
    keys = P.keys
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    ranks: list[int] = []
    for x in P.xs:
        r = index[x]
        if not ranks or ranks[-1] != r:
            ranks.append(r)
    positions: list[list[int]] = [[] for _ in range(n)]
    for t, r in enumerate(ranks):
        positions[r].append(t)

    # The accesses to keys i..n-1 in time order (-1 ends the list), and
    # the difference array of their crossing pairs.  A pair of equal
    # ranks adds and subtracts at one index, so it counts nothing.
    linked_prev = [-1] * len(ranks)
    linked_next = [-1] * len(ranks)
    linked_diff = [0] * n
    head = -1
    value = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        # Link key i in; an access's predecessor is the last earlier
        # access to a key >= i.
        for t in positions[i]:
            p = t - 1
            while p >= 0 and ranks[p] < i:
                p -= 1
            if p < 0:
                q, head = head, t
            else:
                q = linked_next[p]
                linked_next[p] = t
            linked_prev[t], linked_next[t] = p, q
            if q >= 0:
                linked_prev[q] = t
                b = ranks[q]
                linked_diff[i] += 1
                linked_diff[b] -= 1
            if p >= 0:
                a = ranks[p]
                linked_diff[i] += 1
                linked_diff[a] -= 1
                if q >= 0:  # the pair (p, q) is split
                    if a < b:
                        linked_diff[a] -= 1
                        linked_diff[b] += 1
                    else:
                        linked_diff[b] -= 1
                        linked_diff[a] += 1

        # Unlink keys n-1..i+1 from a copy; before key j goes,
        # rows[j][k - i] = crossings(i..j, k), as no kept rank exceeds j.
        prev, nxt, diff = linked_prev[:], linked_next[:], linked_diff[:]
        rows: list[list[int]] = [[] for _ in range(n)]
        for j in range(n - 1, i, -1):
            rows[j] = list(accumulate(diff[i:j]))
            for t in positions[j]:
                p, q = prev[t], nxt[t]
                if p >= 0:
                    nxt[p] = q
                    a = ranks[p]
                    diff[a] -= 1
                    diff[j] += 1
                if q >= 0:
                    prev[q] = p
                    b = ranks[q]
                    diff[b] -= 1
                    diff[j] += 1
                    if p >= 0:  # the pair (p, q) is new
                        if a < b:
                            diff[a] += 1
                            diff[b] -= 1
                        else:
                            diff[b] += 1
                            diff[a] -= 1

        value_i, split_i = value[i], split[i]
        for j in range(i + 1, n):
            row = rows[j]
            best = -1
            best_k = i
            for k in range(i, j):
                v = 1 + row[k - i] + value_i[k] + value[k + 1][j]
                if v > best:
                    best = v
                    best_k = k
            value_i[j] = best
            split_i[j] = best_k

    return bb.AltWitness(value[0][n - 1], _build_tree(keys, lambda i, j: split[i][j]))


def alt_opt_interval_scan(P: PointSet) -> bb.AltWitness:
    """Interval DP with one pass over the accesses per key interval, kept
    as an oracle for ``alt_opt``.

    For each interval [i..j] the accesses to keys i..j are filtered out
    of the whole trace, and every consecutive pair of different ranks
    a < b adds +1 at a and -1 at b to a difference array whose prefix sum
    at k counts the crossings of split k.  O(n^2 * m); same recurrence
    and leftmost-split tie rule as ``alt_opt``, so the witness tree must
    match too.
    """
    require_distinct_y(P, "alt_opt")
    if not len(P):
        raise ValueError("alt_opt: empty point set")
    keys = P.keys
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    ranks = [index[x] for x, _ in P.by_y]

    value = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            kept = [r for r in ranks if i <= r <= j]
            diff = [0] * n
            for a, b in zip(kept, kept[1:]):
                if a < b:
                    diff[a] += 1
                    diff[b] -= 1
                elif b < a:
                    diff[b] += 1
                    diff[a] -= 1
            best = -1
            best_k = i
            crossings = 0
            for k in range(i, j):
                crossings += diff[k]
                v = 1 + crossings + value[i][k] + value[k + 1][j]
                if v > best:
                    best = v
                    best_k = k
            value[i][j] = best
            split[i][j] = best_k

    return bb.AltWitness(value[0][n - 1], _build_tree(keys, lambda i, j: split[i][j]))


def sweep_up_rescan(P: PointSet) -> tuple[Point, ...]:
    """Up-sweep that rescans the whole current set for every access,
    kept as an oracle for ``sweep_add_up``.

    Walks the current points (accesses and added corners) backwards,
    one row at a time; the rightmost point left of the access in a row
    is a partner when it lies right of every partner found above it.
    Emits the partners of one access in that order: descending y.
    """
    current: list[Point] = []  # grows in nondecreasing y
    added: list[Point] = []
    seen: set[Point] = set()
    for px, py in P.by_y:
        partners: list[Point] = []
        hi: int | None = None
        i = len(current) - 1
        while i >= 0:
            gy = current[i][1]
            gbest: int | None = None
            while i >= 0 and current[i][1] == gy:
                qx = current[i][0]
                if qx < px and (gbest is None or qx > gbest):
                    gbest = qx
                i -= 1
            if gbest is not None and (hi is None or gbest > hi):
                partners.append((gbest, gy))
                hi = gbest
                if hi == px - 1:
                    break  # no key fits strictly between any more
        step: list[Point] = []
        for qx, qy in partners:
            corner = (qx, py)
            if corner not in seen:
                seen.add(corner)
                step.append(corner)
        added.extend(step)
        current.append((px, py))
        current.extend(step)
    return tuple(added)


def sweep_down_rescan(P: PointSet) -> tuple[Point, ...]:
    """Oracle for ``sweep_add_down``: the rescan on the mirrored set,
    mirrored back."""
    return tuple((-x, y) for x, y in sweep_up_rescan(hflip(P)))


def classify_added_scan(P: PointSet, out) -> list[tuple[Point, str, Point | None]]:
    """Per-point scan of every added point, kept as an oracle for
    ``classify_added``: (point, labels, z-rectangle top) per added
    point, in sweep order."""
    pts = out.added
    access_by_y = {y: (x, y) for x, y in P}
    result = []
    for x, y in pts:
        is_a = max(px for px, py in pts if py == y) == x
        is_b = max(py for px, py in pts if px == x) == y
        top = None
        if not (is_a or is_b):
            top = access_by_y.get(min(ay for ax, ay in pts if ax == x and ay > y))
        labels = "a" * is_a + "b" * is_b + "c" * (top is not None)
        result.append(((x, y), labels, top))
    return result


def parse_tree_recursive(text: str) -> bb.Tree:
    """Recursive-descent tree parser, kept as an oracle for the iterative
    ``parse_tree``: same trees, same error for every malformed input."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> bb.Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("parse_tree: unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("parse_tree: expected ')'")
            pos += 1
            return (left, right)
        if tok == ")":
            raise ValueError("parse_tree: unexpected ')'")
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"parse_tree: bad token {tok!r}") from None

    tree = parse()
    if pos != len(tokens):
        raise ValueError("parse_tree: trailing input")
    return tree


def random_tree_recursive(keys: list[int], rng: random.Random) -> bb.Tree:
    """Recursive random split, kept as an oracle for the iterative
    ``random_tree``: same draws in the same order, so the same tree."""
    if len(keys) == 1:
        return keys[0]
    k = rng.randrange(1, len(keys))
    return (random_tree_recursive(keys[:k], rng), random_tree_recursive(keys[k:], rng))


def bit_reversal_bitwise(k: int) -> list[int]:
    """Each v < 2^k with its k bits reversed one at a time, kept as an
    oracle for the doubling ``bit_reversal``."""
    out = []
    for v in range(1 << k):
        rev = 0
        for bit in range(k):
            if v >> bit & 1:
                rev |= 1 << (k - 1 - bit)
        out.append(rev)
    return out


def out_of_sweep_order(added: tuple[Point, ...]) -> list[tuple[Point, ...]]:
    """Three reorderings of a sweep's corners that break sweep order,
    ascending (y, x): the list reversed, its first two rows swapped, and
    the first two corners of one row swapped."""
    rows: dict[int, list[Point]] = {}
    for p in added:
        rows.setdefault(p[1], []).append(p)
    first, second, *rest = rows.values()
    i = next(i for i, (p, q) in enumerate(zip(added, added[1:])) if p[1] == q[1])
    return [
        added[::-1],
        tuple(second + first + [p for row in rest for p in row]),
        added[:i] + (added[i + 1], added[i]) + added[i + 2 :],
    ]
