"""Alternation lower bound for a fixed reference tree, and its optimizers.

A reference tree is a full binary tree whose leaves carry the distinct
keys in increasing order.  It is represented structurally: a leaf is a
bare ``int`` key, an internal node is a ``(left, right)`` pair.  The text
form writes a leaf as ``<key>`` and an internal node as
``( <subtree> <subtree> )``, e.g. ``((1 (2 3)) (4 5))``.

The bound charges, at every internal node, the number of times the trace
switches between accessing keys of the left and of the right subtree,
and recurses into both sides.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Sequence, Union

from .geometry import PointSet, require_distinct_y

Tree = Union[int, tuple["Tree", "Tree"]]


class AltWitness(NamedTuple):
    value: int
    tree: Tree


def tree_leaves(tree: Tree) -> list[int]:
    """Leaf keys in left-to-right order."""
    if isinstance(tree, int):
        return [tree]
    left, right = tree
    return tree_leaves(left) + tree_leaves(right)


def balanced_tree(keys: Sequence[int]) -> Tree:
    """Balanced reference tree; the left side takes ceil(k/2) keys."""
    keys = list(keys)
    if not keys:
        raise ValueError("balanced_tree: need at least one key")
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError("balanced_tree: keys must be strictly increasing")

    def build(lo: int, hi: int) -> Tree:
        if lo == hi:
            return keys[lo]
        mid = lo + (hi - lo + 2) // 2  # the left side takes ceil(k/2) keys
        return (build(lo, mid - 1), build(mid, hi))

    return build(0, len(keys) - 1)


def format_tree(tree: Tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    left, right = tree
    return f"({format_tree(left)} {format_tree(right)})"


def parse_tree(text: str) -> Tree:
    """Parse the parenthesized tree format."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Tree:
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


def _check_tree_keys(P: PointSet, tree: Tree, op: str) -> list[int]:
    leaves = tree_leaves(tree)
    if any(a >= b for a, b in zip(leaves, leaves[1:])):
        raise ValueError(f"{op}: leaf keys must be strictly increasing")
    keys = sorted({x for x, _ in P})
    if leaves != keys:
        raise ValueError(
            f"{op}: tree leaves {leaves} do not match the distinct keys {keys}"
        )
    return keys


def alt_bound(P: PointSet, tree: Tree) -> int:
    """Alternation bound of P for one reference tree.

    Repeated keys are fine: all accesses of a key sit at its single leaf.
    """
    require_distinct_y(P, "alt_bound")
    _check_tree_keys(P, tree, "alt_bound")
    xs_by_time = [x for x, _ in P.by_y]
    return _alt_rec(tree, xs_by_time)


def _alt_rec(tree: Tree, xs: list[int]) -> int:
    if isinstance(tree, int) or not xs:
        return 0
    left, right = tree
    boundary = _max_leaf(left)
    ls = [x for x in xs if x <= boundary]
    rs = [x for x in xs if x > boundary]
    # Switch count along time order == mix_value of the two y-sets.
    a = 0
    last = 0
    for x in xs:
        side = 1 if x <= boundary else 2
        if side != last:
            a += 1
            last = side
    return a + _alt_rec(left, ls) + _alt_rec(right, rs)


def _max_leaf(tree: Tree) -> int:
    while not isinstance(tree, int):
        tree = tree[1]
    return tree


def alt_opt(P: PointSet) -> AltWitness:
    """Maximum Alternation bound over all reference trees, with a maximizer.

    Every reference tree splits the sorted keys into nested contiguous
    intervals, so the maximum decomposes over key intervals:

        best(i..j) = max over splits k of
                     1 + crossings(i..j, k) + best(i..k) + best(k+1..j)

    where crossings(i..j, k) counts consecutive accesses, among those to
    keys i..j, whose ranks a < b satisfy a <= k < b.  One pass over the
    accesses per interval adds +1 at a and -1 at b to a difference array,
    whose prefix sums give the count for every k at once; the 1 is the
    first run, since both sides hold an accessed key.  Cost O(n^2 * m)
    for n distinct keys and m accesses.

    Ties pick the leftmost split, so the witness is deterministic.
    """
    require_distinct_y(P, "alt_opt")
    if not len(P):
        raise ValueError("alt_opt: empty point set")
    keys = sorted({x for x, _ in P})
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

    def build(i: int, j: int) -> Tree:
        if i == j:
            return keys[i]
        k = split[i][j]
        return (build(i, k), build(k + 1, j))

    return AltWitness(value[0][n - 1], build(0, n - 1))


def enumerate_trees(keys: Sequence[int]) -> Iterator[Tree]:
    """All full binary trees over the given sorted keys (Catalan many)."""
    keys = list(keys)
    if not keys:
        raise ValueError("enumerate_trees: need at least one key")

    def gen(lo: int, hi: int) -> Iterator[Tree]:
        if lo == hi:
            yield keys[lo]
            return
        for k in range(lo, hi):
            for left in gen(lo, k):
                for right in gen(k + 1, hi):
                    yield (left, right)

    return gen(0, len(keys) - 1)


def random_tree(keys: Sequence[int], rng: random.Random) -> Tree:
    """Reference tree with uniformly random split at every node."""
    keys = list(keys)
    if not keys:
        raise ValueError("random_tree: need at least one key")
    if len(keys) == 1:
        return keys[0]
    k = rng.randrange(1, len(keys))
    return (random_tree(keys[:k], rng), random_tree(keys[k:], rng))


def alt_brute(P: PointSet, max_keys: int = 10) -> AltWitness:
    """Exhaustive maximum over all reference trees; oracle for alt_opt."""
    require_distinct_y(P, "alt_brute")
    if not len(P):
        raise ValueError("alt_brute: empty point set")
    keys = sorted({x for x, _ in P})
    if len(keys) > max_keys:
        raise ValueError(
            f"alt_brute: {len(keys)} distinct keys exceeds the cap of {max_keys}"
        )
    best: AltWitness | None = None
    for tree in enumerate_trees(keys):
        v = alt_bound(P, tree)
        if best is None or v > best.value:
            best = AltWitness(v, tree)
    assert best is not None
    return best
