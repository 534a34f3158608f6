"""Alternation lower bound for a fixed reference tree, and its optimizer.

A reference tree is a full binary tree whose leaves carry the distinct
keys in increasing order.  It is represented structurally: a leaf is a
bare ``int`` key, an internal node is a ``(left, right)`` pair.  The text
form writes a leaf as ``<key>`` and an internal node as
``( <subtree> <subtree> )``, e.g. ``((1 (2 3)) (4 5))``.

The bound charges, at every internal node, the number of times the trace
switches between accessing keys of the left and of the right subtree,
and recurses into both sides.  ``alt_bound`` walks a block repeated r
times twice, since every copy after the second switches as the second
did (see ``geometry``).  ``alt_opt`` maximizes it over all trees
by an interval DP, whose switch counts for every key interval and split
come from the funnel pairs of one move-to-root walk over the key ranks;
that walk folds the same blocks, as every copy after the second has the
second's funnel pairs.

Every tree walk here keeps its own stack instead of recursing, so a
reference tree may be as deep as it has keys (a caterpillar).
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import accumulate
from operator import add
from typing import Callable, NamedTuple, Sequence, Union

from .geometry import PointSet, require_distinct_y, stretches

Tree = Union[int, tuple["Tree", "Tree"]]


class AltWitness(NamedTuple):
    value: int
    tree: Tree


def tree_leaves(tree: Tree) -> list[int]:
    """Leaf keys in left-to-right order."""
    leaves: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            leaves.append(node)
        else:
            stack.append(node[1])
            stack.append(node[0])
    return leaves


def leaf_depths(tree: Tree) -> dict[int, int]:
    """Each leaf key's depth, the number of internal nodes above it; one
    level of the tree at a time."""
    depths: dict[int, int] = {}
    level: list[Tree] = [tree]
    depth = 0
    while level:
        below: list[Tree] = []
        for node in level:
            if isinstance(node, int):
                depths[node] = depth
            else:
                below += node
        level = below
        depth += 1
    return depths


def _build_tree(keys: Sequence[int], split: Callable[[int, int], int]) -> Tree:
    """Tree over keys[0..n-1] whose node for keys[i..j] has keys[i..k] on
    its left, with k = split(i, j); split is called in pre-order."""
    built: list[Tree] = []
    stack = [(0, len(keys) - 1, False)]
    while stack:
        i, j, children_built = stack.pop()
        if i == j:
            built.append(keys[i])
        elif children_built:
            right = built.pop()
            built.append((built.pop(), right))
        else:
            k = split(i, j)
            stack += ((i, j, True), (k + 1, j, False), (i, k, False))
    return built[0]


def balanced_tree(keys: Sequence[int]) -> Tree:
    """Balanced reference tree; the left side takes ceil(k/2) keys."""
    keys = list(keys)
    if not keys:
        raise ValueError("balanced_tree: need at least one key")
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError("balanced_tree: keys must be strictly increasing")
    return _build_tree(keys, lambda i, j: (i + j) // 2)


def format_tree(tree: Tree) -> str:
    parts: list[str] = []
    stack: list[Union[Tree, str]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, int):
            parts.append(str(node))
        else:
            stack += (")", node[1], " ", node[0], "(")
    return "".join(parts)


def parse_tree(text: str) -> Tree:
    """Parse the parenthesized tree format."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes: list[list[Tree]] = []  # children read so far, per open '('
    tree: Tree | None = None
    for tok in tokens:
        if tree is not None:
            raise ValueError("parse_tree: trailing input")
        if open_nodes and len(open_nodes[-1]) == 2 and tok != ")":
            raise ValueError("parse_tree: expected ')'")
        if tok == "(":
            open_nodes.append([])
            continue
        if tok == ")":
            if not open_nodes or len(open_nodes[-1]) != 2:
                raise ValueError("parse_tree: unexpected ')'")
            node: Tree = tuple(open_nodes.pop())
        else:
            try:
                node = int(tok)
            except ValueError:
                raise ValueError(f"parse_tree: bad token {tok!r}") from None
        if open_nodes:
            open_nodes[-1].append(node)
        else:
            tree = node
    if open_nodes and len(open_nodes[-1]) == 2:
        raise ValueError("parse_tree: expected ')'")
    if tree is None:
        raise ValueError("parse_tree: unexpected end of input")
    return tree


def alt_bound(P: PointSet, tree: Tree) -> int:
    """Alternation bound of P for one reference tree.

    Repeated keys are fine: all accesses of a key sit at its single leaf.
    Each key's root-to-leaf path, as (node, side) pairs, is listed once;
    then one scan over the keys in time order walks each access down its
    path and counts a switch at every node whose last side it changes.
    A node's first access counts too, as the first run.  The paths take
    memory for the sum of the leaf depths, which is at most the number
    of steps the scan takes anyway.  Listing them checks the leaves.

    P's repeated blocks are folded (``PointSet.repeats``): after whole
    periods of a block every node's last side is as after one, so each
    copy after the second adds what the second did, and is skipped.
    """
    require_distinct_y(P, "alt_bound")
    keys = P.keys
    paths: dict[int, tuple[tuple[int, int], ...]] = {}
    nodes = 0
    stack: list[tuple[Tree, tuple[tuple[int, int], ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, int):
            if paths and node <= leaf:
                raise ValueError("alt_bound: leaf keys must be strictly increasing")
            paths[node] = path
            leaf = node
        else:
            stack.append((node[1], path + ((nodes, 2),)))
            stack.append((node[0], path + ((nodes, 1),)))
            nodes += 1
    if tuple(paths) != keys:
        raise ValueError(
            f"alt_bound: tree leaves {list(paths)} do not match the distinct keys {list(keys)}"
        )
    last = [0] * nodes
    total = mark = 0
    for stretch, _, count in stretches(iter(P.xs), P.repeats):
        for x in stretch:
            for node, side in paths[x]:
                if last[node] != side:
                    last[node] = side
                    total += 1
        total += count * (total - mark)  # the period just walked, count more times
        mark = total
    return total


def alt_opt(P: PointSet) -> AltWitness:
    """Maximum Alternation bound over all reference trees, with a maximizer.

    Every reference tree splits the sorted keys into nested contiguous
    intervals, so the maximum decomposes over key intervals:

        best(i..j) = max over splits k of
                     1 + crossings(i..j, k) + best(i..k) + best(k+1..j)

    where crossings(i..j, k) counts consecutive accesses, among those to
    keys i..j, whose ranks a < b satisfy a <= k < b; the 1 is the first
    run, since both sides hold an accessed key.

    Two accesses of ranks a < b are consecutive among the accesses to
    keys i..j exactly when i <= a, b <= j and no access between them has
    a rank in [i, j].  Then no access between them has a rank in [a, b]
    either: they span an empty rectangle, so the earlier one is in the
    later one's funnel (Wilber's funnel pairs).  With L the largest rank
    below a and R the smallest rank above b among the accesses between
    them (-1 and n for none), the pair is consecutive exactly when
    L < i <= a and b <= j < R, so it adds 1 to crossings on the box
    (L, a] x [b, R) x [a, b) of (i, j, k).  A move-to-root walk over the
    ranks meets every funnel pair, with L and R the keys of the left and
    right tails of its unzip when it reaches the earlier access.  Equal
    boxes are counted together.  P's repeated blocks are folded
    (``PointSet.repeats``): a pair's box depends only on the accesses
    from the earlier to the later one, so each copy after the second
    adds the boxes the second did, and is skipped.

    The left end i runs down from n-1.  A box enters when i reaches a
    and leaves when i reaches L; while in, it holds its four corners in
    a 2-D difference table over (j, k).  For j ascending, the prefix
    sums over k of the table's row j, added to the crossings of i..j-1,
    give those of i..j.  One symmetric table holds best(i..j): row i reads
    it at (i, k), row j at (j, k + 1).  Cost O(P + n^3) time and
    O(n^2 + boxes) memory, for n distinct keys and P funnel pairs.

    The walk is kept apart from ``funnel.move_to_root``, which counts
    runs: both start their unzip on a head, but reporting each node from
    that kernel's inner loops would slow the funnel bound.

    Ties pick the leftmost split, so the witness is deterministic.
    """
    require_distinct_y(P, "alt_opt")
    if not len(P):
        raise ValueError("alt_opt: empty point set")
    keys = P.keys
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}

    # Each key is one node, its rank, and -1 is no node.  Slot n heads
    # the unzip: its right link roots the left part and its left link the
    # right part, and the tails -1 (by Python's negative index) and n,
    # which stand for none, write there.
    left = [-1] * (n + 1)
    right = [-1] * (n + 1)
    root = -1
    entering: list[dict[tuple[int, int, int], int]] = [{} for _ in range(n)]
    for stretch, _, count in stretches(iter(P.xs), P.repeats):
        # A period's boxes, by a, are counted apart and added count + 1 times.
        boxes = defaultdict(dict) if count else entering
        for x in stretch:
            x = index[x]
            node, L, R = root, -1, n
            here = boxes[x]  # the boxes with a = x
            while node >= 0:
                if x < node:
                    box = (L, node, R)
                    here[box] = here.get(box, 0) + 1
                    left[R] = node
                    R = node
                    node = left[node]
                elif x > node:
                    box = (L, x, R)
                    there = boxes[node]
                    there[box] = there.get(box, 0) + 1
                    right[L] = node
                    L = node
                    node = right[node]
                else:  # an earlier access of x blocks everything below it
                    right[L] = left[node]
                    left[R] = right[node]
                    break
            else:
                right[L] = -1
                left[R] = -1
            left[x], right[x] = right[n], left[n]
            root = x
        if count:
            for a, boxes_a in boxes.items():
                here = entering[a]
                for box, c in boxes_a.items():
                    here[box] = here.get(box, 0) + (count + 1) * c

    # Row n of the table takes the corners at R = n and is never read.
    table = [[0] * n for _ in range(n + 1)]
    leaving: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    value = [[0] * n for _ in range(n)]  # symmetric: value[j][i] = value[i][j]
    split = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        events = leaving[i]
        for (L, b, R), c in entering[i].items():
            events.append((i, b, R, c))
            if L >= 0:
                leaving[L].append((i, b, R, -c))
        for a, b, R, c in events:
            row = table[b]
            row[a] += c
            row[b] -= c
            row = table[R]
            row[a] -= c
            row[b] += c

        # crossings[k - i] = crossings(i..j, k).  Every table row sums to
        # 0 and ends at its own index, so crossings(i..j-1, j-1) = 0.
        crossings: list[int] = []
        value_i, split_i = value[i], split[i]
        for j in range(i + 1, n):
            crossings.append(0)
            crossings = list(map(add, crossings, accumulate(table[j][i:j])))
            value_j = value[j]
            best = -1
            best_k = i
            for k in range(i, j):
                v = crossings[k - i] + value_i[k] + value_j[k + 1]
                if v > best:
                    best = v
                    best_k = k
            value_i[j] = value_j[i] = 1 + best
            split_i[j] = best_k

    return AltWitness(value[0][n - 1], _build_tree(keys, lambda i, j: split[i][j]))


def random_tree(keys: Sequence[int], rng: random.Random) -> Tree:
    """Reference tree with uniformly random split at every node."""
    keys = list(keys)
    if not keys:
        raise ValueError("random_tree: need at least one key")
    return _build_tree(keys, rng.randrange)

