"""Bounded-exhaustive differential checks: every fast kernel against its
oracle on every small input (``conftest.small_traces``: all permutations
with n <= 6 and all traces over the keys 1-3 of length at most 6 that
repeat a key, 1,950 inputs), as given and under ``rotate90`` (which
refuses repeated keys, so on the 873 permutations only), ``hflip`` and
``time_reverse``.  Each check runs on the inputs its kernel accepts and
names the first, so a smallest, input it fails.

The funnel, z-rectangle and alternation oracles compare coordinates only,
so their value is that of the input's order type (the ranks of its keys
in time order); each is computed once per order type, and the kernels
run on every input.  The refined tree of ``verify`` is checked, with
its replaced subtrees cut to at most 1, 2 or 3 keys, on the inputs as
given.  All 29 tests together take 2.3-3.0 s, median 2.4 s over 5 runs
(2-core Intel Xeon, Python 3.11); the two tests of the transforms
themselves take about 0.2 s of it.
"""

import functools

import pytest

import bstbounds as bb
from bstbounds import alternation, sweep, verify
from bstbounds.funnel import funnel_bound, funnel_bound_fast
from bstbounds.geometry import hflip, rotate90, time_reverse
from bstbounds.verify import run_checks
from bstbounds.zrect import zrects

from conftest import (
    SMALL_TRANSFORMS,
    alt_brute,
    enumerate_trees,
    plan_free,
    rotate90_sorted,
    small_inputs,
    sweep_down_rescan,
    sweep_up_rescan,
    tree_spans,
    zrects_brute,
)

transforms = pytest.mark.parametrize("transform", SMALL_TRANSFORMS)


def _first_failure(transform, holds, distinct_x=False):
    """The first input under ``transform`` (with distinct x, with
    ``distinct_x``) on which ``holds`` is false: its trace and points."""
    for trace, P in small_inputs(transform):
        if (P.has_distinct_x or not distinct_x) and not holds(P):
            return trace, sorted(P)
    return None


def _by_order_type(oracle):
    """``oracle`` of a point set with distinct y, computed once per order
    type on the trace of its key ranks."""
    cached = functools.cache(lambda ranks: oracle(bb.from_trace(list(ranks))))

    def value(P):
        rank = {x: i for i, x in enumerate(P.keys)}
        return cached(tuple(rank[x] for x in P.xs))

    return value


def test_every_composition_of_transforms_has_ascending_times():
    # The three transforms generate the eight symmetries of the square,
    # so applying each to every new set reaches every composition, of up
    # to four transforms and beyond.  A rotation refuses repeated keys.
    def holds(P):
        seen = set()
        todo = [P]
        while todo:
            Q = todo.pop()
            if len(Q.xs) != len(Q.ys) or any(a >= b for a, b in zip(Q.ys, Q.ys[1:])):
                return False
            for op in (rotate90, hflip, time_reverse):
                if op is rotate90 and not Q.has_distinct_x:
                    with pytest.raises(ValueError, match="distinct x"):
                        rotate90(Q)
                    continue
                R = op(Q)
                if (columns := (tuple(R.xs), tuple(R.ys))) not in seen:
                    seen.add(columns)
                    todo.append(R)
        return True

    assert _first_failure("as-is", holds) is None


def test_rotate90_equals_the_sorted_construction():
    def holds(P):
        Q, expected = rotate90(P), rotate90_sorted(P)
        return (list(Q.xs), list(Q.ys)) == (expected.xs, expected.ys)

    assert _first_failure("as-is", holds, True) is None


_funnel = _by_order_type(funnel_bound)
_zrects = _by_order_type(zrects_brute)
_alt = _by_order_type(lambda P: alt_brute(P).value)


@transforms
def test_funnel_bound_fast_equals_funnel_bound(transform):
    assert _first_failure(transform, lambda P: funnel_bound_fast(P) == _funnel(P)) is None


@transforms
def test_zrects_equal_zrects_brute(transform):
    assert _first_failure(transform, lambda P: zrects(P).count == _zrects(P), True) is None


@transforms
def test_alt_opt_equals_alt_brute(transform):
    def holds(P):
        value, tree = alternation.alt_opt(P)
        return value == _alt(P) == alternation.alt_bound(P, tree)

    assert _first_failure(transform, holds) is None


@transforms
def test_alt_opt_with_its_plan_equals_alt_opt_without(transform):
    def holds(P):
        return not P.repeats or alternation.alt_opt(P) == alternation.alt_opt(plan_free(P))

    assert _first_failure(transform, holds) is None


def _top_spans(keys, most):
    """The ``tree_spans`` of the balanced tree's nodes over ``keys`` that
    have more than ``most`` keys, and of their children: the nodes a tree
    must have to keep the refined tree's top."""
    spans = set()
    stack = [alternation.balanced_tree(keys)]
    while stack:
        node = stack.pop()
        if not isinstance(node, int) and len(bb.tree_leaves(node)) > most:
            for part in (node, *node):
                leaves = bb.tree_leaves(part)
                spans.add((leaves[0], leaves[-1]))
            stack += node
    return spans


@functools.cache
def _kept_trees(n, most):
    """The ``enumerate_trees`` trees over the keys 0..n-1 that keep the
    balanced tree's nodes above its subtrees of at most ``most`` keys;
    the balanced tree is one of them."""
    top = _top_spans(range(n), most)
    kept = [T for T in enumerate_trees(range(n)) if top <= tree_spans(T)]
    assert alternation.balanced_tree(range(n)) in kept
    return kept


@functools.cache
def _best_kept(most, ranks):
    """The most ``alt_bound`` of the rank trace ``ranks`` over the kept
    trees."""
    P = bb.from_trace(list(ranks))
    return max(alternation.alt_bound(P, T) for T in _kept_trees(len(P.keys), most))


@pytest.mark.parametrize("most", [1, 2, 3])
def test_refined_tree_is_the_best_tree_under_the_balanced_top(monkeypatch, most):
    # With subtrees of at most ``most`` keys replaced, the refined tree
    # is the best tree that keeps the balanced tree's nodes above them,
    # so it beats the balanced tree; on every input as given that has
    # more keys.  On at most ``most`` keys it is alt_opt's own tree, which
    # ``test_alt_opt_equals_alt_brute`` checks against every tree.
    monkeypatch.setattr(verify, "_ALT_OPT_KEYS", most)

    def holds(P):
        if len(P.keys) <= most:
            return True
        rank = {x: i for i, x in enumerate(P.keys)}
        best = _best_kept(most, tuple(rank[x] for x in P.xs))
        return alternation.alt_bound(P, verify._refined_tree(P)) == best

    assert _first_failure("as-is", holds) is None


@transforms
def test_sweeps_equal_their_rescans(transform):
    def holds(P):
        up, down = sweep.sweep_add_up(P), sweep.sweep_add_down(P)
        return up.added == sweep_up_rescan(P) and down.added == sweep_down_rescan(P)

    assert _first_failure(transform, holds, True) is None


@transforms
def test_run_checks_full_passes(transform):
    assert _first_failure(transform, lambda P: run_checks(P, "full").ok) is None
