"""Bounded-exhaustive differential checks: every fast kernel against its
oracle on every small input (``conftest.small_traces``: all permutations
with n <= 6 and all traces over the keys 1-3 of length at most 6 that
repeat a key, 1,950 inputs), as given and under ``rotate90``, ``hflip``
and ``time_reverse``.  Each check runs on the inputs its kernel accepts
and names the first, so a smallest, input it fails.

The funnel, z-rectangle and alternation oracles compare coordinates only,
so their value is that of the input's order type (the ranks of its keys
in time order); each is computed once per order type, and the kernels
run on every input.  All twenty tests together take 1.7-1.9 s (2-core
Intel Xeon, Python 3.11).
"""

import functools

import pytest

import bstbounds as bb
from bstbounds import alternation, sweep
from bstbounds.funnel import funnel_bound, funnel_bound_fast
from bstbounds.verify import run_checks
from bstbounds.zrect import zrects

from conftest import (
    SMALL_TRANSFORMS,
    alt_brute,
    small_inputs,
    sweep_down_rescan,
    sweep_up_rescan,
    zrects_brute,
)

transforms = pytest.mark.parametrize("transform", SMALL_TRANSFORMS)


def _first_failure(transform, holds, distinct_x=False):
    """The first input under ``transform`` with distinct y (and x, with
    ``distinct_x``) on which ``holds`` is false: its trace and points."""
    for trace, P in small_inputs(transform):
        if P.has_distinct_y and (P.has_distinct_x or not distinct_x) and not holds(P):
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
def test_sweeps_equal_their_rescans(transform):
    def holds(P):
        up, down = sweep.sweep_add_up(P), sweep.sweep_add_down(P)
        return up.added == sweep_up_rescan(P) and down.added == sweep_down_rescan(P)

    assert _first_failure(transform, holds, True) is None


@transforms
def test_run_checks_full_passes(transform):
    assert _first_failure(transform, lambda P: run_checks(P, "full").ok) is None
