"""The repeat plan and the kernels that fold it.

A folded kernel must give what the same kernel gives with an empty plan,
and what the definition scan gives, on every input: traces made of
repeated blocks, point sets with sparse y, their time reversals and key
mirrors, and the paper's separation sequences.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstbounds as bb
from bstbounds import geometry
from bstbounds.alternation import _build_tree, alt_bound, alt_opt, balanced_tree, random_tree
from bstbounds.funnel import funnel_bound, funnel_bound_fast, move_to_root
from bstbounds.geometry import PointSet, from_trace, hflip, time_reverse

from conftest import plan_free


@st.composite
def block_traces(draw, max_keys: int = 6, max_blocks: int = 4, max_block: int = 4) -> list[int]:
    """Blocks of negative and sparse keys, each repeated back to back,
    its last copy possibly cut short; a block may repeat a key, and a
    one-key block gives consecutive duplicates."""
    pool = draw(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=max_keys, unique=True))
    trace: list[int] = []
    for _ in range(draw(st.integers(1, max_blocks))):
        block = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_block))
        trace += block * draw(st.integers(1, 6)) + block[: draw(st.integers(0, len(block)))]
    return trace


@st.composite
def sparse_block_sets(draw) -> PointSet:
    """A block trace's keys at strictly increasing, sparse times."""
    trace = draw(block_traces())
    ys = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(trace), max_size=len(trace), unique=True))
    return PointSet(zip(trace, sorted(ys)))


def _random_block_trace(rng: random.Random) -> list[int]:
    keys = rng.sample(range(-40, 40), rng.randint(1, 8))
    trace: list[int] = []
    while len(trace) < rng.randint(1, 60):
        block = [rng.choice(keys) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.7:
            block = list(dict.fromkeys(block))
        trace += block * rng.randint(1, 7) + block[: rng.randint(0, len(block))]
    return trace


def _assert_plan_holds(xs, plan):
    """Each entry's block is distinct, equals the block before it, and
    repeats exactly ``count`` whole times; entries are in order and the
    block before each start lies after the previous entry's copies."""
    end = 0
    for start, period, count in plan:
        block = list(xs[start - period : start])
        assert period >= 1 and count >= 1
        assert start - period >= end and start >= 2 * period
        assert len(set(block)) == period
        assert list(xs[start - 2 * period : start - period]) == block
        assert list(xs[start : start + count * period]) == block * count
        assert list(xs[start + count * period : start + (count + 1) * period]) != block
        end = start + count * period
    assert end <= len(xs)


def _caterpillar(keys):
    return _build_tree(list(keys), lambda i, j: i)


def _assert_fold_exact(P: PointSet, rng: random.Random, reference: bool = True) -> None:
    plain = plan_free(P)
    fb = funnel_bound_fast(P)
    assert fb == funnel_bound_fast(plain)
    if reference:
        assert fb == funnel_bound(P)
    runs: list[int] = []
    plain_runs: list[int] = []
    assert move_to_root(P, runs_out=runs) == fb
    move_to_root(plain, runs_out=plain_runs)
    assert runs == plain_runs
    keys = P.keys
    for tree in (balanced_tree(keys), random_tree(keys, rng), _caterpillar(keys)):
        assert alt_bound(P, tree) == alt_bound(plain, tree)
    assert alt_opt(P) == alt_opt(plain)


@settings(max_examples=150, deadline=None)
@given(block_traces())
def test_plan_invariants_on_block_traces(trace):
    P = from_trace(trace)
    _assert_plan_holds(trace, P.repeats)
    for Q in (time_reverse(P), hflip(P)):
        _assert_plan_holds(Q.xs, Q.repeats)


def test_plan_invariants_when_slices_are_cut_small(monkeypatch):
    # Blocks longer than a slice are compared a slice at a time.
    monkeypatch.setattr(geometry, "_SLICE", 3)
    rng = random.Random(17)
    for _ in range(500):
        trace = _random_block_trace(rng)
        plan = from_trace(trace).repeats
        _assert_plan_holds(trace, plan)
        monkeypatch.setattr(geometry, "_SLICE", 1 << 16)
        assert from_trace(trace).repeats == plan
        monkeypatch.setattr(geometry, "_SLICE", 3)


@pytest.mark.parametrize(
    "trace, plan",
    [
        ([3, 1, 2] * 5, [(6, 3, 3)]),
        ([3, 1, 2] * 5 + [3], [(6, 3, 3)]),
        ([7] * 6, [(2, 1, 4)]),
        ([5, -5] * 2, []),  # two copies: nothing to fold
        ([1, 2, 1, 1, 2, 1, 1, 2, 1], []),  # a block with a repeated key
        ([4, 9] * 3 + [1] * 3 + [4, 9] * 3, [(4, 2, 1), (8, 1, 1), (13, 2, 1)]),
    ],
)
def test_plan_of_small_traces(trace, plan):
    assert from_trace(trace).repeats == plan
    _assert_plan_holds(trace, plan)


def test_distinct_keys_have_no_plan():
    rng = random.Random(3)
    for n in (0, 1, 2, 50):
        assert from_trace(rng.sample(range(-100, 100), n)).repeats == []


def test_plan_of_a_long_periodic_trace_holds_no_whole_trace_slice():
    trace = list(range(1000)) * 1000
    tracemalloc.start()
    try:
        plan = geometry._repeat_plan(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan == [(2000, 1000, 998)]
    # Two slices of 2^16 keys are 1 MiB; the trace itself is 8 MB.
    assert peak < 2 << 20


@settings(max_examples=120, deadline=None)
@given(block_traces())
def test_folded_kernels_equal_plan_free_walks_on_traces(trace):
    P = from_trace(trace)
    rng = random.Random(len(trace))
    for Q in (P, time_reverse(P), hflip(P)):
        _assert_fold_exact(Q, rng)


@settings(max_examples=60, deadline=None)
@given(sparse_block_sets())
def test_folded_kernels_equal_plan_free_walks_on_sparse_point_sets(P):
    rng = random.Random(len(P))
    for Q in (P, time_reverse(P), hflip(P)):
        _assert_fold_exact(Q, rng)


def test_folded_kernels_on_seeded_block_traces():
    rng = random.Random(29)
    for _ in range(300):
        P = from_trace(_random_block_trace(rng))
        _assert_fold_exact(P, rng, reference=False)


@pytest.mark.parametrize("k, reps, entries, count", [(2, None, 9, 14), (3, 4, 129, 2)])
def test_separation_sequences_fold_one_entry_per_block(k, reps, entries, count):
    trace = bb.separation_sequence(bb.SeparationParams(k, reps))
    P = from_trace(trace)
    assert len(P.repeats) == entries
    assert {c for _, _, c in P.repeats} == {count}
    _assert_plan_holds(trace, P.repeats)
    _assert_fold_exact(P, random.Random(k))
