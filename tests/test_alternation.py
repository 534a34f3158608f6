import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstbounds as bb
from bstbounds.alternation import (
    alt_bound,
    alt_opt,
    balanced_tree,
    format_tree,
    leaf_depths,
    parse_tree,
    random_tree,
    tree_leaves,
)
from bstbounds.geometry import from_trace, rotate90

from conftest import (
    SIX_ALT,
    SIX_TRACE,
    SIX_TREE_TEXT,
    alt_bound_filtered,
    alt_brute,
    alt_opt_interval_scan,
    alt_opt_linked,
    alt_opt_merged_table,
    enumerate_trees,
    parse_tree_recursive,
    perm_pointset,
    point_sets,
    random_tree_recursive,
    seeded_perms,
    traces,
)


def test_balanced_tree_shapes():
    assert balanced_tree([0, 1, 2, 3]) == ((0, 1), (2, 3))
    assert balanced_tree([5]) == 5
    # ceil split: the left side takes two of three keys
    assert balanced_tree([1, 2, 3]) == ((1, 2), 3)


def test_balanced_tree_height():
    def height(t):
        return 0 if isinstance(t, int) else 1 + max(height(t[0]), height(t[1]))

    for n in (1, 2, 3, 5, 9, 100):
        keys = list(range(n))
        tree = balanced_tree(keys)
        assert tree_leaves(tree) == keys
        assert height(tree) <= (n - 1).bit_length()


def test_balanced_tree_rejects_bad_keys():
    with pytest.raises(ValueError):
        balanced_tree([])
    with pytest.raises(ValueError):
        balanced_tree([2, 1])
    with pytest.raises(ValueError):
        balanced_tree([1, 1])


def test_tree_text_round_trip():
    tree = parse_tree(SIX_TREE_TEXT)
    assert tree == ((1, (2, 3)), (4, 5))
    assert format_tree(tree) == "((1 (2 3)) (4 5))"
    assert parse_tree("7") == 7


@pytest.mark.parametrize("text", ["(1", "(1 2 3)", "()", "(1 2) 3", "(a b)"])
def test_parse_tree_rejects(text):
    with pytest.raises(ValueError):
        parse_tree(text)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(["(", ")", "1", "2", "-3", "+4", "x"]), max_size=12))
def test_parse_tree_matches_recursive_oracle(tokens):
    text = " ".join(tokens)
    try:
        expected = parse_tree_recursive(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_tree(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_tree(text) == expected


class _EdgeSplit:
    """Stands in for random.Random: every split puts one key on one side."""

    def __init__(self, left_gets_one: bool):
        self.left_gets_one = left_gets_one

    def randrange(self, start: int, stop: int) -> int:
        return start if self.left_gets_one else stop - 1


@pytest.mark.parametrize("left_gets_one", [True, False])
def test_tree_walks_take_a_deep_caterpillar(left_gets_one):
    # Far deeper than the recursion limit; on the sequential trace every
    # internal node sees exactly two runs.
    n = 3000
    keys = list(range(1, n + 1))
    tree = random_tree(keys, _EdgeSplit(left_gets_one))
    text = format_tree(tree)
    expected = str(n if left_gets_one else 1)
    for k in range(n - 1, 0, -1):
        expected = f"({k} {expected})" if left_gets_one else f"({expected} {n - k + 1})"
    assert text == expected
    assert tree_leaves(tree) == keys
    depth = (lambda k: k) if left_gets_one else (lambda k: n - k + 1)
    assert leaf_depths(tree) == {k: min(depth(k), n - 1) for k in keys}
    assert format_tree(parse_tree(text)) == text
    assert alt_bound(from_trace(keys), tree) == 2 * (n - 1)


def test_random_tree_matches_recursive_oracle():
    for seed in range(200):
        keys = list(range(seed % 30 + 1))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert random_tree(keys, rng) == random_tree_recursive(keys, oracle_rng)
        assert rng.random() == oracle_rng.random()


def test_leaf_depths_matches_recursive_oracle():
    def depths(tree, depth=0):
        if isinstance(tree, int):
            return {tree: depth}
        return {**depths(tree[0], depth + 1), **depths(tree[1], depth + 1)}

    for seed in range(100):
        tree = random_tree(range(seed % 40 + 1), random.Random(seed))
        assert leaf_depths(tree) == depths(tree)


def test_alt_worked_example():
    P = from_trace(SIX_TRACE)
    assert alt_bound(P, parse_tree(SIX_TREE_TEXT)) == SIX_ALT


def test_alt_single_leaf_is_zero():
    assert alt_bound(from_trace([7, 7, 7]), 7) == 0


def test_alt_bit_reversal_on_complete_tree():
    for k in (1, 2, 3, 4):
        K = 1 << k
        P = from_trace(bb.bit_reversal(k))
        assert alt_bound(P, balanced_tree(list(range(K)))) == k * K


def test_alt_rejects_mismatched_tree():
    P = from_trace([1, 2, 3])
    with pytest.raises(ValueError, match="do not match"):
        alt_bound(P, ((1, 2), 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        alt_bound(P, ((2, 1), 3))


def test_alt_bound_checks_the_leaves_in_its_own_walk(monkeypatch):
    monkeypatch.setattr(bb.alternation, "tree_leaves", _raise)
    P = from_trace(SIX_TRACE)
    assert alt_bound(P, parse_tree(SIX_TREE_TEXT)) == SIX_ALT
    for tree, message in [
        (((1, 2), 4), "alt_bound: tree leaves [1, 2, 4] do not match the distinct keys [1, 2, 3]"),
        ((1, (2, (3, 4))), "alt_bound: tree leaves [1, 2, 3, 4] do not match the distinct keys [1, 2, 3]"),
        ((1, 2), "alt_bound: tree leaves [1, 2] do not match the distinct keys [1, 2, 3]"),
        (((2, 1), 3), "alt_bound: leaf keys must be strictly increasing"),
        (((1, 1), 3), "alt_bound: leaf keys must be strictly increasing"),
        ((1, (3, 2)), "alt_bound: leaf keys must be strictly increasing"),
    ]:
        with pytest.raises(ValueError) as exc:
            alt_bound(from_trace([1, 2, 3]), tree)
        assert str(exc.value) == message


def _raise(*args):
    raise AssertionError("tree_leaves called")


def _caterpillar(keys, left_gets_one):
    return random_tree(keys, _EdgeSplit(left_gets_one))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(traces().map(from_trace), point_sets(key_span=4)),
    st.sampled_from(["random", "balanced", "left-leaf", "right-leaf"]),
    st.integers(0, 2**32),
)
def test_alt_bound_matches_filtered_oracle(P, shape, seed):
    if not len(P):
        return
    keys = list(P.keys)
    if shape == "random":
        tree = random_tree(keys, random.Random(seed))
    elif shape == "balanced":
        tree = balanced_tree(keys)
    else:
        tree = _caterpillar(keys, shape == "left-leaf")
    assert alt_bound(P, tree) == alt_bound_filtered(P, tree)


def test_alt_bound_matches_filtered_oracle_on_seeded_traces():
    rng = random.Random(707)
    for _ in range(60):
        n = rng.randint(1, 40)
        P = from_trace([rng.randint(1, n) for _ in range(rng.randint(1, 300))])
        keys = list(P.keys)
        for tree in (
            random_tree(keys, rng),
            _caterpillar(keys, True),
            _caterpillar(keys, False),
        ):
            assert alt_bound(P, tree) == alt_bound_filtered(P, tree)
    sep = from_trace(bb.separation_sequence(bb.SeparationParams(2)))
    tree = balanced_tree(sep.keys)
    assert alt_bound(sep, tree) == alt_bound_filtered(sep, tree)


def test_alt_opt_small_cases():
    assert alt_opt(from_trace([5, 5])).value == 0
    witness = alt_opt(from_trace([1, 2]))
    assert witness.value == 2
    assert witness.tree == (1, 2)
    with pytest.raises(ValueError):
        alt_opt(bb.PointSet())


def test_alt_opt_on_worked_example():
    P = from_trace(SIX_TRACE)
    witness = alt_opt(P)
    assert witness.value == alt_brute(P).value
    assert witness.value >= SIX_ALT
    assert alt_bound(P, witness.tree) == witness.value


def test_enumerate_trees_counts():
    assert len(list(enumerate_trees([1, 2]))) == 1
    assert len(list(enumerate_trees([1, 2, 3, 4, 5]))) == 14


def test_alt_brute_cap():
    P = perm_pointset(11, 0)
    with pytest.raises(ValueError, match="cap"):
        alt_brute(P)
    assert alt_brute(P, max_keys=11).value == alt_opt(P).value


def test_alt_opt_matches_brute_on_random_permutations():
    for P in seeded_perms(60, 7, seed=101):
        assert alt_opt(P).value == alt_brute(P).value


def _uniform_traces(count: int, max_keys: int, max_len: int, seed: int):
    """Seeded uniform traces over at most max_keys keys, so m >> n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_keys)
        yield [rng.randint(1, n) for _ in range(rng.randint(1, max_len))]


def test_alt_opt_matches_brute_on_repeated_keys():
    for trace in _uniform_traces(80, 8, 60, seed=303):
        P = from_trace(trace)
        witness = alt_opt(P)
        assert witness.value == alt_brute(P).value, trace
        assert alt_bound(P, witness.tree) == witness.value, trace


@settings(max_examples=150, deadline=None)
@given(traces())
def test_alt_opt_matches_brute_on_random_traces(trace):
    if not trace:
        return
    P = from_trace(trace)
    witness = alt_opt(P)
    assert witness.value == alt_brute(P).value
    assert alt_bound(P, witness.tree) == witness.value


def test_alt_opt_matches_merged_table_oracle():
    # Value and tree: the leftmost-split tie rule is pinned beyond the
    # reach of alt_brute.
    cases = list(seeded_perms(25, 40, seed=404))
    cases += [from_trace(t) for t in _uniform_traces(25, 40, 120, seed=505)]
    cases += [from_trace(t) for t in _uniform_traces(100, 8, 60, seed=606)]
    for P in cases:
        assert alt_opt(P) == alt_opt_merged_table(P)


def _sparse_key_traces():
    """Traces over a few keys drawn far apart, negative ones included."""
    rng = random.Random(808)
    for _ in range(40):
        pool = rng.sample(range(-10**6, 10**6), rng.randint(1, 15))
        yield [rng.choice(pool) for _ in range(rng.randint(1, 120))]


def _long_run_traces():
    """Traces of long runs of one key, which the kernel collapses."""
    yield [1] * 500 + [2] * 500 + [1] * 3
    rng = random.Random(909)
    for _ in range(20):
        n = rng.randint(2, 10)
        trace: list[int] = []
        for _ in range(rng.randint(1, 12)):
            trace += [rng.randint(1, n)] * rng.randint(1, 60)
        yield trace


@pytest.mark.parametrize(
    "cases",
    [
        lambda: (rotate90(P) for P in seeded_perms(40, 30, seed=707)),
        lambda: map(from_trace, _sparse_key_traces()),
        lambda: map(from_trace, _long_run_traces()),
        lambda: map(from_trace, ([5], [7] * 50)),
    ],
    ids=["rotated-permutations", "sparse-keys", "long-runs", "one-key"],
)
def test_alt_opt_matches_interval_scan_oracle(cases):
    # Value and tree, against the O(n^2 * m) rescan of every interval.
    for P in cases():
        assert alt_opt(P) == alt_opt_interval_scan(P), P


def test_alt_opt_matches_interval_scan_oracle_on_a_long_uniform_trace():
    rng = random.Random(1010)
    P = from_trace([rng.randint(1, 100) for _ in range(2000)])
    assert len(P.keys) == 100
    assert alt_opt(P) == alt_opt_interval_scan(P)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        traces(max_keys=10, max_size=80).map(from_trace),
        point_sets(max_size=30, key_span=6),
        point_sets(max_size=30, key_span=10**9),
    )
)
def test_alt_opt_matches_linked_oracle(P):
    # Value and tree, against the dancing-links kernel: repeated keys,
    # and sparse and negative coordinates.
    if len(P):
        assert alt_opt(P) == alt_opt_linked(P)


@pytest.mark.parametrize("k, reps", [(2, None), (3, 2)])
def test_alt_opt_matches_linked_oracle_on_separation(k, reps):
    P = from_trace(bb.separation_sequence(bb.SeparationParams(k, reps)))
    assert alt_opt(P) == alt_opt_linked(P)


def test_alt_opt_dominates_any_tree():
    rng = random.Random(5)
    for P in seeded_perms(40, 12, seed=77, min_n=2):
        keys = sorted({x for x, _ in P})
        best = alt_opt(P).value
        for _ in range(5):
            assert alt_bound(P, random_tree(keys, rng)) <= best


def test_alt_subadditive_under_trace_concatenation():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 10)
        first = bb.random_permutation(n, rng.randrange(2**63))
        second = bb.random_permutation(n, rng.randrange(2**63))
        tree = random_tree(sorted(set(first)), rng)
        joined = alt_bound(from_trace(first + second), tree)
        parts = alt_bound(from_trace(first), tree) + alt_bound(
            from_trace(second), tree
        )
        assert joined <= parts


def test_alt_opt_witness_is_deterministic():
    P = perm_pointset(9, 3)
    assert alt_opt(P) == alt_opt(P)
