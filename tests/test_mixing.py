import pytest
from hypothesis import given
from hypothesis import strategies as st

from bstbounds.mixing import merged_blocks, mix_value

from conftest import blocks, disjoint_int_sets, mix


def test_mix_interleaves_by_origin():
    assert mix({2, 3, 8}, {1, 5}) == "RLLRL"
    assert mix(set(), set()) == ""
    assert mix({1}, {2}) == "LR"


def test_mix_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        mix({1, 2}, {2, 3})


def test_blocks():
    assert blocks("LLLRLL") == 3
    assert blocks("") == 0
    assert blocks("LRLRLR") == 6


def test_blocks_rejects_other_symbols():
    with pytest.raises(ValueError):
        blocks("LXR")


def test_mix_value_examples():
    assert mix_value({1, 3, 6}, {4, 7, 8}) == 4
    assert mix_value({2, 3, 8}, {1, 5}) == 4  # blocks of RLLRL
    assert mix_value({1, 2, 3}, set()) == 1
    with pytest.raises(ValueError):
        mix_value({1}, {1})


@given(disjoint_int_sets())
def test_mix_value_matches_string_form(sets):
    left, right = sets
    assert mix_value(left, right) == blocks(mix(left, right))


@given(disjoint_int_sets())
def test_symmetry(sets):
    left, right = sets
    assert mix_value(left, right) == mix_value(right, left)


@given(disjoint_int_sets(), st.randoms(use_true_random=False))
def test_monotone_in_both_arguments(sets, rng):
    left, right = sets
    sub_left = {v for v in left if rng.random() < 0.5}
    sub_right = {v for v in right if rng.random() < 0.5}
    assert mix_value(sub_left, sub_right) <= mix_value(left, right)


@given(disjoint_int_sets(), st.integers(-100, 100))
def test_subadditive_under_concatenation(sets, cut):
    left, right = sets
    l1, l2 = {v for v in left if v <= cut}, {v for v in left if v > cut}
    r1, r2 = {v for v in right if v <= cut}, {v for v in right if v > cut}
    assert mix_value(left, right) <= mix_value(l1, r1) + mix_value(l2, r2)


@given(disjoint_int_sets())
def test_cap(sets):
    left, right = sets
    assert mix_value(left, right) <= 2 * min(len(left), len(right)) + 1


@given(disjoint_int_sets(), st.integers(-200, 200))
def test_inserting_never_decreases(sets, extra):
    left, right = sets
    if extra in left | right:
        return
    base = mix_value(left, right)
    assert mix_value(left | {extra}, right) >= base
    assert mix_value(left, right | {extra}) >= base


def test_merged_blocks_is_the_merge_form():
    assert merged_blocks([1, 3, 6], [4, 7, 8]) == 4
    assert merged_blocks([], []) == 0
    assert merged_blocks([5], []) == 1
