import pytest
from hypothesis import given
from hypothesis import strategies as st

import bstbounds as bb
from bstbounds.generators import (
    SeparationParams,
    bit_reversal,
    bit_reversal_slices,
    random_permutation,
    sep_block,
    separation_blocks,
    separation_sequence,
)

from conftest import bit_reversal_bitwise


def test_bit_reversal_examples():
    assert bit_reversal(1) == [0, 1]
    assert bit_reversal(2) == [0, 2, 1, 3]
    assert bit_reversal(3) == [0, 4, 2, 6, 1, 5, 3, 7]


@given(st.integers(1, 10))
def test_bit_reversal_is_a_permutation(k):
    seq = bit_reversal(k)
    assert sorted(seq) == list(range(1 << k))


def test_bit_reversal_matches_the_bitwise_oracle():
    for k in range(1, 17):
        assert bit_reversal(k) == bit_reversal_bitwise(k)


def test_bit_reversal_guards():
    with pytest.raises(ValueError):
        bit_reversal(0)
    with pytest.raises(ValueError, match="cap"):
        bit_reversal(60)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 1 << 16])
def test_bit_reversal_slices_join_up_to_the_permutation(size):
    width = 1 << (size.bit_length() - 1)  # the largest power of two up to size
    for k in range(1, 21 if size == 1 << 16 else 11):
        slices = list(bit_reversal_slices(k, size))
        assert [x for piece in slices for x in piece] == bit_reversal(k)
        assert {len(piece) for piece in slices} == {min(width, 1 << k)}


def test_bit_reversal_slices_check_k_at_the_call():
    for k in (0, 25):
        with pytest.raises(ValueError, match="bit_reversal: k"):
            bit_reversal_slices(k, 4)


def test_sep_block_examples():
    assert sep_block(0, 2) == [1, 4, 2, 8]
    assert sep_block(1, 2) == [2, 5, 3, 9]
    assert sep_block(0, 1) == [1, 2]


def test_sep_block_range_check():
    with pytest.raises(ValueError, match="out of range"):
        sep_block(9, 2)  # n/2 = 8 for k=2
    with pytest.raises(ValueError):
        sep_block(-1, 2)
    # k is checked before n = 2^(2^k) is built.  No k in 25..63 is tried:
    # past a broken check it would allocate gigabytes.
    with pytest.raises(ValueError, match="cap of 24"):
        sep_block(0, 64)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            sep_block(0, k)


def test_separation_lengths():
    assert SeparationParams(2).length == 576
    assert len(separation_sequence(SeparationParams(2))) == 576
    assert len(separation_sequence(SeparationParams(2, 1))) == 36
    assert SeparationParams(3, 32).length == 129 * 32 * 8 == 33024


def test_separation_structure():
    params = SeparationParams(2, 3)
    seq = separation_sequence(params)
    n, K = params.key_count, params.block_len
    assert all(1 <= key <= n for key in seq)
    for i in range(n // 2 + 1):
        chunk = seq[i * 3 * K : (i + 1) * 3 * K]
        assert chunk == sep_block(i, 2) * 3


def test_separation_overflow_guard():
    with pytest.raises(ValueError, match="cap"):
        separation_sequence(SeparationParams(4))


def test_separation_blocks_are_the_sequence_unrepeated():
    for k, reps in [(1, None), (2, None), (2, 3), (3, 1)]:
        params = SeparationParams(k, reps)
        blocks = list(separation_blocks(params))
        assert blocks == [sep_block(i, k) for i in range(params.key_count // 2 + 1)]
        assert separation_sequence(params) == [
            key for block in blocks for key in block * params.effective_reps
        ]


def test_separation_blocks_check_the_cap_at_the_call():
    # Not on the first block: a writer must fail before it writes anything.
    for k, reps in [(4, None), (4, 1600), (14, 1)]:
        with pytest.raises(ValueError, match=f"separation_sequence: k={k}.* cap of 100000000"):
            separation_blocks(SeparationParams(k, reps))


def test_separation_params_validation():
    with pytest.raises(ValueError):
        SeparationParams(0)
    with pytest.raises(ValueError):
        SeparationParams(2, 0)


def test_random_permutation():
    assert random_permutation(1, 987) == [1]
    assert random_permutation(40, 6) == random_permutation(40, 6)
    assert sorted(random_permutation(100, 5)) == list(range(1, 101))
    with pytest.raises(ValueError):
        random_permutation(0, 1)


def test_random_permutation_regression_pin():
    assert random_permutation(5, 42) == [4, 2, 3, 5, 1]
