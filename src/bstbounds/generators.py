"""Access-sequence generators: bit-reversal, geometrically spaced blocks,
the concatenated separation sequence, and seeded random permutations.

The separation sequence is a run of distinct blocks, each repeated, so
``separation_blocks`` hands out the blocks one at a time: a writer can
emit a sequence of any length allowed by the cap while holding one block.
``bit_reversal_slices`` likewise hands out the bit-reversal permutation
one slice at a time, from two short permutations.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

_MAX_BITREV_K = 24  # 2^24 keys is already far past desk scale
_MAX_SEQUENCE_LEN = 100_000_000


def bit_reversal(k: int) -> list[int]:
    """Permutation of {0..2^k - 1} reversing each k-bit representation."""
    _check_bitrev_k(k)
    return _reversal(k)


def bit_reversal_slices(k: int, size: int) -> Iterator[list[int]]:
    """``bit_reversal(k)`` in consecutive slices of 2^j keys, for 2^j the
    largest power of two up to ``size`` (or one slice, if k <= j).  k is
    checked here, at the call.

    Position h·2^j + l reverses to R_j[l]·2^(k-j) + R_{k-j}[h], since the
    low j bits of a position become the high bits of its reversal; so
    only R_j and R_{k-j} are held, never all 2^k keys.
    """
    _check_bitrev_k(k)
    j = min(k, size.bit_length() - 1)
    low = _reversal(j)
    if j == k:
        return iter((low,))
    return ([(r << (k - j)) | h for r in low] for h in _reversal(k - j))


def _check_bitrev_k(k: int) -> None:
    if k < 1:
        raise ValueError("bit_reversal: k must be >= 1")
    if k > _MAX_BITREV_K:
        raise ValueError(f"bit_reversal: k={k} exceeds the cap of {_MAX_BITREV_K}")


def _reversal(k: int) -> list[int]:
    # R_k = 2·R_{k-1} followed by 2·R_{k-1} + 1: the top bit of v becomes
    # the low bit of its reversal.  R_0 = [0].
    out = [0]
    for _ in range(k):
        out = [2 * r for r in out] + [2 * r + 1 for r in out]
    return out


def sep_block(i: int, k: int) -> list[int]:
    """Geometrically spaced keys i+1, i+2, i+4, ... visited in
    bit-reversal order."""
    if i < 0:
        raise ValueError("sep_block: i must be >= 0")
    if k < 1:
        raise ValueError("sep_block: k must be >= 1")
    if k > _MAX_BITREV_K:  # before n = 2^(2^k) is built
        raise ValueError(f"sep_block: k={k} exceeds the cap of {_MAX_BITREV_K}")
    K = 1 << k
    n = 1 << K
    if i > n // 2:
        raise ValueError(f"sep_block: i={i} out of range 0..{n // 2}")
    return [i + (1 << r) for r in bit_reversal(k)]


class _SeparationFields(NamedTuple):
    k: int
    reps: int | None = None


class SeparationParams(_SeparationFields):
    """Parameters of the separation sequence.

    With K = 2^k keys per block and n = 2^K distinct keys overall, the
    sequence concatenates blocks 0..n/2, each repeated ``reps`` times
    (default n), for a total length of (n/2 + 1) * reps * K.
    """

    __slots__ = ()

    def __new__(cls, k: int, reps: int | None = None):
        if k < 1:
            raise ValueError("SeparationParams: k must be >= 1")
        if reps is not None and reps < 1:
            raise ValueError("SeparationParams: reps must be >= 1")
        return super().__new__(cls, k, reps)

    @property
    def block_len(self) -> int:
        return 1 << self.k

    @property
    def key_count(self) -> int:
        return 1 << self.block_len

    @property
    def effective_reps(self) -> int:
        return self.key_count if self.reps is None else self.reps

    @property
    def length(self) -> int:
        return (self.key_count // 2 + 1) * self.effective_reps * self.block_len


def separation_blocks(params: SeparationParams) -> Iterator[list[int]]:
    """The distinct blocks of the separation sequence, ``sep_block(i, k)``
    for i = 0..n/2, in order; the sequence repeats each one
    ``params.effective_reps`` times.  The length cap is checked here, at
    the call, before any block is made."""
    # The length is at least n/2 = 2^(2^k - 1): over the cap once 2^k tops
    # the cap's bit length.  Test k first, before n is built.
    if (
        params.k >= _MAX_SEQUENCE_LEN.bit_length().bit_length()
        or params.length > _MAX_SEQUENCE_LEN
    ):
        reps = "" if params.reps is None else f", reps={params.reps}"
        raise ValueError(
            f"separation_sequence: k={params.k}{reps} needs more accesses "
            f"than the cap of {_MAX_SEQUENCE_LEN}"
        )
    return (sep_block(i, params.k) for i in range(params.key_count // 2 + 1))


def separation_sequence(params: SeparationParams) -> list[int]:
    """Concatenation of repeated geometrically spaced blocks; keys in
    [1, n].  Every reference tree's alternation value stays linear on it
    while the funnel value does not."""
    reps = params.effective_reps
    out: list[int] = []
    for block in separation_blocks(params):
        out.extend(block * reps)
    return out


def random_permutation(n: int, seed: int) -> list[int]:
    """Uniform shuffle of 1..n, deterministic per seed."""
    if n < 1:
        raise ValueError("random_permutation: n must be >= 1")
    keys = list(range(1, n + 1))
    random.Random(seed).shuffle(keys)
    return keys
