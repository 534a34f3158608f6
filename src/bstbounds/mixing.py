"""Interleaving measure of two disjoint integer sets.

``mix`` lays the union of the two sets out in increasing order and labels
each element L or R by origin; ``blocks`` counts maximal runs of equal
labels; ``mix_value`` is their composition, computed by a single merge
without materializing the string.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


def merged_blocks(a: Sequence[int], b: Sequence[int]) -> int:
    """Run count of the label string of merging two sorted disjoint lists.

    Inputs must already be sorted and disjoint, which is not re-checked
    here.
    """
    i, j = 0, 0
    na, nb = len(a), len(b)
    count = 0
    last = 0  # 0 none, 1 from a, 2 from b
    while i < na and j < nb:
        if a[i] < b[j]:
            side = 1
            i += 1
        else:
            side = 2
            j += 1
        if side != last:
            count += 1
            last = side
    if i < na and last != 1:
        count += 1
    if j < nb and last != 2:
        count += 1
    return count


def mix_value(left: Iterable[int], right: Iterable[int]) -> int:
    """blocks(mix(left, right)), without building the string."""
    L, R = sorted(set(left)), sorted(set(right))
    if set(L) & set(R):
        raise ValueError(f"mix_value: sets overlap on {sorted(set(L) & set(R))}")
    return merged_blocks(L, R)
