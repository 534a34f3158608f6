"""Interleaving measure of two disjoint integer sets.

Lay the union of the two sets out in increasing order and label each
element L or R by origin; ``mix_value`` counts the maximal runs of equal
labels by a single merge, without materializing the string.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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
    """Run count of the labels of the sorted union of two disjoint sets."""
    L, R = sorted(set(left)), sorted(set(right))
    if set(L) & set(R):
        raise ValueError(f"mix_value: sets overlap on {sorted(set(L) & set(R))}")
    return merged_blocks(L, R)
