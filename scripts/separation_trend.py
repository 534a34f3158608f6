#!/usr/bin/env python3
"""How the funnel/alternation ratio grows on the separation sequence.

For each k the separation sequence interleaves geometrically spaced key
blocks so that no reference tree alternates much, while the funnel value
keeps growing.  This prints one TSV row per k with both bound values and
their ratio.  The alternation side uses the interval-DP optimum while the
key count stays small and falls back to the balanced tree above the
--opt-keys threshold (the DP costs O(n^2 * m) for n keys and m
accesses; k=3 has n=256 and m=264,192).

Usage: python scripts/separation_trend.py [--ks 2 3] [--reps-full]
"""

import argparse
import math
import sys
import time

from bstbounds import SeparationParams, separation_sequence
from bstbounds.alternation import alt_bound, alt_opt, balanced_tree
from bstbounds.funnel import funnel_bound_fast
from bstbounds.geometry import from_trace


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ks", type=int, nargs="+", default=[2, 3])
    ap.add_argument(
        "--reps-full",
        action="store_true",
        help="repeat each block n times instead of ceil(n / lg n)",
    )
    ap.add_argument("--opt-keys", type=int, default=32)
    args = ap.parse_args()

    print("k\tn\treps\tm\tfunnel\talt\talt-tree\tratio\tseconds")
    for k in args.ks:
        K = 1 << k
        n = 1 << K
        reps = None if args.reps_full else math.ceil(n / math.log2(n))
        start = time.perf_counter()
        trace = separation_sequence(SeparationParams(k, reps))
        P = from_trace(trace)
        fb = funnel_bound_fast(P)
        keys = sorted(set(trace))
        if len(keys) <= args.opt_keys:
            alt, tree_kind = alt_opt(P).value, "opt"
        else:
            alt, tree_kind = alt_bound(P, balanced_tree(keys)), "balanced"
        elapsed = time.perf_counter() - start
        print(
            f"{k}\t{n}\t{reps if reps is not None else n}\t{len(trace)}\t"
            f"{fb}\t{alt}\t{tree_kind}\t{fb / alt:.4f}\t{elapsed:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
