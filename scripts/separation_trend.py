#!/usr/bin/env python3
"""How the funnel/alternation ratio grows on the separation sequence.

For each k the separation sequence interleaves geometrically spaced key
blocks so that no reference tree alternates much, while the funnel value
keeps growing.  This prints one TSV row per k with both bound values and
their ratio.  The alternation side is the optimum over all reference
trees, from the interval DP; it costs O(P + n^3) for n keys and P
funnel pairs (at most (n - 1) * m for m accesses), and is most of the
time, since the funnel folds each repeated block.  The whole script
takes about 0.9 s with the default --ks 2 3 (k=3: n=256, m=33,024) and
1.3 s with --reps-full (m=264,192) on a 2-core Intel Xeon with Python
3.11, process start-up included.

Usage: python scripts/separation_trend.py [--ks 2 3] [--reps-full]
"""

import argparse
import math
import sys
import time

from bstbounds import SeparationParams, separation_sequence
from bstbounds.alternation import alt_opt
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
        alt = alt_opt(P).value
        elapsed = time.perf_counter() - start
        print(
            f"{k}\t{n}\t{reps if reps is not None else n}\t{len(trace)}\t"
            f"{fb}\t{alt}\topt\t{fb / alt:.4f}\t{elapsed:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
