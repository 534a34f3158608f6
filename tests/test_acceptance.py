"""Acceptance suite: every criterion is exact (tolerance 0) and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random

import bstbounds as bb
from bstbounds.alternation import (
    alt_bound,
    alt_opt,
    balanced_tree,
    random_tree,
)
from bstbounds.funnel import f_value, funnel_bound, funnel_bound_fast, funnel_of
from bstbounds.geometry import from_trace, hflip, rotate90, time_reverse
from bstbounds.sweep import classify_added, irb_down, irb_up, sweep_add_up
from bstbounds.zrect import zrects

from conftest import (
    FUNNEL_POINT,
    FUNNEL_TRACE,
    WORKED_EXAMPLES,
    SIX_ALT,
    SIX_TRACE,
    SIX_TREE_TEXT,
    SWEEP_DOWN_ADDED,
    SWEEP_LABELS,
    SWEEP_SET,
    SWEEP_UP_ADDED,
    TRIO,
    ZR_BLOCKED,
    ZR_MISORDERED,
    ZR_VALID,
    alt_brute,
    enumerate_trees,
    zrects_brute,
)


def _finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_golden_values():
    failures = []
    c = lambda ok, msg: _check(failures, ok, msg)

    P6 = from_trace(SIX_TRACE)
    c(alt_bound(P6, bb.parse_tree(SIX_TREE_TEXT)) == SIX_ALT, "alt on worked trace")

    c(bb.mix_value({1, 3, 6}, {4, 7, 8}) == 4, "mix value example")

    PF = from_trace(FUNNEL_TRACE)
    view = funnel_of(PF, FUNNEL_POINT)
    c(len(view.left) + len(view.right) == 5, "funnel size")
    c(f_value(PF, FUNNEL_POINT) == 3, "funnel alternation count")

    c(funnel_bound(TRIO) == 3, "funnel of three-point set")
    c(funnel_bound(time_reverse(TRIO)) == 2, "funnel of its reversal")

    c(zrects(ZR_VALID).count == 1, "z-rect panel one")
    c(zrects(ZR_BLOCKED).count == 0, "z-rect panel two")
    c(zrects(ZR_MISORDERED).count == 0, "z-rect panel three")

    up = sweep_add_up(SWEEP_SET)
    c(len(up.added) == 8 and up.added_points == SWEEP_UP_ADDED, "up-sweep set")
    down = bb.sweep_add_down(SWEEP_SET)
    c(len(down.added) == 7 and down.added_points == SWEEP_DOWN_ADDED, "down-sweep set")
    c(irb_up(SWEEP_SET) == 8 and irb_down(SWEEP_SET) == 7, "sweep counts")

    labels = {t.point: t.labels for t in classify_added(SWEEP_SET, up)}
    c(labels == SWEEP_LABELS, "added-point type labels")

    for k in (1, 2, 3, 4):
        K = 1 << k
        got = alt_bound(from_trace(bb.bit_reversal(k)), balanced_tree(list(range(K))))
        c(got == k * K, f"alt of bit-reversal k={k}")

    c(
        len(bb.separation_sequence(bb.SeparationParams(2, 16))) == 576,
        "separation length",
    )
    _finish("1 golden values", failures)


def test_criterion_2_oracle_equivalence():
    failures = []
    rng = random.Random(0xACCE)

    for i in range(1000):
        n = rng.randint(2, 10)
        P = from_trace(bb.random_permutation(n, rng.randrange(2**63)))
        if zrects(P).count != zrects_brute(P):
            _check(failures, False, f"zrects mismatch on instance {i}")
            break

    for i in range(500):
        n = rng.randint(1, 7)
        P = from_trace(bb.random_permutation(n, rng.randrange(2**63)))
        if alt_opt(P).value != alt_brute(P).value:
            _check(failures, False, f"alt mismatch on instance {i}")
            break

    for i in range(1000):
        n = rng.randint(1, 200)
        P = from_trace(bb.random_permutation(n, rng.randrange(2**63)))
        if funnel_bound_fast(P) != funnel_bound(P):
            _check(failures, False, f"funnel mismatch on instance {i}")
            break

    _finish("2 oracle equivalence", failures)


def test_criterion_3_exact_inequalities():
    failures = []
    c = lambda ok, msg: _check(failures, ok, msg)
    rng = random.Random(0x17E0)

    instances = [
        from_trace(bb.random_permutation(rng.randint(2, 40), rng.randrange(2**63)))
        for _ in range(1000)
    ]
    for i, P in enumerate(instances):
        m = len(P)
        fb = funnel_bound(P)
        fb_rev = funnel_bound(time_reverse(P))
        keys = sorted({x for x, _ in P})

        if len(keys) <= 7:
            trees = list(enumerate_trees(keys))
        else:
            trees = [random_tree(keys, rng) for _ in range(20)]
        if any(fb + fb_rev < alt_bound(P, T) for T in trees):
            c(False, f"domination fails on instance {i}")
            break

        zr = zrects(P).count
        fvals = {p: f_value(P, p) for p in P}
        c(fb >= 2 * zr, f"lower sandwich fails on instance {i}")
        c(
            zr >= sum(max(0, fv // 2 - 1) for fv in fvals.values()),
            f"per-point sandwich fails on instance {i}",
        )
        c(abs(fb - fb_rev) <= 3 * m, f"reversal gap fails on instance {i}")

        Q = P
        for _ in range(4):
            Q = rotate90(Q)
            c(zrects(Q).count == zr, f"rotation invariance fails on instance {i}")

        F = hflip(P)
        c(funnel_bound(F) == fb, f"flip invariance fails on instance {i}")
        c(
            all(f_value(F, (-x, y)) == fvals[(x, y)] for x, y in P),
            f"pointwise flip equality fails on instance {i}",
        )

        up = sweep_add_up(P)
        c(len(up.added) <= 2 * m + m * zr, f"sweep charge fails on instance {i}")
        try:
            types = classify_added(P, up)
            c(all(t.labels for t in types), f"untyped added point on instance {i}")
        except bb.ClassificationError as exc:
            c(False, f"classification fails on instance {i}: {exc}")
        if failures:
            break

    # The documented examples run through the same checks (z-rect
    # checks are skipped automatically where keys repeat).
    for P in WORKED_EXAMPLES:
        report = bb.run_checks(P, level="full", seed=0)
        c(report.ok, "worked example fails the verify suite")

    _finish("3 exact inequalities", failures)


def test_criterion_4_separation_trend():
    failures = []

    def ratio(k, use_opt):
        K = 1 << k
        n = 1 << K
        reps = math.ceil(n / math.log2(n))
        trace = bb.separation_sequence(bb.SeparationParams(k, reps))
        P = from_trace(trace)
        fb = funnel_bound(P)
        if use_opt:
            denom = alt_opt(P).value
        else:
            denom = alt_bound(P, balanced_tree(sorted(set(trace))))
        return len(trace), fb / denom

    m2, r2 = ratio(2, use_opt=True)
    m3, r3 = ratio(3, use_opt=False)
    _check(failures, m2 == 144, f"reduced length for k=2 is {m2}")
    _check(failures, m3 == 33024, f"reduced length for k=3 is {m3}")
    _check(failures, r3 > r2, f"ratio did not grow: {r2:.4f} vs {r3:.4f}")
    _finish("4 separation trend", failures)


def test_criterion_4_separation_trend_against_alt_opt():
    # The same growth against the optimum over all reference trees.  On
    # both inputs alt-opt exceeds the funnel, so funnel >= alt-opt is
    # never asserted; only the exact values and the growth are.
    failures = []
    values = {}
    for k in (2, 3):
        K = 1 << k
        n = 1 << K
        reps = math.ceil(n / math.log2(n))
        P = from_trace(bb.separation_sequence(bb.SeparationParams(k, reps)))
        values[k] = (funnel_bound(P), alt_opt(P).value)
    (f2, a2), (f3, a3) = values[2], values[3]
    _check(failures, (f2, a2) == (264, 291), f"k=2 funnel, alt-opt: {f2}, {a2}")
    _check(failures, (f3, a3) == (87701, 88053), f"k=3 funnel, alt-opt: {f3}, {a3}")
    _check(failures, f3 * a2 > f2 * a3, f"ratio did not grow: {f2}/{a2} vs {f3}/{a3}")
    _finish("4 separation trend against alt-opt", failures)


def test_criterion_5_zero_zrects_means_linear_sweep():
    failures = []
    rng = random.Random(0x5EED)
    found = 0
    while found < 200:
        n = rng.randint(2, 10)
        P = from_trace(bb.random_permutation(n, rng.randrange(2**63)))
        if zrects(P).count != 0:
            continue
        found += 1
        if irb_up(P) > 2 * len(P):
            _check(failures, False, f"sweep count above 2m on {P!r}")
            break
    _finish("5 zero z-rects keeps the sweep linear", failures)
