"""Exact cross-checks between the bounds on a concrete input.

Every check below is an exact inequality or invariance (no asymptotic
slack): the two-sided domination of the alternation value, the two
sandwich inequalities between the funnel value and the z-rectangle
count, the reversal gap with explicit constant 3m, rotation and flip
invariances, the sweep-count charge, and totality of the added-point
classification.  Checks that need distinct keys are skipped (with a
notice) when the input has repeated x-coordinates.  The domination
check walks one reference tree: at ``quick`` the balanced tree; at
``full`` the refined tree, the balanced tree with each largest subtree
of at most 32 keys replaced by ``alt_opt``'s tree for its keys' accesses.

The funnel's definition scan ``funnel_of`` runs once per access of the
input, in time order.  Its views' values sum to the independent funnel
value, and at ``full`` the same view checks the up-sweep corners in that
access's row (the sweep-funnel remark).  Every other funnel value, per
access or summed, comes from the move-to-root kernel, whose sum must
equal the independent one.  The kernel replays the input once, for its
per-access run counts; with distinct keys, the z-rectangle count is a
formula over those runs and each access's previous key
(``zrect.zrect_counts``).  Both replays, of the input and of its key
mirror, fold their repeated blocks by the input's repeat plan, which the
mirror carries; the definition scan folds nothing, so ``funnel-hflip``
checks the fold on every run.  At ``full``, ``sweep.classify_added``
replays the input once more for the z-rectangle tops.
"""

from __future__ import annotations

from typing import NamedTuple

from . import alternation, funnel, sweep, zrect
from .geometry import PointSet, from_trace, hflip, rotate90, time_reverse

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INFO = "INFO"

# Most keys of a replaced subtree: n - 1 pairs per access, n^3/6 DP cells.
_ALT_OPT_KEYS = 32


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str = ""


class VerifyReport:
    """The results of the checks run so far, in order."""

    def __init__(self, results: list[CheckResult] | None = None):
        self.results: list[CheckResult] = [] if results is None else results

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, PASS if ok else FAIL, detail if not ok else ""))

    def skip(self, name: str, why: str) -> None:
        self.results.append(CheckResult(name, SKIP, why))

    def info(self, name: str, detail: str) -> None:
        self.results.append(CheckResult(name, INFO, detail))


def run_checks(P: PointSet, level: str = "full", seed: int = 0) -> VerifyReport:
    """Run the suite on one point set; `quick` walks the balanced tree, not
    the refined one, and trims the sweep-based checks.  `seed` is ignored."""
    if level not in ("quick", "full"):
        raise ValueError(f"run_checks: unknown level {level!r}")
    report = VerifyReport()
    if not P.has_distinct_y:
        report.add("distinct-y", False, "input has repeated y-coordinates")
        return report

    # One definition scan per access, in time order, gives the
    # independent funnel value and, at `full` on distinct keys, the
    # remark's test of the up-sweep corners in that access's row.
    up = sweep.sweep_add_up(P) if level == "full" and P.has_distinct_x else None
    rows: dict[int, list[int]] = {}
    if up is not None:
        for x, y in up.added:
            rows.setdefault(y, []).append(x)
    fb = 0
    remark = True
    for p in P:
        view = funnel.funnel_of(P, p)
        fb += view.value
        row = rows.pop(p[1], None)
        if row is not None and not _remark_holds(view, row):
            remark = False
    remark = remark and not rows
    fb_rev = funnel.funnel_bound_fast(time_reverse(P))
    # One replay of P gives every access's run count and, with distinct
    # keys, its z-rectangles.
    runs: list[int] = []
    funnel.move_to_root(P, runs)
    zr = sum(zrect.zrect_counts(P.xs, runs)) if P.has_distinct_x else 0
    m = len(P)

    # Two-sided domination: funnel(P) + funnel(rev P) >= alt_T(P) for every tree T.
    bad = ""
    if m:
        tree = _refined_tree(P) if level == "full" else alternation.balanced_tree(P.keys)
        alt = alternation.alt_bound(P, tree)
        if fb + fb_rev < alt:
            bad = (
                f"funnel {fb} + reverse funnel {fb_rev} < alt {alt} "
                f"for tree {alternation.format_tree(tree)}"
            )
    report.add("two-sided-domination", not bad, bad)

    # Flip invariance holds pointwise, not just in the sum; the kernel's
    # sum must also equal the reference.  Flipping keeps the time order.
    flipped_runs: list[int] = []
    funnel.move_to_root(hflip(P), runs_out=flipped_runs)
    report.add(
        "funnel-hflip",
        runs == flipped_runs and fb == sum(runs),
        f"funnel {fb}, kernel {sum(runs)}, flipped kernel {sum(flipped_runs)}",
    )

    if not P.has_distinct_x:
        skipped = ["funnel-vs-zrects", "zrects-per-point", "reverse-gap-3m", "zrects-rotation"]
        if level == "full":
            skipped += ["irb-charge", "added-classification", "sweep-funnel-remark"]
        for name in skipped:
            report.skip(name, "input has repeated keys")
        return report

    report.add("funnel-vs-zrects", fb >= 2 * zr, f"funnel {fb} < 2*{zr}")

    # The count is a formula over the same runs, so this checks the
    # formula against the runs' floor, not an independent count.
    per_point = sum(max(0, r // 2 - 1) for r in runs)
    report.add(
        "zrects-per-point", zr >= per_point, f"zrects {zr} < per-point sum {per_point}"
    )

    report.add(
        "reverse-gap-3m",
        abs(fb - fb_rev) <= 3 * m,
        f"|{fb} - {fb_rev}| > 3*{m}",
    )

    rotated = P
    ok_rot = True
    for _ in range(3):
        rotated = rotate90(rotated)
        if zrect.zrects(rotated).count != zr:
            ok_rot = False
            break
    report.add("zrects-rotation", ok_rot, f"count changed under rotation (was {zr})")

    if up is not None:
        n_up = len(up.added)
        report.add(
            "irb-charge",
            n_up <= 2 * m + m * zr,
            f"irb-up {n_up} > 2*{m} + {m}*{zr}",
        )
        try:
            sweep.classify_added(P, up)
            report.add("added-classification", True)
        except sweep.ClassificationError as exc:
            report.add("added-classification", False, str(exc))
        report.add(
            "sweep-funnel-remark",
            remark,
            "an added point's column/row access pair is not funnel-visible",
        )
        report.info("irb-up-down-gap", str(n_up - sweep.irb_down(P)))

    return report


def _refined_tree(P: PointSet) -> alternation.Tree:
    """The refined tree over P's keys.  Its top and the recursion are the
    balanced tree's, so its nodes switch as that tree's do; on at most 32
    keys it is alt_opt's witness, so the walk checks alt_opt's value too."""
    keys = P.keys
    if len(keys) <= _ALT_OPT_KEYS:
        return alternation.alt_opt(P).tree
    k = (len(keys) - 1) // 2
    split = keys[k]
    left = _refined_tree(from_trace([x for x in P.xs if x <= split], distinct=keys[: k + 1]))
    return left, _refined_tree(from_trace([x for x in P.xs if x > split], distinct=keys[k + 1 :]))


def _remark_holds(view: funnel.FunnelView, row: list[int]) -> bool:
    # Each added point pairs the access below it in its column with the
    # access in its row; the former must lie in the latter's left funnel,
    # `view`.  Keys are distinct here, so a column's one access is in the
    # left funnel exactly when its key is.
    return set(row) <= {x for x, _ in view.left}
