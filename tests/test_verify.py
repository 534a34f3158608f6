import random

import pytest

import bstbounds as bb
import bstbounds.alternation
import bstbounds.funnel
import bstbounds.sweep
import bstbounds.verify
import bstbounds.zrect
from bstbounds.alternation import alt_bound, alt_opt, balanced_tree, format_tree
from bstbounds.geometry import from_trace
from bstbounds.verify import FAIL, INFO, PASS, SKIP, run_checks

from conftest import WORKED_EXAMPLES, TRIO, enumerate_trees, out_of_sweep_order, perm_pointset


def _by_name(report):
    return {r.name: r for r in report.results}


def test_all_checks_pass_on_the_worked_examples():
    for P in WORKED_EXAMPLES:
        report = run_checks(P, level="full", seed=1)
        assert report.ok, [(r.name, r.status, r.detail) for r in report.results]


def test_all_checks_pass_on_a_random_permutation():
    report = run_checks(perm_pointset(50, 12345), level="full", seed=2)
    assert report.ok
    names = {r.name for r in report.results}
    assert {
        "two-sided-domination",
        "funnel-hflip",
        "funnel-vs-zrects",
        "zrects-per-point",
        "reverse-gap-3m",
        "zrects-rotation",
        "irb-charge",
        "added-classification",
        "sweep-funnel-remark",
    } <= names


def test_quick_level_skips_the_sweep_checks():
    report = run_checks(perm_pointset(30, 5), level="quick")
    names = {r.name for r in report.results}
    assert "irb-charge" not in names
    assert "two-sided-domination" in names
    assert report.ok


def test_repeated_keys_skip_zrect_checks():
    report = run_checks(from_trace([1, 2, 1, 3]), level="full")
    byname = _by_name(report)
    assert byname["two-sided-domination"].status == PASS
    assert byname["funnel-hflip"].status == PASS
    assert byname["funnel-vs-zrects"].status == SKIP
    assert byname["zrects-rotation"].status == SKIP
    assert report.ok  # skips do not fail the run


def test_gap_is_reported_not_asserted():
    report = run_checks(TRIO, level="full")
    gap = _by_name(report)["irb-up-down-gap"]
    assert gap.status == INFO
    assert gap.detail.lstrip("-").isdigit()


def test_corrupted_funnel_is_caught(monkeypatch):
    # Negative control: a funnel that always answers 0 must break the
    # two-sided domination check.
    monkeypatch.setattr(bstbounds.funnel.FunnelView, "value", property(lambda view: 0))
    report = run_checks(TRIO, level="full")
    assert _by_name(report)["two-sided-domination"].status == FAIL
    assert not report.ok


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize(
    "P", [perm_pointset(40, 3), from_trace([1, 2, 1, 3, 2, 1])], ids=["perm", "repeated-keys"]
)
def test_definition_scan_runs_once_per_access(monkeypatch, level, P):
    # One definition scan per access, in time order, serves both the
    # reference funnel and the remark; the reverse and flipped funnels
    # and every per-access run count come from the move-to-root kernel.
    scanned = []
    real = bstbounds.funnel.funnel_of

    def counting(Q, p):
        scanned.append(p)
        return real(Q, p)

    monkeypatch.setattr(bstbounds.funnel, "funnel_of", counting)
    monkeypatch.setattr(bstbounds.funnel, "f_value", _never)
    monkeypatch.setattr(bstbounds.funnel, "funnel_bound", _never)
    assert run_checks(P, level=level).ok
    assert scanned == list(P)


def test_input_is_replayed_once(monkeypatch):
    # The per-access runs and the z-rectangle count come from one walk
    # of P, whichever module's name for the kernel is called.
    P = perm_pointset(40, 3)
    replays = []
    real = bstbounds.funnel.move_to_root

    def counting(Q, runs_out=None):
        if Q is P:
            replays.append(Q)
        return real(Q, runs_out)

    monkeypatch.setattr(bstbounds.funnel, "move_to_root", counting)
    monkeypatch.setattr(bstbounds.zrect, "move_to_root", counting)
    report = run_checks(P, level="quick")
    assert report.ok
    assert len(replays) == 1


def test_kernel_off_by_one_fails_funnel_hflip(monkeypatch):
    # Negative control: a kernel whose run count is one too high on a
    # single access must break the reference == kernel sum check.
    real = bstbounds.funnel.move_to_root

    def off_by_one(Q, runs_out=None):
        total = real(Q, runs_out)
        if runs_out:
            runs_out[-1] += 1
            total += 1
        return total

    monkeypatch.setattr(bstbounds.funnel, "move_to_root", off_by_one)
    P = perm_pointset(30, 7)
    report = run_checks(P, level="quick")
    assert _by_name(report)["funnel-hflip"].status == FAIL
    assert not report.ok


def test_kernel_pointwise_fault_fails_funnel_hflip(monkeypatch):
    # A fault that keeps the sum but moves one run between accesses of P
    # only is caught by the pointwise comparison with the flipped set.
    real = bstbounds.funnel.move_to_root
    P = perm_pointset(30, 7)

    def shifted(Q, runs_out=None):
        total = real(Q, runs_out)
        if runs_out and Q is P:
            runs_out[-1] += 1
            runs_out[0] -= 1
        return total

    monkeypatch.setattr(bstbounds.funnel, "move_to_root", shifted)
    report = run_checks(P, level="quick")
    assert _by_name(report)["funnel-hflip"].status == FAIL


def test_wrong_repeat_plan_fails_funnel_hflip(monkeypatch):
    # Negative control for the fold: both replays read the patched plan,
    # and the definition scan folds nothing.  A plan that claims one copy too
    # many folds [2, 1, 3] in as a copy of the block [1, 2, 3].
    P = from_trace([1, 2, 3] * 4 + [2, 1, 3])
    assert P.repeats == [(6, 3, 2)]
    assert run_checks(P, level="quick").ok
    monkeypatch.setattr(bb.PointSet, "repeats", property(lambda self: [(6, 3, 3)]))
    report = run_checks(P, level="quick")
    assert _by_name(report)["funnel-hflip"].status == FAIL


def test_no_zrect_tops_fails_added_classification(monkeypatch):
    # Negative control: a type-c point is charged to an access that tops
    # a z-rectangle, so a count that reports no tops leaves it untyped.
    P = perm_pointset(40, 3)
    up = bb.sweep_add_up(P)
    assert any("c" in t.labels for t in bb.classify_added(P, up))
    assert _by_name(run_checks(P, level="full"))["added-classification"].status == PASS
    monkeypatch.setattr(bstbounds.zrect, "zrect_counts", lambda xs, runs: [0] * len(runs))
    report = run_checks(P, level="full")
    assert _by_name(report)["added-classification"].status == FAIL


def test_corners_out_of_sweep_order_fail_added_classification(monkeypatch):
    # Negative control for the order guard: the check reports the
    # refusal as a failure instead of raising it.
    P = perm_pointset(40, 3)
    up = bb.sweep_add_up(P)
    for added in out_of_sweep_order(up.added):
        moved = up._replace(added=added)
        monkeypatch.setattr(bstbounds.sweep, "sweep_add_up", lambda Q: moved)
        result = _by_name(run_checks(P, level="full"))["added-classification"]
        assert (result.status, result.detail) == (FAIL, "added points are not in sweep order")


def _remark_setup():
    """A seeded permutation, its up-sweep, and a copy of the sweep with
    one corner moved into a column right of its row's access whose
    access lies below the corner, so only the funnel test can refuse it."""
    P = perm_pointset(40, 7)
    up = bb.sweep_add_up(P)
    time_of = {x: y for x, y in P}
    key_at = {y: x for x, y in P}
    for i, (x, y) in enumerate(up.added):
        right = [c for c in P.keys if c > key_at[y] and time_of[c] < y]
        if right:
            moved = up.added[:i] + ((right[0], y),) + up.added[i + 1 :]
            return P, up, up._replace(added=moved)
    raise AssertionError("no corner can be moved right of its row's access")


def test_corner_right_of_its_access_fails_the_remark(monkeypatch):
    # Negative control: a column right of the row's access holds no point
    # of that access's left funnel.
    P, up, bad = _remark_setup()
    assert _by_name(run_checks(P, level="full"))["sweep-funnel-remark"].status == PASS
    monkeypatch.setattr(bstbounds.sweep, "sweep_add_up", lambda P: bad)
    report = run_checks(P, level="full")
    assert _by_name(report)["sweep-funnel-remark"].status == FAIL


def _remark_status(monkeypatch, P, up, added):
    """The remark's status when the up-sweep reports ``added``."""
    monkeypatch.setattr(bstbounds.sweep, "sweep_add_up", lambda Q: up._replace(added=added))
    return _by_name(run_checks(P, level="full"))["sweep-funnel-remark"].status


@pytest.mark.parametrize("order", [reversed, sorted], ids=["reversed", "by-x"])
def test_remark_passes_in_any_corner_order(monkeypatch, order):
    # Corners are grouped by row before any row is tested, so they need
    # not come in sweep order.
    P, up, _ = _remark_setup()
    assert _remark_status(monkeypatch, P, up, tuple(order(up.added))) == PASS


def _corner_in_an_empty_row(P, up):
    return (P.keys[0], max(P.ys) + 1)


def _corner_of_a_key_never_accessed(P, up):
    return (min(P.keys) - 1, up.added[0][1])


def _corner_below_its_column_access(P, up):
    # Left of its row's access, but that column is accessed later.
    time_of = {x: y for x, y in P}
    for x, y in P:
        later = [c for c in P.keys if c < x and time_of[c] > y]
        if later:
            return (later[-1], y)
    raise AssertionError("no column left of an access is accessed after it")


@pytest.mark.parametrize(
    "corner",
    [_corner_in_an_empty_row, _corner_of_a_key_never_accessed, _corner_below_its_column_access],
    ids=["empty-row", "key-never-accessed", "column-access-above"],
)
def test_misplaced_corner_fails_the_remark(monkeypatch, corner):
    # Negative controls: one corner added to a good sweep, at a place no
    # funnel pair can explain.
    P, up, _ = _remark_setup()
    assert _remark_status(monkeypatch, P, up, up.added + (corner(P, up),)) == FAIL


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks(TRIO, level="thorough")


def _traces_up_to(max_keys, count, seed):
    """Seeded permutations and uniform traces (repeated keys) over at
    most max_keys keys."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_keys)
        if i % 2:
            yield rng.sample(range(1, n + 1), n)
        else:
            yield [rng.randint(1, n) for _ in range(rng.randint(1, 4 * n))]


def test_alt_opt_is_the_maximum_over_every_tree_up_to_seven_keys():
    # What the domination check gave up: it enumerated every tree for
    # n <= 7, and alt_opt must match that maximum.
    for trace in _traces_up_to(7, 300, seed=16):
        P = from_trace(trace)
        assert alt_opt(P).value == max(alt_bound(P, T) for T in enumerate_trees(P.keys)), trace


def _never(*args):
    raise AssertionError("called")


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bstbounds.alternation, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bstbounds.alternation, name, counting)
    return calls


@pytest.mark.parametrize("n", [2, 7, 8, 32])
def test_full_level_up_to_32_keys_asks_alt_opt_once(monkeypatch, n):
    # Up to 32 keys the refined tree is alt_opt's tree for all of P, and
    # its one walk checks alt_opt's value.
    monkeypatch.setattr(bstbounds.alternation, "random_tree", _never)
    opt_calls = _counting(monkeypatch, "alt_opt")
    walked = _counting(monkeypatch, "alt_bound")
    for trace in (bb.random_permutation(n, n), [k % n + 1 for k in range(3 * n)]):
        P = from_trace(trace)
        reports = [run_checks(P, level="full", seed=seed).results for seed in (0, 1, 99)]
        assert reports[0] == reports[1] == reports[2]
        assert _by_name(run_checks(P, level="full")).get("two-sided-domination").status == PASS
        assert [Q for (Q,) in opt_calls[-4:]] == [P] * 4
        assert [tree for _, tree in walked[-4:]] == [alt_opt(P).tree] * 4
    assert len(opt_calls) == len(walked) == 8


def test_quick_level_walks_only_the_balanced_tree(monkeypatch):
    monkeypatch.setattr(bstbounds.alternation, "alt_opt", _never)
    monkeypatch.setattr(bstbounds.alternation, "random_tree", _never)
    walked = _counting(monkeypatch, "alt_bound")
    P = perm_pointset(32, 4)
    assert run_checks(P, level="quick").ok
    assert [tree for _, tree in walked] == [balanced_tree(P.keys)]


def test_full_level_above_32_keys_walks_one_tree(monkeypatch):
    # 33 keys split as the balanced tree's root does, 17 | 16, and each
    # side is alt_opt's tree for the accesses to its keys.
    P = perm_pointset(33, 4)
    sides = [from_trace([x for x in P.xs if (x <= P.keys[16]) == left]) for left in (True, False)]
    refined = (alt_opt(sides[0]).tree, alt_opt(sides[1]).tree)
    opt_calls = _counting(monkeypatch, "alt_opt")
    walked = _counting(monkeypatch, "alt_bound")
    assert run_checks(P, level="full").ok
    assert [tree for _, tree in walked] == [refined]
    assert [Q.xs for (Q,) in opt_calls] == [Q.xs for Q in sides]


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("n", [5, 33, 200])
def test_no_random_tree_and_no_seed(monkeypatch, level, n):
    # Every check is deterministic: the seed is accepted and ignored.
    monkeypatch.setattr(bstbounds.alternation, "random_tree", _never)
    for P in (perm_pointset(n, 12), from_trace([(7 * k) % n + 1 for k in range(3 * n)])):
        reports = [run_checks(P, level=level, seed=seed).results for seed in (0, 1, 99)]
        assert reports[0] == reports[1] == reports[2]
        assert all(r.status != FAIL for r in reports[0])


def _with_subtrees(monkeypatch, seen=None):
    """``_refined_tree`` with each replaced subtree balanced instead of
    alt_opt's tree; the accesses Q to its keys go to ``seen``."""

    def balanced_witness(Q):
        if seen is not None:
            seen.append(Q)
        return bstbounds.alternation.AltWitness(0, balanced_tree(Q.keys))

    monkeypatch.setattr(bstbounds.alternation, "alt_opt", balanced_witness)
    return bstbounds.verify._refined_tree


def test_refined_tree_with_balanced_subtrees_is_the_balanced_tree(monkeypatch):
    refined = _with_subtrees(monkeypatch)
    for n in [*range(1, 301), 1000, 4097]:
        P = from_trace(random.Random(n).sample(range(-5 * n, 5 * n), n))
        assert refined(P) == balanced_tree(P.keys), n


def test_refined_tree_replaces_the_largest_subtrees_of_at_most_32_keys(monkeypatch):
    # Each replaced subtree is handed the accesses to its keys, in time
    # order; the balanced tree's nodes with more keys stay.
    seen = []
    refined = _with_subtrees(monkeypatch, seen)
    P = perm_pointset(200, 3)  # 200 -> 100 -> 50 -> 25
    refined(P)
    assert [len(Q.keys) for Q in seen] == [25] * 8
    for Q in seen:
        assert Q.xs == [x for x in P.xs if Q.keys[0] <= x <= Q.keys[-1]]
    seen.clear()
    refined(perm_pointset(65, 3))  # 65 -> 33 | 32, 33 -> 17 | 16
    assert [len(Q.keys) for Q in seen] == [17, 16, 32]


def _uniform(m, n, seed):
    rng = random.Random(seed)
    return [rng.randint(1, n) for _ in range(m)]


# Inputs above 32 keys: permutations, the separation sequence, and a
# uniform trace with m >> n.
_LARGER_INPUTS = {
    "perm-400": lambda: bb.random_permutation(400, 0),
    "perm-2500": lambda: bb.random_permutation(2500, 0),
    "perm-8000": lambda: bb.random_permutation(8000, 0),
    "separation-3": lambda: bb.separation_sequence(bb.SeparationParams(3, None)),
    "uniform-20000-over-500": lambda: _uniform(20000, 500, 0),
}


@pytest.mark.parametrize("name", list(_LARGER_INPUTS))
def test_refined_tree_is_at_least_the_balanced_one(name):
    P = from_trace(_LARGER_INPUTS[name]())
    refined = bstbounds.verify._refined_tree(P)
    assert alt_bound(P, refined) >= alt_bound(P, balanced_tree(P.keys))


@pytest.mark.parametrize("n", [5, 32, 33])
def test_domination_failure_names_the_tree(monkeypatch, n):
    # Negative control: with both funnels forced to 0, the check fails on
    # the refined tree: alt_opt's witness up to 32 keys, and above, the
    # balanced root over alt_opt's trees for its two sides.
    monkeypatch.setattr(bstbounds.funnel.FunnelView, "value", property(lambda view: 0))
    monkeypatch.setattr(bstbounds.funnel, "funnel_bound_fast", lambda P: 0)
    P = perm_pointset(n, 8)
    if n <= 32:
        tree = alt_opt(P).tree
    else:
        split = P.keys[(n - 1) // 2]
        sides = ([x for x in P.xs if x <= split], [x for x in P.xs if x > split])
        tree = tuple(alt_opt(from_trace(xs)).tree for xs in sides)
    alt = alt_bound(P, tree)
    result = _by_name(run_checks(P, level="full"))["two-sided-domination"]
    assert (result.status, result.detail) == (
        FAIL,
        f"funnel 0 + reverse funnel 0 < alt {alt} for tree {format_tree(tree)}",
    )
