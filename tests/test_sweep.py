import random
import tracemalloc

import pytest
from hypothesis import given, settings

import bstbounds as bb
from bstbounds import sweep
from bstbounds.funnel import funnel_of
from bstbounds.generators import bit_reversal
from bstbounds.geometry import PointSet, from_trace, hflip, rotate90
from bstbounds.sweep import (
    ClassificationError,
    classify_added,
    irb_down,
    irb_up,
    serialize_sweep,
    sweep_add_down,
    sweep_add_up,
)
from bstbounds.zrect import zrects

from conftest import (
    SWEEP_DOWN_ADDED,
    SWEEP_LABELS,
    SWEEP_SET,
    SWEEP_UP_ADDED,
    classify_added_scan,
    out_of_sweep_order,
    point_sets,
    seeded_perms,
    sweep_down_rescan,
    sweep_up_rescan,
)


def test_up_sweep_reproduces_the_documented_set():
    out = sweep_add_up(SWEEP_SET)
    assert out.added_points == SWEEP_UP_ADDED
    assert len(out.added) == 8
    assert irb_up(SWEEP_SET) == 8


def test_down_sweep_reproduces_the_documented_set():
    out = sweep_add_down(SWEEP_SET)
    assert out.added_points == SWEEP_DOWN_ADDED
    assert len(out.added) == 7
    assert irb_down(SWEEP_SET) == 7


def test_degenerate_inputs():
    assert irb_up(PointSet()) == 0
    assert irb_down(PointSet()) == 0
    assert irb_up(PointSet([(3, 3)])) == 0
    assert irb_down(PointSet([(3, 3)])) == 0


def test_monotone_trace():
    P = from_trace([1, 2, 3])
    assert sweep_add_up(P).added_points == {(1, 2), (2, 3)}
    assert irb_up(P) == 2
    assert irb_down(P) == 0


def test_sweep_refuses_repeated_keys():
    # Each public sweep names itself, not the helper it shares.
    for sweep_fn in (sweep_add_up, sweep_add_down, irb_up, irb_down):
        message = f"^{sweep_fn.__name__}: point set must have distinct x-coordinates$"
        with pytest.raises(ValueError, match=message):
            sweep_fn(from_trace([1, 2, 1]))


def test_added_points_share_coordinates_with_accesses():
    for P in seeded_perms(50, 25, seed=606):
        out = sweep_add_up(P)
        xs = {x for x, _ in P}
        ys = {y for _, y in P}
        for x, y in out.added:
            assert x in xs and y in ys
            assert (x, y) not in P
        assert len(out.added_points) == len(out.added)


def test_down_equals_up_of_mirror():
    for P in seeded_perms(50, 25, seed=707):
        assert irb_down(P) == irb_up(hflip(P))


def test_every_added_row_holds_an_access():
    # The access in an added point's row is the one that created it.
    rows = {y for _, y in SWEEP_SET}
    for out in (sweep_add_up(SWEEP_SET), sweep_add_down(SWEEP_SET)):
        assert all(y in rows for _, y in out.added)


def test_classification_labels_match_documented_example():
    out = sweep_add_up(SWEEP_SET)
    types = classify_added(SWEEP_SET, out)
    assert {t.point: t.labels for t in types} == SWEEP_LABELS
    charged = [t for t in types if t.zrect_top is not None]
    assert [t.zrect_top for t in charged] == [(3, 5)]


def test_single_added_point_is_rightmost_and_highest():
    P = from_trace([1, 2])
    out = sweep_add_up(P)
    (t,) = classify_added(P, out)
    assert t.labels == "ab"


def test_classification_is_total_on_random_permutations():
    for P in seeded_perms(150, 40, seed=808):
        out = sweep_add_up(P)
        types = classify_added(P, out)
        assert len(types) == len(out.added)
        assert all(t.labels for t in types)


def test_classification_requires_matching_up_sweep():
    out = sweep_add_down(SWEEP_SET)
    with pytest.raises(ValueError, match="up-sweep"):
        classify_added(SWEEP_SET, out)
    other = from_trace([1, 2])
    with pytest.raises(ValueError, match="belong"):
        classify_added(other, sweep_add_up(SWEEP_SET))


def test_charge_bound_on_random_permutations():
    for P in seeded_perms(100, 30, seed=909):
        m = len(P)
        assert irb_up(P) <= 2 * m + m * zrects(P).count


def test_zero_zrects_implies_linear_up_count():
    found = 0
    for P in seeded_perms(400, 10, seed=111):
        if zrects(P).count == 0:
            found += 1
            assert irb_up(P) <= 2 * len(P)
    assert found > 50


def test_added_points_come_from_funnel_pairs():
    # Each added point links the access below it in its column to the
    # access in its row; the former sits in the latter's left funnel.
    for P in seeded_perms(40, 20, seed=222):
        access_by_y = {y: (x, y) for x, y in P}
        for ax, ay in sweep_add_up(P).added:
            below = [(x, y) for x, y in P if x == ax and y < ay]
            partner = max(below, key=lambda p: p[1])
            assert partner in funnel_of(P, access_by_y[ay]).left


def test_serialize_sweep():
    P = from_trace([1, 2, 3])
    out = sweep_add_up(P)
    types = classify_added(P, out)
    text = serialize_sweep(out, types)
    assert text == "A 1 1\n+ 1 2 ab\nA 2 2\n+ 2 3 ab\nA 3 3\n"
    bare = serialize_sweep(out)
    assert bare == "A 1 1\n+ 1 2\nA 2 2\n+ 2 3\nA 3 3\n"


def assert_sweeps_match_rescan(P):
    assert sweep_add_up(P).added == sweep_up_rescan(P)
    assert sweep_add_down(P).added == sweep_down_rescan(P)


def sparse_sets(count, max_m, seed):
    """Distinct-xy sets with sparse, partly negative coordinates."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(0, max_m)
        xs = rng.sample(range(-10**6, 10**6), m)
        ys = rng.sample(range(-10**6, 10**6), m)
        yield PointSet(zip(xs, ys))


def test_sweeps_match_rescan_oracle_on_permutations():
    for P in seeded_perms(40, 300, seed=313, min_n=100):
        assert_sweeps_match_rescan(P)
    for P in seeded_perms(300, 12, seed=314):
        assert_sweeps_match_rescan(P)


def test_sweeps_match_rescan_oracle_on_sparse_and_transformed_sets():
    for P in sparse_sets(60, 120, seed=515):
        for Q in (P, rotate90(P), rotate90(rotate90(P)), hflip(P), hflip(rotate90(P))):
            assert_sweeps_match_rescan(Q)


@settings(max_examples=200, deadline=None)
@given(point_sets(max_size=16, distinct_x=True))
def test_sweeps_match_rescan_oracle_on_random_sets(P):
    for Q in (P, rotate90(P), hflip(P)):
        assert_sweeps_match_rescan(Q)


def assert_classification_matches_scan(P):
    """``classify_added`` against the per-point scan; the number of
    type-c points."""
    out = sweep_add_up(P)
    types = [(t.point, t.labels, t.zrect_top) for t in classify_added(P, out)]
    assert types == classify_added_scan(P, out)
    return sum(top is not None for _, _, top in types)


def test_classification_matches_per_point_scan():
    charged = sum(map(assert_classification_matches_scan, seeded_perms(40, 200, seed=616)))
    assert charged > 1000
    # The sets of the sweeps' sparse and transformed oracle test.
    charged = 0
    for P in sparse_sets(60, 120, seed=515):
        for Q in (P, rotate90(P), rotate90(rotate90(P)), hflip(P), hflip(rotate90(P))):
            charged += assert_classification_matches_scan(Q)
    assert charged > 1000


def test_classification_refuses_corners_out_of_sweep_order():
    # Negative control for the order guard: each reordering would give
    # other labels, so it is refused rather than typed.
    out = sweep_add_up(SWEEP_SET)
    for added in out_of_sweep_order(out.added):
        with pytest.raises(ClassificationError, match="not in sweep order"):
            classify_added(SWEEP_SET, out._replace(added=added))


# The sweep kernel has two phases: a Cartesian-tree walk while its steps
# stay within ``_STEP_BUDGET`` per access and corner, then the segment
# tree.  Budget 0 hands over at the first step; an unlimited one never.
BUDGETS = [0, 1, sweep._STEP_BUDGET, float("inf")]


def strided(stride, rows):
    """``stride`` ascending passes of ``rows`` keys ``stride`` apart, each
    one key right of the last: ``j * stride + i`` for i < stride, j < rows."""
    return [j * stride + i for i in range(stride) for j in range(rows)]


def kernel_run(cols):
    """The kernel's ``(column, time index)`` pairs and its tree phase's
    (steps, accesses)."""
    phase = []
    added, ends = sweep._sweep_up(cols, phase)
    pairs = [(c, t) for t in range(len(cols)) for c in added[ends[t] : ends[t + 1]]]
    return pairs, phase


def family_sets():
    traces = [
        strided(9, 9),
        strided(5, 20),
        strided(20, 5),
        strided(12, 7),
        list(range(1, 120)),
        list(range(120, 0, -1)),
        bit_reversal(6),
    ]
    rng = random.Random(4242)
    for m in (30, 90, 150):
        traces.append(rng.sample(range(m), m))
    for trace in traces:
        P = from_trace(trace)
        yield from (P, rotate90(P), hflip(P))
    for P in sparse_sets(12, 80, seed=4343):
        yield from (P, rotate90(P), hflip(P))


@pytest.mark.parametrize("budget", BUDGETS, ids=["0", "1", "default", "unlimited"])
def test_both_phases_match_rescan_oracle(monkeypatch, budget):
    monkeypatch.setattr(sweep, "_STEP_BUDGET", budget)
    for P in family_sets():
        assert_sweeps_match_rescan(P)
    for P in seeded_perms(150, 40, seed=4444):
        assert_sweeps_match_rescan(P)


@pytest.mark.parametrize(
    "cols",
    [
        strided(90, 90),
        strided(7, 500),
        strided(500, 7),
        bit_reversal(12),
        list(range(3000)),
        list(range(2999, -1, -1)),
        random.Random(4545).sample(range(2500), 2500),
    ],
    ids=["stride-90", "stride-7", "stride-500", "bitrev-12", "ascending", "descending", "random"],
)
def test_tree_phase_matches_segment_tree_on_large_families(monkeypatch, cols):
    runs = {}
    for budget in BUDGETS:
        monkeypatch.setattr(sweep, "_STEP_BUDGET", budget)
        runs[budget] = kernel_run(cols)
    segment, (_, handled) = runs[0]
    assert handled <= 2 or not segment  # the first step passes budget 0
    assert all(pairs == segment for pairs, _ in runs.values())
    _, (_, handled) = runs[float("inf")]
    assert handled == len(cols)  # an unlimited tree phase never hands over


def test_stride_90_switches_and_a_random_permutation_does_not():
    cols = strided(90, 90)
    pairs, (steps, handled) = kernel_run(cols)
    assert len(pairs) == 16020
    assert 0 < handled < len(cols)
    cols = random.Random(4646).sample(range(2500), 2500)
    pairs, (steps, handled) = kernel_run(cols)
    assert handled == len(cols)
    assert steps < 6 * (len(cols) + len(pairs))


@pytest.mark.parametrize(
    "cols",
    [strided(50, 80), strided(80, 50), random.Random(4747).sample(range(4000), 4000)],
    ids=["stride-50", "stride-80", "random"],
)
def test_tree_phase_steps_stay_within_budget(cols):
    # Counted steps, not a clock: left to run, the tree phase takes
    # 200,195-314,390 steps on these strided families, over 3x the bound.
    pairs, (steps, handled) = kernel_run(cols)
    m = len(cols)
    assert steps <= sweep._STEP_BUDGET * (m + len(pairs)) + m
    assert steps > 0 and 0 < handled <= m


def test_counting_sweeps_build_no_points(monkeypatch):
    def no_points(*args):
        raise AssertionError("a counting sweep built its points")

    monkeypatch.setattr(sweep, "_sweep", no_points)
    for P in seeded_perms(20, 50, seed=4848):
        assert irb_up(P) == len(sweep_up_rescan(P))
        assert irb_down(P) == len(sweep_down_rescan(P))
    with pytest.raises(ValueError, match="distinct x"):
        irb_up(from_trace([1, 2, 1]))


def test_counting_sweeps_hold_one_slot_per_corner():
    # Each corner costs the kernel one list slot (8 B) for its partner's
    # column; a (column, time) pair per corner costs 72 B.
    keys = random.Random(4949).sample(range(5000), 5000)
    P = from_trace(keys)
    for count in (irb_up, irb_down):
        tracemalloc.start()
        try:
            corners = count(P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corners > 4 * len(P)
        assert peak < 16 * corners + 200 * len(P)
