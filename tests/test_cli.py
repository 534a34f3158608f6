import contextlib
import importlib
import io
import os
import random
import subprocess
import sys

try:
    import resource
except ImportError:  # not on every platform
    resource = None
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bstbounds as bb
import bstbounds.alternation
import bstbounds.funnel
import bstbounds.generators
import bstbounds.sweep
import bstbounds.verify
from bstbounds import cli, geometry
from bstbounds.cli import BOUND_NAMES, _detect_format, compute_bounds, load_pointset, main
from bstbounds.geometry import (
    ParseError,
    PointSet,
    from_trace,
    parse_pointset,
    serialize_pointset,
)

from conftest import (
    SIX_TRACE,
    SIX_TREE_TEXT,
    SWEEP_SET,
    TRIO,
)


@pytest.fixture
def sweep_file(tmp_path):
    path = tmp_path / "sweep.pts"
    path.write_text(serialize_pointset(SWEEP_SET))
    return str(path)


@pytest.fixture
def trio_file(tmp_path):
    path = tmp_path / "trio.pts"
    path.write_text(serialize_pointset(TRIO))
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("".join(f"{x}\n" for x in SIX_TRACE))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_trace_text(out, keys):
    """``out`` is the trace ``keys``, compared line by line: a failure
    names the first bad line instead of diffing two large texts."""
    assert out.splitlines(keepends=True) == [f"{x}\n" for x in keys]


def test_compute_irb_bounds(capsys, sweep_file):
    code, out, _ = run(capsys, "compute", sweep_file, "--bounds", "irb-up,irb-down")
    assert code == 0
    assert out == "irb-up\t8\nirb-down\t7\n"


def test_compute_alt_with_tree_file(capsys, trace_file, tmp_path):
    tree = tmp_path / "ref.tree"
    tree.write_text(SIX_TREE_TEXT + "\n")
    code, out, _ = run(
        capsys, "compute", trace_file, "--bounds", "alt", "--tree", f"@{tree}"
    )
    assert code == 0
    assert out == "alt\t11\n"


def test_compute_funnel_of_empty_trace(capsys, tmp_path):
    # Every bound is 0 on an empty input, alt and alt-opt over no tree;
    # a tree file's leaves still have to be the input's keys.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for name in BOUND_NAMES:
        for tree in ("balanced", "opt"):
            argv = ["compute", str(empty), "--bounds", name, "--tree", tree]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (0, f"{name}\t0\n", "")
            code, out, err = run(capsys, *argv, "--tsv")
            assert (code, err) == (0, "")
            fields = out.rstrip("\n").split("\t")
            del fields[2]  # the time
            source = "opt" if name == "alt-opt" else tree if name == "alt" else "-"
            assert fields == [name, "0", source, "-"]
    path = tmp_path / "ref.tree"
    path.write_text(SIX_TREE_TEXT + "\n")
    code, out, err = run(capsys, "compute", str(empty), "--bounds", "alt", "--tree", f"@{path}")
    assert (code, out) == (1, "")
    assert "do not match the distinct keys []" in err


def test_compute_alt_opt_prints_witness(capsys, trace_file):
    code, out, _ = run(capsys, "compute", trace_file, "--bounds", "alt-opt")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("alt-opt\t")
    assert lines[1].startswith("# alt-opt tree: ")
    value = int(lines[0].split("\t")[1])
    tree = bb.parse_tree(lines[1].split(": ", 1)[1])
    assert bb.alt_bound(from_trace(SIX_TRACE), tree) == value


def test_alt_opt_runs_once_for_opt_tree(capsys, trace_file, monkeypatch):
    calls = []
    real = bstbounds.alternation.alt_opt

    def counting(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(bstbounds.alternation, "alt_opt", counting)
    code, out, _ = run(
        capsys, "compute", trace_file, "--bounds", "alt,alt-opt", "--tree", "opt"
    )
    assert code == 0
    assert len(calls) == 1
    values = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    assert values["alt"] == values["alt-opt"]
    report = compute_bounds(from_trace([2, 1, 3, 2]), ["alt-opt", "alt"], "opt")
    assert len(calls) == 2
    assert report[0].value == report[1].value


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("tsv", [False, True])
@pytest.mark.parametrize(
    "bounds, tree",
    [
        ("alt", "balanced"),
        ("alt", "file"),
        ("alt,alt", "balanced"),
        ("alt,alt-opt,funnel", "balanced"),
        ("alt-opt,alt", "opt"),
        ("alt,alt-opt", "file"),
        ("funnel", "opt"),
    ],
)
def test_compute_resolves_and_formats_each_tree_once(
    capsys, trace_file, tmp_path, monkeypatch, bounds, tree, tsv
):
    # The tree alt walks is built once and alt_opt runs once, however many
    # bounds read them; a tree is formatted only for a line that prints
    # it: every alt entry's --tsv column, and in plain output only the
    # comment that shows an optimal tree.
    names = bounds.split(",")
    if tree == "file":
        path = tmp_path / "ref.tree"
        path.write_text(SIX_TREE_TEXT + "\n")
        tree = f"@{path}"
    formats = _counting(monkeypatch, bstbounds.alternation, "format_tree")
    built = _counting(monkeypatch, bstbounds.alternation, "balanced_tree")
    optimal = _counting(monkeypatch, bstbounds.alternation, "alt_opt")
    argv = ["compute", trace_file, "--bounds", bounds, "--tree", tree]
    code, out, _ = run(capsys, *argv, *(["--tsv"] if tsv else []))
    assert code == 0
    opt_entries = names.count("alt-opt") + (names.count("alt") if tree == "opt" else 0)
    alt_entries = names.count("alt") + names.count("alt-opt")
    assert len(formats) == (alt_entries if tsv else opt_entries)
    assert len(built) == int(tree == "balanced" and "alt" in names)
    assert len(optimal) == int(opt_entries > 0)
    assert out.count(" tree: ") == (0 if tsv else opt_entries)


def test_distinct_keys_build_no_repeat_plan(capsys, trace_file, tmp_path, monkeypatch):
    # A plan needs a repeated key, so a distinct-key set reports none
    # without the pass; ``test_fold`` checks the plans of repeated keys.
    plans = _counting(monkeypatch, geometry, "_repeat_plan")
    perm = tmp_path / "perm.txt"
    perm.write_text("".join(f"{x}\n" for x in random.Random(5).sample(range(1, 61), 60)))
    for argv in (
        ["compute", str(perm), "--bounds", ",".join(BOUND_NAMES)],
        ["verify", str(perm), "--level", "full"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert plans == []
    code, _, _ = run(capsys, "compute", trace_file, "--bounds", "funnel,alt")
    assert code == 0
    assert len(plans) == 1


def test_hflip_carries_a_cached_repeat_plan(capsys, tmp_path, monkeypatch):
    # Negated keys repeat where P's do, so the mirror takes P's plan once
    # it is cached.  Loading a trace caches its plan, so ``transform
    # hflip`` builds only the load's.
    plans = _counting(monkeypatch, geometry, "_repeat_plan")
    path = tmp_path / "repeats.txt"
    path.write_text("".join(f"{x}\n" for x in [1, 2, 3] * 4 + [2, 1, 3]))
    code, out, _ = run(capsys, "transform", "hflip", str(path))
    assert code == 0
    assert len(plans) == 1
    P = load_pointset(str(path))
    Q = geometry.hflip(P)
    assert Q.__dict__["repeats"] is P.__dict__["repeats"]
    assert P.repeats == geometry.hflip(P).repeats == Q.repeats == [(6, 3, 2)]
    assert len(plans) == 2  # the two loads'
    plans.clear()
    code, out, _ = run(capsys, "verify", str(path), "--level", "quick")
    assert code == 0
    assert len(plans) == 2  # the input's and its time reversal's


def _no_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(bstbounds.funnel, "funnel_bound_fast", no_kernel)
    monkeypatch.setattr(bstbounds.alternation, "alt_opt", no_kernel)
    monkeypatch.setattr(bstbounds.alternation, "alt_bound", no_kernel)


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["--bounds", "funnel,alt-opt"], "alt-opt"),
        (["--bounds", "alt", "--tree", "opt"], "alt --tree opt"),
        (["--bounds", "alt,alt-opt", "--tree", "opt"], "alt --tree opt"),
    ],
)
def test_alt_opt_over_its_key_cap_is_refused_before_any_kernel(
    capsys, trace_file, monkeypatch, argv, bound
):
    monkeypatch.setattr(cli, "_MAX_ALT_OPT_KEYS", 4)  # SIX_TRACE has 5 keys
    _no_kernel(monkeypatch)
    code, out, err = run(capsys, "compute", trace_file, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"bstbounds: {bound}: 5 distinct keys exceed the cap of 4 "
        "for the optimal reference tree\n"
    )


def test_alt_opt_key_cap_spares_other_bounds_and_inputs_at_the_cap(
    capsys, trace_file, monkeypatch
):
    monkeypatch.setattr(cli, "_MAX_ALT_OPT_KEYS", 4)
    for argv in (["--bounds", "funnel,alt"], ["--bounds", "funnel", "--tree", "opt"]):
        code, _, err = run(capsys, "compute", trace_file, *argv)
        assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "_MAX_ALT_OPT_KEYS", 5)
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "alt-opt")
    assert (code, err) == (0, "")
    assert out.startswith("alt-opt\t")


@pytest.fixture
def six_tree(tmp_path):
    # Leaf depths 1:2 2:3 3:3 4:2 5:2, so 12 path entries, and SIX_TRACE
    # takes 2+2+3+2+2+3 = 14 steps down them.
    tree = tmp_path / "six.tree"
    tree.write_text(SIX_TREE_TEXT + "\n")
    return f"@{tree}"


def _alt_costs(monkeypatch, limit, per_entry, per_key):
    monkeypatch.setattr(cli, "_memory_limit", lambda: limit)
    monkeypatch.setattr(cli, "_ALT_PATH_ENTRY_BYTES", per_entry)
    monkeypatch.setattr(cli, "_ALT_KEY_BYTES", per_key)


def test_tree_file_whose_paths_exceed_memory_is_refused_before_any_kernel(
    capsys, trace_file, six_tree, monkeypatch
):
    # 12 path entries and 5 keys.
    _alt_costs(monkeypatch, 10**6, 10**5, 10**3)
    _no_kernel(monkeypatch)
    argv = ["compute", trace_file, "--bounds", "funnel,alt", "--tree", six_tree]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "bstbounds: alt: the reference tree's paths take about 1205000 "
        "bytes, over the cap of 1000000 bytes of memory\n"
    )


def test_tree_file_over_the_step_cap_is_refused_before_any_kernel(
    capsys, trace_file, six_tree, monkeypatch
):
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 13)
    _no_kernel(monkeypatch)
    argv = ["compute", trace_file, "--bounds", "funnel,alt", "--tree", six_tree]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "bstbounds: alt: 14 steps down the reference tree exceed the cap of 13\n"


def test_tree_caps_spare_runs_within_them_and_other_trees(
    capsys, trace_file, six_tree, monkeypatch
):
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 14)  # exactly the steps taken
    _alt_costs(monkeypatch, 1205000, 10**5, 10**3)  # exactly the estimate
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", six_tree)
    assert (code, out, err) == (0, "alt\t11\n", "")
    # alt-opt walks no tree, so the optimal tree is not costed.
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 0)
    _alt_costs(monkeypatch, 10**6, 10**30, 10**30)
    argv = ["compute", trace_file, "--bounds", "alt,alt-opt", "--tree", "opt"]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_step_cap_counts_only_the_accesses_the_fold_walks(capsys, tmp_path, monkeypatch):
    # 64 keys 200 times: the plan is [(128, 64, 198)], so the walk takes
    # two periods, 128 accesses of depth 6 in the balanced tree.
    path = tmp_path / "scan.txt"
    path.write_text("".join(f"{k}\n" for k in range(1, 65)) * 200)
    argv = ["compute", str(path), "--bounds", "alt"]
    uncapped = run(capsys, *argv)
    assert uncapped == (0, "alt\t25200\n", "")
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 768)
    assert run(capsys, *argv) == uncapped
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 767)
    _no_kernel(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "bstbounds: alt: 768 steps down the reference tree exceed the cap of 767\n"


@pytest.mark.parametrize("tree", ["balanced", "file"])
def test_every_walked_tree_is_costed_with_the_input(
    capsys, trace_file, six_tree, monkeypatch, tree
):
    # SIX_TRACE's balanced tree (((1 2) 3) (4 5)) has 12 path entries
    # too, so both trees cost the same on this input.
    spec = six_tree if tree == "file" else tree
    estimate = 12 * cli._ALT_PATH_ENTRY_BYTES + 5 * cli._ALT_KEY_BYTES
    monkeypatch.setattr(cli, "_memory_limit", lambda: estimate)
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "funnel,alt", "--tree", spec)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "_memory_limit", lambda: estimate - 1)
    _no_kernel(monkeypatch)
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "funnel,alt", "--tree", spec)
    assert (code, out) == (1, "")
    assert err == (
        f"bstbounds: alt: the reference tree's paths take about {estimate} "
        f"bytes, over the cap of {estimate - 1} bytes of memory\n"
    )
    monkeypatch.setattr(cli, "_memory_limit", lambda: 10**9)
    monkeypatch.setattr(cli, "_MAX_ALT_STEPS", 13)
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", spec)
    assert (code, out) == (1, "")
    assert err == "bstbounds: alt: 14 steps down the reference tree exceed the cap of 13\n"


@pytest.fixture
def shuffled_file(tmp_path):
    keys = list(range(1, 100_001))
    random.Random(1).shuffle(keys)
    path = tmp_path / "shuffled.txt"
    path.write_text("".join(f"{k}\n" for k in keys))
    assert path.stat().st_size == 588_895
    return str(path)


_LIMIT_PROBE = """
import sys
from bstbounds import cli
limit = int(sys.argv[1]) << 10
cli.resource.getrlimit = lambda what: (limit, limit)
sys.exit(cli.main(sys.argv[2:]))
"""


def test_shuffled_trace_under_a_small_memory_cap_is_refused_cleanly(shuffled_file):
    # 100,000 shuffled keys (588,895 bytes) need about 69 MB of address
    # space for funnel,alt; under a 60,000 KiB limit the balanced tree's
    # walk ran out of memory, and under 90,000 KiB it must still run.  A
    # fresh interpreter reads the limit, so the cap is charged with what
    # a real run maps.
    for kib, code in [(60_000, 1), (90_000, 0)]:
        argv = [str(kib), "compute", shuffled_file, "--bounds", "funnel,alt"]
        proc = subprocess.run(
            [sys.executable, "-c", _LIMIT_PROBE, *argv],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == ""
            assert proc.stderr.startswith("bstbounds: alt: the reference tree's paths take")
        else:
            assert proc.stdout == "funnel\t1058053\nalt\t928560\n"


def test_memory_caps_charge_what_the_process_maps(capsys, trace_file, monkeypatch):
    # Under an address-space limit, both caps count only what is left
    # after the mapped base: 20,000 shuffled keys once ended in a raw
    # MemoryError from alt under limits where the estimate alone fitted.
    base = 19 << 20
    per_byte = cli._PEAK_BYTES_PER_INPUT_BYTE
    limit = [0]
    monkeypatch.setattr(cli.resource, "getrlimit", lambda what: (limit[0], limit[0]))
    monkeypatch.setattr(cli, "_mapped_bytes", lambda: base)
    estimate = 12 * cli._ALT_PATH_ENTRY_BYTES + 5 * cli._ALT_KEY_BYTES
    limit[0] = base + estimate
    assert run(capsys, "compute", trace_file, "--bounds", "funnel,alt") == (
        0,
        "funnel\t8\nalt\t12\n",
        "",
    )
    limit[0] = base + estimate - 1
    _no_kernel(monkeypatch)
    assert run(capsys, "compute", trace_file, "--bounds", "funnel,alt") == (
        1,
        "",
        "bstbounds: alt: the reference tree's paths take about "
        f"{estimate} bytes, over the cap of {estimate - 1} bytes of memory\n",
    )
    limit[0] = base + 12 * per_byte - 1
    assert run(capsys, "compute", trace_file, "--bounds", "funnel") == (
        1,
        "",
        f"bstbounds: input of 12 bytes exceeds the cap of 11 bytes "
        f"({per_byte} bytes of memory per input byte)\n",
    )


def test_alt_estimate_does_not_grow_with_the_input_file(
    capsys, trace_file, tmp_path, monkeypatch
):
    # alt is costed once the input is loaded, on the tree's paths and keys
    # alone: comment lines that make the file larger leave the estimate.
    padded = tmp_path / "padded.txt"
    padded.write_text("# padding\n" * 1000 + Path(trace_file).read_text())
    _alt_costs(monkeypatch, 10**6, 10**5, 10**3)
    _no_kernel(monkeypatch)
    for path in (trace_file, str(padded)):
        assert run(capsys, "compute", path, "--bounds", "funnel,alt") == (
            1,
            "",
            "bstbounds: alt: the reference tree's paths take about 1205000 bytes, "
            "over the cap of 1000000 bytes of memory\n",
        )


def _under_rlimit_as(kib, *argv):
    """``python -m bstbounds.cli argv`` in a child whose address space is
    limited to ``kib`` KiB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (kib << 10, kib << 10))

    return subprocess.run(
        [sys.executable, "-m", "bstbounds.cli", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=limit,
    )


@pytest.mark.skipif(
    resource is None or not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS here"
)
def test_alt_guard_under_a_real_address_space_limit(shuffled_file):
    # funnel,alt on 100,000 shuffled keys runs out of memory in alt's
    # walk below about 70,000 KiB; the guard refuses it there, before
    # any kernel, and lets it run where it fits.
    argv = ["compute", shuffled_file, "--bounds", "funnel,alt"]
    refused = _under_rlimit_as(60_000, *argv)
    assert (refused.returncode, refused.stdout) == (1, ""), refused.stderr
    assert refused.stderr.startswith("bstbounds: alt: the reference tree's paths take")
    assert "Traceback" not in refused.stderr
    ran = _under_rlimit_as(100_000, *argv)
    assert (ran.returncode, ran.stderr) == (0, "")
    assert ran.stdout == "funnel\t1058053\nalt\t928560\n"


def test_mapped_bytes_come_from_statm_or_the_measured_base(monkeypatch):
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[0])
    assert abs(cli._mapped_bytes() - pages * os.sysconf("SC_PAGE_SIZE")) < 64 << 20

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/statm")

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    assert cli._mapped_bytes() == cli._BASE_MAPPED_BYTES


def test_tree_file_over_the_input_cap_is_refused_before_it_is_read(
    capsys, trace_file, tmp_path, monkeypatch
):
    # A tree file is held to the input's cap; one byte over is refused
    # before it is decoded (the extra byte is not UTF-8) or parsed.
    per_byte = cli._PEAK_BYTES_PER_INPUT_BYTE
    tree = tmp_path / "ref.tree"
    text = (SIX_TREE_TEXT + "\n").encode()
    monkeypatch.setattr(cli, "_memory_limit", lambda: len(text) * per_byte)
    tree.write_bytes(text)
    code, out, _ = run(capsys, "compute", trace_file, "--bounds", "funnel", "--tree", f"@{tree}")
    assert (code, out) == (0, "funnel\t8\n")
    tree.write_bytes(text + b"\xff")
    monkeypatch.setattr(bstbounds.alternation, "parse_tree", _never)
    code, out, err = run(
        capsys, "compute", "/nonexistent/input.txt", "--bounds", "alt", "--tree", f"@{tree}"
    )
    assert (code, out) == (1, "")
    assert err == (
        f"bstbounds: tree file {tree} of {len(text) + 1} bytes exceeds the cap of "
        f"{len(text)} bytes ({per_byte} bytes of memory per input byte)\n"
    )


def _never(*args):
    raise AssertionError("called")


def test_deep_reference_tree_is_evaluated(capsys, tmp_path):
    # A 3000-leaf caterpillar nests deeper than Python's recursion limit;
    # on the sequential trace every internal node sees two runs.
    n = 3000
    trace = tmp_path / "keys.txt"
    trace.write_text("".join(f"{k}\n" for k in range(1, n + 1)))
    caterpillar = str(n)
    for k in range(n - 1, 0, -1):
        caterpillar = f"({k} {caterpillar})"
    tree = tmp_path / "deep.tree"
    tree.write_text(caterpillar + "\n")
    code, out, err = run(
        capsys, "compute", str(trace), "--bounds", "alt", "--tree", f"@{tree}", "--tsv"
    )
    assert (code, err) == (0, "")
    name, value, _, source, text = out.rstrip("\n").split("\t")
    assert (name, value, source, text) == ("alt", str(2 * (n - 1)), "file", caterpillar)


def test_compute_tsv_fields(capsys, trio_file):
    code, out, _ = run(capsys, "compute", trio_file, "--bounds", "funnel", "--tsv")
    assert code == 0
    name, value, millis, source, tree = out.strip().split("\t")
    assert (name, value, source, tree) == ("funnel", "3", "-", "-")
    assert float(millis) >= 0


def test_compute_values_match_library(capsys, sweep_file):
    code, out, _ = run(
        capsys, "compute", sweep_file, "--bounds", "funnel,zrects,alt"
    )
    assert code == 0
    got = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    report = compute_bounds(SWEEP_SET, ["funnel", "zrects", "alt"])
    for entry in report:
        assert got[entry.name] == str(entry.value)


def test_compute_refuses_zrects_on_repeated_keys(capsys, trace_file):
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "zrects")
    assert code == 1
    assert "distinct x" in err


@pytest.mark.parametrize("bound", ["irb-up", "irb-down"])
def test_compute_refuses_a_counting_sweep_under_its_own_name(capsys, trace_file, bound):
    code, out, err = run(capsys, "compute", trace_file, "--bounds", bound)
    name = bound.replace("-", "_")
    assert (code, out) == (1, "")
    assert err == f"bstbounds: {name}: point set must have distinct x-coordinates\n"


@pytest.mark.parametrize(
    "bounds, sweep_to, kernel",
    [
        ("alt-opt,zrects", False, "zrects"),
        ("alt-opt,funnel,irb-down,zrects", False, "irb_down"),
        ("alt-opt,irb-up", True, "sweep_add_up"),
    ],
)
def test_repeated_keys_are_refused_before_any_kernel_runs(
    capsys, trace_file, tmp_path, monkeypatch, bounds, sweep_to, kernel
):
    # A bound that needs distinct keys is refused under its kernel's name
    # before alt-opt or any other bound ahead of it runs.
    monkeypatch.setattr(bstbounds.alternation, "alt_opt", _never)
    monkeypatch.setattr(bstbounds.funnel, "funnel_bound_fast", _never)
    argv = ["compute", trace_file, "--bounds", bounds]
    if sweep_to:
        argv += ["--sweep-to", str(tmp_path / "out.sweep")]
    assert run(capsys, *argv) == (
        1,
        "",
        f"bstbounds: {kernel}: point set must have distinct x-coordinates\n",
    )


@pytest.mark.parametrize("error", [MemoryError, SystemError])
@pytest.mark.parametrize("command", ["compute", "verify"])
def test_running_out_of_memory_is_one_line_not_a_traceback(
    capsys, trace_file, monkeypatch, command, error
):
    # Python may report a MemoryError it had no memory to record as a
    # SystemError ("error return without exception set").
    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(bstbounds.funnel, "move_to_root", no_memory)
    assert run(capsys, command, trace_file) == (1, "", "bstbounds: out of memory\n")


def test_compute_rejects_unknown_bound(capsys, trio_file):
    code, _, err = run(capsys, "compute", trio_file, "--bounds", "magic")
    assert code == 2
    assert "unknown bound" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--bounds", "funnel,magic"], "unknown bound 'magic'"),
        (["--bounds", "funnel", "--sweep-to", "out.sweep"], "--sweep-to needs exactly one"),
        (["--bounds", "alt", "--tree", "junk"], "--tree must be balanced, opt, or @<file>"),
        (["--bounds", ","], "--bounds names no bound; valid: alt, alt-opt,"),
        (["--bounds", ""], "--bounds names no bound; valid: alt, alt-opt,"),
    ],
)
def test_compute_usage_is_checked_before_the_input_is_read(capsys, argv, message):
    code, out, err = run(capsys, "compute", "/nonexistent/input.txt", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"bstbounds: {message}")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2
    assert "mixed" in err

    dup = tmp_path / "dup.pts"
    dup.write_text("1 5\n2 5\n")
    code, _, err = run(capsys, "compute", str(dup))
    assert code == 2
    assert "duplicate y" in err


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff\n1\n", 1),
        (b"1\n2\n3\xe9\n", 3),
        (b"# caf\xc3\xa9\n\r\n1\r\n\x80\n", 4),
        (b"# caf\xc3\xa9\n1\n2\n", None),
    ],
)
@pytest.mark.parametrize("stdin", [False, True])
def test_non_utf8_input_is_a_parse_error(capsys, tmp_path, monkeypatch, data, line, stdin):
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        source = "-"
    else:
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        source = str(path)
    code, _, err = run(capsys, "compute", source, "--bounds", "funnel")
    if line is None:  # valid UTF-8, non-ASCII only in a comment
        assert code == 0
    else:
        assert code == 2
        assert err == f"bstbounds: parse error: line {line}: not UTF-8 text\n"


@pytest.mark.parametrize("stdin", [False, True])
def test_input_over_the_memory_cap_is_refused(capsys, tmp_path, monkeypatch, stdin):
    # A cap of 12 bytes: the 12-byte input loads, one byte more is refused
    # before it is decoded (the extra byte is not UTF-8).
    per_byte = cli._PEAK_BYTES_PER_INPUT_BYTE
    monkeypatch.setattr(cli, "_memory_limit", lambda: 12 * per_byte + per_byte - 1)
    for data, code_wanted in [(b"3\n1\n2\n10\n11\n", 0), (b"3\n1\n2\n10\n11\n\xff", 1)]:
        if stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            source = "-"
        else:
            path = tmp_path / "in.txt"
            path.write_bytes(data)
            source = str(path)
        code, out, err = run(capsys, "compute", source, "--bounds", "funnel")
        assert code == code_wanted
        if code_wanted == 0:
            assert (out, err) == ("funnel\t5\n", "")
        else:
            assert out == ""
            assert err == (
                f"bstbounds: input of 13 bytes exceeds the cap of 12 bytes "
                f"({per_byte} bytes of memory per input byte)\n"
            )


@pytest.mark.parametrize(
    "data, line", [(b"(1 \xff2)\n", 1), (b"(1\n(2 3))\n\n\xc3(\n", 4)]
)
def test_non_utf8_tree_file_is_a_parse_error(capsys, trace_file, tmp_path, data, line):
    tree = tmp_path / "ref.tree"
    tree.write_bytes(data)
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", f"@{tree}")
    assert (code, out) == (2, "")
    assert err == f"bstbounds: parse error: line {line}: not UTF-8 text in tree file {tree}\n"


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


@pytest.mark.parametrize(
    "data, out",
    [
        (BOM + b"3\n1\n2\n", "funnel\t3\n"),
        (BOM + b"# c\n3\n1\n2\n", "funnel\t3\n"),  # still read as a trace
        (BOM + b"1 1\n2 2\n", "funnel\t1\n"),
    ],
    ids=["trace", "comment-first", "point-set"],
)
@pytest.mark.parametrize("stdin", [False, True])
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, monkeypatch, data, out, stdin):
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        source = "-"
    else:
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        source = str(path)
    assert run(capsys, "compute", source, "--bounds", "funnel") == (0, out, "")


def test_a_tree_file_may_start_with_a_byte_order_mark(capsys, trace_file, tmp_path):
    tree = tmp_path / "ref.tree"
    tree.write_bytes(BOM + SIX_TREE_TEXT.encode() + b"\n")
    code, out, _ = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", f"@{tree}")
    assert (code, out) == (0, "alt\t11\n")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"3\n" + BOM + b"1\n", "line 2: not an integer: '\\ufeff1'"),
        (BOM + BOM + b"3\n", "line 1: not an integer: '\\ufeff3'"),
        (BOM + b"1\n2\n\r\n\xff\n", "line 4: not UTF-8 text"),
        (BOM + b"\xff\n1\n", "line 1: not UTF-8 text"),
    ],
    ids=["mid-text", "second-mark", "bad-byte-after-a-mark", "bad-first-byte-after-a-mark"],
)
def test_a_byte_order_mark_elsewhere_is_refused(capsys, tmp_path, data, message):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "compute", str(path), "--bounds", "funnel")
    assert (code, out) == (2, "")
    assert err == f"bstbounds: parse error: {message}\n"


def test_tree_file_named_dash_is_a_file(capsys, trace_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", "@-")
    assert code == 2
    assert "No such file" in err
    (tmp_path / "-").write_text(SIX_TREE_TEXT + "\n")
    code, out, _ = run(capsys, "compute", trace_file, "--bounds", "alt", "--tree", "@-")
    assert (code, out) == (0, "alt\t11\n")


@pytest.mark.parametrize(
    "text, reason",
    [
        ("(1 x)\n", "parse_tree: bad token 'x'"),
        ("(1\n", "parse_tree: unexpected end of input"),
        ("()\n", "parse_tree: unexpected ')'"),
    ],
    ids=["bad-token", "unclosed", "empty-node"],
)
def test_malformed_tree_file_is_a_usage_error(capsys, tmp_path, text, reason):
    # Read before the input: a missing input file is never reached.
    tree = tmp_path / "ref.tree"
    tree.write_text(text)
    code, out, err = run(
        capsys, "compute", "/nonexistent/input.txt", "--bounds", "alt", "--tree", f"@{tree}"
    )
    assert (code, out) == (2, "")
    assert err == f"bstbounds: tree file {tree}: {reason}\n"


def test_tree_is_checked_when_no_bound_uses_it(capsys, trace_file):
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "funnel", "--tree", "junk")
    assert (code, out) == (2, "")
    assert err == "bstbounds: --tree must be balanced, opt, or @<file>, got 'junk'\n"


def test_tree_file_is_parsed_once(capsys, trace_file, tmp_path, monkeypatch):
    calls = []
    real = bstbounds.alternation.parse_tree

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(bstbounds.alternation, "parse_tree", counting)
    tree = tmp_path / "ref.tree"
    tree.write_text(SIX_TREE_TEXT + "\n")
    code, out, _ = run(
        capsys, "compute", trace_file, "--bounds", "alt,alt", "--tree", f"@{tree}"
    )
    assert (code, out) == (0, "alt\t11\nalt\t11\n")
    assert len(calls) == 1


def test_compute_bounds_refuses_an_unknown_tree_name():
    with pytest.raises(ValueError, match="tree must be"):
        compute_bounds(TRIO, ["funnel"], "junk")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/input.txt")
    assert code == 2


def test_gen_bitrev(capsys):
    code, out, _ = run(capsys, "gen", "bitrev", "2")
    assert code == 0
    assert out == "0\n2\n1\n3\n"
    for k in (1, 16, 17, 20):  # one slice, then 2 and 16 slices of 2^16 keys
        code, out, err = run(capsys, "gen", "bitrev", str(k))
        assert (code, err) == (0, "")
        assert_trace_text(out, bstbounds.generators.bit_reversal(k))


def test_gen_separation_lengths(capsys):
    code, out, _ = run(capsys, "gen", "separation", "2")
    assert code == 0
    assert len(out.splitlines()) == 576
    code, out, _ = run(capsys, "gen", "separation", "2", "--reps", "1")
    assert len(out.splitlines()) == 36


@pytest.mark.parametrize("reps", [None, 1, 2, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gen_separation_streams_the_whole_sequence(capsys, k, reps):
    params = bstbounds.generators.SeparationParams(k, reps)
    reps_flag = [] if reps is None else ["--reps", str(reps)]
    code, out, err = run(capsys, "gen", "separation", str(k), *reps_flag)
    assert (code, err) == (0, "")
    assert_trace_text(out, bstbounds.generators.separation_sequence(params))


def test_gen_pieces_join_up_at_every_boundary(capsys, monkeypatch):
    # Pieces of at most 5 keys: a block of 4 keys goes one repetition per
    # piece, and the bit-reversal permutation of 16 keys in four slices.
    monkeypatch.setattr(cli, "_GEN_SLICE", 5)
    params = bstbounds.generators.SeparationParams(2, 7)
    code, out, _ = run(capsys, "gen", "separation", "2", "--reps", "7")
    assert code == 0
    assert_trace_text(out, bstbounds.generators.separation_sequence(params))
    code, out, _ = run(capsys, "gen", "bitrev", "4")
    assert code == 0
    assert_trace_text(out, bstbounds.generators.bit_reversal(4))
    monkeypatch.setattr(cli, "_GEN_SLICE", 4)  # 2-key blocks: two repetitions, then one
    params = bstbounds.generators.SeparationParams(1, 3)
    code, out, _ = run(capsys, "gen", "separation", "1", "--reps", "3")
    assert code == 0
    assert_trace_text(out, bstbounds.generators.separation_sequence(params))
    for k in range(1, 9):  # slices of 4 keys from R_2 and R_{k-2}
        code, out, _ = run(capsys, "gen", "bitrev", str(k))
        assert code == 0
        assert_trace_text(out, bstbounds.generators.bit_reversal(k))


@pytest.mark.parametrize(
    "argv",
    [
        ["separation", "4"],
        ["separation", "14"],
        ["separation", "1", "--reps", "0"],
        ["bitrev", "0"],
        ["bitrev", "25"],
    ],
)
def test_gen_refusal_writes_nothing(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("bstbounds: ") and err.count("\n") == 1


def test_gen_holds_no_whole_trace(tmp_path, monkeypatch):
    # The whole separation 3 text is 903,680 characters; holding it with
    # its 264,192-key list takes about 18 MiB.
    with open(tmp_path / "sep3.txt", "w", encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdout", fh)
        tracemalloc.start()
        try:
            code = main(["gen", "separation", "3"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "sep3.txt").stat().st_size == 903_680
    assert peak < 1 << 20


def test_gen_bitrev_holds_no_whole_permutation(tmp_path, monkeypatch):
    # Holding the 2^18 keys of bitrev 18 peaks at about 17 MiB; the
    # permutations of 2^16 and 4 keys, a slice and its text at about 10 MiB.
    with open(tmp_path / "bitrev18.txt", "w", encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdout", fh)
        tracemalloc.start()
        try:
            code = main(["gen", "bitrev", "18"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 13 << 20


@pytest.mark.parametrize(
    "argv, lines_read",
    [(["separation", "3"], 1), (["bitrev", "16"], 1), (["separation", "1"], 0)],
)
def test_gen_ends_quietly_when_the_reader_stops(argv, lines_read):
    # The first two outputs are far larger than a pipe's buffer, so gen is
    # still writing when the pipe closes; the third finds it closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bstbounds.cli", "gen", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    for _ in range(lines_read):
        assert proc.stdout.readline() in (b"0\n", b"1\n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_gen_invalid_parameters(capsys):
    code, _, err = run(capsys, "gen", "bitrev", "0")
    assert code == 1
    code, _, err = run(capsys, "gen", "separation", "4")
    assert code == 1
    assert "cap" in err
    code, _, err = run(capsys, "gen", "separation", "1", "--reps", "0")
    assert code == 1
    assert "reps" in err


def test_gen_separation_cap_is_checked_before_the_key_count(capsys):
    # n = 2^(2^14) has about 4,900 digits; the guard must not build or
    # print it.  Larger k is not tried: a broken guard would allocate.
    code, out, err = run(capsys, "gen", "separation", "14")
    assert (code, out) == (1, "")
    assert err == (
        "bstbounds: separation_sequence: k=14 needs more accesses "
        "than the cap of 100000000\n"
    )


def test_transform_reverse(capsys, trio_file):
    code, out, _ = run(capsys, "transform", "reverse", trio_file)
    assert code == 0
    assert parse_pointset(out) == bb.time_reverse(TRIO)


def test_transform_refuses_a_result_with_repeated_times(capsys, tmp_path):
    # Rotating the trace 1 1 2 puts its two accesses of key 1 at one time.
    path = tmp_path / "t.txt"
    path.write_text("1\n1\n2\n")
    code, out, err = run(capsys, "transform", "rotate", str(path))
    assert (code, out) == (1, "")
    assert err == "bstbounds: transform rotate: point set must have distinct y-coordinates\n"


def test_transform_rotate_four_times_is_identity(capsys, trio_file, tmp_path, monkeypatch):
    text = open(trio_file).read()
    for _ in range(4):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        code = main(["transform", "rotate", "-"])
        assert code == 0
        text = capsys.readouterr().out
    assert parse_pointset(text) == TRIO


def test_transform_hflip_then_compute_matches_original(capsys, sweep_file, tmp_path):
    code, out, _ = run(capsys, "transform", "hflip", sweep_file)
    assert code == 0
    flipped = tmp_path / "flipped.pts"
    flipped.write_text(out)
    _, flipped_out, _ = run(capsys, "compute", str(flipped), "--bounds", "funnel")
    _, original_out, _ = run(capsys, "compute", sweep_file, "--bounds", "funnel")
    assert flipped_out == original_out


def test_verify_passes_on_example(capsys, trio_file):
    code, out, _ = run(capsys, "verify", trio_file)
    assert code == 0
    assert "two-sided-domination\tPASS" in out
    assert "FAIL" not in out


def test_verify_reports_failure(capsys, trio_file, monkeypatch):
    monkeypatch.setattr(bstbounds.funnel.FunnelView, "value", property(lambda view: 0))
    code, out, err = run(capsys, "verify", trio_file)
    assert code == 1
    assert "two-sided-domination\tFAIL" in out
    assert "two-sided-domination" in err


def test_verify_output_ignores_the_seed(capsys, tmp_path, monkeypatch):
    # The domination check walks one deterministic tree, so the seed,
    # still accepted, changes no byte of the output: neither the passing
    # run nor, with both funnels forced to 0, the failing one that prints
    # the refined tree.
    path = tmp_path / "perm.txt"
    path.write_text("".join(f"{x}\n" for x in bb.random_permutation(40, 9)))
    seeds = ([], ["--seed", "0"], ["--seed", "7"])
    outs = [run(capsys, "verify", str(path), "--level", "full", *seed) for seed in seeds]
    assert outs[0][0] == 0
    assert outs[0] == outs[1] == outs[2]
    monkeypatch.setattr(bstbounds.funnel.FunnelView, "value", property(lambda view: 0))
    monkeypatch.setattr(bstbounds.funnel, "funnel_bound_fast", lambda P: 0)
    argv = ["verify", str(path), "--level", "full", "--tsv"]
    outs = [run(capsys, *argv, *seed) for seed in seeds]
    assert outs[0][0] == 1
    assert "two-sided-domination\tFAIL\tfunnel 0 + reverse funnel 0 < alt " in outs[0][1]
    assert outs[0] == outs[1] == outs[2]


def test_verify_quick_level(capsys, trio_file):
    code, out, _ = run(capsys, "verify", trio_file, "--level", "quick")
    assert code == 0
    assert "irb-charge" not in out


def test_sweep_to_writes_serialization(capsys, sweep_file, tmp_path):
    dest = tmp_path / "out.sweep"
    code, out, _ = run(
        capsys,
        "compute",
        sweep_file,
        "--bounds",
        "irb-up",
        "--sweep-to",
        str(dest),
    )
    assert code == 0
    text = dest.read_text()
    assert "A 4 0" in text
    assert "+ 2 3 c" in text
    # Only a regular file is emptied first, as opening it with "w" would.
    code, _, _ = run(capsys, "compute", sweep_file, "--bounds", "irb-up", "--sweep-to", os.devnull)
    assert code == 0


def test_sweep_to_needs_exactly_one_direction(capsys, sweep_file, tmp_path):
    dest = tmp_path / "out.sweep"
    code, _, err = run(
        capsys,
        "compute",
        sweep_file,
        "--bounds",
        "irb-up,irb-down",
        "--sweep-to",
        str(dest),
    )
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize(
    "bound, kernel", [("irb-up", "sweep_add_up"), ("irb-down", "sweep_add_down")]
)
def test_sweep_runs_once_for_sweep_to(capsys, sweep_file, tmp_path, monkeypatch, bound, kernel):
    calls = []
    real = getattr(bstbounds.sweep, kernel)

    def counting(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(bstbounds.sweep, kernel, counting)
    dest = tmp_path / "out.sweep"
    code, out, _ = run(
        capsys, "compute", sweep_file, "--bounds", f"funnel,{bound}", "--sweep-to", str(dest)
    )
    assert code == 0
    assert len(calls) == 1
    expected = real(SWEEP_SET)
    types = bb.classify_added(SWEEP_SET, expected) if bound == "irb-up" else None
    assert dest.read_text() == bb.serialize_sweep(expected, types)
    assert f"{bound}\t{len(expected.added)}\n" in out


def test_classification_error_exits_1(capsys, sweep_file, tmp_path, monkeypatch):
    def failing(P, out):
        raise bb.ClassificationError("added point (2, 3) fits no charging type")

    monkeypatch.setattr(bstbounds.sweep, "classify_added", failing)
    dest = tmp_path / "out.sweep"
    code, out, err = run(
        capsys, "compute", sweep_file, "--bounds", "irb-up", "--sweep-to", str(dest)
    )
    assert code == 1
    assert out == ""
    assert err == "bstbounds: added point (2, 3) fits no charging type\n"


def test_corners_out_of_sweep_order_exit_1(capsys, sweep_file, tmp_path, monkeypatch):
    # The order guard of ``classify_added`` refuses a reversed corner list
    # rather than label it, and the destination is left as it was.
    up = bstbounds.sweep.sweep_add_up(SWEEP_SET)
    moved = up._replace(added=up.added[::-1])
    monkeypatch.setattr(bstbounds.sweep, "sweep_add_up", lambda P: moved)
    dest = tmp_path / "out.sweep"
    dest.write_text("old\n")
    code, out, err = run(
        capsys, "compute", sweep_file, "--bounds", "irb-up", "--sweep-to", str(dest)
    )
    assert (code, out) == (1, "")
    assert err == "bstbounds: added points are not in sweep order\n"
    assert dest.read_text() == "old\n"


def test_unwritable_sweep_destination_fails_before_the_sweep(
    capsys, sweep_file, tmp_path, monkeypatch
):
    calls = []
    monkeypatch.setattr(bstbounds.sweep, "sweep_add_up", calls.append)
    dest = tmp_path / "missing" / "out.sweep"
    code, out, err = run(
        capsys, "compute", sweep_file, "--bounds", "irb-up,funnel", "--sweep-to", str(dest)
    )
    assert code == 2
    assert calls == []
    assert out == ""
    assert str(dest) in err


@pytest.mark.parametrize(
    "text, code", [("1\n2\nx\n", 2), ("1\n2\n1\n", 1)], ids=["parse-error", "repeated-keys"]
)
def test_a_failed_run_leaves_the_sweep_destination_as_it_was(capsys, tmp_path, text, code):
    source = tmp_path / "in.txt"
    source.write_text(text)
    dest = tmp_path / "out.sweep"
    dest.write_text("keep me\n")
    got, out, _ = run(capsys, "compute", str(source), "--bounds", "irb-up", "--sweep-to", str(dest))
    assert (got, out) == (code, "")
    assert dest.read_text() == "keep me\n"
    # A run that succeeds replaces the whole file, a longer one included.
    dest.write_text("x\n" * 1000)
    source.write_text("1\n2\n")
    assert run(capsys, "compute", str(source), "--bounds", "irb-up", "--sweep-to", str(dest))[0] == 0
    assert dest.read_text() == "A 1 1\n+ 1 2 ab\nA 2 2\n"


def test_sweep_destination_may_not_be_the_input(capsys, trace_file):
    before = open(trace_file).read()
    code, out, err = run(
        capsys, "compute", trace_file, "--bounds", "irb-up", "--sweep-to", trace_file
    )
    assert code == 2
    assert out == ""
    assert "is the input file" in err
    assert open(trace_file).read() == before


def test_gen_reps_only_for_separation(capsys):
    code, _, err = run(capsys, "gen", "bitrev", "2", "--reps", "3")
    assert code == 2
    assert "separation" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_load_pointset_detects_formats(tmp_path):
    t = tmp_path / "a.txt"
    t.write_text("5\n6\n")
    assert load_pointset(str(t)) == from_trace([5, 6])
    p = tmp_path / "b.txt"
    p.write_text("5 1\n6 2\n")
    assert load_pointset(str(p)) == bb.PointSet([(5, 1), (6, 2)])
    e = tmp_path / "c.txt"
    e.write_text("# only comments\n")
    assert load_pointset(str(e)) == bb.PointSet()


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"3\r\n1\r\n2\r\n", from_trace([3, 1, 2])),
        (b"1 5\r\n2 6\r\n", PointSet([(1, 5), (2, 6)])),
        (b"\t4\t\n 5 \n", from_trace([4, 5])),
        (b"1\t2\n\t3 \t4\n", PointSet([(1, 2), (3, 4)])),
        (b"  # c\n\t# d\n7\n   #e 1 2\n8\n", from_trace([7, 8])),
        (b"\n\n  \n7\n8\n\n\t\n", from_trace([7, 8])),
        (b"+7\n-3\n", from_trace([7, -3])),
        (b"", PointSet()),
        (b"  \n\n", PointSet()),
    ],
    ids=["crlf-trace", "crlf-points", "tabs-trace", "tabs-points", "comments",
         "blank-lines", "signs", "empty", "only-blank"],
)
def test_load_pointset_edge_cases(tmp_path, data, expected):
    path = tmp_path / "input"
    path.write_bytes(data)
    P = load_pointset(str(path))
    assert P == expected
    assert P.by_y == expected.by_y


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\nx\n", "line 2: not an integer: 'x'"),
        ("1 2\n3 x\n", "line 2: not an integer pair: '3 x'"),
        ("1\n2 3 4\n", "line 2: expected 1 or 2 fields, got '2 3 4'"),
        ("# c\n1 2 3\n", "line 2: expected 1 or 2 fields, got '1 2 3'"),
        ("1\n2\n3 4\n", "line 3: mixed trace and point-set lines"),
        ("1 2\n3\n", "line 2: mixed trace and point-set lines"),
        # Several faults: the earliest line is reported.
        ("1\nx\n1 2 3\n", "line 2: not an integer: 'x'"),
    ],
    ids=["non-integer", "non-integer-pair", "three-fields", "three-fields-first",
         "trace-then-points", "points-then-trace", "earliest-fault"],
)
def test_parse_errors_name_the_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "compute", str(path))
    assert (code, out) == (2, "")
    assert err == f"bstbounds: parse error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1\r\n2\r\n\r\n3 4\n5\n", "line 4: mixed trace and point-set lines"),
        (b"1 1\r2 2\n\x1c3\n", "line 4: mixed trace and point-set lines"),
        (b"1\r\n22\r\n\r\n333\n\xff\n", "line 5: not UTF-8 text"),
        (b"1\r\n22\r333\x1c4\xc3", "line 4: not UTF-8 text"),
    ],
)
def test_error_lines_are_found_piece_by_piece(capsys, tmp_path, monkeypatch, data, message):
    # The faulty line is looked up in small pieces of the text, not in
    # one split of all of it; its number and text must not change.
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for chunk in (1, 2, 3, 5, 1 << 16):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out) == (2, "")
        assert err == f"bstbounds: parse error: {message}\n"


def test_detect_format_reads_only_to_the_first_data_line(monkeypatch):
    # The format is read off the pieces of ``line_chunks``, so a data
    # line past the first piece, or a piece cut near a '\r\n', is found
    # and numbered as the parsers number it, at every piece size.
    for chunk in (1, 2, 3, 5, 1 << 16):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        # The first data line fixes the format even when later lines disagree.
        assert _detect_format("# x\n\n5\n1 2\n") == "trace"
        assert _detect_format("1 2\n5\n") == "pointset"
        assert _detect_format("") == "trace"
        assert _detect_format("#" * 5000 + "\n1 2\n") == "pointset"
        assert _detect_format("1" * 5000 + " 2\n") == "pointset"
        with pytest.raises(ParseError, match="line 5001: expected 1 or 2 fields"):
            _detect_format("\n" * 5000 + "1 2 3\n")
        with pytest.raises(ParseError, match="line 3001: expected 1 or 2 fields"):
            _detect_format("#" + "\r\n" * 3000 + "1 2 3\n")


def test_compute_on_a_trace_builds_no_frozenset_and_sorts_nothing(
    capsys, trace_file, monkeypatch, by_y_builds
):
    loaded = []
    real_compute = cli.compute_bounds

    def capturing(P, *args):
        loaded.append(P)
        return real_compute(P, *args)

    monkeypatch.setattr(cli, "compute_bounds", capturing)
    for bounds, expected in [
        ("funnel,alt", "funnel\t8\nalt\t12\n"),
        ("alt-opt", "alt-opt\t12\n# alt-opt tree: (1 ((2 3) (4 5)))\n"),
    ]:
        code, out, _ = run(capsys, "compute", trace_file, "--bounds", bounds)
        assert code == 0
        assert out == expected
        P = loaded.pop()
        assert by_y_builds == []
        assert "points" not in vars(P)
        assert "by_y" not in vars(P)


_VERIFY_DISTINCT = "".join(
    f"{name}\tPASS\n"
    for name in [
        "two-sided-domination", "funnel-hflip", "funnel-vs-zrects", "zrects-per-point",
        "reverse-gap-3m", "zrects-rotation", "irb-charge", "added-classification",
        "sweep-funnel-remark",
    ]
) + "irb-up-down-gap\tINFO\t1\n"
_VERIFY_REPEATED = "two-sided-domination\tPASS\nfunnel-hflip\tPASS\n" + "".join(
    f"{name}\tSKIP\tinput has repeated keys\n"
    for name in [
        "funnel-vs-zrects", "zrects-per-point", "reverse-gap-3m", "zrects-rotation",
        "irb-charge", "added-classification", "sweep-funnel-remark",
    ]
)


@pytest.mark.parametrize(
    "keys, expected",
    [([5, 2, 8, 1, 9, 3, 7, 4, 6], _VERIFY_DISTINCT), (SIX_TRACE, _VERIFY_REPEATED)],
    ids=["distinct-keys", "repeated-keys"],
)
def test_verify_on_a_trace_builds_no_frozenset_and_no_by_y(
    capsys, tmp_path, monkeypatch, by_y_builds, keys, expected
):
    # The input and its time reversal and key mirror stay columns: the
    # transforms map them, and every check reads them as they are.
    path = tmp_path / "trace.txt"
    path.write_text("".join(f"{x}\n" for x in keys))
    kept = []

    def keeping(fn):
        def kept_result(*args):
            kept.append(fn(*args))
            return kept[-1]

        return kept_result

    monkeypatch.setattr(cli, "load_pointset", keeping(cli.load_pointset))
    for name in ("time_reverse", "hflip"):
        monkeypatch.setattr(bstbounds.verify, name, keeping(getattr(bstbounds.verify, name)))
    code, out, _ = run(capsys, "verify", str(path), "--level", "full")
    assert (code, out) == (0, expected)
    assert len(kept) == 3
    assert by_y_builds == []
    for P in kept:
        assert "points" not in vars(P)
        assert "by_y" not in vars(P)


# Grammar for the fuzz of ``main``.  File bytes mix well-formed lines
# with 3-field lines, junk, invalid UTF-8 and the line breaks that
# ``str.splitlines`` knows beyond '\n' ('\r', '\x1c').  Repeated
# entries weight a draw toward the commands that reach the kernels.
_FUZZ_LINES = st.one_of(
    st.integers(-9, 9).map(lambda v: b"%d" % v),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda p: b"%d %d" % p),
    st.sampled_from(
        [b"", b"1 2 3", b"# c", b" 4\t", b"x", b"+7", b"\xff", b"\xc3", b"caf\xc3\xa9", b"9" * 5000]
    ),
    st.binary(max_size=3),
)
_FUZZ_BREAKS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\x1c"])
_FUZZ_FILE = st.one_of(
    st.lists(st.integers(-9, 9), max_size=10).map(lambda keys: b"".join(b"%d\n" % k for k in keys)),
    st.permutations(range(8)).map(lambda ys: b"".join(b"%d %d\n" % p for p in enumerate(ys))),
    st.lists(st.tuples(_FUZZ_LINES, _FUZZ_BREAKS), max_size=10).map(
        lambda parts: b"".join(line + brk for line, brk in parts)
    ),
)
_FUZZ_TREE = st.one_of(
    st.sampled_from([b"(0 1)", b"((-1 0) (1 2))", b"(1 \xff2)", b"\x80", b"(1", b"(1 2) 3", b"()"]),
    # a caterpillar over the keys of the permutation point sets below
    st.just(b"(0 (1 (2 (3 (4 (5 (6 7)))))))"),
    st.binary(max_size=8),
)


def _maybe(*choices):
    """No flag at all, or one of ``choices``."""
    return st.sampled_from([[], *choices])


@st.composite
def _fuzz_argv(draw):
    """argv for ``main``, with "IN", "TREE" and "OUT" standing for files."""
    source = draw(st.sampled_from(["IN", "IN", "IN", "-", "/nonexistent/in"]))
    tsv = draw(_maybe(["--tsv"]))
    command = draw(st.sampled_from(["compute"] * 4 + ["verify"] * 2 + ["transform", "gen", "junk"]))
    if command == "compute":
        names = st.sampled_from([*cli.BOUND_NAMES, "alt", "magic", " "])
        bounds = ["--bounds", draw(st.lists(names, max_size=3).map(",".join))]
        tree = draw(_maybe(*(["--tree", t] for t in ["balanced", "opt", "@TREE", "@TREE", "@-", "junk"])))
        sweep_to = draw(st.sampled_from([[]] * 4 + [["--sweep-to", "OUT"], ["--sweep-to", "/nonexistent/out"]]))
        return ["compute", source, *bounds, *tree, *tsv, *sweep_to]
    if command == "verify":
        level = draw(_maybe(["--level", "quick"], ["--level", "full"], ["--level", "none"]))
        return ["verify", source, *level, *tsv]
    if command == "transform":
        op = draw(st.sampled_from(["rotate", "reverse", "hflip", "spin"]))
        return ["transform", op, source]
    if command == "gen":
        kind, k, reps = draw(
            st.one_of(
                st.tuples(st.just("bitrev"), st.integers(-1, 8), st.none() | st.just(1)),
                st.tuples(st.just("separation"), st.integers(-1, 2), st.none() | st.integers(-1, 3)),
                st.tuples(st.just("separation"), st.integers(3, 4), st.integers(-1, 2)),
                st.tuples(st.sampled_from(["bitrev", "separation"]), st.just(64), st.none()),
            )
        )
        return ["gen", kind, str(k), *([] if reps is None else ["--reps", str(reps)])]
    return [command, source, *tsv]


def _is_tree(data):
    try:
        bb.parse_tree(data.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        return False
    return True


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_fuzz_argv(), data=_FUZZ_FILE, tree=_FUZZ_TREE)
def test_main_exits_with_a_documented_code(fuzz_dir, argv, data, tree):
    files = {"IN": fuzz_dir / "in.txt", "TREE": fuzz_dir / "ref.tree", "OUT": fuzz_dir / "out"}
    files["IN"].write_bytes(data)
    files["TREE"].write_bytes(tree)
    bad_tree = argv[0] == "compute" and "@TREE" in argv and not _is_tree(tree)
    argv = [str(files[a]) if a in files else a for a in argv]
    argv = [f"@{files['TREE']}" if a == "@TREE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), (argv, code)
    if bad_tree:  # refused before anything reads the input
        assert code == 2, (argv, tree, err.getvalue())
    assert "Traceback" not in err.getvalue() and "codec" not in err.getvalue(), (argv, err.getvalue())


_MODULE_PROBE = """
import sys
from bstbounds.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _src_env() -> dict[str, str]:
    """The environment with this package's source first on the path."""
    src = str(Path(bb.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _modules_loaded_by(argv: list[str]) -> set[str]:
    """The modules a fresh interpreter holds after ``main(argv)``."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        check=True,
    )
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (
            ["compute", "TRACE", "--bounds", "alt,alt-opt,funnel"],
            ["bstbounds.alternation", "bstbounds.funnel", "bstbounds.fold"],
            [
                "bstbounds.verify",
                "bstbounds.sweep",
                "bstbounds.generators",
                "bstbounds.zrect",
                "bstbounds.mixing",
            ],
        ),
        (
            ["gen", "separation", "2"],
            ["bstbounds.generators"],
            [
                "bstbounds.fold",
                "bstbounds.verify",
                "bstbounds.sweep",
                "bstbounds.zrect",
                "bstbounds.alternation",
                "bstbounds.funnel",
                "bstbounds.mixing",
            ],
        ),
        (
            ["compute", "SWEEP", "--bounds", "irb-up,irb-down,funnel"],
            ["bstbounds.sweep", "bstbounds.funnel"],
            [
                "bstbounds.fold",  # distinct keys: read without a walk
                "bstbounds.alternation",
                "bstbounds.zrect",
                "bstbounds.verify",
                "bstbounds.generators",
                "bstbounds.mixing",
            ],
        ),
    ],
    ids=["compute", "gen", "irb"],
)
def test_a_command_imports_only_what_it_runs(trace_file, sweep_file, argv, loaded, absent):
    files = {"TRACE": trace_file, "SWEEP": sweep_file}  # the sweeps need distinct keys
    modules = _modules_loaded_by([files.get(a, a) for a in argv])
    assert set(loaded) <= modules
    assert not modules & {*absent, "dataclasses"}


_TIMER_PROBE = """
import sys
from bstbounds import cli
wanted = sys.argv[1].split(",")
seen = []

class Clock:
    def perf_counter(self):
        if not seen:
            seen.append([m for m in wanted if m not in sys.modules])
        return 0.0

cli.time = Clock()
code = cli.main(sys.argv[2:])
print(*seen[0], file=sys.stderr)
sys.exit(code)
"""


def test_no_bound_is_timed_with_another_bound_s_import(sweep_file):
    # A bound's time covers its kernel only: every module the bounds
    # need is imported before the first timer starts.
    modules = "bstbounds.sweep,bstbounds.zrect,bstbounds.funnel"
    argv = ["compute", sweep_file, "--bounds", "irb-up,irb-down,zrects,funnel", "--tsv"]
    proc = subprocess.run(
        [sys.executable, "-c", _TIMER_PROBE, modules, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        check=True,
    )
    assert proc.stderr == "\n"
    assert [line.split("\t")[0] for line in proc.stdout.splitlines()] == [
        "irb-up",
        "irb-down",
        "zrects",
        "funnel",
    ]


def test_every_public_name_resolves():
    for name in bb.__all__:
        assert getattr(bb, name) is getattr(bb, name)
    assert bb.run_checks is bstbounds.verify.run_checks
    with pytest.raises(AttributeError, match="no_such_name"):
        bb.no_such_name


_ORACLES = {
    "alternation": ["alt_brute", "enumerate_trees"],
    "zrect": ["zrects_brute", "is_zrect"],
    "mixing": ["mix", "blocks"],
    "funnel": ["funnel_of", "f_value", "FunnelView"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in _ORACLES.items() for n in ns])
def test_oracles_are_not_exported(module, name):
    # No oracle is exported.  The funnel's stay in their module, which
    # ``verify`` uses; the others are test-only, kept in conftest.py, so
    # no module of the package defines or holds them.
    assert name not in bb.__all__
    assert not hasattr(bb, name)
    if module == "funnel":
        assert callable(getattr(bstbounds.funnel, name))
        return
    for path in sorted(Path(bstbounds.__file__).parent.glob("*.py")):
        assert f"def {name}(" not in path.read_text(encoding="utf-8"), path.name
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        assert not hasattr(importlib.import_module(f"bstbounds{stem}"), name), path.name
