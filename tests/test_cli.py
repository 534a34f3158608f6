import io

import pytest

import bstbounds as bb
import bstbounds.alternation
import bstbounds.funnel
import bstbounds.sweep
from bstbounds.cli import compute_bounds, load_pointset, main
from bstbounds.geometry import from_trace, parse_pointset, serialize_pointset

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
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = run(capsys, "compute", str(empty), "--bounds", "funnel")
    assert code == 0
    assert out == "funnel\t0\n"


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
    assert report.entries[0].value == report.entries[1].value


def test_deep_reference_tree_is_refused_cleanly(capsys, tmp_path):
    n = 3000
    trace = tmp_path / "keys.txt"
    trace.write_text("".join(f"{k}\n" for k in range(1, n + 1)))
    caterpillar = str(n)
    for k in range(n - 1, 0, -1):
        caterpillar = f"({k} {caterpillar})"
    tree = tmp_path / "deep.tree"
    tree.write_text(caterpillar + "\n")
    code, out, err = run(
        capsys, "compute", str(trace), "--bounds", "alt", "--tree", f"@{tree}"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("bstbounds: reference tree too deep (")
    assert len(err.splitlines()) == 1


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
    for entry in report.entries:
        assert got[entry.name] == str(entry.value)


def test_compute_refuses_zrects_on_repeated_keys(capsys, trace_file):
    code, out, err = run(capsys, "compute", trace_file, "--bounds", "zrects")
    assert code == 1
    assert "distinct x" in err


def test_compute_rejects_unknown_bound(capsys, trio_file):
    code, _, err = run(capsys, "compute", trio_file, "--bounds", "magic")
    assert code == 2
    assert "unknown bound" in err


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


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/input.txt")
    assert code == 2


def test_format_override(capsys, tmp_path):
    # A one-column file is a trace by default; forcing pointset fails.
    path = tmp_path / "t.txt"
    path.write_text("1\n2\n")
    code, out, _ = run(capsys, "compute", str(path), "--bounds", "funnel")
    assert (code, out) == (0, "funnel\t1\n")
    code, _, err = run(
        capsys, "compute", str(path), "--format", "pointset", "--bounds", "funnel"
    )
    assert code == 2


def test_gen_bitrev(capsys):
    code, out, _ = run(capsys, "gen", "bitrev", "2")
    assert code == 0
    assert out == "0\n2\n1\n3\n"


def test_gen_separation_lengths(capsys):
    code, out, _ = run(capsys, "gen", "separation", "2")
    assert code == 0
    assert len(out.splitlines()) == 576
    code, out, _ = run(capsys, "gen", "separation", "2", "--reps", "1")
    assert len(out.splitlines()) == 36


def test_gen_invalid_parameters(capsys):
    code, _, err = run(capsys, "gen", "bitrev", "0")
    assert code == 1
    code, _, err = run(capsys, "gen", "separation", "4")
    assert code == 1
    assert "cap" in err


def test_transform_reverse(capsys, trio_file):
    code, out, _ = run(capsys, "transform", "reverse", trio_file)
    assert code == 0
    assert parse_pointset(out) == bb.time_reverse(TRIO)


def test_transform_rotate_four_times_is_identity(capsys, trio_file, tmp_path, monkeypatch):
    text = open(trio_file).read()
    for _ in range(4):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
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
    monkeypatch.setattr(bstbounds.funnel, "funnel_bound", lambda P: 0)
    code, out, err = run(capsys, "verify", trio_file)
    assert code == 1
    assert "two-sided-domination\tFAIL" in out
    assert "two-sided-domination" in err


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
