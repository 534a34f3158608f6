"""The benchmark's own tests: a smoke run at tiny sizes and the output gate.

    python -m pytest perfbench
"""

import json

import pytest

import run
from check import check_run
from make_input import make_trace

TINY = {
    "sep3-compute": run.Workload(("separation", 1), run.WORKLOADS["sep3-compute"].command),
    "perm-verify": run.Workload(("perm", 12), run.WORKLOADS["perm-verify"].command),
    "repeat-altopt": run.Workload(("uniform", 40, 6), run.WORKLOADS["repeat-altopt"].command),
    "perm-sweep": run.Workload(("perm", 30), run.WORKLOADS["perm-sweep"].command),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, one set-up each, and nothing recorded to compare with."""
    expected = tmp_path / "expected.json"
    expected.write_text("{}")
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "EXPECTED_PATH", expected)
    return expected


def bench(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    lines = capsys.readouterr().out.splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(TINY))
def test_smoke_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code, result = bench(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_gate_fires_on_a_corrupted_expected_value(tiny, capsys):
    tiny.write_text(json.dumps({"perm-sweep": {"irb-up": "1", "irb-down": "1", "funnel": "1"}}))
    code, result = bench(capsys, "--workload", "perm-sweep")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_recorded_values_pass_and_an_altered_one_fails():
    expected = json.loads(run.EXPECTED_PATH.read_text())
    w = run.WORKLOADS["sep3-compute"]
    trace = make_trace(w.source, run.DEFAULT_SEED)
    record = expected["sep3-compute"]
    stdout = "".join(f"{k}\t{v}\n" for k, v in record.items())
    assert check_run(w.command, stdout, 0, trace, record) == []
    altered = dict(record, funnel=str(int(record["funnel"]) + 1))
    assert check_run(w.command, stdout, 0, trace, altered)


def test_consistency_checks_without_recorded_values():
    trace = make_trace(("uniform", 40, 6), 3)
    altopt = run.WORKLOADS["repeat-altopt"].command
    assert check_run(altopt, "alt\t5\nalt-opt\t4\n# alt-opt tree: 1\nfunnel\t3\n", 0, trace, None)
    verify = run.WORKLOADS["perm-verify"].command
    assert check_run(verify, "a\tPASS\nb\tINFO\t-2\n", 0, trace, None) == []
    assert check_run(verify, "a\tPASS\nb\tFAIL\n", 1, trace, None)
    sweep = run.WORKLOADS["perm-sweep"].command
    perm = make_trace(("perm", 30), 3)
    assert check_run(sweep, "irb-up\t1\nirb-down\t1\nfunnel\t1\n", 0, perm, None)


def test_refuses_to_run_without_the_sources(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code, result = bench(capsys, "--workload", "perm-sweep")
    assert code == 2
    assert result is None
