"""Smoke tests for the experiment scripts, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_separation_trend():
    proc = run_script("separation_trend.py", "--ks", "1", "2")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    columns = header.split("\t")
    assert columns == [
        "k", "n", "reps", "m", "funnel", "alt", "alt-tree", "ratio", "seconds"
    ]
    assert len(rows) == 2
    for row in rows:
        record = dict(zip(columns, row.split("\t")))
        assert record["alt-tree"] == "opt"
        assert float(record["ratio"]) > 0


def test_sweep_gap():
    proc = run_script("sweep_gap.py", "--samples", "3", "--max-n", "12")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith("n\tirb-up\tirb-down")
    assert len(rows) == 3


def test_every_mutant_row_matches_the_code_and_names_tests_that_collect():
    # The cheap half of the mutant table: a change that moves a row's
    # text, or renames a test it names, fails here until the row moves.
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests, m.name
        mutants.mutated_source(m, ROOT / "src")  # the old text occurs exactly once
    ids = sorted({t for m in mutants.MUTANTS for t in m.tests})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    for test_id in ids:
        assert any(c == test_id or c.startswith(test_id + "[") for c in collected), test_id
