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
