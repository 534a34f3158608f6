"""Benchmark of ``bstbounds compute`` and ``bstbounds verify``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; nothing needs installing.
Set-up writes the workload's input file in a fresh process, timed
``SETUP_REPS`` times.  With ``--trace 0`` the CLI then runs as a user
runs it, one process at a time in a closed loop with one client, until
``--seconds`` have passed; each run's wall time (spawn to exit) and peak
RSS are recorded and its output goes through the gate in ``check.py``.
With ``--trace 1`` the loop instead alternates a traced in-process run
(``layers.py``), an untraced CLI run and an interpreter start-up, and
reports per-layer medians plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the context and every sample.  Exit code 0 when every run was right,
1 when the gate rejected a run, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPS = 7
PY = sys.executable
sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    source: tuple  # trace generator, as make_input.make_trace takes it
    command: tuple[str, ...]  # subcommand and its options; the input goes after the subcommand

    @property
    def seeded(self) -> bool:
        return self.source[0] != "separation"


# Why each workload is here: README.md in this directory.
WORKLOADS = {
    "sep3-compute": Workload(("separation", 3), ("compute", "--bounds", "funnel,alt")),
    "perm-verify": Workload(("perm", 400), ("verify", "--level", "full", "--seed", "0")),
    "repeat-altopt": Workload(("uniform", 1000, 64), ("compute", "--bounds", "alt,alt-opt,funnel")),
    "perm-sweep": Workload(("perm", 2500), ("compute", "--bounds", "irb-up,irb-down,funnel")),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave src/ untouched; every run compiles alike
    return env


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    ``os.wait4`` gives this child's own peak RSS; ``RUSAGE_CHILDREN``
    would keep the maximum over every child so far.
    """
    with open(stdout_path, "w") as out, open(WORK / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def setup_argv(w: Workload, seed: int) -> list[str]:
    if w.source[0] == "separation":
        return [PY, "-m", "bstbounds.cli", "gen", "separation", str(w.source[1])]
    return [PY, str(HERE / "make_input.py"), *map(str, w.source), str(seed)]


def set_up(w: Workload, seed: int, path: Path) -> list[float]:
    """Write the input file SETUP_REPS times; the wall time of each."""
    times = []
    for _ in range(SETUP_REPS):
        wall, _, code = spawn(setup_argv(w, seed), path)
        if code != 0:
            raise BenchError(f"set-up exited {code}: {(WORK / 'stderr.txt').read_text()}")
        times.append(wall)
    return times


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def context(name: str, seed: int, trace: list[int]) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "m": len(trace),
        "distinct_keys": len(set(trace)),
        "repeated_keys": len(set(trace)) < len(trace),
    }


class Gate:
    """Counts runs and failed runs; checks each distinct output once."""

    def __init__(self, w: Workload, trace: list[int], expected: dict | None):
        self.args = (w.command, trace, expected)
        self.verdicts: dict[tuple[str, int], list[str]] = {}
        self.attempted = self.failed = 0

    def __call__(self, stdout: str, code: int) -> None:
        from check import check_run  # imports bstbounds, so only once src/ is known to exist

        key = (stdout, code)
        if key not in self.verdicts:
            command, trace, expected = self.args
            self.verdicts[key] = check_run(command, stdout, code, trace, expected)
            for error in self.verdicts[key]:
                print(f"output gate: {error}", file=sys.stderr)
        self.attempted += 1
        self.failed += bool(self.verdicts[key])


def rounds(seconds: float):
    """Yield while another round, as long as the last one, still ends
    within ``seconds``; always at least once."""
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            return
        last = now
        yield


def measure(cli_argv: list[str], seconds: float, gate: Gate) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {"wall_s": [], "peak_rss_mb": []}
    out = WORK / "out.txt"
    for _ in rounds(seconds):
        wall, rss, code = spawn(cli_argv, out)
        gate(out.read_text(), code)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
    return samples


def measure_traced(
    w: Workload, seed: int, cli_argv: list[str], seconds: float, gate: Gate
) -> dict[str, list[float]]:
    """Per-layer samples from traced runs, and the untraced wall and
    start-up times that the tracing overhead is measured against."""
    startup_argv = [PY, "-c", "import bstbounds.cli"]
    spec = {"source": list(w.source), "seed": seed, "argv": cli_argv[3:]}
    traced_argv = [PY, str(HERE / "layers.py"), json.dumps(spec)]
    out = WORK / "out.txt"
    samples: dict[str, list[float]] = {"untraced_wall_s": [], "startup_s": [], "trace.main_s": []}
    for _ in rounds(seconds):
        samples["startup_s"].append(spawn(startup_argv, out)[0])
        wall, _, code = spawn(cli_argv, out)
        gate(out.read_text(), code)
        samples["untraced_wall_s"].append(wall)
        _, _, code = spawn(traced_argv, out)
        if code != 0:
            raise BenchError(f"traced run exited {code}: {(WORK / 'stderr.txt').read_text()}")
        traced = json.loads(out.read_text().splitlines()[-1])
        gate(traced["stdout"], traced["exit"])
        samples["trace.main_s"].append(traced["main_s"])
        for metric, value in traced["metrics"].items():
            samples.setdefault(metric, []).append(value)
    return samples


def run(name: str, seed: int, seconds: float, trace_mode: bool) -> tuple[dict, dict]:
    """One benchmark run: (result for the last line, context and samples)."""
    if not (SRC / "bstbounds" / "cli.py").is_file():
        raise BenchError(f"no bstbounds sources under {SRC}")
    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)

    path = WORK / f"{name}.txt"
    setup_s = set_up(w, seed, path)
    trace = [int(v) for v in path.read_text().split()]
    expected = None
    if seed == DEFAULT_SEED or not w.seeded:
        expected = json.loads(EXPECTED_PATH.read_text()).get(name)
    gate = Gate(w, trace, expected)
    cli_argv = [PY, "-m", "bstbounds.cli", w.command[0], str(path), *w.command[1:]]

    if trace_mode:
        samples = measure_traced(w, seed, cli_argv, seconds, gate)
        metrics = {
            k: statistics.median(v)
            for k, v in samples.items()
            if k not in ("untraced_wall_s", "startup_s")
        }
        untraced_main = statistics.median(samples["untraced_wall_s"]) - statistics.median(
            samples["startup_s"]
        )
        metrics["trace.overhead_s"] = metrics["trace.main_s"] - untraced_main
    else:
        samples = measure(cli_argv, seconds, gate)
        samples["setup_s"] = setup_s
        metrics = {k: statistics.median(v) for k, v in samples.items()}

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    record = {
        "context": context(name, seed, trace),
        "error_rate": gate.failed / gate.attempted,
        "quartiles": {k: quartiles(v) for k, v in samples.items() if k.endswith("_s") or k.endswith("_mb")},
        "samples": samples,
    }
    return result, record


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for k, q in record["quartiles"].items():
        print(f"{k}: median {q['median']:.6g} {unit_of(k)} (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")
    print(f"error_rate: {record['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
