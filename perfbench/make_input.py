"""Write one seeded benchmark trace to standard output.

    python perfbench/make_input.py perm M SEED        random permutation of 1..M
    python perfbench/make_input.py uniform M N SEED   M accesses drawn uniformly from 1..N

The benchmark times this script, from spawn to exit, as the set-up of
the workloads whose input is random; the separation workload uses
``bstbounds gen separation K`` instead.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bstbounds import generators, geometry  # noqa: E402


def make_trace(source: tuple, seed: int) -> list[int]:
    """The trace named by a workload's ``source``, deterministic per seed."""
    kind, *params = source
    if kind == "separation":
        return generators.separation_sequence(generators.SeparationParams(*params))
    if kind == "perm":
        (m,) = params
        return generators.random_permutation(m, seed)
    if kind == "uniform":
        m, n = params
        rng = random.Random(seed)
        return [rng.randint(1, n) for _ in range(m)]
    raise ValueError(f"unknown trace source {kind!r}")


def main(argv: list[str]) -> int:
    kind, *numbers = argv
    *params, seed = (int(v) for v in numbers)
    sys.stdout.write(geometry.serialize_trace(make_trace((kind, *params), seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
