"""Output gate: is one CLI run's printed output right?

Two kinds of check.  Where a value was recorded for the workload and
seed in ``expected.json``, every printed line must match it exactly.
On every seed, the printed values must also agree with each other: the
printed ``alt-opt`` tree has that alternation value and beats the
balanced tree, the reference funnel matches the rotate-to-root fast
path on distinct keys, and every verify check reads PASS.
"""

from __future__ import annotations

from bstbounds import alternation, funnel
from bstbounds.geometry import from_trace

TREE_PREFIX = "# alt-opt tree: "


def parse_output(text: str) -> dict[str, str]:
    """``<name>\\t<rest>`` lines by name, plus the ``alt-opt tree`` comment."""
    record: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith(TREE_PREFIX):
            record["alt-opt tree"] = line[len(TREE_PREFIX):]
        elif line and not line.startswith("#"):
            name, _, rest = line.partition("\t")
            record[name] = rest
    return record


def check_run(
    command: tuple[str, ...],
    stdout: str,
    code: int,
    trace: list[int],
    expected: dict[str, str] | None,
) -> list[str]:
    """Reasons the run is wrong; empty when it is right."""
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    record = parse_output(stdout)
    if expected is not None and record != expected:
        diff = sorted(k for k in expected.keys() | record.keys() if expected.get(k) != record.get(k))
        errors.append(f"differs from expected.json on {', '.join(diff)}")
    if command[0] == "verify":
        bad = [f"{k}={v}" for k, v in record.items() if not v.startswith(("PASS", "INFO"))]
        if bad or not record:
            errors.append(f"verify checks not all PASS: {bad or 'no output'}")
        return errors

    requested = command[command.index("--bounds") + 1].split(",")
    values = {name: record.get(name, "") for name in requested}
    if not all(v.isdigit() for v in values.values()):
        return errors + [f"missing or non-integer bound values: {values}"]
    values = {name: int(v) for name, v in values.items()}
    if "alt-opt" in values:
        try:
            tree = alternation.parse_tree(record.get("alt-opt tree", ""))
            tree_value = alternation.alt_bound(from_trace(trace), tree)
        except ValueError as exc:
            errors.append(f"alt-opt tree unusable: {exc}")
        else:
            if tree_value != values["alt-opt"]:
                errors.append(f"alt-opt tree has alternation value {tree_value}")
        if "alt" in values and values["alt-opt"] < values["alt"]:
            errors.append("alt-opt is below alt on the balanced tree")
    if "funnel" in values and len(set(trace)) == len(trace):
        if funnel.funnel_bound_fast(from_trace(trace)) != values["funnel"]:
            errors.append("funnel differs from funnel_bound_fast")
    return errors
