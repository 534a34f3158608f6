"""The standing mutant table, and a runner that checks every mutant is killed.

    python3 scripts/mutants.py

Each row names a file under ``src/``, an exact ``old`` text that occurs
once in it, the ``new`` text that replaces it, and the tests that must
fail once it is replaced.  For each row the runner copies ``src/`` to a
temporary directory, applies that one edit, and runs ``pytest -x -q``
on the row's tests with ``PYTHONPATH`` set to the copy.  The mutant is
killed when a test fails or the run passes ``DEADLINE`` seconds (a
mutant may loop forever); it survives when every test passes.  The
runner prints one line per row and exits 1 if any mutant survives, 2 if
a row cannot be run (its ``old`` text is not found once, or its tests
do not run).

A change to the code under a row updates the row with it:
``tests/test_scripts.py`` checks that every ``old`` text occurs exactly
once and that every named test collects.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEADLINE = 300.0  # seconds for one row's tests


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node IDs, relative to the repository root


EXHAUSTIVE_FUNNEL = "tests/test_exhaustive.py::test_funnel_bound_fast_equals_funnel_bound"
EXHAUSTIVE_ZRECTS = "tests/test_exhaustive.py::test_zrects_equal_zrects_brute"
EXHAUSTIVE_ALT_OPT = "tests/test_exhaustive.py::test_alt_opt_equals_alt_brute"

MUTANTS = (
    Mutant(
        "reader: the block's text compared one character off",
        "bstbounds/fold.py",
        "    width = end - start\n",
        "    width = end - start + 1\n",
        ("tests/test_reader.py::test_copies_are_counted_on_the_text_and_never_converted",),
    ),
    Mutant(
        "reader: copies whose text differs are not compared as keys",
        "bstbounds/fold.py",
        "            tried = s\n        reader.convert()\n",
        "            tried = s\n        break\n",
        ("tests/test_reader.py::test_folded_read_equals_whole_read[05-for-5-in-one-copy]",),
    ),
    Mutant(
        "reader: the walk after an all-new prefix starts one access late",
        "bstbounds/geometry.py",
        "reader.given -= len(piece)  # the walk",
        "reader.given -= len(piece) - 1  # the walk",
        ("tests/test_reader.py::test_folded_read_equals_whole_read_on_seeded_block_texts",),
    ),
    Mutant(
        "reader: the lines of the folded copies counted one off",
        "bstbounds/fold.py",
        "reader.lineno += count * lines\n",
        "reader.lineno += count * lines + 1\n",
        ("tests/test_reader.py::test_an_error_after_thousands_of_folded_copies",),
    ),
    Mutant(
        "reader: a last copy's '\\r' and the '\\n' after it read as two breaks",
        "bstbounds/fold.py",
        "            reader.pos += 1  # the last copy's",
        "            reader.pos += 0  # the last copy's",
        (
            "tests/test_reader.py::test_an_error_after_thousands_of_folded_copies"
            "[after-cr-copies-then-lf]",
        ),
    ),
    Mutant(
        "reader: the keys met added from the walk's dict, which sizes the set for both",
        "bstbounds/fold.py",
        "keys_out.update(last.keys())",
        "keys_out.update(last)",
        ("tests/test_reader.py::test_a_key_repeated_late_stays_inside_the_input_cap",),
    ),
    Mutant(
        "reader: a piece cut between the '\\r' and the '\\n' of a '\\r\\n'",
        "bstbounds/geometry.py",
        'breaks = re.compile("\\r\\n?|',
        'breaks = re.compile("\\r|',
        ("tests/test_reader.py::test_folded_read_equals_whole_read_on_seeded_block_texts",),
    ),
    Mutant(
        "funnel: the head's links swapped when the accessed node becomes the root",
        "bstbounds/funnel.py",
        "node.left = head.right\n            node.right = head.left\n",
        "node.left = head.left\n            node.right = head.right\n",
        (EXHAUSTIVE_FUNNEL,),
    ),
    Mutant(
        "funnel: a repeated key's left subtree dropped when its node is spliced out",
        "bstbounds/funnel.py",
        "l_tail.right = node.left\n",
        "l_tail.right = None\n",
        (EXHAUSTIVE_FUNNEL,),
    ),
    Mutant(
        "funnel: the runs of a folded period added one copy too many",
        "bstbounds/funnel.py",
        "total += count * (total - mark)\n",
        "total += (count + 1) * (total - mark)\n",
        (EXHAUSTIVE_FUNNEL,),
    ),
    Mutant(
        "zrect: the side of the first run read from the wrong neighbour",
        "bstbounds/zrect.py",
        "if t and xs[t - 1] > xs[t]",
        "if t and xs[t - 1] < xs[t]",
        (EXHAUSTIVE_ZRECTS,),
    ),
    Mutant(
        "zrect: an access with fewer than two runs tops -1 z-rectangles",
        "bstbounds/zrect.py",
        "else max(0, (k - 2) // 2)\n",
        "else (k - 2) // 2\n",
        (EXHAUSTIVE_ZRECTS,),
    ),
    Mutant(
        "alt_opt: a best value written only to the row of its left end",
        "bstbounds/alternation.py",
        "value_i[j] = value_j[i] = 1 + best\n",
        "value_i[j] = 1 + best\n",
        (EXHAUSTIVE_ALT_OPT,),
    ),
    Mutant(
        "alt_opt: the boxes of a folded period added one copy too few",
        "bstbounds/alternation.py",
        "here.get(box, 0) + (count + 1) * c\n",
        "here.get(box, 0) + count * c\n",
        (EXHAUSTIVE_ALT_OPT,),
    ),
    Mutant(
        "sweep: the segment tree's tops before its phase one access too early",
        "bstbounds/sweep.py",
        "tree[size + c] = t + 1\n",
        "tree[size + c] = t\n",
        ("tests/test_sweep.py::test_both_phases_match_rescan_oracle[0]",),
    ),
    Mutant(
        "sweep: the added-point types a and b swapped",
        "bstbounds/sweep.py",
        "AddedPointType((x, y), is_a, is_b, witness)",
        "AddedPointType((x, y), is_b, is_a, witness)",
        ("tests/test_sweep.py::test_classification_labels_match_documented_example",),
    ),
    Mutant(
        "verify: a subtree of exactly 32 keys split instead of optimised",
        "bstbounds/verify.py",
        "if len(keys) <= _ALT_OPT_KEYS:",
        "if len(keys) < _ALT_OPT_KEYS:",
        ("tests/test_verify.py::test_full_level_up_to_32_keys_asks_alt_opt_once[32]",),
    ),
    Mutant(
        "verify: the sweep-funnel remark ignores rows that break it",
        "bstbounds/verify.py",
        "remark = remark and not rows\n",
        "remark = remark\n",
        ("tests/test_verify.py::test_misplaced_corner_fails_the_remark[empty-row]",),
    ),
)


def mutated_source(m: Mutant, src: Path) -> str:
    """The text of ``m``'s file under ``src`` with its one edit; a
    ``ValueError`` unless ``old`` occurs exactly once."""
    text = (src / m.file).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.file}")
    return text.replace(m.old, m.new)


def run_mutant(m: Mutant) -> str:
    """``killed``, ``survived`` or ``error: ...`` for one row."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            (src / m.file).write_text(mutated_source(m, ROOT / "src"), encoding="utf-8")
        except ValueError as exc:
            return f"error: {exc}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=DEADLINE
            )
        except subprocess.TimeoutExpired:
            return "killed"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}: {proc.stdout[-400:]}{proc.stderr[-400:]}"


def main() -> int:
    survived = errors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(m)
        print(f"{verdict.split(':')[0]}\t{time.perf_counter() - start:.1f} s\t{m.name}", flush=True)
        if verdict == "survived":
            survived += 1
        elif verdict != "killed":
            errors += 1
            print(f"  {verdict}", file=sys.stderr)
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
