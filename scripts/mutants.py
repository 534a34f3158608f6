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


MUTANTS = (
    Mutant(
        "reader: the block's text compared one character off",
        "bstbounds/fold.py",
        "        width = end - start\n",
        "        width = end - start + 1\n",
        ("tests/test_reader.py::test_copies_are_counted_on_the_text_and_never_converted",),
    ),
    Mutant(
        "reader: copies whose text differs are not compared as keys",
        "bstbounds/fold.py",
        "                tried = s\n            self.convert()\n",
        "                tried = s\n            break\n",
        ("tests/test_reader.py::test_folded_read_equals_whole_read[05-for-5-in-one-copy]",),
    ),
    Mutant(
        "reader: the walk after an all-new prefix starts one access late",
        "bstbounds/fold.py",
        "self.given = filled  # keys handed",
        "self.given = filled + 1  # keys handed",
        ("tests/test_reader.py::test_folded_read_equals_whole_read_on_seeded_block_texts",),
    ),
    Mutant(
        "reader: the lines of the folded copies counted one off",
        "bstbounds/fold.py",
        "self.lineno += count * lines\n",
        "self.lineno += count * lines + 1\n",
        ("tests/test_reader.py::test_an_error_after_thousands_of_folded_copies",),
    ),
    Mutant(
        "reader: a last copy's '\\r' and the '\\n' after it read as two breaks",
        "bstbounds/fold.py",
        "                self.pos += 1  # the last copy's",
        "                self.pos += 0  # the last copy's",
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
