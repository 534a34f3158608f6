"""Command-line interface.

Subcommands: ``compute`` (evaluate bounds on a trace or point set),
``gen`` (emit generator traces), ``transform`` (geometric transforms of
a point set), ``verify`` (run the exact cross-check suite).

An input is UTF-8 text, less a leading byte-order mark, and a trace or
a point set, as its first data line says; ``geometry._data_fields`` is
the one rule for which lines hold data.  That line, every line the
parsers read and the line an error names are all split at the same
cuts, after any line break ``str.splitlines`` honours and never inside
a ``'\\r\\n'`` (``geometry._line_cut``), so their numbers agree.  A trace's
repeated blocks are folded as it is read: their copies are counted on
its text and never converted, and the point set caches the repeat plan
and the distinct keys the reader met.
``compute`` checks its whole command line, a ``--tree`` file included,
before it reads the input.

Exit codes: 0 on success, 1 when a check fails, an input is refused
(e.g. repeated keys for z-rectangle counting, an input or ``--tree``
file too large for the process's memory, ``alt-opt`` on more keys than
its cap, or ``alt`` on a tree whose paths would take too much memory or
too many steps) or memory runs out, 2 on usage or parse errors.  A
reader that closes ``gen``'s output early ends it quietly with exit 0.
Output is tab-separated, one record per line; lines starting with
``#`` are commentary.  ``gen`` writes its trace one block (or slice of
keys) at a time and never holds the whole trace or its text.

Start-up is most of a small command's time, so this module imports
only the input layer up front; each kernel module is imported by the
bound or subcommand that runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import stat
import sys
import time
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .geometry import (
    ParseError,
    PointSet,
    Repeat,
    _data_fields,
    from_trace,
    hflip,
    line_chunks,
    parse_pointset,
    parse_trace,
    require_distinct_xy,
    require_distinct_y,
    rotate90,
    serialize_pointset,
    serialize_trace,
    stretches,
    time_reverse,
)

if TYPE_CHECKING:
    from . import alternation, sweep

BOUND_NAMES = ("alt", "alt-opt", "funnel", "zrects", "irb-up", "irb-down")


class UsageError(ValueError):
    """Bad command line (unknown bound, invalid flag combination)."""


class BoundEntry(NamedTuple):
    name: str
    value: int
    millis: float
    tree_source: Optional[str] = None
    tree: Optional[alternation.Tree] = None


def compute_bounds(
    P: PointSet,
    bounds: Sequence[str],
    tree: Union[str, alternation.Tree] = "balanced",
    sweeps: Optional[dict[str, sweep.SweepOutput]] = None,
) -> tuple[BoundEntry, ...]:
    """Evaluate the requested bounds, each timed on its own.  ``tree`` is
    ``alt``'s reference tree: ``"balanced"`` over P's keys, ``"opt"`` or a
    parsed tree, resolved once before any kernel runs.  Every ``"opt"``
    reads one ``alt_opt`` witness, charged to the first bound that asks,
    and each alt entry carries its tree unformatted.
    With ``sweeps`` given, each ``irb-up``/``irb-down`` sweep's output is
    stored in it under the bound's name, for writing out without a rerun."""
    if isinstance(tree, str) and tree not in ("balanced", "opt"):
        raise ValueError(f"tree must be 'balanced', 'opt' or a Tree, got {tree!r}")
    source = tree if isinstance(tree, str) else "file"
    # The bounds that read the optimal tree.  One that needs it on too many
    # keys, one that needs distinct keys on repeated ones, or an alt tree too
    # large or too slow to walk is refused before any kernel runs.
    needs_opt = [b for b in bounds if b == "alt-opt" or (b == "alt" and source == "opt")]
    if needs_opt and len(P.keys) > _MAX_ALT_OPT_KEYS:
        bound = "alt-opt" if needs_opt[0] == "alt-opt" else "alt --tree opt"
        raise ValueError(
            f"{bound}: {len(P.keys)} distinct keys exceed the cap of "
            f"{_MAX_ALT_OPT_KEYS} for the optimal reference tree"
        )
    distinct = [b for b in bounds if b in ("zrects", "irb-up", "irb-down")]
    if distinct:  # refused under the name of the first one's kernel
        prefix = "" if distinct[0] == "zrects" else "irb_" if sweeps is None else "sweep_add_"
        require_distinct_xy(P, prefix + distinct[0].replace("irb-", ""))
    if "alt" in bounds or "alt-opt" in bounds:
        from . import alternation
    # The tree alt walks, costed now.  An empty P has no balanced or
    # optimal tree, and alt and alt-opt are 0 on it.
    alt_tree = None if isinstance(tree, str) else tree
    if "alt" in bounds and source != "opt" and len(P):
        if alt_tree is None:
            alt_tree = alternation.balanced_tree(P.keys)
        _check_alt_cost(P, alternation.leaf_depths(alt_tree))
    best = None  # the alt_opt witness, once a bound has asked for it

    # Each kernel module is imported before the first timer starts, so
    # no bound is charged for another's import.
    if "funnel" in bounds:
        from . import funnel
    if "zrects" in bounds:
        from . import zrect
    if "irb-up" in bounds or "irb-down" in bounds:
        from . import sweep

    entries = []
    for name in bounds:
        start = time.perf_counter()
        tree_source = used = None
        if name in needs_opt:
            if best is None:
                best = alternation.alt_opt(P) if len(P) else (0, None)
            value, used = best
            tree_source = "opt"
        elif name == "alt":
            value = 0 if alt_tree is None else alternation.alt_bound(P, alt_tree)
            used, tree_source = alt_tree, source
        elif name == "funnel":
            value = funnel.funnel_bound_fast(P)
        elif name == "zrects":
            value = zrect.zrects(P).count
        elif name in ("irb-up", "irb-down"):
            if sweeps is None:  # count the corners without building them
                value = (sweep.irb_up if name == "irb-up" else sweep.irb_down)(P)
            else:
                run = sweep.sweep_add_up if name == "irb-up" else sweep.sweep_add_down
                sweeps[name] = run(P)
                value = len(sweeps[name].added)
        else:
            raise ValueError(f"unknown bound {name!r}; valid: {', '.join(BOUND_NAMES)}")
        millis = (time.perf_counter() - start) * 1000.0
        entries.append(BoundEntry(name, value, millis, tree_source, used))
    return tuple(entries)


def _reference_tree(spec: str) -> Union[str, alternation.Tree]:
    """``--tree`` as ``"balanced"``, ``"opt"`` or the tree ``@FILE`` holds;
    a file that is not a tree is a usage error that names it."""
    if spec in ("balanced", "opt"):
        return spec
    if not spec.startswith("@"):
        raise UsageError(f"--tree must be balanced, opt, or @<file>, got {spec!r}")
    path = spec[1:]
    with open(path, "rb") as fh:
        _check_input_size(os.fstat(fh.fileno()).st_size, f"tree file {path}")
        text = _decode(fh.read(), f" in tree file {path}")
    from . import alternation

    try:
        return alternation.parse_tree(text)
    except ValueError as exc:
        raise UsageError(f"tree file {path}: {exc}") from None


# Most distinct keys ``alt_opt`` is run on.  Its interval DP costs O(n^3)
# time: on a random permutation `compute --bounds alt-opt` took 25 s at
# n=800 and 50 s (75 MiB) at n=1000, the cap (2-core Intel Xeon, Python
# 3.11).
_MAX_ALT_OPT_KEYS = 1000

# Bytes ``alt_bound`` and its tree hold: 8 per entry of the root-to-leaf
# paths, one entry per leaf and level above it, and 340 per key.  Fitted
# (tracemalloc, rounded up) on balanced trees of 10^3-2*10^5 leaves over
# shuffled traces, built or parsed (at most 328 B per key beyond 8 per
# entry), and on caterpillars of 1000-4000 leaves (8.1 B per entry).
_ALT_PATH_ENTRY_BYTES = 8
_ALT_KEY_BYTES = 340

# Most steps ``alt_bound`` takes down a tree, the sum of the leaf depths
# over the accesses its fold walks.  1.9e8 steps took 6.4 s (33 ns a
# step, 2-core Intel Xeon, Python 3.11), so the cap is about half a
# minute.
_MAX_ALT_STEPS = 10**9


def _check_alt_cost(P: PointSet, depths: dict[int, int]) -> None:
    """Refuse ``alt`` when this tree's paths and keys, all it has left to
    allocate, would pass the memory cap, or its walk the step cap."""
    estimate = sum(depths.values()) * _ALT_PATH_ENTRY_BYTES + len(depths) * _ALT_KEY_BYTES
    limit = _memory_limit()
    if estimate > limit:
        raise ValueError(
            f"alt: the reference tree's paths take about {estimate} bytes, "
            f"over the cap of {limit} bytes of memory"
        )
    if len(P) * max(depths.values()) > _MAX_ALT_STEPS:  # else the sum cannot be over
        walked = stretches(iter(P.xs), P.repeats)
        steps = sum(depths.get(x, 0) for stretch, _, _ in walked for x in stretch)
        if steps > _MAX_ALT_STEPS:
            raise ValueError(
                f"alt: {steps} steps down the reference tree exceed the cap of "
                f"{_MAX_ALT_STEPS}"
            )


# Peak Python heap per input byte while an input is read, parsed and
# built and its funnel bound computed, from tracemalloc on inputs of
# 100,000-200,000 lines: 22.4 B for a trace of distinct keys (10.5 B for
# one-digit keys, 15.9 B for blank lines) and 36.5 B for a point set with
# distinct y; the worse, rounded up.  A ``--tree`` file is held to the
# same cap: decoding and parsing a balanced tree of 10^5-2*10^5 leaves
# peaks at 21-23 B per file byte.
_PEAK_BYTES_PER_INPUT_BYTE = 40


# Address space the interpreter maps once ``cli`` is imported, where
# ``/proc/self/statm`` cannot be read: 18.2 MiB measured (Python 3.11,
# Linux x86-64), rounded up.
_BASE_MAPPED_BYTES = 19 << 20


def _memory_limit() -> int:
    """Bytes this process may still map: its address-space limit, or the
    machine's physical memory when that limit is unlimited, less what it
    maps already."""
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return limit - _mapped_bytes()


def _mapped_bytes() -> int:
    """The address space this process maps now, or the interpreter's
    measured base where ``/proc/self/statm`` cannot be read."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[0])
    except OSError:
        return _BASE_MAPPED_BYTES
    return pages * os.sysconf("SC_PAGE_SIZE")


def _check_input_size(size: int, what: str = "input") -> None:
    cap = _memory_limit() // _PEAK_BYTES_PER_INPUT_BYTE
    if size > cap:
        raise ValueError(
            f"{what} of {size} bytes exceeds the cap of {cap} bytes "
            f"({_PEAK_BYTES_PER_INPUT_BYTE} bytes of memory per input byte)"
        )


def _read_input(path: str) -> str:
    """The input as UTF-8 text, from a file or ``-`` for stdin; its size
    is checked against the memory cap before it is decoded."""
    if path == "-":
        data = sys.stdin.buffer.read()
        _check_input_size(len(data))
        return _decode(data)
    with open(path, "rb") as fh:
        _check_input_size(os.fstat(fh.fileno()).st_size)
        return _decode(fh.read())


def _decode(data: bytes, where: str = "") -> str:
    """``data`` as UTF-8 text, less a leading byte-order mark; a bad byte
    is a parse error on its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start].decode("utf-8")  # the bytes after the mark
        # "?" stands for the bad byte
        line = sum(len(lines) for _, lines in line_chunks(head + "?"))
        raise ParseError(f"not UTF-8 text{where}", line) from None


def _line_format(line: str, lineno: int) -> str:
    width = len(line.split())
    if width == 1:
        return "trace"
    if width == 2:
        return "pointset"
    raise ParseError(f"expected 1 or 2 fields, got {line.strip()!r}", lineno)


def _detect_format(text: str) -> str:
    """The format of the first data line; an input without one is a trace.
    Only the pieces of ``line_chunks`` up to that line are split."""
    for first, lines in line_chunks(text):
        for lineno, line in enumerate(lines, start=first):
            if _data_fields(line):
                return _line_format(line, lineno)
    return "trace"


def load_pointset(path: str) -> PointSet:
    """Read, parse and build the input in one pass of one parser.  The first
    data line fixes the format; a later line the parser refuses is reported
    as a mixed input when it has the other format's width."""
    text = _read_input(path)
    fmt = _detect_format(text)
    try:
        if fmt != "trace":
            return parse_pointset(text)
        plan: list[Repeat] = []
        met: set[int] = set()
        keys = parse_trace(text, plan, met)
    except ParseError as exc:
        bad_line = next(
            lines[exc.line - first]
            for first, lines in line_chunks(text)
            if exc.line < first + len(lines)
        )
        if _line_format(bad_line, exc.line) != fmt:
            raise ParseError("mixed trace and point-set lines", exc.line) from None
        raise
    # The text is dropped before the distinct keys are sorted, and their
    # set before they are copied, so the load peaks while it reads.
    del text
    distinct = sorted(met)
    del met
    return from_trace(keys, plan, distinct)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstbounds",
        description="Lower bounds on binary-search-tree cost for access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate bounds on an input")
    p_compute.add_argument("input", help="trace or point-set file, '-' for stdin")
    p_compute.add_argument(
        "--bounds",
        default="funnel",
        help="comma-separated subset of: " + ", ".join(BOUND_NAMES),
    )
    p_compute.add_argument(
        "--tree",
        default="balanced",
        help="reference tree for the alt bound: balanced, opt, or @<file>",
    )
    p_compute.add_argument("--tsv", action="store_true", help="machine output")
    p_compute.add_argument(
        "--sweep-to",
        metavar="FILE",
        help="also write the sweep output (requires exactly one of irb-up/irb-down)",
    )

    p_gen = sub.add_parser("gen", help="emit a generated trace")
    p_gen.add_argument("kind", choices=("bitrev", "separation"))
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--reps", type=int, default=None)

    p_tr = sub.add_parser("transform", help="transform a point set")
    p_tr.add_argument("op", choices=("rotate", "reverse", "hflip"))
    p_tr.add_argument("input", help="trace or point-set file, '-' for stdin")

    p_ver = sub.add_parser("verify", help="run the exact cross-check suite")
    p_ver.add_argument("input", help="trace or point-set file, '-' for stdin")
    p_ver.add_argument("--level", choices=("quick", "full"), default="full")
    p_ver.add_argument(
        "--seed",
        type=int,
        default=0,
        help="accepted and ignored: every check is deterministic",
    )
    p_ver.add_argument("--tsv", action="store_true", help="machine output")
    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    bounds = [b.strip() for b in args.bounds.split(",") if b.strip()]
    if not bounds:
        raise UsageError(f"--bounds names no bound; valid: {', '.join(BOUND_NAMES)}")
    for b in bounds:
        if b not in BOUND_NAMES:
            raise UsageError(f"unknown bound {b!r}; valid: {', '.join(BOUND_NAMES)}")
    sweeps: Optional[dict[str, sweep.SweepOutput]] = None
    if args.sweep_to:
        directions = [b for b in bounds if b in ("irb-up", "irb-down")]
        if len(directions) != 1:
            raise UsageError("--sweep-to needs exactly one of irb-up/irb-down")
        if args.input != "-" and _same_file(args.input, args.sweep_to):
            raise UsageError(f"--sweep-to {args.sweep_to} is the input file")
        sweeps = {}
    tree = _reference_tree(args.tree)
    # Opened before any work, so an unwritable destination fails at once,
    # but emptied only once the sweep is ready, so a failed run leaves it
    # as it was.
    with (
        open(args.sweep_to, "a", encoding="utf-8")
        if args.sweep_to
        else contextlib.nullcontext()
    ) as fh:
        P = load_pointset(args.input)
        entries = compute_bounds(P, bounds, tree, sweeps)
        if sweeps is not None:
            from . import sweep

            out = sweeps[directions[0]]
            try:
                types = sweep.classify_added(P, out) if out.direction == "up" else None
            except sweep.ClassificationError as exc:  # exits 1, as a failed check
                raise ValueError(str(exc)) from None
            text = sweep.serialize_sweep(out, types)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # as "w" would
                fh.truncate(0)
            fh.write(text)
    if "alt" in bounds or "alt-opt" in bounds:
        from . import alternation
    for e in entries:
        if args.tsv:
            text = "-" if e.tree is None else alternation.format_tree(e.tree)
            print(f"{e.name}\t{e.value}\t{e.millis:.3f}\t{e.tree_source or '-'}\t{text}")
        else:
            print(f"{e.name}\t{e.value}")
            if e.tree_source == "opt" and e.tree is not None:
                print(f"# {e.name} tree: {alternation.format_tree(e.tree)}")
    return 0


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one missing: not the same existing file
        return False


# Most keys in one piece of ``gen``'s output.
_GEN_SLICE = 1 << 16


def _repeated(blocks: Iterable[list[int]], reps: int) -> Iterator[str]:
    """The text of each block ``reps`` times, in pieces of at most
    ``_GEN_SLICE`` keys (or one block, if that is longer)."""
    for block in blocks:
        text = serialize_trace(block)
        per_piece = max(1, _GEN_SLICE // len(block))
        for done in range(0, reps, per_piece):
            yield text * min(per_piece, reps - done)


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import generators

    if args.kind == "bitrev":
        if args.reps is not None:
            raise UsageError("--reps only applies to the separation sequence")
        pieces = map(serialize_trace, generators.bit_reversal_slices(args.k, _GEN_SLICE))
    else:
        params = generators.SeparationParams(args.k, args.reps)
        pieces = _repeated(generators.separation_blocks(params), params.effective_reps)
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: what is left is wanted by no one.  Point
        # stdout at /dev/null, so the interpreter's last flush of what is
        # still buffered neither fails nor prints.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    op = {"rotate": rotate90, "reverse": time_reverse, "hflip": hflip}[args.op]
    P = op(load_pointset(args.input))
    require_distinct_y(P, f"transform {args.op}")  # the output must parse back
    sys.stdout.write(serialize_pointset(P))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    P = load_pointset(args.input)
    report = verify.run_checks(P, level=args.level, seed=args.seed)
    for r in report.results:
        if r.detail and (args.tsv or r.status in (verify.INFO, verify.SKIP)):
            print(f"{r.name}\t{r.status}\t{r.detail}")
        else:
            print(f"{r.name}\t{r.status}")
            if r.detail:
                print(f"{r.name}: {r.detail}", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "gen": _cmd_gen,
        "transform": _cmd_transform,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"bstbounds: parse error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"bstbounds: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bstbounds: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, SystemError):  # 3.11+ may raise the latter when out of memory
        pass  # print once the error's frames, and the memory they hold, are freed
    print("bstbounds: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
