"""Command-line interface.

Subcommands: ``compute`` (evaluate bounds on a trace or point set),
``gen`` (emit generator traces), ``transform`` (geometric transforms of
a point set), ``verify`` (run the exact cross-check suite).

Exit codes: 0 on success, 1 when a check fails or an input is refused
(e.g. repeated keys for z-rectangle counting), 2 on usage or parse
errors.  Output is tab-separated, one record per line; lines starting
with ``#`` are commentary.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import alternation, funnel, generators, sweep, verify, zrect
from .geometry import (
    ParseError,
    PointSet,
    from_trace,
    hflip,
    parse_pointset,
    parse_trace,
    rotate90,
    serialize_pointset,
    serialize_trace,
    time_reverse,
)

BOUND_NAMES = ("alt", "alt-opt", "funnel", "zrects", "irb-up", "irb-down")


class UsageError(ValueError):
    """Bad command line (unknown bound, invalid flag combination)."""


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: int
    millis: float
    tree_source: Optional[str] = None
    tree_text: Optional[str] = None


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]


def compute_bounds(
    P: PointSet, bounds: Sequence[str], tree_spec: str = "balanced"
) -> BoundReport:
    """Evaluate the requested bounds; all values come straight from the
    library calls, timed individually."""
    entries = []
    for name in bounds:
        start = time.perf_counter()
        tree_source = tree_text = None
        if name == "alt":
            tree, tree_source = _resolve_tree(P, tree_spec)
            value = alternation.alt_bound(P, tree)
            tree_text = alternation.format_tree(tree)
        elif name == "alt-opt":
            witness = alternation.alt_opt(P)
            value = witness.value
            tree_source = "opt"
            tree_text = alternation.format_tree(witness.tree)
        elif name == "funnel":
            value = funnel.funnel_bound_fast(P)
        elif name == "zrects":
            value = zrect.zrects(P).count
        elif name == "irb-up":
            value = sweep.irb_up(P)
        elif name == "irb-down":
            value = sweep.irb_down(P)
        else:
            raise ValueError(f"unknown bound {name!r}; valid: {', '.join(BOUND_NAMES)}")
        millis = (time.perf_counter() - start) * 1000.0
        entries.append(BoundEntry(name, value, millis, tree_source, tree_text))
    return BoundReport(tuple(entries))


def _resolve_tree(P: PointSet, spec: str) -> tuple[alternation.Tree, str]:
    keys = sorted({x for x, _ in P})
    if spec == "balanced":
        return alternation.balanced_tree(keys), "balanced"
    if spec == "opt":
        return alternation.alt_opt(P).tree, "opt"
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return alternation.parse_tree(fh.read()), "file"
    raise UsageError(f"--tree must be balanced, opt, or @<file>, got {spec!r}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _detect_format(text: str) -> str:
    widths = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        width = len(stripped.split())
        if width not in (1, 2):
            raise ParseError(f"expected 1 or 2 fields, got {stripped!r}", lineno)
        widths.add(width)
        if len(widths) > 1:
            raise ParseError("mixed trace and point-set lines", lineno)
    if not widths or widths == {1}:
        return "trace"
    return "pointset"


def load_pointset(path: str, fmt: str = "auto") -> PointSet:
    text = _read_input(path)
    if fmt == "auto":
        fmt = _detect_format(text)
    if fmt == "trace":
        return from_trace(parse_trace(text))
    if fmt == "pointset":
        return parse_pointset(text)
    raise ValueError(f"unknown input format {fmt!r}")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="trace or point-set file, '-' for stdin")
    p.add_argument(
        "--format",
        choices=("auto", "trace", "pointset"),
        default="auto",
        help="input interpretation (default: auto-detect)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstbounds",
        description="Lower bounds on binary-search-tree cost for access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate bounds on an input")
    _add_input_args(p_compute)
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
    _add_input_args(p_tr)

    p_ver = sub.add_parser("verify", help="run the exact cross-check suite")
    _add_input_args(p_ver)
    p_ver.add_argument("--level", choices=("quick", "full"), default="full")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tsv", action="store_true", help="machine output")
    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    P = load_pointset(args.input, args.format)
    bounds = [b.strip() for b in args.bounds.split(",") if b.strip()]
    for b in bounds:
        if b not in BOUND_NAMES:
            raise UsageError(f"unknown bound {b!r}; valid: {', '.join(BOUND_NAMES)}")
    report = compute_bounds(P, bounds, args.tree)
    if args.sweep_to:
        directions = [b for b in bounds if b in ("irb-up", "irb-down")]
        if len(directions) != 1:
            raise UsageError("--sweep-to needs exactly one of irb-up/irb-down")
        out = (
            sweep.sweep_add_up(P)
            if directions[0] == "irb-up"
            else sweep.sweep_add_down(P)
        )
        types = sweep.classify_added(P, out) if out.direction == "up" else None
        with open(args.sweep_to, "w", encoding="utf-8") as fh:
            fh.write(sweep.serialize_sweep(out, types))
    for e in report.entries:
        if args.tsv:
            print(
                f"{e.name}\t{e.value}\t{e.millis:.3f}\t"
                f"{e.tree_source or '-'}\t{e.tree_text or '-'}"
            )
        else:
            print(f"{e.name}\t{e.value}")
            if e.tree_source == "opt" and e.tree_text:
                print(f"# {e.name} tree: {e.tree_text}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "bitrev":
        if args.reps is not None:
            raise UsageError("--reps only applies to the separation sequence")
        trace = generators.bit_reversal(args.k)
    else:
        params = generators.SeparationParams(args.k, args.reps)
        trace = generators.separation_sequence(params)
    sys.stdout.write(serialize_trace(trace))
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    P = load_pointset(args.input, args.format)
    op = {"rotate": rotate90, "reverse": time_reverse, "hflip": hflip}[args.op]
    sys.stdout.write(serialize_pointset(op(P)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    P = load_pointset(args.input, args.format)
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
    except UsageError as exc:
        print(f"bstbounds: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bstbounds: {exc}", file=sys.stderr)
        return 2
    except (ValueError, sweep.ClassificationError) as exc:
        print(f"bstbounds: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
