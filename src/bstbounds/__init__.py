"""Combinatorial lower bounds on binary-search-tree cost for access traces.

Each public name loads its module on first use: importing the package
loads none of its modules, and importing one loads only what it imports.
"""

from importlib import import_module

_EXPORTS = {
    "alternation": (
        "AltWitness",
        "Tree",
        "alt_bound",
        "alt_opt",
        "balanced_tree",
        "format_tree",
        "parse_tree",
        "random_tree",
        "tree_leaves",
    ),
    "funnel": ("funnel_bound", "funnel_bound_fast"),
    "generators": (
        "SeparationParams",
        "bit_reversal",
        "random_permutation",
        "sep_block",
        "separation_blocks",
        "separation_sequence",
    ),
    "geometry": (
        "ParseError",
        "Point",
        "PointSet",
        "from_trace",
        "hflip",
        "parse_pointset",
        "parse_trace",
        "rotate90",
        "serialize_pointset",
        "serialize_trace",
        "time_reverse",
    ),
    "mixing": ("mix_value",),
    "sweep": (
        "AddedPointType",
        "ClassificationError",
        "SweepOutput",
        "classify_added",
        "irb_down",
        "irb_up",
        "serialize_sweep",
        "sweep_add_down",
        "sweep_add_up",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_checks"),
    "zrect": ("ZRectResult", "zrects"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# ``run_checks`` resolves too, but is left out of ``import *``.
__all__ = sorted(_MODULE_OF.keys() - {"run_checks"})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
