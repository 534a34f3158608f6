"""Traced in-process run of one CLI invocation, with self time per layer.

    python perfbench/layers.py '{"source": [...], "seed": N, "argv": [...]}'

Wraps the functions in ``TRACED`` and the cached properties in
``CACHED``: each is replaced in its defining module and under every
name another ``bstbounds`` module imported it as, so a call is charged
to the module that holds the code whoever calls it.  It then regenerates
the workload's trace (for ``generators.gen_s``), runs ``cli.main(argv)``
with standard output captured, and prints one JSON object: per-layer
metrics, the traced ``cli.main`` time, the exit code and the output.

A layer's self time is the time inside its functions minus the time
inside other traced layers they call.  A call made while the same layer
is already innermost (recursion, ``f_value`` calling ``funnel_of``,
``irb_up`` calling ``sweep_add_up``) is neither timed nor counted again.
Functions that are not listed run inside a listed caller and are charged
to it: ``compute_bounds`` and ``load_pointset`` to ``cli.self``,
``mix_value`` to ``funnel.point``, the ``require_*`` checks to whoever
calls them.  The test-only oracles are not traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property, wraps
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bstbounds import (  # noqa: E402
    alternation,
    cli,
    funnel,
    generators,
    geometry,
    mixing,
    sweep,
    verify,
    zrect,
)

from make_input import make_trace  # noqa: E402

TRACED = {
    cli: {"main": "cli.self", "_read_input": "cli.read", "_detect_format": "cli.detect"},
    geometry: {
        "parse_trace": "geometry.parse",
        "parse_pointset": "geometry.parse",
        "from_trace": "geometry.build",
        "hflip": "geometry.transform",
        "rotate90": "geometry.transform",
        "time_reverse": "geometry.transform",
    },
    funnel: {
        "funnel_bound": "funnel.bound",
        "funnel_bound_fast": "funnel.bound",
        "f_value": "funnel.point",
        "funnel_of": "funnel.point",
    },
    zrect: {"zrects": "zrect.count"},
    alternation: {
        "alt_bound": "alternation.alt",
        "alt_opt": "alternation.opt",
        "balanced_tree": "alternation.tree",
        "format_tree": "alternation.tree",
        "parse_tree": "alternation.tree",
        "random_tree": "alternation.tree",
        "tree_leaves": "alternation.tree",
    },
    mixing: {"merged_blocks": "mixing.merge"},
    sweep: {
        "sweep_add_up": "sweep.up",
        "irb_up": "sweep.up",
        "sweep_add_down": "sweep.down",
        "irb_down": "sweep.down",
        "classify_added": "sweep.classify",
    },
    verify: {"run_checks": "verify.self", "_remark_holds": "verify.remark"},
    generators: {
        "bit_reversal": "generators.gen",
        "sep_block": "generators.gen",
        "separation_sequence": "generators.gen",
        "random_permutation": "generators.gen",
    },
}

# The PointSet sort and distinctness flags are computed lazily, on first
# use by whichever kernel comes first; these wrappers charge them to
# geometry instead.
CACHED = {
    "by_y": "geometry.sort",
    "has_distinct_y": "geometry.build",
    "has_distinct_x": "geometry.build",
}

# Layers whose call count is reported, under these metric names.
CALLS = {
    "geometry.transform": "geometry.transform_calls",
    "funnel.bound": "funnel.bound_calls",
    "funnel.point": "funnel.point_calls",
    "zrect.count": "zrect.calls",
    "alternation.alt": "alternation.alt_calls",
    "mixing.merge": "mixing.merge_calls",
}

# Work counters read off return values: function -> (metric, count in its result).
RESULT_COUNTS = {
    zrect.zrects: ("zrect.found", lambda r: r.count),
    sweep.sweep_add_up: ("sweep.added", lambda r: len(r.added)),
    sweep.sweep_add_down: ("sweep.added", lambda r: len(r.added)),
}


class Tracer:
    """Self time and call count per layer, from nested spans."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def wrap(self, fn, layer: str):
        counter = RESULT_COUNTS.get(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self.self_s[layer] += elapsed - frame[1]
                    self.calls[layer] += 1
                    if self._stack:
                        self._stack[-1][1] += elapsed
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("bstbounds")]
        for module, layers in TRACED.items():
            for name, layer in layers.items():
                original = getattr(module, name)
                wrapped = self.wrap(original, layer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        for name, layer in CACHED.items():
            prop = cached_property(self.wrap(geometry.PointSet.__dict__[name].func, layer))
            prop.__set_name__(geometry.PointSet, name)
            setattr(geometry.PointSet, name, prop)

    def metrics(self) -> dict[str, float]:
        layers = {layer for table in TRACED.values() for layer in table.values()}
        layers |= set(CACHED.values())
        out: dict[str, float] = {f"{layer}_s": self.self_s[layer] for layer in layers}
        out.update({metric: self.calls[layer] for layer, metric in CALLS.items()})
        out.update({metric: self.counts[metric] for metric, _ in RESULT_COUNTS.values()})
        return out


def main(spec: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    make_trace(tuple(spec["source"]), spec["seed"])
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    main_s = time.perf_counter() - start
    return {"metrics": tracer.metrics(), "main_s": main_s, "exit": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
