"""Spans around the library's public functions, recorded from outside.

Each traced function is replaced on the module attribute its caller looks
up (``bubbletree.pipeline.decorate`` for run_pipeline, ``bubbletree.bubbles.
reduce`` for the recursion inside associate_tree), so nested calls are seen.
A span is (name, start, end, parent span, op id, counters); spans stay in
memory while the workload runs and are written out at the end.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from bubbletree import bounds, bubbles, curves, jsonio, nets, pipeline, trees


def _base_size(space) -> int:
    return space.n if isinstance(space, nets.FiniteMetricSpace) else len(space)


# counters read at the span boundary: f(args, result) -> {counter: amount}
COUNTERS = {
    "curves.decorate": lambda a, r: {"points": len(r)},
    "curves.in_compact_subset": lambda a, r: {"checked": r.checked},
    "curves.check_map_membership": lambda a, r: {"pairs": r.lipschitz_pairs},
    "bubbles.associate_tree": lambda a, r: {
        "points": a[0].size, "vertices": len(r.tree.vertices)
    },
    "nets.greedy_net": lambda a, r: {"rows": r.size * _base_size(a[0])},
    "nets.sphere_net": lambda a, r: {"points": r.size},
    "jsonio.write_json": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "trees.enumerate_stable_rooted": lambda a, r: {"classes": len(r)},
}

BOUNDS_FNS = (
    "choose_lambda", "membership_scales", "decoration_budget",
    "total_cover_count", "total_cover_loglog", "curve_cover_count",
    "curve_cover_loglog", "sphere_net_bound", "mapspace_count",
)
CURVES_FNS = (
    "in_compact_subset", "fiber_discriminant", "decomposition", "classify",
    "check_map_membership", "fiber_from_root", "neck_param", "decorate",
)
JSONIO_FNS = (
    "write_json", "bubble_from_json", "constants_from_json", "association_to_json",
    "membership_to_json", "params_to_json", "decomposition_to_json", "fiber_point_to_json",
)


def _targets():
    """(module, attribute, span name) for every traced call site."""
    out = [(pipeline, "run_pipeline", "pipeline.run_pipeline")]
    # names run_pipeline imported from the layers below it
    for attr in ("associate_tree", "verify_association"):
        out.append((pipeline, attr, f"bubbles.{attr}"))
    for attr in ("in_compact_subset", "decomposition", "fiber_from_root", "classify", "decorate"):
        out.append((pipeline, attr, f"curves.{attr}"))
    out += [(pipeline, attr, f"bounds.{attr}") for attr in BOUNDS_FNS]
    for attr in ("associate_tree", "verify_association", "reduce", "reduce_at", "cluster_select"):
        out.append((bubbles, attr, f"bubbles.{attr}"))
    out.append((bubbles, "in_compact_subset", "curves.in_compact_subset"))
    out += [(curves, attr, f"curves.{attr}") for attr in CURVES_FNS]
    out += [(bounds, attr, f"bounds.{attr}") for attr in BOUNDS_FNS]
    out += [(jsonio, attr, f"jsonio.{attr}") for attr in JSONIO_FNS]
    out += [(nets, attr, f"nets.{attr}") for attr in ("greedy_net", "sphere_net", "mapspace_cover")]
    out.append((trees, "enumerate_stable_rooted", "trees.enumerate_stable_rooted"))
    return out


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in _targets():
            original = getattr(module, attr, None)
            if original is None:  # not imported there (or gone): nothing to trace
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        cls = nets.FiniteMetricSpace
        original = cls.__dict__["from_points"]
        self._saved.append((cls, "from_points", original))
        cls.from_points = classmethod(self._wrap(original.__func__, "nets.from_points"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "counters"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _exponent(xs, ys) -> float:
    """Least-squares slope of log y on log x; 0 when x takes one value."""
    if len(set(xs)) < 2:
        return 0.0
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per traced operation."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    fits: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for s, d, c in zip(spans, dur, child):
        name = s[0]
        self_s[name] += d - c
        calls[name] += 1
        for key, amount in (s[5] or {}).items():
            counts[f"{name}.{key}"] += amount
        if name in ("curves.decorate", "bubbles.associate_tree") and s[5]:
            fits[name][0].append(s[5]["points"])
            fits[name][1].append(d)

    per_op = 1.0 / max(ops, 1)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) * per_op

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "curves.decorate", "curves.classify", "curves.fiber_discriminant",
        "curves.check_map_membership", "curves.fiber_from_root",
        "curves.decomposition", "curves.in_compact_subset",
        "bubbles.cluster_select", "bubbles.reduce", "bubbles.associate_tree",
        "bubbles.verify_association", "nets.from_points", "nets.greedy_net",
        "nets.sphere_net", "nets.mapspace_cover", "jsonio.write_json",
        "jsonio.bubble_from_json", "trees.enumerate_stable_rooted",
    ):
        out[f"{name}.self_s"] = (self_s[name] * per_op, "s/op")
    for name in ("curves.decomposition", "bubbles.cluster_select", "bubbles.reduce",
                 "bubbles.reduce_at", "nets.from_points"):
        out[f"{name}.calls"] = (calls[name] * per_op, "1/op")
    for metric, key in (
        ("curves.decorate.points", "curves.decorate.points"),
        ("curves.check_map_membership.pairs", "curves.check_map_membership.pairs"),
        ("curves.in_compact_subset.checked", "curves.in_compact_subset.checked"),
        ("bubbles.points", "bubbles.associate_tree.points"),
        ("nets.greedy_net.rows", "nets.greedy_net.rows"),
        ("nets.sphere_net.points", "nets.sphere_net.points"),
        ("jsonio.write_json.bytes", "jsonio.write_json.bytes"),
        ("trees.classes", "trees.enumerate_stable_rooted.classes"),
    ):
        out[metric] = (counts[key] * per_op, "1/op")
    vertices = counts["bubbles.associate_tree.vertices"]
    out["bubbles.reduce_per_vertex"] = (
        calls["bubbles.reduce"] / vertices if vertices else 0.0, "ratio"
    )
    out["curves.decorate.exponent"] = (_exponent(*fits["curves.decorate"]), "1")
    out["bubbles.associate_tree.exponent"] = (_exponent(*fits["bubbles.associate_tree"]), "1")
    out["bounds.self_s"] = (layer_self("bounds."), "s/op")
    out["jsonio.self_s"] = (layer_self("jsonio."), "s/op")
    out["pipeline.self_s"] = (self_s["pipeline.run_pipeline"] * per_op, "s/op")
    counted = calls["bounds.total_cover_count"] + calls["bounds.curve_cover_count"]
    loglog = calls["bounds.total_cover_loglog"] + calls["bounds.curve_cover_loglog"]
    out["bounds.loglog_fallback_ratio"] = (loglog / counted if counted else 0.0, "ratio")
    return out
