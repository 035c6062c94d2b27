"""JSON serialization of the package's data types, plus SVG figures.

Formats are language-neutral and diff-friendly: complex numbers are
[re, im] pairs, mapping keys are strings ("v,e" for incident pairs), and
serialization is deterministic (sorted keys, fixed indentation), so equal
inputs produce byte-identical artifacts.  dumps is a small recursive emitter
that reproduces the standard json module's two-space indented output byte for
byte.  Parsers validate shapes and raise InputError on anything malformed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import stat
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .bounds import (
    DEFAULT_CONSTANTS,
    CurveCoverCount,
    GeometryConstants,
    LambdaChoice,
    LogNumber,
)
from .bubbles import AssociationReport, BubbleConfiguration, TreeAssociation
from .curves import (
    CompactnessParams,
    FiberBatch,
    MembershipReport,
    ModuliPoint,
    Region,
    ThickThinDecomposition,
)
from .errors import InputError
from .nets import FiberMap, FiniteMetricSpace
from .trees import Marking, RootedTree, Tree, TreeError

_quote = json.encoder.encode_basestring_ascii


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end.

    Writes exactly the bytes of json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\n", raising ValueError on non-finite floats and
    TypeError on other types as it does; with an indent that call runs the
    pure-Python encoder, which is slower than this one.  A FiberBatch is
    written as the list of its points, each the object {str(v): [[x.real,
    x.imag], [y.real, y.imag]]} over its vertices.  Containers must not
    contain themselves.
    """
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _float_text(o: float) -> str:
    if not math.isfinite(o):
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return float.__repr__(o)


def _key_text(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _emit(o: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of o; newline starts a line at o's indent.

    The isinstance tests run in the order of the standard json encoder.
    List items that are finite floats, the bulk of every artifact, and str
    keys skip the chain; their text is the one it would give.
    """
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for value in o:
            if type(value) is float and -math.inf < value < math.inf:
                out.append(sep + float.__repr__(value))
            else:
                out.append(sep)
                _emit(value, out, inner)
            sep = comma
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted(o.items()):
            text = key if type(key) is str else _key_text(key)
            out.append(sep + _quote(text) + ": ")
            sep = comma
            _emit(value, out, inner)
        out.append(newline + "}")
    elif isinstance(o, FiberBatch):
        _emit_batch(o, out, newline)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit_batch(batch: FiberBatch, out: list[str], newline: str) -> None:
    """Append what _emit gives the list of a batch's point objects, one
    piece per vertex entry: a template with a %r slot for each of x.real,
    x.imag, y.real and y.imag, filled from the batch's arrays.  Pieces stay
    a few hundred bytes: one string per row (about 1.5 kB) fragmented the
    heap, and a loop of a few thousand pipeline runs grew by 1 MB."""
    if not len(batch):
        out.append("[]")
        return
    row_in, key_in, pair_in, num_in = (newline + "  " * k for k in range(1, 5))
    verts = batch.vertices
    order = sorted(range(len(verts)), key=lambda col: str(verts[col]))
    slot = f"[{num_in}%r,{num_in}%r{pair_in}]"
    entries = [
        f"{key_in}{_quote(str(verts[col]))}: [{pair_in}{slot},{pair_in}{slot}{key_in}]"
        for col in order
    ]
    pieces = ["{" + entries[0], *("," + entry for entry in entries[1:])]
    pieces[-1] += row_in + "}"
    xs, ys = batch.xs[:, order], batch.ys[:, order]
    values = np.stack([xs.real, xs.imag, ys.real, ys.imag], axis=-1)
    finite = np.isfinite(values)
    if not finite.all():  # _float_text raises, naming the first such value
        _float_text(float(values.ravel()[finite.argmin()]))
    sep = "[" + row_in
    for row in values.tolist():
        out.append(sep)
        out.extend(piece % tuple(four) for piece, four in zip(pieces, row))
        sep = "," + row_in
    out.append(newline + "]")


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8: the one file writer of the package.

    A regular file is unlinked and created afresh, since truncating it in
    place costs far more on some file systems (ext4 with discard); one that
    cannot be unlinked is truncated.  A symlink, device or FIFO (say
    /dev/stdout) is written through.
    """
    path = Path(path)
    with contextlib.suppress(OSError):
        if stat.S_ISREG(path.lstat().st_mode):
            path.unlink()
    path.write_text(text, encoding="utf-8")


def write_json(path: str | Path, obj: Any) -> None:
    """Write dumps(obj) by write_text: a regular file is replaced, so the new
    file takes the umask mode and breaks any hard link to the old one."""
    write_text(path, dumps(obj))


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _reject_constant(token: str):
    # json.loads reads NaN, Infinity and -Infinity, which JSON does not have
    raise ValueError(f"{token} is not a JSON number")


def int_field(value: Any, where: str) -> int:
    """The one reader of integer fields: a JSON integer, or a float with an
    integral value; bools, strings and fractions raise InputError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{where} must be an integer, got {value!r}")


def number_field(value: Any, where: str) -> float:
    """The one reader of JSON numbers: an int or a float, as a float; bools
    and everything else raise InputError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{where} must be a number")
    return float(value)


def require_key(data: Mapping, key: str, kind: type, where: str) -> Any:
    if not isinstance(data, Mapping):
        raise InputError(f"{where} must be a JSON object")
    if key not in data:
        raise InputError(f"{where} is missing the key {key!r}")
    value = data[key]
    if kind is int:
        return int_field(value, f"{where}[{key!r}]")
    if kind is float:
        return number_field(value, f"{where}[{key!r}]")
    if not isinstance(value, kind):
        raise InputError(f"{where}[{key!r}] must be of type {kind.__name__}")
    return value


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(value: Any, where: str = "value") -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        raise InputError(f"{where} must be a [re, im] pair")
    return complex(float(value[0]), float(value[1]))


def _int_key(key: str, where: str) -> int:
    """An integer object key, spelled only as str(int) writes it.

    int() also reads "01", "1_0" and " 1 ", which would merge distinct keys
    (or renumber one); canonical keys map one to one onto integers.
    """
    try:
        value = int(key)
    except (TypeError, ValueError):
        value = None
    if value is None or str(value) != key:
        raise InputError(f"{where} key {key!r} is not a canonical integer")
    return value


def int_keyed(raw: Mapping, where: str, read) -> dict:
    """The one reader of integer-keyed objects: each key read by _int_key,
    each value by read(value, f"{where}[{key!r}]")."""
    return {_int_key(k, where): read(v, f"{where}[{k!r}]") for k, v in raw.items()}


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def tree_to_json(t: RootedTree, marking: Marking | None = None) -> dict:
    marked = (
        sorted(marking.marked)
        if marking is not None
        else sorted(e for e in t.half_edges if e != t.root_edge)
    )
    return {
        "vertices": list(t.vertices),
        "edges": [
            {"id": e, "endpoints": list(t.boundary[e])} for e in t.edges
        ],
        "root_edge": t.root_edge,
        "marked": marked,
    }


def tree_from_json(data: Any) -> tuple[RootedTree, Marking]:
    vertices = require_key(data, "vertices", list, "tree")
    edges = require_key(data, "edges", list, "tree")
    root_edge = require_key(data, "root_edge", int, "tree")
    boundary = {}
    for item in edges:
        e = require_key(item, "id", int, "tree edge")
        ends = require_key(item, "endpoints", list, "tree edge")
        if e in boundary:
            raise InputError(f"tree edge {e} appears twice")
        boundary[e] = tuple(int_field(v, f"tree edge {e} endpoint") for v in ends)
    marked = data.get("marked", []) if isinstance(data, Mapping) else []
    if not isinstance(marked, list):
        raise InputError("tree['marked'] must be a list")
    vertices = [int_field(v, "tree vertex") for v in vertices]
    marked = [int_field(e, "tree['marked'] entry") for e in marked]
    for what, ids in (("tree vertex", vertices), ("tree marked edge", marked)):
        if len(set(ids)) != len(ids):
            repeat = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise InputError(f"{what} {repeat} appears twice")
    try:
        rooted = RootedTree(Tree(vertices, boundary), root_edge)
        marking = Marking(frozenset(marked))
        marking.validate(rooted)
    except TreeError as exc:
        raise InputError(str(exc)) from exc
    return rooted, marking


# ---------------------------------------------------------------------------
# metric spaces
# ---------------------------------------------------------------------------


def space_from_json(data: Any) -> FiniteMetricSpace:
    n = require_key(data, "n", int, "metric space")
    dist = require_key(data, "dist", list, "metric space")
    if n < 1:
        raise InputError(f"metric space needs n >= 1 points, got n = {n}")
    if len(dist) != n or any(not isinstance(r, list) or len(r) != n for r in dist):
        raise InputError(f"metric space needs an {n} x {n} distance matrix")
    return FiniteMetricSpace(
        [
            [number_field(x, f"metric space dist[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(dist)
        ]
    )


def cover_from_json(data: Any) -> tuple[
    FiniteMetricSpace, FiniteMetricSpace, FiniteMetricSpace, list[FiberMap]
]:
    """A cover instance: the base, domain and codomain spaces under the keys
    space_t, space_z and space_w, and a nonempty 'members' list of objects
    {"t": base index, "fiber": domain indices, "values": codomain indices}."""
    if not isinstance(data, dict):
        raise InputError("cover instance must be a JSON object")
    spaces = []
    for key in ("space_t", "space_z", "space_w"):
        if key not in data:
            raise InputError(f"cover instance is missing {key!r}")
        spaces.append(space_from_json(data[key]))
    members_raw = data.get("members")
    if not isinstance(members_raw, list) or not members_raw:
        raise InputError("cover instance needs a nonempty 'members' list")
    members = []
    for item in members_raw:
        fiber = require_key(item, "fiber", list, "cover member")
        values = require_key(item, "values", list, "cover member")
        members.append(
            FiberMap(
                t=require_key(item, "t", int, "cover member"),
                fiber=[int_field(i, "cover member fiber entry") for i in fiber],
                values=[int_field(i, "cover member value") for i in values],
            )
        )
    return (*spaces, members)


# ---------------------------------------------------------------------------
# moduli points and compact-subset parameters
# ---------------------------------------------------------------------------


def moduli_to_json(p: ModuliPoint) -> dict:
    return {
        "tree": tree_to_json(p.tree),
        "gamma": {str(e): complex_to_json(c) for e, c in sorted(p.gamma.items())},
        "zr": {
            f"{v},{e}": {
                "z": complex_to_json(z),
                "rho": complex_to_json(r),
            }
            for (v, e), (z, r) in sorted(p.zr.items())
        },
    }


def moduli_from_json(data: Any) -> ModuliPoint:
    tree, _ = tree_from_json(require_key(data, "tree", dict, "moduli point"))
    gamma_raw = require_key(data, "gamma", dict, "moduli point")
    zr_raw = require_key(data, "zr", dict, "moduli point")
    gamma = int_keyed(gamma_raw, "gamma", complex_from_json)
    zr = {}
    for key, item in zr_raw.items():
        parts = str(key).split(",")
        if len(parts) != 2:
            raise InputError(f"zr key {key!r} is not of the form 'v,e'")
        pair = tuple(_int_key(part, f"zr[{key!r}]") for part in parts)
        zr[pair] = (
            complex_from_json(require_key(item, "z", list, f"zr[{key!r}]"), "z"),
            complex_from_json(require_key(item, "rho", list, f"zr[{key!r}]"), "rho"),
        )
    return ModuliPoint(tree, gamma, zr)


def params_to_json(c: CompactnessParams) -> dict:
    return {
        "theta": c.theta,
        "tau": c.tau,
        "alpha": {str(v): a for v, a in sorted(c.alpha.items())},
    }


def params_from_json(data: Any) -> CompactnessParams:
    theta = require_key(data, "theta", float, "params")
    tau = require_key(data, "tau", float, "params")
    alpha = int_keyed(require_key(data, "alpha", dict, "params"), "alpha", number_field)
    return CompactnessParams(theta=theta, tau=tau, alpha=alpha)


def constants_to_json(g: GeometryConstants) -> dict:
    return dataclasses.asdict(g)


def constants_from_json(data: Any) -> GeometryConstants:
    """Geometry constants from a possibly partial JSON object.

    Missing fields take the default profile's values; unknown fields are
    rejected.
    """
    if data is None:
        return DEFAULT_CONSTANTS
    if not isinstance(data, Mapping):
        raise InputError("constants must be a JSON object")
    known = dataclasses.asdict(DEFAULT_CONSTANTS)
    for key, value in data.items():
        if key not in known:
            raise InputError(f"unknown constant {key!r}")
        if key == "dim_half":
            known[key] = int_field(value, f"constant {key!r}")
            continue
        known[key] = number_field(value, f"constant {key!r}")
    return GeometryConstants(**known)


# ---------------------------------------------------------------------------
# bubble configurations and tree associations
# ---------------------------------------------------------------------------


def bubble_to_json(cfg: BubbleConfiguration, eps: float) -> dict:
    return {
        "eps": eps,
        "points": [
            {"z": complex_to_json(z), "rho": cfg.radius[z]} for z in cfg.points
        ],
    }


def bubble_from_json(data: Any) -> tuple[BubbleConfiguration, float]:
    eps = require_key(data, "eps", float, "bubble configuration")
    items = require_key(data, "points", list, "bubble configuration")
    radius = {}
    for item in items:
        z = complex_from_json(require_key(item, "z", list, "bubble point"), "z")
        rho = require_key(item, "rho", float, "bubble point")
        if z in radius:
            raise InputError(f"bubble point {z} appears twice")
        radius[z] = rho
    return BubbleConfiguration(tuple(radius), radius), eps


def association_to_json(assoc: TreeAssociation) -> dict:
    return {
        "point": moduli_to_json(assoc.point),
        "root_vertex": assoc.root_vertex,
        "edge_to_bubble": {
            str(e): complex_to_json(z)
            for e, z in sorted(assoc.edge_to_bubble.items())
        },
    }


def association_from_json(data: Any) -> TreeAssociation:
    point = moduli_from_json(require_key(data, "point", dict, "association"))
    root_vertex = require_key(data, "root_vertex", int, "association")
    raw = require_key(data, "edge_to_bubble", dict, "association")
    edge_to_bubble = int_keyed(raw, "edge_to_bubble", complex_from_json)
    return TreeAssociation(point.tree, point, root_vertex, edge_to_bubble)


# ---------------------------------------------------------------------------
# reports and decompositions (artifact output only)
# ---------------------------------------------------------------------------


def membership_to_json(report: MembershipReport) -> dict:
    return {
        "ok": report.ok,
        "first_violation": report.first_violation,
        "checked": report.checked,
    }


def verification_to_json(report: AssociationReport) -> dict:
    return {
        "ok": report.ok,
        "summary": report.summary(),
        "membership": membership_to_json(report.membership),
        "position_errors": list(report.position_errors),
        "gamma_errors": list(report.gamma_errors),
    }


def lambda_to_json(choice: LambdaChoice) -> dict:
    return {
        "value": choice.value,
        "binding": choice.binding,
        "decay_bound": choice.decay_bound,
        "quantum_bound": choice.quantum_bound,
    }


def decoration_to_json(m: int, points: FiberBatch) -> dict:
    return {"m": m, "count": len(points), "points": points}


def region_to_json(r: Region) -> dict:
    return {"kind": r.kind, "vertex": r.vertex, "edge": r.edge}


def decomposition_to_json(dec: ThickThinDecomposition) -> dict:
    return {
        "point": moduli_to_json(dec.point),
        "params": params_to_json(dec.params),
        "circles": {
            f"{v},{e}": {"center": complex_to_json(z), "radius": r}
            for (v, e), (z, r) in sorted(dec.circles.items())
        },
        "regions": [region_to_json(r) for r in dec.regions],
    }


def _log10_pair(n: LogNumber) -> tuple[float | None, float | None]:
    """(log10 N, None) while log10 N fits a double, else (None, log10 log10 N)."""
    return (n.log10, None) if n.level == 1 else (None, n.loglog10)


def total_cover_to_json(m: int, log_lip: float, total: LogNumber) -> dict:
    log10n, loglog = _log10_pair(total)
    return {"m": m, "logLambda": log_lip, "log10N": log10n, "log10_log10N": loglog}


def curve_cover_to_json(mu: int, curve: CurveCoverCount) -> dict:
    log10_total, loglog = _log10_pair(curve.total)
    return {
        "mu": mu,
        "regions": curve.regions,
        "log10_total": log10_total,
        "log10_log10_total": loglog,
        "log_cells": curve.log_cells,
        "log_patch_net": curve.log_patch_net,
    }


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

SVG_NS = "http://www.w3.org/2000/svg"

_DISC_R = 110.0
_DISC_GAP = 70.0
_MARGIN = 45.0

# display floors so deep scales stay visible
_MIN_CIRCLE_PX = 0.75
_MIN_RING_PX = 0.5


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _circle_el(parent, cls, cx, cy, r, **extra):
    attrs = {"class": cls, "cx": _fmt(cx), "cy": _fmt(cy), "r": _fmt(r)}
    attrs.update(extra)
    return ET.SubElement(parent, "circle", attrs)


def _text_el(parent, cls, x, y, content):
    el = ET.SubElement(
        parent,
        "text",
        {"class": cls, "x": _fmt(x), "y": _fmt(y), "font-size": "12"},
    )
    el.text = content
    return el


def decomposition_svg(dec: ThickThinDecomposition) -> str:
    """SVG text for a decomposition: one unit disc per vertex in root-first
    DFS order, child circles, neck annuli with gluing labels, shaded ends."""
    t = dec.point.tree
    order = t.order
    slot = {v: i for i, v in enumerate(order)}
    width = 2 * _MARGIN + len(order) * 2 * _DISC_R + (len(order) - 1) * _DISC_GAP
    height = 2 * _MARGIN + 2 * _DISC_R + 30.0
    cy = _MARGIN + 30.0 + _DISC_R

    def center(v: int) -> tuple[float, float]:
        return _MARGIN + _DISC_R + slot[v] * (2 * _DISC_R + _DISC_GAP), cy

    svg = ET.Element(
        "svg",
        {
            "xmlns": SVG_NS,
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
        },
    )

    # shaded ends first so outlines stay visible on top
    rx, ry = center(t.root_vertex)
    _circle_el(
        svg,
        "end end-root",
        rx,
        ry,
        1.06 * _DISC_R,
        fill="none",
        stroke="#e4e4e4",
        **{"stroke-width": _fmt(0.12 * _DISC_R)},
    )
    for e in t.half_edges:
        if e == t.root_edge:
            continue
        u = t.e_minus[e]
        z, r = dec.circles[(u, e)]
        ux, uy = center(u)
        _circle_el(
            svg,
            "end",
            ux + _DISC_R * z.real,
            uy + _DISC_R * z.imag,
            max(_DISC_R * r, _MIN_CIRCLE_PX),
            fill="#ededed",
            stroke="none",
        )

    for e in t.full_edges:
        u = t.e_minus[e]
        z, r = dec.circles[(u, e)]
        ux, uy = center(u)
        ccx, ccy = ux + _DISC_R * z.real, uy + _DISC_R * z.imag
        outer = max(_DISC_R * r, _MIN_CIRCLE_PX)
        inner = outer * abs(dec.point.gamma_of(e))
        _circle_el(
            svg,
            "neck",
            ccx,
            ccy,
            (outer + inner) / 2.0,
            fill="none",
            stroke="#b9cbe7",
            opacity="0.9",
            **{"stroke-width": _fmt(max(outer - inner, _MIN_RING_PX))},
        )
        wx, wy = center(t.e_plus[e])
        ET.SubElement(
            svg,
            "line",
            {
                "class": "neck-link",
                "x1": _fmt(ccx),
                "y1": _fmt(ccy),
                "x2": _fmt(wx),
                "y2": _fmt(wy - _DISC_R),
                "stroke": "#b9cbe7",
                "stroke-dasharray": "4 3",
            },
        )
        _text_el(
            svg,
            "neck-label",
            ccx,
            ccy - outer - 6.0,
            f"e{e}: |gamma| = {abs(dec.point.gamma_of(e)):.4g}",
        )

    for v in order:
        vx, vy = center(v)
        _circle_el(
            svg,
            "vertex-disc",
            vx,
            vy,
            _DISC_R,
            fill="none",
            stroke="#333333",
            **{"stroke-width": "1.5"},
        )
        _text_el(svg, "vertex-label", vx - 8.0, vy - _DISC_R - 10.0, f"v{v}")

    for v, e in t.coordinate_pairs():
        z, r = dec.circles[(v, e)]
        vx, vy = center(v)
        _circle_el(
            svg,
            "child-circle",
            vx + _DISC_R * z.real,
            vy + _DISC_R * z.imag,
            max(_DISC_R * r, _MIN_CIRCLE_PX),
            fill="none",
            stroke="#555555",
        )

    ET.indent(svg, space="  ")
    return ET.tostring(svg, encoding="unicode") + "\n"
