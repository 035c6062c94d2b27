"""Families of nodal genus-0 curves modeled on rooted trees.

A rooted tree T determines a family of curves over a coordinate space: one
complex gluing coordinate gamma_e per full edge, and one pair (z_{v,e},
rho_{v,e}) of disc coordinates per vertex v and child edge e.  Each curve in
the family carries one projective line per vertex, glued along full edges by
the homogeneous equation

    (x_u - z_{u,e} y_u) y_v = gamma_e rho_{u,e} x_v y_u      (u = e-, v = e+).

This module implements evaluation on fibers (propagation of coordinates from
any single chart), the discriminant whose nonvanishing marks smooth gluing
data, sections at external edges, splitting along degenerate (gamma = 0)
edges into smooth sub-curves joined at nodes, the embedding of a fiber into a
product of spheres indexed by incident (vertex, edge) pairs, a compact-subset
membership test with a per-inequality report, the thick-thin decomposition of
member fibers with region metrics, constructive short paths across necks with
certified length bounds, the four-marked-point invariant of nodal fibers, the
decoration scheme that adds circle-anchored points, and a sampled membership
verdict for maps out of a fiber.

Conventions: projective coordinates are stored normalized (one slot exactly
1.0, the other of modulus at most 1); closed inequalities are tested with a
relative slack of 1e-12; fiber residuals must stay below 1e-9.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ResourceCapError, VerificationError
from .nets import (
    TIE_RTOL,
    FiniteMetricSpace,
    ProjPoint,
    _complex,
    _normal,
    hopf_units,
    sphere_coords,
    sphere_distance,
    sphere_distances,
)
from .trees import (
    Marking,
    RootedTree,
    SplitPiece,
    diverging_pairs,
    positive_path,
    split,
)

RESIDUAL_TOL = 1e-9
EQ_SLACK = 1e-12

# the three reference points used for anchoring and for four-point values
UNIT_TARGETS = (
    ProjPoint(1.0, 1.0),
    ProjPoint(cmath.exp(2j * math.pi / 3), 1.0),
    ProjPoint(cmath.exp(-2j * math.pi / 3), 1.0),
)


def _leq(a: float, b: float) -> bool:
    """Closed inequality a <= b with slack relative to the larger modulus,
    so the comparison means the same at every scale."""
    return a <= b + EQ_SLACK * max(abs(a), abs(b))


def _leq_array(a, b) -> np.ndarray:
    """_leq elementwise on broadcast float arrays, bit for bit the same
    verdicts.  Moduli of complex values must come from np.hypot of the
    parts, which matches scalar abs exactly (np.abs on complex does not)."""
    return a <= b + EQ_SLACK * np.maximum(np.abs(a), np.abs(b))


def _first_false(ok: np.ndarray) -> int | None:
    """Index of the first False entry of a flat boolean array, else None."""
    return None if ok.all() else int(ok.argmin())


def _moduli(values: np.ndarray) -> np.ndarray:
    """abs of each complex entry, bit for bit."""
    return np.hypot(values.real, values.imag)


# ---------------------------------------------------------------------------
# coordinate data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModuliPoint:
    """A point of the coordinate space of the family over a rooted tree.

    gamma maps every full edge to its gluing coordinate; zr maps every pair
    (v, e) with e a child edge of v to the pair (z_{v,e}, rho_{v,e}).  Index
    sets must match the tree exactly, and every coordinate must be finite.
    """

    tree: RootedTree
    gamma: Mapping[int, complex]
    zr: Mapping[tuple[int, int], tuple[complex, complex]]
    # (params, passing report, checked decomposition or None) of the last
    # params this point passed the membership check for
    _member: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        g = {int(e): complex(c) for e, c in self.gamma.items()}
        pairs = {
            (int(v), int(e)): (complex(z), complex(r))
            for (v, e), (z, r) in self.zr.items()
        }
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "zr", pairs)
        if set(g) != set(self.tree.full_edges):
            raise InputError("gamma keys must be exactly the full edges")
        if set(pairs) != set(self.tree.coordinate_pairs()):
            raise InputError("zr keys must be exactly the (vertex, child edge) pairs")
        for e, c in g.items():
            if not cmath.isfinite(c):
                raise InputError(f"gamma[{e}] = {c} is not finite")
        for (v, e), zr in pairs.items():
            for name, c in zip(("z", "rho"), zr):
                if not cmath.isfinite(c):
                    raise InputError(f"{name}[{v},{e}] = {c} is not finite")

    def z(self, v: int, e: int) -> complex:
        return self.zr[(v, e)][0]

    def rho(self, v: int, e: int) -> complex:
        return self.zr[(v, e)][1]

    def disc(self, v: int, e: int) -> tuple[complex, complex]:
        """(z, rho) of the disc of the incident pair (v, e): the unit disc
        (0, 1) at v = e+, else zr[(v, e)]."""
        return (0j, 1 + 0j) if self.tree.e_plus[e] == v else self.zr[(v, e)]

    def gamma_of(self, e: int) -> complex:
        return self.gamma[e]


def chart_positions(p: ModuliPoint, u: int) -> dict[tuple[int, int], complex]:
    """Position of the disc at (v, e) as seen in the chart of the ancestor
    u, for every pair (v, e) at or below u.

    A position telescopes z down the positive path from u to v: each step
    contributes its own disc center, scaled by the product of gamma * rho
    factors of the edges already traversed, so with v = u it is just
    z_{u,e}.  One descent carries each path's running sum and prefix
    product: the sum of prefix * z(w, step) over the path from u to v, then
    prefix * z(v, e), where prefix multiplies in gamma * rho of each edge
    passed, in path order."""
    t = p.tree
    out = {}
    stack = [(u, 0.0 + 0.0j, 1.0 + 0.0j)]
    while stack:
        w, total, prefix = stack.pop()
        for e in t.children[w]:
            out[(w, e)] = here = total + prefix * p.z(w, e)
            if t.e_plus[e] is not None:
                step = p.gamma_of(e) * p.rho(w, e)
                stack.append((t.e_plus[e], here, prefix * step))
    return out


def position_gaps(p: ModuliPoint):
    """Pairwise chart-position differences entering the discriminant.

    Yields (u, (v, e), (v', e'), difference) over unordered pairs of
    non-root edges, with u their nearest common ancestor.  Pairs that hang
    below u through one shared child edge are skipped: their difference
    carries that edge's gluing factor, so it vanishes on nodal fibers and
    says nothing about the gluing data being degenerate.  The pairs are the
    tree's diverging_pairs, found once per tree.  The positions are one
    (|V|, pairs) table, row k the chart_positions descent from vertex k,
    and the differences one fancy-index subtraction on it, which rounds as
    the scalar one does.
    """
    t = p.tree
    coords = t.coordinate_pairs()
    rows = [chart_positions(p, u) for u in t.vertices]
    table = np.array([[row.get(q, 0j) for q in coords] for row in rows])
    k, i, j = diverging_pairs(t).T
    gaps = (table[k, i] - table[k, j]).tolist()
    us = [t.vertices[n] for n in k.tolist()]
    yield from zip(us, [coords[n] for n in i.tolist()], [coords[n] for n in j.tolist()], gaps)


def fiber_discriminant(p: ModuliPoint) -> complex:
    """Product of the diverging-pair chart-position gaps and all full-edge rho.

    The exact product is nonzero exactly when the fiber is a reduced nodal
    curve with distinct special points.  This one is a double, so a nonzero
    value proves every factor nonzero, but a zero proves nothing on deep
    trees: on members of chains with two leaves per vertex it falls about
    45 decades per vertex, to 1e-236 to 1e-249 at 10 vertices, and it
    underflows to exactly 0.0 from 12 (ROADMAP item 1b).

    Cost: one chart_positions descent per vertex, O(|V| depth) in all, and
    one subtraction over the diverging pairs (position_gaps); the gaps are
    then multiplied in pair order by math.prod, with no Python loop.
    """
    out = math.prod(map(operator.itemgetter(3), position_gaps(p)), start=1.0 + 0.0j)
    for e in p.tree.full_edges:
        out *= p.rho(p.tree.e_minus[e], e)
    return out


# ---------------------------------------------------------------------------
# compact-subset membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactnessParams:
    """Scales for the compact subset: disc radius theta, gluing bound tau,
    and a lower radius alpha_v per vertex.

    Requires 0 < tau <= 1/2 and 0 < alpha_v <= theta <= 1/6.
    """

    theta: float
    tau: float
    alpha: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "alpha", dict(self.alpha))
        if not 0.0 < self.tau <= 0.5:
            raise InputError("tau must lie in (0, 1/2]")
        if not 0.0 < self.theta <= 1.0 / 6.0:
            raise InputError("theta must lie in (0, 1/6]")
        for v, a in self.alpha.items():
            if not 0.0 < a <= self.theta:
                raise InputError(f"alpha[{v}] must lie in (0, theta]")

    def alpha_of(self, v: int) -> float:
        if v not in self.alpha:
            raise InputError(f"alpha missing for vertex {v}")
        return self.alpha[v]


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the four defining inequalities, with the first violation."""

    ok: bool
    first_violation: str | None
    checked: int

    def __bool__(self) -> bool:  # pragma: no cover
        return self.ok


def in_compact_subset(p: ModuliPoint, c: CompactnessParams) -> MembershipReport:
    """Check the defining inequalities of the compact subset.

    In order: |z_{v,e}| <= theta; alpha_v <= |rho_{v,e}| <= 2 theta; the
    sibling-separation bound |rho_{v,e}| + |rho_{v,e'}| <= tau |z_{v,e} -
    z_{v,e'}|; and |gamma_e| <= tau.  Closed inequalities carry 1e-12
    relative slack.  Reports the first violated inequality.  Each block is
    one array comparison over all its inequalities; the first offender's
    message is built from the scalar values.
    """
    t = p.tree
    theta, tau = float(c.theta), float(c.tau)
    pairs = t.coordinate_pairs()
    n = len(pairs)
    zr = [p.zr[q] for q in pairs]
    z = np.array([zc for zc, _ in zr], dtype=complex)
    rmod = _moduli(np.array([r for _, r in zr], dtype=complex))

    i = _first_false(_leq_array(_moduli(z), theta))
    if i is not None:
        v, e = pairs[i]
        return MembershipReport(
            False, f"|z[{v},{e}]| = {abs(p.z(v, e))} > theta = {c.theta}", i + 1
        )
    # a vertex without alpha fails here, and alpha_of raises for it below
    alpha = np.array([c.alpha.get(v, math.nan) for v, _ in pairs])
    i = _first_false(_leq_array(alpha, rmod) & _leq_array(rmod, 2.0 * theta))
    if i is not None:
        v, e = pairs[i]
        r = abs(p.rho(v, e))
        if not _leq(c.alpha_of(v), r):
            return MembershipReport(
                False, f"|rho[{v},{e}]| = {r} < alpha[{v}] = {c.alpha_of(v)}", n + i + 1
            )
        return MembershipReport(
            False, f"|rho[{v},{e}]| = {r} > 2 theta = {2 * c.theta}", n + i + 1
        )
    # sibling pairs of every vertex at once: pairs is sorted by (v, e), so
    # the row-major upper triangle lists them in ascending v, then (e, f)
    vs = np.array([v for v, _ in pairs])
    a, b = np.nonzero(np.triu(vs[:, None] == vs, 1))
    sep = _leq_array(rmod[a] + rmod[b], tau * _moduli(z[a] - z[b]))
    i = _first_false(sep)
    if i is not None:
        (v, e), (_, f) = pairs[a[i]], pairs[b[i]]
        lhs = abs(p.rho(v, e)) + abs(p.rho(v, f))
        rhs = c.tau * abs(p.z(v, e) - p.z(v, f))
        return MembershipReport(
            False,
            f"|rho[{v},{e}]| + |rho[{v},{f}]| = {lhs} > "
            f"tau |z[{v},{e}] - z[{v},{f}]| = {rhs}",
            2 * n + i + 1,
        )
    full = t.full_edges
    gmod = _moduli(np.array([p.gamma[e] for e in full], dtype=complex))
    i = _first_false(_leq_array(gmod, tau))
    if i is not None:
        e = full[i]
        return MembershipReport(
            False,
            f"|gamma[{e}]| = {abs(p.gamma_of(e))} > tau = {c.tau}",
            2 * n + len(sep) + i + 1,
        )
    report = MembershipReport(True, None, 2 * n + len(sep) + len(full))
    if p._member is None or p._member[0] != c:
        object.__setattr__(p, "_member", (c, report, None))
    return report


def _membership(p: ModuliPoint, c: CompactnessParams) -> MembershipReport:
    """in_compact_subset(p, c), read from p for params equal to the kept
    ones; a passing report leaves params equal to c kept on p."""
    kept = p._member
    if kept is not None and kept[0] == c:
        return kept[1]
    return in_compact_subset(p, c)


# ---------------------------------------------------------------------------
# fiber points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """A point of one curve of the family: one projective point per vertex.

    Its coordinates are normalized once, when it is built: here from the
    given coordinates, or by a builder that proves it made them normalized
    (_certified)."""

    coords: Mapping[int, ProjPoint]

    def __post_init__(self):
        coords = {int(v): pt.normalized() for v, pt in self.coords.items()}
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _certified(cls, coords: dict[int, ProjPoint]) -> "FiberPoint":
        """The point of the given coordinates, int keys and normalized
        ProjPoints as its caller has proved, kept as they are."""
        q = object.__new__(cls)
        object.__setattr__(q, "coords", coords)
        return q

    def at(self, v: int) -> ProjPoint:
        """The coordinate at v; InputError if the point has none there, as a
        point of another tree may not."""
        try:
            return self.coords[v]
        except KeyError:
            raise InputError(f"fiber point has no coordinate at vertex {v}") from None

    def affine(self, v: int) -> complex | None:
        """Chart value at v, or None for the point at infinity."""
        pt = self.at(v)
        return None if pt.y == 0 else pt.x / pt.y


@dataclass(frozen=True, eq=False)
class FiberBatch:
    """N points of one fiber held as arrays.

    xs and ys are complex (N, |V|) arrays of the normalized coordinates a
    FiberPoint stores, one column per vertex in the order of vertices (the
    sorted vertex tuple).  len gives N; indexing, and so iterating, gives
    each row as a FiberPoint, and a slice gives a FiberBatch of its rows.
    """

    vertices: tuple[int, ...]
    xs: np.ndarray
    ys: np.ndarray

    @classmethod
    def of(cls, t: RootedTree, points: Sequence[FiberPoint]) -> "FiberBatch":
        """The given points of a fiber over the tree t, as a batch.  A point
        missing a vertex of t, or with one t lacks, raises InputError."""
        pts = [q.at(v) for q in points for v in t.vertices]
        for q in points:
            if len(q.coords) != len(t.vertices):
                _reject_extra_vertex(t, q)
        shape = (len(points), len(t.vertices))
        xs = np.array([a.x for a in pts], dtype=complex).reshape(shape)
        ys = np.array([a.y for a in pts], dtype=complex).reshape(shape)
        return cls(t.vertices, xs, ys)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i):
        """Row i as a FiberPoint, or a slice as a FiberBatch.

        Certificate: the row already holds what FiberPoint stores, so it is
        set as it is (normalizing it once more could flip the sign of a
        zero).  Each pair is a normalized coordinate, one slot exactly 1, as
        the class docstring requires: every batch is built from FiberPoints
        (of), by _fiber_batch, whose _normalize divides as
        ProjPoint.normalized does, or from rows of those (a slice, or
        decorate's marked points, anchors and ring points).  tolist gives
        complex slots from the complex arrays, and the vertices are ints.
        """
        if isinstance(i, slice):
            return FiberBatch(self.vertices, self.xs[i], self.ys[i])
        row = zip(self.vertices, self.xs[i].tolist(), self.ys[i].tolist())
        return FiberPoint._certified({v: ProjPoint._certified(a, b) for v, a, b in row})


def _reject_extra_vertex(t: RootedTree, q: FiberPoint) -> None:
    """InputError naming the least vertex of q that t lacks, if any."""
    extra = set(q.coords).difference(t.vertices)
    if extra:
        raise InputError(
            f"fiber point has a coordinate at vertex {min(extra)}, which the tree lacks"
        )


def fiber_residual(p: ModuliPoint, q: FiberPoint) -> float:
    """Largest relative defect of the gluing equations at q; NaN if q has
    a NaN coordinate or a defect is NaN."""
    if set(q.coords) != set(p.tree.vertices):
        raise InputError("fiber point must carry one coordinate per vertex")
    if any(cmath.isnan(a.x) or cmath.isnan(a.y) for a in q.coords.values()):
        return math.nan
    worst = 0.0
    for e in p.tree.full_edges:
        u, v = p.tree.e_minus[e], p.tree.e_plus[e]
        a, b = q.at(u), q.at(v)
        lhs = (a.x - p.z(u, e) * a.y) * b.y
        rhs = p.gamma_of(e) * p.rho(u, e) * b.x * a.y
        den = max(1.0, abs(lhs), abs(rhs))
        defect = abs(lhs - rhs) / den
        if math.isnan(defect):
            return defect
        worst = max(worst, defect)
    return worst


def _require_on_fiber(p: ModuliPoint, q: FiberPoint) -> None:
    """VerificationError unless the residual of q is at most RESIDUAL_TOL,
    which a NaN residual is not."""
    res = fiber_residual(p, q)
    if not res <= RESIDUAL_TOL:
        raise VerificationError(f"point is off the fiber: residual {res}")


def _node_error(t: RootedTree, w: int) -> VerificationError:
    """The coordinate at the parent of w sits at the node of w's parent edge."""
    e = t.parent_edge[w]
    u = t.e_minus[e]
    return VerificationError(
        f"coordinate at vertex {u} sits at the node of edge {e}; "
        "the child chart value is ambiguous"
    )


def _child_coord(p: ModuliPoint, parent: ProjPoint, u: int, e: int) -> ProjPoint:
    """Coordinate at e+ induced by the parent coordinate through edge e."""
    num = parent.x - p.z(u, e) * parent.y
    den = p.gamma_of(e) * p.rho(u, e) * parent.y
    if num == 0 and den == 0:
        raise _node_error(p.tree, p.tree.e_plus[e])
    return _normal(num, den)


def _parent_coord(p: ModuliPoint, child: ProjPoint, u: int, e: int) -> ProjPoint:
    """Coordinate at e- induced by the child coordinate through edge e."""
    num = p.z(u, e) * child.y + p.gamma_of(e) * p.rho(u, e) * child.x
    den = child.y
    if num == 0 and den == 0:
        # degenerate edge with the child at infinity: the whole child
        # component sits over the node
        return _normal(p.z(u, e), 1 + 0j)
    return _normal(num, den)


def _complete(p: ModuliPoint, coords: dict[int, ProjPoint], v: int) -> FiberPoint:
    """The fiber point through the given coordinates, v among them: the
    others are propagated up the parent chain of v, then down every branch
    still missing.  The given coordinates must be normalized, and each one
    is normalized once: by its caller for those given, by _parent_coord or
    _child_coord for the rest.

    Certificate: every coordinate is a ProjPoint of _normal, so normalized:
    the callers (_fiber_through, section, neck_param) build the given ones
    by _normal, and each propagated one is the _normal that _parent_coord
    or _child_coord returns.  The keys are the tree's int vertices, and each
    is set once, since the walks skip the vertices already set.
    """
    t = p.tree
    while v != t.root_vertex:
        e = t.parent_edge[v]
        u = t.e_minus[e]
        coords[u] = _parent_coord(p, coords[v], u, e)
        v = u
    for w in t.order:
        if w not in coords:
            e = t.parent_edge[w]
            u = t.e_minus[e]
            coords[w] = _child_coord(p, coords[u], u, e)
    return FiberPoint._certified(coords)


def _fiber_through(p: ModuliPoint, v: int, coord: ProjPoint) -> FiberPoint:
    """The fiber point whose chart value at v is the given coordinate.

    Propagates up the parent chain of v and then down all other branches.
    Tolerates degenerate edges away from nodes; raises when the requested
    value sits at a node, where the chart no longer determines the point.
    """
    return _complete(p, {v: coord.normalized()}, v)


# _fiber_through on a batch of points.  Coordinates are complex arrays, but
# each step works on their real and imaginary parts, repeating CPython's
# complex arithmetic operation by operation, so every value is bit-identical
# to the scalar one, sign of zero included; numpy's complex division and abs
# round differently.


def _cmul(a, b) -> np.ndarray:
    """CPython's complex product."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b) -> np.ndarray:
    """CPython's complex quotient: Smith's method, by the larger part of b."""
    by_re = np.abs(b.real) >= np.abs(b.imag)
    big = np.where(by_re, b.real, b.imag)
    small = np.where(by_re, b.imag, b.real)
    ratio = small / big
    denom = big + small * ratio
    ar_r, ai_r = a.real * ratio, a.imag * ratio
    re = np.where(by_re, a.real, ar_r) + np.where(by_re, ai_r, a.imag)
    im = np.where(by_re, a.imag, ai_r) - np.where(by_re, ar_r, a.real)
    return _complex(re / denom, im / denom)


def _normalize(x: np.ndarray, y: np.ndarray):
    """ProjPoint.normalized: divide by the coordinate of larger modulus,
    y on a tie within TIE_RTOL (abs is hypot); [0 : 0] is not allowed."""
    y_big = np.hypot(y.real, y.imag) >= np.hypot(x.real, x.imag) * (1.0 - TIE_RTOL)
    q = _cdiv(np.where(y_big, x, y), np.where(y_big, y, x))
    return np.where(y_big, q, 1.0), np.where(y_big, 1.0, q)


def _fiber_batch(p: ModuliPoint, src, x: np.ndarray, y: np.ndarray):
    """_fiber_through for N points: row i has chart coordinates
    [x[i] : y[i]] at vertex src[i] (an int src applies to every row).

    An up pass visits the vertices in reverse preorder and lifts each row
    from its source to the root by _parent_coord's arithmetic; a down pass
    visits them in preorder and fills each row's other vertices by
    _child_coord's.  At each vertex only the rows that take the step there
    are computed, each through the operations of its own _fiber_through,
    so every value is bit-identical to the scalar one.

    Returns the points as a FiberBatch, and per point the vertex whose
    coordinate _child_coord rejects at a node (where _fiber_through raises),
    or -1.  A rejected point's later coordinates are meaningless.
    """
    t = p.tree
    n = len(x)
    src = np.broadcast_to(src, n)
    # one row of coordinates per vertex, in the order of vertices, each
    # starting as the normalized start: every row keeps it at its source
    cols_x, cols_y = (np.tile(a, (len(t.vertices), 1)) for a in _normalize(x, y))
    xs, ys = dict(zip(t.vertices, cols_x)), dict(zip(t.vertices, cols_y))
    known = {w: [np.flatnonzero(src == w)] for w in t.vertices}
    # up: the rows known at w, those whose source lies in its subtree, are
    # lifted to w's parent
    for w in reversed(t.order[1:]):
        rows = known[w] = np.concatenate(known[w])
        e = t.parent_edge[w]
        u = t.e_minus[e]
        z, gr = p.z(u, e), p.gamma_of(e) * p.rho(u, e)
        cx, cy = xs[w][rows], ys[w][rows]
        num = _cmul(z, cy) + _cmul(gr, cx)
        hit = (num == 0) & (cy == 0)
        xs[u][rows], ys[u][rows] = _normalize(np.where(hit, z, num), np.where(hit, 1.0, cy))
        known[u].append(rows)
    # down: every other row of w comes from w's parent
    node = np.full(n, -1)
    for w in t.order[1:]:
        need = np.ones(n, dtype=bool)
        need[known[w]] = False
        rows = np.flatnonzero(need)
        e = t.parent_edge[w]
        u = t.e_minus[e]
        px, py = xs[u][rows], ys[u][rows]
        num = px - _cmul(p.z(u, e), py)
        den = _cmul(p.gamma_of(e) * p.rho(u, e), py)
        hit = (num == 0) & (den == 0)
        first = node[rows]
        node[rows] = np.where(hit & (first < 0), w, first)
        xs[w][rows], ys[w][rows] = _normalize(num, np.where(hit, 1.0, den))
    return FiberBatch(t.vertices, cols_x.T, cols_y.T), node


def fiber_from_root(p: ModuliPoint, t: ProjPoint) -> FiberPoint:
    """The fiber point with root-vertex coordinate t, for smooth fibers.

    Requires every gamma_e nonzero; on degenerate gluing data route through
    split_fiber, whose components this parametrization covers one at a time.
    """
    zero = [e for e in p.tree.full_edges if p.gamma_of(e) == 0]
    if zero:
        raise InputError(
            f"gamma vanishes on edges {zero}; use split_fiber for nodal fibers"
        )
    return _fiber_through(p, p.tree.root_vertex, t)


def section(p: ModuliPoint, e: int) -> FiberPoint:
    """The marked point of the fiber attached to an external edge.

    The root edge marks [1:0] in every chart.  Any other external edge e at
    u = e- marks the disc center [z_{u,e} : 1] in the chart of u, and the
    fiber point through it fills every other chart by propagation: the
    lift to the root evaluates the telescoped position of the center in
    each ancestor chart by Horner's rule, one _parent_coord per edge.
    """
    t = p.tree
    if e not in t.half_edges:
        raise InputError(f"edge {e} is not external")
    if e == t.root_edge:
        return FiberPoint({v: ProjPoint(1.0, 0.0) for v in t.vertices})
    u = t.e_minus[e]
    return _complete(p, {u: _normal(p.z(u, e), 1 + 0j)}, u)


# ---------------------------------------------------------------------------
# splitting degenerate fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubCurve:
    """A smooth component of a degenerate fiber: a piece of the split tree
    together with the restricted coordinate point (all gamma nonzero)."""

    piece: SplitPiece
    point: ModuliPoint


@dataclass(frozen=True, eq=False)
class FiberNode:
    """A node joining two components, with its point on each side.

    On the parent component the node is the marked point of the fresh half
    edge; on the child component it is the point at infinity of every chart.
    """

    edge: int
    parent_component: int
    child_component: int
    parent_point: FiberPoint
    child_point: FiberPoint


@dataclass(frozen=True, eq=False)
class SplitFiber:
    components: tuple[SubCurve, ...]
    nodes: tuple[FiberNode, ...]
    component_of_vertex: Mapping[int, int]


def _restrict_point(p: ModuliPoint, piece: SplitPiece) -> ModuliPoint:
    sub, origin = piece.tree, piece.edge_origin
    gamma = {e: p.gamma_of(origin[e]) for e in sub.full_edges}
    zr = {(v, e): p.zr[(v, origin[e])] for v, e in sub.coordinate_pairs()}
    return ModuliPoint(sub, gamma, zr)


def split_fiber(p: ModuliPoint) -> SplitFiber:
    """Break the fiber along vanishing gluing coordinates.

    Returns one smooth component per piece of the split tree, plus a node
    per degenerate edge carrying its point on both adjacent components.
    Component count is always (number of vanishing edges) + 1.
    """
    t = p.tree
    cut = [e for e in t.full_edges if p.gamma_of(e) == 0]
    pieces = split(t, Marking(frozenset()), cut)
    components = tuple(
        SubCurve(piece, _restrict_point(p, piece)) for piece in pieces
    )
    comp_of_vertex = {}
    for i, sub in enumerate(components):
        for v in sub.piece.tree.vertices:
            comp_of_vertex[v] = i

    # a cut half, keyed by its cut edge and its one endpoint
    by_origin: dict[tuple[int, int], tuple[int, int]] = {}
    for i, sub in enumerate(components):
        for e, origin in sub.piece.edge_origin.items():
            if origin != e:
                by_origin[(origin, sub.piece.tree.boundary[e][0])] = (i, e)

    nodes = []
    for e in sorted(cut):
        u, v = t.e_minus[e], t.e_plus[e]
        pi, pe = by_origin[(e, u)]
        ci, _ = by_origin[(e, v)]
        parent_point = section(components[pi].point, pe)
        child_point = section(components[ci].point, components[ci].piece.tree.root_edge)
        nodes.append(FiberNode(e, pi, ci, parent_point, child_point))
    return SplitFiber(components, tuple(nodes), comp_of_vertex)


# ---------------------------------------------------------------------------
# the product-of-spheres embedding
# ---------------------------------------------------------------------------


def embed(p: ModuliPoint, q: FiberPoint) -> dict[tuple[int, int], ProjPoint]:
    """Embed a fiber point into the product of spheres over incident pairs.

    The component at (v, e) is the chart of the disc of that pair
    (ModuliPoint.disc): the plain chart value at v when v = e+, whose disc
    is the unit disc, and the disc-rescaled value when e is a child edge of
    v.  It is row 0 of the chart table of q (_checked_charts), so component
    k is chart column k and circle k of the decomposition.  The plain
    components alone already separate points, so the embedding is
    injective fiberwise.  A point off the fiber, or a degenerate rescaled
    chart, raises VerificationError.
    """
    _require_on_fiber(p, q)
    pairs = p.tree.incident_pairs()
    x, y = _checked_charts(p, (q,), range(len(pairs)))
    return dict(zip(pairs, map(ProjPoint, x[0].tolist(), y[0].tolist())))


def embedded_distance(p: ModuliPoint, q1: FiberPoint, q2: FiberPoint) -> float:
    """Distance in the product of spheres: max over components, in one
    sphere_distances call on the stacked components, so with the bits of
    the scalar sphere_distance per component.  Its NORM_RANGE check would
    add nothing: embed refuses a point off the fiber, NaN included
    (_require_on_fiber), and its components are normalized, one slot of
    modulus 1 and the other at most that, so every norm lies in [1, sqrt 2].
    """
    e1, e2 = embed(p, q1), embed(p, q2)
    (ax, ay), (bx, by) = (sphere_coords([e[k] for k in e1]) for e in (e1, e2))
    return float(sphere_distances(ax, ay, bx, by).max())


def _mark_distance(q1: FiberPoint, q2: FiberPoint) -> float:
    """The largest sphere distance between the coordinates of two fiber
    points at each vertex, in one sphere_distances call, as
    embedded_distance measures.  Its callers have refused NaN coordinates
    (_require_on_fiber), and a FiberPoint's coordinates are normalized, so
    every norm lies in [1, sqrt 2], inside NORM_RANGE."""
    (ax, ay), (bx, by) = (sphere_coords([q.at(v) for v in q1.coords]) for q in (q1, q2))
    return float(sphere_distances(ax, ay, bx, by).max())


# ---------------------------------------------------------------------------
# thick-thin decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Region:
    """Descriptor of one piece of the thick-thin decomposition.

    kind is "thick" (indexed by a vertex), "neck" (a full edge), or "end"
    (an external edge).
    """

    kind: str
    vertex: int | None = None
    edge: int | None = None

    def __post_init__(self):
        if self.kind not in ("thick", "neck", "end"):
            raise InputError(f"unknown region kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class ThickThinDecomposition:
    """Boundary circles and region descriptors of a member fiber.

    circles maps each incident pair (v, e), in incident_pairs order, to
    the (center, radius) of its disc (ModuliPoint.disc) in the chart of v:
    the unit circle when v = e+, or the disc boundary around z_{v,e} of
    radius |rho_{v,e}| when e is a child edge of v.  Circle k, column k of
    a chart table (_chart_table) and component k of embed are one incident
    pair, and so are the region table's columns 2k and 2k + 1.

    table is the region table both classify forms read.  The k-th circle
    gives two verdicts on a point's chart value at v: column 2k, inside its
    closed disc, and 2k + 1, outside its open disc (infinity is outside every
    disc).  table[r] lists the columns whose conjunction is membership in
    regions[r], as region_contains defines it (see _region_terms).

    rims lists per vertex v, for classify, the circles in the chart of v
    and the regions whose inside term sits at v, as (v, ((column 2k,
    center, radius), ...), (r, ...)): the thick region of v, and the neck
    and end of each edge e with e- = v.  always lists the regions with no
    inside term, which is the root end alone.  Each region is in exactly
    one of these lists, by index in ascending order.

    charts holds what check_map_membership reads besides these, made on
    first read and kept.
    """

    point: ModuliPoint
    params: CompactnessParams
    circles: Mapping[tuple[int, int], tuple[complex, float]]
    regions: tuple[Region, ...]
    table: tuple[tuple[int, ...], ...]
    rims: tuple[tuple[int, tuple[tuple[int, complex, float], ...], tuple[int, ...]], ...]
    always: tuple[int, ...]

    @functools.cached_property
    def charts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, rho, columns): the disc of every incident pair (_discs), for
        a chart table (_chart_table), and per region r the table columns,
        that is the circles, of the one or two components that
        region_distance compares on regions[r] (_charts), the one column
        twice when there is one."""
        t = self.point.tree
        col = {pair: k for k, pair in enumerate(self.circles)}
        ends = (_charts(t, r) for r in self.regions)
        return (*_discs(self.point), np.array([[col[ks[0]], col[ks[-1]]] for ks in ends]))

    def classify(self, q: FiberPoint) -> tuple[Region, ...]:
        """All regions containing q.

        Interior points land in exactly one region; points on a boundary
        circle land in exactly the two regions meeting there.  Each chart
        value of q is computed once.

        A chart value outside the closed unit disc is read as infinity, so
        no distance is computed at its vertex.  Every verdict there is the
        one at infinity: the unit circle's by definition, and each child
        disc's since the membership inequalities |z| <= theta and |rho| <=
        2 theta, each within EQ_SLACK, give |z| + r <= 1/2 + 1e-12, which
        puts the value farther than r + 1/2 - 1e-12 from z.  So every column
        starts at its verdict at infinity, (inside, outside) = (False,
        True), and _disc_verdicts runs only on the circles of the vertices
        whose chart value _outside_unit_as_none keeps.

        Only the regions listed at those kept vertices, and the always
        list, are tested, in region order.  An unlisted region fails: its
        inside term sits at a vertex v that was not kept, so that term's
        column is still its verdict at infinity, False, and the conjunction
        of table fails on it.  So the regions that hold are the ones that
        the full scan of table would return, in the same order.

        A point with no coordinate at a vertex of the tree, or with one at
        a vertex the tree lacks, raises InputError naming the vertex.
        """
        ok = [False, True] * len(self.circles)
        picks = list(self.always)
        for v, rims, listed in self.rims:
            x = _outside_unit_as_none(q.affine(v))
            if x is not None:
                for col, center, radius in rims:
                    ok[col], ok[col + 1] = _disc_verdicts(x, center, radius)
                picks += listed
        # every vertex was found, so a longer point has one the tree lacks
        if len(q.coords) != len(self.rims):
            _reject_extra_vertex(self.point.tree, q)
        hit, table = ok.__getitem__, self.table
        return tuple(self.regions[r] for r in sorted(picks) if all(map(hit, table[r])))

    def region_matrix(self, batch: FiberBatch) -> np.ndarray:
        """classify on every point of a batch, as an (N, R) boolean array."""
        at = [batch.vertices.index(v) for v, _ in self.circles]
        x, y = batch.xs[:, at], batch.ys[:, at]
        far = y == 0  # masked, not divided: EQ_SLACK * inf would admit infinity
        with np.errstate(over="ignore"):
            val = _cdiv(x, np.where(far, 1.0, y))
        center, radius = (np.array(a) for a in zip(*self.circles.values()))
        d = np.hypot(val.real - center.real, val.imag - center.imag)
        ok = np.stack([~far & _leq_array(d, radius), far | _leq_array(radius, d)], 2)
        ok = ok.reshape(len(batch), 2 * len(at))
        starts = np.cumsum([0] + [len(cols) for cols in self.table[:-1]])
        return np.logical_and.reduceat(ok[:, sum(self.table, ())], starts, axis=1)


def decomposition(p: ModuliPoint, c: CompactnessParams) -> ThickThinDecomposition:
    """Thick-thin decomposition of the fiber of a compact-subset member.

    One thick region per vertex (the unit disc minus the open child discs),
    one neck per full edge, one end per external edge.  Verifies membership
    and builds the regions.

    The checks run once per point and params value: the passing membership
    report and then the decomposition are kept on p and read again for
    params equal to the kept ones, as the association and membership scales
    of one tree and eps are; other params are checked afresh, and a failed
    check keeps nothing.

    Certificate: the geometric facts the regions rely on are the membership
    inequalities, with no check of their own.  Every child disc stays inside
    the half disc: |z| <= theta and |rho| <= 2 theta, each within EQ_SLACK,
    give |z| + |rho| <= 3 theta (1 + 2 EQ_SLACK) <= 1/2 + 1e-12.  Dilations
    of sibling discs by any factor below 1/tau stay disjoint: that is the
    sibling separation |rho_e| + |rho_f| <= tau |z_e - z_f| divided by tau,
    within EQ_SLACK.
    """
    report = _membership(p, c)
    if not report.ok:
        raise VerificationError(f"not a member: {report.first_violation}")
    if p._member[2] is not None:
        return p._member[2]
    t = p.tree
    circles = {(v, e): _circle(p, v, e) for v, e in t.incident_pairs()}
    regions = [Region("thick", vertex=v) for v in t.vertices]
    regions += [Region("neck", edge=e) for e in t.full_edges]
    regions += [Region("end", edge=e) for e in t.half_edges]
    column = {pair: 2 * k for k, pair in enumerate(circles)}
    terms = [_region_terms(t, r) for r in regions]
    table = tuple(tuple(column[pair] + out for pair, out in ts) for ts in terms)
    # the vertex of each region's inside term, which comes first, or None
    home = [None if ts[0][1] else ts[0][0][0] for ts in terms]
    listed = {v: tuple(r for r, h in enumerate(home) if h == v) for v in (*t.vertices, None)}
    rims = tuple(
        (v, tuple((column[(v, e)], *circles[(v, e)]) for e in t.incident[v]), listed[v])
        for v in t.vertices
    )
    dec = ThickThinDecomposition(p, c, circles, tuple(regions), table, rims, listed[None])
    object.__setattr__(p, "_member", (c, report, dec))
    return dec


def _disc_verdicts(x: complex | None, center: complex, radius: float):
    """(x inside the closed disc, x outside the open disc); None is infinity.
    These are _leq both ways, sharing one slack: both sides are moduli."""
    if x is None:
        return False, True
    d = abs(x - center)
    slack = EQ_SLACK * max(d, radius)
    return d <= radius + slack, radius <= d + slack


def _outside_unit_as_none(x: complex | None) -> complex | None:
    """None (infinity) if x lies outside the closed unit disc, that is where
    _leq(|x|, 1) fails for a number, else x; NaN stays as it is."""
    return None if x is None or abs(x) > 1.0 + EQ_SLACK * abs(x) else x


def _region_terms(t: RootedTree, region: Region):
    """region_contains as terms ((v, e), outside) that must all hold, each
    a _disc_verdicts entry on the circle of (v, e); v's unit circle is the
    circle of (v, its parent edge).  A region has at most one inside term
    (outside = 0), and it comes first."""
    v, e = region.vertex, region.edge
    if region.kind == "thick":
        return [((v, t.parent_edge[v]), 0)] + [((v, f), 1) for f in t.child_edges(v)]
    if region.kind == "neck":
        return [((t.e_minus[e], e), 0), ((t.e_plus[e], e), 1)]
    return [((t.root_vertex, e), 1)] if e == t.root_edge else [((t.e_minus[e], e), 0)]


def _circle(p: ModuliPoint, v: int, e: int) -> tuple[complex, float]:
    """Center and radius of the boundary circle of the disc of (v, e)."""
    z, rho = p.disc(v, e)
    return z, abs(rho)


def region_contains(p: ModuliPoint, region: Region, q: FiberPoint) -> bool:
    """Closed-region membership with boundary slack.

    Thick at v: chart value in the closed unit disc and outside every open
    child disc.  Neck at e: inside the closed disc of (e-, e) and outside
    the open unit disc of e+; on the fiber this is the annulus between the
    two boundary circles of the edge.  End at the root edge: outside the
    open unit disc of the root vertex; end at another external edge: inside
    the closed disc of (e-, e).  A region that does not fit the tree of p,
    or a point with a coordinate at a vertex the tree lacks, raises
    InputError.
    """
    t = p.tree
    if region.kind == "thick":
        fits = region.vertex in t.vertices
    else:
        fits = region.edge in (t.full_edges if region.kind == "neck" else t.half_edges)
    if not fits:
        raise InputError(f"region {region} does not fit the tree")
    _reject_extra_vertex(t, q)
    return all(
        _disc_verdicts(q.affine(pair[0]), *_circle(p, *pair))[out]
        for pair, out in _region_terms(t, region)
    )


def classify(
    p: ModuliPoint, c: CompactnessParams, q: FiberPoint
) -> tuple[Region, ...]:
    """All regions of the decomposition of p containing q; see
    ThickThinDecomposition.classify.  The decomposition is checked once per
    (p, c) pair and reused, so later calls are region lookups."""
    return decomposition(p, c).classify(q)


def _charts(t: RootedTree, region: Region) -> tuple:
    """The incident pairs whose charts region_distance compares on region,
    in order: (v, its parent edge) for the thick region of v, whose disc is
    the unit disc, and (u, e) per endpoint u of the edge e of a neck or an
    end."""
    if region.kind == "thick":
        return ((region.vertex, t.parent_edge[region.vertex]),)
    return tuple((u, region.edge) for u in t.boundary[region.edge])


def _discs(p: ModuliPoint) -> np.ndarray:
    """z and rho of the disc of every incident pair (ModuliPoint.disc), in
    incident_pairs order."""
    return np.array([p.disc(*k) for k in p.tree.incident_pairs()], complex).reshape(-1, 2).T


def _chart_table(t: RootedTree, z: np.ndarray, rho: np.ndarray, batch: FiberBatch):
    """Every row's chart at each incident pair (v, e) with disc data z and
    rho (_discs): _normalize(x - z y, rho y) of the plain chart [x : y] at
    v, which the unit disc of v = e+ keeps as it is, signs of zero aside.
    Returns complex (N, pairs) arrays x and y, and where a chart is [0 : 0],
    which the arrays hold as [0 : 1]; a plain column never is, since [x : y]
    is a nonzero ProjPoint."""
    at = np.searchsorted(t.vertices, [v for v, _ in t.incident_pairs()])
    x, y = batch.xs[:, at], batch.ys[:, at]
    num, den = x - _cmul(z, y), _cmul(rho, y)
    bad = (num == 0) & (den == 0)
    return (*_normalize(num, np.where(bad, 1.0, den)), bad)


def _checked_charts(p: ModuliPoint, points: Sequence[FiberPoint], cols):
    """The chart table x and y of the given points (_chart_table), after a
    VerificationError naming the first of the columns cols whose chart is
    degenerate at some point."""
    t = p.tree
    x, y, bad = _chart_table(t, *_discs(p), FiberBatch.of(t, points))
    k = _first_false(~bad[:, cols].any(axis=0))
    if k is not None:
        raise VerificationError(f"rescaled chart at {t.incident_pairs()[cols[k]]} is degenerate")
    return x, y


def _chart_distances(x: np.ndarray, y: np.ndarray, slots, i, j) -> np.ndarray:
    """region_distance from row i[k] to row j[k] of a chart table: per
    component slot one sphere_distances call at the column slot[k], then
    the max of the slots (no distance is NaN)."""
    return np.max([sphere_distances(x[i, c], y[i, c], x[j, c], y[j, c]) for c in slots], axis=0)


def region_distance(
    p: ModuliPoint, region: Region, q1: FiberPoint, q2: FiberPoint
) -> float:
    """Intrinsic distance used on one region of the decomposition.

    Thick regions compare the plain chart values at the vertex; necks and
    ends take the max of the embedding components over the edge's endpoints.
    A point outside the region, or a region that does not fit the tree,
    raises InputError; a degenerate rescaled chart, VerificationError.
    """
    for q in (q1, q2):
        if not region_contains(p, region, q):
            raise InputError(f"point outside region {region}")
    pairs = p.tree.incident_pairs()
    cols = [pairs.index(pair) for pair in _charts(p.tree, region)]
    x, y = _checked_charts(p, (q1, q2), cols)
    return float(_chart_distances(x, y, cols, [0], [1])[0])


# ---------------------------------------------------------------------------
# neck coordinates and constructive short paths
# ---------------------------------------------------------------------------


def neck_param(p: ModuliPoint, e: int, s: float, t_angle: float) -> FiberPoint:
    """Point of the neck cylinder of edge e at coordinates (s, t_angle).

    With delta^2 = |gamma_e| and half-length R = -log(delta), the two local
    chart values are z_u = delta e^{i theta0} e^{-(s + i t)} and z'_v =
    delta e^{i theta0} e^{s + i t}, where 2 theta0 = arg gamma_e; their
    product is exactly gamma_e, so the pair lies on the fiber.
    """
    g = _neck_gamma(p, e, s)
    if not math.isfinite(t_angle):
        raise InputError(f"the neck angle t must be finite, got {t_angle}")
    delta_phase = math.sqrt(abs(g)) * cmath.exp(0.5j * cmath.phase(g))
    z_u = delta_phase * cmath.exp(-(s + 1j * t_angle))
    z_v = delta_phase * cmath.exp(s + 1j * t_angle)
    u, v = p.tree.e_minus[e], p.tree.e_plus[e]
    coords = {u: _normal(p.z(u, e) + p.rho(u, e) * z_u, 1 + 0j), v: _normal(1 + 0j, z_v)}
    return _complete(p, coords, u)


def _neck_gamma(p: ModuliPoint, e: int, s: float | None) -> complex:
    """gamma_e of a full edge e, else InputError.  Given a neck position s,
    also InputError unless 0 < |gamma_e| < 1 and |s| is at most the neck
    half-length R = -log|gamma_e| / 2 within EQ_SLACK, which NaN is not."""
    if e not in p.tree.full_edges:
        raise InputError(f"edge {e} is not full")
    g = p.gamma_of(e)
    if s is not None:
        if not 0.0 < abs(g) < 1.0:
            raise InputError("need 0 < |gamma_e| < 1 for neck coordinates")
        big_r = -0.5 * math.log(abs(g))
        # written so that NaN fails it too
        if not abs(s) <= big_r * (1.0 + EQ_SLACK):
            raise InputError(f"|s| = {abs(s)} exceeds the neck half-length {big_r}")
    return g


def round_flat_area_ratio(z: complex) -> float:
    """Round-to-flat area-form ratio 4 / (1 + |z|^2)^2 at a chart value.

    Equals 4 at the origin and 1 on the unit circle, and stays inside
    [1, 4] on the closed unit disc.  This is the comparison that converts
    flat path-length bounds into round ones at the cost of a factor 2.
    """
    m = abs(z)
    return 4.0 / (1.0 + m * m) ** 2


def neck_area_factor(p: ModuliPoint, e: int, s: float) -> float:
    """Flat area form pulled back through the neck cylinder chart at s.

    The two local chart values of neck_param contribute |z_u|^2 + |z'_v|^2
    = |gamma_e| (e^{2s} + e^{-2s}) per unit cylinder area.  Each term is
    taken as exp(+-2s + log|gamma_e|), whose exponent is at most 2 R
    EQ_SLACK on the neck |s| <= R (1 + EQ_SLACK), so neither overflows even
    where e^{2R} = 1/|gamma_e| does.  s and e are checked as in neck_param.
    """
    log_mod = math.log(abs(_neck_gamma(p, e, s)))
    return math.exp(2.0 * s + log_mod) + math.exp(-2.0 * s + log_mod)


def neck_chart_values(
    p: ModuliPoint, e: int, q: FiberPoint
) -> tuple[complex, complex]:
    """The two local chart values (z_u, z'_v) of a point of the neck of e.
    An edge that is not full raises InputError."""
    _neck_gamma(p, e, None)
    u, v = p.tree.e_minus[e], p.tree.e_plus[e]
    a = q.at(u)
    if a.y == 0:
        raise InputError("point leaves the parent chart of the neck")
    z_u = (a.x / a.y - p.z(u, e)) / p.rho(u, e)
    b = q.at(v)
    z_v = b.y / b.x if b.x != 0 else None
    if z_v is None:
        raise InputError("point leaves the child chart of the neck")
    return z_u, z_v


@dataclass(frozen=True)
class AnnulusPath:
    """Paired polyline paths on the plumbing fiber {(a, b) : a b = delta^2}.

    Vertices of path_z and path_w align index by index; their products equal
    delta^2 (exactly at constructed vertices, within input tolerance at the
    anchored endpoints).  Lengths are flat polyline lengths.
    """

    path_z: tuple[complex, ...]
    path_w: tuple[complex, ...]
    length_z: float
    length_w: float
    case: str

    @property
    def total_length(self) -> float:
        return self.length_z + self.length_w


ARC_STEP = 2.0 * math.pi / 256.0


def _arc_points(center_radius: float, a: complex, b: complex) -> list[complex]:
    """Short-way arc samples from a to b on the circle of given radius."""
    pa, pb = cmath.phase(a), cmath.phase(b)
    diff = (pb - pa + math.pi) % (2.0 * math.pi) - math.pi
    steps = max(1, math.ceil(abs(diff) / ARC_STEP))
    return [
        center_radius * cmath.exp(1j * (pa + diff * k / steps))
        for k in range(steps + 1)
    ]


def _annulus_leg(a: complex, b: complex, inner: float) -> list[complex]:
    """Polyline from a to b in the closed unit disc avoiding the open disc
    of the inner radius: the chord, with its inner portion replaced by the
    short arc.  Length at most (pi/2) |a - b|."""
    if a == b:
        return [a]
    d = b - a
    dd = abs(d) ** 2
    if dd == 0.0:
        # difference below float resolution: a two-point chord suffices
        return [a, b]
    # closest approach of the segment to the origin
    t_min = min(1.0, max(0.0, -(a.real * d.real + a.imag * d.imag) / dd))
    if abs(a + t_min * d) >= inner or inner <= 0.0:
        return [a, b]
    # solve |a + t d|^2 = inner^2 for the entry and exit parameters
    bb = 2.0 * (a.real * d.real + a.imag * d.imag)
    cc = abs(a) ** 2 - inner * inner
    disc = bb * bb - 4.0 * dd * cc
    if disc <= 0.0:
        return [a, b]
    t1 = (-bb - math.sqrt(disc)) / (2.0 * dd)
    t2 = (-bb + math.sqrt(disc)) / (2.0 * dd)
    t1, t2 = max(0.0, t1), min(1.0, t2)
    if t2 <= t1:
        return [a, b]
    p1, p2 = a + t1 * d, a + t2 * d
    out = [a] if t1 > 0 else []
    out.extend(_arc_points(inner, p1, p2))
    if t2 < 1:
        out.append(b)
    return out


def _polyline_length(path: Sequence[complex]) -> float:
    return sum(abs(b - a) for a, b in zip(path, path[1:]))


def _dual_leg(path: Sequence[complex], delta_sq: float) -> list[complex]:
    return [delta_sq / z for z in path]


def annulus_path(
    delta: float, z: complex, w: complex, z2: complex, w2: complex
) -> AnnulusPath:
    """Short paired path between two points of a plumbing fiber.

    Inputs are two points (z, w) and (z2, w2) of the fiber {a b = delta^2}
    with all four moduli at most 1.  The construction follows a three-way
    case split on which side of the equator |a| = delta the endpoints lie,
    and guarantees flat total length at most 8 pi max(|z - z2|, |w - w2|).
    """
    if not 0.0 <= delta < 1.0:
        raise InputError("delta must lie in [0, 1)")
    dsq = delta * delta
    for a, b in ((z, w), (z2, w2)):
        # absolute (dsq < 1): a * b of unit-disc points rounds absolutely;
        # both tests are written so that NaN fails them
        if not abs(a * b - dsq) <= 1e-9 * max(1.0, dsq):
            raise InputError(f"point ({a}, {b}) violates the fiber equation")
        if not (abs(a) <= 1.0 + EQ_SLACK and abs(b) <= 1.0 + EQ_SLACK):
            raise InputError("fiber points must stay in the closed unit disc")

    def anchored(path, first, last):
        path = list(path)
        path[0], path[-1] = first, last
        return path

    flip = False
    if delta == 0.0:
        # nodal fiber: two discs joined at the origin; route via the node
        # when the endpoints sit on different branches
        if (abs(z) > 0 and abs(z2) > 0) or (abs(w) > 0 and abs(w2) > 0):
            path_z, path_w = [z, z2], [w, w2]
        else:
            path_z, path_w = [z, 0j, z2], [w, 0j, w2]
        case = "nodal"
    elif abs(z) >= delta and abs(z2) >= delta:
        path_z = _annulus_leg(z, z2, delta)
        path_w = anchored(_dual_leg(path_z, dsq), w, w2)
        case = "i-z"
    elif abs(z) <= delta and abs(z2) <= delta:
        path_w = _annulus_leg(w, w2, delta)
        path_z = anchored(_dual_leg(path_w, dsq), z, z2)
        case = "i-w"
    else:
        # build from the endpoint outside the equator, reverse at the end
        flip = abs(z) < abs(z2)
        if flip:
            z, w, z2, w2 = z2, w2, z, w
        # now |z| >= delta >= |z2|
        if abs(z2) <= abs(z) / 2.0:
            # far apart: route through the equator point below z
            mid_z = delta * z / abs(z)
            mid_w = dsq / mid_z
            leg1_z = _annulus_leg(z, mid_z, delta)
            leg1_w = anchored(_dual_leg(leg1_z, dsq), w, mid_w)
            leg2_w = _annulus_leg(mid_w, w2, delta)
            leg2_z = anchored(_dual_leg(leg2_w, dsq), mid_z, z2)
            path_z = leg1_z + leg2_z[1:]
            path_w = leg1_w + leg2_w[1:]
            case = "ii-a"
        else:
            # both within a factor-4 ring around the equator
            inner = max(delta / 2.0, dsq)
            path_z = _annulus_leg(z, z2, inner)
            path_w = anchored(_dual_leg(path_z, dsq), w, w2)
            case = "ii-b"
    # the lengths are summed in construction order, before any reversal
    lengths = _polyline_length(path_z), _polyline_length(path_w)
    if flip:
        path_z.reverse()
        path_w.reverse()
    return AnnulusPath(tuple(path_z), tuple(path_w), *lengths, case)


@dataclass(frozen=True)
class NeckPath:
    """A short path across a neck region, in local chart-value pairs.

    round_length sums the spherical distances of consecutive vertices in
    both charts; it is certified to stay below 16 pi times the neck
    distance of the endpoints.
    """

    vertices: tuple[tuple[complex, complex], ...]
    round_length: float
    flat_length: float
    endpoint_distance: float
    case: str


def neck_path(
    p: ModuliPoint, e: int, q1: FiberPoint, q2: FiberPoint
) -> NeckPath:
    """Connect two points of the neck of e by a certified short path.

    Rotates the local chart values so the plumbing equation has real
    right-hand side, runs the annulus construction there, and converts the
    flat bound into a round one: chart values stay in the unit disc, where
    the round length element is between one and two times the flat one, so
    round total <= 2 * flat total <= 16 pi * max flat endpoint gap, and the
    flat endpoint gap is dominated by the round neck distance.
    """
    region = Region("neck", edge=e)
    for q in (q1, q2):
        if not region_contains(p, region, q):
            raise InputError("point outside the neck region")
    g = p.gamma_of(e)
    phase = cmath.exp(0.5j * cmath.phase(g)) if g != 0 else 1.0 + 0.0j
    delta = math.sqrt(abs(g))
    za, wa = neck_chart_values(p, e, q1)
    zb, wb = neck_chart_values(p, e, q2)
    flat = annulus_path(delta, za / phase, wa / phase, zb / phase, wb / phase)
    verts = tuple(
        (phase * a, phase * b) for a, b in zip(flat.path_z, flat.path_w)
    )
    round_len = 0.0
    for (a1, b1), (a2, b2) in zip(verts, verts[1:]):
        round_len += sphere_distance(ProjPoint(a1, 1.0), ProjPoint(a2, 1.0))
        round_len += sphere_distance(ProjPoint(b1, 1.0), ProjPoint(b2, 1.0))
    dist = region_distance(p, region, q1, q2)
    return NeckPath(verts, round_len, flat.total_length, dist, flat.case)


# ---------------------------------------------------------------------------
# four marked points
# ---------------------------------------------------------------------------


def _frame(a: ProjPoint, b: ProjPoint, c: ProjPoint):
    """Matrix sending [1:0], [0:1], [1:1] to a, b, c respectively."""
    det = a.x * b.y - a.y * b.x
    if abs(det) <= 1e-15 * max(1.0, abs(a.x * b.y), abs(a.y * b.x)):
        raise VerificationError("reference points must be distinct")
    al = (c.x * b.y - c.y * b.x) / det
    be = (a.x * c.y - a.y * c.x) / det
    return ((al * a.x, be * b.x), (al * a.y, be * b.y))


def _mat_mul(m, n):
    return (
        (
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ),
        (
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ),
    )


def _mat_inv(m):
    # adjugate; the determinant scale is projectively irrelevant
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mobius_through(
    sources: Sequence[ProjPoint], targets: Sequence[ProjPoint]
):
    """The projective transformation carrying three points to three points."""
    if len(sources) != 3 or len(targets) != 3:
        raise InputError("need exactly three source and three target points")
    return _mat_mul(_frame(*targets), _mat_inv(_frame(*sources)))


def apply_mobius(m, p: ProjPoint) -> ProjPoint:
    return ProjPoint(
        m[0][0] * p.x + m[0][1] * p.y, m[1][0] * p.x + m[1][1] * p.y
    ).normalized()


def four_point_value(points: Sequence[ProjPoint]) -> ProjPoint:
    """Normalized position of the fourth point after pinning the first three.

    Sends the first three points to the three unit-circle anchors and
    returns the image of the fourth: a complete invariant of four distinct
    points on the sphere up to projective equivalence.
    """
    if len(points) != 4:
        raise InputError("need exactly four points")
    m = mobius_through(points[:3], UNIT_TARGETS)
    return apply_mobius(m, points[3])


def _locate_component(sf: SplitFiber, p: ModuliPoint, q: FiberPoint) -> int:
    """The head vertex of the smooth component of the split fiber that
    carries q.

    Points on the parent side of a degenerate edge freeze to [1:0] on every
    vertex beyond it, so q sits beyond a node exactly when some coordinate
    past that edge moves away from [1:0].
    """
    t = p.tree
    far = ProjPoint(1.0, 0.0)
    moved = [w for w in t.vertices if sphere_distance(q.at(w), far) > RESIDUAL_TOL]
    current = _descend(
        sf, t, lambda top: any(positive_path(t, top, w) is not None for w in moved)
    )
    return sf.components[current].piece.tree.root_vertex


def _descend(sf: SplitFiber, t: RootedTree, beyond: Callable[[int], bool]) -> int:
    """The component reached from the root component by entering, while
    there is one, the first node of the current component (in sf.nodes
    order) whose child side, headed by vertex e+ of its edge, is beyond."""
    current = sf.component_of_vertex[t.root_vertex]
    while True:
        for node in sf.nodes:
            if node.parent_component == current and beyond(t.e_plus[node.edge]):
                current = node.child_component
                break
        else:
            return current


def stabilize_four_marked(
    p: ModuliPoint, marks: Sequence[FiberPoint]
) -> ProjPoint:
    """Four-point invariant of a possibly nodal fiber with four marked points.

    When all four marks end up on one component after contracting unstable
    directions, returns the fourth point's position after pinning the first
    three.  When the stable model splits the marks two against two, returns
    the anchor of the partner sharing a component with the fourth mark: the
    boundary value at which that pair collides.

    Certificate: some component isolates the marks without a check.  The
    descent stops only where every child side holds at most 2 marks, and
    the side above holds none at the root component and at most 1 below
    it, because the descent entered that component with 3 or more past it.
    """
    if len(marks) != 4:
        raise InputError("need exactly four marked points")
    for q in marks:
        _require_on_fiber(p, q)
    for i, j in itertools.combinations(range(4), 2):
        if _mark_distance(marks[i], marks[j]) <= RESIDUAL_TOL:
            raise InputError(f"marked points {i} and {j} coincide")

    t = p.tree
    sf = split_fiber(p)
    heads = [_locate_component(sf, p, q) for q in marks]

    def past(top: int) -> set[int]:
        # the marks on the component headed by vertex top or on one below it
        return {i for i in range(4) if positive_path(t, top, heads[i]) is not None}

    # descend while some child component has at least three marks past it
    current = _descend(sf, t, lambda top: len(past(top)) >= 3)
    root_vertex = sf.components[current].piece.tree.root_vertex
    sides = [
        (past(t.e_plus[node.edge]), node.parent_point.at(root_vertex))
        for node in sf.nodes
        if node.parent_component == current
    ]
    # the side above, empty at the root component
    sides.append((set(range(4)) - past(root_vertex), ProjPoint(1.0, 0.0)))

    for far_marks, _ in sides:
        if len(far_marks) == 2:
            pair = far_marks if 3 in far_marks else set(range(4)) - far_marks
            return UNIT_TARGETS[(pair - {3}).pop()]

    positions = [
        q.at(root_vertex) if heads[i] == root_vertex
        else next(anchor for far_marks, anchor in sides if i in far_marks)
        for i, q in enumerate(marks)
    ]
    for i, j in itertools.combinations(range(4), 2):
        if sphere_distance(positions[i], positions[j]) <= RESIDUAL_TOL:
            raise VerificationError(f"marks {i} and {j} collide after contraction")
    return four_point_value(positions)


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------


def _anchor_starts(p: ModuliPoint):
    """Three circle-anchored starts per incident pair.

    For each (v, e) the three unit-circle anchors [a : b] are pulled back
    through the chart of the disc (z, rho) of that pair (ModuliPoint.disc)
    to [rho a + z b : b] at v, which the unit disc of v = e+ keeps as they
    are; the fiber points through them sit on the boundary circles of the
    decomposition.  Returns the (pair, anchor index) label of every start
    and, in the same order, its vertex and chart coordinates [x : y] there,
    as _fiber_batch takes them.
    """
    labels, src, plain = [], [], []
    for v, e in p.tree.incident_pairs():
        z, rho = p.disc(v, e)
        for k, target in enumerate(UNIT_TARGETS):
            plain.append((target.x * rho + z * target.y, target.y))
            labels.append(((v, e), k))
            src.append(v)
    x, y = np.array(plain, dtype=complex).T
    return labels, np.array(src), x, y


FILL_SKIP_LIMIT = 64

# decoration points allowed in decorate: m = 100,000 on a chain of 4
# vertices takes about 2 s and 280 MB with its JSON text on a 2-vCPU
# x86-64 VM, and both grow linearly in m
DECORATION_CAP = 100_000

# a ring candidate this close in the charts to a chosen point is skipped
FILL_SEPARATION = 1e-6


def _near_pairs(xs: np.ndarray, ys: np.ndarray, below: float, col: int):
    """Row pairs i < k within `below` of each other in the charts.

    Rows hold the normalized chart values (x, y) per vertex; the chart
    distance is the max over vertices of the sphere distance.
    Returns (i, k, distance) in row-major order, in O(n log n + candidates)
    by a fixed-radius sweep (Bentley, Stanat & Williams 1977).  As unit
    vectors of R^3 the rows' chord is at most the sphere distance d, so a
    pair with d < below is closer than below in every coordinate at every
    vertex.  Sorted by the widest-spread coordinate at vertex column col,
    each row meets the later rows within reach of it there, and a pair is a
    candidate while its chord is within reach at every vertex; every
    candidate is measured by sphere_distances.  Reach is below + 1e-12: a
    measured pair's exact distance, and so its chord, exceeds below by under
    42u, 4.7e-15 (nets.sphere_distances), and rounding moves a unit vector
    by under 32u, 3.6e-15 (nets.hopf_units), so its computed gap at every
    vertex is within below + 1.2e-14.
    """
    n, n_verts = xs.shape
    units = hopf_units(xs, ys, np.hypot(np.abs(xs), np.abs(ys)))
    reach = below + 1e-12
    key = units[np.ptp(units[:, :, col], axis=1).argmax(), :, col]
    order = np.argsort(key, kind="stable")
    s = key[order]
    # sorted row a pairs with the count[a] sorted rows after it
    count = np.searchsorted(s, s + reach, side="right") - np.arange(1, n + 1)
    a = np.repeat(np.arange(n), count)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
    i, k = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
    for v in range(n_verts):
        gap = units[:, i, v] - units[:, k, v]
        close = np.einsum("jp,jp->p", gap, gap) <= reach * reach
        i, k = i[close], k[close]
    dist = sphere_distances(xs[i], ys[i], xs[k], ys[k]).max(axis=1)
    keep = dist < below
    i, k, dist = i[keep], k[keep], dist[keep]
    row_major = np.lexsort((k, i))
    return list(zip(*(arr[row_major].tolist() for arr in (i, k, dist))))


def decorate(p: ModuliPoint, marked: Sequence[FiberPoint], m: int) -> FiberBatch:
    """Marked points plus m deterministic extra points on the fiber, as one
    FiberBatch: the marked points, then the anchors, then the ring points.

    The first 3 * sum(deg) extras anchor every incident pair's three circle
    points; the remainder is taken from the ring of radius 0.9 in the root
    chart at equally spaced angles, skipping candidates that fall inside a
    child disc of the root vertex or within FILL_SEPARATION of a point
    already chosen.  Distances here are chart distances: the max over
    vertices of the sphere distance of the plain chart values.  A pair
    within RESIDUAL_TOL of each other in the charts is measured again by
    embedded_distance, which also reads the disc-rescaled charts and is
    never smaller; the points collide only when that distance is within
    RESIDUAL_TOL too.  The anchors, each from its own vertex, and every
    ring candidate the fill can reach, from the root, are built by one
    _fiber_batch.

    Fails, in this order: if m is below the anchor count or above
    DECORATION_CAP (before building any point), or a marked point is off
    the fiber; if an anchor sits at a node (the first such anchor names
    it); if a ring candidate the fill reaches sits at a node or the ring
    skips exceed the limit, whichever comes first in candidate order; if
    two points collide.
    """
    t = p.tree
    mu = len(t.incident_pairs())
    if m < 3 * mu:
        raise InputError(f"m = {m} is below the anchor count {3 * mu}")
    if m > DECORATION_CAP:
        raise ResourceCapError(f"m = {m} exceeds the decoration cap {DECORATION_CAP}")
    for q in marked:
        _require_on_fiber(p, q)
    labels, src, x, y = _anchor_starts(p)

    # every ring candidate the fill can reach: it stops once extra points
    # are accepted, or at the candidate after the last allowed skip
    extra = m - 3 * mu
    v0 = t.root_vertex
    vals = np.array(
        [
            0.9 * cmath.exp(2j * math.pi * j / (extra + 1))
            for j in range(1, extra + FILL_SKIP_LIMIT + 2)
        ]
    )
    in_disc = np.zeros(len(vals), dtype=bool)
    for e in t.child_edges(v0):
        gap = vals - p.z(v0, e)
        in_disc |= np.hypot(gap.real, gap.imag) < abs(p.rho(v0, e))

    # the anchors, each from its own vertex, then the ring candidates from
    # the root, in one batch; the first anchor at a node raises
    src = np.concatenate([src, np.full(len(vals), v0)])
    x, y = np.concatenate([x, vals]), np.concatenate([y, np.ones_like(vals)])
    built, node = _fiber_batch(p, src, x, y)
    hits = np.flatnonzero(node[: len(labels)] >= 0)
    if hits.size:
        raise _node_error(t, int(node[hits[0]]))
    node = node[len(labels):]

    # one row per point: the marked points, the anchors, every ring candidate
    given = FiberBatch.of(t, marked)
    xs = np.concatenate([given.xs, built.xs])
    ys = np.concatenate([given.ys, built.ys])
    n_fixed = len(marked) + len(labels)
    pairs = _near_pairs(xs, ys, FILL_SEPARATION, given.vertices.index(v0))

    near: dict[int, list[int]] = {}
    for i, k, _ in pairs:
        near.setdefault(k, []).append(i)
    kept = [True] * n_fixed + [False] * len(vals)
    placed = disc_skips = near_skips = 0
    for j in range(len(vals)):
        if placed == extra:
            break
        if disc_skips + near_skips > FILL_SKIP_LIMIT:
            raise VerificationError(
                f"ring fill exhausted after {FILL_SKIP_LIMIT} skipped candidates: "
                f"{disc_skips} fell in a child disc of the root vertex and "
                f"{near_skips} within {FILL_SEPARATION:g} of a chosen point, with "
                f"{placed} of extra = {extra} ring points placed"
            )
        if in_disc[j]:
            disc_skips += 1
            continue
        if node[j] >= 0:
            raise _node_error(t, int(node[j]))
        if any(kept[i] for i in near.get(n_fixed + j, ())):
            near_skips += 1
            continue
        kept[n_fixed + j] = True
        placed += 1
    keep = np.array(kept)
    points = FiberBatch(given.vertices, xs[keep], ys[keep])

    # an accepted ring point is at least FILL_SEPARATION from every earlier
    # point, so only marked points and anchors can collide
    for i, k, chart in pairs:
        if k >= n_fixed or chart > RESIDUAL_TOL:
            continue
        dist = embedded_distance(p, points[i], points[k])
        if dist <= RESIDUAL_TOL:
            raise VerificationError(
                f"decoration points {i} and {k} collide: "
                f"{_decoration_label(p, labels, len(marked), i)} and "
                f"{_decoration_label(p, labels, len(marked), k)} are "
                f"{dist:.6g} apart in the product of spheres "
                f"(chart distance {chart:.6g}), within RESIDUAL_TOL = "
                f"{RESIDUAL_TOL}"
            )
    return points


def _decoration_label(p: ModuliPoint, labels, n_marked: int, i: int) -> str:
    """Where decoration point i came from, with its circle radius if anchored."""
    if i < n_marked:
        return f"marked point {i}"
    (v, e), k = labels[i - n_marked]
    return f"anchor {k} of ({v}, {e}) on a circle of radius {_circle(p, v, e)[1]:.6g}"


# ---------------------------------------------------------------------------
# sampled membership verdict for maps out of a fiber
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampledMap:
    """A map out of a fiber known only through samples.

    samples pairs fiber points with target point indices in ``target``;
    region_energy optionally records externally computed energies per
    external edge.
    """

    target: FiniteMetricSpace
    samples: tuple[tuple[FiberPoint, int], ...]
    region_energy: Mapping[int, float] | None = None


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    membership: MembershipReport
    image_ok: bool
    image_offender: int | None
    lipschitz_rejections: tuple[tuple[Region, float, float], ...]
    lipschitz_pairs: int
    energy_status: str
    energy_failures: tuple[int, ...]

    @property
    def rejected(self) -> bool:
        return (
            not self.membership.ok
            or not self.image_ok
            or bool(self.lipschitz_rejections)
            or self.energy_status == "failed"
        )

    def summary(self) -> str:
        if self.rejected:
            reasons = []
            if not self.membership.ok:
                reasons.append(f"membership: {self.membership.first_violation}")
            if not self.image_ok:
                reasons.append(f"image leaves K at sample {self.image_offender}")
            for region, seen, allowed in self.lipschitz_rejections:
                reasons.append(
                    f"sampled Lipschitz {seen:.6g} > {allowed:.6g} on {region}"
                )
            if self.energy_status == "failed":
                reasons.append(f"energy below threshold at edges {self.energy_failures}")
            return "rejected: " + "; ".join(reasons)
        tail = "" if self.energy_status == "ok" else f" (energy {self.energy_status})"
        return "not refuted" + tail


def check_map_membership(
    p: ModuliPoint,
    c: CompactnessParams,
    smap: SampledMap,
    target_subset: Iterable[int],
    eta: float,
    lam: Mapping[Region, float],
    lambda0: float,
    unconstrained: Marking,
) -> MembershipVerdict:
    """Sampled verdict on the defining conditions for maps out of a fiber.

    Checks, in order: the coordinate point lies in the compact subset; the
    sampled image stays inside the given target subset; on each region the
    sampled local Lipschitz constant stays below its budget (a violation is
    a definitive rejection naming the region, a pass only means "not
    refuted"); and each end energy for external edges outside the given
    marking reaches (eta * lambda0)^2, reported "unchecked" when energies
    are missing.  The membership report is kept on p and read again for
    params equal to the kept ones, as in decomposition.

    A sample whose target is not an index of a target point raises
    InputError naming the sample, and a region without a budget raises
    InputError when the regions are read, in order.

    Cost: one region_matrix pass and one chart table (_chart_table) of the
    samples; then the sample pairs of every region in one index list,
    measured by one sphere_distances call per component slot, two in all,
    and each region's worst ratio by one np.maximum.at.  Only the budgets
    are read in a loop over the regions.  Every distance equals the scalar
    sphere_distance by bits: every form calls the kernel
    nets.sphere_distances.

    No chart of a member is [0 : 0], so unlike region_distance this check
    refuses none.  A plain column is the nonzero ProjPoint of the sample
    at v.  At a child pair a normalized chart value [x : y] has y = 1,
    where rho y = rho and membership gives |rho| >= alpha (1 - 1e-12) > 0,
    or x = 1 and |y| <= 1, where membership gives |z| <= theta (1 + 1e-12)
    <= 1/6 + 1e-12, so x - z y has real part above 4/5.
    """
    n = smap.target.n
    index = np.array([tgt for _, tgt in smap.samples])
    if index.dtype.kind not in "iu":  # not all ints: a float, a string or None
        fits = [isinstance(t, (int, np.integer)) and 0 <= t < n for _, t in smap.samples]
        index = np.array([t if ok else -1 for (_, t), ok in zip(smap.samples, fits)], int)
    wrong = _first_false((0 <= index) & (index < n))
    if wrong is not None:
        raise InputError(f"sample {wrong} maps to {smap.samples[wrong][1]!r}, not a target index")
    report = _membership(p, c)
    allowed = set(target_subset)
    offender = _first_false(np.array([tgt in allowed for _, tgt in smap.samples], bool))

    rejections = []
    pairs_checked = 0
    if report.ok:
        decomp = decomposition(p, c)
        batch = FiberBatch.of(p.tree, [q for q, _ in smap.samples])
        inside = decomp.region_matrix(batch)
        z, rho, charts = decomp.charts
        x, y, _ = _chart_table(p.tree, z, rho, batch)
        # every region's member pairs i < j, row-major, region by region:
        # member m (sample rows[m] of region r[m]) pairs with the after[m]
        # members that follow it in its region, m + 1 to m + after[m]
        r, rows = np.nonzero(inside.T)
        m = np.arange(len(r))
        after = np.cumsum(inside.sum(axis=0))[r] - m - 1
        first = np.repeat(m, after)
        second = np.arange(len(first)) + np.repeat(m + 1 - np.cumsum(after) + after, after)
        r, i, j = r[first], rows[first], rows[second]
        d_dom = _chart_distances(x, y, charts[r].T, i, j)
        keep = d_dom > 0.0
        pairs_checked = int(keep.sum())
        with np.errstate(over="ignore"):
            ratio = smap.target.dist[index[i[keep]], index[j[keep]]] / d_dom[keep]
        # each region's max from 0.0, as in a scalar loop; no ratio is below 0
        worst = np.zeros(len(decomp.regions))
        np.maximum.at(worst, r[keep], ratio)
        for region, seen in zip(decomp.regions, worst.tolist()):
            if region not in lam:
                raise InputError(f"no Lipschitz budget for region {region}")
            budget = lam[region] * lambda0
            if seen > budget * (1.0 + EQ_SLACK):
                rejections.append((region, seen, budget))

    required = [e for e in p.tree.half_edges if e not in unconstrained.marked]
    energy = {} if smap.region_energy is None else smap.region_energy
    floor = (eta * lambda0) ** 2 * (1.0 - EQ_SLACK)
    failures = tuple(e for e in required if e in energy and energy[e] < floor)
    # no energies at all is "unchecked" even when no edge requires one
    missing = smap.region_energy is None or any(e not in energy for e in required)
    energy_status = "failed" if failures else "unchecked" if missing else "ok"

    return MembershipVerdict(
        membership=report,
        image_ok=offender is None,
        image_offender=offender,
        lipschitz_rejections=tuple(rejections),
        lipschitz_pairs=pairs_checked,
        energy_status=energy_status,
        energy_failures=failures,
    )
