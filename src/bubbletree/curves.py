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
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, VerificationError
from .nets import (
    TIE_RTOL,
    FiniteMetricSpace,
    ProjPoint,
    hopf_units,
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
    sets must match the tree exactly.
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

    def z(self, v: int, e: int) -> complex:
        return self.zr[(v, e)][0]

    def rho(self, v: int, e: int) -> complex:
        return self.zr[(v, e)][1]

    def gamma_of(self, e: int) -> complex:
        return self.gamma[e]


def coordinate_count(tree: RootedTree) -> int:
    """Number of complex coordinates: the full edges plus two per child pair."""
    return len(tree.full_edges) + 2 * len(tree.coordinate_pairs())


def chart_position(p: ModuliPoint, u: int, v: int, e: int) -> complex:
    """Position of the disc at (v, e) as seen in the chart of an ancestor u.

    Telescopes z down the positive path from u to v: each step contributes
    its own disc center, scaled by the product of gamma * rho factors of the
    edges already traversed.  With u = v this is just z_{v,e}.
    """
    path = positive_path(p.tree, u, v)
    if path is None:
        raise InputError(f"no positive path from {u} to {v}")
    total = 0.0 + 0.0j
    prefix = 1.0 + 0.0j
    for k, w in enumerate(path):
        if k + 1 < len(path):
            step = p.tree.parent_edge[path[k + 1]]
            total += prefix * p.z(w, step)
            prefix *= p.gamma_of(step) * p.rho(w, step)
        else:
            total += prefix * p.z(w, e)
    return total


def position_gaps(p: ModuliPoint):
    """Pairwise chart-position differences entering the discriminant.

    Yields (u, (v, e), (v', e'), difference) over unordered pairs of
    non-root edges, with u their nearest common ancestor.  Pairs that hang
    below u through one shared child edge are skipped: their difference
    carries that edge's gluing factor, so it vanishes on nodal fibers and
    says nothing about the gluing data being degenerate.  The pairs are the
    tree's diverging_pairs, found once per tree.
    """
    t = p.tree
    coords = t.coordinate_pairs()
    position = functools.cache(functools.partial(chart_position, p))
    for k, i, j in diverging_pairs(t).tolist():
        u, a, b = t.vertices[k], coords[i], coords[j]
        yield u, a, b, position(u, *a) - position(u, *b)


def fiber_discriminant(p: ModuliPoint) -> complex:
    """Product of the diverging-pair chart-position gaps and all full-edge rho.

    Nonzero exactly when the fiber is a reduced nodal curve with distinct
    special points; every constructed member of a compact subset keeps this
    bounded away from zero.
    """
    out = 1.0 + 0.0j
    for _, _, _, gap in position_gaps(p):
        out *= gap
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
    if p._member is None or p._member[0] is not c:
        object.__setattr__(p, "_member", (c, report, None))
    return report


# ---------------------------------------------------------------------------
# fiber points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """A point of one curve of the family: one projective point per vertex."""

    coords: Mapping[int, ProjPoint]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", {int(v): pt.normalized() for v, pt in self.coords.items()}
        )

    def at(self, v: int) -> ProjPoint:
        return self.coords[v]

    def affine(self, v: int) -> complex | None:
        """Chart value at v, or None for the point at infinity."""
        pt = self.coords[v]
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
        """The given points of a fiber over the tree t, as a batch."""
        verts = tuple(sorted(t.vertices))
        pts = [q.coords[v] for q in points for v in verts]
        shape = (len(points), len(verts))
        xs = np.array([a.x for a in pts], dtype=complex).reshape(shape)
        ys = np.array([a.y for a in pts], dtype=complex).reshape(shape)
        return cls(verts, xs, ys)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiberBatch(self.vertices, self.xs[i], self.ys[i])
        # the row already holds what FiberPoint stores; normalizing it once
        # more could flip the sign of a zero, so the row is set as it is
        q = object.__new__(FiberPoint)
        row = zip(self.vertices, self.xs[i].tolist(), self.ys[i].tolist())
        object.__setattr__(q, "coords", {v: ProjPoint(a, b) for v, a, b in row})
        return q


def fiber_residual(p: ModuliPoint, q: FiberPoint) -> float:
    """Largest relative defect of the gluing equations at q."""
    if set(q.coords) != set(p.tree.vertices):
        raise InputError("fiber point must carry one coordinate per vertex")
    worst = 0.0
    for e in p.tree.full_edges:
        u, v = p.tree.e_minus[e], p.tree.e_plus[e]
        a, b = q.at(u), q.at(v)
        lhs = (a.x - p.z(u, e) * a.y) * b.y
        rhs = p.gamma_of(e) * p.rho(u, e) * b.x * a.y
        den = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / den)
    return worst


def _require_on_fiber(p: ModuliPoint, q: FiberPoint) -> None:
    res = fiber_residual(p, q)
    if res > RESIDUAL_TOL:
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
    return ProjPoint(num, den).normalized()


def _parent_coord(p: ModuliPoint, child: ProjPoint, u: int, e: int) -> ProjPoint:
    """Coordinate at e- induced by the child coordinate through edge e."""
    num = p.z(u, e) * child.y + p.gamma_of(e) * p.rho(u, e) * child.x
    den = child.y
    if num == 0 and den == 0:
        # degenerate edge with the child at infinity: the whole child
        # component sits over the node
        return ProjPoint(p.z(u, e), 1.0)
    return ProjPoint(num, den).normalized()


def _complete(p: ModuliPoint, coords: dict[int, ProjPoint], v: int) -> FiberPoint:
    """The fiber point through the given coordinates, v among them: the
    others are propagated up the parent chain of v, then down every branch
    still missing."""
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
    return FiberPoint(coords)


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


def _pack(re, im) -> np.ndarray:
    """Complex array with these parts (re + 1j * im can flip a zero's sign)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(a, b) -> np.ndarray:
    """CPython's complex product."""
    return _pack(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


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
    return _pack(re / denom, im / denom)


def _normalize(x: np.ndarray, y: np.ndarray):
    """ProjPoint.normalized: divide by the coordinate of larger modulus,
    y on a tie within TIE_RTOL (abs is hypot); [0 : 0] is not allowed."""
    y_big = np.hypot(y.real, y.imag) >= np.hypot(x.real, x.imag) * (1.0 - TIE_RTOL)
    q = _cdiv(np.where(y_big, x, y), np.where(y_big, y, x))
    return np.where(y_big, q, 1.0), np.where(y_big, 1.0, q)


def _fiber_batch(p: ModuliPoint, v: int, x: np.ndarray, y: np.ndarray):
    """_fiber_through for the N points with chart coordinates [x : y] at v.

    Returns the points as a FiberBatch, and per point the vertex whose
    coordinate _child_coord rejects at a node (where _fiber_through raises),
    or -1.  A rejected point's later coordinates are meaningless.
    """
    t = p.tree
    coords = {v: _normalize(x, y)}
    cur = v
    while cur != t.root_vertex:
        e = t.parent_edge[cur]
        u = t.e_minus[e]
        z, gr = p.z(u, e), p.gamma_of(e) * p.rho(u, e)
        cx, cy = coords[cur]
        num = _cmul(z, cy) + _cmul(gr, cx)
        hit = (num == 0) & (cy == 0)
        nx, ny = _normalize(num, np.where(hit, 1.0, cy))
        coords[u] = np.where(hit, z, nx), np.where(hit, 1.0, ny)
        cur = u
    node = np.full(len(x), -1)
    for w in t.order:
        if w in coords:
            continue
        e = t.parent_edge[w]
        u = t.e_minus[e]
        px, py = coords[u]
        num = px - _cmul(p.z(u, e), py)
        den = _cmul(p.gamma_of(e) * p.rho(u, e), py)
        hit = (num == 0) & (den == 0)
        node[hit & (node < 0)] = w
        coords[w] = _normalize(num, np.where(hit, 1.0, den))
    verts = tuple(sorted(t.vertices))
    # FiberPoint normalizes the coordinates _fiber_through hands it once more
    xs, ys = _normalize(
        np.stack([coords[w][0] for w in verts], axis=1),
        np.stack([coords[w][1] for w in verts], axis=1),
    )
    return FiberBatch(verts, xs, ys), node


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
    u = e- marks the disc center [z_{u,e} : 1] in the chart of u; ancestor
    charts see the telescoped position, and all other branches are filled by
    propagation.
    """
    t = p.tree
    if e not in t.half_edges:
        raise InputError(f"edge {e} is not external")
    if e == t.root_edge:
        return FiberPoint({v: ProjPoint(1.0, 0.0) for v in t.vertices})
    u = t.e_minus[e]
    chain = positive_path(t, t.root_vertex, u)
    coords = {w: ProjPoint(chart_position(p, w, u, e), 1.0) for w in chain}
    return _complete(p, coords, t.root_vertex)


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
    sub = piece.tree
    gamma = {}
    for e in sub.full_edges:
        origin = piece.edge_origin[e]
        gamma[e] = p.gamma_of(origin)
    zr = {}
    for v, e in sub.coordinate_pairs():
        origin = piece.edge_origin[e]
        if isinstance(origin, tuple):
            origin = origin[0]
        zr[(v, e)] = p.zr[(v, origin)]
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

    by_origin: dict[tuple[int, int], tuple[int, int]] = {}
    for i, sub in enumerate(components):
        for e, origin in sub.piece.edge_origin.items():
            if isinstance(origin, tuple):
                by_origin[origin] = (i, e)

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


def _phi_component(p: ModuliPoint, q: FiberPoint, u: int, e: int) -> ProjPoint:
    """Disc-rescaled chart at (u, e), e a child edge of u."""
    a = q.at(u)
    num = a.x - p.z(u, e) * a.y
    den = p.rho(u, e) * a.y
    if num == 0 and den == 0:
        raise VerificationError(f"rescaled chart at ({u}, {e}) is degenerate")
    return ProjPoint(num, den).normalized()


def embed(p: ModuliPoint, q: FiberPoint) -> dict[tuple[int, int], ProjPoint]:
    """Embed a fiber point into the product of spheres over incident pairs.

    At (v, e) with v = e+ the component is the plain chart value at v; at
    (u, e) with e a child edge of u it is the disc-rescaled value.  The
    plain components alone already separate points, so the embedding is
    injective fiberwise.
    """
    _require_on_fiber(p, q)
    t = p.tree
    out = {}
    for v, e in t.incident_pairs():
        if t.e_plus[e] == v:
            out[(v, e)] = q.at(v)
        else:
            out[(v, e)] = _phi_component(p, q, v, e)
    return out


def embedded_distance(p: ModuliPoint, q1: FiberPoint, q2: FiberPoint) -> float:
    """Distance in the product of spheres: max over components."""
    e1, e2 = embed(p, q1), embed(p, q2)
    return max(sphere_distance(e1[k], e2[k]) for k in e1)


def _mark_distance(q1: FiberPoint, q2: FiberPoint) -> float:
    return max(sphere_distance(q1.at(v), q2.at(v)) for v in q1.coords)


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

    circles maps each incident pair (v, e) to (center, radius) in the chart
    of v: the unit circle when v = e+, or the disc boundary around z_{v,e}
    of radius |rho_{v,e}| when e is a child edge of v.

    table is the region table both classify forms read.  The k-th circle
    gives two verdicts on a point's chart value at v: column 2k, inside its
    closed disc, and 2k + 1, outside its open disc (infinity is outside every
    disc).  table[r] lists the columns whose conjunction is membership in
    regions[r], as region_contains defines it (see _region_terms).
    """

    point: ModuliPoint
    params: CompactnessParams
    circles: Mapping[tuple[int, int], tuple[complex, float]]
    regions: tuple[Region, ...]
    table: tuple[tuple[int, ...], ...]

    def classify(self, q: FiberPoint) -> tuple[Region, ...]:
        """All regions containing q.

        Interior points land in exactly one region; points on a boundary
        circle land in exactly the two regions meeting there.  Each chart
        value of q and each distance to a disc center is computed once.
        """
        val = {v: q.affine(v) for v in self.point.tree.vertices}
        ok = [b for (v, _), c in self.circles.items() for b in _disc_verdicts(val[v], *c)]
        hit = ok.__getitem__
        return tuple(r for r, cols in zip(self.regions, self.table) if all(map(hit, cols)))

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
    first, then the geometric facts the regions rely on: every child disc
    stays inside the half-disc, and dilations of sibling discs by any factor
    below 1/tau remain disjoint.

    The checks run once per (p, c) pair: the passing membership report and
    then the checked decomposition are kept on p and read again for the same
    params object; other params are checked afresh, and a failed check keeps
    nothing.
    """
    kept = p._member
    if kept is None or kept[0] is not c:
        report = in_compact_subset(p, c)
        if not report.ok:
            raise VerificationError(f"not a member: {report.first_violation}")
        kept = (c, report, None)
    if kept[2] is not None:
        return kept[2]
    t = p.tree
    circles = {(v, e): _circle(p, v, e) for v, e in t.incident_pairs()}
    for v in sorted(t.vertices):
        kids = t.child_edges(v)
        for e in kids:
            z, r = circles[(v, e)]
            if not _leq(abs(z) + r, 3.0 * c.theta):
                raise VerificationError(
                    f"child disc ({v},{e}) leaves the half disc: |z| + r = "
                    f"{abs(z) + r} > {3 * c.theta}"
                )
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                zi, ri = circles[(v, kids[i])]
                zj, rj = circles[(v, kids[j])]
                if not _leq((ri + rj) / c.tau, abs(zi - zj)):
                    raise VerificationError(
                        f"dilated discs ({v},{kids[i]}) and ({v},{kids[j]}) collide"
                    )
    regions = [Region("thick", vertex=v) for v in sorted(t.vertices)]
    regions += [Region("neck", edge=e) for e in t.full_edges]
    regions += [Region("end", edge=e) for e in t.half_edges]
    column = {pair: 2 * k for k, pair in enumerate(circles)}
    table = tuple(
        tuple(column[pair] + out for pair, out in _region_terms(t, r)) for r in regions
    )
    dec = ThickThinDecomposition(p, c, circles, tuple(regions), table)
    object.__setattr__(p, "_member", (c, kept[1], dec))
    return dec


def _disc_verdicts(x: complex | None, center: complex, radius: float):
    """(x inside the closed disc, x outside the open disc); None is infinity.
    These are _leq both ways, sharing one slack: both sides are moduli."""
    if x is None:
        return False, True
    d = abs(x - center)
    slack = EQ_SLACK * max(d, radius)
    return d <= radius + slack, radius <= d + slack


def _region_terms(t: RootedTree, region: Region):
    """region_contains as terms ((v, e), outside) that must all hold, each
    a _disc_verdicts entry on the circle of (v, e); v's unit circle is the
    circle of (v, its parent edge)."""
    v, e = region.vertex, region.edge
    if region.kind == "thick":
        return [((v, t.parent_edge[v]), 0)] + [((v, f), 1) for f in t.child_edges(v)]
    if region.kind == "neck":
        return [((t.e_minus[e], e), 0), ((t.e_plus[e], e), 1)]
    return [((t.root_vertex, e), 1)] if e == t.root_edge else [((t.e_minus[e], e), 0)]


def _circle(p: ModuliPoint, v: int, e: int) -> tuple[complex, float]:
    if p.tree.e_plus[e] == v:
        return 0.0 + 0.0j, 1.0
    return p.z(v, e), abs(p.rho(v, e))


def region_contains(p: ModuliPoint, region: Region, q: FiberPoint) -> bool:
    """Closed-region membership with boundary slack.

    Thick at v: chart value in the closed unit disc and outside every open
    child disc.  Neck at e: inside the closed disc of (e-, e) and outside
    the open unit disc of e+; on the fiber this is the annulus between the
    two boundary circles of the edge.  End at the root edge: outside the
    open unit disc of the root vertex; end at another external edge: inside
    the closed disc of (e-, e).  A region that does not fit the tree of p
    raises InputError.
    """
    t = p.tree
    if region.kind == "thick":
        fits = region.vertex in t.vertices
    else:
        fits = region.edge in (t.full_edges if region.kind == "neck" else t.half_edges)
    if not fits:
        raise InputError(f"region {region} does not fit the tree")
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


def _region_distances(p: ModuliPoint, region: Region, batch: FiberBatch, rows, i, j):
    """region_distance from batch row rows[i[k]] to rows[j[k]] for index
    arrays i and j, bit for bit: the components in the scalar order (the
    thick region's chart; per edge endpoint, the plain chart at e+ and the
    disc-rescaled one at e-), then their max (no distance is NaN)."""
    t, at, e = p.tree, batch.vertices.index, region.edge
    out = None
    for u in [region.vertex] if region.kind == "thick" else t.boundary[e]:
        x, y = batch.xs[rows, at(u)], batch.ys[rows, at(u)]
        if region.kind != "thick" and t.e_plus[e] != u:
            num, den = x - _cmul(p.z(u, e), y), _cmul(p.rho(u, e), y)
            if np.any((num == 0) & (den == 0)):
                raise VerificationError(f"rescaled chart at ({u}, {e}) is degenerate")
            x, y = _normalize(num, den)
        d = _pair_distances(x, y, i, j)
        out = d if out is None else np.maximum(out, d)
    return out


def _pair_distances(x: np.ndarray, y: np.ndarray, i, j) -> np.ndarray:
    """sphere_distance from [x[i] : y[i]] to [x[j] : y[j]] for index arrays
    i and j, bit for bit (see check_map_membership)."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    norm = np.array(list(map(math.hypot, _moduli(x).tolist(), _moduli(y).tolist())))
    re = (xr[i] * yr[j] - xi[i] * yi[j]) - (yr[i] * xr[j] - yi[i] * xi[j])
    im = (xr[i] * yi[j] + xi[i] * yr[j]) - (yr[i] * xi[j] + yi[i] * xr[j])
    s = np.hypot(re, im) / (norm[i] * norm[j])
    # min(1.0, s) as Python takes it: NaN becomes 1.0
    s = np.where(s < 1.0, s, 1.0)
    return 2.0 * np.array(list(map(math.asin, s.tolist())))


def region_distance(
    p: ModuliPoint, region: Region, q1: FiberPoint, q2: FiberPoint
) -> float:
    """Intrinsic distance used on one region of the decomposition.

    Thick regions compare the plain chart values at the vertex; necks and
    ends take the max of the embedding components over the edge's endpoints.
    A point outside the region, or a region that does not fit the tree,
    raises InputError.
    """
    for q in (q1, q2):
        if not region_contains(p, region, q):
            raise InputError(f"point outside region {region}")
    batch = FiberBatch.of(p.tree, (q1, q2))
    return float(_region_distances(p, region, batch, [0, 1], [0], [1])[0])


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
    t = p.tree
    if e not in t.full_edges:
        raise InputError(f"edge {e} is not full")
    g = p.gamma_of(e)
    mod = abs(g)
    if not 0.0 < mod < 1.0:
        raise InputError("need 0 < |gamma_e| < 1 for neck coordinates")
    big_r = -0.5 * math.log(mod)
    if abs(s) > big_r * (1.0 + EQ_SLACK):
        raise InputError(f"|s| = {abs(s)} exceeds the neck half-length {big_r}")
    delta = math.sqrt(mod)
    phase = cmath.exp(0.5j * cmath.phase(g))
    z_u = delta * phase * cmath.exp(-(s + 1j * t_angle))
    z_v = delta * phase * cmath.exp(s + 1j * t_angle)
    u, v = t.e_minus[e], t.e_plus[e]
    coords = {
        u: ProjPoint(p.z(u, e) + p.rho(u, e) * z_u, 1.0),
        v: ProjPoint(1.0, z_v),
    }
    return _complete(p, coords, u)


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
    = |gamma_e| (e^{2s} + e^{-2s}) per unit cylinder area.
    """
    mod = abs(p.gamma_of(e))
    if not 0.0 < mod < 1.0:
        raise InputError("need 0 < |gamma_e| < 1 for neck coordinates")
    return mod * (math.exp(2.0 * s) + math.exp(-2.0 * s))


def neck_chart_values(
    p: ModuliPoint, e: int, q: FiberPoint
) -> tuple[complex, complex]:
    """The two local chart values (z_u, z'_v) of a point of the neck of e."""
    t = p.tree
    u, v = t.e_minus[e], t.e_plus[e]
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
        # absolute (dsq < 1): a * b of unit-disc points rounds absolutely
        if abs(a * b - dsq) > 1e-9 * max(1.0, dsq):
            raise InputError(f"point ({a}, {b}) violates the fiber equation")
        if abs(a) > 1.0 + EQ_SLACK or abs(b) > 1.0 + EQ_SLACK:
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
    """Which smooth component of the split fiber carries q.

    Points on the parent side of a degenerate edge freeze to [1:0] on every
    vertex beyond it, so q sits beyond a node exactly when some coordinate
    past that edge moves away from [1:0].
    """
    t = p.tree
    far = ProjPoint(1.0, 0.0)
    current = sf.component_of_vertex[t.root_vertex]
    while True:
        moved = False
        for node in sf.nodes:
            if node.parent_component != current:
                continue
            top = t.e_plus[node.edge]
            beyond = [w for w in t.vertices if positive_path(t, top, w) is not None]
            if any(sphere_distance(q.at(w), far) > RESIDUAL_TOL for w in beyond):
                current = node.child_component
                moved = True
                break
        if not moved:
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
    """
    if len(marks) != 4:
        raise InputError("need exactly four marked points")
    for q in marks:
        _require_on_fiber(p, q)
    for i in range(4):
        for j in range(i + 1, 4):
            if _mark_distance(marks[i], marks[j]) <= RESIDUAL_TOL:
                raise InputError(f"marked points {i} and {j} coincide")

    sf = split_fiber(p)
    where = [_locate_component(sf, p, q) for q in marks]

    children: dict[int, list[FiberNode]] = {i: [] for i in range(len(sf.components))}
    parent_node: dict[int, FiberNode] = {}
    for node in sf.nodes:
        children[node.parent_component].append(node)
        parent_node[node.child_component] = node

    def subtree_marks(comp: int) -> set[int]:
        out = {i for i, c in enumerate(where) if c == comp}
        for node in children[comp]:
            out |= subtree_marks(node.child_component)
        return out

    # walk toward the component with at least three marks on one side
    current = sf.component_of_vertex[p.tree.root_vertex]
    while True:
        advanced = False
        for node in children[current]:
            if len(subtree_marks(node.child_component)) >= 3:
                current = node.child_component
                advanced = True
                break
        if advanced:
            continue
        own_and_below = subtree_marks(current)
        if len(own_and_below) <= 1 and current in parent_node:
            current = parent_node[current].parent_component
            continue
        break

    root_vertex = sf.components[current].piece.tree.root_vertex

    sides: list[tuple[set[int], ProjPoint]] = []
    for node in children[current]:
        far_marks = subtree_marks(node.child_component)
        if far_marks:
            sides.append((far_marks, node.parent_point.at(root_vertex)))
    if current in parent_node:
        above = set(range(4)) - subtree_marks(current)
        if above:
            sides.append((above, ProjPoint(1.0, 0.0)))

    for far_marks, _ in sides:
        if len(far_marks) >= 3:
            raise VerificationError("no stable component isolates the marks")
        if len(far_marks) == 2:
            pair = far_marks if 3 in far_marks else set(range(4)) - far_marks
            partner = (pair - {3}).pop()
            return UNIT_TARGETS[partner]

    positions = []
    for i, q in enumerate(marks):
        if where[i] == current:
            positions.append(q.at(root_vertex))
        else:
            for far_marks, anchor in sides:
                if i in far_marks:
                    positions.append(anchor)
                    break
    for i in range(4):
        for j in range(i + 1, 4):
            if sphere_distance(positions[i], positions[j]) <= RESIDUAL_TOL:
                raise VerificationError(
                    f"marks {i} and {j} collide after contraction"
                )
    return four_point_value(positions)


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------


def anchor_points(
    p: ModuliPoint,
) -> tuple[list[tuple[tuple[int, int], int]], FiberBatch]:
    """Three circle-anchored points per incident pair.

    For each (v, e) the three unit-circle anchors are pulled back through
    the chart at that pair; the results sit on the boundary circles of the
    decomposition.  Returns the (pair, anchor index) label of every point
    and the points as one FiberBatch in the same order.  The anchors of one
    vertex v are propagated in one batch.
    """
    t = p.tree
    pairs = t.incident_pairs()
    verts = tuple(sorted(t.vertices))
    labels, xs, ys = [], [], []
    for v in verts:
        plain = []
        for e in [e for w, e in pairs if w == v]:
            for k, target in enumerate(UNIT_TARGETS):
                if t.e_plus[e] == v:
                    plain.append((target.x, target.y))
                else:
                    x = target.x * p.rho(v, e) + p.z(v, e) * target.y
                    plain.append((x, target.y))
                labels.append(((v, e), k))
        batch, node = _fiber_batch(p, v, *np.array(plain, dtype=complex).T)
        hits = np.flatnonzero(node >= 0)
        if hits.size:
            raise _node_error(t, int(node[hits[0]]))
        xs.append(batch.xs)
        ys.append(batch.ys)
    return labels, FiberBatch(verts, np.concatenate(xs), np.concatenate(ys))


FILL_SKIP_LIMIT = 64

# a ring candidate this close in the charts to a chosen point is skipped
FILL_SEPARATION = 1e-6


def _near_pairs(xs: np.ndarray, ys: np.ndarray, ns: np.ndarray, below: float, col: int):
    """Row pairs i < k within `below` of each other in the charts.

    Rows hold (x, y, norm) per vertex as nets.sphere_coords returns them;
    the chart distance is the max over vertices of the sphere distance.
    Returns (i, k, distance) in row-major order, in O(n log n + candidates)
    by a fixed-radius sweep (Bentley, Stanat & Williams 1977).  As unit
    vectors of R^3 the rows' chord is at most the sphere distance d, so a
    pair with d < below is closer than below in every coordinate at every
    vertex.  Sorted by the widest-spread coordinate at vertex column col,
    each row meets the later rows within reach of it there, and a pair is a
    candidate while its chord is within reach at every vertex; every
    candidate is measured by sphere_distances.  Reach is below + 1e-12: for
    below <= 1 a measured pair's exact chord exceeds below by under 1e-14
    (nets._lower_screened), and rounding moves a unit vector by under 32u,
    4e-15 (nets.hopf_units).
    """
    n, n_verts = xs.shape
    units = hopf_units(xs, ys, ns)
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
    dist = sphere_distances(xs[i], ys[i], ns[i], xs[k], ys[k], ns[k]).max(axis=1)
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
    RESIDUAL_TOL too.  Fails if m is below the anchor count, the ring skips
    exceed the limit, or two points collide.
    """
    t = p.tree
    mu = len(t.incident_pairs())
    if m < 3 * mu:
        raise InputError(f"m = {m} is below the anchor count {3 * mu}")
    for q in marked:
        _require_on_fiber(p, q)
    labels, anchors = anchor_points(p)

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
    ring, node = _fiber_batch(p, v0, vals, np.ones_like(vals))

    # one row per point: the marked points, the anchors, every ring candidate
    given = FiberBatch.of(t, marked)
    xs = np.concatenate([given.xs, anchors.xs, ring.xs])
    ys = np.concatenate([given.ys, anchors.ys, ring.ys])
    n_fixed = len(marked) + len(anchors)
    ns = np.hypot(np.abs(xs), np.abs(ys))
    pairs = _near_pairs(xs, ys, ns, FILL_SEPARATION, given.vertices.index(v0))

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
    are missing.

    Cost: one region_matrix pass over the samples, then per region one
    vector of distortions over its sample pairs.  Every distance equals the
    scalar sphere_distance by bits: the cross term is CPython's complex
    product taken part by part (numpy's complex product may fuse a
    multiply-add), its modulus np.hypot of the parts (which is complex
    abs), while the norms and the arcsine stay in math.  On uniform inputs
    np.arcsin differs from math.asin on 202,226 of 2.4M values in [0, 1),
    and np.hypot from math.hypot on 6,190 of 1M pairs in [0, 2)^2.
    """
    report = in_compact_subset(p, c)
    allowed = set(target_subset)
    offender = next(
        (i for i, (_, tgt) in enumerate(smap.samples) if tgt not in allowed), None
    )

    rejections = []
    pairs_checked = 0
    if report.ok:
        decomp = decomposition(p, c)
        batch = FiberBatch.of(p.tree, [q for q, _ in smap.samples])
        targets = np.array([tgt for _, tgt in smap.samples])
        for region, inside in zip(decomp.regions, decomp.region_matrix(batch).T):
            if region not in lam:
                raise InputError(f"no Lipschitz budget for region {region}")
            budget = lam[region] * lambda0
            members = np.flatnonzero(inside)
            worst = 0.0
            if len(members) > 1:
                k = np.arange(len(members))
                i, j = np.nonzero(k[:, None] < k)
                d_dom = _region_distances(p, region, batch, members, i, j)
                keep = d_dom > 0.0
                pairs_checked += int(keep.sum())
                ti, tj = targets[members[i[keep]]], targets[members[j[keep]]]
                with np.errstate(over="ignore"):
                    ratio = smap.target.dist[ti, tj] / d_dom[keep]
                # as in a scalar loop, only a ratio above 0.0 moves the max
                worst = float(ratio[ratio > 0.0].max(initial=0.0))
            if worst > budget * (1.0 + EQ_SLACK):
                rejections.append((region, worst, budget))

    required = [e for e in p.tree.half_edges if e not in unconstrained.marked]
    if smap.region_energy is None:
        energy_status, failures = "unchecked", ()
    else:
        missing = [e for e in required if e not in smap.region_energy]
        failures = tuple(
            e
            for e in required
            if e in smap.region_energy
            and smap.region_energy[e] < (eta * lambda0) ** 2 * (1.0 - EQ_SLACK)
        )
        if failures:
            energy_status = "failed"
        elif missing:
            energy_status = "unchecked"
        else:
            energy_status = "ok"

    return MembershipVerdict(
        membership=report,
        image_ok=offender is None,
        image_offender=offender,
        lipschitz_rejections=tuple(rejections),
        lipschitz_pairs=pairs_checked,
        energy_status=energy_status,
        energy_failures=failures,
    )
