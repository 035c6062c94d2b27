"""Bubble configurations in the plane and their tree associations.

A bubble configuration is a finite set of points in the complex plane together
with a nonnegative radius at each point.  This module holds the constructive
side of energy concentration at the level of such configurations: type and
standardness predicates, threshold radii of atomic energy measures, greedy
selection of bubble points from a concentration profile, renormalization to
standard form, cluster selection in finite metric spaces, reduction of a
standard configuration to its cluster centers, and the recursive association
of a stable rooted tree with a moduli point whose chart positions recover the
bubble points.

Conventions: closed inequalities carry the same 1e-12 relative slack as the
membership checks in curves; position matching uses a 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .curves import (
    CompactnessParams,
    MembershipReport,
    ModuliPoint,
    _first_false,
    _leq,
    _leq_array,
    _moduli,
    chart_position,
    in_compact_subset,
)
from .errors import InputError, VerificationError
from .nets import FiniteMetricSpace, farthest_first
from .trees import RootedTree, Tree

EPS_MAX = 0.125
POSITION_TOL = 1e-9


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps <= EPS_MAX:
        raise InputError(f"eps must lie in (0, {EPS_MAX}], got {eps}")
    return eps


def _lex(z: complex) -> tuple[float, float]:
    return (z.real, z.imag)


@dataclass(frozen=True)
class BubbleConfiguration:
    """Finite set of bubble points with a radius function.

    points are stored sorted by (re, im); radius must be keyed by exactly the
    points.  An empty configuration is allowed (it is type eps vacuously but
    never standard).
    """

    points: tuple[complex, ...]
    radius: Mapping[complex, float]
    # the eps at which is_standard last accepted the configuration
    _standard_eps: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        pts = tuple(sorted((complex(z) for z in self.points), key=_lex))
        rad = {complex(z): float(r) for z, r in self.radius.items()}
        if len(set(pts)) != len(pts):
            raise InputError("bubble points must be distinct")
        if set(rad) != set(pts):
            raise InputError("radius keys must be exactly the bubble points")
        for z in pts:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InputError(f"bubble point {z} is not finite")
            if not math.isfinite(rad[z]) or rad[z] < 0.0:
                raise InputError(f"radius at {z} must be finite and nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "radius", rad)

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Moduli |z|, radii and the distance matrix |x - y|, in point order,
        equal to the scalar abs values.  Every pairwise check reads this
        one matrix."""
        pts = np.array(self.points, dtype=complex)
        rad = np.array([self.radius[z] for z in self.points], dtype=float)
        return _moduli(pts), rad, _moduli(np.subtract.outer(pts, pts))


def is_type_eps(cfg: BubbleConfiguration, eps: float) -> bool:
    """All points within eps of the origin, radii at most 4 eps, and the
    pairwise bound rho(x) + rho(y) <= (eps^2/4) |x - y|."""
    eps = _check_eps(eps)
    mod, rad, dist = cfg._arrays
    if not (_leq_array(mod, eps).all() and _leq_array(rad, 4.0 * eps).all()):
        return False
    quarter = eps * eps / 4.0
    ok = _leq_array(rad[:, None] + rad, quarter * dist)
    # both triangles hold the same values; the diagonal is no pair
    np.fill_diagonal(ok, True)
    return bool(ok.all())


def is_standard(cfg: BubbleConfiguration, eps: float) -> bool:
    """Type eps with 0 among the points and the eps bound attained.  The
    configuration remembers the eps it was last accepted at, so a second
    check at that eps is free."""
    eps = _check_eps(eps)
    if cfg._standard_eps == eps:
        return True
    if not is_type_eps(cfg, eps):
        return False
    mod = cfg._arrays[0]
    if not (mod == 0).any() or not _leq(eps, float(mod.max())):
        return False
    object.__setattr__(cfg, "_standard_eps", eps)
    return True


@dataclass(frozen=True)
class EnergyMeasure:
    """Purely atomic measure: finitely many point masses."""

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        atoms = tuple((complex(z), float(m)) for z, m in self.atoms)
        if not atoms:
            raise InputError("energy measure needs at least one atom")
        for z, m in atoms:
            if not (math.isfinite(z.real) and math.isfinite(z.imag) and math.isfinite(m)):
                raise InputError("atoms must be finite")
            if m <= 0.0:
                raise InputError(f"atom at {z} has nonpositive mass {m}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def threshold_radius(m: EnergyMeasure, w: complex, lam: float) -> float:
    """Smallest radius whose closed ball about w captures mass lambda^2.

    The infimum is attained because the ball mass is a right-continuous step
    function of the radius; it is 1-Lipschitz in w.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise InputError("lambda must be positive")
    need = lam * lam
    w = complex(w)
    if m.total_mass < need:
        raise InputError(
            f"total mass {m.total_mass} is below lambda^2 = {need}: "
            "no threshold radius exists (constant-map case)"
        )
    acc = 0.0
    pairs = sorted((abs(z - w), mass) for z, mass in m.atoms)
    for d, mass in pairs:
        acc += mass
        if acc >= need:
            return d
    # summation-order rounding can leave acc a hair short; the full ball works
    return pairs[-1][0]


@dataclass(frozen=True)
class ConcentrationProfile:
    """Energy atoms plus gradient samples and seed points.

    candidates lists (position, gradient magnitude) samples; seeds are the
    points that must appear in any selection, with radius zero.
    """

    measure: EnergyMeasure
    candidates: tuple[tuple[complex, float], ...]
    seeds: tuple[complex, ...]

    def __post_init__(self):
        cand = tuple((complex(z), float(g)) for z, g in self.candidates)
        seeds = tuple(complex(z) for z in self.seeds)
        for z, g in cand:
            if not (math.isfinite(z.real) and math.isfinite(z.imag) and math.isfinite(g)):
                raise InputError("candidates must be finite")
            if g < 0.0:
                raise InputError(f"candidate at {z} has negative gradient {g}")
        if len(set(seeds)) != len(seeds):
            raise InputError("seeds must be distinct")
        for z in seeds:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InputError(f"seed {z} is not finite")
        object.__setattr__(self, "candidates", cand)
        object.__setattr__(self, "seeds", seeds)


def select_bubble_points(
    profile: ConcentrationProfile, eps: float, lam: float
) -> BubbleConfiguration:
    """Grow the seed set until every strong-gradient candidate is covered.

    A candidate z above the gradient cut lambda/eps^2 is covered once some
    selected x has rho(x) <= r(z) and (eps^2/4)|z - x| < r(z) + rho(x), where
    r is the threshold radius.  While uncovered candidates exist that keep
    the required separation from everything selected, the one with minimal
    threshold radius (ties by (re, im)) is adjoined with rho = r.  Seeds keep
    radius zero.  The selection count obeys |T| <= |seeds| + floor(mass /
    lambda^2) and the threshold balls of the added points are disjoint.
    """
    eps = _check_eps(eps)
    lam = float(lam)
    if lam <= 0.0:
        raise InputError("lambda must be positive")
    cut = lam / (eps * eps)
    hot = sorted({z for z, g in profile.candidates if g >= cut}, key=_lex)
    for z in hot:
        if not _leq(abs(z), eps):
            raise InputError(
                f"candidate at {z} has gradient >= lambda/eps^2 but lies "
                f"outside the eps disc"
            )

    points = list(profile.seeds)
    rho: dict[complex, float] = {z: 0.0 for z in profile.seeds}
    r = {z: threshold_radius(profile.measure, z, lam) for z in hot}
    quarter = eps * eps / 4.0

    def covered(z: complex) -> bool:
        for x in points:
            if rho[x] <= r[z] and quarter * abs(z - x) < r[z] + rho[x]:
                return True
            if x == z and r[z] == 0.0:
                # a zero-radius threshold ball on a selected point needs no
                # strict margin
                return True
        return False

    def separated(z: complex) -> bool:
        return all(quarter * abs(z - x) >= r[z] + rho[x] for x in points)

    bound = len(profile.seeds)
    if hot:
        bound += math.floor(profile.measure.total_mass / (lam * lam))
    while True:
        pool = [z for z in hot if z not in rho and separated(z)]
        if not pool:
            break
        z_star = min(pool, key=lambda z: (r[z], z.real, z.imag))
        points.append(z_star)
        rho[z_star] = r[z_star]
        if len(points) > bound:
            raise VerificationError(
                f"selected more than {bound} points; the mass bound is broken"
            )

    added = points[len(profile.seeds) :]
    for x, y in combinations(added, 2):
        if abs(x - y) < rho[x] + rho[y]:
            raise VerificationError(
                f"threshold balls at {x} and {y} overlap; selection is broken"
            )
    for z in hot:
        if not covered(z):
            raise VerificationError(f"candidate at {z} remained uncovered")
    return BubbleConfiguration(tuple(points), rho)


def renormalize(
    cfg: BubbleConfiguration, eps: float
) -> tuple[BubbleConfiguration, float, complex]:
    """Translate and rescale so the configuration becomes standard.

    kappa is the maximal pairwise distance divided by eps; the base point
    x_star is taken from the lexicographically smallest ordered pair attaining
    that distance, except that a standard input prefers x_star = 0 when 0
    attains the maximum (which makes the map the identity there).  Returns the
    new configuration together with kappa and x_star.
    """
    eps = _check_eps(eps)
    pts = cfg.points
    if len(pts) < 2:
        raise InputError("renormalization needs at least two bubble points")
    dist = cfg._arrays[2]
    maxd = float(dist.max())
    kappa = maxd / eps
    # points are sorted by (re, im), so the least attaining ordered pair
    # starts at the first row that attains the maximum
    attains = (dist == maxd).any(axis=1)
    first = int(attains.argmax())
    if is_standard(cfg, eps) and attains[pts.index(0)]:
        first = pts.index(0)
    x_star = pts[first]
    new_radius = {(z - x_star) / kappa: cfg.radius[z] / kappa for z in pts}
    out = BubbleConfiguration(tuple(new_radius), new_radius)
    if not is_standard(out, eps):
        raise VerificationError(
            "renormalization did not yield a standard configuration; the "
            "input violates the pairwise radius bound"
        )
    return out, kappa, x_star


def cluster_select(
    space: FiniteMetricSpace, a: Callable[[int], float], s: int
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Select a net through s at the scales a(0) >= 2 a(1) >= 4 a(2) >= ...

    Cuts nets.farthest_first from s (ties by index) before the first point
    whose distance to the net does not exceed a(current size).  Returns the
    selected index set Zp and the retraction mapping every index to the unique
    net point within a(|Zp|).  Pairwise distances in Zp exceed a(|Zp| - 1);
    the halving of the scale sequence makes the retraction unambiguous.
    """
    n = space.n
    s = int(s)
    if not 0 <= s < n:
        raise InputError(f"base point index {s} out of range")
    avals = [float(a(i)) for i in range(n + 1)]
    for i, ai in enumerate(avals):
        if not (math.isfinite(ai) and ai > 0.0):
            raise InputError(f"a({i}) = {ai} must be positive and finite")
        if i + 1 <= n and avals[i + 1] > 0.5 * ai:
            raise InputError(f"a({i + 1}) exceeds a({i})/2; sequence must halve")

    selected = []
    for j, d in farthest_first(lambda i: space.dist[i], n, s):
        if not d > avals[len(selected)]:
            break
        selected.append(j)

    k = len(selected)
    sub = space.dist[np.ix_(selected, selected)]
    close_pairs = np.argwhere(np.triu(sub <= avals[k - 1], 1))
    if close_pairs.size:
        x, y = (selected[i] for i in close_pairs[0])
        raise VerificationError(
            f"net points {x}, {y} are within a({k - 1}); selection is broken"
        )
    within = space.dist[:, selected] <= avals[k]
    for x in np.flatnonzero(within.sum(axis=1) != 1):  # the first bad row raises
        close = [selected[i] for i in np.flatnonzero(within[x])]
        if not close:
            raise VerificationError(f"no net point within a({k}) of point {x}")
        raise VerificationError(
            f"ambiguous retraction: net points {close} all within a({k}) "
            f"of point {x}"
        )
    retraction = {x: selected[i] for x, i in enumerate(within.argmax(axis=1))}
    return tuple(sorted(selected)), retraction


def reduce(
    cfg: BubbleConfiguration, eps: float
) -> tuple[tuple[complex, ...], dict[complex, complex], dict[complex, float], int]:
    """Cluster a standard configuration at the scales (4 eps^3)^i from 0.

    Returns the cluster centers Tp, the retraction R of every point to its
    center, the enlarged center radii rho_p with rho_p(x) = max{(4 eps^3)^k /
    (4 eps^2), rho(x) / (4 eps)} for k = |Tp|, and k itself.  Verifies the
    separation 2 eps |x - y| >= rho_p(x) + rho_p(y), the cluster diameter
    bound |z - R(z)| <= 4 eps^2 rho_p(R(z)), the radius bound rho(z) <= 4 eps
    rho_p(R(z)), and that centers with satellites use exactly the cutoff
    radius.
    """
    eps = _check_eps(eps)
    if not is_standard(cfg, eps):
        raise InputError("reduction requires a standard configuration")
    pts = cfg.points
    n = len(pts)
    _, rad, dist = cfg._arrays
    space = FiniteMetricSpace(dist, labels=pts)
    base = 4.0 * eps**3
    sel, r_idx = cluster_select(space, lambda i: base**i, pts.index(0))
    k = len(sel)
    if k < 2:
        raise VerificationError(
            "a standard configuration must produce at least two centers"
        )
    centers = tuple(pts[i] for i in sel)
    retraction = {pts[i]: pts[r_idx[i]] for i in range(n)}
    cutoff = base**k / (4.0 * eps * eps)
    rho_p = {x: max(cutoff, cfg.radius[x] / (4.0 * eps)) for x in centers}

    # the first offender named is the first failing center pair in (x, y)
    # order, else the first failing point, with its first failing check
    rp = np.array([rho_p[x] for x in centers])
    ok = _leq_array(rp[:, None] + rp, 2.0 * eps * dist[np.ix_(sel, sel)])
    bad = np.flatnonzero(np.triu(~ok, 1))
    if bad.size:
        i, j = divmod(int(bad[0]), k)
        raise VerificationError(
            f"centers {centers[i]}, {centers[j]} violate the 2 eps separation bound"
        )
    r = np.fromiter(r_idx.values(), dtype=np.intp, count=n)
    rp_of = rp[np.searchsorted(sel, r)]  # rho_p at each point's center
    own = np.arange(n)
    in_disc = _leq_array(dist[own, r], 4.0 * eps * eps * rp_of)
    in_budget = _leq_array(rad, 4.0 * eps * rp_of)
    i = _first_false(in_disc & in_budget & ((r == own) | (rp_of == cutoff)))
    if i is not None:
        z, x = pts[i], pts[r[i]]
        if not in_disc[i]:
            raise VerificationError(f"point {z} strays outside its cluster disc")
        if not in_budget[i]:
            raise VerificationError(f"radius at {z} exceeds its cluster budget")
        raise VerificationError(f"center {x} has satellites but a non-cutoff radius")
    return centers, retraction, rho_p, k


@dataclass(frozen=True)
class AffineMap:
    """w -> offset + scale * w with a positive real scale."""

    offset: complex
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "offset", complex(self.offset))
        object.__setattr__(self, "scale", float(self.scale))
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise InputError(f"scale must be positive, got {self.scale}")

    def __call__(self, w: complex) -> complex:
        return self.offset + self.scale * complex(w)

    def invert(self, z: complex) -> complex:
        return (complex(z) - self.offset) / self.scale


def reduce_at(
    cfg: BubbleConfiguration, eps: float, x: complex
) -> tuple[BubbleConfiguration, float, AffineMap]:
    """Rescale the cluster of center x back to a standard configuration.

    gamma = sup |z - x| / (eps rho_p(x)) over the cluster lies in (0, 4 eps];
    the chart Phi(w) = x + gamma rho_p(x) w identifies the new configuration
    with the cluster.  Only centers with at least two points reduce.
    """
    eps = _check_eps(eps)
    _, retraction, rho_p, _ = reduce(cfg, eps)
    x = complex(x)
    if x not in rho_p:
        raise InputError(f"{x} is not a cluster center")
    cluster = [z for z in cfg.points if retraction[z] == x]
    if len(cluster) < 2:
        raise InputError(
            f"cluster at {x} is a single point; reduction needs an interior center"
        )
    return _rescale_cluster(cfg, eps, x, cluster, rho_p[x])


def _rescale_cluster(
    cfg: BubbleConfiguration, eps: float, x: complex, cluster: list, rho_x: float
) -> tuple[BubbleConfiguration, float, AffineMap]:
    """reduce_at's rescaling of the cluster of center x, of two or more points."""
    gamma = max(abs(z - x) for z in cluster) / (eps * rho_x)
    if not (gamma > 0.0 and _leq(gamma, 4.0 * eps)):
        raise VerificationError(f"gluing scale {gamma} escapes (0, 4 eps]")
    phi = AffineMap(x, gamma * rho_x)
    new_radius = {phi.invert(z): cfg.radius[z] / phi.scale for z in cluster}
    out = BubbleConfiguration(tuple(new_radius), new_radius)
    if not is_standard(out, eps):
        raise VerificationError(f"reduction at {x} is not standard")
    return out, gamma, phi


@dataclass(frozen=True)
class TreeAssociation:
    """Stable rooted tree and moduli point encoding a standard configuration.

    edge_to_bubble sends every external non-root edge to the bubble point its
    chart position recovers.
    """

    tree: RootedTree
    point: ModuliPoint
    root_vertex: int
    edge_to_bubble: Mapping[int, complex]

    def __post_init__(self):
        object.__setattr__(
            self,
            "edge_to_bubble",
            {int(e): complex(z) for e, z in self.edge_to_bubble.items()},
        )


def associate_tree(cfg: BubbleConfiguration, eps: float) -> TreeAssociation:
    """Build the rooted tree and moduli point of a standard configuration.

    Reduction yields the cluster centers of the root vertex: singleton
    clusters become external edges, larger clusters recurse after rescaling
    and attach through a full edge whose gluing coordinate is the cluster's
    gamma.  Disc centers and radii are the cluster centers and their enlarged
    radii.  Vertices and edges are numbered in depth-first order with root
    edge 0 and root vertex 1.  The root's reduction rejects a configuration
    that is not standard.
    """
    eps = _check_eps(eps)

    boundary: dict[int, tuple[int, ...]] = {}
    gamma: dict[int, complex] = {}
    zr: dict[tuple[int, int], tuple[complex, complex]] = {}
    edge_to_bubble: dict[int, complex] = {}
    counters = {"vertex": 0, "edge": 0}

    def fresh(kind: str) -> int:
        counters[kind] += 1
        return counters[kind]

    def build(sub: BubbleConfiguration, origin: dict[complex, complex],
              parent_vertex: int | None, in_edge: int) -> int:
        v = fresh("vertex")
        boundary[in_edge] = (v,) if parent_vertex is None else (parent_vertex, v)
        centers, retraction, rho_p, _ = reduce(sub, eps)
        clusters: dict[complex, list[complex]] = {x: [] for x in centers}
        for z in sub.points:
            clusters[retraction[z]].append(z)
        for x in centers:
            e = fresh("edge")
            zr[(v, e)] = (x, rho_p[x])
            cluster = clusters[x]
            if len(cluster) == 1:
                boundary[e] = (v,)
                edge_to_bubble[e] = origin[x]
            else:
                child, g, phi = _rescale_cluster(sub, eps, x, cluster, rho_p[x])
                gamma[e] = complex(g)
                child_origin = {phi.invert(z): origin[z] for z in cluster}
                build(child, child_origin, v, e)
        return v

    root_vertex = build(cfg, {z: z for z in cfg.points}, None, 0)
    vertices = sorted({v for ends in boundary.values() for v in ends})
    rooted = RootedTree(Tree(vertices, boundary), 0)
    if not rooted.is_stable():
        raise VerificationError("associated tree is unstable")
    point = ModuliPoint(rooted, gamma, zr)
    return TreeAssociation(rooted, point, root_vertex, edge_to_bubble)


def association_params(tree: RootedTree, eps: float) -> CompactnessParams:
    """Membership scales for tree associations: theta = eps, tau = 4 eps and
    the per-vertex radius floor (4 eps^3)^deg(v)."""
    eps = _check_eps(eps)
    base = 4.0 * eps**3
    alpha = {v: base ** tree.degree(v) for v in tree.vertices}
    return CompactnessParams(theta=eps, tau=4.0 * eps, alpha=alpha)


@dataclass(frozen=True)
class AssociationReport:
    """Checks that a tree association matches its configuration."""

    membership: MembershipReport
    position_errors: tuple[str, ...]
    gamma_errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.membership.ok and not self.position_errors and not self.gamma_errors

    def summary(self) -> str:
        if self.ok:
            return "association verified"
        parts = []
        if not self.membership.ok:
            parts.append(f"membership: {self.membership.first_violation}")
        parts.extend(self.position_errors)
        parts.extend(self.gamma_errors)
        return "; ".join(parts)


def verify_association(
    cfg: BubbleConfiguration, assoc: TreeAssociation, eps: float
) -> AssociationReport:
    """Check membership, chart positions and gluing coordinates of an
    association.

    The moduli point must lie in the compact subset at the association scales;
    the chart positions of the external non-root edges, seen from the root
    vertex, must match the bubble points one to one within 1e-9 and agree with
    edge_to_bubble; every gluing coordinate must be nonzero.  Failures are
    reported, not raised.
    """
    eps = _check_eps(eps)
    rooted = assoc.tree
    point = assoc.point
    membership = in_compact_subset(point, association_params(rooted, eps))

    position_errors: list[str] = []
    external = [e for e in rooted.half_edges if e != rooted.root_edge]
    mapped = dict(assoc.edge_to_bubble)
    if set(mapped) != set(external):
        position_errors.append(
            f"edge_to_bubble keys {sorted(mapped)} differ from the external "
            f"non-root edges {sorted(external)}"
        )
    pts = np.array(cfg.points, dtype=complex)
    remaining = np.ones(len(pts), dtype=bool)
    for e in sorted(external):
        (v_e,) = rooted.boundary[e]
        try:
            value = chart_position(point, assoc.root_vertex, v_e, e)
        except InputError as exc:
            position_errors.append(f"edge {e}: {exc}")
            continue
        # the nearest remaining point, ties to the first in point order
        left = np.flatnonzero(remaining)
        best = None
        if left.size:
            i = left[_moduli(pts[left] - value).argmin()]
            best = cfg.points[i]
        if best is None or abs(best - value) > POSITION_TOL:
            position_errors.append(
                f"edge {e}: chart position {value} matches no bubble point"
            )
            continue
        remaining[i] = False
        target = mapped.get(e)
        if target is not None and abs(target - best) > POSITION_TOL:
            position_errors.append(
                f"edge {e}: edge_to_bubble says {target} but the chart shows {best}"
            )
    for i in np.flatnonzero(remaining):
        position_errors.append(f"no edge position matches bubble point {cfg.points[i]}")

    gamma_errors = [
        f"gamma[{e}] = 0" for e in sorted(point.gamma) if point.gamma[e] == 0
    ]
    return AssociationReport(membership, tuple(position_errors), tuple(gamma_errors))
