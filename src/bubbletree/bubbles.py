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

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .curves import (
    CompactnessParams,
    MembershipReport,
    ModuliPoint,
    _leq,
    _leq_array,
    _moduli,
    chart_positions,
    in_compact_subset,
)
from .errors import InputError, VerificationError, require_scale
from .nets import FiniteMetricSpace, farthest_first
from .trees import RootedTree, Tree

EPS_MAX = 0.125
# absolute: chart positions lie in the eps disc, where they round absolutely
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
            if not cmath.isfinite(z):
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
            if not (cmath.isfinite(z) and math.isfinite(m)):
                raise InputError("atoms must be finite")
            if m <= 0.0:
                raise InputError(f"atom at {z} has nonpositive mass {m}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        """The rounded sum of the atom masses, kept for display;
        threshold_radius compares exact sums."""
        return sum(m for _, m in self.atoms)


def threshold_radius(m: EnergyMeasure, w: complex, lam: float) -> float:
    """Smallest radius whose closed ball about w captures mass lambda^2.

    The infimum is attained because the ball mass is a right-continuous step
    function of the radius; it is 1-Lipschitz in w.  The total and the
    running ball mass are compared with the double lambda * lambda in exact
    arithmetic of the same doubles, so rounding never credits a ball with
    mass it lacks, and the loop stops at the latest on the last atom.
    """
    lam = float(lam)
    require_scale("lambda", lam)
    need = lam * lam
    w = complex(w)
    masses = [Fraction(mass) for _, mass in m.atoms]
    short = Fraction(need) - sum(masses)
    if short > 0:
        raise InputError(
            f"total mass {m.total_mass} is below lambda^2 = {need} by "
            f"{float(short):.3g}: no threshold radius exists (constant-map case)"
        )
    acc = 0
    for d, mass in sorted(zip((abs(z - w) for z, _ in m.atoms), masses)):
        acc += mass
        if acc >= need:
            break
    return d


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
            if not (cmath.isfinite(z) and math.isfinite(g)):
                raise InputError("candidates must be finite")
            if g < 0.0:
                raise InputError(f"candidate at {z} has negative gradient {g}")
        if len(set(seeds)) != len(seeds):
            raise InputError("seeds must be distinct")
        for z in seeds:
            if not cmath.isfinite(z):
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
    radius zero.

    Certificate: the added balls are disjoint and every candidate above the
    cut is covered, with no check after the loop.  An added y passed quarter
    |y - x| >= r(y) + rho(x) against each x selected before it, with quarter
    = eps^2/4 <= 1/256, so that rounded distance is at least 255 times that
    rounded sum.  A selected candidate, seed or added, covers itself.  Any
    other candidate z ends unseparated; the earliest selected x that it is
    not separated from is a seed (rho = 0 <= r(z)) or was picked while z was
    in the pool, so rho(x) = r(x) <= r(z).  Hence |T| <= |seeds| + floor(M /
    need) in exact arithmetic, with M the exact sum of the atom masses and
    need the double lambda * lambda: threshold_radius gives each added point
    a ball of exact mass at least need, and disjoint balls share no atom.
    """
    eps = _check_eps(eps)
    lam = float(lam)
    require_scale("lambda", lam)
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

    def separated(z: complex) -> bool:
        return all(quarter * abs(z - x) >= r[z] + rho[x] for x in points)

    while True:
        pool = [z for z in hot if z not in rho and separated(z)]
        if not pool:
            break
        z_star = min(pool, key=lambda z: (r[z], z.real, z.imag))
        points.append(z_star)
        rho[z_star] = r[z_star]
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
    the halving of the scale sequence makes the retraction unambiguous.  Only
    the rungs read, a(0) .. a(|Zp|), must be positive, finite and halving.
    A rung is a float or an exact Fraction, and every comparison of one is
    exact.  The traversal compares double distances with the rung itself.
    Halving reads 2 a(i+1) > a(i): doubling is exact short of overflow, so
    for normal doubles this is the verdict of a(i+1) > a(i) / 2, and it stays
    exact where a(i) is subnormal and 0.5 a(i) rounds (at eps = 0.07,
    reduce's a(113) is 5e-324, and 0.5 * 5e-324 is 0.0).  The retraction
    compares the matrix with the largest double not above a(k): float(a(k)),
    one step down when it rounded up.  A double d lies within that double
    exactly when d <= a(k).

    Certificate: with k = |Zp|, the net is separated and retracts every
    point without a check of either.  The matrix is exactly symmetric with
    a zero diagonal on both constructors of FiniteMetricSpace.  The
    traversal admits the point of rank i only when its minimum over the
    earlier points, read from the same entries, exceeds a(i), and the
    halving check gives a(i) >= a(k - 1) for i < k, so net points lie
    farther than a(k - 1) apart.  It stops at the first d <= a(k), d the
    largest minimum over the unselected points, or after selecting every
    point, and a net point's own entry is 0 < a(k): every point has a net
    point within a(k).  Only uniqueness is checked, because the space may
    break the triangle inequality by its 1e-9 tolerance.
    """
    n = space.n
    s = int(s)
    if not 0 <= s < n:
        raise InputError(f"base point index {s} out of range")
    avals, selected = [a(0)], []
    for j, d in farthest_first(space.lower, n, s):
        if not d > avals[-1]:
            break
        selected.append(j)
        avals.append(a(len(selected)))

    k = len(selected)
    for i, ai in enumerate(avals):
        if not (math.isfinite(ai) and ai > 0.0):
            raise InputError(f"a({i}) = {ai} must be positive and finite")
        if i + 1 <= k and 2 * avals[i + 1] > ai:
            raise InputError(f"a({i + 1}) exceeds a({i})/2; sequence must halve")

    cut = float(avals[k])
    within = space.dist[:, selected] <= (math.nextafter(cut, 0) if cut > avals[k] else cut)
    for x in np.flatnonzero(within.sum(axis=1) > 1):  # the first bad row raises
        close = [selected[i] for i in np.flatnonzero(within[x])]
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
    (4 eps^2), rho(x) / (4 eps)} for k = |Tp|, and k itself.

    Certificate: the reduction lemma's four inequalities hold without a
    check, in exact arithmetic.  The rung a(i) = (4 eps^3)^i is the double
    base**i while that is nonzero and the exact Fraction(base) ** i past it,
    so the ladder is one number per rung and no read of it underflows.
    cluster_select puts the centers more than a(k - 1) apart and every
    satellite z within a(k) of its center x, and cutoff = a(k) / (4 eps^2) =
    eps a(k - 1).  When base**k underflows, the exact a(k) lies below
    2^-1074, so only a distance of 0 lies within it; distinct doubles have a
    nonzero difference under gradual underflow, so every cluster is a
    singleton, the cutoff rounds to 0.0 and rho_p = rho / (4 eps).  Then (2)
    and (4) are vacuous, (3) is the definition of rho_p, and (1) reads
    (rho(x) + rho(y)) / (4 eps) <= (eps / 16) |x - y| by type eps.
    (1) Separation 2 eps |x - y| >= rho_p(x) + rho_p(y): the cutoff is below
    eps |x - y|, and type eps gives rho(x) / (4 eps) <= (eps / 16) |x - y|,
    so each rho_p is below eps |x - y|.  (2) Cluster disc |z - x| <= a(k) =
    4 eps^2 cutoff <= 4 eps^2 rho_p(x).  (3) Radius budget rho(z) <= 4 eps
    rho_p(x): at a center by the definition of rho_p, and at a satellite
    type eps gives rho(z) <= (eps^2 / 4) a(k) <= 4 eps cutoff.  (4) A center
    with a satellite has rho(x) / (4 eps) <= (eps^3 / 4) cutoff < cutoff by
    the same bound, so its rho_p is exactly the cutoff.  While the cutoff is
    a normal double these hold far inside EQ_SLACK; once a rung is
    subnormal, the rounded cutoff and 2 eps |x - y| can break (1) beyond
    EQ_SLACK (by 56% on one such configuration at eps = 0.05), so a check
    of it would reject standard input.  verify_association reads the
    sibling separation at tau = 4 eps, twice as loose.

    The distance matrix |x - y| passes FiniteMetricSpace's checks without
    them (u = 2^-53).  IEEE negation is exact and x - x = 0, so it is
    exactly symmetric with a zero diagonal; standardness
    puts every point in the closed eps disc, so entries are finite and at
    most 2 eps.  The differences round by u and hypot by under one ulp, so
    each entry is within a factor 1 +- 3u of the exact distance, plus a few
    2^-1074 when subnormal, and the triangle inequality holds within about
    7u (d_ij + d_jk), far inside its 1e-9 tolerance.  k >= 2 without a
    check: a(0) = 1 admits the point 0 at distance inf, and standardness
    puts the farthest point from 0 at |z| >= eps (1 - 1e-12), beyond
    a(1) = 4 eps^3 <= eps / 16, so it is admitted too.
    """
    eps = _check_eps(eps)
    if not is_standard(cfg, eps):
        raise InputError("reduction requires a standard configuration")
    pts = cfg.points
    space = FiniteMetricSpace._certified(cfg._arrays[2], pts)
    base = 4.0 * eps**3
    sel, r_idx = cluster_select(space, lambda i: base**i or Fraction(base) ** i, pts.index(0))
    k = len(sel)
    centers = tuple(pts[i] for i in sel)
    retraction = {pts[i]: pts[j] for i, j in r_idx.items()}
    cutoff = base**k / (4.0 * eps * eps)
    rho_p = {x: max(cutoff, cfg.radius[x] / (4.0 * eps)) for x in centers}
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

    gamma = sup |z - x| / (eps rho_p(x)) over the cluster lies in (0, 4 eps]
    up to rounding (see _rescale_cluster); the chart Phi(w) = x + gamma
    rho_p(x) w identifies the new configuration with the cluster.  Only
    centers with at least two points reduce.
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
    """reduce_at's rescaling of the cluster of center x, of two or more
    points, as reduce returned it.

    Certificate: gamma lies in (0, 4 eps] and the output is standard, up
    to rounding, with no check of either.  The cluster holds a z != x, and
    reduce retracts z to x only when the rounded |z - x| <= a(k) = (4
    eps^3)^k > 0; a center with satellites has rho_x = a(k) / (4 eps^2), by
    reduce's certificate.  So gamma = max |z - x| / (eps rho_x) <= 4 eps, and
    gamma > 0: a positive double over eps rho_x = a(k) / (4 eps), which lies
    in [2 a(k), 1).  The map w = (z - x) / (gamma rho_x) scales every
    distance and radius of the cluster by one factor, so the exact images
    keep each inequality of is_standard, with w = 0 at x and |w| = eps at
    the farthest point; the cluster's separation leaves radii of at most
    eps^3 / 4.  Rounding moves gamma and the images by a few u while the
    cutoff is a normal double, and by more when it is subnormal, so a check
    of either would reject members: a sibling pair at its slack edge, far
    closer to each other than to x, loses the slack to the rounding of
    w - w'.  verify_association's membership check reads gamma against
    tau = 4 eps.  The output is marked standard at eps.
    """
    gamma = max(abs(z - x) for z in cluster) / (eps * rho_x)
    phi = AffineMap(x, gamma * rho_x)
    new_radius = {phi.invert(z): cfg.radius[z] / phi.scale for z in cluster}
    out = BubbleConfiguration(tuple(new_radius), new_radius)
    object.__setattr__(out, "_standard_eps", eps)
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

    Certificate: the tree is stable without a check, because every vertex
    that build makes has its in-edge plus one edge per center of its
    reduction, which has k >= 2 centers (see reduce).
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
    point = ModuliPoint(rooted, gamma, zr)
    return TreeAssociation(rooted, point, root_vertex, edge_to_bubble)


def association_params(tree: RootedTree, eps: float) -> CompactnessParams:
    """Membership scales for tree associations: theta = eps, tau = 4 eps and
    the per-vertex radius floor alpha_v = (4 eps^3)^deg(v).

    Where the double (4 eps^3)^deg underflows to 0.0, alpha_v is the stand-in
    5e-324 = 2^-1074, the least positive double.  The exact floor then lies
    below 2^-1074 and no double lies between it and the stand-in, so
    alpha_v <= |rho| gives the exact verdict for every double |rho|: true
    from 5e-324 up, false at 0, where the 1e-12 relative slack rounds to 0.
    CompactnessParams keeps its 0 < alpha check.
    """
    eps = _check_eps(eps)
    base = 4.0 * eps**3
    alpha = {v: base ** tree.degree(v) or math.ulp(0.0) for v in tree.vertices}
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
    # every position from one descent, and one table of their distances to
    # the bubble points; a pair is missing when root_vertex is not above it
    at_vertex = assoc.root_vertex in rooted.children
    positions = chart_positions(point, assoc.root_vertex) if at_vertex else {}
    pairs = [(rooted.boundary[e][0], e) for e in sorted(external)]
    values = np.array([positions.get(k, math.nan) for k in pairs], dtype=complex)
    gaps = _moduli(np.array(cfg.points, dtype=complex) - values[:, None])
    remaining = np.ones(cfg.size, dtype=bool)
    for (v_e, e), row in zip(pairs, gaps):
        if (v_e, e) not in positions:
            position_errors.append(
                f"edge {e}: no positive path from {assoc.root_vertex} to {v_e}"
            )
            continue
        # the nearest remaining point, ties to the first in point order;
        # both tolerance tests fail on NaN
        masked = np.where(remaining, row, np.inf)
        i = int(masked.argmin()) if cfg.size else None
        if i is None or not masked[i] <= POSITION_TOL:
            position_errors.append(
                f"edge {e}: chart position {positions[(v_e, e)]} matches no bubble point"
            )
            continue
        remaining[i] = False
        best, target = cfg.points[i], mapped.get(e)
        if target is not None and not abs(target - best) <= POSITION_TOL:
            position_errors.append(
                f"edge {e}: edge_to_bubble says {target} but the chart shows {best}"
            )
    for i in np.flatnonzero(remaining):
        position_errors.append(f"no edge position matches bubble point {cfg.points[i]}")

    gamma_errors = [
        f"gamma[{e}] = 0" for e in sorted(point.gamma) if point.gamma[e] == 0
    ]
    return AssociationReport(membership, tuple(position_errors), tuple(gamma_errors))
