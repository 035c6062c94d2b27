"""Metric-space calculus: sphere geometry, Hausdorff distance, nets, covers.

Provides geodesic distance on the round sphere of total area 4*pi (realized
as the projective line in homogeneous coordinates), finite metric spaces with
validated axioms, sphere samples as arrays built once, the Hausdorff distance
of finite subsets from their cross-distance matrix, gamma-nets in the strict
sense (d_H < gamma), on a finite base an index set into it, greedy nets as
prefixes of one farthest-point traversal (shared with bubbles.cluster_select;
on sphere samples it measures exactly only where a certified screen says a
minimum can move), exact minimal nets, a latitude-band net of the sphere,
the distance max(d_T, graph Hausdorff) between members of a family of maps,
and the cover of a family of Lipschitz maps over a base by explicit cells.
Continuous spaces enter only through finite samplings supplied by the caller.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ResourceCapError, VerificationError

# set-cover search is exponential in the worst case; refuse big instances
EXACT_NU_CAP = 25

# total (anchor, assignment) cell evaluations allowed in mapspace_cover
MAPSPACE_CELL_CAP = 2_000_000

# relative gap below which ProjPoint.normalized treats |x| and |y| as tied
TIE_RTOL = 1e-12

# cosine slack of the sphere screen (_lower_screened); rounding needs < 1e-13
SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line in homogeneous coordinates [x : y].

    Scale equivalence [x : y] = [c*x : c*y] is respected by every operation
    in this module.  The normalized form divides by the coordinate of larger
    modulus, so one slot is exactly 1.0 and max(|x|, |y|) = 1.  Moduli that
    agree to TIE_RTOL count as a tie and y is preferred, so rounding in a
    rescaled copy [c*x : c*y] of a tie cannot flip the chosen slot.
    """

    x: complex
    y: complex

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        if self.x == 0 and self.y == 0:
            raise InputError("projective point needs a nonzero coordinate")

    @classmethod
    def from_affine(cls, z: complex) -> "ProjPoint":
        return cls(complex(z), 1.0)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(1.0, 0.0)

    def to_affine(self) -> complex:
        if self.y == 0:
            raise InputError("[1:0] has no affine coordinate")
        return self.x / self.y

    def norm(self) -> float:
        return math.hypot(abs(self.x), abs(self.y))

    def normalized(self) -> "ProjPoint":
        if abs(self.y) >= abs(self.x) * (1.0 - TIE_RTOL):
            return ProjPoint(self.x / self.y, 1.0)
        return ProjPoint(1.0, self.y / self.x)


def sphere_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Geodesic distance on the round sphere of total area 4*pi.

    Equals 2*arcsin(|x_p y_q - y_p x_q| / (||p|| ||q||)); symmetric, with
    diameter pi attained exactly at antipodal pairs.
    """
    cross = abs(p.x * q.y - p.y * q.x)
    s = cross / (p.norm() * q.norm())
    # rounding can push the sine ratio epsilon above 1
    return 2.0 * math.asin(min(1.0, s))


def sphere_coords(points: Sequence[ProjPoint]):
    """Arrays (x, y, norm) of homogeneous coordinates, one entry per point."""
    xs = np.array([p.x for p in points], dtype=complex)
    ys = np.array([p.y for p in points], dtype=complex)
    return xs, ys, np.hypot(np.abs(xs), np.abs(ys))


def sphere_distances(ax, ay, an, bx, by, bn) -> np.ndarray:
    """sphere_distance on broadcast arrays: a and b are (x, y, norm) triples
    as sphere_coords returns them, or any broadcastable slices of such."""
    cross = np.abs(ax * by - ay * bx)
    # the ratio is >= 0 or NaN; rounding can push it epsilon above 1
    return 2.0 * np.arcsin(np.minimum(cross / (an * bn), 1.0))


def sphere_pairwise(a: Sequence[ProjPoint], b: Sequence[ProjPoint]) -> np.ndarray:
    """Matrix of sphere distances, rows indexing a and columns indexing b."""
    ax, ay, an = sphere_coords(a)
    bx, by, bn = sphere_coords(b)
    return sphere_distances(ax[:, None], ay[:, None], an[:, None], bx, by, bn)


def hopf_units(xs, ys, ns) -> np.ndarray:
    """Hopf images (2 a conj(b), |a|^2 - |b|^2) of the normalized points
    [a : b] = [x : y] / norm, on a new first axis (xs, ys, ns broadcast as
    from sphere_coords): unit vectors of R^3 whose dot product is the cosine
    of the sphere distance and whose chord is at most that distance.

    Error bound, which both sphere screens cite (u = 2^-53; norms within
    2^+-500, so ns is normal and underflow adds under 2^-1000).  numpy's
    complex abs errs by 3u and hypot by 2u, so ns errs by 5u, and x / ns
    rounds twice (through 1 / ns): a coordinate of a or b errs by 7u
    relative.  A component of 2 a conj(b) sums two products, 14u from the
    inputs and 2u from its own roundings, times 2 |a||b| <= 1: 16u.  |a|^2
    errs by 2 (7u + 3u) + u and the difference rounds by u: 22u.  A computed
    image is thus within sqrt(2 * 16^2 + 22^2) u < 32u of the exact one U,
    and the dot product g of two, which rounds by 3u, has |g - U_p . U_q|
    <= 67u (second-order terms stay below u).
    """
    a, b = xs / ns, ys / ns
    w = 2.0 * a * b.conj()
    return np.stack([w.real, w.imag, np.abs(a) ** 2 - np.abs(b) ** 2])


@dataclass(frozen=True, eq=False)
class SphereSample:
    """Sphere points as arrays built once by sphere_sample: labels holds the
    ProjPoints, xs, ys, ns their sphere_coords, u their (3, n) hopf_units."""

    labels: tuple
    xs: np.ndarray
    ys: np.ndarray
    ns: np.ndarray
    u: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)


def sphere_sample(points: Sequence) -> SphereSample:
    """The SphereSample of ProjPoints or (x, y) pairs, nonempty and finite."""
    labels = tuple(p if isinstance(p, ProjPoint) else ProjPoint(*p) for p in points)
    if not labels:
        raise InputError("need at least one point")
    xs, ys, ns = sphere_coords(labels)
    if not np.all(np.isfinite(ns)):
        raise InputError("sphere point coordinates must be finite")
    return SphereSample(labels, xs, ys, ns, hopf_units(xs, ys, ns))


def fibonacci_sphere_points(n: int) -> list[ProjPoint]:
    """Deterministic quasi-uniform sample of n points on the sphere."""
    if n < 1:
        raise InputError("need at least one sample point")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    points = []
    for k in range(n):
        height = 1.0 - 2.0 * (k + 0.5) / n
        phi = 2.0 * math.pi * ((k / golden) % 1.0)
        # affine radius tan(theta/2) for colatitude theta = arccos(height)
        r = math.sqrt(max(0.0, 1.0 - height * height)) / (1.0 + height)
        points.append(ProjPoint(complex(r * math.cos(phi), r * math.sin(phi)), 1.0))
    return points


class FiniteMetricSpace:
    """Finite metric space given by an explicit distance matrix.

    Validates symmetry, zero diagonal, nonnegativity, and the triangle
    inequality on construction.  The last is O(n^3) arithmetic in O(n^2)
    memory: about 3.5 ms at n = 128, 40 ms at n = 300 and 2.1 s at n = 1000 on
    a 2-vCPU VM, so spaces of a few hundred points build in well under a
    second.  labels carries one opaque payload per point.
    """

    __slots__ = ("dist", "labels")

    def __init__(self, dist, labels: Sequence | None = None):
        d = np.array(dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InputError("distance matrix must be square")
        n = d.shape[0]
        if n < 1:
            raise InputError("metric space needs at least one point")
        if not np.all(np.isfinite(d)):
            raise InputError("distances must be finite")
        if np.any(d < 0):
            raise InputError("distances must be nonnegative")
        # absolute below diameter 1: coordinates of order 1 round absolutely
        scale = max(1.0, float(d.max()))
        tol = 1e-9 * scale
        if np.any(np.abs(np.diag(d)) > tol):
            raise InputError("diagonal must be zero")
        if np.any(np.abs(d - d.T) > tol):
            raise InputError("distance matrix must be symmetric")
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        # d[i,k] <= d[i,j] + d[j,k] + tol for all i, j, k.  Rounding is
        # monotone, so the check holds for every middle point j exactly when
        # it holds for the smallest sum over j.  Row j of the symmetric d is
        # its column; one buffer takes each sum in turn (a row copy plus a
        # column add runs faster than np.add.outer).
        low = np.full_like(d, math.inf)
        buf = np.empty_like(d)
        for j in range(n):
            np.copyto(buf, d[j])
            buf += d[j][:, None]
            np.minimum(low, buf, out=low)
        if np.any(d > low + tol):
            for j in range(n):
                if np.any(d > d[:, j : j + 1] + d[j : j + 1, :] + tol):
                    raise InputError(f"triangle inequality fails through point {j}")
        d.setflags(write=False)
        self.dist = d
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise InputError("labels must match the point count")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def distance(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def diameter(self) -> float:
        return float(self.dist.max())

    def lower(self, mind: np.ndarray, j: int) -> None:
        """Lower mind in place to the distances from point j."""
        np.minimum(mind, self.dist[j], out=mind)

    @classmethod
    def from_points(cls, points: Sequence, metric: Callable) -> "FiniteMetricSpace":
        pts = list(points)
        n = len(pts)
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = metric(pts[i], pts[j])
        return cls(d, labels=pts)

    @classmethod
    def from_sphere(cls, points: Sequence[ProjPoint]) -> "FiniteMetricSpace":
        pts = list(points)
        return cls(sphere_pairwise(pts, pts), labels=pts)


def hausdorff_from_matrix(d: np.ndarray) -> float:
    """Hausdorff distance given the rectangular cross-distance matrix."""
    if d.size == 0:
        raise InputError("Hausdorff distance needs nonempty sets")
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _require_scale(name: str, value: float) -> None:
    # written so that NaN and inf fail it too
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, eq=False, kw_only=True)
class Net:
    """A gamma-net: every base point lies strictly within radius of the net.

    On a finite base (a FiniteMetricSpace or a SphereSample) a net is its
    indices, distinct, in [0, n) and at least one (else InputError); its
    points are base.labels there, and construction verifies the strict
    covering property.  A net of the continuous sphere has points and no
    base, and its construction guarantees the cover.
    """

    radius: float
    indices: tuple | None = None
    base: FiniteMetricSpace | SphereSample | None = None
    points: tuple | None = None

    def __post_init__(self):
        _require_scale("net radius", self.radius)
        if self.base is None:
            if self.points is None or self.indices is not None:
                raise InputError("a net without a base needs points and no indices")
            return
        if not isinstance(self.base, (FiniteMetricSpace, SphereSample)):
            raise InputError(f"a net's base cannot be a {type(self.base).__name__}")
        if self.points is not None:
            raise InputError("a net on a finite base takes indices, not points")
        indices = _net_indices(self.indices, self.base.n)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "points", tuple(self.base.labels[i] for i in indices))
        cov = self.covering_distance()
        if cov >= self.radius:
            raise VerificationError(
                f"not a net: covering distance {cov} >= radius {self.radius}"
            )

    @property
    def size(self) -> int:
        return len(self.points)

    def covering_distance(self):
        """Exact d_H(points, base) on a finite base, else None: the directed
        distance from the base to the net, whose points belong to it.  On a
        sphere sample each net point lowers fresh nearest distances through
        _lower_screened, which is sound whatever the margin: a skipped pair
        can only leave a distance too large, so a wrong screen could reject a
        valid net, never accept an invalid one.
        """
        if self.base is None:
            return None
        if isinstance(self.base, FiniteMetricSpace):
            sub = self.base.dist[:, list(self.indices)]
            return float(sub.min(axis=1).max())
        near = np.full(self.base.n, math.inf)
        cosm = np.full(self.base.n, -math.inf)
        for j in self.indices:
            _lower_screened(near, cosm, self.base, j, base_first=True)
        return float(near.max())


def _net_indices(indices, n: int) -> tuple:
    """indices as distinct ints in [0, n), at least one, else InputError."""
    try:
        ks = tuple(operator.index(i) for i in indices)
    except TypeError:
        raise InputError(f"net indices {indices!r} are not integers (n = {n})") from None
    if not ks:
        raise InputError(f"a net needs at least one index into its n = {n} points")
    seen = set()
    for k in ks:
        if not 0 <= k < n or k in seen:
            what = "repeats" if k in seen else "is outside [0, n)"
            raise InputError(f"net index {k} {what} for n = {n}")
        seen.add(k)
    return ks


def _lower_screened(mind, cosm, base: SphereSample, j: int, base_first: bool) -> None:
    """Lower mind in place to the sphere distances from row j of base,
    measuring only the rows whose screen g = U @ U_j exceeds cosm =
    cos(mind) - SCREEN_MARGIN (-inf while mind is inf), which it keeps in
    step.  sphere_distances takes the base first when base_first: complex
    products round by operand order.

    Margin (u = 2^-53; norms within 2^+-500, beyond which the formula itself
    errs and only the covering check's soundness holds).  hopf_units bounds
    |g - cos theta| by 67u, theta the exact angle.  The sine ratio s errs by
    20u absolutely: the two complex products by 3u norm_a norm_b, their
    difference and its abs by 1.5u and 3u, and the norms (5u each), their
    product and the quotient by 12u relative.  cos(2 arcsin s) = 1 - 2 s^2
    moves 4 per unit of s and d = 2 arcsin s rounds within 2 pi u, so
    |cos d - cos theta| <= 87u near 0 and near pi alike.  If d < m, both in
    [0, pi], then cos d > cos m, so g > cos m - 154u > cosm + SCREEN_MARGIN -
    160u (numpy's cos errs by 4u, the subtraction by 2u).  Every point whose
    minimum moves passes, with a factor of over 50,000 to spare, so the
    minima are those of the full row bit for bit.
    """
    xs, ys, ns = base.xs, base.ys, base.ns
    (idx,) = (base.u[:, j] @ base.u > cosm).nonzero()
    if base_first:
        d = sphere_distances(xs[idx], ys[idx], ns[idx], xs[j], ys[j], ns[j])
    else:
        d = sphere_distances(xs[j], ys[j], ns[j], xs[idx], ys[idx], ns[idx])
    low = np.minimum(mind[idx], d)
    mind[idx] = low
    cosm[idx] = np.cos(low) - SCREEN_MARGIN


def _sphere_lowering(base: SphereSample):
    """farthest_first's lowering step on a sphere sample, through the screen."""
    cosm = np.full(base.n, -math.inf)

    def lower(mind, j):
        _lower_screened(mind, cosm, base, j, base_first=False)
        cosm[j] = math.inf  # j leaves with mind[j] = -inf: it must never pass

    return lower


def farthest_first(lower: Callable[[np.ndarray, int], None], n: int, start: int):
    """Gonzalez's farthest-point traversal of n points, from start.

    lower(mind, j) lowers mind in place to the distances from point j to
    all n points (FiniteMetricSpace.lower for a matrix).  Lazily yields
    (index, distance to the points yielded before it; inf for start), each
    index the farthest point not yet yielded, ties to the lowest index.  Every
    prefix is a net at the next distance; lower runs only as it advances.
    """
    mind = np.full(n, math.inf)
    j, d = int(start), math.inf
    for _ in range(n - 1):
        yield j, d
        lower(mind, j)
        mind[j] = -math.inf
        j = int(np.argmax(mind))
        d = float(mind[j])
    yield j, d


def greedy_net(space, gamma: float) -> Net:
    """Farthest-point net: the farthest_first prefix from index 0 down to gamma.

    Accepts a FiniteMetricSpace or sphere points, which sphere_sample turns
    into the net's base once.  Deterministic: ties go to the lowest index.
    The result is always a valid gamma-net of the given base; it need not be
    minimal.  On sphere points a centre is measured only where
    _lower_screened's screen says a minimum can move, with the unscreened
    traversal's indices and distances.
    """
    _require_scale("net radius gamma", gamma)
    finite = isinstance(space, FiniteMetricSpace)
    base = space if finite else sphere_sample(space)
    lower = space.lower if finite else _sphere_lowering(base)
    chosen = []
    for j, d in farthest_first(lower, base.n, 0):
        if d < gamma:
            break
        chosen.append(j)
    return Net(radius=gamma, indices=tuple(chosen), base=base)


def sphere_net(gamma: float) -> Net:
    """Explicit gamma-net of the round sphere by latitude bands.

    For gamma > pi a single point suffices; for gamma > pi/2 the two poles
    do (every point is within pi/2 of one of them).  Otherwise rows are
    placed at colatitudes j*pi/M with M = ceil(pi / (0.9 gamma)), the poles
    as single points, and ceil(sin(theta) * pi / (0.5 gamma)) points per
    interior row.  Any sphere point is then within 0.45 gamma of a row and
    within 0.5 gamma along it, so the covering distance is at most
    0.95 gamma < gamma.  Sizes stay under the 8 pi / gamma^2 area bound for
    the radii this package exercises, though not under the sharper cap
    bound 2 / (1 - cos(gamma / 2)).
    """
    _require_scale("net radius gamma", gamma)
    if gamma > math.pi:
        points = [ProjPoint(0.0, 1.0)]
    elif gamma > math.pi / 2.0:
        points = [ProjPoint(0.0, 1.0), ProjPoint.infinity()]
    else:
        rows = math.ceil(math.pi / (0.9 * gamma))
        points = [ProjPoint(0.0, 1.0)]
        for j in range(1, rows):
            theta = j * math.pi / rows
            count = max(1, math.ceil(math.sin(theta) * math.pi / (0.5 * gamma)))
            r = math.tan(theta / 2.0)
            for k in range(count):
                phi = 2.0 * math.pi * k / count
                points.append(
                    ProjPoint(complex(r * math.cos(phi), r * math.sin(phi)), 1.0)
                )
        points.append(ProjPoint.infinity())
    return Net(radius=gamma, points=tuple(points))


def minimal_net(space: FiniteMetricSpace, gamma: float) -> Net:
    """A minimum-cardinality gamma-net of a finite space, by exact search.

    Branch-and-bound over the set cover by open gamma-balls, seeded with the
    greedy net as an upper bound.  Refuses spaces above EXACT_NU_CAP points.
    """
    _require_scale("net radius gamma", gamma)
    n = space.n
    if n > EXACT_NU_CAP:
        raise ResourceCapError(f"{n} points exceeds the exact-net cap {EXACT_NU_CAP}")
    masks = ((space.dist < gamma) @ (1 << np.arange(n))).tolist()
    full = (1 << n) - 1
    first_for = {m: masks.index(m) for m in masks}
    max_cover = max(bin(m).count("1") for m in first_for)
    # the distinct balls covering each point, in index order
    covers_of = [[(m, i) for m, i in first_for.items() if m >> j & 1] for j in range(n)]

    best = list(greedy_net(space, gamma).indices)

    def search(covered: int, chosen: list):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = chosen.copy()
            return
        remaining = bin(full & ~covered).count("1")
        if len(chosen) + math.ceil(remaining / max_cover) >= len(best):
            return
        # branch on the uncovered point with the fewest candidate balls
        options = min((covers_of[j] for j in range(n) if not covered >> j & 1), key=len)
        options = sorted(options, key=lambda mi: -bin(mi[0] & ~covered).count("1"))
        for m, i in options:
            chosen.append(i)
            search(covered | m, chosen)
            chosen.pop()

    search(0, [])
    return Net(radius=gamma, indices=tuple(sorted(best)), base=space)


def exact_nu(space: FiniteMetricSpace, gamma: float) -> int:
    """The covering number: minimum size of a gamma-net of the space."""
    return minimal_net(space, gamma).size


@dataclass(frozen=True)
class FiberMap:
    """One member of a family over a base: a map from a fiber into a codomain.

    t indexes the base point, fiber lists the domain points (indices into
    the ambient domain space, distinct), and values[i] is the index of the
    image of fiber[i] in the codomain space.
    """

    t: int
    fiber: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "fiber", tuple(self.fiber))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.fiber) != len(self.values):
            raise InputError("fiber and values must have equal length")
        if len(set(self.fiber)) != len(self.fiber):
            raise InputError("fiber points must be distinct")


def graph_hausdorff(
    space_z: FiniteMetricSpace,
    space_w: FiniteMetricSpace,
    a: FiberMap,
    b: FiberMap,
) -> float:
    """Hausdorff distance between the graphs of two members in Z x W.

    Graph points (z, f(z)) are compared under max(d_Z, d_W).  Two empty
    graphs are at distance 0; an empty graph is infinitely far from a
    nonempty one.
    """
    if not a.fiber or not b.fiber:
        return 0.0 if a.fiber == b.fiber else math.inf
    d = np.maximum(
        space_z.dist[np.ix_(a.fiber, b.fiber)],
        space_w.dist[np.ix_(a.values, b.values)],
    )
    return hausdorff_from_matrix(d)


def mapspace_distance(
    space_t: FiniteMetricSpace,
    space_z: FiniteMetricSpace,
    space_w: FiniteMetricSpace,
    a: FiberMap,
    b: FiberMap,
) -> float:
    """Distance max(d_T, graph Hausdorff) between two family members."""
    return max(float(space_t.dist[a.t, b.t]), graph_hausdorff(space_z, space_w, a, b))


@dataclass(frozen=True, eq=False)
class MapSpaceCover:
    """Cover of a family of Lipschitz maps by cells of diameter < 4 delta.

    sets lists the distinct nonempty cells as sorted tuples of member
    indices; assignments keeps one witnessing (anchor, values-per-net-point)
    pair per cell, with None standing for the "fiber avoids this point"
    option.  count_bound is |A| (1 + |C|)^|B|, the number of candidate cells.
    """

    sets: tuple
    assignments: tuple
    gamma: float
    count_bound: int
    net_t: Net
    net_z: Net
    net_w: Net


def _require_lipschitz(space_z, space_w, members, lam):
    for k, m in enumerate(members):
        for (zi, wi), (zj, wj) in itertools.combinations(zip(m.fiber, m.values), 2):
            dz = float(space_z.dist[zi, zj])
            dw = float(space_w.dist[wi, wj])
            if dw > lam * dz:
                raise VerificationError(
                    f"member {k} is not {lam}-Lipschitz: domain pair ({zi}, {zj}) "
                    f"at distance {dz} maps to points ({wi}, {wj}) at distance {dw}"
                )


def mapspace_cover(
    space_t: FiniteMetricSpace,
    space_z: FiniteMetricSpace,
    space_w: FiniteMetricSpace,
    family: Sequence[FiberMap],
    lam: float,
    delta: float,
) -> MapSpaceCover:
    """Cover a family of Lipschitz maps over a base by explicit cells.

    Builds minimal nets A in the base (radius delta), B in the domain
    (delta / lam), C in the codomain (delta), then takes gamma = delta *
    (1 - 2^-20), which must exceed the covering radii of A and C and lam
    times that of B so that all three stay strict nets; VerificationError
    otherwise.  A member (t, f) lands in the cell of (a, h) when d(t, a) <=
    gamma and, for each net point b of B: h(b) is the avoidance marker only
    if the fiber stays farther than gamma / lam from b, and h(b) = c
    requires a fiber point within gamma / lam of b whose image is within
    gamma of c.  Every member lands in at least one cell, cells have
    diameter < 4 delta in the max(d_T, graph-Hausdorff) metric, and the
    number of candidate cells is |A| (1 + |C|)^|B|.
    """
    if not 1.0 <= lam < math.inf:
        raise InputError(
            f"Lipschitz constant lambda must be at least 1 and finite, got {lam}"
        )
    _require_scale("delta", delta)
    members = list(family)
    for k, m in enumerate(members):
        if not 0 <= m.t < space_t.n:
            raise InputError(f"member {k}: base index {m.t} out of range")
        if any(not 0 <= z < space_z.n for z in m.fiber):
            raise InputError(f"member {k}: fiber index out of range")
        if any(not 0 <= w < space_w.n for w in m.values):
            raise InputError(f"member {k}: value index out of range")
    _require_lipschitz(space_z, space_w, members, lam)

    net_a = minimal_net(space_t, delta)
    net_b = minimal_net(space_z, delta / lam)
    net_c = minimal_net(space_w, delta)
    threshold = max(
        net_a.covering_distance(),
        lam * net_b.covering_distance(),
        net_c.covering_distance(),
    )
    gamma = delta * (1.0 - 2.0**-20)
    if not gamma > threshold:
        raise VerificationError(
            "no gamma below delta keeps the nets strict; refine delta"
        )

    a_idx, b_idx, c_idx = net_a.indices, net_b.indices, net_c.indices
    count_bound = len(a_idx) * (1 + len(c_idx)) ** len(b_idx)

    cells: dict = {}
    budget = MAPSPACE_CELL_CAP
    for k, m in enumerate(members):
        anchors = [a for a in a_idx if space_t.dist[m.t, a] <= gamma]
        options = []
        for b in b_idx:
            near = [
                i
                for i, z in enumerate(m.fiber)
                if space_z.dist[b, z] <= gamma / lam
            ]
            if not near:
                options.append((None,))
            else:
                cs = tuple(
                    c
                    for c in c_idx
                    if any(space_w.dist[m.values[i], c] <= gamma for i in near)
                )
                options.append(cs)
        cell_count = len(anchors)
        for opts in options:
            cell_count *= len(opts)
        if cell_count == 0:
            # the nets guarantee an anchor and a codomain choice exist
            raise VerificationError(f"member {k} matched no cell; nets inconsistent")
        budget -= cell_count
        if budget < 0:
            raise ResourceCapError(
                f"cell enumeration exceeds {MAPSPACE_CELL_CAP} assignments"
            )
        for a in anchors:
            for h in itertools.product(*options):
                cells.setdefault((a, h), set()).add(k)

    covered = set()
    for s in cells.values():
        covered |= s
    if covered != set(range(len(members))):
        raise VerificationError("cells fail to cover the family")

    def cell_order(key):
        a, h = key
        return a, tuple(-1 if v is None else v for v in h)

    by_set: dict = {}
    for key in sorted(cells, key=cell_order):
        frozen = tuple(sorted(cells[key]))
        by_set.setdefault(frozen, key)
    ordered = sorted(by_set)
    return MapSpaceCover(
        sets=tuple(ordered),
        assignments=tuple(by_set[s] for s in ordered),
        gamma=gamma,
        count_bound=count_bound,
        net_t=net_a,
        net_z=net_b,
        net_w=net_c,
    )
