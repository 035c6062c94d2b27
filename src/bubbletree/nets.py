"""Metric-space calculus: sphere geometry, Hausdorff distance, nets, covers.

Provides geodesic distance on the round sphere of total area 4*pi (realized
as the projective line in homogeneous coordinates), finite metric spaces with
validated axioms, sphere samples as arrays built once, the Hausdorff distance
of finite subsets from their cross-distance matrix, gamma-nets in the strict
sense (d_H < gamma), on a finite base an index set into it, greedy nets as
prefixes of one farthest-point traversal (shared with bubbles.cluster_select;
on sphere samples it measures exactly only where a certified screen says a
minimum can move, and drops the rows settled below gamma; the covering check
measures through the same screen, centre first), exact minimal nets, a
latitude-band net of the sphere, the distance max(d_T, graph Hausdorff)
between members of a family of maps, and the cover of a family of Lipschitz
maps over a base by explicit cells.
Continuous spaces enter only through finite samplings supplied by the caller.

Every sphere distance, scalar or array, comes from one kernel,
sphere_distances: d = 2 atan2(|x_p y_q - y_p x_q|, |conj(x_p) x_q +
conj(y_p) y_q|).  For norms in NORM_RANGE = [2^-511, 2^511], the domain a
SphereSample checks, it lies within 42u = 4.7e-15 of the exact distance over
all of [0, pi] (u = 2^-53), near antipodes included.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ResourceCapError, VerificationError, require_scale

# set-cover search is exponential in the worst case; refuse big instances
EXACT_NU_CAP = 25

# total (anchor, assignment) cell evaluations allowed in mapspace_cover
MAPSPACE_CELL_CAP = 2_000_000

# points allowed in sphere_net: gamma = 0.01 gives 140,183 of them, and
# `bubbletree net` writes 497,684 (gamma = 0.0053) in 5-9 s at 0.72 GB peak
# on a 2-vCPU x86-64 VM
SPHERE_NET_CAP = 500_000

# relative gap below which ProjPoint.normalized treats |x| and |y| as tied
TIE_RTOL = 1e-12

# cosine slack of the sphere screen (_SphereLowering); rounding needs < 1.3e-14
SCREEN_MARGIN = 1e-9

# the norms a SphereSample accepts: every product of two is a normal double
# at most 2^1022, where sphere_distances keeps its error bound
NORM_RANGE = (2.0**-511, 2.0**511)


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """Point of the projective line in homogeneous coordinates [x : y].

    Scale equivalence [x : y] = [c*x : c*y] is respected by every operation
    in this module.  The normalized form divides by the coordinate of larger
    modulus, so one slot is exactly 1.0 and max(|x|, |y|) = 1.  Moduli that
    agree to TIE_RTOL count as a tie and y is preferred, so rounding in a
    rescaled copy [c*x : c*y] of a tie cannot flip the chosen slot.
    A slot whose modulus exceeds the double range is rejected; NaN slots
    are kept.
    """

    x: complex
    y: complex

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        if self.x == 0 and self.y == 0:
            raise InputError("projective point needs a nonzero coordinate")
        for name, slot in (("x", self.x), ("y", self.y)):
            if math.hypot(slot.real, slot.imag) == math.inf:
                raise InputError(f"the modulus of slot {name} = {slot} is not a finite double")

    @classmethod
    def from_affine(cls, z: complex) -> "ProjPoint":
        return cls(complex(z), 1.0)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(1.0, 0.0)

    @classmethod
    def _certified(cls, x: complex, y: complex) -> "ProjPoint":
        """The point [x : y] of two complex slots that its caller has proved
        not both zero, without the conversions and the check."""
        pt = object.__new__(cls)
        _set_x(pt, x)
        _set_y(pt, y)
        return pt

    def normalized(self) -> "ProjPoint":
        return _normal(self.x, self.y)


# the slot setters of the frozen class, which _certified calls directly
_set_x, _set_y = ProjPoint.x.__set__, ProjPoint.y.__set__


def _normal(x: complex, y: complex) -> ProjPoint:
    """ProjPoint(x, y).normalized() for complex x and y, not both zero.

    Certificate: both slots are complex, since a quotient of complex
    numbers is complex and 1 + 0j is what the checked path makes of 1.0.
    The slot divided by is the nonzero one of larger modulus: y is taken
    when |y| >= |x| (1 - TIE_RTOL), which a zero y meets only with a zero
    x; x is taken when that fails, so |x| > 0 or a modulus is NaN.  A NaN x
    is not zero; a NaN y over a zero x raises ZeroDivisionError, as the
    checked path does.  So the checked construction would keep these bits
    and pass its check.
    """
    if abs(y) >= abs(x) * (1.0 - TIE_RTOL):
        return ProjPoint._certified(x / y, 1 + 0j)
    return ProjPoint._certified(1 + 0j, y / x)


def sphere_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Geodesic distance on the round sphere of total area 4*pi, in [0, pi]
    with pi at antipodal pairs: 2 atan2(|x_p y_q - y_p x_q|, |conj(x_p) x_q
    + conj(y_p) y_q|), within 42u = 4.7e-15 of the exact distance.  The
    pair is a SphereSample, so a point whose norm lies outside NORM_RANGE
    (NaN and zero norms included) is an InputError naming it.  It is
    sphere_distances on one-element arrays, so it has the array forms' bits
    (a call on 0-d arrays can round the complex products differently).
    """
    s = sphere_sample([p, q])
    return float(sphere_distances(s.xs[:1], s.ys[:1], s.xs[1:], s.ys[1:])[0])


def sphere_coords(points: Sequence[ProjPoint]):
    """Arrays (x, y) of homogeneous coordinates, one entry per point."""
    xs = np.array([p.x for p in points], dtype=complex)
    return xs, np.array([p.y for p in points], dtype=complex)


def sphere_distances(ax, ay, bx, by) -> np.ndarray:
    """The sphere distance of [ax : ay] and [bx : by] on broadcast arrays of
    homogeneous coordinates: 2 atan2(S, C) with S = |ax by - ay bx| and C =
    |conj(ax) bx + conj(ay) by|.  A NaN coordinate gives pi.  The complex
    products round by operand order, so swapping a and b can move a bit.

    By Lagrange's identity the exact S and C are N sin(theta/2) and N
    cos(theta/2), theta the distance and N = ||a|| ||b||.  Error bound (u =
    2^-53; norms in NORM_RANGE, so u N >= 2^-1075 and no part exceeds N <=
    2^1022).  A part of a complex product z w errs by 2u |z||w|, and the two
    products of S or of C have |z||w| summing to at most N (Cauchy-Schwarz):
    2u N per part, plus u N for the sum and 4u N for the underflow of its
    four real products (each under 2^-1075 <= u N).  So S and C each err by
    under sqrt(2) 7u N + 3u N (numpy's complex abs) < 13u N, the computed
    pair lies within 19u N of (S, C), whose length is N, and its angle
    within 19u of theta/2; atan2 rounds by at most an ulp, 2u.  So |d -
    theta| < 2 (19u + 2u) = 42u, 4.7e-15, over all of [0, pi]; 200-bit
    oracle checks see at most 4.4e-16.  Arcsine forms of S / N lose half
    their digits near pi instead.
    """
    s = np.abs(ax * by - ay * bx)
    c = np.abs(ax.conj() * bx + ay.conj() * by)
    # atan2 of two nonnegatives rounds to at most pi/2; fmin turns NaN to pi
    return np.fmin(2.0 * np.arctan2(s, c), math.pi)


def hopf_units(xs, ys, ns) -> np.ndarray:
    """Hopf images (2 a conj(b), |a|^2 - |b|^2) of the normalized points
    [a : b] = [x : y] / norm, on a new first axis (xs, ys and their norms
    ns broadcast): unit vectors of R^3 whose dot product is the cosine of
    the sphere distance and whose chord is at most that distance.

    Error bound, which both sphere screens cite (u = 2^-53; norms in
    NORM_RANGE, so ns is normal and underflow adds under 2^-1000).  numpy's
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


class SphereSample:
    """Sphere points as arrays: xs and ys their homogeneous coordinates, ns
    their norms, at least one, each norm in NORM_RANGE (else InputError
    naming the first point outside, NaN, zero and infinite norms included).
    u, their (3, n) hopf_units, is made on first read.
    len gives n; indexing, and so iterating, gives each point as a ProjPoint
    of labels: the points a sample was made from, or for a sample made from
    arrays the rows as ProjPoints, built on first read.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, labels: tuple | None = None):
        ns = np.hypot(np.abs(xs), np.abs(ys))
        if not len(ns):
            raise InputError("need at least one point")
        low, high = NORM_RANGE
        (out,) = (~((low <= ns) & (ns <= high))).nonzero()
        if out.size:
            k = out[0]
            fault = (
                "coordinates must be finite" if not np.isfinite(ns[k])
                else "needs a nonzero coordinate" if ns[k] == 0
                else f"has norm {ns[k]:.4g}, outside [2^-511, 2^511]"
            )
            raise InputError(f"sphere point {k} = [{xs[k]} : {ys[k]}] {fault}")
        self.xs, self.ys, self.ns = xs, ys, ns
        if labels is not None:
            self.labels = labels

    @functools.cached_property
    def u(self) -> np.ndarray:
        return hopf_units(self.xs, self.ys, self.ns)

    @functools.cached_property
    def labels(self) -> tuple:
        return tuple(map(ProjPoint, self.xs.tolist(), self.ys.tolist()))

    @property
    def n(self) -> int:
        return len(self.xs)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i) -> ProjPoint:
        return self.labels[i]

    def __iter__(self):
        return iter(self.labels)


def sphere_sample(points: Sequence) -> SphereSample:
    """The SphereSample of ProjPoints or (x, y) pairs, as ProjPoints its labels."""
    labels = tuple(p if isinstance(p, ProjPoint) else ProjPoint(*p) for p in points)
    return SphereSample(*sphere_coords(labels), labels)


def fibonacci_sphere_points(n: int) -> list[ProjPoint]:
    """Deterministic quasi-uniform sample of n points on the sphere."""
    if n < 1:
        raise InputError("need at least one sample point")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(n)
    height = 1.0 - 2.0 * (k + 0.5) / n
    phi = 2.0 * math.pi * ((k / golden) % 1.0)
    # affine radius tan(theta/2) for colatitude theta = arccos(height)
    r = np.sqrt(np.maximum(0.0, 1.0 - height * height)) / (1.0 + height)
    return [ProjPoint(z, 1.0) for z in _complex(r * np.cos(phi), r * np.sin(phi)).tolist()]


def _complex(re, im) -> np.ndarray:
    """The complex array with these (broadcast) parts, each kept by bits;
    re + 1j * im can flip a zero's sign."""
    z = np.empty(np.broadcast(re, im).shape, complex)
    z.real, z.imag = re, im
    return z


class FiniteMetricSpace:
    """Finite metric space given by an explicit distance matrix.

    Validates symmetry, zero diagonal, nonnegativity, the label count and
    the triangle inequality on construction.  The last is O(n^3) arithmetic
    in O(n^2) memory: about 4 ms at n = 128, 42 ms at n = 300, 0.25 s at
    n = 512 and 2.0 s at n = 1000 (best of 2-7 on a 2-vCPU x86-64 VM, numpy
    2.4), so spaces of a few hundred points build in well under a second.
    bubbles.reduce and from_sphere, whose matrices are metrics by the
    proofs in their docstrings, take the private _certified path and skip
    all of it.  labels carries one opaque payload per point.
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
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise InputError("labels must match the point count")
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

    @classmethod
    def _certified(cls, dist: np.ndarray, labels: tuple) -> "FiniteMetricSpace":
        """The space of a float matrix that its caller has proved passes
        every check above and is exactly symmetric with a zero diagonal, so
        that the checked construction would keep its bits; it is neither
        checked nor copied, only made a read-only view."""
        space = object.__new__(cls)
        space.dist, space.labels = dist.view(), labels
        space.dist.setflags(write=False)
        return space

    @property
    def n(self) -> int:
        return self.dist.shape[0]

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
        """The space of sphere points (ProjPoints or (x, y) pairs, their
        norms in NORM_RANGE) under the sphere distance, its labels the
        points: the matrix sphere_distances gives, row point first, made
        exactly symmetric and zeroed on the diagonal as the checked
        construction makes it, and then trusted.

        Certificate: each kernel entry lies in [0, pi], within 42u = 4.7e-15
        of the exact distance, near antipodes too, so a diagonal entry is at
        most 42u and an asymmetry at most 84u.  The mean with the transpose
        rounds once more, by at most pi u, so each entry stays within 46u
        and the matrix breaks no triangle inequality by more than 138u
        (126u before the mean): every check of the checked construction
        passes, far inside its 1e-9 tolerance.  That construction would
        then take the mean again and zero the diagonal, which keeps every
        bit of this exactly symmetric matrix, and the labels are one tuple
        entry per point.
        """
        s = sphere_sample(points)
        d = sphere_distances(s.xs[:, None], s.ys[:, None], s.xs, s.ys)
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        return cls._certified(d, s.labels)


def hausdorff_from_matrix(d: np.ndarray) -> float:
    """Hausdorff distance given the rectangular cross-distance matrix."""
    if d.size == 0:
        raise InputError("Hausdorff distance needs nonempty sets")
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True, eq=False, kw_only=True)
class Net:
    """A gamma-net: every base point lies strictly within radius of the net.

    On a finite base (a FiniteMetricSpace or a SphereSample) a net is its
    indices, distinct, in [0, n) and at least one (else InputError); its
    points are base.labels there, and Net(...) verifies the strict covering
    property.  greedy_net and minimal_net skip that check and hold a
    certificate instead, the farthest-point traversal's stopping distance
    and the exact search's full cover (see their docstrings).  A net of the
    continuous sphere has points, a SphereSample, and no base, and its
    construction guarantees the cover.
    """

    radius: float
    indices: tuple | None = None
    base: FiniteMetricSpace | SphereSample | None = None
    points: tuple | SphereSample | None = None

    def __post_init__(self):
        require_scale("net radius", self.radius)
        if self.base is None:
            if not isinstance(self.points, SphereSample) or self.indices is not None:
                raise InputError(
                    "a net without a base needs points and no indices, "
                    "its points a SphereSample"
                )
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

    @classmethod
    def _certified(cls, radius: float, indices: tuple, base) -> "Net":
        """The net of distinct indices into a finite base whose covering
        distance its caller has proved below radius, without the check."""
        net = object.__new__(cls)
        points = tuple(base.labels[i] for i in indices)
        vars(net).update(radius=radius, indices=indices, base=base, points=points)
        return net

    @property
    def size(self) -> int:
        return len(self.points)

    def covering_distance(self):
        """Exact d_H(points, base) on a finite base, else None: the directed
        distance from the base to the net, whose points belong to it.  On a
        sphere sample each net point lowers nearest distances through a fresh
        _SphereLowering, centre first as greedy_net's traversal measures
        them.  Its screen is sound whatever the margin: a skipped pair can
        only leave a distance too large, so a wrong screen could reject a
        valid net, never accept an invalid one.  A net point's own entry is
        exactly 0, as on a matrix base: the formula can round a point's
        distance to itself above a tiny radius.
        """
        if self.base is None:
            return None
        if isinstance(self.base, FiniteMetricSpace):
            sub = self.base.dist[:, list(self.indices)]
            return float(sub.min(axis=1).max())
        near, lower = np.full(self.base.n, math.inf), _SphereLowering(self.base)
        for j in self.indices:
            lower(near, j)
        near[list(self.indices)] = 0.0
        return float(near.max())


def _is_index(i, n: int) -> bool:
    """Whether i is an integer in [0, n), as operator.index reads it; a
    float, None or a bool is not."""
    try:
        return not isinstance(i, bool) and 0 <= operator.index(i) < n
    except TypeError:
        return False


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
        if not _is_index(k, n) or k in seen:
            what = "repeats" if k in seen else "is outside [0, n)"
            raise InputError(f"net index {k} {what} for n = {n}")
        seen.add(k)
    return ks


class _SphereLowering:
    """farthest_first's lowering step on a sphere sample, through a screen.

    lower(mind, j) lowers mind in place to the sphere distances from row j,
    centre first, measuring only the rows whose screen g = U @ U_j exceeds
    cosm = cos(mind) - SCREEN_MARGIN (-inf while mind is inf), which it
    keeps in step; j's own cosm becomes inf, so j is never measured again
    (the traversal sets its minimum to -inf, the covering check to 0).
    keep(rows) drops every other row from u, xs, ys and cosm.

    Margin (u = 2^-53; norms in NORM_RANGE, as a SphereSample checks).
    hopf_units bounds |g - cos theta| by 67u, theta the exact angle, and
    sphere_distances bounds |d - theta| by 42u, so |cos d - cos theta| <=
    42u (cos is 1-Lipschitz), near 0 and near pi alike.  If d < m, both in
    [0, pi], then cos d > cos m, so g > cos m - 109u > cosm + SCREEN_MARGIN
    - 115u (numpy's cos errs by 4u, the subtraction by 2u).  Every point
    whose minimum moves passes, with a factor of over 75,000 to spare, so
    the minima are those of the full row bit for bit.
    """

    def __init__(self, base: SphereSample):
        self.u, self.xs, self.ys = base.u, base.xs, base.ys
        self.cosm = np.full(base.n, -math.inf)

    def __call__(self, mind, j):
        (idx,) = (self.u[:, j] @ self.u > self.cosm).nonzero()
        d = sphere_distances(self.xs[j], self.ys[j], self.xs[idx], self.ys[idx])
        mind[idx] = low = np.minimum(mind[idx], d)
        self.cosm[idx] = np.cos(low) - SCREEN_MARGIN
        self.cosm[j] = math.inf

    def keep(self, rows):
        # each array holds one column per row
        vars(self).update({name: a[..., rows] for name, a in vars(self).items()})


def farthest_first(lower: Callable, n: int, start: int, floor: float = -math.inf):
    """Gonzalez's farthest-point traversal of n points, from start.

    lower(mind, j) lowers mind in place to the distances from row j to
    every row, the rows being the n points until a floor drops some
    (FiniteMetricSpace.lower for a matrix, a _SphereLowering for a sphere
    sample).  Lazily yields (index, distance to the points yielded before
    it; inf for start), each index the farthest point not yet yielded, ties
    to the lowest index.  Every prefix is a net at the next distance; lower
    runs only as it advances.

    The traversal ends before the first distance below floor (none by
    default).  A row whose minimum is below floor can only go lower, so it
    is never the farthest at a distance that is yielded.  With a finite
    floor, every 16 steps, once a quarter of the rows have a minimum below
    it, they are dropped from mind and from lower by lower.keep(kept), kept
    the other rows in ascending order (a _SphereLowering's keep; a matrix
    traversal takes no floor); yielded rows map back to the n points.  The
    kept rows hold the same minima in the same order, so the yields are
    those of the traversal without a floor, cut at the floor.
    """
    mind = np.full(n, math.inf)
    rows = np.arange(n)  # the point of each kept row
    j, d = int(start), math.inf
    for step in range(1, n):
        yield int(rows[j]), d
        lower(mind, j)
        mind[j] = -math.inf
        if step % 16 == 0 and floor > -math.inf:
            (kept,) = (mind >= floor).nonzero()
            # with no row kept, the argmax below ends the traversal
            if 0 < 4 * len(kept) <= 3 * len(mind):
                lower.keep(kept)
                mind, rows = mind[kept], rows[kept]
        j = int(mind.argmax())
        d = float(mind[j])
        if d < floor:
            return
    yield int(rows[j]), d


def greedy_net(space, gamma: float) -> Net:
    """Farthest-point net: the farthest_first prefix from index 0 down to gamma.

    Accepts a FiniteMetricSpace or sphere points, which sphere_sample turns
    into the net's base once.  Deterministic: ties go to the lowest index.
    The result is always a valid gamma-net of the given base; it need not be
    minimal.  On a matrix the plain traversal is cut at the first distance
    below gamma, as cluster_select cuts its own.  On sphere points a centre
    is measured only where _SphereLowering's screen says a minimum can move,
    with the unscreened traversal's indices and distances, and the
    traversal's floor is gamma, so it screens only the points that can
    still be chosen.

    Certificate: the traversal yields distinct indices and stops at the
    first d < gamma, d the largest of the minima over the prefix (Gonzalez
    1985: every prefix is a net at the next distance).  Those minima are
    the full rows' bit for bit (on sphere points by _SphereLowering's
    margin), so d is the covering distance: on a matrix base, whose dist is
    symmetric, and on sphere points, where covering_distance() lowers
    through the same screen in the same operand order (centre first).
    Exhausting the base leaves distance 0.  The sphere floor changes none
    of this.  A dropped row's minimum is below gamma and can only go lower,
    so it is never the argmax of a step whose distance is at least gamma,
    the only steps read.  Kept rows stay in ascending order with the same
    minima, from the same sphere_distances call shape (centre as a scalar,
    survivors as 1-D arrays, centre first), so ties still go to the lowest
    index.  And the largest kept minimum is below gamma exactly when the
    largest of all is, so the traversal stops at the same step.
    """
    require_scale("net radius gamma", gamma)
    if isinstance(space, FiniteMetricSpace):
        base, steps = space, farthest_first(space.lower, space.n, 0)
    else:
        base = sphere_sample(space)
        steps = farthest_first(_SphereLowering(base), base.n, 0, gamma)
    chosen = tuple(j for j, _ in itertools.takewhile(lambda jd: jd[1] >= gamma, steps))
    return Net._certified(gamma, chosen, base)


def sphere_net(gamma: float) -> Net:
    """Explicit gamma-net of the round sphere by latitude bands, its points
    a SphereSample made from arrays.

    For gamma > pi a single point suffices; for gamma > pi/2 the two poles
    do (every point is within pi/2 of one of them).  Otherwise rows are
    placed at colatitudes j*pi/M with M = ceil(pi / (0.9 gamma)), the poles
    as single points, and ceil(sin(theta) * pi / (0.5 gamma)) points per
    interior row.  Any sphere point is then within 0.45 gamma of a row and
    within 0.5 gamma along it, so the covering distance is at most
    0.95 gamma < gamma.  Sizes stay under the 8 pi / gamma^2 area bound for
    the radii this package exercises, though not under the sharper cap
    bound 2 / (1 - cos(gamma / 2)).  Refuses, before building any point,
    nets of more than SPHERE_NET_CAP points.

    The row scalars come from math, the point angles 2 pi k / count and
    their cos and sin from numpy, which keeps the points of a scalar loop
    bit for bit: on 1M uniform angles in [0, pi/2), numpy 2.4 on x86-64,
    np.cos and np.sin matched math on all and np.tan missed on 5,257.
    """
    require_scale("net radius gamma", gamma)
    rows = math.pi / (0.9 * gamma) if gamma <= math.pi / 2.0 else 1
    # rows - 1 interior rows of at least one point each, and the two poles;
    # checked before ceil, which fails on the infinite count of a tiny gamma
    _require_sphere_net_size(gamma, rows + 1)
    rows = math.ceil(rows)
    counts, radii = [], []
    for j in range(1, rows):
        theta = j * math.pi / rows
        counts.append(max(1, math.ceil(math.sin(theta) * math.pi / (0.5 * gamma))))
        radii.append(math.tan(theta / 2.0))
    _require_sphere_net_size(gamma, sum(counts) + 2)
    counts = np.array(counts, dtype=np.int64)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    phi = 2.0 * math.pi * k / np.repeat(counts, counts)
    r = np.repeat(radii, counts)
    # the pole [0:1], the rows, and infinity [1:0] unless gamma > pi
    xs = np.concatenate(([0.0], _complex(r * np.cos(phi), r * np.sin(phi)), [1.0]))
    ys = np.concatenate(([1.0], np.ones(len(phi)), [0.0])).astype(complex)
    end = 1 if gamma > math.pi else len(xs)
    return Net(radius=gamma, points=SphereSample(xs[:end], ys[:end]))


def _require_sphere_net_size(gamma: float, size: float) -> None:
    if size > SPHERE_NET_CAP:
        raise ResourceCapError(
            f"sphere net at gamma = {gamma} needs at least {size:.0f} points, "
            f"over the cap {SPHERE_NET_CAP}"
        )


def minimal_net(space: FiniteMetricSpace, gamma: float) -> Net:
    """A minimum-cardinality gamma-net of a finite space, by exact search.

    Branch-and-bound over the set cover by open gamma-balls, seeded with the
    greedy net as an upper bound.  Refuses spaces above EXACT_NU_CAP points.

    Certificate: the search keeps a choice only at covered == full over the
    balls dist < gamma, which is the strict covering predicate itself (dist
    is symmetric), and otherwise keeps greedy_net's certified indices.
    """
    require_scale("net radius gamma", gamma)
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
    return Net._certified(gamma, tuple(sorted(best)), space)


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
    nonempty one.  A fiber point or value that is not an index into its
    space raises InputError naming the member.
    """
    for name, m in (("member a", a), ("member b", b)):
        _require_indices(name, m, space_z, space_w)
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
    """Distance max(d_T, graph Hausdorff) between two family members.  A
    base, fiber or value entry that is not an index into its space raises
    InputError naming the member."""
    for name, m in (("member a", a), ("member b", b)):
        _require_indices(name, m, space_t, space_z, space_w)
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


def _require_indices(name: str, m: FiberMap, *spaces: FiniteMetricSpace) -> None:
    """InputError naming the member and its first entry that is not an
    index into its space (_is_index): with three spaces the base index t
    into the first; then every fiber point into the next, and every value
    into the last."""
    entries = (("base", (m.t,)), ("fiber", m.fiber), ("value", m.values))[-len(spaces):]
    for (what, ids), space in zip(entries, spaces):
        for i in ids:
            if not _is_index(i, space.n):
                raise InputError(f"{name}: {what} index {i!r} out of range [0, {space.n})")


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
    number of candidate cells is |A| (1 + |C|)^|B|.  A member entry that
    is not an index into its space raises InputError naming the member.

    Certificate: every member matches a cell without a check.  gamma
    exceeds the covering distances of A and C, the largest over rows of the
    smallest entries that the anchors and choices read, so every member has
    an anchor, and every nonempty near-set has a codomain choice.
    """
    if not 1.0 <= lam < math.inf:
        raise InputError(
            f"Lipschitz constant lambda must be at least 1 and finite, got {lam}"
        )
    require_scale("delta", delta)
    members = list(family)
    for k, m in enumerate(members):
        _require_indices(f"member {k}", m, space_t, space_z, space_w)
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
        budget -= cell_count
        if budget < 0:
            raise ResourceCapError(
                f"cell enumeration needs {MAPSPACE_CELL_CAP - budget} assignments "
                f"at member {k}, over the cap {MAPSPACE_CELL_CAP}"
            )
        for a in anchors:
            for h in itertools.product(*options):
                cells.setdefault((a, h), set()).add(k)

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
