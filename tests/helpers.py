"""Shared builders and brute-force oracles for the test suite."""

import cmath
import itertools
import math
import random

from bubbletree.bubbles import BubbleConfiguration, renormalize
from bubbletree.curves import (
    EQ_SLACK,
    FILL_SKIP_LIMIT,
    RESIDUAL_TOL,
    UNIT_TARGETS,
    CompactnessParams,
    ModuliPoint,
    Region,
    _fiber_through,
    _leq,
    _phi_component,
    _require_on_fiber,
    chart_position,
)
from bubbletree.errors import InputError, VerificationError
from bubbletree.nets import FiberMap, FiniteMetricSpace, ProjPoint, sphere_distance
from bubbletree.trees import RootedTree, Tree, nearest_common_ancestor, positive_path


def star_tree(k: int) -> RootedTree:
    """One vertex with the root edge and k external child edges."""
    edges = {j: (1,) for j in range(k + 1)}
    return RootedTree(Tree([1], edges), 0)


def chain_tree(levels: int, leaves: int = 2) -> RootedTree:
    """A path of vertices 1..levels, each padded with leaf edges.

    Vertex i is joined to i+1 by a full edge; every vertex gets enough
    extra external edges to reach degree >= 3.
    """
    boundary: dict[int, tuple[int, ...]] = {0: (1,)}
    nxt = 1
    for i in range(1, levels):
        boundary[nxt] = (i, i + 1)
        nxt += 1
    for i in range(1, levels + 1):
        for _ in range(leaves):
            boundary[nxt] = (i,)
            nxt += 1
    return RootedTree(Tree(list(range(1, levels + 1)), boundary), 0)


def default_params(tree: RootedTree, theta: float = 1 / 8) -> CompactnessParams:
    return CompactnessParams(
        theta=theta, tau=0.5, alpha={v: 1e-6 for v in tree.vertices}
    )


def random_member(
    tree: RootedTree,
    c: CompactnessParams,
    rng,
    zero_edges: tuple[int, ...] = (),
) -> ModuliPoint:
    """A random point satisfying the compact-subset inequalities.

    Child centers go on the circle of radius 0.9 theta with jittered,
    well-separated angles; rho moduli are log-uniform between alpha_v and
    the largest value the sibling-separation inequality allows; gluing
    moduli are uniform in (0, tau] except on the requested zero edges.
    """
    zr = {}
    for v in sorted(tree.vertices):
        kids = tree.child_edges(v)
        k = len(kids)
        centers = {}
        for idx, e in enumerate(kids):
            ang = 2.0 * math.pi * (idx + 0.4 * rng.uniform(-1.0, 1.0)) / k
            centers[e] = 0.9 * c.theta * cmath.exp(1j * ang)
        if k > 1:
            gap = min(
                abs(centers[kids[i]] - centers[kids[j]])
                for i in range(k)
                for j in range(i + 1, k)
            )
            cap = min(2.0 * c.theta, 0.5 * c.tau * gap)
        else:
            cap = 2.0 * c.theta
        for e in kids:
            lo = c.alpha_of(v)
            assert lo < cap, "alpha too large for the sampling ring"
            r = math.exp(rng.uniform(math.log(lo), math.log(cap)))
            phase = cmath.exp(2j * math.pi * rng.random())
            zr[(v, e)] = (centers[e], r * phase)
    gamma = {}
    for e in tree.full_edges:
        if e in zero_edges:
            gamma[e] = 0.0 + 0.0j
        else:
            mod = c.tau * math.exp(rng.uniform(math.log(1e-3), 0.0))
            gamma[e] = mod * cmath.exp(2j * math.pi * rng.random())
    return ModuliPoint(tree, gamma, zr)


# ---------------------------------------------------------------------------
# independent brute-force tree counter: labeled parent arrays + half-edge
# distributions, deduplicated by a locally defined canonical form
# ---------------------------------------------------------------------------


def _compositions(total, mins):
    k = len(mins)
    if k == 0:
        if total == 0:
            yield ()
        return

    def rec(i, rem):
        if i == k - 1:
            if rem >= mins[i]:
                yield (rem,)
            return
        for v in range(mins[i], rem + 1):
            for rest in rec(i + 1, rem - v):
                yield (v,) + rest

    yield from rec(0, total)


def _oracle_canon(children, halves, v):
    return (
        halves[v],
        tuple(sorted(_oracle_canon(children, halves, c) for c in children[v])),
    )


def oracle_count_stable_rooted(n):
    seen = set()
    for k in range(1, n + 1):
        for parents in itertools.product(*[range(i) for i in range(1, k)]):
            children = {v: [] for v in range(k)}
            for i, p in enumerate(parents, start=1):
                children[p].append(i)
            base = {
                v: len(children[v]) + (1 if v > 0 else 0) + (1 if v == 0 else 0)
                for v in range(k)
            }
            mins = [max(0, 3 - base[v]) for v in range(k)]
            if sum(mins) > n:
                continue
            for h in _compositions(n, mins):
                halves = {v: h[v] for v in range(k)}
                seen.add(_oracle_canon(children, halves, 0))
    return len(seen)


# ---------------------------------------------------------------------------
# random bubble configurations
# ---------------------------------------------------------------------------


def sunflower(phi, k):
    """0, the modulus-one point exp(i phi), and k - 2 points on a golden-angle
    spiral, area-uniform in the annulus 0.3 <= |z| <= 0.95 and turned by phi.

    No rejection is needed: for 5 <= k <= 200 every pair is more than
    0.55 / sqrt(k) apart, whatever phi.
    """
    golden = math.pi * (3.0 - math.sqrt(5.0))
    m = k - 2
    out = [0j, cmath.exp(1j * phi)]
    for j in range(m):
        r = math.sqrt(0.3**2 + (0.95**2 - 0.3**2) * (j + 0.5) / m)
        out.append(r * cmath.exp(1j * (phi + (j + 1) * golden)))
    return out


def unit_cloud(rng, eps, size, head=1.0):
    """Points in the closed unit disc with 0 and a modulus-one point.

    Satellites sit inside the clustering ladder radius 0.4 (4 eps^3)^k of
    their center (in eps-disc units), so the recursion depth of the
    association is driven by the nesting generated here.  head tracks the
    cumulative scale; a level goes flat once nesting would sink satellite
    offsets below float resolution, and a flat level is a sunflower, so it
    can hold any number of points.
    """
    if size == 1:
        return [0j]
    k = min(size, rng.randrange(2, 5))
    ladder = (4.0 * eps**3) ** k / eps
    if size > k and head * 0.2 * ladder < 1e-12:
        k = size
    phi = rng.uniform(0.0, 2 * math.pi)
    if k > 4:  # only a flat level has more than four centers
        return sunflower(phi, k)
    centers = [0j, cmath.exp(1j * phi)]
    while len(centers) < k:
        cand = rng.uniform(0.3, 0.95) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        if all(abs(cand - c) > 0.28 for c in centers):
            centers.append(cand)
    if k == size:
        return centers
    # the modulus-one point stays unexpanded so the supremum is pinned
    expandable = [i for i in range(k) if i != 1]
    counts = [1] * k
    for _ in range(size - k):
        counts[rng.choice(expandable)] += 1
    out = []
    for c, count in zip(centers, counts):
        if count == 1:
            out.append(c)
            continue
        radius = rng.uniform(0.2, 0.4) * ladder
        out.extend(c + radius * u for u in unit_cloud(rng, eps, count, head * radius))
    return out


def random_standard(rng, eps, size):
    return _standard(rng, eps, unit_cloud(rng, eps, size))


def flat_standard(rng, eps, size, zero_radius=False):
    """A standard configuration whose points are all centers of one level;
    with zero_radius every bubble has radius 0."""
    unit_pts = sunflower(rng.uniform(0.0, 2 * math.pi), size)
    return _standard(rng, eps, unit_pts, zero_radius)


def _standard(rng, eps, unit_pts, zero_radius=False):
    """Scale into the eps disc, draw radii within the pairwise budget (or
    set them to 0) and renormalize."""
    pts = [eps * z for z in unit_pts]
    radius = {}
    for z in pts:
        gap = min(abs(z - q) for q in pts if q != z)
        scale = 0.0 if zero_radius else rng.uniform(0.0, 0.999)
        radius[z] = scale * (eps * eps / 8.0) * gap
    out, _, _ = renormalize(BubbleConfiguration(tuple(pts), radius), eps)
    return out


# ---------------------------------------------------------------------------
# finite metric spaces and exhaustive Lipschitz families
# ---------------------------------------------------------------------------


def grid_space(values):
    return FiniteMetricSpace.from_points(list(values), lambda a, b: abs(a - b))


def farthest_first_reference(space, start):
    """Farthest-point traversal as a plain loop over space.distance.

    Returns (index, distance to the indices before it) in insertion order,
    the first distance being inf; ties go to the lowest index.
    """
    order = [(start, math.inf)]
    chosen = {start}
    while len(order) < space.n:
        best, bestd = -1, -1.0
        for x in range(space.n):
            if x in chosen:
                continue
            d = min(space.distance(x, y) for y, _ in order)
            if d > bestd:
                best, bestd = x, d
        order.append((best, bestd))
        chosen.add(best)
    return order


def traversal_cases():
    """(space, start) pairs for traversal oracles: exact ties on a lattice,
    a repeated point, scattered points, nonzero starts and a single point."""
    rng = random.Random(1985)
    lattice = [complex(x, y) for x in range(5) for y in range(4)]
    scattered = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(30)]
    return [
        (grid_space(lattice), 0),
        (grid_space(lattice), 7),
        (grid_space(lattice + [2 + 1j]), 19),
        (grid_space(scattered), 0),
        (grid_space(scattered), 13),
        (grid_space([0.5j]), 0),
    ]


# ---------------------------------------------------------------------------
# decoration reference: the scalar loop that curves.decorate replaced
# ---------------------------------------------------------------------------


def _mark_distance(q1, q2):
    return max(sphere_distance(q1.at(v), q2.at(v)) for v in q1.coords)


def anchor_points_reference(p):
    """curves.anchor_points as a loop of scalar _fiber_through calls."""
    t = p.tree
    out = []
    for v, e in t.incident_pairs():
        for k, target in enumerate(UNIT_TARGETS):
            if t.e_plus[e] == v:
                plain = target
            else:
                plain = ProjPoint(
                    target.x * p.rho(v, e) + p.z(v, e) * target.y, target.y
                )
            out.append(((v, e), k, _fiber_through(p, v, plain)))
    return out


def decorate_reference(p, c, marked, m):
    """curves.decorate as a plain loop over pairs of points.

    Chart distances only: a pair within RESIDUAL_TOL raises even when the
    disc-rescaled charts tell the points apart.
    """
    t = p.tree
    mu = len(t.incident_pairs())
    if m < 3 * mu:
        raise InputError(f"m = {m} is below the anchor count {3 * mu}")
    for q in marked:
        _require_on_fiber(p, q)
    points = list(marked)
    points.extend(q for _, _, q in anchor_points_reference(p))

    extra = m - 3 * mu
    skips = 0
    j = 0
    accepted = 0
    v0 = t.root_vertex
    while accepted < extra:
        j += 1
        if skips > FILL_SKIP_LIMIT:
            raise VerificationError(
                f"ring fill exhausted after {FILL_SKIP_LIMIT} skipped candidates"
            )
        val = 0.9 * cmath.exp(2j * math.pi * j / (extra + 1))
        if any(
            abs(val - p.z(v0, e)) < abs(p.rho(v0, e)) for e in t.child_edges(v0)
        ):
            skips += 1
            continue
        q = _fiber_through(p, v0, ProjPoint(val, 1.0))
        if any(_mark_distance(q, other) < 1e-6 for other in points):
            skips += 1
            continue
        points.append(q)
        accepted += 1

    for i in range(len(points)):
        for k in range(i + 1, len(points)):
            if _mark_distance(points[i], points[k]) <= RESIDUAL_TOL:
                raise VerificationError(f"decoration points {i} and {k} collide")
    return points


def all_lipschitz_maps(space_z, space_w, t, lam):
    fiber = tuple(range(space_z.n))
    out = []
    for values in itertools.product(range(space_w.n), repeat=space_z.n):
        ok = all(
            space_w.dist[values[i], values[j]] <= lam * space_z.dist[i, j]
            for i, j in itertools.combinations(fiber, 2)
        )
        if ok:
            out.append(FiberMap(t=t, fiber=fiber, values=values))
    return out


# ---------------------------------------------------------------------------
# check-path references: the region scan, the sampled Lipschitz loop and the
# discriminant loop as they were before the decomposition was reused
# ---------------------------------------------------------------------------


def _edge_below(t, u, v, e):
    return e if v == u else t.parent_edge[positive_path(t, u, v)[1]]


def fiber_discriminant_reference(p):
    """curves.fiber_discriminant walking the path again for each side of
    every pair."""
    t = p.tree
    coords = t.coordinate_pairs()
    out = 1.0 + 0.0j
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            (v1, e1), (v2, e2) = coords[i], coords[j]
            u = nearest_common_ancestor(t, v1, v2)
            if _edge_below(t, u, v1, e1) == _edge_below(t, u, v2, e2):
                continue
            out *= chart_position(p, u, v1, e1) - chart_position(p, u, v2, e2)
    for e in t.full_edges:
        out *= p.rho(t.e_minus[e], e)
    return out


def _disc_reference(p, v, e):
    if p.tree.e_plus[e] == v:
        return 0.0 + 0.0j, 1.0
    return p.z(v, e), abs(p.rho(v, e))


def region_contains_reference(p, region, q):
    """curves.region_contains reading q.affine and the disc data per test."""
    t = p.tree

    def inside(val, center, radius):
        return val is not None and _leq(abs(val - center), radius)

    def outside(val, center, radius):
        return val is None or _leq(radius, abs(val - center))

    if region.kind == "thick":
        v = region.vertex
        val = q.affine(v)
        if not inside(val, 0.0, 1.0):
            return False
        return all(
            outside(val, *_disc_reference(p, v, e)) for e in t.child_edges(v)
        )
    e = region.edge
    if region.kind == "neck":
        u, v = t.e_minus[e], t.e_plus[e]
        return inside(q.affine(u), *_disc_reference(p, u, e)) and outside(
            q.affine(v), 0.0, 1.0
        )
    if e == t.root_edge:
        return outside(q.affine(t.root_vertex), 0.0, 1.0)
    u = t.e_minus[e]
    return inside(q.affine(u), *_disc_reference(p, u, e))


def regions_reference(t):
    return (
        [Region("thick", vertex=v) for v in sorted(t.vertices)]
        + [Region("neck", edge=e) for e in t.full_edges]
        + [Region("end", edge=e) for e in t.half_edges]
    )


def classify_reference(p, q):
    """Every region whose containment test holds at q, in decomposition order."""
    regions = regions_reference(p.tree)
    return tuple(r for r in regions if region_contains_reference(p, r, q))


def region_distance_reference(p, region, q1, q2):
    t = p.tree
    if region.kind == "thick":
        v = region.vertex
        return sphere_distance(q1.at(v), q2.at(v))
    e = region.edge
    vals = []
    for u in t.tree.boundary[e]:
        if t.e_plus[e] == u:
            vals.append(sphere_distance(q1.at(u), q2.at(u)))
        else:
            a, b = _phi_component(p, q1, u, e), _phi_component(p, q2, u, e)
            vals.append(sphere_distance(a, b))
    return max(vals)


def lipschitz_reference(p, smap, lam, lambda0):
    """check_map_membership's region loop on a member: every region tested
    against every sample, the region distance recomputed for every pair.
    Returns (rejections, pairs compared)."""
    rejections = []
    pairs = 0
    for region in regions_reference(p.tree):
        inside = [
            (q, tgt)
            for q, tgt in smap.samples
            if region_contains_reference(p, region, q)
        ]
        budget = lam[region] * lambda0
        worst = 0.0
        for i in range(len(inside)):
            for j in range(i + 1, len(inside)):
                d_dom = region_distance_reference(p, region, inside[i][0], inside[j][0])
                if d_dom <= 0.0:
                    continue
                pairs += 1
                d_cod = smap.target.distance(inside[i][1], inside[j][1])
                worst = max(worst, d_cod / d_dom)
        if worst > budget * (1.0 + EQ_SLACK):
            rejections.append((region, worst, budget))
    return tuple(rejections), pairs
