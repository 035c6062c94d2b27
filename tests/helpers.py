"""Shared builders and brute-force oracles for the test suite."""

import cmath
import itertools
import math
import random

from bubbletree.bubbles import POSITION_TOL, BubbleConfiguration, renormalize
from bubbletree.curves import (
    EQ_SLACK,
    FILL_SKIP_LIMIT,
    RESIDUAL_TOL,
    UNIT_TARGETS,
    CompactnessParams,
    MembershipReport,
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
from bubbletree.trees import (
    Marking,
    RootedTree,
    SplitPiece,
    Tree,
    TreeError,
    nearest_common_ancestor,
    positive_path,
)


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


def assert_tree_facts(t: Tree) -> None:
    """Every fact a tree stores equals its definition over the boundary."""
    edges = tuple(sorted(t.boundary))
    degree = {v: sum(v in ends for ends in t.boundary.values()) for v in t.vertices}
    assert t.vertices == tuple(sorted(set(t.vertices)))
    assert t.edges == edges
    assert t.full_edges == tuple(e for e in edges if len(t.boundary[e]) == 2)
    assert t.half_edges == tuple(e for e in edges if len(t.boundary[e]) == 1)
    assert {v: t.degree(v) for v in t.vertices} == degree
    assert t.is_stable() == all(d >= 3 for d in degree.values())
    if isinstance(t, RootedTree):
        assert t.coordinate_pairs() == tuple(
            sorted((v, e) for v in t.vertices for e in t.children[v])
        )
        assert t.incident_pairs() == tuple(
            sorted((v, e) for e in edges for v in t.boundary[e])
        )


def split_components_reference(t: RootedTree, marking: Marking, cut) -> list:
    """split() with components found by a depth-first search over the
    surviving full edges, numbered by their smallest vertex."""
    cut_set = set(int(e) for e in cut)
    full = set(t.full_edges)
    bad = cut_set - full
    if bad:
        raise TreeError(f"cannot split along non-full edges {sorted(bad)}")
    marking.validate(t)

    next_id = max(t.edges) + 1
    new_half: dict[tuple[int, int], int] = {}
    for e in sorted(cut_set):
        u, v = t.e_minus[e], t.e_plus[e]
        new_half[(e, u)] = next_id
        new_half[(e, v)] = next_id + 1
        next_id += 2

    adj: dict[int, list[int]] = {v: [] for v in t.vertices}
    for e in full - cut_set:
        u, v = t.boundary[e]
        adj[u].append(v)
        adj[v].append(u)
    comp: dict[int, int] = {}
    comp_order = []
    for v in t.vertices:
        if v in comp:
            continue
        cid = len(comp_order)
        comp_order.append(v)
        stack = [v]
        comp[v] = cid
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp[y] = cid
                    stack.append(y)

    n_comp = len(comp_order)
    verts: list[list[int]] = [[] for _ in range(n_comp)]
    for v in t.vertices:
        verts[comp[v]].append(v)
    boundaries: list[dict] = [dict() for _ in range(n_comp)]
    origins: list[dict] = [dict() for _ in range(n_comp)]
    roots: list[int | None] = [None] * n_comp
    marks: list[set[int]] = [set() for _ in range(n_comp)]

    for e in t.edges:
        if e in cut_set:
            continue
        ends = t.boundary[e]
        cid = comp[ends[0]]
        boundaries[cid][e] = ends
        origins[cid][e] = e
        if e == t.root_edge:
            roots[cid] = e
        if e in marking.marked:
            marks[cid].add(e)
    for (e, v), new_e in new_half.items():
        cid = comp[v]
        boundaries[cid][new_e] = (v,)
        origins[cid][new_e] = (e, v)
        marks[cid].add(new_e)
        if v == t.e_plus[e]:
            roots[cid] = new_e

    pieces = []
    for cid in range(n_comp):
        if roots[cid] is None:
            raise TreeError("split produced a rootless component")
        piece_tree = RootedTree(Tree(verts[cid], boundaries[cid]), roots[cid])
        pieces.append(
            SplitPiece(piece_tree, Marking(frozenset(marks[cid])), origins[cid])
        )
    return pieces


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
    for u in t.boundary[e]:
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


# ---------------------------------------------------------------------------
# scalar loops of the pairwise checks, one _leq per inequality
# ---------------------------------------------------------------------------


def is_type_eps_reference(cfg, eps):
    """bubbles.is_type_eps as a loop over the points, then over the pairs."""
    for z in cfg.points:
        if not _leq(abs(z), eps):
            return False
        if not _leq(cfg.radius[z], 4.0 * eps):
            return False
    quarter = eps * eps / 4.0
    for x, y in itertools.combinations(cfg.points, 2):
        if not _leq(cfg.radius[x] + cfg.radius[y], quarter * abs(x - y)):
            return False
    return True


def is_standard_reference(cfg, eps):
    return (
        is_type_eps_reference(cfg, eps)
        and any(z == 0 for z in cfg.points)
        and _leq(eps, max(abs(z) for z in cfg.points))
    )


def renormalize_base_reference(cfg, eps):
    """renormalize's kappa and base point from the lexicographically least
    attaining ordered pair, scanning every pair."""
    pts = cfg.points
    maxd = max(abs(x - y) for x, y in itertools.combinations(pts, 2))
    attaining = [(x, y) for x in pts for y in pts if x != y and abs(x - y) == maxd]
    pool = attaining
    if is_standard_reference(cfg, eps):
        pool = [p for p in attaining if p[0] == 0] or attaining
    x_star, _ = min(pool, key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    return maxd / eps, x_star


def reduce_checks_reference(cfg, eps, sel, r_idx):
    """reduce's checks on the selection (sel, r_idx) of cluster_select, as
    the pair loop over the centers and the loop over the points.  Returns
    the first failure message, or None."""
    pts = cfg.points
    k = len(sel)
    centers = tuple(pts[i] for i in sel)
    retraction = {pts[i]: pts[r_idx[i]] for i in range(len(pts))}
    cutoff = (4.0 * eps**3) ** k / (4.0 * eps * eps)
    rho_p = {x: max(cutoff, cfg.radius[x] / (4.0 * eps)) for x in centers}
    for x, y in itertools.combinations(centers, 2):
        if not _leq(rho_p[x] + rho_p[y], 2.0 * eps * abs(x - y)):
            return f"centers {x}, {y} violate the 2 eps separation bound"
    for z in pts:
        x = retraction[z]
        if not _leq(abs(z - x), 4.0 * eps * eps * rho_p[x]):
            return f"point {z} strays outside its cluster disc"
        if not _leq(cfg.radius[z], 4.0 * eps * rho_p[x]):
            return f"radius at {z} exceeds its cluster budget"
        if z != x and rho_p[x] != cutoff:
            return f"center {x} has satellites but a non-cutoff radius"
    return None


def position_errors_reference(cfg, assoc):
    """verify_association's position errors, taking each nearest bubble
    point with min over a shrinking list."""
    rooted, point = assoc.tree, assoc.point
    errors = []
    external = [e for e in rooted.half_edges if e != rooted.root_edge]
    mapped = dict(assoc.edge_to_bubble)
    if set(mapped) != set(external):
        errors.append(
            f"edge_to_bubble keys {sorted(mapped)} differ from the external "
            f"non-root edges {sorted(external)}"
        )
    remaining = list(cfg.points)
    for e in sorted(external):
        (v_e,) = rooted.boundary[e]
        try:
            value = chart_position(point, assoc.root_vertex, v_e, e)
        except InputError as exc:
            errors.append(f"edge {e}: {exc}")
            continue
        best = min(remaining, key=lambda z: abs(z - value), default=None)
        if best is None or abs(best - value) > POSITION_TOL:
            errors.append(f"edge {e}: chart position {value} matches no bubble point")
            continue
        remaining.remove(best)
        target = mapped.get(e)
        if target is not None and abs(target - best) > POSITION_TOL:
            errors.append(
                f"edge {e}: edge_to_bubble says {target} but the chart shows {best}"
            )
    errors.extend(f"no edge position matches bubble point {z}" for z in remaining)
    return tuple(errors)


def in_compact_subset_reference(p, c):
    """curves.in_compact_subset as four loops of scalar _leq, counting each
    inequality as it is tested."""
    t = p.tree
    checked = 0
    for v, e in t.coordinate_pairs():
        checked += 1
        if not _leq(abs(p.z(v, e)), c.theta):
            return MembershipReport(
                False, f"|z[{v},{e}]| = {abs(p.z(v, e))} > theta = {c.theta}", checked
            )
    for v, e in t.coordinate_pairs():
        checked += 1
        r = abs(p.rho(v, e))
        if not _leq(c.alpha_of(v), r):
            return MembershipReport(
                False, f"|rho[{v},{e}]| = {r} < alpha[{v}] = {c.alpha_of(v)}", checked
            )
        if not _leq(r, 2.0 * c.theta):
            return MembershipReport(
                False, f"|rho[{v},{e}]| = {r} > 2 theta = {2 * c.theta}", checked
            )
    for v in sorted(t.vertices):
        kids = t.child_edges(v)
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                checked += 1
                e, f = kids[i], kids[j]
                lhs = abs(p.rho(v, e)) + abs(p.rho(v, f))
                rhs = c.tau * abs(p.z(v, e) - p.z(v, f))
                if not _leq(lhs, rhs):
                    return MembershipReport(
                        False,
                        f"|rho[{v},{e}]| + |rho[{v},{f}]| = {lhs} > "
                        f"tau |z[{v},{e}] - z[{v},{f}]| = {rhs}",
                        checked,
                    )
    for e in t.full_edges:
        checked += 1
        if not _leq(abs(p.gamma_of(e)), c.tau):
            return MembershipReport(
                False, f"|gamma[{e}]| = {abs(p.gamma_of(e))} > tau = {c.tau}", checked
            )
    return MembershipReport(True, None, checked)


def slack_edges(b):
    """Values around a closed boundary of _leq at b: b itself, b shifted by
    the slack either way (the last value admitted on the larger side of
    a <= b, or on the smaller side of b <= a), and one and two ulps on
    either side of each."""
    slack = EQ_SLACK * max(1.0, abs(b))
    out = set()
    for x in (b - slack, b, b + slack):
        out.add(x)
        lo = hi = x
        for _ in range(2):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out |= {lo, hi}
    return sorted(v for v in out if v >= 0.0)


def triangle_failure_reference(d):
    """First middle point j through which a symmetric, zero-diagonal matrix
    breaks the triangle inequality beyond FiniteMetricSpace's tolerance, one
    j at a time; None when there is none."""
    tol = 1e-9 * max(1.0, float(d.max()))
    for j in range(d.shape[0]):
        if (d > d[:, j : j + 1] + d[j : j + 1, :] + tol).any():
            return j
    return None
