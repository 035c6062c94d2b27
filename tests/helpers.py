"""Shared builders and brute-force oracles for the test suite."""

import cmath
import functools
import itertools
import math
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from bubbletree.bubbles import POSITION_TOL, BubbleConfiguration, renormalize
from bubbletree.curves import (
    EQ_SLACK,
    FILL_SKIP_LIMIT,
    RESIDUAL_TOL,
    UNIT_TARGETS,
    AnnulusPath,
    CompactnessParams,
    FiberPoint,
    MembershipReport,
    ModuliPoint,
    Region,
    SplitFiber,
    _annulus_leg,
    _complete,
    _dual_leg,
    _fiber_through,
    _leq,
    _polyline_length,
    _phi_component,
    _require_on_fiber,
    four_point_value,
    split_fiber,
)
from bubbletree.errors import InputError, VerificationError
from bubbletree.nets import (
    FiberMap,
    FiniteMetricSpace,
    ProjPoint,
    fibonacci_sphere_points,
    sphere_coords,
    sphere_distance,
    sphere_distances,
)
from bubbletree.trees import (
    Marking,
    RootedTree,
    Shape,
    SplitPiece,
    Tree,
    TreeError,
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


def assert_tree_facts(t: RootedTree) -> None:
    """Every fact a rooted tree stores equals its definition over the
    boundary, and its facts equal the reference constructors'."""
    edges = tuple(sorted(t.boundary))
    degree = {v: sum(v in ends for ends in t.boundary.values()) for v in t.vertices}
    assert t.vertices == tuple(sorted(set(t.vertices)))
    assert t.edges == edges
    assert t.full_edges == tuple(e for e in edges if len(t.boundary[e]) == 2)
    assert t.half_edges == tuple(e for e in edges if len(t.boundary[e]) == 1)
    assert {v: t.degree(v) for v in t.vertices} == degree
    assert t.incident == {v: [e for e in edges if v in t.boundary[e]] for v in t.vertices}
    assert t.is_stable() == all(d >= 3 for d in degree.values())
    assert t.coordinate_pairs() == tuple(
        sorted((v, e) for v in t.vertices for e in t.children[v])
    )
    assert t.incident_pairs() == tuple(sorted((v, e) for e in edges for v in t.boundary[e]))
    assert_tree_matches_reference(t)


class ReferenceTree:
    """trees.Tree as it was when it kept a degree dict and built the
    full-edge adjacency for its connectivity walk: a finite tree with half
    and full edges.

    vertices: iterable of integer vertex ids.
    boundary: mapping edge id -> endpoints (tuple of 1 or 2 vertex ids).
    The sorted edges, the full and the half edges among them and every vertex
    degree are computed once, in the pass that validates the boundary.
    """

    __slots__ = ("vertices", "boundary", "edges", "full_edges", "half_edges", "_degree")

    def __init__(self, vertices: Iterable[int], boundary: Mapping[int, Sequence[int]]):
        known = {int(v) for v in vertices}
        degree = dict.fromkeys(sorted(known), 0)
        bd: dict[int, tuple[int, ...]] = {}
        for e, ends in boundary.items():
            ends_t = tuple(int(v) for v in ends)
            if len(ends_t) not in (1, 2):
                raise TreeError(f"edge {e} has {len(ends_t)} endpoints; need 1 or 2")
            if len(ends_t) == 2 and ends_t[0] == ends_t[1]:
                raise TreeError(f"edge {e} is a loop")
            for v in ends_t:
                if v not in known:
                    raise TreeError(f"edge {e} mentions unknown vertex {v}")
                degree[v] += 1
            bd[int(e)] = ends_t
        if not known:
            raise TreeError("tree needs at least one vertex")
        vs = self.vertices = tuple(degree)
        self.boundary = bd
        self.edges = tuple(sorted(bd))
        self.full_edges = tuple(e for e in self.edges if len(bd[e]) == 2)
        self.half_edges = tuple(e for e in self.edges if len(bd[e]) == 1)
        self._degree = degree

        if len(self.full_edges) != len(vs) - 1:
            raise TreeError(
                f"{len(vs)} vertices need {len(vs) - 1} "
                f"full edges for a tree, got {len(self.full_edges)}"
            )
        # connectivity over full edges; acyclicity then follows from the count
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for e in self.full_edges:
            u, v = bd[e]
            adj[u].append(v)
            adj[v].append(u)
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            raise TreeError("tree is not connected")

    def degree(self, v: int) -> int:
        return self._degree.get(v, 0)

    def is_stable(self) -> bool:
        return all(d >= 3 for d in self._degree.values())


class ReferenceRootedTree(ReferenceTree):
    """trees.RootedTree as it was when it built its own incidence table: a
    tree with a distinguished root half edge and the induced orientation.

    For every edge other than the root, the endpoint nearer the root vertex is
    its negative endpoint and the farther one (when the edge is full) is
    positive.  The root vertex is the positive endpoint of the root edge.
    Consequently each vertex is the positive endpoint of exactly one edge,
    called its parent edge, and ``children[v]`` lists the edges having v as
    negative endpoint.  ``order`` lists the vertices in depth-first preorder,
    children in ascending order of their parent edges, so every vertex comes
    after its parent.
    """

    __slots__ = (
        "root_edge",
        "root_vertex",
        "parent_edge",
        "children",
        "e_minus",
        "e_plus",
        "order",
        "_diverging",
    )

    def __init__(self, tree: ReferenceTree, root_edge: int):
        if root_edge not in tree.boundary:
            raise TreeError(f"root edge {root_edge} not in tree")
        if len(tree.boundary[root_edge]) != 1:
            raise TreeError("root edge must be a half edge")
        # the facts of the tree, computed and validated when it was built
        for name in ReferenceTree.__slots__:
            setattr(self, name, getattr(tree, name))
        self.root_edge = int(root_edge)
        (self.root_vertex,) = self.boundary[root_edge]

        parent_edge: dict[int, int] = {self.root_vertex: self.root_edge}
        children: dict[int, list[int]] = {v: [] for v in self.vertices}
        e_minus: dict[int, int | None] = {self.root_edge: None}
        e_plus: dict[int, int | None] = {self.root_edge: self.root_vertex}

        incident: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in self.boundary[e]:
                incident[v].append(e)

        order = []
        stack = [self.root_vertex]
        while stack:
            v = stack.pop()
            order.append(v)
            kids = []
            for e in incident[v]:
                if e == parent_edge[v]:
                    continue
                ends = self.boundary[e]
                children[v].append(e)
                e_minus[e] = v
                if len(ends) == 2:
                    w = ends[0] if ends[1] == v else ends[1]
                    e_plus[e] = w
                    parent_edge[w] = e
                    kids.append(w)
                else:
                    e_plus[e] = None
            stack.extend(reversed(kids))

        self.parent_edge = parent_edge
        self.children = {v: tuple(es) for v, es in children.items()}
        self.e_minus = e_minus
        self.e_plus = e_plus
        self.order = tuple(order)
        # diverging_pairs, filled on first use
        self._diverging = None

    def child_edges(self, v: int) -> tuple[int, ...]:
        """Edges with v as negative endpoint (the index set for disc data at v)."""
        return self.children[v]

    def coordinate_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (v, e) with e a child edge of v, in sorted order."""
        return tuple((v, e) for v in self.vertices for e in self.children[v])

    def incident_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (v, e) with v an endpoint of e; there are sum(deg) of them."""
        return tuple(sorted((v, e) for e in self.edges for v in self.boundary[e]))


def tree_facts(t) -> dict:
    """The incidence facts of a rooted tree, by name."""
    return {
        "incident_pairs": t.incident_pairs(),
        "coordinate_pairs": t.coordinate_pairs(),
        "children": t.children,
        "order": t.order,
        "degree": {v: t.degree(v) for v in t.vertices},
        "stable": t.is_stable(),
        "e_plus": t.e_plus,
        "e_minus": t.e_minus,
    }


def assert_tree_matches_reference(t: RootedTree) -> None:
    """t's facts equal those of ReferenceRootedTree built from the same
    vertices, boundary and root edge."""
    want = ReferenceRootedTree(ReferenceTree(t.vertices, t.boundary), t.root_edge)
    assert tree_facts(t) == tree_facts(want)


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
        origins[cid][new_e] = e
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


def canonical_key(t: RootedTree) -> Shape:
    """Root-preserving isomorphism invariant: sorted child multisets of
    (half-edge weight, subtree key), computed bottom-up."""

    def weight_and_key(v: int) -> tuple[int, Shape]:
        items = []
        total = 0
        for e in t.children[v]:
            w = t.e_plus[e]
            if w is None:
                items.append((1, ()))
                total += 1
            else:
                sub_w, sub_k = weight_and_key(w)
                items.append((sub_w, sub_k))
                total += sub_w
        return total, tuple(sorted(items))

    return weight_and_key(t.root_vertex)[1]


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


def farthest_first_reference(space, start, stop=-math.inf):
    """Farthest-point traversal that recomputes, at every step, each point's
    distance to the points chosen so far from space.dist.

    Returns (index, distance to the indices before it) in insertion order,
    the first distance being inf, and ends before the first distance below
    stop (none by default); ties go to the lowest index.
    """
    order = [(start, math.inf)]
    while len(order) < space.n:
        chosen = [j for j, _ in order]
        mind = space.dist[chosen].min(axis=0)
        mind[chosen] = -math.inf
        best = int(np.flatnonzero(mind == mind.max())[0])
        if mind[best] < stop:
            break
        order.append((best, float(mind[best])))
    return order


def sphere_pairwise(a: Sequence[ProjPoint], b: Sequence[ProjPoint]) -> np.ndarray:
    """Matrix of sphere distances, rows indexing a and columns indexing b."""
    ax, ay = sphere_coords(a)
    return sphere_distances(ax[:, None], ay[:, None], *sphere_coords(b))


def gaussian_sphere_points(rng, n):
    """n points whose two coordinates are both complex Gaussians, where the
    two operand orders of nets.sphere_distances round differently in about
    one pair of six."""
    return [
        ProjPoint(complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                  complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        for _ in range(n)
    ]


def sphere_net_points_reference(gamma):
    """The points of nets.sphere_net as its scalar loop built them, kept
    verbatim (the radius check aside)."""
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
    return points


def fibonacci_sphere_points_reference(n):
    """nets.fibonacci_sphere_points as its scalar loop built them, kept
    verbatim."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    points = []
    for k in range(n):
        height = 1.0 - 2.0 * (k + 0.5) / n
        phi = 2.0 * math.pi * ((k / golden) % 1.0)
        # affine radius tan(theta/2) for colatitude theta = arccos(height)
        r = math.sqrt(max(0.0, 1.0 - height * height)) / (1.0 + height)
        points.append(ProjPoint(complex(r * math.cos(phi), r * math.sin(phi)), 1.0))
    return points


def point_bits(points):
    """float.hex of both parts of both coordinates of each ProjPoint."""
    return [
        tuple(c.hex() for z in (p.x, p.y) for c in (z.real, z.imag)) for p in points
    ]


def greedy_net_reference(points, gamma):
    """nets.greedy_net on sphere points as it was before the screen: the
    traversal lowers its minima by full rows, one per centre, and the
    covering distance takes the full row of each net point, centre first as
    the traversal calls nets.sphere_distances, with each net point's own
    entry set to 0 after.

    Returns (order, points, covering distance), order holding the
    traversal's (index, distance) pairs of the net points.
    """

    def traversal(row, n, start):
        mind = np.full(n, math.inf)
        j, d = int(start), math.inf
        for _ in range(n - 1):
            yield j, d
            np.minimum(mind, row(j), out=mind)
            mind[j] = -math.inf
            j = int(np.argmax(mind))
            d = float(mind[j])
        yield j, d

    pts = [p if isinstance(p, ProjPoint) else ProjPoint(*p) for p in points]
    xs, ys = sphere_coords(pts)
    row = lambda i: sphere_distances(xs[i], ys[i], xs, ys)
    order = []
    for j, d in traversal(row, len(pts), 0):
        if d < gamma:
            break
        order.append((j, d))
    near = np.full(len(pts), math.inf)
    for j, _ in order:
        np.minimum(near, row(j), out=near)
    near[[i for i, _ in order]] = 0.0
    return tuple(order), tuple(pts[i] for i, _ in order), float(near.max())


def screen_families():
    """{name: sphere points} for families that stress the sphere screen of
    nets.greedy_net: exact ties on symmetric and unrotated Fibonacci sets,
    duplicates, 1e-13 perturbations, the points 0, 1, -1 and infinity,
    unnormalized coordinates and 1e-3 clusters.  On the line of three points
    1e-5 apart at gamma 1e-6, a chosen centre passes the screen of a later
    one."""
    rng = random.Random(2003)
    special = [ProjPoint(0.0, 1.0), ProjPoint(1.0, 1.0), ProjPoint(-1.0, 1.0),
               ProjPoint.infinity()]
    octahedron = special + [ProjPoint(1j, 1.0), ProjPoint(-1j, 1.0)]
    fib = fibonacci_sphere_points(300)
    duplicates = fib[:40] + fib[:40] + special + special
    perturbed = [
        ProjPoint(p.x * (1.0 + 1e-13 * rng.uniform(-1, 1)), p.y)
        for p in fib[:60] for _ in range(2)
    ]
    scaled = [
        ProjPoint(p.x * c, p.y * c)
        for p in fib[:80]
        for c in [cmath.rect(10.0 ** rng.uniform(-6, 6), rng.uniform(0, 6.3))]
    ] + [ProjPoint(1e-9, 3.0), ProjPoint(3.0 - 4j, 1e-9)]
    clusters = [
        ProjPoint(z + 1e-3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)
        for z in (0.0, 1.0, -2j, 40.0)
        for _ in range(25)
    ] + [ProjPoint(1.0, 1e-3 * rng.uniform(-1, 1)) for _ in range(25)]
    line = [ProjPoint(0.3 + 0.2j + k * 1e-5, 1.0) for k in (0, 2, 1)]
    return {
        "octahedron": octahedron,
        "fibonacci": fib,
        "fibonacci-7": fibonacci_sphere_points(7),
        "single": [ProjPoint(2.0, 1.0)],
        "duplicates": duplicates,
        "perturbed": perturbed,
        "scaled": scaled,
        "clusters": clusters,
        "line": line + special,
    }


def screen_cases():
    """{id: (sphere points, gamma)}: every screen_families() family at radii
    from 2 down to 1e-6."""
    gammas = (2.0, 1.0, 0.3, 0.05, 1e-3, 1e-4, 1e-6)
    return {
        f"{name}-{gamma:g}": (pts, gamma)
        for name, pts in screen_families().items()
        for gamma in gammas
    }


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
# annulus paths: the recursive construction that curves.annulus_path replaced
# ---------------------------------------------------------------------------


def annulus_path_reference(delta, z, w, z2, w2):
    """curves.annulus_path on valid inputs, with its original control flow:
    two nodal branches, and the mixed case with |z| < |z2| solved on the
    swapped endpoints and returned reversed, lengths as the swapped call
    summed them."""
    dsq = delta * delta
    if delta == 0.0:
        if abs(z) > 0 and abs(z2) > 0:
            path_z, path_w = [z, z2], [w, w2]
        elif abs(w) > 0 and abs(w2) > 0:
            path_z, path_w = [z, z2], [w, w2]
        else:
            path_z = [z, 0.0 + 0.0j, z2]
            path_w = [w, 0.0 + 0.0j, w2]
        return AnnulusPath(
            tuple(path_z),
            tuple(path_w),
            _polyline_length(path_z),
            _polyline_length(path_w),
            "nodal",
        )

    def anchored(path, first, last):
        path = list(path)
        path[0], path[-1] = first, last
        return path

    if abs(z) >= delta and abs(z2) >= delta:
        path_z = _annulus_leg(z, z2, delta)
        path_w = anchored(_dual_leg(path_z, dsq), w, w2)
        case = "i-z"
    elif abs(z) <= delta and abs(z2) <= delta:
        path_w = _annulus_leg(w, w2, delta)
        path_z = anchored(_dual_leg(path_w, dsq), z, z2)
        case = "i-w"
    else:
        if abs(z) < abs(z2):
            flipped = annulus_path_reference(delta, z2, w2, z, w)
            return AnnulusPath(
                tuple(reversed(flipped.path_z)),
                tuple(reversed(flipped.path_w)),
                flipped.length_z,
                flipped.length_w,
                flipped.case,
            )
        if abs(z2) <= abs(z) / 2.0:
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
            inner = max(delta / 2.0, dsq)
            path_z = _annulus_leg(z, z2, inner)
            path_w = anchored(_dual_leg(path_z, dsq), w, w2)
            case = "ii-b"
    return AnnulusPath(
        tuple(path_z),
        tuple(path_w),
        _polyline_length(path_z),
        _polyline_length(path_w),
        case,
    )


# ---------------------------------------------------------------------------
# four marked points: the component search and walk that curves replaced
# ---------------------------------------------------------------------------


def _locate_component_reference(sf: SplitFiber, p: ModuliPoint, q: FiberPoint) -> int:
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


def stabilize_four_marked_reference(
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
    where = [_locate_component_reference(sf, p, q) for q in marks]

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
# decoration reference: the scalar loop that curves.decorate replaced
# ---------------------------------------------------------------------------


def max_sphere_distance_reference(a, b):
    """The largest nets.sphere_distance over the paired points of a and b,
    one scalar call per pair."""
    return max(sphere_distance(p, q) for p, q in zip(a, b, strict=True))


def _mark_distance(q1, q2):
    """The largest sphere distance between the two points' chart values,
    in one kernel call over the vertices: the bits of the scalar calls."""
    (ax, ay), (bx, by) = (sphere_coords([q.at(v) for v in q1.coords]) for q in (q1, q2))
    return float(sphere_distances(ax, ay, bx, by).max())


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


def decorate_reference(p, marked, m):
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


def near_pairs_reference(xs, ys, below):
    """curves._near_pairs by brute force: every pair i < k in row-major
    order, measured as the max over vertices of sphere_distances."""
    out = []
    for i in range(len(xs) - 1):
        rest = slice(i + 1, None)
        dist = sphere_distances(xs[i], ys[i], xs[rest], ys[rest])
        dist = dist.max(axis=1)
        k = np.flatnonzero(dist < below)
        out.extend(zip([i] * k.size, (k + i + 1).tolist(), dist[k].tolist()))
    return out


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


def chart_position_reference(p: ModuliPoint, u: int, v: int, e: int) -> complex:
    """curves.chart_positions(p, u)[(v, e)] as the path walk it was: the position of the
    disc at (v, e) as seen in the chart of an ancestor u.

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


def section_reference(p: ModuliPoint, e: int) -> FiberPoint:
    """curves.section as the telescoping it replaced: the marked point of
    the fiber attached to an external edge, each ancestor chart value
    telescoped on its own by chart_position_reference.

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
    coords = {
        w: ProjPoint(chart_position_reference(p, w, u, e), 1.0).normalized() for w in chain
    }
    return _complete(p, coords, t.root_vertex)


def nearest_common_ancestor(t: RootedTree, v: int, w: int) -> int:
    """Deepest vertex with positive paths to both v and w: the last vertex
    that the paths from the root to v and to w share."""
    root = t.root_vertex
    shared = zip(positive_path(t, root, v), positive_path(t, root, w))
    return [a for a, b in shared if a == b][-1]


def _edge_below(t, u, v, e):
    return e if v == u else t.parent_edge[positive_path(t, u, v)[1]]


def diverging_pairs_reference(t: RootedTree) -> np.ndarray:
    """trees.diverging_pairs as the brute force it was: every index pair i <
    j into coordinate_pairs(), kept when its two pairs hang below their
    nearest common ancestor through different child edges."""
    coords, index = t.coordinate_pairs(), {v: k for k, v in enumerate(t.vertices)}
    # each walk depends only on its vertices, so it is made once
    ancestor = functools.cache(functools.partial(nearest_common_ancestor, t))
    below = functools.cache(functools.partial(_edge_below, t))
    rows = []
    for i, (v, e) in enumerate(coords):
        for j in range(i + 1, len(coords)):
            u = ancestor(v, coords[j][0])
            if below(u, v, e) != below(u, *coords[j]):
                rows += (index[u], i, j)
    return np.array(rows, np.min_scalar_type(len(coords))).reshape(-1, 3)


def fiber_discriminant_reference(p):
    """curves.fiber_discriminant over the brute-force diverging pairs,
    walking the path again for each side of every pair."""
    t = p.tree
    coords = t.coordinate_pairs()
    out = 1.0 + 0.0j
    for k, i, j in diverging_pairs_reference(t).tolist():
        u, (v1, e1), (v2, e2) = t.vertices[k], coords[i], coords[j]
        out *= chart_position_reference(p, u, v1, e1) - chart_position_reference(
            p, u, v2, e2
        )
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
                d_cod = smap.target.dist[inside[i][1], inside[j][1]]
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


def position_errors_reference(cfg, assoc):
    """verify_association's position errors, walking one path per edge and
    taking each nearest bubble point with min over a shrinking list; NaN
    distances fail both tolerance tests."""
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
            value = chart_position_reference(point, assoc.root_vertex, v_e, e)
        except InputError as exc:
            errors.append(f"edge {e}: {exc}")
            continue
        best = min(remaining, key=lambda z: abs(z - value), default=None)
        if best is None or not abs(best - value) <= POSITION_TOL:
            errors.append(f"edge {e}: chart position {value} matches no bubble point")
            continue
        remaining.remove(best)
        target = mapped.get(e)
        if target is not None and not abs(target - best) <= POSITION_TOL:
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
    slack = EQ_SLACK * abs(b)
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
