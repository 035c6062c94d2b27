"""Rooted trees with half and full edges.

A tree here is a finite connected acyclic graph whose edges may have one
endpoint (half edges) or two (full edges).  A rooted tree distinguishes one
half edge; this induces a unique orientation in which every vertex is the
positive endpoint of exactly one edge (its parent edge).  The module provides
construction and validation, orientation, ancestor queries, positive paths,
splitting along full edges, exhaustive enumeration of stable rooted trees up
to root-preserving isomorphism, and the counting bounds used to control that
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ResourceCapError


class TreeError(ValueError):
    """Raised for malformed trees or invalid tree operations."""


class Tree:
    """Finite tree with half and full edges.

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tree(|V|={len(self.vertices)}, |E|={len(self.edges)})"


class RootedTree(Tree):
    """Tree with a distinguished root half edge and the induced orientation.

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
        "depth",
        "order",
        "_diverging",
    )

    def __init__(self, tree: Tree, root_edge: int):
        if root_edge not in tree.boundary:
            raise TreeError(f"root edge {root_edge} not in tree")
        if len(tree.boundary[root_edge]) != 1:
            raise TreeError("root edge must be a half edge")
        # the facts of the tree, computed and validated when it was built
        for name in Tree.__slots__:
            setattr(self, name, getattr(tree, name))
        self.root_edge = int(root_edge)
        (self.root_vertex,) = self.boundary[root_edge]

        parent_edge: dict[int, int] = {self.root_vertex: self.root_edge}
        children: dict[int, list[int]] = {v: [] for v in self.vertices}
        e_minus: dict[int, int | None] = {self.root_edge: None}
        e_plus: dict[int, int | None] = {self.root_edge: self.root_vertex}
        depth = {self.root_vertex: 0}

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
                    depth[w] = depth[v] + 1
                    kids.append(w)
                else:
                    e_plus[e] = None
            stack.extend(reversed(kids))

        self.parent_edge = parent_edge
        self.children = {v: tuple(es) for v, es in children.items()}
        self.e_minus = e_minus
        self.e_plus = e_plus
        self.depth = depth
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootedTree(root_edge={self.root_edge}, |V|={len(self.vertices)})"


@dataclass(frozen=True)
class Marking:
    """A chosen subset of half edges."""

    marked: frozenset[int] = field(default_factory=frozenset)

    def validate(self, tree: Tree) -> None:
        halves = set(tree.half_edges)
        bad = set(self.marked) - halves
        if bad:
            raise TreeError(f"marking contains non-half edges: {sorted(bad)}")


# ---------------------------------------------------------------------------
# orientation and paths
# ---------------------------------------------------------------------------


def orient(t: RootedTree) -> dict[int, dict[int, int]]:
    """Signed endpoint assignment: edge -> {vertex: +1 or -1}.

    +1 marks the positive endpoint (the one whose parent edge this is) and -1
    the negative endpoint.  The root vertex is positive on the root edge; this
    is the unique assignment in which every vertex is positive on exactly one
    edge.
    """
    out: dict[int, dict[int, int]] = {}
    for e in t.edges:
        signs: dict[int, int] = {}
        if t.e_plus[e] is not None:
            signs[t.e_plus[e]] = +1
        if t.e_minus[e] is not None:
            signs[t.e_minus[e]] = -1
        out[e] = signs
    return out


def nearest_common_ancestor(t: RootedTree, v: int, w: int) -> int:
    """Deepest vertex with positive paths to both v and w."""
    a, b = v, w
    while t.depth[a] > t.depth[b]:
        a = t.e_minus[t.parent_edge[a]]
    while t.depth[b] > t.depth[a]:
        b = t.e_minus[t.parent_edge[b]]
    while a != b:
        a = t.e_minus[t.parent_edge[a]]
        b = t.e_minus[t.parent_edge[b]]
    return a


def positive_path(t: RootedTree, u: int, v: int) -> tuple[int, ...] | None:
    """Vertex sequence from u down to v along child edges, or None.

    Each consecutive pair is joined by an edge whose negative endpoint is the
    earlier vertex, so the path moves away from the root.  Returns None when v
    is not a descendant of u.
    """
    path = [v]
    cur = v
    while cur != u:
        e = t.parent_edge[cur]
        nxt = t.e_minus[e]
        if nxt is None:
            return None
        cur = nxt
        path.append(cur)
    return tuple(reversed(path))


def diverging_pairs(t: RootedTree) -> np.ndarray:
    """Rows (k, i, j) over index pairs i < j into coordinate_pairs() whose
    pairs (v, e) and (v', e') hang below their nearest common ancestor u =
    vertices[k] through different child edges (e itself when v = u).  Found
    once per tree and kept on it, as one array of the smallest unsigned
    type that holds the pair count, so that it stays small."""
    if t._diverging is None:
        coords, index = t.coordinate_pairs(), {v: k for k, v in enumerate(t.vertices)}
        rows = []
        for i, (v, e) in enumerate(coords):
            for j in range(i + 1, len(coords)):
                u = nearest_common_ancestor(t, v, coords[j][0])
                if _edge_below(t, u, v, e) != _edge_below(t, u, *coords[j]):
                    rows += (index[u], i, j)
        t._diverging = np.array(rows, np.min_scalar_type(len(coords))).reshape(-1, 3)
    return t._diverging


def _edge_below(t: RootedTree, u: int, v: int, e: int) -> int:
    """Edge through which the pair (v, e) hangs below u; e itself when v = u."""
    return e if v == u else t.parent_edge[positive_path(t, u, v)[1]]


def path_edges(t: RootedTree, path: Sequence[int]) -> tuple[int, ...]:
    """Edges traversed by a positive path (parent edges of path[1:])."""
    return tuple(t.parent_edge[v] for v in path[1:])


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitPiece:
    """One component of a split tree.

    edge_origin maps every edge id of the piece to either the original edge id
    or, for the two replacements of a cut full edge e, the pair (e, vertex).
    """

    tree: RootedTree
    marking: Marking
    edge_origin: dict[int, int | tuple[int, int]]


def split(t: RootedTree, marking: Marking, cut: Iterable[int]) -> list[SplitPiece]:
    """Split along a set of full edges into |cut|+1 rooted marked pieces.

    Each cut edge e with endpoints u (negative) and v (positive) is replaced
    by two new half edges, one at u and one at v; both are marked.  The piece
    containing the original root vertex keeps the root edge, and every other
    piece is rooted at the half edge replacing its cut edge at the positive
    endpoint.  Vertex ids, surviving edge ids, and vertex degrees are
    preserved.
    """
    cut_set = set(int(e) for e in cut)
    bad = cut_set - set(t.full_edges)
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

    # a vertex heads its component when it is the root or its parent edge is
    # cut, and otherwise shares its parent's; components are numbered by
    # their smallest vertex
    head: dict[int, int] = {}
    for v in t.order:
        e = t.parent_edge[v]
        head[v] = v if e == t.root_edge or e in cut_set else head[t.e_minus[e]]
    number: dict[int, int] = {}
    for v in t.vertices:
        number.setdefault(head[v], len(number))
    comp = {v: number[head[v]] for v in t.vertices}

    n_comp = len(number)
    verts: list[list[int]] = [[] for _ in range(n_comp)]
    for v in t.vertices:
        verts[comp[v]].append(v)
    boundaries: list[dict[int, tuple[int, ...]]] = [dict() for _ in range(n_comp)]
    origins: list[dict[int, int | tuple[int, int]]] = [dict() for _ in range(n_comp)]
    roots = [0] * n_comp
    marks: list[set[int]] = [set() for _ in range(n_comp)]
    for h, cid in number.items():
        e = t.parent_edge[h]
        roots[cid] = e if e == t.root_edge else new_half[(e, h)]

    for e in t.edges:
        if e in cut_set:
            continue
        ends = t.boundary[e]
        cid = comp[ends[0]]
        boundaries[cid][e] = ends
        origins[cid][e] = e
        if e in marking.marked:
            marks[cid].add(e)
    for (e, v), new_e in new_half.items():
        cid = comp[v]
        boundaries[cid][new_e] = (v,)
        origins[cid][new_e] = (e, v)
        marks[cid].add(new_e)

    return [
        SplitPiece(
            RootedTree(Tree(verts[cid], boundaries[cid]), roots[cid]),
            Marking(frozenset(marks[cid])),
            origins[cid],
        )
        for cid in range(n_comp)
    ]


def reglue(pieces: Sequence[SplitPiece]) -> RootedTree:
    """Inverse of split: rejoin the pieces along their shared cut edges."""
    vertices: set[int] = set()
    boundary: dict[int, list[int]] = {}
    root_edge = None
    halves_by_cut: dict[int, list[int]] = {}
    for piece in pieces:
        vertices.update(piece.tree.vertices)
        for e in piece.tree.edges:
            origin = piece.edge_origin[e]
            if isinstance(origin, tuple):
                cut_e, v = origin
                halves_by_cut.setdefault(cut_e, []).append(v)
            else:
                boundary[origin] = list(piece.tree.boundary[e])
                if e == piece.tree.root_edge:
                    root_edge = origin
    for cut_e, ends in halves_by_cut.items():
        if len(ends) != 2:
            raise TreeError(f"cut edge {cut_e} does not have both sides present")
        boundary[cut_e] = ends
    if root_edge is None:
        raise TreeError("no piece carries the original root edge")
    return RootedTree(Tree(vertices, {e: tuple(v) for e, v in boundary.items()}), root_edge)


# ---------------------------------------------------------------------------
# enumeration up to root-preserving isomorphism
# ---------------------------------------------------------------------------

ENUMERATION_CAP = 9

# A shape is the canonical form of a stable rooted tree: the sorted tuple of
# its root vertex's children, where a child is (1, ()) for a half edge and
# (m, shape) for a subtree contributing m half edges through a full edge.
Shape = tuple


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[Shape, ...]:
    items: list[tuple[int, Shape]] = [(1, ())]
    for m in range(2, n):
        for s in _shapes(m):
            items.append((m, s))
    items.sort()
    out: list[Shape] = []
    chosen: list[tuple[int, Shape]] = []

    def rec(start: int, remaining: int) -> None:
        if remaining == 0:
            if len(chosen) >= 2:
                out.append(tuple(chosen))
            return
        for idx in range(start, len(items)):
            w = items[idx][0]
            if w > remaining:
                continue
            chosen.append(items[idx])
            rec(idx, remaining - w)
            chosen.pop()

    rec(0, n)
    return tuple(out)


def _shape_to_tree(shape: Shape) -> RootedTree:
    vertices: list[int] = []
    # edge 0 is the root edge, at vertex 0: the first vertex build numbers
    boundary: dict[int, tuple[int, ...]] = {0: (0,)}

    def build(children: Shape) -> int:
        v = len(vertices)
        vertices.append(v)
        for w, sub in children:
            ends = (v,) if w == 1 and sub == () else (v, build(sub))
            boundary[len(boundary)] = ends
        return v

    build(shape)
    return RootedTree(Tree(vertices, boundary), 0)


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


def enumerate_stable_rooted(n: int) -> list[RootedTree]:
    """All stable rooted trees with n+1 half edges, one per isomorphism class.

    Stability means every vertex has degree at least 3.  Isomorphisms must
    preserve the root edge; the remaining half edges are unlabeled.  Refuses
    n > ENUMERATION_CAP since the count grows at Catalan rate.
    """
    if n < 2:
        raise TreeError("need n >= 2 (a stable vertex has degree >= 3)")
    if n > ENUMERATION_CAP:
        raise ResourceCapError(
            f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    return [_shape_to_tree(s) for s in _shapes(n)]


def tree_count_bound(n: int) -> tuple[int, float]:
    """Upper bounds for the number of stable rooted trees with n+1 half edges.

    Returns (2^(n-2) * catalan(n), (2^n / sqrt(n))^3 / (4 sqrt(3))); the first
    is the sharper combinatorial bound, the second its closed-form relaxation.
    """
    if n < 2:
        raise TreeError("need n >= 2")
    catalan = math.comb(2 * n, n) // (n + 1)
    combinatorial = (2 ** (n - 2)) * catalan
    closed_form = (2.0**n / math.sqrt(n)) ** 3 / (4.0 * math.sqrt(3.0))
    return combinatorial, closed_form


@dataclass(frozen=True)
class EdgeCountReport:
    n_vertices: int
    n_internal: int
    n_external: int
    degree_sum: int
    chain_holds: bool
    equality_throughout: bool


def edge_counts(t: Tree) -> EdgeCountReport:
    """Vertex/edge/degree counts and the stability inequality chain.

    The chain |E_int| + 1 = |V| <= (1/3) sum(deg) <= |E_ext| - 2 holds for
    stable trees, with equality everywhere exactly when all degrees equal 3.
    """
    n_v = len(t.vertices)
    n_int = len(t.full_edges)
    n_ext = len(t.half_edges)
    deg_sum = sum(t.degree(v) for v in t.vertices)
    chain = (n_int + 1 == n_v) and (3 * n_v <= deg_sum) and (deg_sum <= 3 * (n_ext - 2))
    equality = (3 * n_v == deg_sum) and (deg_sum == 3 * (n_ext - 2))
    return EdgeCountReport(n_v, n_int, n_ext, deg_sum, chain, equality)
