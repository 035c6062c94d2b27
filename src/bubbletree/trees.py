"""Rooted trees with half and full edges.

A tree here is a finite connected acyclic graph whose edges may have one
endpoint (half edges) or two (full edges).  A ``Tree`` is only the
description of one, its vertex ids and boundary map; nothing about it is
checked.  Rooting a description at a half edge (``RootedTree``) validates it
and, in the same walk, induces the unique orientation in which every vertex
is the positive endpoint of exactly one edge (its parent edge).  The module
provides that construction, positive paths, the pairs of coordinate pairs
that diverge at a vertex, splitting along full edges, exhaustive
enumeration of stable rooted trees up to root-preserving isomorphism, and
the counting bounds used to control that enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ResourceCapError


class TreeError(ValueError):
    """Raised for malformed trees or invalid tree operations."""


@dataclass(frozen=True)
class Tree:
    """The description of a tree with half and full edges, as given.

    vertices: iterable of integer vertex ids.
    boundary: mapping edge id -> endpoints (sequence of 1 or 2 vertex ids).
    Nothing is validated or derived here: ``RootedTree`` reads the
    description, checks that it is a tree and computes its facts.
    """

    vertices: Iterable[int]
    boundary: Mapping[int, Sequence[int]]


class RootedTree:
    """A validated tree with a distinguished root half edge and the induced
    orientation.

    ``RootedTree(tree, root_edge)`` checks, in this order: every edge has 1
    or 2 endpoints, is not a loop and names known vertices; there is at least
    one vertex; there are |V| - 1 full edges; the root edge exists and is a
    half edge.  One depth-first walk from the root vertex then orients the
    tree and proves it connected: a full edge leading back to a vertex the
    walk has reached, or a vertex left unreached, is "tree is not connected"
    (with |V| - 1 full edges, a cycle implies a second component).
    ``_shape_to_tree``, whose numbering proves the boundary valid, takes
    the private ``_certified`` path: it skips the checks before the
    full-edge count, with the copy of the boundary they make, and shares
    the rest with the checked construction.

    ``vertices`` is sorted, ``edges`` sorted with ``full_edges`` and
    ``half_edges`` among them, and ``incident`` maps each vertex to its edges
    in ascending order, so the degree is the length of its entry.  For every
    edge other than the root, the endpoint nearer the root vertex is its
    negative endpoint (``e_minus``) and the farther one, when the edge is
    full, is positive (``e_plus``).  The root vertex is the positive endpoint
    of the root edge.  Each vertex is the positive endpoint of exactly one
    edge, its ``parent_edge``, and ``children[v]`` lists the edges having v
    as negative endpoint.  ``order`` lists the vertices in depth-first
    preorder, children in ascending order of their parent edges, so every
    vertex comes after its parent.
    """

    __slots__ = (
        "vertices", "boundary", "edges", "full_edges", "half_edges", "incident",
        "root_edge", "root_vertex", "parent_edge", "children", "e_minus", "e_plus",
        "order", "_diverging",
    )

    def __init__(self, tree: Tree, root_edge: int):
        incident: dict[int, list[int]] = {v: [] for v in sorted({int(v) for v in tree.vertices})}
        bd: dict[int, tuple[int, ...]] = {}
        for e, ends in tree.boundary.items():
            ends_t = tuple(map(int, ends))
            if len(ends_t) not in (1, 2):
                raise TreeError(f"edge {e} has {len(ends_t)} endpoints; need 1 or 2")
            if len(ends_t) == 2 and ends_t[0] == ends_t[1]:
                raise TreeError(f"edge {e} is a loop")
            for v in ends_t:
                if v not in incident:
                    raise TreeError(f"edge {e} mentions unknown vertex {v}")
            bd[int(e)] = ends_t
        if not incident:
            raise TreeError("tree needs at least one vertex")
        self._orient(bd, incident, tuple(sorted(bd)), root_edge)

    @classmethod
    def _certified(cls, boundary: dict[int, tuple[int, ...]], n: int) -> "RootedTree":
        """The tree rooted at edge 0 of a boundary whose every edge its
        caller has proved to have 1 or 2 distinct endpoints among the
        vertices 0 .. n - 1, with the edge ids ascending in insertion order."""
        t = object.__new__(cls)
        t._orient(boundary, {v: [] for v in range(n)}, tuple(boundary), 0)
        return t

    def _orient(self, bd: dict, incident: dict, edges: tuple, root_edge: int) -> None:
        """Tabulate the boundary bd, whose edges are checked (incident keys
        its sorted vertices, each with an empty list; edges is sorted), and
        run the remaining checks and the walk."""
        vs = self.vertices = tuple(incident)
        self.boundary = bd
        self.edges = edges
        # far[e] ^ x is the other end of the full edge e from its end x
        full, half, far = [], [], {}
        for e in edges:
            ends = bd[e]
            if len(ends) == 2:
                v, w = ends
                full.append(e)
                far[e] = v ^ w
                incident[v].append(e)
                incident[w].append(e)
            else:
                half.append(e)
                incident[ends[0]].append(e)
        self.full_edges = tuple(full)
        self.half_edges = tuple(half)
        self.incident = incident

        if len(self.full_edges) != len(vs) - 1:
            raise TreeError(
                f"{len(vs)} vertices need {len(vs) - 1} "
                f"full edges for a tree, got {len(self.full_edges)}"
            )
        if root_edge not in bd:
            raise TreeError(f"root edge {root_edge} not in tree")
        if len(bd[root_edge]) != 1:
            raise TreeError("root edge must be a half edge")
        root = self.root_edge = int(root_edge)
        (self.root_vertex,) = bd[root]

        parent_edge = self.parent_edge = {self.root_vertex: root}
        children = self.children = dict.fromkeys(vs)
        e_minus = self.e_minus = {root: None}
        e_plus = self.e_plus = {root: self.root_vertex}
        order = []
        stack = [self.root_vertex]
        while stack:
            v = stack.pop()
            order.append(v)
            down = incident[v].copy()
            down.remove(parent_edge[v])
            children[v] = down = tuple(down)
            kids = []
            for e in down:
                e_minus[e] = v
                if e in far:
                    w = far[e] ^ v
                    if w in parent_edge:
                        raise TreeError("tree is not connected")
                    e_plus[e] = w
                    parent_edge[w] = e
                    kids.append(w)
                else:
                    e_plus[e] = None
            kids.reverse()
            stack += kids
        if len(order) != len(vs):
            raise TreeError("tree is not connected")
        self.order = tuple(order)
        # diverging_pairs, filled on first use
        self._diverging = None

    def degree(self, v: int) -> int:
        return len(self.incident.get(v, ()))

    def is_stable(self) -> bool:
        return all(len(es) >= 3 for es in self.incident.values())

    def child_edges(self, v: int) -> tuple[int, ...]:
        """Edges with v as negative endpoint (the index set for disc data at v)."""
        return self.children[v]

    def coordinate_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (v, e) with e a child edge of v, in sorted order."""
        return tuple((v, e) for v in self.vertices for e in self.children[v])

    def incident_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (v, e) with v an endpoint of e, in sorted order; there are
        sum(deg) of them."""
        return tuple((v, e) for v, es in self.incident.items() for e in es)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootedTree(root_edge={self.root_edge}, |V|={len(self.vertices)})"


@dataclass(frozen=True)
class Marking:
    """A chosen subset of half edges."""

    marked: frozenset[int] = field(default_factory=frozenset)

    def validate(self, tree: RootedTree) -> None:
        halves = set(tree.half_edges)
        bad = set(self.marked) - halves
        if bad:
            raise TreeError(f"marking contains non-half edges: {sorted(bad)}")


# ---------------------------------------------------------------------------
# paths and diverging pairs
# ---------------------------------------------------------------------------


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
    vertices[k] through different child edges (e itself when v = u), in
    ascending order of (i, j).  One pass from the leaves up: at u the group
    of a child edge f is (u, f) followed by the pairs below f, and the rows
    at u are the pairs across two groups.  Found once per tree and kept on
    it, as one array of the smallest unsigned type that holds the pair
    count, so that it stays small."""
    if t._diverging is None:
        coords = t.coordinate_pairs()
        index = {q: i for i, q in enumerate(coords)}
        rank = {v: k for k, v in enumerate(t.vertices)}
        # below[w]: the pairs at or below w; a half edge's e_plus is None
        below, rows = {None: []}, []
        for u in reversed(t.order):
            groups = [[index[u, f], *below[t.e_plus[f]]] for f in t.children[u]]
            for g, h in itertools.combinations(groups, 2):
                rows += [(min(i, j), max(i, j), rank[u]) for i in g for j in h]
            below[u] = list(itertools.chain.from_iterable(groups))
        rows.sort()
        table = [(k, i, j) for i, j, k in rows]
        t._diverging = np.array(table, np.min_scalar_type(len(coords))).reshape(-1, 3)
    return t._diverging


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitPiece:
    """One component of a split tree.

    edge_origin maps every edge id of the piece to its original edge id.
    The two replacements of a cut full edge e are the half edges whose new
    id, past every original id, maps to e; each has one endpoint.
    """

    tree: RootedTree
    marking: Marking
    edge_origin: dict[int, int]


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
    origins: list[dict[int, int]] = [dict() for _ in range(n_comp)]
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
        origins[cid][new_e] = e
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
            if origin != e:
                halves_by_cut.setdefault(origin, []).append(piece.tree.boundary[e][0])
            else:
                boundary[e] = list(piece.tree.boundary[e])
                if e == piece.tree.root_edge:
                    root_edge = e
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
    """The rooted tree of a shape, its vertices numbered in preorder and
    each edge numbered after the edges below it.

    Certificate: each edge is added once, ascending, with one endpoint or
    two distinct ones, all among the vertices numbered; each vertex but 0
    is joined to its parent by exactly one full edge, so there are |V| - 1
    full edges and the tree is connected; edge 0 is a half edge at vertex 0.
    """
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
    return RootedTree._certified(boundary, len(vertices))


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
    From n = 346 the closed form is past double range, and InputError names n.
    """
    if n < 2:
        raise TreeError("need n >= 2")
    try:
        closed_form = (2.0**n / math.sqrt(n)) ** 3 / (4.0 * math.sqrt(3.0))
    except OverflowError:
        raise InputError(
            f"n = {n} is too large: (2^n / sqrt(n))^3 is not a finite double"
        ) from None
    catalan = math.comb(2 * n, n) // (n + 1)
    combinatorial = (2 ** (n - 2)) * catalan
    return combinatorial, closed_form


@dataclass(frozen=True)
class EdgeCountReport:
    n_vertices: int
    n_internal: int
    n_external: int
    degree_sum: int
    chain_holds: bool
    equality_throughout: bool


def edge_counts(t: RootedTree) -> EdgeCountReport:
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
