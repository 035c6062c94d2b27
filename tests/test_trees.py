import itertools
import random

import pytest

from bubbletree import trees
from helpers import (
    assert_tree_facts,
    oracle_count_stable_rooted,
    split_components_reference,
)
from bubbletree.errors import ResourceCapError
from bubbletree.trees import (
    Marking,
    RootedTree,
    Tree,
    TreeError,
    canonical_key,
    edge_counts,
    enumerate_stable_rooted,
    nearest_common_ancestor,
    orient,
    positive_path,
    reglue,
    split,
    tree_count_bound,
)

# Counts for n = 2..8 frozen from the brute-force oracle below.
EXPECTED_COUNTS = {2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90, 8: 261}


def one_vertex_tree(n_half=3):
    boundary = {e: (0,) for e in range(n_half)}
    return RootedTree(Tree([0], boundary), 0)


def chain_tree():
    # v0 --e1-- v1, root half edge e0 at v0, half edges e2, e3 at v1
    t = Tree([0, 1], {0: (0,), 1: (0, 1), 2: (1,), 3: (1,), 4: (0,)})
    return RootedTree(t, 0)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_match_oracle():
    for n in range(2, 8):
        assert len(enumerate_stable_rooted(n)) == oracle_count_stable_rooted(n)


def test_enumeration_counts_frozen():
    for n, expected in EXPECTED_COUNTS.items():
        if n <= 7:
            assert len(enumerate_stable_rooted(n)) == expected


def test_enumeration_outputs_valid():
    for n in range(2, 8):
        ts = enumerate_stable_rooted(n)
        keys = set()
        for t in ts:
            assert t.is_stable()
            assert len(t.half_edges) == n + 1
            keys.add(canonical_key(t))
        assert len(keys) == len(ts)


def test_enumerated_trees_store_their_facts():
    for n in range(2, 8):
        for t in enumerate_stable_rooted(n):
            assert isinstance(t, Tree)
            assert_tree_facts(t)
            # a tree built from a rooted tree, and a rooting of that tree
            plain = Tree(t.vertices, t.boundary)
            assert_tree_facts(plain)
            again = RootedTree(plain, t.root_edge)
            assert (again.order, again.children) == (t.order, t.children)


def test_enumeration_bounds():
    for n in range(2, 8):
        count = len(enumerate_stable_rooted(n))
        cat, closed = tree_count_bound(n)
        assert count <= cat
        assert cat <= closed * (1 + 1e-12)


def test_enumeration_range_errors():
    with pytest.raises(TreeError):
        enumerate_stable_rooted(1)
    with pytest.raises(ResourceCapError):
        enumerate_stable_rooted(trees.ENUMERATION_CAP + 1)


def test_count_bound_values():
    assert tree_count_bound(3)[0] == 10
    assert tree_count_bound(2)[0] == 2
    assert tree_count_bound(6)[0] == 2112


# ---------------------------------------------------------------------------
# edge counts
# ---------------------------------------------------------------------------


def test_edge_count_identities_on_enumerated():
    for n in range(2, 8):
        for t in enumerate_stable_rooted(n):
            rep = edge_counts(t)
            assert rep.n_vertices == rep.n_internal + 1
            assert rep.degree_sum == rep.n_external + 2 * rep.n_internal
            assert rep.chain_holds
            maximal = all(t.degree(v) == 3 for v in t.vertices)
            assert rep.equality_throughout == maximal


def test_edge_count_examples():
    rep = edge_counts(one_vertex_tree(3))
    assert (rep.n_vertices, rep.n_internal, rep.n_external, rep.degree_sum) == (1, 0, 3, 3)
    assert rep.equality_throughout
    rep = edge_counts(chain_tree())
    assert (rep.n_vertices, rep.n_internal, rep.n_external, rep.degree_sum) == (2, 1, 4, 6)
    assert rep.equality_throughout


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------


def test_orientation_trivial_examples():
    t = one_vertex_tree(1)
    assert orient(t)[0] == {0: +1}

    c = RootedTree(Tree([0, 1], {0: (0,), 1: (0, 1), 2: (1,), 3: (1,)}), 0)
    signs = orient(c)[1]
    assert signs == {0: -1, 1: +1}


def _all_valid_orientations(t: RootedTree):
    """Exhaustive scan over sign assignments, for small trees only."""
    edges = t.edges
    choices = []
    for e in edges:
        ends = t.boundary[e]
        if len(ends) == 1:
            choices.append([{ends[0]: +1}, {ends[0]: -1}])
        else:
            u, v = ends
            choices.append([{u: +1, v: -1}, {u: -1, v: +1}])
    valid = []
    for combo in itertools.product(*choices):
        assign = dict(zip(edges, combo))
        if assign[t.root_edge][t.root_vertex] != +1:
            continue
        ok = True
        for v in t.vertices:
            pos = sum(
                1 for e in edges if v in t.boundary[e] and assign[e][v] == +1
            )
            if pos != 1:
                ok = False
                break
        if ok:
            valid.append(assign)
    return valid


def test_orientation_unique_exhaustive():
    samples = [one_vertex_tree(2), one_vertex_tree(4), chain_tree()]
    samples += [t for t in enumerate_stable_rooted(3)]
    for t in samples:
        assert len(t.edges) <= 5
        valid = _all_valid_orientations(t)
        assert len(valid) == 1
        assert valid[0] == orient(t)


def test_orientation_on_random_tree():
    rng = random.Random(7)
    vertices = list(range(10))
    boundary = {}
    eid = 0
    boundary[eid] = (0,)
    root = eid
    eid += 1
    for v in range(1, 10):
        boundary[eid] = (rng.randrange(v), v)
        eid += 1
    for _ in range(6):
        boundary[eid] = (rng.randrange(10),)
        eid += 1
    t = RootedTree(Tree(vertices, boundary), root)
    for v in t.vertices:
        assert t.parent_edge[v] in t.edges
    signs = orient(t)
    for v in t.vertices:
        pos = [e for e, s in signs.items() if s.get(v) == +1]
        assert len(pos) == 1 and pos[0] == t.parent_edge[v]


def test_order_lists_every_vertex_after_its_parent():
    samples = [one_vertex_tree(2), chain_tree()] + enumerate_stable_rooted(6)
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 12)
        boundary = {0: (0,)}
        for v in range(1, n):
            boundary[v] = (rng.randrange(v), v)
        for j in range(n, n + 2 * n + 1):
            boundary[j] = (rng.randrange(n),)
        samples.append(RootedTree(Tree(list(range(n)), boundary), 0))
    for t in samples:
        assert sorted(t.order) == sorted(t.vertices)
        assert t.order[0] == t.root_vertex
        seen = {t.root_vertex}
        for v in t.order[1:]:
            assert t.e_minus[t.parent_edge[v]] in seen
            seen.add(v)
        assert list(t.order) == ascending_preorder(t)


def ascending_preorder(t):
    out = []

    def visit(v):
        out.append(v)
        for e in sorted(t.child_edges(v)):
            w = t.e_plus[e]
            if w is not None:
                visit(w)

    visit(t.root_vertex)
    return out


# ---------------------------------------------------------------------------
# ancestors and paths
# ---------------------------------------------------------------------------


def test_nca_examples():
    c = chain_tree()
    assert nearest_common_ancestor(c, 1, 1) == 1
    assert nearest_common_ancestor(c, 0, 1) == 0

    # star: root v0 with two full edges to v1, v2
    star = RootedTree(
        Tree(
            [0, 1, 2],
            {0: (0,), 1: (0, 1), 2: (0, 2), 3: (1,), 4: (1,), 5: (2,), 6: (2,), 7: (0,)},
        ),
        0,
    )
    assert nearest_common_ancestor(star, 1, 2) == 0
    assert nearest_common_ancestor(star, 1, 0) == 0


def test_positive_path():
    # chain v0 -> v1 -> v2
    t = RootedTree(
        Tree(
            [0, 1, 2],
            {0: (0,), 1: (0, 1), 2: (1, 2), 3: (0,), 4: (1,), 5: (2,), 6: (2,)},
        ),
        0,
    )
    assert positive_path(t, 0, 0) == (0,)
    assert positive_path(t, 0, 2) == (0, 1, 2)
    assert positive_path(t, 2, 0) is None
    assert trees.path_edges(t, (0, 1, 2)) == (1, 2)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_empty():
    t = chain_tree()
    pieces = split(t, Marking(frozenset()), [])
    assert len(pieces) == 1
    assert canonical_key(pieces[0].tree) == canonical_key(t)


def test_split_chain():
    t = chain_tree()
    pieces = split(t, Marking(frozenset()), [1])
    assert len(pieces) == 2
    by_root_vertex = {p.tree.root_vertex: p for p in pieces}
    assert set(by_root_vertex) == {0, 1}
    # component of the positive endpoint is rooted at the new half edge
    far = by_root_vertex[1]
    assert far.edge_origin[far.tree.root_edge] == (1, 1)
    near = by_root_vertex[0]
    assert near.tree.root_edge == 0
    # both replacement half edges are marked
    for p in pieces:
        new_halves = {e for e, o in p.edge_origin.items() if isinstance(o, tuple)}
        assert new_halves <= p.marking.marked


def test_split_preserves_degrees_and_reglues():
    rng = random.Random(11)
    for n in range(3, 8):
        for t in enumerate_stable_rooted(n):
            full = list(t.full_edges)
            if not full:
                continue
            cut = rng.sample(full, rng.randint(1, len(full)))
            pieces = split(t, Marking(frozenset()), cut)
            assert len(pieces) == len(cut) + 1
            degs = {}
            for p in pieces:
                for v in p.tree.vertices:
                    degs[v] = p.tree.degree(v)
            assert degs == {v: t.degree(v) for v in t.vertices}
            glued = reglue(pieces)
            assert canonical_key(glued) == canonical_key(t)


def piece_record(piece):
    t = piece.tree
    return (
        t.vertices,
        list(t.boundary.items()),
        t.root_edge,
        piece.marking,
        list(piece.edge_origin.items()),
        t.order,
    )


def test_split_matches_component_search_reference():
    splits = 0
    for n in range(2, 8):
        for t in enumerate_stable_rooted(n):
            marking = Marking(frozenset(t.half_edges[::2]))
            full = t.full_edges
            for k in range(len(full) + 1):
                for cut in itertools.combinations(full, k):
                    pieces = split(t, marking, cut)
                    want = split_components_reference(t, marking, cut)
                    assert list(map(piece_record, pieces)) == list(
                        map(piece_record, want)
                    )
                    for piece in pieces:
                        assert_tree_facts(piece.tree)
                    glued, glued_want = reglue(pieces), reglue(want)
                    assert_tree_facts(glued)
                    assert list(glued.boundary.items()) == list(
                        glued_want.boundary.items()
                    )
                    assert (glued.vertices, glued.root_edge, glued.order) == (
                        t.vertices,
                        t.root_edge,
                        t.order,
                    )
                    splits += 1
    assert splits > 1000


def test_split_rejects_half_edge():
    t = chain_tree()
    with pytest.raises(TreeError):
        split(t, Marking(frozenset()), [2])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_tree_validation_errors():
    with pytest.raises(TreeError):
        Tree([0, 1, 2], {0: (0, 1), 1: (1, 2), 2: (2, 0)})  # cycle
    with pytest.raises(TreeError):
        Tree([0, 1], {0: (0,), 1: (1,)})  # disconnected
    with pytest.raises(TreeError):
        Tree([0], {0: (0, 0)})  # loop
    with pytest.raises(TreeError):
        Tree([0], {0: ()})  # no endpoints
    with pytest.raises(TreeError):
        RootedTree(Tree([0, 1], {0: (0, 1), 1: (0,), 2: (1,)}), 0)  # full root


@pytest.mark.parametrize(
    "vertices, boundary, message",
    [
        ([0], {0: ()}, "edge 0 has 0 endpoints; need 1 or 2"),
        ([0], {0: (0, 9), 1: (0, 0)}, "edge 0 mentions unknown vertex 9"),
        ([], {0: (0,)}, "edge 0 mentions unknown vertex 0"),
        ([0], {0: (0,), 1: (7, 7)}, "edge 1 is a loop"),
        ([0, 1], {0: (0, 0), 1: (1,)}, "edge 0 is a loop"),
        ([], {}, "tree needs at least one vertex"),
        ([0, 1], {0: (0,), 1: (1,)}, "2 vertices need 1 full edges for a tree, got 0"),
        (
            [0, 1, 2],
            {0: (0, 1), 1: (1, 2), 2: (2, 0)},
            "3 vertices need 2 full edges for a tree, got 3",
        ),
        ([0, 1, 2, 3], {0: (0, 1), 1: (1, 0), 2: (2, 3)}, "tree is not connected"),
    ],
)
def test_tree_error_messages_in_check_order(vertices, boundary, message):
    with pytest.raises(TreeError) as exc:
        Tree(vertices, boundary)
    assert str(exc.value) == message


def test_rooting_errors():
    t = chain_tree()
    with pytest.raises(TreeError, match="^root edge 9 not in tree$"):
        RootedTree(t, 9)
    with pytest.raises(TreeError, match="^root edge must be a half edge$"):
        RootedTree(t, 1)


def test_marking_validation():
    t = chain_tree()
    with pytest.raises(TreeError):
        Marking(frozenset({1})).validate(t)
    Marking(frozenset({2, 3})).validate(t)
