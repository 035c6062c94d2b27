import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bubbletree import trees
from helpers import (
    ReferenceRootedTree,
    ReferenceTree,
    assert_tree_facts,
    assert_tree_matches_reference,
    canonical_key,
    diverging_pairs_reference,
    nearest_common_ancestor,
    oracle_count_stable_rooted,
    split_components_reference,
)
from bubbletree.errors import InputError, ResourceCapError
from bubbletree.trees import (
    Marking,
    RootedTree,
    Tree,
    TreeError,
    diverging_pairs,
    edge_counts,
    enumerate_stable_rooted,
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
    for n in range(2, 10):
        for t in enumerate_stable_rooted(n):
            assert_tree_facts(t)
            # the tree rooted again from a description of it
            again = RootedTree(Tree(t.vertices, t.boundary), t.root_edge)
            assert_tree_facts(again)
            assert (again.order, again.children) == (t.order, t.children)


def test_certified_trees_equal_the_checked_construction_slot_by_slot():
    # the certified path skips the boundary checks; every slot, its type and
    # every list, tuple and dict order equal the checked construction's
    for n in range(2, 10):
        for t in enumerate_stable_rooted(n):
            want = RootedTree(Tree(t.vertices, t.boundary), 0)
            assert list(t.boundary) == sorted(t.boundary)
            for name in RootedTree.__slots__:
                got, expected = getattr(t, name), getattr(want, name)
                assert type(got) is type(expected), name
                if isinstance(expected, dict):
                    assert list(got.items()) == list(expected.items()), name
                else:
                    assert got == expected, name


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


def test_count_bound_past_double_range_names_n():
    # (2^n / sqrt(n))^3 overflowed as a bare OverflowError from n = 346
    assert math.isfinite(tree_count_bound(345)[1])
    for n in (346, 400):
        with pytest.raises(InputError, match=f"n = {n} is too large"):
            tree_count_bound(n)


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
    assert (t.e_plus[0], t.e_minus[0]) == (0, None)

    c = RootedTree(Tree([0, 1], {0: (0,), 1: (0, 1), 2: (1,), 3: (1,)}), 0)
    assert (c.e_plus[1], c.e_minus[1]) == (1, 0)


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
        # +1 at the positive endpoint, -1 at the negative one
        assert valid[0] == {
            e: {v: s for v, s in ((t.e_plus[e], +1), (t.e_minus[e], -1)) if v is not None}
            for e in t.edges
        }


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
    for v in t.vertices:
        pos = [e for e in t.edges if t.e_plus[e] == v]
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


def test_diverging_pairs_equal_the_brute_force():
    # rows, their order and their dtype, on chains of 2 to 64 vertices and
    # on every stable rooted tree with at most 8 half edges
    chains = [helpers.chain_tree(2**k) for k in range(1, 7)]
    every = [t for n in range(2, 8) for t in enumerate_stable_rooted(n)]
    for t in chains + every:
        got, want = diverging_pairs(t), diverging_pairs_reference(t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


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
    assert (t.parent_edge[1], t.parent_edge[2]) == (1, 2)


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
    assert far.edge_origin[far.tree.root_edge] == 1 != far.tree.root_edge
    assert far.tree.boundary[far.tree.root_edge] == (1,)
    near = by_root_vertex[0]
    assert near.tree.root_edge == 0
    # both replacement half edges are marked
    for p in pieces:
        new_halves = {e for e, o in p.edge_origin.items() if o != e}
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
        RootedTree(Tree([0, 1, 2], {0: (0, 1), 1: (1, 2), 2: (2, 0)}), 0)  # cycle
    with pytest.raises(TreeError):
        RootedTree(Tree([0, 1], {0: (0,), 1: (1,)}), 0)  # disconnected
    with pytest.raises(TreeError):
        RootedTree(Tree([0], {0: (0, 0)}), 0)  # loop
    with pytest.raises(TreeError):
        RootedTree(Tree([0], {0: ()}), 0)  # no endpoints
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
        ([0, 1, 2, 3], {0: (0, 1), 1: (1, 0), 2: (2, 3), 3: (0,)}, "tree is not connected"),
    ],
)
def test_tree_error_messages_in_check_order(vertices, boundary, message):
    # rooted at the first half edge (edge 0 when there is none); every case
    # but the last fails before the root is checked
    root_edge = next((e for e, ends in boundary.items() if len(ends) == 1), 0)
    with pytest.raises(TreeError) as exc:
        RootedTree(Tree(vertices, boundary), root_edge)
    assert str(exc.value) == message


def test_root_errors_come_before_connectivity():
    # the walk from the root proves connectivity, so it needs a valid root
    disconnected = Tree([0, 1, 2, 3], {0: (0, 1), 1: (1, 0), 2: (2, 3), 3: (0,)})
    with pytest.raises(TreeError, match="^root edge 9 not in tree$"):
        RootedTree(disconnected, 9)
    with pytest.raises(TreeError, match="^root edge must be a half edge$"):
        RootedTree(disconnected, 0)


@pytest.mark.parametrize(
    "vertices, boundary",
    [
        # |V| - 1 full edges: a triangle at the root, vertex 3 apart
        ([0, 1, 2, 3], {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2, 0), 4: (3,)}),
        # a doubled edge at the root, vertex 2 apart
        ([0, 1, 2], {0: (0,), 1: (0, 1), 2: (1, 0), 3: (2,)}),
        # the root vertex alone, a triangle apart
        ([0, 1, 2, 3], {0: (0,), 1: (1, 2), 2: (2, 3), 3: (3, 1)}),
    ],
)
def test_a_cycle_is_not_connected(vertices, boundary):
    with pytest.raises(TreeError, match="^tree is not connected$"):
        RootedTree(Tree(vertices, boundary), 0)


@st.composite
def tree_descriptions(draw):
    """(vertices, boundary, root_edge) on up to 6 vertices, with vertex and
    edge ids shuffled: a tree with half edges; two components with a cycle
    in one of them, the root's or the other, so that the full-edge count is
    right; or arbitrary edges of 0-3 endpoints among known and unknown
    vertices."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("tree", "cycle", "arbitrary")))
    if kind == "arbitrary":
        ends = draw(st.lists(st.lists(st.integers(-1, n), max_size=3), max_size=8))
        vertices = draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
        boundary = {e: tuple(vs) for e, vs in enumerate(ends)}
        return vertices, boundary, draw(st.integers(-1, len(ends)))
    n = max(n, 3) if kind == "cycle" else n
    # the root's component is 0..k-1 and k..n-1 a second one; one more full
    # edge closes a cycle in either of them that has two vertices
    k = draw(st.integers(1, n - 1)) if kind == "cycle" else n
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    ends += [(draw(st.integers(k, v - 1)), v) for v in range(k + 1, n)]
    if kind == "cycle":
        lo, hi = draw(st.sampled_from([c for c in ((0, k), (k, n)) if c[1] - c[0] >= 2]))
        a, b = draw(st.lists(st.integers(lo, hi - 1), min_size=2, max_size=2, unique=True))
        ends.append((a, b))
    ends = [e if draw(st.booleans()) else e[::-1] for e in ends]
    ends = [(0,)] + ends + [(v,) for v in draw(st.lists(st.integers(0, n - 1), max_size=5))]
    label = draw(st.permutations(range(n)))
    ids = draw(st.permutations(range(len(ends))))
    boundary = {ids[i]: tuple(label[v] for v in vs) for i, vs in enumerate(ends)}
    root_edge = draw(st.one_of(st.just(ids[0]), st.integers(-1, len(ends))))
    return [label[v] for v in range(n)], boundary, root_edge


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tree_descriptions())
def test_rooting_matches_the_reference_constructors(case):
    vertices, boundary, root_edge = case
    try:
        got = RootedTree(Tree(vertices, boundary), root_edge)
    except TreeError as exc:
        got = str(exc)
    try:
        want = ReferenceRootedTree(ReferenceTree(vertices, boundary), root_edge)
    except TreeError as exc:
        want = str(exc)
    if isinstance(want, str):
        # connectivity is proved by the walk from the root, which runs
        # after the root checks
        roots = ("tree is not connected", f"root edge {root_edge} not in tree",
                 "root edge must be a half edge")
        assert got in (roots if want == "tree is not connected" else (want,))
    else:
        assert not isinstance(got, str)
        assert_tree_matches_reference(got)


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
