"""Curve-family tests: fibers, membership, regions, paths, stabilization."""

import cmath
import hashlib
import math
import random
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletree import bubbles, curves, jsonio, pipeline
from bubbletree.bubbles import associate_tree
from bubbletree.curves import (
    UNIT_TARGETS,
    CompactnessParams,
    FiberBatch,
    FiberPoint,
    ModuliPoint,
    Region,
    SampledMap,
    annulus_path,
    apply_mobius,
    chart_positions,
    check_map_membership,
    classify,
    decomposition,
    decorate,
    embed,
    embedded_distance,
    fiber_discriminant,
    fiber_from_root,
    fiber_residual,
    four_point_value,
    in_compact_subset,
    mobius_through,
    neck_area_factor,
    neck_chart_values,
    neck_param,
    neck_path,
    position_gaps,
    round_flat_area_ratio,
    region_contains,
    region_distance,
    section,
    split_fiber,
    stabilize_four_marked,
)
from bubbletree.errors import InputError, ResourceCapError, VerificationError
from bubbletree.nets import (
    NORM_RANGE,
    TIE_RTOL,
    FiniteMetricSpace,
    ProjPoint,
    _normal,
    sphere_distance,
    sphere_distances,
)
from bubbletree.trees import (
    Marking,
    RootedTree,
    Tree,
    diverging_pairs,
    enumerate_stable_rooted,
    positive_path,
)

from helpers import (
    anchor_points_reference,
    annulus_path_reference,
    chain_tree,
    chart_position_reference,
    classify_reference,
    decorate_reference,
    default_params,
    fiber_discriminant_reference,
    flat_standard,
    in_compact_subset_reference,
    lipschitz_reference,
    max_sphere_distance_reference,
    near_pairs_reference,
    random_member,
    random_standard,
    section_reference,
    slack_edges,
    stabilize_four_marked_reference,
    star_tree,
)

INF = ProjPoint(1.0, 0.0)


def star_point(z_rho):
    """ModuliPoint on a star tree from a list of (z, rho) pairs."""
    t = star_tree(len(z_rho))
    zr = {(1, j + 1): zr_pair for j, zr_pair in enumerate(z_rho)}
    return ModuliPoint(t, {}, zr)


def chain2_point(gamma1, z11, r11, leaf_rho=0.004):
    t = chain_tree(2)
    zr = {
        (1, 1): (z11, r11),
        (1, 2): (0.09, leaf_rho),
        (1, 3): (-0.09, leaf_rho),
        (2, 4): (0.04, 0.004),
        (2, 5): (-0.04, 0.004),
    }
    return t, ModuliPoint(t, {1: gamma1}, zr)


EPS = 0.125


def flat_zero_config(n, seed):
    """A flat standard configuration of n zero-radius bubbles and its
    pipeline config."""
    cfg = flat_standard(random.Random(seed), EPS, n, zero_radius=True)
    return cfg, {"bubble": jsonio.bubble_to_json(cfg, EPS), "delta": 0.5}


# ---------------------------------------------------------------------------
# chart positions and the discriminant
# ---------------------------------------------------------------------------


def test_chart_position_same_vertex():
    p = star_point([(0.05, 0.01), (-0.03 + 0.02j, 0.01)])
    assert chart_positions(p, 1)[(1, 1)] == 0.05
    assert chart_positions(p, 1)[(1, 2)] == -0.03 + 0.02j


def test_chart_position_two_level_formula():
    _, p = chain2_point(0.1 + 0.2j, 0.05, 0.01 - 0.003j)
    expected = 0.05 + (0.1 + 0.2j) * (0.01 - 0.003j) * 0.04
    assert abs(chart_positions(p, 1)[(2, 4)] - expected) < 1e-15
    assert chart_positions(p, 2)[(2, 4)] == 0.04


def test_chart_position_three_level_formula():
    t = chain_tree(3)
    zr = {(v, e): (0.01 * v + 0.005j * e, 0.001 * (v + e)) for v, e in
          t.coordinate_pairs()}
    p = ModuliPoint(t, {1: 0.1j, 2: 0.2}, zr)
    e_leaf = t.child_edges(3)[0]
    expected = (
        p.z(1, 1)
        + p.gamma_of(1) * p.rho(1, 1) * p.z(2, 2)
        + p.gamma_of(1) * p.rho(1, 1) * p.gamma_of(2) * p.rho(2, 2)
        * p.z(3, e_leaf)
    )
    assert abs(chart_positions(p, 1)[(3, e_leaf)] - expected) < 1e-15


def test_chart_position_zero_gluing_truncates():
    _, p = chain2_point(0.0, 0.05, 0.01)
    assert chart_positions(p, 1)[(2, 4)] == 0.05


def test_discriminant_single_vertex_is_center_difference():
    p = star_point([(0.05, 0.01), (-0.03, 0.01)])
    assert fiber_discriminant(p) == 0.05 - (-0.03)


def test_discriminant_chain_hand_formula():
    g, z11, r11 = 0.1 + 0.05j, 0.03 + 0.01j, 0.008 - 0.002j
    _, p = chain2_point(g, z11, r11)
    z12, z13, z24, z25 = 0.09, -0.09, 0.04, -0.04
    pull4 = z11 + g * r11 * z24
    pull5 = z11 + g * r11 * z25
    # gaps ordered exactly as the sorted coordinate pairs; the pairs of
    # (1, edge 1) against the leaves of vertex 2 hang below the root through
    # edge 1 on both sides, so they do not appear
    gaps = [
        z11 - z12,
        z11 - z13,
        z12 - z13,
        z12 - pull4,
        z12 - pull5,
        z13 - pull4,
        z13 - pull5,
        z24 - z25,
    ]
    expected = r11
    for gap in gaps:
        expected *= gap
    assert abs(fiber_discriminant(p) - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("depth", [4, 6, 8, 10, 12, 14, 16, 24])
def test_discriminant_bits_match_uncached_loop(depth):
    rng = random.Random(depth)
    tree = chain_tree(depth)
    c = default_params(tree)
    for _ in range(3):
        p = random_member(tree, c, rng)
        got, want = fiber_discriminant(p), fiber_discriminant_reference(p)
        assert struct.pack("<dd", got.real, got.imag) == struct.pack(
            "<dd", want.real, want.imag
        )


@pytest.mark.parametrize("depth", [4, 8, 16, 32, 64])
def test_chart_positions_equal_the_path_walk_by_bits(depth):
    rng = random.Random(depth)
    tree = chain_tree(depth)
    p = random_member(tree, default_params(tree), rng)
    # on a member each term of the sum is far below the one before, so only
    # coordinates of modulus about 1 show the order of the prefix products
    rough = ModuliPoint(
        tree,
        {e: cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 7)) for e in tree.full_edges},
        {k: (complex(rng.gauss(0, 1), rng.gauss(0, 1)), cmath.rect(1, rng.uniform(0, 7)))
         for k in tree.coordinate_pairs()},
    )
    bits = lambda z: struct.pack("<dd", z.real, z.imag)
    for q in (p, rough):
        for u in tree.vertices:
            got = chart_positions(q, u)
            want = {
                (v, e): chart_position_reference(q, u, v, e)
                for v, e in tree.coordinate_pairs()
                if positive_path(tree, u, v) is not None
            }
            assert got.keys() == want.keys()
            assert all(bits(got[k]) == bits(want[k]) for k in want)
    got, want = fiber_discriminant(p), fiber_discriminant_reference(p)
    assert bits(got) == bits(want)


def test_discriminant_bits_on_branching_trees():
    rng = random.Random(6)
    for tree in enumerate_stable_rooted(6):
        pairs = diverging_pairs(tree)
        assert diverging_pairs(tree) is pairs
        c = default_params(tree)
        p = random_member(tree, c, rng)
        coords = tree.coordinate_pairs()
        want = [(tree.vertices[k], coords[i], coords[j]) for k, i, j in pairs.tolist()]
        assert [(u, a, b) for u, a, b, _ in position_gaps(p)] == want
        got, want = fiber_discriminant(p), fiber_discriminant_reference(p)
        assert struct.pack("<dd", got.real, got.imag) == struct.pack(
            "<dd", want.real, want.imag
        )


def test_discriminant_vanishes_with_zero_rho():
    _, p = chain2_point(0.1, 0.05, 0.0)
    assert fiber_discriminant(p) == 0


def test_discriminant_nonzero_on_nodal_fiber():
    # gamma = 0 collapses every cross-level pull-back onto the attach point
    # of edge 1; only genuinely diverging pairs may enter the product
    _, p = chain2_point(0.0, 0.05, 0.01)
    assert fiber_discriminant(p) != 0


def test_member_discriminant_nonzero():
    rng = random.Random(7)
    for tree in (star_tree(3), chain_tree(2), chain_tree(3, leaves=2)):
        c = default_params(tree)
        for _ in range(34):
            p = random_member(tree, c, rng)
            assert in_compact_subset(p, c).ok
            assert fiber_discriminant(p) != 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1b: the double product underflows; the log-magnitude "
    "form changes bench/",
)
@pytest.mark.parametrize("depth", [12, 16, 32, 64])
def test_member_discriminant_is_nonzero_on_deep_chains(depth):
    tree = chain_tree(depth)
    c = default_params(tree)
    p = random_member(tree, c, random.Random(depth))
    assert in_compact_subset(p, c).ok
    assert fiber_discriminant(p) != 0


# ---------------------------------------------------------------------------
# membership report
# ---------------------------------------------------------------------------


def test_membership_arithmetic_example_passes():
    p = star_point([(0.0, 1.0 / 1024), (0.125, 1.0 / 1024)])
    c = CompactnessParams(0.125, 0.5, {1: (1.0 / 128) ** 3})
    report = in_compact_subset(p, c)
    assert report.ok and report.first_violation is None


def test_membership_coincident_centers_fail_on_rho():
    p = star_point([(0.0, 1.0 / 1024), (0.0, 1.0 / 1024)])
    c = CompactnessParams(0.125, 0.5, {1: (1.0 / 128) ** 3})
    report = in_compact_subset(p, c)
    assert not report.ok
    assert "rho" in report.first_violation


def test_membership_names_each_violation():
    c = CompactnessParams(0.125, 0.5, {1: 1e-6})
    assert "z[" in in_compact_subset(star_point([(0.2, 0.01)]), c).first_violation
    assert (
        "alpha" in in_compact_subset(star_point([(0.1, 1e-9)]), c).first_violation
    )
    assert (
        "2 theta"
        in in_compact_subset(star_point([(0.1, 0.3)]), c).first_violation
    )
    t, p = chain2_point(0.9, 0.05, 0.01)
    assert "gamma" in in_compact_subset(p, default_params(t)).first_violation


def test_membership_boundary_has_slack():
    # |z| exactly theta and |rho| exactly alpha sit on closed boundaries
    c = CompactnessParams(0.125, 0.5, {1: 0.001})
    p = star_point([(0.125, 0.001), (-0.125, 0.001)])
    assert in_compact_subset(p, c).ok


def test_membership_rejects_radius_far_below_alpha():
    # |rho| = 1e-20 against alpha = 1e-13: an absolute slack of 1e-12 would
    # let every radius below 1e-12 through
    tree = chain_tree(3)
    c = default_params(tree)
    p = random_member(tree, c, random.Random(4))
    assert in_compact_subset(p, c).ok
    pair = min(p.zr)
    zr = {**p.zr, pair: (p.zr[pair][0], 1e-20)}
    tight = CompactnessParams(c.theta, c.tau, {**c.alpha, pair[0]: 1e-13})
    report = in_compact_subset(ModuliPoint(tree, p.gamma, zr), tight)
    assert not report.ok
    assert f"< alpha[{pair[0]}] = 1e-13" in report.first_violation


def test_leq_array_matches_scalar_elementwise():
    rng = random.Random(12)
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan]
    values = special + [rng.choice((-1, 1)) * 10 ** rng.uniform(-20, 20) for _ in range(40)]
    bounds = values + [b for b in (0.3, 1.0, 7.5, 1e-5, 2e6) for b in slack_edges(b)]
    a = np.array(values + bounds)
    b = np.array(bounds + values)
    with np.errstate(invalid="ignore"):  # inf - inf in the slack sum
        grid = curves._leq_array(a[:, None], b)
    assert grid.dtype == bool
    assert grid.tolist() == [[curves._leq(x, y) for y in b.tolist()] for x in a.tolist()]
    # each boundary value against its own edges: equality and the slack's
    # last admitted value pass, one ulp beyond fails
    for v in (0.3, 1.0, 7.5, 1e-5, 2e6):
        edges = np.array(slack_edges(v))
        assert curves._leq_array(edges, v).tolist() == [curves._leq(x, v) for x in edges]
        assert curves._leq_array(edges, v).any() and not curves._leq_array(edges, v).all()


def membership_variants(rng, p, c):
    """p with one membership inequality moved onto its closed boundary: a
    center at modulus theta, a radius at alpha or 2 theta, a sibling pair's
    radius sum at tau |z - z'|, or a gluing modulus at tau, each at
    equality, at the slack's edge and a few ulps either side."""
    t = p.tree
    pairs = t.coordinate_pairs()
    out = []

    def moved(zr=None, gamma=None):
        return ModuliPoint(t, {**p.gamma, **(gamma or {})}, {**p.zr, **(zr or {})})

    v, e = rng.choice(pairs)
    z, rho = p.zr[(v, e)]
    out += [moved(zr={(v, e): (x + 0j, rho)}) for x in slack_edges(c.theta)]
    out += [moved(zr={(v, e): (z, x + 0j)}) for x in slack_edges(c.alpha_of(v))]
    out += [moved(zr={(v, e): (z, x + 0j)}) for x in slack_edges(2.0 * c.theta)]
    wide = [u for u in t.vertices if len(t.child_edges(u)) >= 2]
    if wide:
        u = rng.choice(wide)
        e, f = rng.sample(t.child_edges(u), 2)
        (ze, _), (zf, _) = p.zr[(u, e)], p.zr[(u, f)]
        for x in slack_edges(c.tau * abs(ze - zf)):
            half = x / 2.0 + 0j
            out.append(moved(zr={(u, e): (ze, half), (u, f): (zf, half)}))
    if t.full_edges:
        e = rng.choice(t.full_edges)
        out += [moved(gamma={e: x * 1j}) for x in slack_edges(c.tau)]
    return out


def test_in_compact_subset_matches_scalar_loops():
    rng = random.Random(13)
    trees = [star_tree(k) for k in (2, 3, 7, 20)]
    trees += [chain_tree(n, leaves) for n, leaves in ((2, 2), (3, 3), (6, 2), (9, 3))]
    blocks = ("> theta", "< alpha", "> 2 theta", "tau |z", "> tau")
    seen = set()
    for _ in range(12):
        for tree in trees:
            c = default_params(tree, theta=rng.choice((1 / 8, 1 / 6, 0.1)))
            p = random_member(tree, c, rng)
            for q in [p] + membership_variants(rng, p, c):
                report = in_compact_subset(q, c)
                assert report == in_compact_subset_reference(q, c)
                why = report.first_violation or ""
                seen.add(next((b for b in blocks if b in why), why or None))
    # passes and a failure of every inequality occur
    assert seen == {None, *blocks}, seen


def test_in_compact_subset_missing_alpha_raises_like_scalar_loops():
    rng = random.Random(14)
    tree = chain_tree(3)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    partial = CompactnessParams(c.theta, c.tau, {1: c.alpha[1]})
    with pytest.raises(InputError, match="alpha missing for vertex 2"):
        in_compact_subset(p, partial)
    with pytest.raises(InputError, match="alpha missing for vertex 2"):
        in_compact_subset_reference(p, partial)
    # a failure before the missing vertex is reported, not raised
    far = ModuliPoint(tree, p.gamma, {**p.zr, (1, 1): (0.2 + 0j, p.rho(1, 1))})
    assert in_compact_subset(far, partial) == in_compact_subset_reference(far, partial)


def test_params_validation():
    with pytest.raises(InputError):
        CompactnessParams(0.125, 0.6, {1: 1e-6})
    with pytest.raises(InputError):
        CompactnessParams(0.2, 0.5, {1: 1e-6})
    with pytest.raises(InputError):
        CompactnessParams(0.125, 0.5, {1: 0.2})


def test_coordinate_count():
    t = chain_tree(2)
    assert len(t.full_edges) + 2 * len(t.coordinate_pairs()) == 1 + 2 * 5
    s = star_tree(3)
    assert len(s.full_edges) + 2 * len(s.coordinate_pairs()) == 6


# ---------------------------------------------------------------------------
# fiber evaluation
# ---------------------------------------------------------------------------


def test_fiber_root_infinity_propagates():
    _, p = chain2_point(0.1, 0.05, 0.01)
    q = fiber_from_root(p, INF)
    assert all(q.at(v).y == 0 for v in (1, 2))


def test_fiber_identity_gluing():
    t = chain_tree(2)
    zr = {
        (1, 1): (0.0, 1.0),
        (1, 2): (0.05, 0.01),
        (1, 3): (-0.05, 0.01),
        (2, 4): (0.04, 0.004),
        (2, 5): (-0.04, 0.004),
    }
    p = ModuliPoint(t, {1: 1.0}, zr)
    q = fiber_from_root(p, ProjPoint(1.0, 1.0))
    assert sphere_distance(q.at(2), ProjPoint(1.0, 1.0)) < 1e-15


def test_fiber_residual_random_members():
    rng = random.Random(11)
    tree = chain_tree(3)
    c = default_params(tree)
    for _ in range(25):
        p = random_member(tree, c, rng)
        val = cmath.rect(rng.uniform(0, 2.0), rng.uniform(0, 2 * math.pi))
        q = fiber_from_root(p, ProjPoint(val, 1.0))
        assert fiber_residual(p, q) < 1e-12


def test_fiber_residual_detects_perturbation():
    _, p = chain2_point(0.1, 0.05, 0.01)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    bad = FiberPoint({1: q.at(1), 2: ProjPoint(q.at(2).x + 0.01, q.at(2).y)})
    assert fiber_residual(p, bad) > 1e-9


def test_fiber_residual_is_nan_at_a_nan_coordinate():
    # max(worst, nan) keeps worst, so a NaN coordinate once read 0.0 (at
    # every vertex) or about 1e-30 (at the root only) and passed as on the
    # fiber; decorate then built NaN rows
    tree = chain_tree(3)
    p = random_member(tree, default_params(tree), random.Random(1))
    nan = ProjPoint(complex(math.nan, math.nan), 1.0)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    everywhere = FiberPoint({v: nan for v in tree.vertices})
    at_root = FiberPoint({**q.coords, tree.root_vertex: nan})
    star = star_point([(0.05, 0.01), (-0.05, 0.01)])
    with pytest.raises(InputError):
        ModuliPoint(tree, {**p.gamma, 1: math.nan}, p.zr)
    assert math.isnan(fiber_residual(star, FiberPoint({1: nan})))
    message = "^point is off the fiber: residual nan$"
    for bad in (everywhere, at_root):
        assert math.isnan(fiber_residual(p, bad))
        with pytest.raises(VerificationError, match=message):
            decorate(p, [bad], 60)
        with pytest.raises(VerificationError, match=message):
            embed(p, bad)
        with pytest.raises(VerificationError, match=message):
            stabilize_four_marked(p, [q, bad, q, q])


def test_fiber_from_root_rejects_degenerate_gluing():
    _, p = chain2_point(0.0, 0.05, 0.01)
    with pytest.raises(InputError, match="split_fiber"):
        fiber_from_root(p, ProjPoint(0.3, 1.0))


def test_node_value_is_ambiguous():
    # rho = 0 makes the child chart undefined over the disc center
    _, p = chain2_point(0.1, 0.05, 0.0)
    with pytest.raises(VerificationError, match="node"):
        fiber_from_root(p, ProjPoint(0.05, 1.0))


def test_fiber_residual_requires_all_vertices():
    _, p = chain2_point(0.1, 0.05, 0.01)
    with pytest.raises(InputError):
        fiber_residual(p, FiberPoint({1: INF}))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def test_section_root_edge_all_infinity():
    _, p = chain2_point(0.1, 0.05, 0.01)
    q = section(p, 0)
    assert all(q.at(v).y == 0 for v in (1, 2))


def test_section_single_vertex():
    p = star_point([(0.1, 0.01), (-0.1, 0.01)])
    assert sphere_distance(section(p, 1).at(1), ProjPoint(0.1, 1.0)) == 0


def test_section_matches_fiber_from_root():
    _, p = chain2_point(0.2, 0.05, 0.01)
    for e in (2, 3, 4, 5):
        u = p.tree.e_minus[e]
        root_val = chart_positions(p, p.tree.root_vertex)[(u, e)]
        q = fiber_from_root(p, ProjPoint(root_val, 1.0))
        s = section(p, e)
        assert max(sphere_distance(q.at(v), s.at(v)) for v in (1, 2)) < 1e-9


def section_chain_errors(p: ModuliPoint, e: int, point: FiberPoint) -> list[float]:
    """Relative errors, in units of u = 2^-53, of the chart values of a
    member's section point of the external edge e at every vertex from u =
    e- up to the root, against the position of the centre z_{u,e} in that
    chart at 200 bits: z_{u,e} at u, and z_{w,f} + gamma_f rho_{w,f} times
    the position at f+ at the parent w of each vertex on the way up."""
    t = p.tree
    w = t.e_minus[e]
    out = []
    with mpmath.workprec(200):
        exact = mpmath.mpc(p.z(w, e))
        while True:
            # on a member every chart value lies in the unit disc: [x : 1]
            q = point.at(w)
            assert q.y == 1
            out.append(abs(complex(exact - q.x)) / abs(complex(exact)) * 2.0**53)
            if w == t.root_vertex:
                return out
            f = t.parent_edge[w]
            w = t.e_minus[f]
            exact = p.z(w, f) + p.gamma_of(f) * mpmath.mpc(p.rho(w, f)) * exact


@pytest.mark.parametrize("depth", [2, 8, 64])
def test_sections_match_the_telescoped_oracle(depth):
    # the lift from u evaluates each ancestor's telescoped position by
    # Horner's rule, within 2u, and never worse than telescoping each chart
    # value on its own (section_reference)
    rng = random.Random(depth)
    trees = [chain_tree(depth)] + enumerate_stable_rooted(6)[::4]
    lifted = telescoped = 0.0
    for tree in trees:
        p = random_member(tree, default_params(tree), rng)
        for e in tree.half_edges:
            if e == tree.root_edge:
                continue
            lifted = max(lifted, *section_chain_errors(p, e, section(p, e)))
            telescoped = max(telescoped, *section_chain_errors(p, e, section_reference(p, e)))
    assert lifted <= 2.0
    assert lifted <= telescoped


def test_a_section_propagates_once_per_edge(monkeypatch):
    # the lift up from e- and the fill down the other branches cross each
    # full edge once: |V| - 1 steps, none for the root edge
    calls = []
    for name in ("_parent_coord", "_child_coord"):
        step = getattr(curves, name)
        monkeypatch.setattr(curves, name, lambda *a, step=step: calls.append(1) or step(*a))
    for tree in [chain_tree(64)] + enumerate_stable_rooted(6):
        p = random_member(tree, default_params(tree), random.Random(len(tree.vertices)))
        for e in tree.half_edges:
            calls.clear()
            section(p, e)
            assert len(calls) == (0 if e == tree.root_edge else len(tree.vertices) - 1)


def test_sections_distinct_and_inside_their_ends():
    rng = random.Random(3)
    tree = chain_tree(2)
    c = default_params(tree)
    for _ in range(10):
        p = random_member(tree, c, rng)
        secs = {e: section(p, e) for e in tree.half_edges}
        for e, q in secs.items():
            assert fiber_residual(p, q) < 1e-9
            regs = classify(p, c, q)
            assert Region("end", edge=e) in regs
        edges = sorted(secs)
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                assert embedded_distance(p, secs[edges[i]], secs[edges[j]]) > 1e-9


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_smooth_fiber_single_component():
    _, p = chain2_point(0.1, 0.05, 0.01)
    sf = split_fiber(p)
    assert len(sf.components) == 1 and not sf.nodes
    assert sf.component_of_vertex == {1: 0, 2: 0}


def test_split_chain_node_points():
    _, p = chain2_point(0.0, 0.05, 0.01)
    sf = split_fiber(p)
    assert len(sf.components) == 2 and len(sf.nodes) == 1
    node = sf.nodes[0]
    assert node.edge == 1
    parent_sub = sf.components[node.parent_component]
    assert 1 in parent_sub.piece.tree.vertices
    assert sphere_distance(node.parent_point.at(1), ProjPoint(0.05, 1.0)) == 0
    assert node.child_point.at(2).y == 0
    # both node points lie on their component fibers
    assert fiber_residual(parent_sub.point, node.parent_point) < 1e-12
    child_sub = sf.components[node.child_component]
    assert fiber_residual(child_sub.point, node.child_point) < 1e-12


def test_split_component_counts():
    tree = chain_tree(3)
    c = default_params(tree)
    rng = random.Random(5)
    for zero in ((), (1,), (2,), (1, 2)):
        p = random_member(tree, c, rng, zero_edges=zero)
        sf = split_fiber(p)
        assert len(sf.components) == len(zero) + 1
        assert len(sf.nodes) == len(zero)
        for sub in sf.components:
            # restricted data still satisfies the member inequalities
            assert in_compact_subset(sub.point, c).ok


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_unit_disc_component_is_plain():
    t = chain_tree(2)
    zr = {
        (1, 1): (0.0, 1.0),
        (1, 2): (0.05, 0.01),
        (1, 3): (-0.05, 0.01),
        (2, 4): (0.04, 0.004),
        (2, 5): (-0.04, 0.004),
    }
    p = ModuliPoint(t, {1: 0.5}, zr)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    emb = embed(p, q)
    # z = 0, rho = 1 makes the rescaled chart the identity
    assert sphere_distance(emb[(1, 1)], q.at(1)) < 1e-15
    assert emb[(2, 1)] == q.at(2)
    assert set(emb) == set(t.incident_pairs())


def test_embed_all_infinity():
    _, p = chain2_point(0.1, 0.05, 0.01)
    q = fiber_from_root(p, INF)
    emb = embed(p, q)
    assert all(pt.y == 0 for pt in emb.values())


def test_embed_separates_random_points():
    rng = random.Random(13)
    tree = chain_tree(2)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    for _ in range(100):
        a = cmath.rect(rng.uniform(0.01, 2.0), rng.uniform(0, 2 * math.pi))
        b = cmath.rect(rng.uniform(0.01, 2.0), rng.uniform(0, 2 * math.pi))
        if abs(a - b) < 1e-6:
            continue
        q1 = fiber_from_root(p, ProjPoint(a, 1.0))
        q2 = fiber_from_root(p, ProjPoint(b, 1.0))
        assert embedded_distance(p, q1, q2) > 1e-9


def test_embed_rejects_off_fiber_points():
    _, p = chain2_point(0.1, 0.05, 0.01)
    with pytest.raises(VerificationError, match="residual"):
        embed(p, FiberPoint({1: ProjPoint(0.3, 1.0), 2: ProjPoint(0.9, 1.0)}))


def test_embed_refuses_a_residual_of_1e_8():
    # RESIDUAL_TOL is 1e-9: a point ten times as far off the fiber is
    # refused, as it would not be under a tolerance of 1e-7
    _, p = chain2_point(0.1, 0.05, 0.01)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))

    def moved(delta):
        return FiberPoint({1: ProjPoint(q.at(1).x + delta, q.at(1).y), 2: q.at(2)})

    bad = moved(1e-8 * 1e-3 / fiber_residual(p, moved(1e-3)))
    assert 0.9e-8 < fiber_residual(p, bad) < 1.1e-8
    with pytest.raises(VerificationError, match="residual"):
        embed(p, bad)


def degenerate_chart_point():
    """chain2_point with rho_{1,1} = 0, and the point of its fiber with
    value [z_{1,1} : 1] at vertex 1 and [1 : 0] at vertex 2: the
    disc-rescaled chart at (1, 1) is [0 : 0] there."""
    _, p = chain2_point(0.1, 0.05, 0.0)
    return p, FiberPoint({1: ProjPoint(0.05, 1.0), 2: INF})


def test_embed_rejects_a_degenerate_rescaled_chart():
    p, q = degenerate_chart_point()
    with pytest.raises(VerificationError, match=r"^rescaled chart at \(1, 1\) is degenerate$"):
        embed(p, q)


def test_region_distance_rejects_a_degenerate_rescaled_chart():
    p, q = degenerate_chart_point()
    neck = Region("neck", edge=1)
    assert region_contains(p, neck, q)
    with pytest.raises(VerificationError, match=r"^rescaled chart at \(1, 1\) is degenerate$"):
        region_distance(p, neck, q, q)


# ---------------------------------------------------------------------------
# thick-thin decomposition
# ---------------------------------------------------------------------------


def test_decomposition_circles_and_region_counts():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    d = decomposition(p, c)
    assert d.circles[(2, 1)] == (0.0, 1.0)
    assert d.circles[(1, 1)] == (0.05, 0.01)
    kinds = [r.kind for r in d.regions]
    assert kinds.count("thick") == 2
    assert kinds.count("neck") == 1
    assert kinds.count("end") == 5


def test_decomposition_rejects_nonmember():
    t, p = chain2_point(0.9, 0.05, 0.01)
    with pytest.raises(VerificationError, match="member"):
        decomposition(p, default_params(t))


# a member whose sibling radius sum sits at the slack edge of tau |z - z'|:
# the sum over tau, compared with |z - z'|, rounds past EQ_SLACK
SLACK_EDGE_MEMBER = (
    [
        ((-0.04639297648317945 + 0.056445549532174025j), 0.014107698930753882),
        ((0.021321240263676156 - 0.015527995970740048j), 0.033046149806719126),
    ],
    CompactnessParams(theta=0.10843459619849978, tau=0.4771687404593269, alpha={1: 1e-7}),
)


def one_child_chain(depth):
    """A path of vertices 1..depth, each with one child edge: edge v joins
    v to v + 1, and the last vertex carries one half edge."""
    edges = {0: (1,), **{v: (v, v + 1) for v in range(1, depth)}, depth: (depth,)}
    return RootedTree(Tree(list(range(1, depth + 1)), edges), 0)


def slack_edge_points(rng):
    """(p, c) at the slack edge of each membership inequality: sibling
    pairs on a star whose radius sum lies within 2e-12 relative of tau
    |z_e - z_f|, and one-child chains whose center and radius moduli are
    theta and 2 theta, times 1 or 1 + 1e-12; the pinned member first."""
    zr, c = SLACK_EDGE_MEMBER
    out = [(star_point(zr), c)]
    for _ in range(1500):
        theta, tau = rng.uniform(0.01, 1 / 6), rng.uniform(0.05, 0.5)
        ze, zf = (cmath.rect(theta * math.sqrt(rng.random()), rng.uniform(0, 7)) for _ in "ef")
        edge = tau * abs(ze - zf) * (1 + rng.uniform(-2e-12, 2e-12))
        w = rng.uniform(0.05, 0.95)
        pairs = [(ze, cmath.rect(edge * w, rng.uniform(0, 7))),
                 (zf, cmath.rect(edge * (1 - w), rng.uniform(0, 7)))]
        out.append((star_point(pairs), CompactnessParams(theta, tau, {1: 1e-7})))
    for depth in (1, 2, 3):
        t = one_child_chain(depth)
        for _ in range(100):
            theta, tau = rng.uniform(0.01, 1 / 6), rng.uniform(0.05, 0.5)
            zm, rm = (theta * rng.choice((1.0, 1 + 1e-12)) for _ in "zr")
            zr = {pair: (cmath.rect(zm, rng.uniform(0, 7)), cmath.rect(2 * rm, rng.uniform(0, 7)))
                  for pair in t.coordinate_pairs()}
            gamma = {e: cmath.rect(tau * rng.random(), rng.uniform(0, 7)) for e in t.full_edges}
            c = CompactnessParams(theta, tau, {v: 1e-7 for v in t.vertices})
            out.append((ModuliPoint(t, gamma, zr), c))
    return out


def test_members_at_the_slack_edge_decompose_and_classify_every_probe():
    rng = random.Random(2712)
    points = slack_edge_points(rng)
    kept = 0
    for p, c in points:
        if not in_compact_subset(p, c).ok:
            continue
        kept += 1
        dec = decomposition(p, c)
        rims = [z + cmath.rect(abs(r), rng.uniform(0, 7)) for z, r in p.zr.values()]
        roots = [0j, cmath.rect(1.0, rng.uniform(0, 7))] + rims
        roots += [cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 7)) for _ in range(4)]
        for val in (v for v in roots if abs(v) <= 1.0):
            assert dec.classify(fiber_from_root(p, ProjPoint(val, 1.0)))
    # the edge is straddled: some points fail membership, most pass
    assert 1000 <= kept < len(points)


def test_classify_plain_examples():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    assert classify(p, c, fiber_from_root(p, INF)) == (Region("end", edge=0),)
    regs = classify(p, c, fiber_from_root(p, ProjPoint(0.0, 1.0)))
    assert regs == (Region("thick", vertex=1),)


def test_classify_boundary_circles_land_in_two_regions():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    big_r = -0.5 * math.log(abs(p.gamma_of(1)))
    outer = classify(p, c, neck_param(p, 1, -big_r, 0.3))
    assert set(outer) == {Region("thick", vertex=1), Region("neck", edge=1)}
    inner = classify(p, c, neck_param(p, 1, big_r, 0.3))
    assert set(inner) == {Region("thick", vertex=2), Region("neck", edge=1)}
    # unit circle at the root vertex: thick meets the root end
    rim = classify(p, c, fiber_from_root(p, ProjPoint(cmath.exp(0.4j), 1.0)))
    assert set(rim) == {Region("thick", vertex=1), Region("end", edge=0)}
    # boundary circle of an external end
    edge_pt = fiber_from_root(p, ProjPoint(0.09 + 0.004, 1.0))
    assert set(classify(p, c, edge_pt)) == {
        Region("thick", vertex=1),
        Region("end", edge=2),
    }


def test_classify_covers_every_sampled_point():
    rng = random.Random(17)
    tree = chain_tree(2)
    c = default_params(tree)
    for _ in range(5):
        p = random_member(tree, c, rng)
        pts = [fiber_from_root(p, INF)]
        for _ in range(60):
            r = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
            pts.append(
                fiber_from_root(
                    p, ProjPoint(cmath.rect(r, rng.uniform(0, 2 * math.pi)), 1.0)
                )
            )
        for q in pts:
            regs = classify(p, c, q)
            assert len(regs) >= 1
            assert len(regs) <= 2


def test_pipeline_builds_one_decomposition(tmp_path, monkeypatch):
    calls = []

    def counted(p, c):
        calls.append(1)
        return decomposition(p, c)

    monkeypatch.setattr(pipeline, "decomposition", counted)
    monkeypatch.setattr(curves, "decomposition", counted)
    _, config = flat_zero_config(5, 0)
    report = pipeline.run_pipeline(config, tmp_path, seed=3)
    assert report.ok
    assert len(calls) == 1


def test_pipeline_checks_membership_once_per_params(tmp_path, monkeypatch):
    calls = []

    def counted(p, c):
        calls.append((p, c))
        return in_compact_subset(p, c)

    for module in (curves, bubbles):
        monkeypatch.setattr(module, "in_compact_subset", counted)
    cfg = random_standard(random.Random(30), EPS, 8)
    config = {"bubble": jsonio.bubble_to_json(cfg, EPS), "delta": 0.5}
    for seed in (3, 4):
        calls.clear()
        report = pipeline.run_pipeline(config, tmp_path / str(seed), seed=seed)
        assert report.ok
        # one check at the association scales (verify-association, whose
        # report the membership stage writes); the decomposition stage's
        # membership scales are equal, distinct params and reuse it
        assert len(calls) == 1


def check_path_cases():
    """(p, c, samples) on random chain members: samples in the root chart,
    across every neck, and on boundary circles (the root's unit circle,
    every child disc's rim and both ends of every neck)."""
    rng = random.Random(1985)
    out = []
    for depth in (2, 3, 5, 7):
        tree = chain_tree(depth)
        c = default_params(tree)
        p = random_member(tree, c, rng)
        turns = [cmath.exp(2j * math.pi * rng.random()) for _ in range(40)]
        roots = [math.sqrt(rng.random()) * w for w in turns[:12]] + [turns[12]]
        samples = [fiber_from_root(p, ProjPoint(z, 1.0)) for z in roots]
        samples.append(fiber_from_root(p, INF))
        for (v, e), w in zip(tree.coordinate_pairs(), turns[13:]):
            z, rho = p.zr[(v, e)]
            rim = ProjPoint(z + abs(rho) * w, 1.0)
            samples.append(curves._fiber_through(p, v, rim))
        for e in tree.full_edges:
            big_r = -0.5 * math.log(abs(p.gamma_of(e)))
            for s in (-big_r, rng.uniform(-big_r, big_r), big_r):
                samples.append(neck_param(p, e, s, rng.uniform(0.0, 2.0 * math.pi)))
        out.append((p, c, samples))
    return out


def test_classify_matches_region_scan_reference():
    on_boundary = 0
    for p, c, samples in check_path_cases():
        dec = decomposition(p, c)
        for q in samples:
            want = classify_reference(p, q)
            assert classify(p, c, q) == want
            assert dec.classify(q) == want
            assert all(region_contains(p, r, q) == (r in want) for r in dec.regions)
            on_boundary += len(want) == 2
    assert on_boundary >= 40


def ieee_rejections(rejections):
    return [(r, struct.pack("<dd", seen, allowed)) for r, seen, allowed in rejections]


@pytest.mark.parametrize(
    "budget, rejects", [(10.0, False), (0.5, None), (1e-3, True)]
)
def test_check_map_membership_matches_reference(budget, rejects):
    for p, c, samples in check_path_cases():
        root = p.tree.root_vertex
        target = FiniteMetricSpace.from_sphere([q.at(root) for q in samples])
        smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
        lam = region_budgets(p, c, budget)
        verdict = check_map_membership(
            p, c, smap, range(len(samples)), 1.0, lam, 2.0, Marking()
        )
        rejections, pairs = lipschitz_reference(p, smap, lam, 2.0)
        assert verdict.lipschitz_pairs == pairs > 0
        got = ieee_rejections(verdict.lipschitz_rejections)
        assert got == ieee_rejections(rejections)
        if rejects is not None:
            assert bool(rejections) is rejects


def region_sample_cases():
    """(p, c, samples) on chain members of depths 4 to 64: points in the
    root chart and across necks, the root section [1:0], which is infinity
    in every chart, and on boundary circles: chart values at a circle's
    radius from its center, at the slack's edges and an ulp or two either
    side of each."""
    rng = random.Random(64)
    out = []
    for depth in (4, 8, 16, 32, 64):
        tree = chain_tree(depth)
        c = default_params(tree)
        p = random_member(tree, c, rng)
        circles = decomposition(p, c).circles
        roots = [cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 7)) for _ in range(8)]
        samples = [fiber_from_root(p, ProjPoint(z, 1.0)) for z in roots]
        samples.append(section(p, tree.root_edge))
        for e in rng.sample(tree.full_edges, 3):
            big_r = -0.5 * math.log(abs(p.gamma_of(e)))
            samples.append(neck_param(p, e, rng.uniform(-big_r, big_r), 1.0))
        for v, e in rng.sample(sorted(circles), 4) + [(tree.root_vertex, tree.root_edge)]:
            center, radius = circles[(v, e)]
            for w in slack_edges(radius):
                rim = ProjPoint(complex(center.real + w, center.imag), 1.0)
                samples.append(curves._fiber_through(p, v, rim))
        out.append((p, c, samples))
    return out


def test_region_matrix_matches_scalar_elementwise():
    on_circle = far = 0
    for p, c, samples in check_path_cases() + region_sample_cases():
        dec = decomposition(p, c)
        grid = dec.region_matrix(FiberBatch.of(p.tree, samples))
        assert grid.dtype == bool and grid.shape == (len(samples), len(dec.regions))
        assert dec.region_matrix(FiberBatch.of(p.tree, [])).shape == (0, len(dec.regions))
        # [1:0] in every chart: unmasked, inf <= r + EQ_SLACK * inf reads as inside
        root_end = (Region("end", edge=p.tree.root_edge),)
        assert dec.classify(section(p, p.tree.root_edge)) == root_end
        for q, row in zip(samples, grid.tolist()):
            want = classify_reference(p, q)
            assert dec.classify(q) == want
            assert row == [r in want for r in dec.regions]
            assert [region_contains(p, r, q) for r in dec.regions] == row
            for (v, _), (center, radius) in dec.circles.items():
                val = q.affine(v)
                far += val is None
                on_circle += val is not None and abs(val - center) == radius
    assert on_circle >= 20 and far >= 100


def test_classify_reads_a_value_outside_the_unit_disc_as_infinity():
    # chart values around every vertex's unit circle (the slack's edges and
    # ulps either side) and far outside it, on a chain with child discs
    rng = random.Random(17)
    tree = chain_tree(8)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    dec = decomposition(p, c)
    kids = [v for v in tree.vertices if tree.child_edges(v)]
    outside = 0
    for v in kids:
        for w in slack_edges(1.0) + [1.5, 1e3, 1e300]:
            rim = ProjPoint(cmath.rect(w, rng.uniform(0, 7)), 1.0)
            q = curves._fiber_through(p, v, rim)
            assert dec.classify(q) == classify_reference(p, q)
            outside += sum(
                x is not None and not curves._leq(abs(x), 1.0)
                for x in map(q.affine, kids)
            )
    assert outside >= 10 * len(kids)


def classify_edge_cases():
    """(p, c, dec, points) on chain members: points at infinity in every
    chart, at the root value infinity, on each boundary circle of the
    decomposition, and with a NaN chart value at one vertex or all."""
    rng = random.Random(2611)
    out = []
    for depth in (2, 4, 6):
        tree = chain_tree(depth)
        c = default_params(tree)
        p = random_member(tree, c, rng)
        dec = decomposition(p, c)
        pts = [section(p, tree.root_edge), fiber_from_root(p, INF)]
        for (v, _), (center, radius) in dec.circles.items():
            for turn in (0.3, 2.9):
                rim = ProjPoint(center + cmath.rect(radius, turn), 1.0)
                pts.append(curves._fiber_through(p, v, rim))
        nan = ProjPoint(complex(math.nan, 0.0), 1.0)
        pts.append(fiber_from_root(p, nan))
        inner = fiber_from_root(p, ProjPoint(0.2 + 0.1j, 1.0)).coords
        pts += [FiberPoint({**inner, v: nan}) for v in tree.vertices]
        out.append((p, c, dec, pts))
    return out


def test_classify_equals_the_region_contains_scan_at_the_edge_cases():
    two = nowhere = 0
    for p, c, dec, pts in classify_edge_cases():
        for q in pts:
            want = tuple(r for r in dec.regions if region_contains(p, r, q))
            assert dec.classify(q) == want
            assert classify(p, c, q) == want
            two += len(want) == 2
            nowhere += not want
    # circle points land in two regions; a NaN chart value is in none
    # containing its vertex, and an all-NaN point in no region at all
    assert two >= 60 and nowhere >= 6


def other_tree_point():
    """A member of chain_tree(4) and a point of a chain_tree(3) member,
    which has no coordinate at vertex 4."""
    rng = random.Random(4)
    small, big = chain_tree(3), chain_tree(4)
    c = default_params(big)
    q = fiber_from_root(random_member(small, default_params(small), rng), INF)
    return random_member(big, c, rng), c, q


def test_classify_names_the_vertex_a_point_of_another_tree_lacks():
    p, c, q = other_tree_point()
    with pytest.raises(InputError, match="no coordinate at vertex 4"):
        classify(p, c, q)


def test_region_contains_names_the_vertex_a_point_of_another_tree_lacks():
    p, _, q = other_tree_point()
    with pytest.raises(InputError, match="no coordinate at vertex 4"):
        region_contains(p, Region("thick", vertex=4), q)


def test_fiber_batch_names_the_vertex_a_point_of_another_tree_lacks():
    p, _, q = other_tree_point()
    with pytest.raises(InputError, match="no coordinate at vertex 4"):
        FiberBatch.of(p.tree, [q])


def kernel_pairs(rng, n):
    """n ProjPoint pairs: random, near-equal, near-antipodal, scaled by
    2^+-500 and exact copies or rescalings, poles and NaN among them."""
    def gauss():
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    poles = [ProjPoint(1.0, 0.0), ProjPoint(0.0, 1.0), ProjPoint(math.nan, 1.0)]
    out = []
    for k in range(n):
        a = ProjPoint(gauss(), gauss()) if k % 50 else rng.choice(poles)
        tiny = 1e-15 * gauss()
        kind = k % 5
        if kind == 0:
            b = ProjPoint(gauss(), gauss())
        elif kind == 1:
            b = ProjPoint(a.x + tiny, a.y)
        elif kind == 2:
            b = ProjPoint(-a.y.conjugate() + tiny, a.x.conjugate())
        elif kind == 3:
            s, t = rng.choice((2.0**500, 2.0**-500)), rng.choice((2.0**500, 2.0**-500))
            a, b = ProjPoint(s * a.x, s * a.y), ProjPoint(t * gauss(), t * gauss())
        else:
            s = rng.choice((1.0, 2.0**500, 2.0**-500, rng.uniform(0.1, 10.0)))
            b = ProjPoint(s * a.x, s * a.y)
        out.append((a, b))
    return out


def test_pair_distances_match_sphere_distance_bits():
    # the scalar form and the array kernel, as _region_distances calls it on
    # index arrays, agree bit for bit on every pair a SphereSample accepts;
    # the scalar form refuses the others, where the kernel measures pi
    pairs = kernel_pairs(random.Random(10_000), 12_000)
    pts = [a for a, _ in pairs] + [b for _, b in pairs]
    x = np.array([q.x for q in pts], dtype=complex)
    y = np.array([q.y for q in pts], dtype=complex)
    i, j = np.arange(len(pairs)), len(pairs) + np.arange(len(pairs))
    got = sphere_distances(x[i], y[i], x[j], y[j]).tolist()
    low, high = NORM_RANGE
    ns = np.hypot(np.abs(x), np.abs(y))
    inside = ((low <= ns) & (ns <= high)).tolist()
    kept, refused = [], []
    for k, (a, b) in enumerate(pairs):
        if inside[k] and inside[len(pairs) + k]:
            d = sphere_distance(a, b)
            assert struct.pack("<d", d) == struct.pack("<d", got[k])
            kept.append(d)
        else:
            with pytest.raises(InputError, match="sphere point"):
                sphere_distance(a, b)
            refused.append(got[k])
    assert len(kept) > 11_000 and min(kept) == 0.0 and max(kept) == math.pi
    # a NaN coordinate measures pi in the kernel, as far as any point
    assert refused and refused == [math.pi] * len(refused)


@pytest.mark.parametrize("depth", [4, 8, 12, 16])
def test_check_map_membership_bits_on_chains(depth):
    rng = random.Random(depth)
    tree = chain_tree(depth)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    roots = [cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 7)) for _ in range(16)]
    samples = [fiber_from_root(p, ProjPoint(z, 1.0)) for z in roots]
    for e in tree.full_edges:
        big_r = -0.5 * math.log(abs(p.gamma_of(e)))
        samples.append(neck_param(p, e, rng.uniform(-big_r, big_r), rng.uniform(0, 7)))
    # the root end holds only [1:0]; repeated points, as the same object
    # and as a copy built again, sit at distance 0 and are skipped
    samples.append(section(p, tree.root_edge))
    samples += samples[:3] + [fiber_from_root(p, ProjPoint(roots[3], 1.0))]
    root = tree.root_vertex
    target = FiniteMetricSpace.from_sphere([q.at(root) for q in samples])
    smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
    sizes = decomposition(p, c).region_matrix(FiberBatch.of(tree, samples)).sum(axis=0)
    assert 1 in sizes and 0 in sizes
    for budget in (10.0, 1.0, 0.5, 1e-3):
        lam = region_budgets(p, c, budget)
        verdict = check_map_membership(
            p, c, smap, range(len(samples)), 1.0, lam, 2.0, Marking()
        )
        rejections, pairs = lipschitz_reference(p, smap, lam, 2.0)
        assert verdict.lipschitz_pairs == pairs < sum(k * (k - 1) // 2 for k in sizes)
        got = ieee_rejections(verdict.lipschitz_rejections)
        assert got == ieee_rejections(rejections)
    assert rejections


@pytest.mark.parametrize("depth", [4, 16])
def test_check_map_membership_measures_in_two_kernel_calls(monkeypatch, depth):
    # one sphere_distances call per component slot, however many regions
    rng = random.Random(depth)
    tree = chain_tree(depth)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    samples = [fiber_from_root(p, ProjPoint(cmath.rect(rng.random(), rng.uniform(0, 7)), 1.0))
               for _ in range(16)]
    for e in tree.full_edges:
        big_r = -0.5 * math.log(abs(p.gamma_of(e)))
        samples += [neck_param(p, e, rng.uniform(-big_r, big_r), rng.uniform(0, 7)) for _ in "ab"]
    target = FiniteMetricSpace.from_sphere([q.at(tree.root_vertex) for q in samples])
    smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
    lam = region_budgets(p, c, 0.5)
    want = lipschitz_reference(p, smap, lam, 2.0)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return sphere_distances(*args)

    monkeypatch.setattr(curves, "sphere_distances", counted)
    verdict = check_map_membership(p, c, smap, range(len(samples)), 1.0, lam, 2.0, Marking())
    assert len(calls) <= 2 and calls[0] == verdict.lipschitz_pairs == want[1]
    assert ieee_rejections(verdict.lipschitz_rejections) == ieee_rejections(want[0])


def test_check_map_membership_reads_the_budgets_in_region_order():
    p, c, samples = check_path_cases()[2]
    target = FiniteMetricSpace.from_sphere([q.at(p.tree.root_vertex) for q in samples])
    smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
    regions = decomposition(p, c).regions
    # every region with a budget rejects; the first without one is named
    for gone in ([regions[3], regions[-1]], [regions[-1]]):
        lam = {r: 1e-9 for r in regions if r not in gone}
        with pytest.raises(InputError) as err:
            check_map_membership(p, c, smap, range(len(samples)), 1.0, lam, 1.0, Marking())
        assert str(err.value) == f"no Lipschitz budget for region {gone[0]}"


def test_member_rescaled_charts_are_never_degenerate():
    # check_map_membership refuses no degenerate chart: on a member none is
    # [0 : 0] (see its docstring), boundary circles and infinity included
    for p, c, samples in check_path_cases() + region_sample_cases():
        z, rho, _ = decomposition(p, c).charts
        _, _, bad = curves._chart_table(p.tree, z, rho, FiberBatch.of(p.tree, samples))
        assert bad.shape == (len(samples), len(z) + len(p.tree.vertices))
        assert not bad.any()


def test_check_map_membership_on_a_degenerate_chart_is_a_membership_rejection():
    # the only fibers with a [0 : 0] rescaled chart have a zero rho, so
    # they fail membership and the Lipschitz pass never reads a chart
    p, q = degenerate_chart_point()
    c = default_params(p.tree)
    neck = Region("neck", edge=1)
    assert region_contains(p, neck, q)
    smap = SampledMap(two_point_target(), ((q, 0), (q, 1)))
    verdict = check_map_membership(p, c, smap, {0, 1}, 0.5, {neck: 1.0}, 1.0, Marking())
    assert verdict.summary() == f"rejected: membership: {in_compact_subset(p, c).first_violation}"
    assert "|rho[1,1]| = 0.0" in verdict.summary() and verdict.lipschitz_pairs == 0


@pytest.mark.parametrize("member", [True, False], ids=["member", "non-member"])
@pytest.mark.parametrize("index", [-1, 2, 1.5, "1", None])
def test_check_map_membership_refuses_a_target_index_outside_the_target(member, index):
    _, p = chain2_point(0.1 if member else 0.9, 0.05, 0.01)
    c = default_params(p.tree)
    assert in_compact_subset(p, c).ok is member
    qs = [fiber_from_root(p, ProjPoint(x, 1.0)) for x in (0.3, 0.31, 0.4)]
    smap = SampledMap(two_point_target(), ((qs[0], 0), (qs[1], index), (qs[2], 1)))
    with pytest.raises(InputError, match=rf"^sample 1 maps to {index!r}, not a target index$"):
        check_map_membership(
            p, c, smap, {0, 1}, 0.5, region_budgets(p, c, 10.0) if member else {}, 1.0, Marking()
        )


def count_membership_checks(monkeypatch):
    calls = []

    def counted(p, c):
        calls.append(c)
        return in_compact_subset(p, c)

    monkeypatch.setattr(curves, "in_compact_subset", counted)
    return calls


def test_classify_checks_membership_once_per_params(monkeypatch):
    p, c, samples = check_path_cases()[2]
    qs = (samples * 2)[:48]
    calls = count_membership_checks(monkeypatch)
    hits = [classify(p, c, q) for q in qs]
    assert len(calls) == 1
    assert hits == [classify_reference(p, q) for q in qs]
    # equal but distinct params reuse the check
    twin = CompactnessParams(c.theta, c.tau, c.alpha)
    assert classify(p, twin, qs[0]) == hits[0]
    assert len(calls) == 1
    # unequal params are checked afresh
    looser = CompactnessParams(c.theta, c.tau, {v: a / 2 for v, a in c.alpha.items()})
    assert classify(p, looser, qs[0]) == hits[0]
    assert len(calls) == 2


def test_classify_after_member_rechecks_failing_params(monkeypatch):
    p, c, samples = check_path_cases()[1]
    q = samples[0]
    ok = classify(p, c, q)
    # an alpha above every |rho| makes p a non-member for these params
    bad = CompactnessParams(c.theta, c.tau, {v: c.theta for v in c.alpha})
    calls = count_membership_checks(monkeypatch)
    for _ in range(2):
        with pytest.raises(VerificationError, match="not a member"):
            classify(p, bad, q)
    assert len(calls) == 2
    assert classify(p, c, q) == ok
    assert len(calls) == 2


def test_membership_recheck_keeps_the_decomposition(monkeypatch):
    p, c, _ = check_path_cases()[1]
    dec = decomposition(p, c)
    assert in_compact_subset(p, c).ok
    calls = count_membership_checks(monkeypatch)
    assert decomposition(p, c) is dec
    assert not calls


def test_check_map_membership_checks_membership_once(monkeypatch):
    p, c, samples = check_path_cases()[1]
    fresh = ModuliPoint(p.tree, p.gamma, p.zr)
    target = FiniteMetricSpace.from_sphere([q.at(p.tree.root_vertex) for q in samples])
    smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
    lam = {r: 10.0 for r in decomposition(p, c).regions}
    calls = count_membership_checks(monkeypatch)

    def check(params):
        return check_map_membership(
            fresh, params, smap, range(len(samples)), 1.0, lam, 1.0, Marking()
        )

    first = check(c)
    assert first.membership.ok and len(calls) == 1
    # a second call and equal but distinct params read the kept report
    for params in (c, CompactnessParams(c.theta, c.tau, c.alpha)):
        assert check(params).membership is first.membership
        assert len(calls) == 1
    # unequal params are checked afresh
    looser = CompactnessParams(c.theta, c.tau, {v: a / 2 for v, a in c.alpha.items()})
    assert check(looser).membership.ok
    assert len(calls) == 2


@pytest.mark.parametrize(
    "region",
    [Region("neck", edge=0), Region("thick", vertex=99), Region("end", edge=999)],
    ids=["neck-at-root-edge", "thick-unknown-vertex", "end-unknown-edge"],
)
def test_region_outside_the_tree_is_input_error(region):
    tree = chain_tree(3)
    assert tree.root_edge == 0  # so the first case is a neck on the root edge
    p = random_member(tree, default_params(tree), random.Random(15))
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    with pytest.raises(InputError, match="does not fit the tree") as exc:
        region_contains(p, region, q)
    assert str(region) in str(exc.value)
    with pytest.raises(InputError, match="does not fit the tree"):
        region_distance(p, region, q, q)


def test_region_distance_thick_is_plain_sphere_distance():
    t, p = chain2_point(0.1, 0.05, 0.01)
    q1 = fiber_from_root(p, ProjPoint(0.3, 1.0))
    q2 = fiber_from_root(p, ProjPoint(-0.2j, 1.0))
    d = region_distance(p, Region("thick", vertex=1), q1, q2)
    assert d == sphere_distance(q1.at(1), q2.at(1))


def test_region_distance_neck_is_component_max():
    t, p = chain2_point(0.1, 0.05, 0.01)
    q1 = neck_param(p, 1, 0.1, 0.2)
    q2 = neck_param(p, 1, -0.4, 1.1)
    d = region_distance(p, Region("neck", edge=1), q1, q2)
    e1, e2 = embed(p, q1), embed(p, q2)
    expected = max(
        sphere_distance(e1[(1, 1)], e2[(1, 1)]),
        sphere_distance(e1[(2, 1)], e2[(2, 1)]),
    )
    assert abs(d - expected) < 1e-15
    assert d >= sphere_distance(e1[(1, 1)], e2[(1, 1)])


def test_region_distance_rejects_outside_points():
    t, p = chain2_point(0.1, 0.05, 0.01)
    far = fiber_from_root(p, ProjPoint(0.5, 1.0))
    near = neck_param(p, 1, 0.0, 0.0)
    with pytest.raises(InputError, match="outside"):
        region_distance(p, Region("neck", edge=1), far, near)


# ---------------------------------------------------------------------------
# neck parametrization
# ---------------------------------------------------------------------------


def test_neck_param_product_and_residual():
    t, p = chain2_point(0.02 + 0.03j, 0.05, 0.01)
    g = p.gamma_of(1)
    big_r = -0.5 * math.log(abs(g))
    rng = random.Random(23)
    for _ in range(20):
        s = rng.uniform(-big_r, big_r)
        ang = rng.uniform(0, 2 * math.pi)
        q = neck_param(p, 1, s, ang)
        assert fiber_residual(p, q) < 1e-12
        zu, zv = neck_chart_values(p, 1, q)
        assert abs(zu * zv - g) < 1e-12
        assert abs(abs(zu) - math.sqrt(abs(g)) * math.exp(-s)) < 1e-12


def test_neck_param_reaches_both_boundary_circles():
    t, p = chain2_point(0.1, 0.05, 0.01)
    big_r = -0.5 * math.log(abs(p.gamma_of(1)))
    outer = neck_param(p, 1, -big_r, 0.0)
    assert abs(abs(outer.affine(1) - 0.05) - 0.01) < 1e-12
    inner = neck_param(p, 1, big_r, 0.0)
    assert abs(abs(inner.affine(2)) - 1.0) < 1e-12


def test_neck_param_flat_area_density():
    t, p = chain2_point(0.05 - 0.02j, 0.05, 0.01)
    g = p.gamma_of(1)
    delta_sq = abs(g)
    h = 1e-5
    for s in (-0.6, 0.0, 0.45):
        zu_p, zv_p = neck_chart_values(p, 1, neck_param(p, 1, s + h, 0.7))
        zu_m, zv_m = neck_chart_values(p, 1, neck_param(p, 1, s - h, 0.7))
        density = (abs(zu_p - zu_m) / (2 * h)) ** 2 + (
            abs(zv_p - zv_m) / (2 * h)
        ) ** 2
        expected = delta_sq * (math.exp(2 * s) + math.exp(-2 * s))
        assert abs(density - expected) < 1e-6 * expected


def test_neck_param_errors():
    t, p = chain2_point(0.1, 0.05, 0.01)
    with pytest.raises(InputError, match="full"):
        neck_param(p, 0, 0.0, 0.0)
    with pytest.raises(InputError, match="exceeds"):
        neck_param(p, 1, 10.0, 0.0)
    _, p0 = chain2_point(0.0, 0.05, 0.01)
    with pytest.raises(InputError, match="gamma"):
        neck_param(p0, 1, 0.0, 0.0)


def test_neck_param_rejects_nan_s():
    _, p = chain2_point(0.1, 0.05, 0.01)
    with pytest.raises(InputError, match="exceeds"):
        neck_param(p, 1, math.nan, 0.0)


def test_neck_param_rejects_non_finite_angle():
    _, p = chain2_point(0.1, 0.05, 0.01)
    for angle in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError, match=f"finite, got {angle}"):
            neck_param(p, 1, 0.0, angle)


def test_neck_param_below_the_root_vertex():
    # edge 2 of the three-level chain joins vertices 2 and 3, so its parent
    # end is not the root and neck_param walks the coordinates up to it
    rng = random.Random(41)
    tree = chain_tree(3)
    c = default_params(tree)
    assert tree.e_minus[2] != tree.root_vertex
    for _ in range(4):
        p = random_member(tree, c, rng)
        big_r = -0.5 * math.log(abs(p.gamma_of(2)))
        for _ in range(5):
            s, ang = rng.uniform(-big_r, big_r), rng.uniform(0, 2 * math.pi)
            q = neck_param(p, 2, s, ang)
            assert fiber_residual(p, q) <= curves.RESIDUAL_TOL
            assert Region("neck", edge=2) in classify(p, c, q)


def test_round_flat_area_ratio_range():
    assert round_flat_area_ratio(0.0) == 4.0
    assert round_flat_area_ratio(1.0) == 1.0
    assert round_flat_area_ratio(1j) == 1.0
    rng = random.Random(5)
    values = []
    for _ in range(1000):
        z = cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        ratio = round_flat_area_ratio(z)
        assert 1.0 - 1e-12 <= ratio <= 4.0 + 1e-12
        values.append((abs(z), ratio))
    values.sort()
    radii = [m for m, _ in values]
    assert all(
        a >= b or ra == rb
        for (ra, a), (rb, b) in zip(values, values[1:])
        if ra != rb
    )
    assert radii[0] < 0.1 < 0.9 < radii[-1]  # the grid reaches both ends


def test_neck_area_factor_matches_finite_differences():
    t, p = chain2_point(0.012 + 0.004j, 0.05, 0.01)
    h = 1e-5
    for s in (-0.8, -0.15, 0.0, 0.3, 0.9):
        closed = neck_area_factor(p, 1, s)
        zu_p, zv_p = neck_chart_values(p, 1, neck_param(p, 1, s + h, 1.1))
        zu_m, zv_m = neck_chart_values(p, 1, neck_param(p, 1, s - h, 1.1))
        density = (abs(zu_p - zu_m) / (2 * h)) ** 2 + (
            abs(zv_p - zv_m) / (2 * h)
        ) ** 2
        assert abs(density - closed) < 1e-6 * closed


def test_neck_area_factor_rejects_nodal_edge():
    _, p0 = chain2_point(0.0, 0.05, 0.01)
    with pytest.raises(InputError, match="gamma"):
        neck_area_factor(p0, 1, 0.0)


# ---------------------------------------------------------------------------
# annulus paths
# ---------------------------------------------------------------------------


def _annulus_instance(rng, delta):
    if delta == 0.0:
        if rng.random() < 0.5:
            z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            return z, 0.0 + 0.0j
        w = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        return 0.0 + 0.0j, w
    mod = math.exp(rng.uniform(math.log(delta * delta), 0.0))
    z = cmath.rect(mod, rng.uniform(0, 2 * math.pi))
    return z, delta * delta / z


def test_annulus_path_zero_length():
    path = annulus_path(0.3, 0.5, 0.18, 0.5, 0.18)
    assert path.total_length < 1e-12


def test_annulus_path_nodal_cases():
    # same branch: straight chord, dual leg constant
    path = annulus_path(0.0, 0.8, 0.0, 0.2j, 0.0)
    assert path.length_z == abs(0.8 - 0.2j)
    assert path.length_w == 0
    # opposite branches: routed through the node
    cross = annulus_path(0.0, 0.6, 0.0, 0.0, 0.5)
    assert cross.length_z == 0.6
    assert cross.length_w == 0.5
    assert cross.total_length <= 2 * max(0.6, 0.5) + 1e-12


def test_annulus_path_thousand_random_instances():
    rng = random.Random(41)
    worst_ratio = 0.0
    for _ in range(1000):
        delta = 0.0 if rng.random() < 0.3 else math.exp(
            rng.uniform(math.log(1e-3), math.log(0.9))
        )
        z, w = _annulus_instance(rng, delta)
        z2, w2 = _annulus_instance(rng, delta)
        path = annulus_path(delta, z, w, z2, w2)
        assert abs(path.path_z[0] - z) < 1e-9
        assert abs(path.path_z[-1] - z2) < 1e-9
        assert abs(path.path_w[0] - w) < 1e-9
        assert abs(path.path_w[-1] - w2) < 1e-9
        dsq = delta * delta
        for a, b in zip(path.path_z, path.path_w):
            assert abs(a * b - dsq) < 1e-9
        gap = max(abs(z - z2), abs(w - w2))
        if gap > 0:
            worst_ratio = max(worst_ratio, path.total_length / gap)
        assert path.total_length <= 8 * math.pi * gap + 1e-12
    assert worst_ratio <= 8 * math.pi


@settings(max_examples=200, deadline=None)
@given(
    ld=st.floats(min_value=-6.0, max_value=-0.05),
    m1=st.floats(min_value=0.0, max_value=1.0),
    m2=st.floats(min_value=0.0, max_value=1.0),
    a1=st.floats(min_value=0.0, max_value=2 * math.pi),
    a2=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_annulus_path_bound_property(ld, m1, m2, a1, a2):
    delta = math.exp(ld)
    lo = 2 * math.log(delta)
    z = cmath.rect(math.exp(lo * (1 - m1)), a1)
    z2 = cmath.rect(math.exp(lo * (1 - m2)), a2)
    path = annulus_path(delta, z, delta**2 / z, z2, delta**2 / z2)
    gap = max(abs(z - z2), abs(delta**2 / z - delta**2 / z2))
    assert path.total_length <= 8 * math.pi * gap + 1e-12


def _path_bits(path):
    def bits(zs):
        return tuple((complex(c).real.hex(), complex(c).imag.hex()) for c in zs)

    return (
        bits(path.path_z),
        bits(path.path_w),
        path.length_z.hex(),
        path.length_w.hex(),
        path.case,
    )


def test_annulus_path_matches_recursive_reference_bit_for_bit():
    # the reference solves |z| < |z2| in the mixed case by recursing on the
    # swapped endpoints and reversing; the one-exit form must keep every bit,
    # lengths included
    rng = random.Random(2104)
    seen = {}
    for _ in range(1500):
        if rng.random() < 0.4:
            delta = 0.0
            # each endpoint on the z branch, the w branch or at the node
            ends = []
            for _ in range(2):
                u = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(0, 2 * math.pi))
                ends.append(rng.choice([(u, 0j), (0j, u), (0j, 0j)]))
            (z, w), (z2, w2) = ends
        else:
            delta = math.exp(rng.uniform(math.log(1e-3), math.log(0.9)))
            z, w = _annulus_instance(rng, delta)
            z2, w2 = _annulus_instance(rng, delta)
        for args in ((z, w, z2, w2), (z2, w2, z, w)):
            path = annulus_path(delta, *args)
            assert _path_bits(path) == _path_bits(annulus_path_reference(delta, *args))
            kind = path.case
            if kind == "nodal":
                kind += " via node" if len(path.path_z) == 3 else " direct"
            elif kind.startswith("ii"):
                kind += " swapped" if abs(args[0]) < abs(args[2]) else " in order"
            seen[kind] = seen.get(kind, 0) + 1
    assert sorted(seen) == [
        "i-w", "i-z", "ii-a in order", "ii-a swapped", "ii-b in order",
        "ii-b swapped", "nodal direct", "nodal via node",
    ]
    assert min(seen.values()) >= 50


def test_annulus_path_input_validation():
    with pytest.raises(InputError):
        annulus_path(1.0, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(InputError, match="fiber equation"):
        annulus_path(0.3, 0.5, 0.5, 0.5, 0.18)
    with pytest.raises(InputError, match="unit disc"):
        annulus_path(0.9, 1.5, 0.54, 0.9, 0.9)


def test_annulus_path_rejects_nan_point():
    # a NaN endpoint used to pass both checks and fail in the arc sampler
    with pytest.raises(InputError, match="fiber equation"):
        annulus_path(0.5, complex(math.nan, 0.0), 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# neck paths
# ---------------------------------------------------------------------------


def test_neck_path_same_point_is_empty():
    t, p = chain2_point(0.1, 0.05, 0.01)
    q = neck_param(p, 1, 0.3, 0.5)
    path = neck_path(p, 1, q, q)
    assert path.round_length < 1e-12


def test_neck_path_certified_bound_on_random_pairs():
    rng = random.Random(59)
    tree = chain_tree(2)
    c = default_params(tree)
    checked = 0
    while checked < 100:
        p = random_member(tree, c, rng)
        g = p.gamma_of(1)
        big_r = -0.5 * math.log(abs(g))
        q1 = neck_param(p, 1, rng.uniform(-big_r, big_r), rng.uniform(0, 2 * math.pi))
        q2 = neck_param(p, 1, rng.uniform(-big_r, big_r), rng.uniform(0, 2 * math.pi))
        path = neck_path(p, 1, q1, q2)
        assert path.round_length <= 16 * math.pi * path.endpoint_distance + 1e-12
        for a, b in path.vertices:
            assert abs(a * b - g) < 1e-9
        checked += 1


def test_neck_path_rejects_outside_points():
    t, p = chain2_point(0.1, 0.05, 0.01)
    q = neck_param(p, 1, 0.0, 0.0)
    far = fiber_from_root(p, ProjPoint(0.7, 1.0))
    with pytest.raises(InputError, match="neck"):
        neck_path(p, 1, q, far)


# ---------------------------------------------------------------------------
# four-point values and stabilization
# ---------------------------------------------------------------------------


def test_four_point_value_fixes_reference_triple():
    refs = [ProjPoint(1.0, 1.0), ProjPoint(cmath.exp(2j * math.pi / 3), 1.0),
            ProjPoint(cmath.exp(-2j * math.pi / 3), 1.0)]
    for val in (0.3 + 0.1j, 5.0, -2.0j):
        out = four_point_value(refs + [ProjPoint(val, 1.0)])
        assert sphere_distance(out, ProjPoint(val, 1.0)) < 1e-12
    out = four_point_value(refs + [INF])
    assert sphere_distance(out, INF) < 1e-12


def test_four_point_value_mobius_invariance():
    rng = random.Random(61)
    for _ in range(100):
        pts = []
        while len(pts) < 4:
            cand = ProjPoint(
                cmath.rect(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi)), 1.0
            )
            if all(sphere_distance(cand, q) > 1e-3 for q in pts):
                pts.append(cand)
        src = [ProjPoint(0.0, 1.0), ProjPoint(1.0, 1.0), INF]
        tgt = [
            ProjPoint(
                cmath.rect(rng.uniform(0.1, 2), rng.uniform(0, 2 * math.pi)), 1.0
            )
            for _ in range(3)
        ]
        m = mobius_through(src, tgt)
        moved = [apply_mobius(m, q) for q in pts]
        a, b = four_point_value(pts), four_point_value(moved)
        assert sphere_distance(a, b) < 1e-9


def test_four_point_value_rejects_degenerate():
    pts = [ProjPoint(0.0, 1.0), ProjPoint(0.0, 1.0), INF, ProjPoint(1.0, 1.0)]
    with pytest.raises((VerificationError, InputError)):
        four_point_value(pts)


def test_stabilize_smooth_matches_root_chart_positions():
    p = star_point([(0.05, 0.001), (-0.05, 0.001), (0.02j, 0.001), (-0.09, 0.001)])
    marks = [section(p, e) for e in (1, 2, 3, 4)]
    expected = four_point_value(
        [ProjPoint(z, 1.0) for z in (0.05, -0.05, 0.02j, -0.09)]
    )
    got = stabilize_four_marked(p, marks)
    assert sphere_distance(got, expected) < 1e-12


def test_stabilize_two_two_split_returns_partner_anchor():
    _, p = chain2_point(0.0, 0.05, 0.01)
    marks = [section(p, 0), section(p, 2), section(p, 4), section(p, 5)]
    # marks 2 and 3 live beyond the node: the fourth collides with the third
    got = stabilize_four_marked(p, marks)
    assert sphere_distance(got, ProjPoint(cmath.exp(-2j * math.pi / 3), 1.0)) < 1e-12


def test_stabilize_matches_smooth_limit():
    # near-degenerate gluing: the smooth value approaches the boundary value
    _, p_eps = chain2_point(1e-4, 0.05, 0.01)
    _, p0 = chain2_point(0.0, 0.05, 0.01)
    marks_eps = [section(p_eps, e) for e in (0, 2, 4, 5)]
    marks0 = [section(p0, e) for e in (0, 2, 4, 5)]
    smooth = stabilize_four_marked(p_eps, marks_eps)
    nodal = stabilize_four_marked(p0, marks0)
    assert sphere_distance(smooth, nodal) < 1e-3


def child_component_point(p, child_value):
    """A smooth point of the child component of the split chain fiber.

    The parent coordinate is frozen at the node value z_{1,1} by the
    degenerate gluing equation.
    """
    return FiberPoint({1: ProjPoint(p.z(1, 1), 1.0), 2: ProjPoint(child_value, 1.0)})


def test_stabilize_three_beyond_node_uses_child_component():
    _, p = chain2_point(0.0, 0.05, 0.01)
    extra = child_component_point(p, 0.3)
    assert fiber_residual(p, extra) < 1e-15
    marks = [section(p, 0), section(p, 4), section(p, 5), extra]
    expected = four_point_value(
        [INF, ProjPoint(0.04, 1.0), ProjPoint(-0.04, 1.0), ProjPoint(0.3, 1.0)]
    )
    got = stabilize_four_marked(p, marks)
    assert sphere_distance(got, expected) < 1e-12


def test_stabilize_descends_two_nodes_on_a_three_component_chain():
    # both gluings of the three-level chain vanish: one mark sits on the
    # middle component and three on the last, so the walk passes two nodes
    t = chain_tree(3)
    zr = {
        (1, 1): (0.05, 0.01),
        (1, 3): (0.09, 0.004),
        (1, 4): (-0.09, 0.004),
        (2, 2): (-0.05j, 0.01),
        (2, 5): (0.09, 0.004),
        (2, 6): (-0.09, 0.004),
        (3, 7): (0.04, 0.004),
        (3, 8): (-0.04, 0.004),
    }
    p = ModuliPoint(t, {1: 0.0, 2: 0.0}, zr)
    assert len(split_fiber(p).components) == 3
    extra = FiberPoint(
        {1: ProjPoint(0.05, 1.0), 2: ProjPoint(-0.05j, 1.0), 3: ProjPoint(0.3, 1.0)}
    )
    marks = [section(p, 5), section(p, 7), section(p, 8), extra]
    expected = four_point_value(
        [INF, ProjPoint(0.04, 1.0), ProjPoint(-0.04, 1.0), ProjPoint(0.3, 1.0)]
    )
    got = stabilize_four_marked(p, marks)
    assert sphere_distance(got, expected) < 1e-12
    # with one mark each on the first two components the walk stops on the
    # middle one, where the marks split two against two: the fourth mark
    # collides with the third
    marks[:2] = [section(p, 5), section(p, 3)]
    assert stabilize_four_marked(p, marks) == UNIT_TARGETS[2]


def _nodal_fiber(rng):
    """A chain of depth 2-6 or an associated tree of 4-24 points, each full
    edge made degenerate with probability 1/2."""
    if rng.random() < 0.5:
        tree = chain_tree(rng.randint(2, 6))
        p = random_member(tree, default_params(tree), rng)
    else:
        p = associate_tree(random_standard(rng, EPS, rng.randint(4, 24)), EPS).point
    gamma = {e: 0j if rng.random() < 0.5 else p.gamma_of(e) for e in p.tree.full_edges}
    return ModuliPoint(p.tree, gamma, p.zr)


def _proj_bits(a):
    return struct.pack("<dddd", a.x.real, a.x.imag, a.y.real, a.y.imag)


def _stabilize_outcome(stabilize, p, marks):
    try:
        return _proj_bits(stabilize(p, marks))
    except (InputError, VerificationError) as exc:
        return type(exc), str(exc)


def test_stabilize_matches_reference_on_seeded_nodal_fibers():
    rng = random.Random(18)
    seen = {}
    for _ in range(2000):
        p = _nodal_fiber(rng)
        t = p.tree
        marks = [
            section(p, rng.choice(sorted(t.half_edges)))
            if rng.random() < 0.5
            else curves._fiber_through(
                p,
                rng.choice(sorted(t.vertices)),
                ProjPoint(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)), 1.0),
            )
            for _ in range(4)
        ]
        got = _stabilize_outcome(stabilize_four_marked, p, marks)
        assert got == _stabilize_outcome(stabilize_four_marked_reference, p, marks)
        if isinstance(got, bytes):
            kind = "partner" if got in map(_proj_bits, UNIT_TARGETS) else "value"
        else:
            kind = got[0].__name__
        components = min(len(split_fiber(p).components), 3)
        seen[components, kind] = seen.get((components, kind), 0) + 1
    # every outcome is reached with one, two and three or more components,
    # except a two-two split, which needs a node
    assert len(seen) == 11 and (1, "partner") not in seen, seen
    assert min(seen.values()) >= 20, seen


def test_stabilize_errors():
    _, p = chain2_point(0.1, 0.05, 0.01)
    with pytest.raises(InputError, match="four"):
        stabilize_four_marked(p, [section(p, 0)] * 3)
    with pytest.raises(InputError, match="coincide"):
        stabilize_four_marked(
            p, [section(p, 0), section(p, 0), section(p, 2), section(p, 3)]
        )


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------


def anchor_batch(p):
    """The labels of decorate's anchors and the anchors as a FiberBatch,
    from curves._anchor_starts through curves._fiber_batch; none may sit
    at a node."""
    labels, src, x, y = curves._anchor_starts(p)
    batch, node = curves._fiber_batch(p, src, x, y)
    assert (node < 0).all()
    return labels, batch


def test_decorate_anchor_points_sit_on_circles():
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])
    labels, batch = anchor_batch(p)
    for ((v, e), _), q in zip(labels, batch):
        val = q.affine(v)
        if p.tree.e_plus[e] == v:
            assert abs(abs(val) - 1.0) < 1e-12
        else:
            assert abs(abs(val - p.z(v, e)) - abs(p.rho(v, e))) < 1e-12


def test_decorate_counts_and_ring_fill():
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])
    mu = len(p.tree.incident_pairs())
    pts = decorate(p, [], 3 * mu + 5)
    assert len(pts) == 3 * mu + 5
    for q in pts[3 * mu:]:
        assert abs(abs(q.affine(1)) - 0.9) < 1e-12


def test_decorate_random_members_distinct():
    rng = random.Random(67)
    tree = chain_tree(2)
    c = default_params(tree)
    for _ in range(25):
        p = random_member(tree, c, rng)
        mu = len(tree.incident_pairs())
        pts = decorate(p, [section(p, 0)], 3 * mu + 4)
        assert len(pts) == 1 + 3 * mu + 4
        for i in range(len(pts)):
            assert fiber_residual(p, pts[i]) < 1e-9
            for j in range(i + 1, len(pts)):
                assert embedded_distance(p, pts[i], pts[j]) > 1e-9


def test_decorate_rejects_small_m():
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])
    with pytest.raises(InputError, match="anchor count"):
        decorate(p, [], 8)


def test_decorate_refuses_m_over_the_cap_before_building(monkeypatch):
    # the cap admits the m = 100,000 of BENCH_13.json and refuses the
    # 3,900,060 that area 1.0 asks for at eps = 1/8
    assert 100_000 <= curves.DECORATION_CAP < 3_900_060
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])

    def no_points(*args):
        raise AssertionError("decorate built points past its cap")

    monkeypatch.setattr(curves, "_fiber_batch", no_points)
    m = curves.DECORATION_CAP + 1
    with pytest.raises(ResourceCapError) as info:
        decorate(p, [], m)
    assert str(info.value) == f"m = {m} exceeds the decoration cap {curves.DECORATION_CAP}"


def test_decorate_builds_its_points_in_one_fiber_batch(monkeypatch):
    calls = []
    real = curves._fiber_batch

    def counted(p, src, x, y):
        calls.append(len(x))
        return real(p, src, x, y)

    monkeypatch.setattr(curves, "_fiber_batch", counted)
    for tree in (star_tree(4), chain_tree(3, 3), chain_tree(8)):
        p = random_member(tree, default_params(tree), random.Random(6))
        mu = len(tree.incident_pairs())
        for extra in (0, 40):
            calls.clear()
            assert len(decorate(p, [section(p, 0)], 3 * mu + extra)) == 1 + 3 * mu + extra
            # the anchors and every ring candidate the fill can reach
            assert calls == [3 * mu + extra + curves.FILL_SKIP_LIMIT + 1]


# sha256 of the xs then ys bytes of a decoration with m = 1000 on a seeded
# member of chain_tree(8), deeper than the pipeline digest's trees of 2-4
# vertices: a change to the batched fiber path that moves a bit must say why
# and record the new value
GOLDEN_DECORATION_DIGEST = (
    "e8912b865207ef01a36be71e6785c76d137fe056fd6774463f1d3e9ac47fd82f"
)


def test_decoration_golden_digest_on_a_deep_tree():
    tree = chain_tree(8)
    p = random_member(tree, default_params(tree), random.Random(8))
    batch = decorate(p, (), 1000)
    digest = hashlib.sha256(batch.xs.tobytes())
    digest.update(batch.ys.tobytes())
    assert digest.hexdigest() == GOLDEN_DECORATION_DIGEST


def test_decorate_skip_limit():
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])
    mu = len(p.tree.incident_pairs())
    blockers = [
        fiber_from_root(p, ProjPoint(0.9, 1.0)),
        fiber_from_root(p, ProjPoint(-0.9, 1.0)),
    ]
    with pytest.raises(VerificationError, match="skipped"):
        decorate(p, blockers, 3 * mu + 1)


def chart_bits(points):
    """IEEE bit patterns of every coordinate, so -0.0 and 0.0 differ."""
    return [
        [
            (v, struct.pack("<dddd", a.x.real, a.x.imag, a.y.real, a.y.imag))
            for v, a in sorted(q.coords.items())
        ]
        for q in points
    ]


def test_chart_bits_tell_signed_zeros_apart():
    plus = FiberPoint({1: ProjPoint(0.0, 1.0)})
    minus = FiberPoint({1: ProjPoint(complex(-0.0, -0.0), 1.0)})
    assert plus.at(1).x == minus.at(1).x
    assert math.copysign(1.0, minus.at(1).x.real) < 0
    assert chart_bits([plus]) != chart_bits([minus])


def test_fiber_batch_rows_keep_the_stored_signed_zeros():
    # [0 : -1] normalizes to [-0.0+0.0j : 1], and normalizing that once more
    # gives [0j : 1]: a row rebuilt through FiberPoint's constructor would
    # not be the point _fiber_through returns
    tree = chain_tree(2)
    p = random_member(tree, default_params(tree), random.Random(1))
    v = tree.root_vertex
    start = ProjPoint(0.0, -1.0)
    batch, _ = curves._fiber_batch(p, v, np.array([start.x]), np.array([start.y]))
    want = chart_bits([curves._fiber_through(p, v, start)])
    assert chart_bits(batch) == chart_bits([batch[-1]]) == want
    assert chart_bits([FiberPoint(batch[0].coords)]) != want


def fiber_batch_bits(p, src, starts):
    """Scalar _fiber_through and the rows of curves._fiber_batch's FiberBatch
    on the same starts, as chart bits, with the scalar error text in place of
    a rejected point.  src is the vertex of every start, or a list of one
    vertex per start."""
    srcs = src if isinstance(src, list) else [src] * len(starts)
    want = []
    for v, q in zip(srcs, starts):
        try:
            want.append(chart_bits([curves._fiber_through(p, v, q)])[0])
        except VerificationError as exc:
            want.append(str(exc))
    batch, node = curves._fiber_batch(
        p,
        np.array(src),
        np.array([q.x for q in starts]),
        np.array([q.y for q in starts]),
    )
    assert len(batch) == len(starts)
    got = chart_bits(batch)
    for i, w in enumerate(node):
        if w >= 0:
            got[i] = str(curves._node_error(p.tree, int(w)))
    return got, want


def test_fiber_batch_matches_scalar_propagation():
    rng = random.Random(17)
    shuffle = random.Random(29)
    for tree in (star_tree(3), chain_tree(2), chain_tree(3, 3), chain_tree(5)):
        c = default_params(tree)
        for zero in ((), tuple(tree.full_edges[:1]), tuple(tree.full_edges)):
            p = random_member(tree, c, rng, zero_edges=zero)
            mixed = []
            for v in tree.vertices:
                starts = [
                    ProjPoint(1.0, 0.0),
                    ProjPoint(1.0, complex(-0.0, -0.0)),
                    ProjPoint(0.0, 1.0),
                    ProjPoint(0.0, -1.0),
                    ProjPoint(complex(-0.0, -0.0), 1.0),
                    ProjPoint(complex(-0.0, 0.0), complex(1.0, -0.0)),
                    ProjPoint(0.7 - 0.7j, 0.7 + 0.7j),
                ]
                # the nodes of v's child edges and random points at all scales
                starts += [ProjPoint(p.z(v, e), 1.0) for e in tree.child_edges(v)]
                for scale in (1e-3, 0.1, 1.0, 10.0):
                    for _ in range(4):
                        z = complex(rng.gauss(0, scale), rng.gauss(0, scale))
                        y = complex(rng.gauss(0, 1), rng.choice([0.0, -0.0, 0.3]))
                        starts.append(ProjPoint(z, y))
                # near-ties |y| = |x| (1 - u), inside nets.TIE_RTOL, both ways
                for _ in range(8):
                    r = rng.uniform(1e-3, 1e3)
                    near = r * (1.0 - rng.uniform(0.0, 1e-12))
                    x = cmath.rect(r, rng.uniform(-math.pi, math.pi))
                    y = cmath.rect(near, rng.uniform(-math.pi, math.pi))
                    starts += [ProjPoint(x, y), ProjPoint(y, x)]
                got, want = fiber_batch_bits(p, v, starts)
                assert got == want
                mixed += [(v, q) for q in starts]
            # every start from every vertex in one shuffled batch
            shuffle.shuffle(mixed)
            got, want = fiber_batch_bits(p, [v for v, _ in mixed], [q for _, q in mixed])
            assert got == want


def test_fiber_batch_reports_each_node_like_scalar():
    tree = chain_tree(3)
    p = random_member(tree, default_params(tree), random.Random(3), zero_edges=(1, 2))
    # on degenerate edges the coordinate [z : 1] at e- sits at the node of e
    starts = [ProjPoint(p.z(1, 1), 1.0), ProjPoint(0.02, 1.0)]
    got, want = fiber_batch_bits(p, 1, starts)
    assert got == want
    assert "vertex 1 sits at the node of edge 1" in got[0]
    assert isinstance(got[1], list)
    # mixed sources: gamma vanishes on edge 2, from vertex 2 to vertex 3, so
    # a start at infinity at vertex 3 lifts to [z_{2,2} : 1] at vertex 2
    srcs = [2, 3, 1, 3, 1, 2]
    starts = [ProjPoint(0.1, 1.0), INF, ProjPoint(p.z(1, 1), 1.0),
              ProjPoint(0.4j, 1.0), ProjPoint(-0.3, 1.0), INF]
    got, want = fiber_batch_bits(p, srcs, starts)
    assert got == want
    assert "vertex 1 sits at the node of edge 1" in got[2]
    assert curves._fiber_through(p, 3, INF).affine(2) == p.z(2, 2)
    # with z_{2,2} = 0 the row past the node of edge 1 meets the node of
    # edge 2 too: the first node is the one named
    q = ModuliPoint(tree, p.gamma, {**p.zr, (2, 2): (0.0, p.rho(2, 2))})
    starts = [ProjPoint(q.z(1, 1), 1.0), ProjPoint(0.5, 1.0)]
    got, want = fiber_batch_bits(q, [1, 2], starts)
    assert got == want
    assert "vertex 1 sits at the node of edge 1" in got[0]


def test_decorate_matches_scalar_reference():
    rng = random.Random(2024)
    for tree in (star_tree(4), chain_tree(2), chain_tree(3, 3)):
        c = default_params(tree)
        mu = len(tree.incident_pairs())
        for _ in range(4):
            p = random_member(tree, c, rng)
            marks = [section(p, 0), fiber_from_root(p, ProjPoint(0.3j, 1.0))]
            for marked in ([], marks):
                for extra in (0, 5, 40):
                    got = decorate(p, marked, 3 * mu + extra)
                    want = decorate_reference(p, marked, 3 * mu + extra)
                    assert chart_bits(got) == chart_bits(want)


def test_decorate_ring_skips_match_reference():
    p = star_point([(0.05, 0.01), (-0.05, 0.01)])
    mu = len(p.tree.incident_pairs())
    # with 5 extras the third candidate is -0.9: skipped once, then 0.9 fills
    one = [fiber_from_root(p, ProjPoint(-0.9, 1.0))]
    got = decorate(p, one, 3 * mu + 5)
    assert chart_bits(got) == chart_bits(decorate_reference(p, one, 3 * mu + 5))
    assert got[-1].affine(1) == pytest.approx(0.9)
    both = one + [fiber_from_root(p, ProjPoint(0.9, 1.0))]
    for fn in (decorate, decorate_reference):
        with pytest.raises(VerificationError, match="after 64 skipped"):
            fn(p, both, 3 * mu + 5)


def test_decorate_duplicate_marks_raise_like_reference():
    rng = random.Random(5)
    tree = chain_tree(2)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    mu = len(tree.incident_pairs())
    q = fiber_from_root(p, ProjPoint(0.2 + 0.1j, 1.0))
    twin = fiber_from_root(p, ProjPoint(0.2 + 0.1j, 1.0))
    anchor = anchor_batch(p)[1][4]
    for marked, pair in (([q, twin], "0 and 1"), ([q, anchor], "1 and 6")):
        for fn in (decorate, decorate_reference):
            with pytest.raises(VerificationError, match=f"points {pair} collide"):
                fn(p, marked, 3 * mu + 3)


def test_anchor_points_match_scalar_reference():
    rng = random.Random(11)
    for tree in (star_tree(4), chain_tree(3, 3)):
        c = default_params(tree)
        for zero in ((), tuple(tree.full_edges)):
            p = random_member(tree, c, rng, zero_edges=zero)
            labels, batch = anchor_batch(p)
            want = anchor_points_reference(p)
            assert labels == [label[:2] for label in want]
            assert chart_bits(batch) == chart_bits([q for *_, q in want])


@pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
def test_decorate_matches_reference_on_nested_configurations(n):
    # the pipeline's inputs: nested standard configurations with m = 9 n
    p = associate_tree(random_standard(random.Random(n), EPS, n), EPS).point
    marks = [section(p, 0), fiber_from_root(p, ProjPoint(0.3j, 1.0))]
    for marked in ([], marks):
        got = decorate(p, marked, 9 * n)
        assert chart_bits(got) == chart_bits(decorate_reference(p, marked, 9 * n))


def test_decorate_ring_candidate_at_a_node_raises_like_reference():
    # gamma vanishes on the edge below vertex 2, and z there is the first
    # ring candidate's chart value at vertex 2: that candidate sits at a node
    tree = chain_tree(3)
    c = default_params(tree)
    mu = len(tree.incident_pairs())
    base = random_member(tree, c, random.Random(8))
    val = 0.9 * cmath.exp(2j * math.pi / 6)
    zr = dict(base.zr)
    zr[(1, 1)] = (0.1 * cmath.exp(2j * math.pi / 6), 0.01)
    gamma = {1: 100.0, 2: 0.0}
    probe = ModuliPoint(tree, gamma, zr)
    zr[(2, 2)] = (curves._fiber_through(probe, 1, ProjPoint(val, 1.0)).affine(2), 0.01)
    p = ModuliPoint(tree, gamma, zr)
    anchor_batch(p)  # the anchors stay clear of the node
    for fn in (decorate, decorate_reference):
        with pytest.raises(VerificationError, match="vertex 2 sits at the node of edge 2"):
            fn(p, [], 3 * mu + 5)


def test_anchor_at_a_node_raises():
    # gamma vanishes on edge 1, and the first anchor of the sibling pair
    # (1, 2), rho + z = 0.01 - 0.05, is z_{1,1} = -0.04: it sits at the node
    zr = {(1, 1): (-0.04, 0.01), (1, 2): (-0.05, 0.01), (1, 3): (0.09, 0.004),
          (2, 4): (0.04, 0.004), (2, 5): (-0.04, 0.004)}
    p = ModuliPoint(chain_tree(2), {1: 0.0}, zr)
    labels, src, x, y = curves._anchor_starts(p)
    _, node = curves._fiber_batch(p, src, x, y)
    assert node.tolist().count(2) == 1 and labels[node.tolist().index(2)] == ((1, 2), 0)
    mu = len(p.tree.incident_pairs())
    message = "^coordinate at vertex 1 sits at the node of edge 1;"
    with pytest.raises(VerificationError, match=message):
        decorate(p, [], 3 * mu)
    # marked points on the ring's candidates at 0.9 and -0.9 exhaust its
    # skips once the anchor is moved off the node; at the node, the anchor
    # error still comes first
    for z, error in ((-0.05, message), (-0.051, "ring fill exhausted after 64")):
        q = ModuliPoint(chain_tree(2), {1: 0.0}, {**zr, (1, 2): (z, 0.01)})
        blockers = [curves._fiber_through(q, 1, ProjPoint(a, 1.0)) for a in (0.9, -0.9)]
        with pytest.raises(VerificationError, match=error):
            decorate(q, blockers, 3 * mu + 5)


def test_decorate_exhaustion_counts_each_kind_of_skip():
    # ring candidates at angle 0 land in the disc around 0.9, those at pi on
    # the marked point at -0.9, and every later lap on the points chosen
    p = star_point([(0.9, 0.05), (-0.05, 0.01)])
    mu = len(p.tree.incident_pairs())
    marked = [fiber_from_root(p, ProjPoint(-0.9, 1.0))]
    with pytest.raises(
        VerificationError,
        match=(
            "ring fill exhausted after 64 skipped candidates: 11 fell in a child "
            "disc of the root vertex and 54 within 1e-06 of a chosen point, with "
            "4 of extra = 5 ring points placed"
        ),
    ):
        decorate(p, marked, 3 * mu + 5)
    with pytest.raises(VerificationError, match="ring fill exhausted after 64"):
        decorate_reference(p, marked, 3 * mu + 5)


def test_decorate_never_propagates_point_by_point(monkeypatch):
    # anchors and ring candidates go through the batched propagation only
    def scalar(*args):
        raise AssertionError("scalar _fiber_through called")

    tree = chain_tree(8)
    c = default_params(tree)
    p = random_member(tree, c, random.Random(216))
    monkeypatch.setattr(curves, "_fiber_through", scalar)
    assert len(decorate(p, [], 216)) == 216


def test_decorate_scans_without_scalar_distances(monkeypatch):
    # the near-pair search runs on the coordinate block; the scalar distance
    # is only read for pairs that already collide in the charts
    def scalar(*args):
        raise AssertionError("scalar sphere_distance called")

    rng = random.Random(216)
    tree = chain_tree(8)
    c = default_params(tree)
    p = random_member(tree, c, rng)
    monkeypatch.setattr(curves, "sphere_distance", scalar)
    assert len(decorate(p, [], 216)) == 216


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_componentwise_distances_skip_the_scalar_form(monkeypatch, depth):
    # embedded_distance and _mark_distance measure every component in one
    # kernel call, with the bits of the per-component scalar maximum
    rng = random.Random(depth)
    tree = chain_tree(depth)
    p = random_member(tree, default_params(tree), rng)
    points = list(decorate(p, [], 3 * len(tree.incident_pairs()) + 12))
    pairs = [tuple(rng.sample(points, 2)) for _ in range(30)] + [(points[0], points[0])]
    want = [
        (max_sphere_distance_reference(embed(p, a).values(), embed(p, b).values()),
         max_sphere_distance_reference(a.coords.values(), [b.at(v) for v in a.coords]))
        for a, b in pairs
    ]

    def scalar(*args):
        raise AssertionError("scalar sphere_distance called")

    monkeypatch.setattr(curves, "sphere_distance", scalar)
    got = [(embedded_distance(p, a, b), curves._mark_distance(a, b)) for a, b in pairs]
    assert [(e.hex(), m.hex()) for e, m in got] == [(e.hex(), m.hex()) for e, m in want]
    assert all(e > 0.0 for e, _ in got[:-1]) and got[-1] == (0.0, 0.0)


def decorate_rows(monkeypatch, m):
    """The (xs, ys) rows decorate searches for near pairs on a
    chain_tree(4) member, and the root column it sorts them by."""
    seen = []
    real = curves._near_pairs

    def spy(xs, ys, below, col):
        seen.append((xs, ys, col))
        return real(xs, ys, below, col)

    monkeypatch.setattr(curves, "_near_pairs", spy)
    tree = chain_tree(4)
    decorate(random_member(tree, default_params(tree), random.Random(4)), [], m)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("m", [300, 4000])
def test_near_pairs_match_brute_force_on_decorate_rows(monkeypatch, m):
    xs, ys, col = decorate_rows(monkeypatch, m)
    wide = near_pairs_reference(xs, ys, 1e-2)
    for below in (curves.FILL_SEPARATION, 1e-2):
        got = curves._near_pairs(xs, ys, below, col)
        assert got
        assert got == [pair for pair in wide if pair[2] < below]


def test_near_pairs_keep_exact_duplicates(monkeypatch):
    xs, ys, col = decorate_rows(monkeypatch, 300)
    last = len(xs) - 1
    rows = np.random.default_rng(0).permutation(np.r_[0:last + 1, 0, 7, 7, 150, last])
    xs, ys = xs[rows], ys[rows]
    got = curves._near_pairs(xs, ys, curves.FILL_SEPARATION, col)
    assert sum(d == 0.0 for _, _, d in got) >= 6
    assert got == near_pairs_reference(xs, ys, curves.FILL_SEPARATION)


def test_near_pairs_read_every_vertex_when_the_root_chart_collapses(monkeypatch):
    # deep-vertex anchors can land on one node of the root chart: every row
    # then ties on the sort key, and only the other vertices part them
    xs, ys, col = decorate_rows(monkeypatch, 300)
    xs, ys = xs.copy(), ys.copy()
    xs[:, col], ys[:, col] = xs[0, col], ys[0, col]
    for below in (curves.FILL_SEPARATION, 1e-2):
        got = curves._near_pairs(xs, ys, below, col)
        assert got == near_pairs_reference(xs, ys, below)


@pytest.mark.parametrize("step", [1e-6, 1e-3])
def test_near_pairs_cut_is_strict_to_the_ulp(step):
    # points on one circle of a chart, like decorate's ring: neighbours'
    # rounded chord can exceed their distance by an ulp or more, so neither
    # the sort window nor the chord cut may drop them; a pair at exactly
    # `below` is out, one ulp under it is in
    xs = 0.9 * np.exp(1j * (1.0 + step * np.arange(200)))[:, None]
    ys = np.ones_like(xs)
    for i, k, d in near_pairs_reference(xs, ys, 1.5 * step)[::37]:
        for below, inside in ((d, False), (np.nextafter(d, math.inf), True)):
            got = curves._near_pairs(xs, ys, below, 0)
            assert ((i, k, d) in got) is inside
            assert got == near_pairs_reference(xs, ys, below)


@pytest.mark.parametrize("n", [6, 8])
def test_pipeline_decorates_flat_zero_radius_configurations(tmp_path, n):
    # anchors on circles of radius (4 eps^3)^k / (4 eps^2) < 1e-9 coincide in
    # the plain charts; the disc-rescaled charts tell them apart
    for seed in range(3):
        cfg, config = flat_zero_config(n, seed)
        p = associate_tree(cfg, EPS).point
        mu = len(p.tree.incident_pairs())
        with pytest.raises(VerificationError, match="collide"):
            decorate_reference(p, [], 3 * mu)
        report = pipeline.run_pipeline(config, tmp_path, seed=0)
        assert report.ok, report.stages[-1].detail


def test_decorate_names_anchors_that_really_coincide():
    # at n = 9 the anchor circle is below one ulp of its centre, so its three
    # anchors are the same floating-point point
    cfg, _ = flat_zero_config(9, 0)
    p = associate_tree(cfg, EPS).point
    pair = min(p.zr, key=lambda k: abs(p.rho(*k)))
    radius = abs(p.rho(*pair))
    assert radius < math.ulp(abs(p.z(*pair)))
    labels, batch = anchor_batch(p)
    twins = [q for (where, _), q in zip(labels, batch) if where == pair]
    assert chart_bits(twins[:1]) == chart_bits(twins[1:2])
    mu = len(p.tree.incident_pairs())
    with pytest.raises(VerificationError, match=f"radius {radius:.6g}") as err:
        decorate(p, [], 3 * mu)
    assert f"of {pair}" in str(err.value)


# ---------------------------------------------------------------------------
# sampled map membership
# ---------------------------------------------------------------------------


def two_point_target():
    return FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])


def region_budgets(p, c, value):
    return {r: value for r in decomposition(p, c).regions}


def test_check_map_constant_not_refuted():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    samples = tuple(
        (fiber_from_root(p, ProjPoint(x, 1.0)), 0) for x in (0.3, 0.4, 0.5j)
    )
    verdict = check_map_membership(
        p, c, SampledMap(two_point_target(), samples), {0}, 0.5,
        region_budgets(p, c, 1.0), 1.0, Marking(frozenset()),
    )
    assert not verdict.rejected
    assert verdict.summary().startswith("not refuted")
    assert verdict.energy_status == "unchecked"


def test_check_map_lipschitz_violation_names_region():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    q1 = fiber_from_root(p, ProjPoint(0.3, 1.0))
    q2 = fiber_from_root(p, ProjPoint(0.31, 1.0))
    d = sphere_distance(q1.at(1), q2.at(1))
    samples = ((q1, 0), (q2, 1))
    budgets = region_budgets(p, c, (1.0 / d) / 2.0)
    verdict = check_map_membership(
        p, c, SampledMap(two_point_target(), samples), {0, 1}, 0.5,
        budgets, 1.0, Marking(frozenset()),
    )
    assert verdict.rejected
    regions = [r for r, _, _ in verdict.lipschitz_rejections]
    assert Region("thick", vertex=1) in regions
    assert "thick" in verdict.summary()


def test_check_map_verdict_monotone_in_budget():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    q1 = fiber_from_root(p, ProjPoint(0.3, 1.0))
    q2 = fiber_from_root(p, ProjPoint(0.31, 1.0))
    samples = ((q1, 0), (q2, 1))
    smap = SampledMap(two_point_target(), samples)
    d = sphere_distance(q1.at(1), q2.at(1))
    tight = check_map_membership(
        p, c, smap, {0, 1}, 0.5, region_budgets(p, c, 0.5 / d), 1.0,
        Marking(frozenset()),
    )
    loose = check_map_membership(
        p, c, smap, {0, 1}, 0.5, region_budgets(p, c, 2.0 / d), 1.0,
        Marking(frozenset()),
    )
    assert tight.rejected and not loose.rejected


def test_check_map_image_and_energy():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    smap = SampledMap(two_point_target(), ((q, 1),))
    verdict = check_map_membership(
        p, c, smap, {0}, 0.5, region_budgets(p, c, 10.0), 1.0,
        Marking(frozenset()),
    )
    assert verdict.rejected and verdict.image_offender == 0

    energies = {e: 1.0 for e in t.half_edges}
    energies[2] = 0.01
    smap2 = SampledMap(two_point_target(), ((q, 0),), energies)
    bad = check_map_membership(
        p, c, smap2, {0}, 0.5, region_budgets(p, c, 10.0), 1.0,
        Marking(frozenset()),
    )
    assert bad.energy_status == "failed" and bad.energy_failures == (2,)
    exempt = check_map_membership(
        p, c, smap2, {0}, 0.5, region_budgets(p, c, 10.0), 1.0,
        Marking(frozenset({2})),
    )
    assert exempt.energy_status == "ok" and not exempt.rejected


def test_check_map_nonmember_rejected():
    t, p = chain2_point(0.9, 0.05, 0.01)
    c = default_params(t)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    verdict = check_map_membership(
        p, c, SampledMap(two_point_target(), ((q, 0),)), {0}, 0.5, {}, 1.0,
        Marking(frozenset()),
    )
    assert verdict.rejected and "gamma" in verdict.summary()


def test_check_map_missing_budget_is_input_error():
    t, p = chain2_point(0.1, 0.05, 0.01)
    c = default_params(t)
    q = fiber_from_root(p, ProjPoint(0.3, 1.0))
    with pytest.raises(InputError, match="budget"):
        check_map_membership(
            p, c, SampledMap(two_point_target(), ((q, 0),)), {0}, 0.5, {},
            1.0, Marking(frozenset()),
        )


# sha256 over the float.hex of every chart value of seeded fiber_from_root
# and neck_param samples, every classify result and every worst sampled
# ratio of check_map_membership (a zero budget rejects each region that has
# a sampled pair and reports its worst ratio): a change to the scalar fiber
# path that moves a bit must say why and record the new value.  It last
# moved when every sphere distance became the atan2 kernel: 34 of the 39
# worst ratios moved by a few ulps (a ratio of root-chart distances to
# themselves now reads exactly 1.0), and every chart value and classify
# result held.
GOLDEN_FIBERS_DIGEST = (
    "f6c6b370cc01d7cf329e55e9793db492a6aba9465f644e74d2666e95bfba6322"
)


def test_fibers_path_golden_digest():
    rng = random.Random(26)
    digest = hashlib.sha256()
    for depth in (2, 3, 4, 6, 8, 10):
        tree = chain_tree(depth)
        c = default_params(tree)
        p = random_member(tree, c, rng)
        samples = [fiber_from_root(p, INF), fiber_from_root(p, ProjPoint(0.0, 1.0))]
        for _ in range(16):
            r = math.exp(rng.uniform(math.log(1e-4), math.log(10.0)))
            z = cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
            samples.append(fiber_from_root(p, ProjPoint(z, 1.0)))
        for e in tree.full_edges:
            big_r = -0.5 * math.log(abs(p.gamma_of(e)))
            for s in (-big_r, rng.uniform(-big_r, big_r), big_r):
                samples.append(neck_param(p, e, s, rng.uniform(0.0, 2.0 * math.pi)))
        for q in samples:
            for v in tree.vertices:
                a = q.at(v)
                parts = (a.x.real, a.x.imag, a.y.real, a.y.imag)
                digest.update(" ".join(map(float.hex, parts)).encode() + b"\n")
            digest.update(f"{classify(p, c, q)}\n".encode())
        target = FiniteMetricSpace.from_sphere([q.at(tree.root_vertex) for q in samples])
        smap = SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
        verdict = check_map_membership(
            p, c, smap, range(len(samples)), 1.0, region_budgets(p, c, 0.0), 1.0,
            Marking(),
        )
        assert verdict.lipschitz_rejections
        for region, seen, _ in verdict.lipschitz_rejections:
            digest.update(f"{region} {seen.hex()}\n".encode())
    assert digest.hexdigest() == GOLDEN_FIBERS_DIGEST


def neck_end_start(p, e, s, t_angle):
    """The chart value z'_v at e+ of neck_param(p, e, s, t_angle), by the
    same operations."""
    g = p.gamma_of(e)
    delta = math.sqrt(abs(g))
    phase = cmath.exp(0.5j * cmath.phase(g))
    return delta * phase * cmath.exp(s + 1j * t_angle)


def certificate_cases():
    """(p, points) on members of chain trees of depths 2 to 32 and of every
    stable rooted tree with 6 boundary edges: fiber_from_root at 0, at
    infinity and at random values of all scales, every section, neck_param
    at s = -R, 0 and +R on every full edge, and the rows of one _fiber_batch
    from random starts and infinity at every vertex, near-ties of
    nets.TIE_RTOL among them.  Then with every z twenty times as large, so
    chart positions and nodes lie outside the unit disc: every section, and
    with every gamma zero as well, where a child at infinity lifts to
    [z : 1], the points through infinity at each vertex below the root and
    the rows of the same batch but for those at a node."""
    rng = random.Random(3160)
    trees = [chain_tree(d) for d in (2, 3, 4, 8, 16, 32)] + enumerate_stable_rooted(6)
    out = []
    for tree in trees:
        p = random_member(tree, default_params(tree), rng)
        roots = [INF, ProjPoint(0.0, 1.0)]
        roots += [ProjPoint(cmath.rect(10 ** rng.uniform(-4, 4), rng.uniform(0, 7)), 1.0)
                  for _ in range(6)]
        points = [fiber_from_root(p, a) for a in roots]
        points += [section(p, e) for e in tree.half_edges]
        for e in tree.full_edges:
            big_r = -0.5 * math.log(abs(p.gamma_of(e)))
            points += [neck_param(p, e, s, rng.uniform(0, 7)) for s in (-big_r, 0.0, big_r)]
        src, starts = [], []
        for v in tree.vertices:
            src += [v] * 10
            starts.append((1.0, 0.0))
            for _ in range(3):
                r = rng.uniform(1e-3, 1e3)
                x = cmath.rect(r, rng.uniform(-math.pi, math.pi))
                near = cmath.rect(r * (1.0 - rng.uniform(0.0, 1e-12)), rng.uniform(-7, 7))
                starts += [(x, 1.0), (x, near), (near, x)]
        x, y = (np.array(a, dtype=complex) for a in zip(*starts))
        batch, node = curves._fiber_batch(p, np.array(src), x, y)
        assert max(node) < 0
        out.append((p, points + list(batch)))
        if tree.full_edges:
            zr = {pair: (20 * z, rho) for pair, (z, rho) in p.zr.items()}
            big = ModuliPoint(tree, p.gamma, zr)
            out.append((big, [section(big, e) for e in tree.half_edges]))
            nodal = ModuliPoint(tree, {e: 0j for e in tree.full_edges}, zr)
            points = [curves._fiber_through(nodal, v, INF) for v in tree.order[1:]]
            batch, node = curves._fiber_batch(nodal, np.array(src), x, y)
            out.append((nodal, points + [batch[i] for i in np.flatnonzero(node < 0)]))
    return out


def test_fiber_points_hold_normalized_coordinates():
    # what FiberPoint._certified trusts: one slot is exactly 1 + 0j, and
    # normalizing again changes at most the sign of a zero
    one = struct.pack("<dd", 1.0, 0.0)
    checked = 0
    for p, points in certificate_cases():
        for q in points:
            assert sorted(q.coords) == sorted(p.tree.vertices)
            for a in q.coords.values():
                assert type(a.x) is complex and type(a.y) is complex
                slots = [struct.pack("<dd", z.real, z.imag) for z in (a.x, a.y)]
                assert one in slots
                again = _normal(a.x, a.y)
                assert (again.x, again.y) == (a.x, a.y)
                checked += 1
    assert checked > 20_000


def test_neck_end_at_plus_r_propagates_from_the_normalized_start():
    # at s = +R, |z'_v| lies within TIE_RTOL of 1, so e+'s start normalizes
    # to [1 / z'_v : 1]; its subtree comes from that start, bit for bit, and
    # in some cases not from the raw start [1 : z'_v], which is why the
    # fibers digest moved when the start was first normalized
    rng = random.Random(2611)
    raw_differs = tied = 0
    for depth in (2, 4, 6, 8, 10):
        tree = chain_tree(depth)
        for _ in range(4):
            p = random_member(tree, default_params(tree), rng)
            for e in tree.full_edges:
                big_r = -0.5 * math.log(abs(p.gamma_of(e)))
                t_angle = rng.uniform(0.0, 2.0 * math.pi)
                z_v = neck_end_start(p, e, big_r, t_angle)
                tied += abs(abs(z_v) - 1.0) <= TIE_RTOL
                v = tree.e_plus[e]
                got = neck_param(p, e, big_r, t_angle)
                want = curves._fiber_through(p, v, _normal(1 + 0j, z_v))
                below = [w for w in tree.vertices if v in positive_path(tree, tree.root_vertex, w)]
                assert chart_bits([FiberPoint._certified({w: got.at(w) for w in below})]) == (
                    chart_bits([FiberPoint._certified({w: want.at(w) for w in below})])
                )
                for f in set(tree.child_edges(v)).intersection(tree.full_edges):
                    a = curves._child_coord(p, ProjPoint(1.0, z_v), v, f)
                    b = got.at(tree.e_plus[f])
                    raw_differs += (a.x, a.y) != (b.x, b.y)
    assert tied == sum(4 * (d - 1) for d in (2, 4, 6, 8, 10))
    assert raw_differs > 0


def test_classify_tests_the_regions_listed_at_kept_vertices():
    # points whose chart values stay inside the closed unit disc at two or
    # more vertices, so classify reads several vertices' region lists:
    # neck points at s = -R and +R, sections and values on child circles
    rng = random.Random(4160)
    several = 0
    for depth in (2, 3, 5, 8, 12):
        tree = chain_tree(depth)
        c = default_params(tree)
        p = random_member(tree, c, rng)
        dec = decomposition(p, c)
        lists = [r for _, _, listed in dec.rims for r in listed] + list(dec.always)
        assert sorted(lists) == list(range(len(dec.regions)))
        assert [dec.regions[r] for r in dec.always] == [Region("end", edge=tree.root_edge)]
        samples = [section(p, e) for e in tree.half_edges]
        for e in tree.full_edges:
            big_r = -0.5 * math.log(abs(p.gamma_of(e)))
            samples += [neck_param(p, e, s, rng.uniform(0, 7)) for s in (-big_r, big_r)]
        for (v, e), (center, radius) in dec.circles.items():
            if tree.e_minus[e] == v:
                rim = ProjPoint(center + radius * cmath.exp(1j * rng.uniform(0, 7)), 1.0)
                samples.append(curves._fiber_through(p, v, rim))
        for q in samples:
            kept = sum(
                curves._outside_unit_as_none(q.affine(v)) is not None for v in tree.vertices
            )
            several += kept >= 2
            want = classify_reference(p, q)
            assert dec.classify(q) == want
            assert want == tuple(r for r in dec.regions if region_contains(p, r, q))
            assert want
    assert several >= 100

