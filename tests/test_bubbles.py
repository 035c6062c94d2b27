"""Bubble configurations: predicates, selection, reduction, association."""

import cmath
import math
import random
from itertools import combinations

import numpy as np
import pytest

from bubbletree import bubbles
from bubbletree.bubbles import (
    AffineMap,
    BubbleConfiguration,
    TreeAssociation,
    ConcentrationProfile,
    EnergyMeasure,
    associate_tree,
    association_params,
    cluster_select,
    is_standard,
    is_type_eps,
    reduce,
    reduce_at,
    renormalize,
    select_bubble_points,
    threshold_radius,
    verify_association,
)
from bubbletree.curves import ModuliPoint
from bubbletree.errors import InputError, VerificationError
from bubbletree.nets import FiniteMetricSpace
from helpers import (
    farthest_first_reference,
    flat_standard,
    in_compact_subset_reference,
    is_standard_reference,
    is_type_eps_reference,
    position_errors_reference,
    random_standard,
    reduce_checks_reference,
    renormalize_base_reference,
    slack_edges,
    star_tree,
    traversal_cases,
)

EPS = 0.125


def flat(points, radius=0.0):
    return BubbleConfiguration(tuple(points), {complex(z): radius for z in points})


def random_type_eps(rng, eps, size):
    """Multiscale cloud in the eps disc with radii below the pairwise budget."""
    pts = [0j]
    while len(pts) < size:
        anchor = pts[rng.randrange(len(pts))]
        scale = eps * 10 ** rng.uniform(-6.0, -0.3)
        cand = anchor + scale * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        if abs(cand) > eps:
            continue
        if any(abs(cand - q) < 0.45 * scale for q in pts):
            continue
        pts.append(cand)
    radius = {}
    for z in pts:
        gap = min(abs(z - q) for q in pts if q != z)
        radius[z] = rng.uniform(0.0, 0.999) * (eps * eps / 8.0) * gap
    return BubbleConfiguration(tuple(pts), radius)


class TestConfiguration:
    def test_points_sorted_and_coerced(self):
        cfg = BubbleConfiguration((0.2, 0.1), {0.2: 0.0, 0.1: 0.0})
        assert cfg.points == (0.1 + 0j, 0.2 + 0j)
        assert cfg.size == 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError, match="distinct"):
            BubbleConfiguration((0.1, 0.1), {0.1: 0.0})

    def test_radius_keys_must_match(self):
        with pytest.raises(InputError, match="keys"):
            BubbleConfiguration((0.1,), {0.2: 0.0})

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            BubbleConfiguration((0.1,), {0.1: -1e-9})


class TestTypePredicates:
    def test_two_point_flat_is_standard(self):
        assert is_standard(flat((0, EPS)), EPS)

    def test_pairwise_radius_boundary_is_type(self):
        r = EPS**3 / 8.0
        cfg = flat((0, EPS), radius=r)
        # rho(x) + rho(y) = eps^3/4 equals (eps^2/4) * eps exactly
        assert is_type_eps(cfg, EPS)
        assert is_standard(cfg, EPS)

    def test_origin_alone_is_type_but_not_standard(self):
        cfg = flat((0,))
        assert is_type_eps(cfg, EPS)
        assert not is_standard(cfg, EPS)

    def test_far_point_breaks_type(self):
        assert not is_type_eps(flat((0, 1.1 * EPS)), EPS)

    def test_large_radius_breaks_type(self):
        assert not is_type_eps(flat((0,), radius=4.0 * EPS + 0.1), EPS)

    def test_pairwise_radius_violation_breaks_type(self):
        assert not is_type_eps(flat((0, EPS), radius=EPS**3), EPS)

    def test_standard_needs_origin(self):
        cfg = flat((EPS / 2, EPS))
        assert is_type_eps(cfg, EPS)
        assert not is_standard(cfg, EPS)

    def test_eps_range_enforced(self):
        with pytest.raises(InputError, match="eps"):
            is_type_eps(flat((0,)), 0.2)


class TestThresholdRadius:
    LAM = 0.3

    def test_split_mass_at_unit_distance(self):
        half = self.LAM**2 / 2.0
        m = EnergyMeasure(((1, half), (-1, half)))
        assert threshold_radius(m, 0, self.LAM) == 1.0

    def test_single_atom_gives_zero(self):
        m = EnergyMeasure(((0.3 + 0.4j, self.LAM**2),))
        assert threshold_radius(m, 0.3 + 0.4j, self.LAM) == 0.0

    def test_lipschitz_on_random_pairs(self):
        rng = random.Random(20260814)
        atoms = tuple(
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.01, 0.3))
            for _ in range(12)
        )
        m = EnergyMeasure(atoms)
        lam = math.sqrt(m.total_mass / 3.0)
        for _ in range(1000):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            rx = threshold_radius(m, x, lam)
            ry = threshold_radius(m, y, lam)
            assert abs(rx - ry) <= abs(x - y) + 1e-12

    def test_insufficient_mass_rejected(self):
        m = EnergyMeasure(((0, 0.5 * self.LAM**2),))
        with pytest.raises(InputError, match="constant"):
            threshold_radius(m, 0, self.LAM)

    def test_lambda_must_be_positive(self):
        m = EnergyMeasure(((0, 1.0),))
        with pytest.raises(InputError, match="positive"):
            threshold_radius(m, 0, 0.0)


def profile_coverage_holds(profile, eps, lam, cfg):
    """Re-derive every postcondition of the selection from scratch."""
    cut = lam / (eps * eps)
    hot = {z for z, g in profile.candidates if g >= cut}
    seeds = set(profile.seeds)
    quarter = eps * eps / 4.0
    r = {z: threshold_radius(profile.measure, z, lam) for z in hot}
    for z in cfg.points:
        if z in seeds:
            assert cfg.radius[z] == 0.0
        else:
            assert z in hot
            assert cfg.radius[z] == r[z]
    for z in hot:
        assert any(
            (cfg.radius[x] <= r[z] and quarter * abs(z - x) < r[z] + cfg.radius[x])
            or (x == z and r[z] == 0.0)
            for x in cfg.points
        ), f"candidate {z} uncovered"
    added = [z for z in cfg.points if z not in seeds]
    bound = len(seeds) + math.floor(profile.measure.total_mass / (lam * lam))
    assert len(cfg.points) <= bound
    for x, y in combinations(added, 2):
        assert abs(x - y) >= cfg.radius[x] + cfg.radius[y]


class TestSelectBubblePoints:
    LAM = 0.3

    def test_no_hot_candidates_keeps_seeds(self):
        m = EnergyMeasure(((0, 1.0),))
        profile = ConcentrationProfile(m, ((0.05, 0.0),), (0, 0.1))
        cfg = select_bubble_points(profile, EPS, self.LAM)
        assert cfg.points == (0j, 0.1 + 0j)
        assert all(r == 0.0 for r in cfg.radius.values())

    def test_single_mass_cluster_gives_one_point(self):
        c = 0.02 + 0.01j
        m = EnergyMeasure(((c, 2 * self.LAM**2),))
        profile = ConcentrationProfile(m, ((c, 100.0),), ())
        cfg = select_bubble_points(profile, EPS, self.LAM)
        assert cfg.points == (c,)
        assert cfg.radius[c] == 0.0

    def test_strong_candidate_outside_disc_rejected(self):
        m = EnergyMeasure(((0, 1.0),))
        profile = ConcentrationProfile(m, ((0.5, 100.0),), ())
        with pytest.raises(InputError, match="outside"):
            select_bubble_points(profile, EPS, self.LAM)

    def test_random_profiles_satisfy_all_postconditions(self):
        rng = random.Random(7121)
        cut = self.LAM / (EPS * EPS)
        for _ in range(100):
            atoms = [(0j, 1.2 * self.LAM**2)]
            for _ in range(rng.randrange(1, 6)):
                pos = 0.9 * EPS * rng.uniform(0, 1) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
                atoms.append((pos, self.LAM**2 * 10 ** rng.uniform(-1.2, 0.8)))
            candidates = []
            for pos, _ in atoms:
                jitter = pos + 0.05 * EPS * rng.uniform(0, 1) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
                if abs(jitter) > EPS:
                    jitter = pos
                candidates.append((jitter, cut * 10 ** rng.uniform(-0.5, 0.5)))
            seeds = []
            for _ in range(rng.randrange(0, 3)):
                s = 0.8 * EPS * rng.uniform(0, 1) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
                if all(abs(s - t) > 1e-6 for t in seeds):
                    seeds.append(s)
            profile = ConcentrationProfile(
                EnergyMeasure(tuple(atoms)), tuple(candidates), tuple(seeds)
            )
            cfg = select_bubble_points(profile, EPS, self.LAM)
            profile_coverage_holds(profile, EPS, self.LAM, cfg)


class TestRenormalize:
    def test_standard_input_is_fixed(self):
        cfg = flat((0, EPS))
        out, kappa, x_star = renormalize(cfg, EPS)
        assert kappa == 1.0
        assert x_star == 0
        assert out.points == cfg.points

    def test_double_width_pair(self):
        out, kappa, x_star = renormalize(flat((0, 2 * EPS)), EPS)
        assert kappa == 2.0
        assert x_star == 0
        assert out.points == (0j, EPS + 0j)

    def test_random_inputs_become_standard(self):
        rng = random.Random(515)
        for _ in range(100):
            cfg = random_type_eps(rng, EPS, rng.randrange(2, 9))
            out, kappa, x_star = renormalize(cfg, EPS)
            assert is_standard(out, EPS)
            assert 0.0 < kappa <= 2.0 + 1e-12
            assert x_star in cfg.points
            # radii divide by kappa, matched through the translation
            for z in cfg.points:
                assert out.radius[(z - x_star) / kappa] == pytest.approx(
                    cfg.radius[z] / kappa, rel=1e-12, abs=1e-300
                )

    def test_idempotent_after_one_application(self):
        rng = random.Random(516)
        for _ in range(50):
            cfg = random_type_eps(rng, EPS, rng.randrange(2, 8))
            once, _, _ = renormalize(cfg, EPS)
            twice, kappa, x_star = renormalize(once, EPS)
            assert x_star == 0
            assert kappa == pytest.approx(1.0, rel=1e-12)
            for a, b in zip(once.points, twice.points):
                assert abs(a - b) <= 1e-12

    def test_single_point_rejected(self):
        with pytest.raises(InputError, match="two"):
            renormalize(flat((0,)), EPS)

    def test_weak_separation_detected(self):
        cfg = flat((0, EPS), radius=EPS)
        with pytest.raises(VerificationError, match="standard"):
            renormalize(cfg, EPS)


class TestClusterSelect:
    def test_single_point_space(self):
        space = FiniteMetricSpace.from_points([0j], lambda u, v: abs(u - v))
        net, retraction = cluster_select(space, lambda i: 0.5**i, 0)
        assert net == (0,)
        assert retraction == {0: 0}

    def test_two_distant_points_both_selected(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0], lambda u, v: abs(u - v))
        net, retraction = cluster_select(space, lambda i: 0.4 * 0.5**i, 0)
        assert net == (0, 1)
        assert retraction == {0: 0, 1: 1}

    def test_random_spaces_satisfy_net_properties(self):
        rng = random.Random(929)
        for _ in range(200):
            n = rng.randrange(1, 31)
            pts = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)
            ]
            space = FiniteMetricSpace.from_points(pts, lambda u, v: abs(u - v))
            a0 = 10 ** rng.uniform(-2.0, 0.5)
            ratio = rng.uniform(0.1, 0.5)
            s = rng.randrange(n)
            net, retraction = cluster_select(space, lambda i: a0 * ratio**i, s)
            k = len(net)
            assert s in net
            for x, y in combinations(net, 2):
                assert space.distance(x, y) > a0 * ratio ** (k - 1)
            for x in range(n):
                assert retraction[x] in net
                assert space.distance(x, retraction[x]) <= a0 * ratio**k
            for y in net:
                assert retraction[y] == y

    @pytest.mark.parametrize("space, start", traversal_cases())
    def test_matches_reference_traversal(self, space, start):
        order = farthest_first_reference(space, start)
        for a0, ratio in ((2.0, 0.5), (1.0, 0.5), (0.9, 0.3), (5.0, 0.25)):
            a = lambda i: a0 * ratio**i
            k = 0
            while k < len(order) and order[k][1] > a(k):
                k += 1
            net, retraction = cluster_select(space, a, start)
            assert net == tuple(sorted(j for j, _ in order[:k]))
            assert retraction == {
                x: min(net, key=lambda y: space.distance(x, y))
                for x in range(space.n)
            }

    def test_slowly_decaying_sequence_rejected(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0], lambda u, v: abs(u - v))
        with pytest.raises(InputError, match="halve"):
            cluster_select(space, lambda i: 0.7**i, 0)

    def test_base_index_out_of_range(self):
        space = FiniteMetricSpace.from_points([0.0], lambda u, v: abs(u - v))
        with pytest.raises(InputError, match="range"):
            cluster_select(space, lambda i: 0.5**i, 3)


class TestReduce:
    def test_two_point_example(self):
        centers, retraction, rho_p, k = reduce(flat((0, EPS)), EPS)
        assert k == 2
        assert centers == (0j, EPS + 0j)
        assert rho_p == {0j: 1.0 / 1024.0, EPS + 0j: 1.0 / 1024.0}
        assert retraction == {0j: 0j, EPS + 0j: EPS + 0j}

    def test_nonstandard_input_rejected(self):
        with pytest.raises(InputError, match="standard"):
            reduce(flat((0, EPS / 2)), EPS)

    def test_random_standard_configurations(self):
        rng = random.Random(14001)
        base = 4.0 * EPS**3
        for _ in range(200):
            cfg = random_standard(rng, EPS, rng.randrange(2, 10))
            centers, retraction, rho_p, k = reduce(cfg, EPS)
            assert k >= 2
            assert k == len(centers)
            cutoff = base**k / (4.0 * EPS * EPS)
            for x in centers:
                assert rho_p[x] == max(cutoff, cfg.radius[x] / (4.0 * EPS))
            for x, y in combinations(centers, 2):
                assert rho_p[x] + rho_p[y] <= 2.0 * EPS * abs(x - y) * (1 + 1e-12)
            for z in cfg.points:
                x = retraction[z]
                assert x in rho_p
                assert abs(z - x) <= 4.0 * EPS * EPS * rho_p[x] * (1 + 1e-12)
                assert cfg.radius[z] <= 4.0 * EPS * rho_p[x] * (1 + 1e-12)
                if z != x:
                    assert rho_p[x] == cutoff

    def test_nearest_point_stays_in_cluster(self):
        rng = random.Random(14002)
        for _ in range(40):
            cfg = random_standard(rng, EPS, rng.randrange(3, 10))
            centers, retraction, rho_p, _ = reduce(cfg, EPS)
            for x in centers:
                cluster = [z for z in cfg.points if retraction[z] == x]
                probes = [x] + [
                    x + t * rho_p[x] * cmath.exp(2j * math.pi * j / 8)
                    for t in (0.35, 0.95)
                    for j in range(8)
                ]
                for w in probes:
                    overall = min(abs(w - u) for u in cfg.points)
                    within = min(abs(w - u) for u in cluster)
                    assert overall == within

    def test_metric_is_exact_point_distance(self, monkeypatch):
        seen = []

        def spy(space, a, s):
            seen.append(space)
            return cluster_select(space, a, s)

        monkeypatch.setattr(bubbles, "cluster_select", spy)
        cfg = flat_standard(random.Random(150), EPS, 150)
        reduce(cfg, EPS)
        (space,) = seen
        exact = [[abs(u - v) for v in cfg.points] for u in cfg.points]
        assert np.array_equal(space.dist, np.array(exact))
        assert space.labels == cfg.points


class TestReduceAt:
    def test_two_point_cluster_example(self):
        d = 1e-5
        cfg = flat((0, d, EPS))
        sub, gamma, phi = reduce_at(cfg, EPS, 0)
        assert gamma == pytest.approx(0.08192, rel=1e-12)
        assert phi.offset == 0
        assert phi.scale == pytest.approx(d / EPS, rel=1e-12)
        assert sub.points[0] == 0
        assert abs(sub.points[1] - EPS) <= 1e-12
        assert is_standard(sub, EPS)

    def test_affine_map_round_trip(self):
        phi = AffineMap(0.3 + 0.1j, 0.02)
        w = 0.5 - 0.25j
        assert phi.invert(phi(w)) == pytest.approx(w, rel=1e-15)

    def test_exterior_center_rejected(self):
        cfg = flat((0, 1e-5, EPS))
        with pytest.raises(InputError, match="single point"):
            reduce_at(cfg, EPS, EPS)

    def test_unknown_center_rejected(self):
        with pytest.raises(InputError, match="center"):
            reduce_at(flat((0, EPS)), EPS, 0.33)

    def test_interior_reductions_are_standard(self):
        rng = random.Random(801)
        seen = 0
        for _ in range(200):
            cfg = random_standard(rng, EPS, rng.randrange(3, 10))
            centers, retraction, rho_p, _ = reduce(cfg, EPS)
            for x in centers:
                cluster = [z for z in cfg.points if retraction[z] == x]
                if len(cluster) < 2:
                    continue
                seen += 1
                sub, gamma, phi = reduce_at(cfg, EPS, x)
                assert 0.0 < gamma <= 4.0 * EPS * (1 + 1e-12)
                assert 0 in sub.points
                assert max(abs(z) for z in sub.points) == pytest.approx(
                    EPS, rel=1e-12
                )
                assert is_standard(sub, EPS)
                assert len(sub.points) == len(cluster)
                for w in sub.points:
                    assert any(abs(phi(w) - z) <= 1e-15 for z in cluster)
        assert seen >= 20


class TestAssociateTree:
    def test_base_case_example(self):
        assoc = associate_tree(flat((0, EPS)), EPS)
        tree = assoc.tree
        assert tree.vertices == (1,)
        assert tree.edges == (0, 1, 2)
        assert tree.root_edge == 0
        assert assoc.root_vertex == 1
        assert assoc.point.gamma == {}
        assert assoc.point.zr == {
            (1, 1): (0j, complex(1.0 / 1024.0)),
            (1, 2): (EPS + 0j, complex(1.0 / 1024.0)),
        }
        assert assoc.edge_to_bubble == {1: 0j, 2: EPS + 0j}

    def test_two_level_example(self):
        d = 1e-5
        assoc = associate_tree(flat((0, d, EPS)), EPS)
        tree = assoc.tree
        assert tree.vertices == (1, 2)
        assert tree.full_edges == (1,)
        assert assoc.point.gamma[1] == pytest.approx(0.08192, rel=1e-12)
        # root vertex keeps the cluster center and the far point
        assert assoc.point.zr[(1, 1)][0] == 0j
        assert assoc.point.zr[(1, 4)][0] == EPS + 0j
        # child vertex sees the rescaled cluster {0, eps}
        assert assoc.point.zr[(2, 2)][0] == 0j
        assert abs(assoc.point.zr[(2, 3)][0] - EPS) <= 1e-12
        assert assoc.edge_to_bubble == {2: 0j, 3: d + 0j, 4: EPS + 0j}

    def test_three_level_nesting(self):
        d1 = 1e-5
        d2 = d1 * 1.0001
        cfg = flat((0, d1, d2, EPS))
        assoc = associate_tree(cfg, EPS)
        depths = assoc.tree.depth
        assert max(depths.values()) == 2
        assert len(assoc.tree.vertices) == 3
        report = verify_association(cfg, assoc, EPS)
        assert report.ok, report.summary()

    def test_trees_are_stable(self):
        rng = random.Random(333)
        for _ in range(60):
            cfg = random_standard(rng, EPS, rng.randrange(2, 11))
            assoc = associate_tree(cfg, EPS)
            assert assoc.tree.is_stable()
            assert assoc.root_vertex == assoc.tree.root_vertex == 1

    def test_one_reduction_per_vertex(self, monkeypatch):
        calls = []

        def counted(cfg, eps):
            calls.append(cfg)
            return reduce(cfg, eps)

        monkeypatch.setattr(bubbles, "reduce", counted)
        rng = random.Random(2104)
        nested = 0
        for _ in range(30):
            cfg = random_standard(rng, EPS, rng.randrange(4, 16))
            calls.clear()
            assoc = associate_tree(cfg, EPS)
            assert len(calls) == len(assoc.tree.vertices)
            nested += len(assoc.tree.vertices) > 1
        assert nested >= 10

    def test_one_standardness_check_per_vertex(self, monkeypatch):
        checked = []

        def counted(cfg, eps):
            checked.append(cfg)
            return is_type_eps(cfg, eps)

        monkeypatch.setattr(bubbles, "is_type_eps", counted)
        rng = random.Random(2105)
        for _ in range(20):
            cfg = random_standard(rng, EPS, rng.randrange(4, 16))
            cfg = BubbleConfiguration(cfg.points, cfg.radius)  # nothing kept
            checked.clear()
            assoc = associate_tree(cfg, EPS)
            assert len(checked) == len(assoc.tree.vertices)

    @pytest.mark.parametrize("size", [128, 150])
    def test_wide_flat_configurations(self, size):
        cfg = flat_standard(random.Random(size), EPS, size)
        assoc = associate_tree(cfg, EPS)
        assert assoc.tree.vertices == (1,)
        assert set(assoc.edge_to_bubble.values()) == set(cfg.points)
        report = verify_association(cfg, assoc, EPS)
        assert report.ok, report.summary()

    def test_nested_draw_reaches_a_wide_level(self):
        cfg = random_standard(random.Random(154), EPS, 150)
        assoc = associate_tree(cfg, EPS)
        tree = assoc.tree
        assert max(len(tree.child_edges(v)) for v in tree.vertices) > 100
        report = verify_association(cfg, assoc, EPS)
        assert report.ok, report.summary()

    def test_nonstandard_input_rejected(self):
        with pytest.raises(InputError, match="standard"):
            associate_tree(flat((0, EPS / 3)), EPS)


class TestVerifyAssociation:
    def test_base_case_passes(self):
        cfg = flat((0, EPS))
        report = verify_association(cfg, associate_tree(cfg, EPS), EPS)
        assert report.ok
        assert report.membership.ok
        assert report.position_errors == ()
        assert report.gamma_errors == ()
        assert report.summary() == "association verified"

    def test_association_params_scales(self):
        assoc = associate_tree(flat((0, EPS)), EPS)
        params = association_params(assoc.tree, EPS)
        assert params.theta == EPS
        assert params.tau == 0.5
        assert params.alpha == {1: (4.0 * EPS**3) ** 3}

    def test_perturbed_position_detected(self):
        cfg = flat((0, EPS))
        assoc = associate_tree(cfg, EPS)
        zr = dict(assoc.point.zr)
        z, r = zr[(1, 1)]
        zr[(1, 1)] = (z + 0.01, r)
        bad = type(assoc)(
            assoc.tree,
            ModuliPoint(assoc.tree, assoc.point.gamma, zr),
            assoc.root_vertex,
            assoc.edge_to_bubble,
        )
        report = verify_association(cfg, bad, EPS)
        assert not report.ok
        assert report.position_errors

    def test_zero_gamma_detected(self):
        cfg = flat((0, 1e-5, EPS))
        assoc = associate_tree(cfg, EPS)
        gamma = dict(assoc.point.gamma)
        gamma[1] = 0j
        bad = type(assoc)(
            assoc.tree,
            ModuliPoint(assoc.tree, gamma, assoc.point.zr),
            assoc.root_vertex,
            assoc.edge_to_bubble,
        )
        report = verify_association(cfg, bad, EPS)
        assert not report.ok
        assert report.gamma_errors == ("gamma[1] = 0",)

    def test_random_standard_configurations_verify(self):
        rng = random.Random(60422)
        for _ in range(200):
            size = rng.randrange(2, 13)
            cfg = random_standard(rng, EPS, size)
            assoc = associate_tree(cfg, EPS)
            report = verify_association(cfg, assoc, EPS)
            assert report.ok, report.summary()

    def test_edge_to_bubble_is_exact_bijection(self):
        rng = random.Random(60423)
        for _ in range(40):
            cfg = random_standard(rng, EPS, rng.randrange(2, 11))
            assoc = associate_tree(cfg, EPS)
            external = [
                e
                for e in assoc.tree.half_edges
                if e != assoc.tree.root_edge
            ]
            assert sorted(assoc.edge_to_bubble) == sorted(external)
            assert sorted(assoc.edge_to_bubble.values(), key=lambda z: (z.real, z.imag)) == list(cfg.points)

    def test_smaller_eps_also_works(self):
        rng = random.Random(60424)
        eps = 1.0 / 64.0
        for _ in range(20):
            cfg = random_standard(rng, eps, rng.randrange(2, 8))
            assoc = associate_tree(cfg, eps)
            report = verify_association(cfg, assoc, eps)
            assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# the array checks against the scalar loops they replace
# ---------------------------------------------------------------------------


def boundary_variants(rng, cfg, eps):
    """cfg with one inequality of is_type_eps moved onto its closed boundary:
    a point at modulus eps, a radius at 4 eps, or a pair's radius sum at
    (eps^2/4)|x - y|, each at equality, at the slack's edge and a few ulps
    either side."""
    pts = list(cfg.points)
    out = []
    for v in slack_edges(eps):
        moved = [v + 0j if z == pts[-1] else z for z in pts]
        if len(set(moved)) == len(moved):
            radius = {m: cfg.radius[z] for m, z in zip(moved, pts)}
            out.append(BubbleConfiguration(tuple(moved), radius))
    z = rng.choice(pts)
    for v in slack_edges(4.0 * eps):
        out.append(BubbleConfiguration(tuple(pts), {**cfg.radius, z: v}))
    if len(pts) >= 2:
        x, y = rng.sample(pts, 2)
        for v in slack_edges(eps * eps / 4.0 * abs(x - y)):
            out.append(BubbleConfiguration(tuple(pts), {**cfg.radius, x: 0.0, y: v}))
    return out


class TestArrayChecksMatchScalarLoops:
    def test_type_and_standard_verdicts(self):
        rng = random.Random(9001)
        seen = {True: 0, False: 0}
        for _ in range(60):
            size = rng.randrange(2, 24)
            base = (random_standard if rng.random() < 0.5 else random_type_eps)(
                rng, EPS, size
            )
            for cfg in [base] + boundary_variants(rng, base, EPS):
                verdict = is_type_eps(cfg, EPS)
                assert verdict == is_type_eps_reference(cfg, EPS)
                assert is_standard(cfg, EPS) == is_standard_reference(cfg, EPS)
                seen[verdict] += 1
        assert min(seen.values()) > 100

    def test_standard_verdict_is_kept_per_eps(self):
        cfg = flat((0, EPS))
        assert is_standard(cfg, EPS)
        assert not is_standard(cfg, EPS / 2)
        assert is_standard(cfg, EPS)

    def test_renormalize_base_point(self):
        rng = random.Random(9002)
        square = [0j, EPS + 0j, -EPS + 0j, EPS * 1j, -EPS * 1j]
        cases = [flat(square), flat([z + 0.25 * EPS for z in square])]
        cases += [random_type_eps(rng, EPS, rng.randrange(2, 12)) for _ in range(60)]
        cases += [random_standard(rng, EPS, rng.randrange(2, 12)) for _ in range(30)]
        for cfg in cases:
            _, kappa, x_star = renormalize(cfg, EPS)
            ref_kappa, ref_x = renormalize_base_reference(cfg, EPS)
            assert (kappa, x_star) == (ref_kappa, ref_x)

    def test_reduce_checks_name_the_same_offender(self, monkeypatch):
        """reduce with cluster_select's selection held fixed and the radii
        (and sometimes one retraction) redrawn, so that every check can
        fail: the verdict and message match the loops'."""
        rng = random.Random(9003)
        outcomes = {}
        selection = {}
        monkeypatch.setattr(bubbles, "cluster_select", lambda *args: selection["sel"])
        # the redrawn radii break standardness; the checks under test follow it
        monkeypatch.setattr(bubbles, "is_standard", lambda cfg, eps: True)
        for _ in range(400):
            cfg = random_standard(rng, EPS, rng.randrange(3, 14))
            space = FiniteMetricSpace.from_points(cfg.points, lambda u, v: abs(u - v))
            base = lambda i: (4.0 * EPS**3) ** i
            sel, r_idx = cluster_select(space, base, cfg.points.index(0))
            if rng.random() < 0.3:
                r_idx[rng.randrange(cfg.size)] = rng.choice(sel)
            selection["sel"] = (sel, r_idx)
            k = len(sel)
            cutoff = (4.0 * EPS**3) ** k / (4.0 * EPS * EPS)
            radius = dict(cfg.radius)
            for z in rng.sample(cfg.points, rng.randrange(1, 3)):
                x = cfg.points[r_idx[cfg.points.index(z)]]
                kind = rng.randrange(4)
                if kind == 0:  # a large radius anywhere
                    radius[z] = cutoff * 10 ** rng.uniform(-1.0, 6.0)
                elif kind == 1:  # a satellite's radius at its budget
                    radius[z] = rng.choice(slack_edges(4.0 * EPS * cutoff))
                elif kind == 2 and z != x:  # a center's radius past the cutoff
                    grow = rng.choice((0.0, 1e-13, 1e-3))
                    radius[x] = 4.0 * EPS * cutoff * (1.0 + grow)
                else:  # a center pair at the separation bound
                    y = cfg.points[rng.choice(sel)]
                    if y != x:
                        gap = 2.0 * EPS * abs(x - y) - cutoff
                        radius[x] = 4.0 * EPS * rng.choice(slack_edges(max(gap, 0.0)))
            if k < 2:
                continue
            cfg = BubbleConfiguration(cfg.points, radius)
            expected = reduce_checks_reference(cfg, EPS, sel, r_idx)
            try:
                reduce(cfg, EPS)
                message = None
            except VerificationError as exc:
                message = str(exc)
            assert message == expected
            last_word = None if message is None else message.split()[-1]
            outcomes[last_word] = outcomes.get(last_word, 0) + 1
        # pass, separation, cluster disc, radius budget and cutoff all occur
        assert set(outcomes) == {None, "bound", "disc", "budget", "radius"}, outcomes

    def test_verify_association_position_ties(self):
        """Chart positions on the perpendicular bisector of two bubble points,
        on a bubble point twice, or off every point: the nearest-point scan
        breaks ties to the first point in order like min over a list."""
        pts = [0j, 0.1 + 0.05j, 0.1 - 0.05j, 0.05 + 1e-10j, 0.05 - 1e-10j, 0.125 + 0j]
        cfg = flat(pts)
        tree = star_tree(len(pts))
        rng = random.Random(9004)
        kinds = [
            lambda: 0.1 + 0j,  # equidistant from 0.1 +- 0.05i, beyond tolerance
            lambda: 0.05 + 0j,  # equidistant from 0.05 +- 1e-10i, within it
            lambda: rng.choice(cfg.points),
            lambda: rng.choice(cfg.points) + 1e-7,
            lambda: rng.choice(cfg.points) + 1e-10j,
        ]
        for _ in range(200):
            positions = [rng.choice(kinds)() for _ in pts]
            zr = {(1, e): (positions[e - 1], 0.001) for e in range(1, len(pts) + 1)}
            point = ModuliPoint(tree, {}, zr)
            mapped = {e: rng.choice(cfg.points) for e in range(1, len(pts) + 1)}
            assoc = TreeAssociation(tree, point, 1, mapped)
            report = verify_association(cfg, assoc, EPS)
            assert report.position_errors == position_errors_reference(cfg, assoc)
            params = association_params(tree, EPS)
            assert report.membership == in_compact_subset_reference(point, params)
