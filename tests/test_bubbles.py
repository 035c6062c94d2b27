"""Bubble configurations: predicates, selection, reduction, association."""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import pytest

from bubbletree import bubbles, jsonio, pipeline
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
from bubbletree.curves import ModuliPoint, in_compact_subset
from bubbletree.errors import InputError, VerificationError
from bubbletree.nets import FiniteMetricSpace
from bubbletree.trees import positive_path
from helpers import (
    assert_tree_facts,
    farthest_first_reference,
    flat_standard,
    in_compact_subset_reference,
    is_standard_reference,
    is_type_eps_reference,
    position_errors_reference,
    random_standard,
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

    def test_pairwise_radius_bound_holds_at_small_scales(self):
        # rho(0) + rho(1e-12) = 2e-13 against (eps^2/4) 1e-12 = 3.9e-15: an
        # absolute slack of 1e-12 would hide the violation at this scale
        pts = (0j, 1e-12 + 0j, EPS + 0j)
        cfg = BubbleConfiguration(pts, {0j: 1e-13, 1e-12 + 0j: 1e-13, EPS + 0j: 0.0})
        assert not is_type_eps(cfg, EPS)
        assert not is_standard(cfg, EPS)

    def test_standard_needs_origin(self):
        cfg = flat((EPS / 2, EPS))
        assert is_type_eps(cfg, EPS)
        assert not is_standard(cfg, EPS)

    def test_eps_range_enforced(self):
        with pytest.raises(InputError, match="eps"):
            is_type_eps(flat((0,)), 0.2)


# two atoms whose rounded total is 1.0 while the exact one is 1 - 2^-54
TWO_ATOMS_SHORT_BY_ROUNDING = ((0j, 0.5), (0.01 + 0j, math.nextafter(0.5, 0.0)))
SHORT_BY_ROUNDING = (
    r"^total mass 1\.0 is below lambda\^2 = 1\.0 by 5\.55e-17: no threshold "
    r"radius exists \(constant-map case\)$"
)


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

    def test_mass_short_only_in_exact_arithmetic_rejected(self):
        # a rounded running sum reaches 1.0 at the second atom and would
        # return the radius 0.01
        m = EnergyMeasure(TWO_ATOMS_SHORT_BY_ROUNDING)
        assert m.total_mass == 1.0
        with pytest.raises(InputError, match=SHORT_BY_ROUNDING):
            threshold_radius(m, 0, 1.0)

    def test_lambda_must_be_positive(self):
        m = EnergyMeasure(((0, 1.0),))
        with pytest.raises(InputError, match="positive"):
            threshold_radius(m, 0, 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_lambda_must_be_finite(self, lam):
        # a NaN lambda^2 compares false against every mass, an infinite one
        # exceeds it, and neither may yield a radius
        m = EnergyMeasure(((0, 1.0), (0.1, 1.0)))
        message = f"lambda must be positive and finite, got {lam}"
        with pytest.raises(InputError, match=message):
            threshold_radius(m, 0, lam)


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
    mass = sum(Fraction(m) for _, m in profile.measure.atoms)
    bound = len(seeds) + math.floor(mass / Fraction(lam * lam))
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

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_lambda_must_be_finite(self, lam):
        # the gradient cut lambda / eps^2 is NaN or inf, so no candidate is
        # hot and the seeds alone would come back
        m = EnergyMeasure(((0, 1.0),))
        profile = ConcentrationProfile(m, ((0.05, 100.0),), (0, 0.1))
        message = f"lambda must be positive and finite, got {lam}"
        with pytest.raises(InputError, match=message):
            select_bubble_points(profile, EPS, lam)

    def test_strong_candidate_outside_disc_rejected(self):
        m = EnergyMeasure(((0, 1.0),))
        profile = ConcentrationProfile(m, ((0.5, 100.0),), ())
        with pytest.raises(InputError, match="outside"):
            select_bubble_points(profile, EPS, self.LAM)

    def test_mass_bound_is_floored_in_exact_arithmetic(self):
        # lam * lam rounds above lam^2; the rounded total of three atoms of
        # that mass over it reads 2.9999999999999996, while the exact
        # bound is 3
        lam = 0.0074938602910670435
        atoms = tuple((0.1 * cmath.exp(2j * math.pi * j / 3), lam * lam) for j in range(3))
        hot = tuple((z, 2 * lam / EPS**2) for z, _ in atoms)
        cfg = select_bubble_points(ConcentrationProfile(EnergyMeasure(atoms), hot, ()), EPS, lam)
        assert set(cfg.points) == {z for z, _ in atoms}

    def test_mass_short_only_in_exact_arithmetic_is_the_constant_map(self):
        # the two atoms' rounded sum is lambda^2 = 1 while their exact sum
        # is 1 - 2^-54, so no ball holds mass lambda^2
        profile = ConcentrationProfile(
            EnergyMeasure(TWO_ATOMS_SHORT_BY_ROUNDING), ((0j, 1.0 / EPS**2),), ()
        )
        with pytest.raises(InputError, match=SHORT_BY_ROUNDING):
            select_bubble_points(profile, EPS, 1.0)

    def test_candidates_separated_only_at_half_eps_squared_give_one_pick(self):
        # threshold radii of about 3e-4 each, 0.1 apart: (eps^2/4) 0.1 =
        # 3.9e-4 is below their sum 6e-4, so the first pick covers the
        # other; at eps^2/2, 7.8e-4, the two would count as separated
        atoms = ((3e-4, self.LAM**2), (0.1003, self.LAM**2))
        hot = ((0.0, 100.0), (0.1, 100.0))
        cfg = select_bubble_points(ConcentrationProfile(EnergyMeasure(atoms), hot, ()), EPS, self.LAM)
        ((z, r),) = cfg.radius.items()
        assert cfg.points == (z,) and r == pytest.approx(3e-4)
        assert EPS**2 / 4 * 0.1 < 2 * r <= EPS**2 / 2 * 0.1

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
                assert space.dist[x, y] > a0 * ratio ** (k - 1)
            for x in range(n):
                assert retraction[x] in net
                assert space.dist[x, retraction[x]] <= a0 * ratio**k
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
                x: min(net, key=lambda y: space.dist[x, y])
                for x in range(space.n)
            }

    def test_slowly_decaying_sequence_rejected(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0], lambda u, v: abs(u - v))
        with pytest.raises(InputError, match="halve"):
            cluster_select(space, lambda i: 0.7**i, 0)

    @staticmethod
    def _ladder_space():
        # two centres 1 apart, eight satellites within 1e-3 of the first:
        # a selection at a(i) = 0.4 / 2^i reads a(0), a(1), a(2) only
        pts = [0.0, 1.0] + [1e-4 * (j + 1) for j in range(8)]
        return FiniteMetricSpace.from_points(pts, lambda u, v: abs(u - v))

    @pytest.mark.parametrize("tail", [0.0, math.nan, math.inf, 0.3])
    def test_unread_rungs_are_not_checked(self, tail):
        # an a(i) past the last rung read may underflow or be anything else:
        # (4 eps^3)^154 = 0.0 must not reject a selection that stops at a(2)
        a = lambda i: 0.4 * 0.5**i if i <= 2 else tail
        net, retraction = cluster_select(self._ladder_space(), a, 0)
        assert net == (0, 1)
        assert retraction == {x: 1 if x == 1 else 0 for x in range(10)}

    @pytest.mark.parametrize(
        "rungs, message",
        [
            ({0: -1.0}, "a(0) = -1.0 must be positive and finite"),
            ({0: math.inf}, "a(0) = inf must be positive and finite"),
            # a(1) = inf fails both checks; the halving check at i = 0 comes first
            ({1: math.inf}, "a(1) exceeds a(0)/2; sequence must halve"),
            ({2: math.nan}, "a(2) = nan must be positive and finite"),
            ({2: 0.0}, "a(2) = 0.0 must be positive and finite"),
            ({2: 0.15}, "a(2) exceeds a(1)/2; sequence must halve"),
        ],
    )
    def test_read_rungs_are_checked_in_order(self, rungs, message):
        a = lambda i: rungs.get(i, 0.4 * 0.5**i)
        with pytest.raises(InputError) as info:
            cluster_select(self._ladder_space(), a, 0)
        assert str(info.value) == message

    def test_base_index_out_of_range(self):
        space = FiniteMetricSpace.from_points([0.0], lambda u, v: abs(u - v))
        with pytest.raises(InputError, match="range"):
            cluster_select(space, lambda i: 0.5**i, 3)

    def test_ambiguous_retraction_inside_the_triangle_tolerance(self):
        # d(0, 1) exceeds d(0, 2) + d(2, 1) by 5e-11, inside the 1e-9
        # tolerance, so point 2 lies within a(2) of both net points
        space = FiniteMetricSpace(
            [[0, 2.5e-10, 1e-10], [2.5e-10, 0, 1e-10], [1e-10, 1e-10, 0]]
        )
        with pytest.raises(VerificationError) as info:
            cluster_select(space, lambda i: 4e-10 * 2.0**-i, 0)
        assert str(info.value) == (
            "ambiguous retraction: net points [0, 1] all within a(2) of point 2"
        )

    def test_halving_is_exact_from_a_subnormal_to_a_fraction_rung(self):
        # a(1) = 5e-324 = 2^-1074, where 0.5 * a(1) rounds to 0.0; the
        # exact rung 2^-1075 is half of it, 1.5 * 2^-1075 is more than half
        space = FiniteMetricSpace.from_points([0.0, 1.0], lambda u, v: abs(u - v))
        a = lambda i: (0.4, 5e-324, Fraction(1, 2**1075))[i]
        assert cluster_select(space, a, 0) == ((0, 1), {0: 0, 1: 1})
        a = lambda i: (0.4, 5e-324, Fraction(3, 2**1076))[i]
        with pytest.raises(InputError) as info:
            cluster_select(space, a, 0)
        assert str(info.value) == "a(2) exceeds a(1)/2; sequence must halve"

    def test_retraction_reads_the_largest_double_not_above_a_fraction_rung(self):
        # a(2) = 0.75 * 2^-1074 rounds up to 5e-324, which would put point 2
        # within a(2) of both net points; no double lies in (0, a(2)]
        space = FiniteMetricSpace([[0, 1e-10, 0], [1e-10, 0, 5e-324], [0, 5e-324, 0]])
        a = lambda i: (1.0, 1e-11, Fraction(3, 2**1076))[i]
        assert float(a(2)) == 5e-324
        assert cluster_select(space, a, 0) == ((0, 1), {0: 0, 1: 1, 2: 0})


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

    def test_subnormal_rung_keeps_a_standard_configuration(self):
        # the satellite sits 1 ulp above the subnormal rung a(78) at eps =
        # 0.03; the rounded cutoff a(79) / (4 eps^2) exceeds eps |p| by
        # 2.8e-11 relative, beyond the slack of the 2 eps separation of 0
        # and p, which the membership check reads at tau = 4 eps
        eps = 0.03
        p = complex(math.nextafter((4.0 * eps**3) ** 78, 1.0))
        ring = [eps * cmath.exp(2j * math.pi * (j + 0.5) / 77) for j in range(77)]
        cfg = flat([0j, p] + ring)
        assert is_standard(cfg, eps)
        _, _, rho_p, _ = reduce(cfg, eps)
        assert rho_p[0j] + rho_p[p] > 2.0 * eps * abs(p) * (1 + 1e-12)
        assoc = associate_tree(cfg, eps)
        assert assoc.tree.vertices == (1,)
        report = verify_association(cfg, assoc, eps)
        assert report.summary() == "association verified"

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

    def test_certified_space_equals_the_checked_construction(self, monkeypatch):
        seen = []

        def spy(space, a, s):
            seen.append(space)
            return cluster_select(space, a, s)

        monkeypatch.setattr(bubbles, "cluster_select", spy)
        rng = random.Random(2002)
        cfgs = [flat_standard(rng, EPS, n) for n in (32, 64, 100, 128, 150)]
        cfgs += [random_standard(random.Random(1), EPS, 154)]
        cfgs += [random_standard(random.Random(200), EPS, 200)]
        for cfg in cfgs:
            reduce(cfg, EPS)
            space = seen.pop()
            checked = FiniteMetricSpace(cfg._arrays[2], labels=cfg.points)
            assert space.dist.tobytes() == checked.dist.tobytes()
            assert space.labels == checked.labels
            assert not space.dist.flags.writeable

    def test_distance_matrix_meets_its_certificate_on_near_collinear_points(self):
        """The matrix reduce trusts, against mpmath: exactly symmetric with
        a zero diagonal, each entry within a factor 1 +- 3u of the exact
        distance plus 4 * 2^-1074, each triangle within 7u (d_ij + d_jk),
        and the checked construction keeps its bits."""
        u, tiny = 2.0**-53, 2.0**-1074
        rng = random.Random(2002)
        sets = []
        for scale in (EPS, 1e-3, 1e-100, 1e-300):
            direction = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
            jitter = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(10)]
            sets.append([
                scale * (rng.uniform(-1.0, 1.0) * direction + 1e-13 * w) for w in jitter
            ])
        sets.append([complex(rng.uniform(-EPS, EPS), 0.0) for _ in range(10)])
        sets.append([complex(k, 0.0) * tiny for k in (0, 1, 2, 5, 9, 14)])
        sets.append([complex(k, k) * tiny for k in range(7)])
        sets.append([complex(k, 3 * k) * 2.0**-1070 for k in range(-3, 4)])
        sets.append([complex(0.1 + k * 2.0**-56, 0.05 + 3 * k * 2.0**-57) for k in range(8)])
        with mpmath.workprec(200):
            for pts in sets:
                cfg = flat(pts)
                d = cfg._arrays[2]
                assert np.array_equal(d, d.T) and not np.diag(d).any()
                exact = [
                    [mpmath.hypot(mpmath.mpf(x.real) - y.real, mpmath.mpf(x.imag) - y.imag)
                     for y in cfg.points]
                    for x in cfg.points
                ]
                got = [[mpmath.mpf(x) for x in row] for row in d.tolist()]
                n = cfg.size
                for i, k in product(range(n), repeat=2):
                    assert abs(got[i][k] - exact[i][k]) <= 3 * u * exact[i][k] + 4 * tiny
                for i, j, k in product(range(n), repeat=3):
                    excess = got[i][k] - got[i][j] - got[j][k]
                    assert excess <= 7 * u * (exact[i][j] + exact[j][k]) + 12 * tiny
                checked = FiniteMetricSpace(d, labels=cfg.points)
                assert checked.dist.tobytes() == d.tobytes()


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
        assert is_standard_reference(sub, EPS)

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
                assert is_standard_reference(sub, EPS)
                assert len(sub.points) == len(cluster)
                for w in sub.points:
                    assert any(abs(phi(w) - z) <= 1e-15 for z in cluster)
        assert seen >= 20

    def test_sibling_pair_at_its_slack_edge_reduces(self):
        # z1 and z2 are 3.2e-9 apart and 4e-5 from the center 0, with radii
        # at the slack edge of eps^2/4 |z1 - z2|: rescaling rounds w1 - w2
        # by more than that slack, and the check of the rescaled
        # configuration rejected this standard one
        z1 = -2.9250860471007905e-05 + 2.7794698954978617e-05j
        z2 = -2.9254088569675297e-05 + 2.779463879113319e-05j
        r = 6.305975140644212e-12
        cfg = BubbleConfiguration((0, z1, z2, EPS), {0: 0.0, z1: r, z2: r, EPS: 0.0})
        assert is_standard_reference(cfg, EPS)
        sub, gamma, phi = reduce_at(cfg, EPS, 0)
        assert len(sub.points) == 3 and 0.0 < gamma <= 4.0 * EPS
        assert not is_standard_reference(sub, EPS)
        assert verify_association(cfg, associate_tree(cfg, EPS), EPS).ok

    def test_subnormal_cutoff_gamma_is_reported_by_membership(self):
        # 79 centers at eps = 0.03 make the cutoff (4 eps^3)^79 / (4 eps^2)
        # subnormal; its rounding puts the satellite's gamma 4.5e-12 above
        # 4 eps, which reduce_at returns and verify_association reports
        eps = 0.03
        ring = [eps * cmath.exp(2j * math.pi * j / 78) for j in range(78)]
        cfg = flat(ring + [0.0, 4.369952169e-314])
        _, gamma, _ = reduce_at(cfg, eps, 0)
        assert gamma == pytest.approx(4.0 * eps, rel=1e-11) and gamma > 4.0 * eps
        report = verify_association(cfg, associate_tree(cfg, eps), eps)
        assert not report.ok and f"|gamma[40]| = {gamma} > tau" in report.summary()

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1c: exact rungs do not mend it; rho_p is a disc "
        "radius held as a subnormal double with few significant bits",
    )
    def test_subnormal_cutoff_gamma_stays_within_tau(self):
        eps = 0.03
        ring = [eps * cmath.exp(2j * math.pi * j / 78) for j in range(78)]
        cfg = flat(ring + [0.0, 4.369952169e-314])
        report = verify_association(cfg, associate_tree(cfg, eps), eps)
        assert report.summary() == "association verified"


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
        t = assoc.tree
        paths = [positive_path(t, t.root_vertex, v) for v in t.vertices]
        assert max(map(len, paths)) == 3
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
            assert_tree_facts(assoc.tree)

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

    def test_one_standardness_check_per_association(self, monkeypatch):
        # the root's: every child configuration comes from _rescale_cluster
        # marked standard by its certificate
        checked = []

        def counted(cfg, eps):
            checked.append(cfg)
            return is_type_eps(cfg, eps)

        monkeypatch.setattr(bubbles, "is_type_eps", counted)
        rng = random.Random(2105)
        nested = 0
        for _ in range(20):
            cfg = random_standard(rng, EPS, rng.randrange(4, 16))
            cfg = BubbleConfiguration(cfg.points, cfg.radius)  # nothing kept
            checked.clear()
            assoc = associate_tree(cfg, EPS)
            assert len(checked) == 1 and checked[0] is cfg
            nested += len(assoc.tree.vertices) > 1
        assert nested >= 5

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

    @pytest.mark.parametrize("size", [154, 200])
    def test_nested_configurations_past_the_ladder_underflow(self, size, tmp_path):
        # (4 eps^3)^154 underflows to 0.0, but a level with few centres reads
        # only the first rungs of the ladder
        cfg = random_standard(random.Random(0), EPS, size)
        assoc = associate_tree(cfg, EPS)
        tree = assoc.tree
        assert max(len(tree.child_edges(v)) for v in tree.vertices) < 154
        report = verify_association(cfg, assoc, EPS)
        assert report.ok, report.summary()
        config = {"bubble": jsonio.bubble_to_json(cfg, EPS), "delta": 0.5}
        assert pipeline.run_pipeline(config, tmp_path, seed=0).ok

    # (4 eps^3)^k underflows to 0.0 from k = 154, 135, 114, 99 and 82 at eps
    # = 1/8, 0.1, 0.07, 0.05 and 0.03; at 0.07, a(113) = 5e-324 and
    # 0.5 * a(113) rounds to 0.0
    @pytest.mark.parametrize(
        "eps, size",
        [
            (EPS, 153), (EPS, 154), (EPS, 160), (EPS, 200), (EPS, 512),
            (0.1, 135), (0.07, 114), (0.05, 99), (0.03, 81), (0.03, 82),
        ],
    )
    def test_flat_levels_at_the_ladder_underflow_verify(self, eps, size):
        cfg = flat_standard(random.Random(size), eps, size)
        assoc = associate_tree(cfg, eps)
        assert verify_association(cfg, assoc, eps).ok

    def test_flat_level_of_154_reads_the_underflowed_rung(self):
        # the double a(154) is 0.0, the exact rung 2^-1078: only a distance
        # of 0 lies within it, so every point is its own centre, and the
        # underflowed cutoff leaves rho_p = rho / (4 eps)
        cfg = flat_standard(random.Random(154), EPS, 154)
        centers, retraction, rho_p, k = reduce(cfg, EPS)
        assert k == 154 and centers == cfg.points
        assert retraction == {z: z for z in cfg.points}
        assert rho_p == {z: cfg.radius[z] / (4.0 * EPS) for z in cfg.points}
        assoc = associate_tree(cfg, EPS)
        assert assoc.tree.vertices == (1,) and assoc.tree.degree(1) == 155
        report = verify_association(cfg, assoc, EPS)
        assert report.summary() == "association verified"

    @pytest.mark.parametrize("seed, size", [(0, 400), (1, 154)])
    def test_nested_levels_at_the_ladder_underflow_verify(self, seed, size):
        # each draw has a vertex of degree 154 or more, whose floor
        # (4 eps^3)^deg underflows
        cfg = random_standard(random.Random(seed), EPS, size)
        assoc = associate_tree(cfg, EPS)
        tree = assoc.tree
        assert len(tree.vertices) > 1
        assert max(tree.degree(v) for v in tree.vertices) >= 154
        report = verify_association(cfg, assoc, EPS)
        assert report.summary() == "association verified"

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

    @pytest.mark.parametrize("eps, degree", [(EPS, 154), (EPS, 300), (0.03, 82), (0.03, 120)])
    @pytest.mark.parametrize("r", [0.0, 5e-324, 1e-323, 1e-310])
    def test_underflowed_alpha_gives_the_exact_verdict(self, eps, degree, r):
        # (4 eps^3)^deg lies below 2^-1074, so its stand-in 5e-324 compares
        # with every double |rho| as the exact floor does
        tree = star_tree(degree - 1)
        params = association_params(tree, eps)
        assert params.alpha == {1: 5e-324}
        zr = {
            (1, e): (eps * cmath.exp(2j * math.pi * e / degree), complex(r))
            for e in range(1, degree)
        }
        report = in_compact_subset(ModuliPoint(tree, {}, zr), params)
        exact = Fraction(4.0 * eps**3) ** degree <= Fraction(r)
        assert report.ok == exact
        if not exact:
            assert report.first_violation == f"|rho[1,1]| = {r} < alpha[1] = 5e-324"

    def test_alpha_floor_holds_at_a_high_degree_root(self):
        # six flat points hang off one root vertex of degree 7, where the
        # floor alpha = (4 eps^3)^7 is about 1.8e-15; a |rho| ten times
        # below it lies far inside an absolute slack of 1e-12
        cfg = flat_standard(random.Random(6), EPS, 6)
        assoc = associate_tree(cfg, EPS)
        root = assoc.root_vertex
        assert assoc.tree.degree(root) >= 7
        alpha = association_params(assoc.tree, EPS).alpha[root]
        zr = dict(assoc.point.zr)
        e = min(e for v, e in zr if v == root)
        zr[(root, e)] = (zr[(root, e)][0], complex(alpha / 10))
        bad = TreeAssociation(
            assoc.tree,
            ModuliPoint(assoc.tree, assoc.point.gamma, zr),
            root,
            assoc.edge_to_bubble,
        )
        report = verify_association(cfg, bad, EPS)
        assert not report.ok
        assert report.membership.first_violation == (
            f"|rho[{root},{e}]| = {alpha / 10} < alpha[{root}] = {alpha}"
        )

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

    def test_nan_positions_and_targets_match_nothing(self):
        """Both tolerance tests fail on NaN.  On the README's 3-point
        configuration a huge gluing and disc radius put edges 2 and 3 at
        nan+nanj; a NaN edge_to_bubble entry names no point either."""
        cfg = flat((0, 1e-5, EPS))
        assoc = associate_tree(cfg, EPS)
        (e,) = assoc.tree.full_edges
        u = assoc.tree.e_minus[e]
        zr = dict(assoc.point.zr)
        zr[(u, e)] = (zr[(u, e)][0], 1e10)
        point = ModuliPoint(assoc.tree, {e: 1e300}, zr)
        bad = TreeAssociation(assoc.tree, point, assoc.root_vertex, assoc.edge_to_bubble)
        report = verify_association(cfg, bad, EPS)
        assert report.position_errors == (
            "edge 2: chart position (nan+nanj) matches no bubble point",
            "edge 3: chart position (nan+nanj) matches no bubble point",
            "no edge position matches bubble point 0j",
            "no edge position matches bubble point (1e-05+0j)",
        )
        assert report.position_errors == position_errors_reference(cfg, bad)
        mapped = {**assoc.edge_to_bubble, 4: complex(math.nan, 0.0)}
        bad = TreeAssociation(assoc.tree, assoc.point, assoc.root_vertex, mapped)
        report = verify_association(cfg, bad, EPS)
        assert report.position_errors == (
            "edge 4: edge_to_bubble says (nan+0j) but the chart shows (0.125+0j)",
        )
        assert report.position_errors == position_errors_reference(cfg, bad)

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

    @pytest.mark.parametrize(
        "make, size",
        [
            (flat_standard, 32),
            (flat_standard, 64),
            (flat_standard, 96),
            (flat_standard, 128),
            (random_standard, 150),
            (random_standard, 200),
        ],
    )
    def test_verify_association_matches_the_path_walk(self, make, size):
        """Reports equal the one-path-per-edge reference string for string,
        on the association and on corrupted copies: a wrong root vertex,
        moved positions and swapped edge_to_bubble entries."""
        rng = random.Random(size)
        cfg = make(rng, EPS, size)
        assoc = associate_tree(cfg, EPS)
        tree, point = assoc.tree, assoc.point
        assert_tree_facts(tree)
        cases = [assoc]
        # the deepest vertex, where the tree has more than one, and no vertex
        for root in {tree.order[-1], max(tree.vertices) + 1} - {tree.root_vertex}:
            cases.append(TreeAssociation(tree, point, root, assoc.edge_to_bubble))
        top = [(tree.root_vertex, e) for e in tree.children[tree.root_vertex]]
        for _ in range(4):
            zr = dict(point.zr)
            # any disc centre by a step the root chart may scale below the
            # tolerance, and one root disc centre onto another's
            a, b = rng.choice(sorted(zr)), rng.sample(top, 2)
            for k, step in ((a, rng.choice([1e-10, 1e-7, 0.01])), (b[0], 1e-3)):
                zr[k] = (zr[k][0] + step * cmath.rect(1, rng.uniform(0, 7)), zr[k][1])
            zr[b[1]] = (zr[b[0]][0], zr[b[1]][1])
            moved = ModuliPoint(tree, point.gamma, zr)
            cases.append(TreeAssociation(tree, moved, assoc.root_vertex, assoc.edge_to_bubble))
            mapped = dict(assoc.edge_to_bubble)
            a, b = rng.sample(sorted(mapped), 2)
            mapped[a], mapped[b] = mapped[b], mapped[a]
            cases.append(TreeAssociation(tree, point, assoc.root_vertex, mapped))
        errors = [verify_association(cfg, case, EPS).position_errors for case in cases]
        assert errors == [position_errors_reference(cfg, case) for case in cases]
        # swapped entries pass when their points lie within the tolerance
        assert not errors[0] and all(e for e, c in zip(errors, cases) if c.point is not point)
        assert all(e for e, c in zip(errors, cases) if c.root_vertex != assoc.root_vertex)

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
