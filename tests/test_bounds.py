"""Constant and counting formulas: frozen values, big-float oracles,
monotonicity, and cross-module consistency checks."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletree.bounds import (
    DEFAULT_CONSTANTS,
    DIGIT_CAP,
    GeometryConstants,
    LogNumber,
    choose_lambda,
    curve_cover_count,
    curve_cover_loglog,
    decoration_budget,
    mapspace_count,
    membership_scales,
    sphere_net_bound,
    total_cover_count,
    total_cover_loglog,
)
from bubbletree.errors import InputError, VerificationError
from bubbletree.jsonio import dumps
from bubbletree.nets import FiberMap, FiniteMetricSpace, mapspace_cover, sphere_net
from helpers import chain_tree, star_tree

mpmath.mp.dps = 60
LN_MAX = math.log(sys.float_info.max)


class TestGeometryConstants:
    def test_default_profile(self):
        g = DEFAULT_CONSTANTS
        assert g.lambda0 == 1.0
        assert g.C == 1.0
        assert g.q == math.pi
        assert g.l == 1.0
        assert g.M == 1.0
        assert g.sigma == 1.0
        assert g.dim_half == 2
        assert g.c_abs == 9.0

    def test_sigma_zero_allowed(self):
        assert GeometryConstants(sigma=0.0).sigma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"C": 0.5},
            {"M": 0.5},
            {"l": 2.0},
            {"c_abs": 8.0},
            {"sigma": -1.0},
            {"dim_half": 0},
            {"q": 0.0},
            {"lambda0": -1.0},
            {"c_iso": 0.0},
        ],
    )
    def test_rejects_bad_constants(self, kwargs):
        with pytest.raises(InputError):
            GeometryConstants(**kwargs)


class TestLogNumber:
    def test_from_int(self):
        n = LogNumber.from_int(10)
        assert n.exact == 10
        assert n.ln == math.log(10)
        assert n.log10 == pytest.approx(1.0, rel=1e-15)

    def test_mirror_must_match_log(self):
        with pytest.raises(VerificationError):
            LogNumber(math.log(10), 11)

    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            LogNumber(math.inf)
        with pytest.raises(InputError):
            LogNumber(0.0, 0)
        with pytest.raises(InputError):
            LogNumber.from_int(0)

    def test_huge_int_drops_mirror(self):
        n = LogNumber.from_int(10 ** (DIGIT_CAP + 10))
        assert n.exact is None
        assert n.ln == pytest.approx((DIGIT_CAP + 10) * math.log(10), rel=1e-12)

    @given(st.integers(1, 10**30), st.integers(1, 10**30))
    @settings(max_examples=60, deadline=None)
    def test_comparisons_consistent(self, a, b):
        la, lb = LogNumber.from_int(a), LogNumber.from_int(b)
        assert (la < lb) == (a < b)
        assert (la <= lb) == (a <= b)
        # dropping one mirror falls back to the log ordering
        bare = LogNumber(lb.ln)
        if abs(la.ln - lb.ln) > 1e-12 * max(1.0, abs(lb.ln)):
            assert (la < bare) == (a < b)

    @given(
        st.floats(-1e308, 1.7e308),
        st.floats(LN_MAX, 1e300),
        st.floats(LN_MAX, 1e300),
    )
    @settings(max_examples=80, deadline=None)
    def test_level_two_orders_above_level_one(self, ln, lnln, lnln2):
        low, high = LogNumber(ln), LogNumber(lnln, level=2)
        assert low < high and low <= high
        assert not high < low and not high <= low
        assert LogNumber.from_int(10**400) < high
        other = LogNumber(lnln2, level=2)
        assert (high < other) == (lnln < lnln2)

    def test_level_two_has_no_log(self):
        n = LogNumber(800.0, level=2)
        with pytest.raises(InputError, match="log space"):
            n.ln
        with pytest.raises(InputError, match="log space"):
            n.log10
        with pytest.raises(InputError):
            LogNumber(800.0, level=3)

    @given(st.floats(1e-6, 1.7e308))
    @settings(max_examples=80, deadline=None)
    def test_loglog10_agrees_across_levels(self, ln):
        n = LogNumber(ln)
        assert n.loglog10 == pytest.approx(math.log10(n.log10), rel=1e-12)
        # the same count written one level up
        if ln > 10.0:
            up = LogNumber(math.log(ln), level=2)
            assert up.loglog10 == pytest.approx(n.loglog10, rel=1e-12)

    def test_loglog10_needs_a_count_above_one(self):
        with pytest.raises(InputError):
            LogNumber(0.0, 1).loglog10


class TestChooseLambda:
    def test_frozen_eighth(self):
        choice = choose_lambda(0.125)
        assert choice.value == 7 / 4608
        assert choice.binding == "decay"
        assert choice.decay_bound == 7 / 4608
        assert choice.quantum_bound == pytest.approx(0.125, rel=1e-15)

    def test_small_quantum_branch(self):
        g = GeometryConstants(q=1e-12)
        choice = choose_lambda(0.125, g)
        assert choice.binding == "quantum"
        assert choice.value == pytest.approx(0.125 * math.sqrt(1e-12 / math.pi))

    @given(
        st.floats(1e-3, 0.125),
        st.floats(1.0, 4.0),
        st.floats(0.5, 2.0),
        st.floats(0.1, 1.0),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_both_constraints_hold(self, eps, big_c, lambda0, l_frac, q):
        g = GeometryConstants(lambda0=lambda0, C=big_c, q=q, l=l_frac * lambda0)
        lam = choose_lambda(eps, g).value
        slack = 1.0 + 1e-12
        assert 9.0 * lam * math.sqrt(g.C) <= g.l * eps * eps * (1.0 - eps) * slack
        assert math.pi * lam * lam <= g.q * eps * eps * slack
        tight_decay = abs(9.0 * lam * math.sqrt(g.C) - g.l * eps * eps * (1.0 - eps))
        tight_quantum = abs(math.pi * lam * lam - g.q * eps * eps)
        assert min(tight_decay, tight_quantum / (g.q * eps * eps)) < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            choose_lambda(0.0)
        with pytest.raises(InputError):
            choose_lambda(0.2)


class TestMembershipScales:
    def test_frozen_eighth(self):
        tree = star_tree(2)
        scales = membership_scales(tree, 0.125, 7 / 4608)
        assert scales.params.theta == 0.125
        assert scales.params.tau == 0.5
        assert scales.params.alpha_of(1) == (1 / 128) ** 3
        assert scales.params.alpha_of(1) == 1 / 2097152
        assert scales.lambda_e == 64.0

    def test_eta_squared_energy_fraction(self):
        lam = 7 / 4608
        g = GeometryConstants(C=2.0, lambda0=1.5)
        scales = membership_scales(star_tree(2), 0.125, lam, g)
        lhs = (scales.eta * g.lambda0) ** 2
        assert lhs == pytest.approx(lam * lam / (9.0 * g.C), rel=1e-12)

    def test_vertex_factor_is_degree_independent(self):
        tree = chain_tree(3, leaves=3)
        eps = 0.1
        scales = membership_scales(tree, eps, 0.001)
        degrees = {tree.degree(v) for v in tree.vertices}
        assert len(degrees) > 1
        target = 9.0 * math.pi / (eps * eps)
        for v in tree.vertices:
            prod = scales.lambda_v[v] * scales.params.alpha_of(v)
            assert prod == pytest.approx(target, rel=1e-12)

    def test_lambda_sup(self):
        scales = membership_scales(chain_tree(2), 0.125, 0.001)
        peak = max(scales.lambda_v.values())
        assert scales.lambda_sup == max(peak, scales.lambda_e)
        assert scales.lambda_sup == peak  # vertex budgets dominate M / eps^2

    def test_rejects_unstable_and_bad_lambda(self):
        from bubbletree.trees import RootedTree, Tree

        lonely = RootedTree(Tree([1], {0: (1,), 1: (1,)}), 0)
        with pytest.raises(InputError):
            membership_scales(lonely, 0.125, 0.001)
        with pytest.raises(InputError):
            membership_scales(star_tree(2), 0.125, 0.0)


class TestDecorationBudget:
    def test_area_matching_lambda(self):
        m, log_lip = decoration_budget(0, 0.25, 0.5, c_abs=12.0)
        assert m == 12
        assert log_lip == 12.0

    def test_pure_genus_term(self):
        m, log_lip = decoration_budget(1, 0.0, 0.3)
        assert m == 9
        assert log_lip == 9.0

    @given(
        st.integers(0, 10),
        st.floats(0.0, 100.0),
        st.floats(1e-3, 10.0),
        st.floats(9.0, 20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_floor_relation(self, ell, area, lam, c_abs):
        m, log_lip = decoration_budget(ell, area, lam, c_abs)
        assert m <= log_lip < m + 1
        assert isinstance(m, int)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            decoration_budget(-1, 1.0, 1.0)
        with pytest.raises(InputError):
            decoration_budget(0, -1.0, 1.0)
        with pytest.raises(InputError):
            decoration_budget(0, 1.0, 0.0)
        with pytest.raises(InputError):
            decoration_budget(0, 1.0, 1.0, c_abs=5.0)


ONE = LogNumber.from_int(1)


class TestTotalCoverCount:
    def test_base_ten_to_the_one(self):
        # m + ell < 3 leaves a single factor of the plain base
        g = GeometryConstants(dim_half=1)
        n = total_cover_count(1.0, g, nu_k=9, lip=ONE, m=2, ell=0)
        assert n.exact == 10
        assert n.ln == pytest.approx(math.log(10), rel=1e-15)

    def test_two_to_the_eight_pi(self):
        g = GeometryConstants(dim_half=1)
        n = total_cover_count(1.0, g, nu_k=1, lip=ONE, m=3, ell=0)
        assert n.log10 == pytest.approx(7.5657, abs=1e-4)
        oracle = mpmath.log(mpmath.power(2, 8 * mpmath.pi))
        assert n.ln == pytest.approx(float(oracle), rel=1e-12)
        assert n.exact is None

    def test_sigma_zero_gives_one(self):
        g = GeometryConstants(sigma=0.0)
        n = total_cover_count(0.5, g, nu_k=7, lip=LogNumber.from_int(3), m=5, ell=2)
        assert n.exact == 1
        assert n.ln == 0.0

    def test_big_float_oracle(self):
        g = GeometryConstants(dim_half=2, sigma=0.7)
        lip = LogNumber(math.log(2.5))
        for delta in (0.5, 0.8, 1.0):
            for total_marks in (3, 4, 5):
                n = total_cover_count(delta, g, 4, lip, m=total_marks, ell=0)
                d = mpmath.mpf(delta)
                expo = mpmath.power(
                    8 * mpmath.pi * mpmath.mpf(2.5) ** 2 / d**2,
                    math.comb(total_marks, 3),
                )
                base_ln = mpmath.log1p(mpmath.mpf(0.7) / d**4 * 4)
                assert n.ln == pytest.approx(float(expo * base_ln), rel=1e-12)

    def test_monotone_in_delta(self):
        g = GeometryConstants(dim_half=1)
        lip = LogNumber.from_int(2)
        grid = [0.2, 0.35, 0.5, 0.7, 0.9, 1.0]
        values = [total_cover_count(d, g, 3, lip, 3, 0).ln for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_counts(self):
        g = GeometryConstants(dim_half=1)
        lip = LogNumber.from_int(2)
        by_nu = [total_cover_count(0.9, g, nu, lip, 3, 0).ln for nu in range(1, 8)]
        assert by_nu == sorted(by_nu)
        by_m = [total_cover_count(0.9, g, 2, lip, m, 0).ln for m in range(3, 9)]
        assert by_m == sorted(by_m)
        by_lip = [
            total_cover_count(0.9, g, 2, LogNumber(t), 3, 0).ln
            for t in (0.0, 0.5, 1.0, 2.0)
        ]
        assert by_lip == sorted(by_lip)

    def test_overflow_diagnostic(self):
        g = GeometryConstants(dim_half=1)
        n = total_cover_count(1.0, g, 1, LogNumber.from_int(10), m=100, ell=0)
        assert n.level == 2
        with pytest.raises(InputError, match="log space"):
            n.ln

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            total_cover_count(0.0, DEFAULT_CONSTANTS, 1, ONE, 3, 0)
        with pytest.raises(InputError):
            total_cover_count(2.0, DEFAULT_CONSTANTS, 1, ONE, 3, 0)
        with pytest.raises(InputError):
            total_cover_count(0.5, DEFAULT_CONSTANTS, -1, ONE, 3, 0)


class TestTotalCoverLogLog:
    def test_matches_direct_in_range(self):
        lip = LogNumber(2.0)
        total = total_cover_count(0.5, DEFAULT_CONSTANTS, 1, lip, 4, 0)
        loglog = total_cover_loglog(0.5, DEFAULT_CONSTANTS, 1, lip, 4, 0)
        assert loglog == pytest.approx(math.log10(total.log10), rel=1e-12)

    def test_big_float_oracle_past_overflow(self):
        lip = LogNumber(18.0)
        total = total_cover_count(0.5, DEFAULT_CONSTANTS, 1, lip, 18, 0)
        with pytest.raises(InputError):
            total.log10
        loglog = total_cover_loglog(0.5, DEFAULT_CONSTANTS, 1, lip, 18, 0)
        ln_expo = mpmath.binomial(18, 3) * (
            mpmath.log(8 * mpmath.pi) + 36 + 2 * mpmath.log(2)
        )
        ln_ln = ln_expo + mpmath.log(mpmath.log(17))
        expected = (ln_ln - mpmath.log(mpmath.log(10))) / mpmath.log(10)
        assert loglog == pytest.approx(float(expected), rel=1e-12)

    def test_rejects_trivial_count(self):
        g = GeometryConstants(sigma=0.0)
        with pytest.raises(InputError):
            total_cover_loglog(0.5, g, 1, ONE, 5, 0)


class TestCurveCoverLogLog:
    def test_matches_direct_in_range(self):
        out = curve_cover_count(0.5, 3, 2.0)
        loglog = curve_cover_loglog(0.5, 3, 2.0)
        assert loglog == pytest.approx(math.log10(out.total.log10), rel=1e-12)

    def test_big_float_oracle_past_overflow(self):
        lam = 4e9
        total = curve_cover_count(0.5, 20, lam).total
        with pytest.raises(InputError):
            total.log10
        loglog = curve_cover_loglog(0.5, 20, lam)
        ln_cells = 19 * mpmath.log(16)
        ln_patch = 20 * mpmath.log(8 * mpmath.pi) + 40 * (
            mpmath.log(lam) - mpmath.log(0.5)
        )
        ln_expo = ln_patch + mpmath.log(21)
        ln_ln = mpmath.log(ln_cells + mpmath.exp(ln_expo) * mpmath.log(17))
        expected = (ln_ln - mpmath.log(mpmath.log(10))) / mpmath.log(10)
        assert loglog == pytest.approx(float(expected), rel=1e-12)

    def test_sigma_zero_iterates_cell_log(self):
        g = GeometryConstants(sigma=0.0)
        loglog = curve_cover_loglog(1.0, 3, 1.0, g)
        assert loglog == pytest.approx(math.log10(math.log10(16.0)), rel=1e-12)


class TestCurveCoverCount:
    def test_sigma_zero_reduces_to_cells(self):
        g = GeometryConstants(sigma=0.0)
        for mu in range(3, 8):
            out = curve_cover_count(1.0, mu, 1.0, g)
            assert out.total.exact == 4 ** (mu - 1)
            assert out.regions == mu + 1
            assert out.log_cells == pytest.approx((mu - 1) * math.log(4), rel=1e-15)

    def test_mu_from_trees(self):
        for tree in (star_tree(2), chain_tree(2), chain_tree(3, leaves=3)):
            mu = sum(tree.degree(v) for v in tree.vertices)
            assert mu == len(tree.incident_pairs())
            out = curve_cover_count(1.0, mu, 1.0, GeometryConstants(sigma=0.0))
            assert out.regions == mu + 1
            assert out.total.exact == 4 ** (mu - 1)

    def test_big_float_oracle(self):
        out = curve_cover_count(0.5, 3, 1.0, DEFAULT_CONSTANTS, nu_k=1)
        d = mpmath.mpf(0.5)
        cells = 2 * mpmath.log(4 / d**2)
        expo = mpmath.power(8 * mpmath.pi, 3) * (1 / d) ** 6 * 4
        oracle = cells + expo * mpmath.log1p(1 / d**4)
        assert out.total.ln == pytest.approx(float(oracle), rel=1e-9)
        assert out.log_patch_net == pytest.approx(
            float(3 * mpmath.log(8 * mpmath.pi) + 6 * mpmath.log(2)), rel=1e-12
        )

    def test_monotonicity(self):
        g = GeometryConstants(dim_half=1)
        by_mu = [curve_cover_count(0.5, mu, 1.0, g).total.ln for mu in range(3, 8)]
        assert by_mu == sorted(by_mu)
        by_delta = [
            curve_cover_count(d, 3, 1.0, g).total.ln for d in (0.3, 0.5, 0.8, 1.0)
        ]
        assert by_delta == sorted(by_delta, reverse=True)
        by_lip = [
            curve_cover_count(0.5, 3, lam, g).total.ln for lam in (0.5, 1.0, 2.0)
        ]
        assert by_lip == sorted(by_lip)
        by_nu = [curve_cover_count(0.5, 3, 1.0, g, nu).total.ln for nu in (1, 3, 9)]
        assert by_nu == sorted(by_nu)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            curve_cover_count(0.5, 2, 1.0)
        with pytest.raises(InputError):
            curve_cover_count(0.0, 3, 1.0)
        with pytest.raises(InputError):
            curve_cover_count(0.5, 3, 0.0)
        with pytest.raises(InputError):
            curve_cover_count(0.5, 3, 1.0, DEFAULT_CONSTANTS, -1)


class TestTwoLevelCounts:
    def test_curve_tower_just_past_double_range(self):
        # the tower exponent lies in (log(DBL_MAX / factor_ln), 709]: the
        # exponential fits a double but its product with the factor does not
        lam = math.exp(115.597)
        out = curve_cover_count(0.5, 3, lam)
        assert out.total.level == 2
        d, big = mpmath.mpf(0.5), mpmath.mpf(lam)
        ln_cells = 2 * mpmath.log(4 / d**2)
        ln_tower = mpmath.power(8 * mpmath.pi, 3) * (big / d) ** 6 * 4 * mpmath.log(17)
        expected = mpmath.log10(mpmath.log10(mpmath.e) * (ln_cells + ln_tower))
        assert out.total.loglog10 == pytest.approx(float(expected), rel=1e-12)
        assert curve_cover_loglog(0.5, 3, lam) == out.total.loglog10
        dumps({"log10_log10_total": curve_cover_loglog(0.5, 3, lam)})

    @given(
        st.floats(1e-3, 1.0),
        st.integers(0, 10**6),
        st.integers(0, 20),
        st.integers(1, 10**6),
        st.floats(0.0, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_defined_and_monotone_in_m(self, delta, m, ell, nu_k, lip_ln):
        lip = LogNumber(lip_ln)
        here = total_cover_count(delta, DEFAULT_CONSTANTS, nu_k, lip, m, ell)
        more = total_cover_count(delta, DEFAULT_CONSTANTS, nu_k, lip, m + 1, ell)
        assert math.isfinite(here.loglog10)
        assert here <= more
        assert here.loglog10 <= more.loglog10 + 1e-12 * abs(more.loglog10)

    @given(
        st.floats(1e-3, 1.0),
        st.integers(3, 10**5),
        st.floats(1.0, 1e12),
        st.integers(1, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_curve_defined_and_monotone_in_mu(self, delta, mu, lam_sup, nu_k):
        # Lambda >= 1 and delta <= 1 make the per-region factor at least
        # 8 pi, so both the cell and the tower factor grow with mu
        here = curve_cover_count(delta, mu, lam_sup, DEFAULT_CONSTANTS, nu_k).total
        more = curve_cover_count(delta, mu + 1, lam_sup, DEFAULT_CONSTANTS, nu_k).total
        assert math.isfinite(here.loglog10)
        assert here <= more
        assert here.loglog10 <= more.loglog10 + 1e-12 * abs(more.loglog10)


class TestSphereNetBound:
    def test_right_angle(self):
        exact_form, weak_form = sphere_net_bound(math.pi / 2)
        assert exact_form == pytest.approx(2.0 / (1.0 - math.cos(math.pi / 4)))
        assert exact_form == pytest.approx(6.828, abs=1e-3)
        assert weak_form == pytest.approx(32.0 / math.pi, rel=1e-15)

    def test_unit_radius(self):
        _, weak_form = sphere_net_bound(1.0)
        assert weak_form == pytest.approx(8.0 * math.pi, rel=1e-15)
        assert weak_form == pytest.approx(25.13, abs=1e-2)

    def test_ordering_sweep(self):
        for i in range(1, 200):
            gamma = i * math.pi / 200.0
            exact_form, weak_form = sphere_net_bound(gamma)
            assert exact_form <= weak_form * (1.0 + 1e-12)

    def test_constructed_nets_fit_weak_form(self):
        for gamma in (0.5, 1.0, 2.0):
            _, weak_form = sphere_net_bound(gamma)
            assert sphere_net(gamma).size <= weak_form

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            sphere_net_bound(0.0)
        with pytest.raises(InputError):
            sphere_net_bound(math.pi)


def grid_space(xs):
    return FiniteMetricSpace([[abs(a - b) for b in xs] for a in xs])


class TestMapspaceCount:
    def test_trivial_codomain(self):
        n = mapspace_count(1, 0, 5)
        assert n.exact == 1
        assert n.ln == 0.0

    def test_small_product(self):
        n = mapspace_count(2, 3, 2)
        assert n.exact == 32
        assert n.ln == pytest.approx(math.log(32), rel=1e-15)

    def test_matches_cover_bound(self):
        space_t = grid_space([0.0, 0.25, 2.0])
        space_z = grid_space([0.0, 1.0])
        space_w = grid_space([0.0, 1.0, 2.0])
        members = [
            FiberMap(t=0, fiber=(0, 1), values=(0, 1)),
            FiberMap(t=2, fiber=(0, 1), values=(1, 2)),
        ]
        for delta in (0.4, 0.7, 1.1):
            cover = mapspace_cover(
                space_t, space_z, space_w, members, lam=1.0, delta=delta
            )
            counted = mapspace_count(
                cover.net_t.size, cover.net_w.size, cover.net_z.size
            )
            assert counted.exact == cover.count_bound
            assert len(cover.sets) <= counted.exact

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_exact_mirror_agrees(self, nu_t, nu_w, nu_z):
        n = mapspace_count(nu_t, nu_w, nu_z)
        assert n.exact == nu_t * (1 + nu_w) ** nu_z
        assert n.ln == pytest.approx(math.log(n.exact), rel=1e-12)

    def test_digit_cap_drops_mirror(self):
        n = mapspace_count(2, 9, 2 * 10**6)
        assert n.exact is None
        assert n.ln == pytest.approx(math.log(2) + 2e6 * math.log(10), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            mapspace_count(0, 1, 1)
        with pytest.raises(InputError):
            mapspace_count(1, -1, 1)
