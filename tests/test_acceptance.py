"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with -v -s to see the verdict lines; every tolerance is pinned inline.
"""

import cmath
import contextlib
import itertools
import math
import random

import mpmath
import pytest

from bubbletree.bounds import (
    DEFAULT_CONSTANTS,
    choose_lambda,
    curve_cover_count,
    decoration_budget,
)
from bubbletree.bubbles import (
    associate_tree,
    cluster_select,
    reduce,
    verify_association,
)
from bubbletree.curves import (
    ModuliPoint,
    annulus_path,
    chart_position,
    fiber_discriminant,
    neck_area_factor,
    neck_chart_values,
    neck_param,
    neck_path,
    position_gaps,
    round_flat_area_ratio,
)
from bubbletree.nets import (
    FiniteMetricSpace,
    fibonacci_sphere_points,
    mapspace_cover,
    mapspace_distance,
    sphere_net,
    sphere_pairwise,
)
from bubbletree.pipeline import run_pipeline
from bubbletree.trees import edge_counts, enumerate_stable_rooted, tree_count_bound

from helpers import (
    all_lipschitz_maps,
    chain_tree,
    default_params,
    grid_space,
    oracle_count_stable_rooted,
    random_member,
    random_standard,
)

mpmath.mp.dps = 60

EPS = 0.125


@contextlib.contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} {label}: FAIL")
        raise
    print(f"acceptance {num:02d} {label}: PASS")


def test_01_tree_enumeration_counts():
    with verdict(1, "tree counts match brute force and growth bounds"):
        for n in range(2, 8):
            count = len(enumerate_stable_rooted(n))
            assert count == oracle_count_stable_rooted(n)
            combinatorial, closed_form = tree_count_bound(n)
            assert combinatorial == 2 ** (n - 2) * math.comb(2 * n, n) // (n + 1)
            assert count <= combinatorial
            assert count <= closed_form
            assert closed_form == (2.0**n / math.sqrt(n)) ** 3 / (4.0 * math.sqrt(3.0))


def test_02_edge_count_identities():
    with verdict(2, "edge-count identities and equality characterization"):
        for n in range(2, 8):
            for t in enumerate_stable_rooted(n):
                report = edge_counts(t)
                assert report.n_vertices == report.n_internal + 1
                assert report.degree_sum == report.n_external + 2 * report.n_internal
                assert report.chain_holds
                maximal = all(t.degree(v) == 3 for v in t.vertices)
                assert report.equality_throughout == maximal


def test_03_sphere_nets():
    with verdict(3, "sphere net sizes and net property on 10^4 samples"):
        sample = fibonacci_sphere_points(10**4)
        for gamma in (0.5, 1.0, 2.0):
            net = sphere_net(gamma)
            assert net.size <= math.floor(8.0 * math.pi / (gamma * gamma))
            cross = sphere_pairwise(sample, list(net.points))
            assert cross.min(axis=1).max() < gamma
            assert cross.min(axis=0).max() < gamma


def test_04_cluster_selection():
    with verdict(4, "cluster selection properties and unique retraction"):
        rng = random.Random(770)
        for _ in range(200):
            n = rng.randrange(1, 31)
            pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            space = FiniteMetricSpace.from_points(pts, lambda u, v: abs(u - v))
            a0 = 10 ** rng.uniform(-2.0, 0.5)
            ratio = rng.uniform(0.1, 0.5)  # consecutive scales differ by >= 2
            base = rng.randrange(n)
            net, retraction = cluster_select(space, lambda i: a0 * ratio**i, base)
            k = len(net)
            assert base in net
            for x, y in itertools.combinations(net, 2):
                assert space.distance(x, y) > a0 * ratio ** (k - 1)
            for x in range(n):
                y = retraction[x]
                assert y in net
                assert space.distance(x, y) <= a0 * ratio**k
                hits = [u for u in net if space.distance(x, u) <= a0 * ratio**k]
                assert hits == [y]
            for y in net:
                assert retraction[y] == y


def test_05_reduction_postconditions():
    with verdict(5, "reduction separation, diameter, cutoff and nearest point"):
        rng = random.Random(8101)
        base = 4.0 * EPS**3
        for _ in range(200):
            cfg = random_standard(rng, EPS, rng.randrange(2, 13))
            centers, retraction, rho_p, k = reduce(cfg, EPS)
            cutoff = base**k / (4.0 * EPS * EPS)
            for x, y in itertools.combinations(centers, 2):
                assert rho_p[x] + rho_p[y] <= 2.0 * EPS * abs(x - y) * (1 + 1e-12)
            clusters = {x: [] for x in centers}
            for z in cfg.points:
                x = retraction[z]
                clusters[x].append(z)
                assert abs(z - x) <= 4.0 * EPS * EPS * rho_p[x] * (1 + 1e-12)
                assert cfg.radius[z] <= 4.0 * EPS * rho_p[x] * (1 + 1e-12)
            for x in centers:
                assert rho_p[x] == max(cutoff, cfg.radius[x] / (4.0 * EPS))
                if len(clusters[x]) > 1:
                    assert rho_p[x] == cutoff
                probes = [
                    x + t * rho_p[x] * cmath.exp(2j * math.pi * j / 20.0)
                    for t in (0.2, 0.4, 0.6, 0.8, 0.99)
                    for j in range(20)
                ]
                for w in probes:
                    overall = min(abs(w - u) for u in cfg.points)
                    within = min(abs(w - u) for u in clusters[x])
                    assert overall == within


def test_06_association_end_to_end():
    with verdict(6, "tree association verifies and recovers bubble points"):
        rng = random.Random(8101)
        for _ in range(200):
            cfg = random_standard(rng, EPS, rng.randrange(2, 13))
            assoc = associate_tree(cfg, EPS)
            report = verify_association(cfg, assoc, EPS)
            assert report.ok, report.summary()
            seen = set()
            for e, z in assoc.edge_to_bubble.items():
                (v_e,) = assoc.tree.boundary[e]
                value = chart_position(assoc.point, assoc.root_vertex, v_e, e)
                assert abs(value - z) <= 1e-9 * max(1.0, abs(z))
                seen.add(z)
            assert seen == set(cfg.points)


def test_07_members_have_nonzero_discriminant():
    with verdict(7, "compact-subset members keep separated charts"):
        rng = random.Random(922)
        pool = list(enumerate_stable_rooted(5)) + [chain_tree(3, leaves=3)]
        for i in range(100):
            tree = pool[i % len(pool)]
            c = default_params(tree)
            p = random_member(tree, c, rng)
            assert abs(fiber_discriminant(p)) > 0.0
            for u, _, _, gap in position_gaps(p):
                assert abs(gap) > c.alpha_of(u)


def test_08_round_flat_metric_comparison():
    with verdict(8, "area-form ratio range and pullback finite differences"):
        for i in range(10):
            r = (i + 1) / 10.0
            for j in range(100):
                z = cmath.rect(r, 2.0 * math.pi * j / 100.0)
                got = round_flat_area_ratio(z)
                assert 1.0 - 1e-12 <= got <= 4.0 + 1e-12
                assert abs(got - 4.0 / (1.0 + abs(z) ** 2) ** 2) <= 1e-12
        tree = chain_tree(2)
        p = ModuliPoint(
            tree,
            {1: 0.012 + 0.004j},
            {
                (1, 1): (0.05, 0.01),
                (1, 2): (0.09, 0.004),
                (1, 3): (-0.09, 0.004),
                (2, 4): (0.04, 0.004),
                (2, 5): (-0.04, 0.004),
            },
        )
        h = 1e-5
        for s in (-0.8, -0.15, 0.0, 0.3, 0.9):
            up = neck_chart_values(p, 1, neck_param(p, 1, s + h, 0.7))
            dn = neck_chart_values(p, 1, neck_param(p, 1, s - h, 0.7))
            density = sum(abs((a - b) / (2.0 * h)) ** 2 for a, b in zip(up, dn))
            assert density == pytest.approx(neck_area_factor(p, 1, s), rel=1e-6)


def test_09_path_length_bounds():
    with verdict(9, "annulus and neck path length bounds"):
        rng = random.Random(3301)

        def annulus_end(delta):
            if delta == 0.0:
                z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
                return (z, 0j) if rng.random() < 0.5 else (0j, z)
            mod = math.exp(rng.uniform(math.log(delta * delta), 0.0))
            z = cmath.rect(mod, rng.uniform(0, 2 * math.pi))
            return z, delta * delta / z

        for _ in range(1000):
            delta = 0.0 if rng.random() < 0.3 else math.exp(
                rng.uniform(math.log(1e-3), math.log(0.9))
            )
            z, w = annulus_end(delta)
            z2, w2 = annulus_end(delta)
            path = annulus_path(delta, z, w, z2, w2)
            assert abs(path.path_z[0] - z) <= 1e-9
            assert abs(path.path_z[-1] - z2) <= 1e-9
            assert abs(path.path_w[0] - w) <= 1e-9
            assert abs(path.path_w[-1] - w2) <= 1e-9
            for a, b in zip(path.path_z, path.path_w):
                assert abs(a * b - delta * delta) <= 1e-9
            length = sum(
                abs(b - a) for a, b in zip(path.path_z, path.path_z[1:])
            ) + sum(abs(b - a) for a, b in zip(path.path_w, path.path_w[1:]))
            gap = max(abs(z - z2), abs(w - w2))
            assert length <= 8.0 * math.pi * gap + 1e-12

        tree = chain_tree(2)
        c = default_params(tree)
        for _ in range(100):
            p = random_member(tree, c, rng)
            big_r = -0.5 * math.log(abs(p.gamma_of(1)))
            q1 = neck_param(p, 1, rng.uniform(-big_r, big_r), rng.uniform(0, 2 * math.pi))
            q2 = neck_param(p, 1, rng.uniform(-big_r, big_r), rng.uniform(0, 2 * math.pi))
            path = neck_path(p, 1, q1, q2)
            assert path.round_length <= 16.0 * math.pi * path.endpoint_distance + 1e-12


def test_10_mapspace_cover_desk_scale():
    with verdict(10, "exhaustive Lipschitz families are covered tightly"):
        space_z = grid_space([0.0, 0.4, 0.9, 1.5])
        space_w = grid_space([0.0, 0.7, 1.6])
        for t_values in ([0.0], [0.0, 0.5]):
            space_t = grid_space(t_values)
            for lam, delta in itertools.product((1.0, 2.0), (0.4, 0.8)):
                family = []
                for t in range(space_t.n):
                    family.extend(all_lipschitz_maps(space_z, space_w, t, lam))
                cover = mapspace_cover(
                    space_t, space_z, space_w, family, lam=lam, delta=delta
                )
                covered = set()
                for cell in cover.sets:
                    covered |= set(cell)
                    for i, j in itertools.combinations(cell, 2):
                        d = mapspace_distance(
                            space_t, space_z, space_w, family[i], family[j]
                        )
                        assert d < 4.0 * delta
                assert covered == set(range(len(family)))
                bound = cover.net_t.size * (1 + cover.net_w.size) ** cover.net_z.size
                assert cover.count_bound == bound
                assert len(cover.sets) <= bound


def test_11_formula_reproduction():
    with verdict(11, "closed-form constants against big-float evaluation"):
        choice = choose_lambda(0.125, DEFAULT_CONSTANTS)
        assert choice.value == 7.0 / 4608.0
        assert choice.binding == "decay"
        lam = choice.value
        assert decoration_budget(0, lam * lam, lam, 12.0) == (12, 12.0)
        for mu, delta, lip in itertools.product((3, 4), (0.5, 1.0), (1.0, 2.0)):
            out = curve_cover_count(delta, mu, lip, DEFAULT_CONSTANTS, nu_k=1)
            d = mpmath.mpf(delta)
            w = mpmath.mpf(lip)
            cells = (mu - 1) * mpmath.log(4 / d**2)
            expo = mpmath.power(8 * mpmath.pi, mu) * (w / d) ** (2 * mu) * (mu + 1)
            oracle = cells + expo * mpmath.log1p(1 / d**4)
            assert out.total.ln == pytest.approx(float(oracle), rel=1e-9)


def test_12_pipeline_determinism(tmp_path, monkeypatch):
    with verdict(12, "pipeline artifacts are byte-identical across reruns"):
        monkeypatch.delenv("BUBBLETREE_SEED", raising=False)
        config = {
            "bubble": {
                "eps": 0.125,
                "points": [
                    {"z": [0.0, 0.0], "rho": 0.0},
                    {"z": [1e-05, 0.0], "rho": 0.0},
                    {"z": [0.125, 0.0], "rho": 0.0},
                ],
            },
            "seed": 17,
        }
        first = run_pipeline(config, tmp_path / "a")
        second = run_pipeline(config, tmp_path / "b")
        assert first.ok and second.ok
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 7
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
