import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubbletree.errors import InputError, ResourceCapError, VerificationError
from helpers import (
    all_lipschitz_maps,
    farthest_first_reference,
    gaussian_sphere_points,
    greedy_net_reference,
    grid_space,
    screen_cases,
    traversal_cases,
    triangle_failure_reference,
)
from bubbletree.nets import (
    EXACT_NU_CAP,
    _lower_screened,
    _sphere_lowering,
    FiberMap,
    FiniteMetricSpace,
    Net,
    ProjPoint,
    exact_nu,
    farthest_first,
    fibonacci_sphere_points,
    graph_hausdorff,
    greedy_net,
    hausdorff_from_matrix,
    hopf_units,
    mapspace_cover,
    mapspace_distance,
    minimal_net,
    sphere_distance,
    sphere_distances,
    sphere_net,
    sphere_pairwise,
    sphere_sample,
)

# Frozen sizes of the latitude-band nets at the radii exercised below.
SPHERE_NET_SIZES = {0.5: 60, 1.0: 19, 2.0: 2}


# ---------------------------------------------------------------------------
# independent oracle: geodesic length by numeric integration of the round
# line element 2|dz| / (1 + |z|^2) along the great-circle path
# ---------------------------------------------------------------------------


def _embed(z: complex):
    s = 1.0 + abs(z) ** 2
    return np.array([2.0 * z.real / s, 2.0 * z.imag / s, (2.0 - s) / s])


def _chart(v) -> complex:
    return complex(v[0], v[1]) / (1.0 + v[2])


def integrated_distance(z: complex, w: complex, steps: int = 20000) -> float:
    u, v = _embed(z), _embed(w)
    dot = float(np.clip(np.dot(u, v), -1.0, 1.0))
    omega = math.acos(dot)
    if omega == 0.0:
        return 0.0
    ts = np.linspace(0.0, 1.0, steps + 1)
    arc = (np.sin((1.0 - ts)[:, None] * omega) * u + np.sin(ts[:, None] * omega) * v) / math.sin(omega)
    zs = [_chart(p) for p in arc]
    total = 0.0
    for a, b in zip(zs, zs[1:]):
        mid = (a + b) / 2.0
        total += 2.0 * abs(b - a) / (1.0 + abs(mid) ** 2)
    return total


def brute_hausdorff(a, b, dist):
    d_ab = max(min(dist(x, y) for y in b) for x in a)
    d_ba = max(min(dist(x, y) for x in a) for y in b)
    return max(d_ab, d_ba)


def random_metric_space(rng, n, labels=None):
    # random points in the plane give a genuine metric
    pts = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
    return FiniteMetricSpace.from_points(pts, lambda p, q: abs(p - q))


def test_sphere_distance_antipodal_and_pole():
    assert sphere_distance(ProjPoint(1, 0), ProjPoint(0, 1)) == pytest.approx(math.pi)
    assert sphere_distance(ProjPoint(1, 1), ProjPoint(1, 0)) == pytest.approx(
        math.pi / 2
    )
    assert sphere_distance(ProjPoint(2, 2), ProjPoint(1, 1)) == 0.0


def test_sphere_distance_scale_invariance():
    p = ProjPoint(0.3 + 0.4j, 1.0)
    q = ProjPoint(-1.2, 0.5j)
    for c in (2.0, -3.5j, 0.1 + 0.9j):
        assert sphere_distance(ProjPoint(c * p.x, c * p.y), q) == pytest.approx(
            sphere_distance(p, q), abs=1e-14
        )


def test_sphere_distance_matches_integration_oracle():
    rng = random.Random(7)
    for _ in range(12):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) > 0.9 or abs(w) > 0.9 or abs(z - w) < 1e-3:
            continue
        direct = sphere_distance(ProjPoint.from_affine(z), ProjPoint.from_affine(w))
        assert direct == pytest.approx(integrated_distance(z, w), abs=1e-6)


def test_sphere_distance_triangle_inequality_bulk():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(10_000, 3, 4))
    for trip in raw:
        pts = [ProjPoint(complex(a, b), complex(c, d)) for a, b, c, d in trip]
        dab = sphere_distance(pts[0], pts[1])
        dbc = sphere_distance(pts[1], pts[2])
        dac = sphere_distance(pts[0], pts[2])
        assert dac <= dab + dbc + 1e-12


def test_metric_space_from_sphere_matches_sphere_distance():
    rng = random.Random(5)
    pts = [ProjPoint(1.0, 0.0), ProjPoint(0.0, 1.0)] + [
        ProjPoint(complex(rng.gauss(0, 1), rng.gauss(0, 1)), rng.uniform(-2, 2))
        for _ in range(10)
    ]
    space = FiniteMetricSpace.from_sphere(pts)
    assert space.n == len(pts)
    assert space.labels == tuple(pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert space.dist[i][j] == pytest.approx(sphere_distance(p, q), abs=1e-14)


def test_projpoint_normalized_form():
    p = ProjPoint(3 + 4j, 1 - 2j).normalized()
    assert max(abs(p.x), abs(p.y)) == pytest.approx(1.0)
    assert p.x == 1.0  # larger-modulus slot becomes exactly one
    q = ProjPoint(1, -5j).normalized()
    assert q.y == 1.0
    with pytest.raises(InputError):
        ProjPoint(0, 0)
    with pytest.raises(InputError):
        ProjPoint(1, 0).to_affine()


@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False),
    st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2, allow_nan=False),
)
# |x| == |y| exactly; rounding in c*x, c*y must not flip the dividing slot
@example(x=1 + 33j, y=33 + 1j, c=8 - 1.4647089725639546j)
def test_projpoint_normalization_scale_invariant(x, y, c):
    p = ProjPoint(x, y).normalized()
    q = ProjPoint(c * x, c * y).normalized()
    assert abs(p.x - q.x) <= 1e-9 * max(1.0, abs(p.x))
    assert abs(p.y - q.y) <= 1e-9 * max(1.0, abs(p.y))


def test_metric_space_validation():
    FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError):
        FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InputError):
        FiniteMetricSpace([[1.0]])  # nonzero diagonal
    with pytest.raises(InputError):
        FiniteMetricSpace([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InputError):
        # 0-5 at distance 1 through the middle but 5 direct: triangle fails
        FiniteMetricSpace(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
    with pytest.raises(InputError):
        FiniteMetricSpace(np.zeros((0, 0)))


def test_triangle_check_names_the_first_middle_point_like_the_loop():
    """Collinear and planar point metrics with one distance moved onto the
    tolerance edge of some triangle, or past it: the space is rejected
    exactly when the per-point loop fails, naming the same point."""
    rng = random.Random(16)
    seen = set()
    for trial in range(150):
        n = rng.randrange(3, 12)
        if trial % 2:
            pts = [complex(rng.uniform(-3.0, 3.0), 0.0) for _ in range(n)]
        else:
            pts = [complex(rng.gauss(0.0, 2.0), rng.gauss(0.0, 2.0)) for _ in range(n)]
        d = np.array([[abs(u - v) for v in pts] for u in pts])
        i, j, k = rng.sample(range(n), 3)
        tol = 1e-9 * max(1.0, float(d.max()))
        edge = (d[i, j] + d[j, k]) + tol
        for _ in range(rng.randrange(-2, 3)):
            edge = math.nextafter(edge, math.inf)
        d[i, k] = d[k, i] = rng.choice((edge, d[i, k], 2.0 * edge))
        expected = triangle_failure_reference(d)
        if expected is None:
            FiniteMetricSpace(d)
        else:
            with pytest.raises(InputError, match=f"through point {expected}$"):
                FiniteMetricSpace(d)
        seen.add(expected is None)
    assert seen == {True, False}


def test_hausdorff_basics():
    line = lambda a, b: np.abs(np.subtract.outer(a, b))
    assert hausdorff_from_matrix(line([0.0, 1.0], [0.0, 1.0])) == 0.0
    assert hausdorff_from_matrix(line([0.0], [0.0, 3.0])) == 3.0
    assert type(hausdorff_from_matrix(line([0.0], [0.0, 3.0]))) is float
    with pytest.raises(InputError):
        hausdorff_from_matrix(np.zeros((0, 1)))


def test_hausdorff_matches_bruteforce_oracle():
    rng = random.Random(19)
    space = random_metric_space(rng, 14)
    dist = lambda i, j: space.dist[i, j]
    for _ in range(30):
        a = rng.sample(range(space.n), rng.randint(1, space.n))
        b = rng.sample(range(space.n), rng.randint(1, space.n))
        d = space.dist[np.ix_(a, b)]
        assert hausdorff_from_matrix(d) == brute_hausdorff(a, b, dist)


@given(st.integers(0, 2**63), st.integers(2, 10), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_hausdorff_symmetry_and_identity(seed, na, nb):
    rng = random.Random(seed)
    space = random_metric_space(rng, 12)
    a = rng.sample(range(space.n), na)
    b = rng.sample(range(space.n), nb)
    ab = hausdorff_from_matrix(space.dist[np.ix_(a, b)])
    assert ab == hausdorff_from_matrix(space.dist[np.ix_(b, a)])
    assert hausdorff_from_matrix(space.dist[np.ix_(a, a)]) == 0.0


def test_greedy_net_single_point_when_radius_huge():
    rng = random.Random(5)
    space = random_metric_space(rng, 10)
    net = greedy_net(space, space.diameter() + 1.0)
    assert net.size == 1 and net.indices == (0,)


def test_greedy_net_covers_strictly():
    rng = random.Random(23)
    for _ in range(20):
        space = random_metric_space(rng, rng.randint(2, 18))
        gamma = rng.uniform(0.3, 4.0)
        net = greedy_net(space, gamma)
        # full-scan check of the strict covering property
        cov = max(min(space.dist[i, j] for j in net.indices) for i in range(space.n))
        assert cov < gamma
        assert net.covering_distance() == pytest.approx(cov)


def test_greedy_net_on_sphere_sample_meets_area_bound():
    sample = fibonacci_sphere_points(2000)
    net = greedy_net(sample, 1.0)
    assert net.size <= 25  # area bound floor(8 pi / gamma^2)
    assert net.covering_distance() < 1.0


def test_greedy_at_least_exact():
    rng = random.Random(31)
    for _ in range(10):
        space = random_metric_space(rng, 20)
        gamma = rng.uniform(0.5, 3.0)
        assert greedy_net(space, gamma).size >= exact_nu(space, gamma)


@pytest.mark.parametrize("space, start", traversal_cases())
def test_farthest_first_matches_reference(space, start):
    rows = []

    def lower(mind, i):
        rows.append(i)
        space.lower(mind, i)

    order = farthest_first_reference(space, start)
    assert list(farthest_first(lower, space.n, start)) == order
    # one row per point that has a successor
    assert rows == [j for j, _ in order[:-1]]
    if start == 0:
        for gamma in (0.3, 1.0, math.sqrt(2.0), 2.0, 10.0):
            prefix = itertools.takewhile(lambda jd: jd[1] >= gamma, order)
            assert greedy_net(space, gamma).indices == tuple(j for j, _ in prefix)


def test_farthest_first_reads_rows_lazily():
    space = grid_space([complex(x, y) for x in range(10) for y in range(10)])
    rows = []

    def lower(mind, i):
        rows.append(i)
        space.lower(mind, i)

    taken = list(itertools.islice(farthest_first(lower, space.n, 0), 4))
    assert len(taken) == 4 and len(rows) == 3


def test_exact_nu_small_cases():
    single = FiniteMetricSpace([[0.0]])
    assert exact_nu(single, 0.5) == 1
    pair = FiniteMetricSpace([[0.0, 5.0], [5.0, 0.0]])
    assert exact_nu(pair, 1.0) == 2
    assert exact_nu(pair, 6.0) == 1
    # strictness: radius equal to the separation still needs one per point
    assert exact_nu(pair, 5.0) == 2


def test_exact_nu_monotone_and_subset_bound():
    rng = random.Random(41)
    for _ in range(8):
        space = random_metric_space(rng, 15)
        g1 = rng.uniform(0.3, 2.0)
        g2 = g1 + rng.uniform(0.1, 2.0)
        assert exact_nu(space, g1) >= exact_nu(space, g2)
        idx = rng.sample(range(space.n), rng.randint(1, space.n))
        sub = FiniteMetricSpace(space.dist[np.ix_(idx, idx)], labels=idx)
        assert exact_nu(sub, 2 * g1) <= exact_nu(space, g1)


def test_exact_nu_cap():
    rng = random.Random(43)
    space = random_metric_space(rng, EXACT_NU_CAP + 1)
    with pytest.raises(ResourceCapError):
        exact_nu(space, 1.0)


def test_minimal_net_is_valid_net():
    rng = random.Random(47)
    space = random_metric_space(rng, 17)
    net = minimal_net(space, 1.2)
    assert net.covering_distance() < 1.2
    assert set(net.indices) <= set(range(space.n))


def test_union_bound_against_exact():
    rng = random.Random(53)
    for _ in range(6):
        space = random_metric_space(rng, 12)
        cut = rng.randint(1, 11)
        left = FiniteMetricSpace(space.dist[:cut, :cut], labels=range(cut))
        right = FiniteMetricSpace(space.dist[cut:, cut:], labels=range(cut, 12))
        gamma = rng.uniform(0.5, 3.0)
        bound = sum([exact_nu(left, gamma), exact_nu(right, gamma)])
        assert exact_nu(space, gamma) <= bound


def test_net_rejects_bad_cover():
    space = FiniteMetricSpace([[0.0, 5.0], [5.0, 0.0]])
    with pytest.raises(VerificationError):
        Net(radius=1.0, indices=(0,), base=space)
    with pytest.raises(InputError):
        Net(radius=-1.0, indices=(0,), base=space)


PAIR = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(points=(5,), indices=(0,)), "takes indices, not points"),
        (dict(indices=(-1,)), r"net index -1 is outside \[0, n\) for n = 2"),
        (dict(indices=(0, 0)), "net index 0 repeats for n = 2"),
        (dict(indices=()), "at least one index into its n = 2 points"),
        (dict(indices=(1.0,)), r"net indices \(1.0,\) are not integers \(n = 2\)"),
        (dict(indices=None), r"net indices None are not integers \(n = 2\)"),
    ],
    ids=["points-beside-indices", "negative", "repeated", "empty", "float", "none"],
)
def test_net_on_a_metric_space_rejects_bad_indices(kwargs, message):
    with pytest.raises(InputError, match=message):
        Net(radius=2.0, base=PAIR, **kwargs)


def test_net_on_a_sphere_sample_rejects_an_index_past_the_end():
    base = sphere_sample(fibonacci_sphere_points(50))
    with pytest.raises(InputError, match=r"net index 50 is outside \[0, n\) for n = 50"):
        Net(radius=1.0, indices=(0, 50), base=base)


def test_net_takes_points_only_without_a_base():
    net = Net(radius=2.0, indices=[1, np.int64(0)], base=PAIR)
    assert (net.indices, net.points) == ((1, 0), (1, 0))
    with pytest.raises(InputError, match="a net's base cannot be a list"):
        Net(radius=1.0, indices=(0,), base=list(fibonacci_sphere_points(3)))
    with pytest.raises(InputError, match="needs points and no indices"):
        Net(radius=1.0, indices=(0,), points=(ProjPoint(0.0, 1.0),))


@st.composite
def sphere_lists(draw):
    """1-12 sphere points with exact ties: small integer and free coordinates
    at scales from 2^-400 to 2^400, the poles 0 and infinity, copies of
    earlier points rescaled by a complex factor, and their antipodes."""
    part = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-2.0, 2.0).map(lambda v: v if abs(v) > 1e-6 else 0.0),
    )
    scale = st.sampled_from([2.0**-400, 1e-3, 1.0, 1e3, 2.0**400])
    kinds = ("new", "zero", "infinity", "copy", "antipode")
    pts = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        if kind == "zero":
            pts.append(ProjPoint(0.0, 1.0))
        elif kind == "infinity":
            pts.append(ProjPoint.infinity())
        elif kind == "copy" and pts:
            q, c = draw(st.sampled_from(pts)), draw(st.sampled_from([-1.0, 1j, 2.5 - 1j, 0.5]))
            pts.append(ProjPoint(q.x * c, q.y * c))
        elif kind == "antipode" and pts:
            q = draw(st.sampled_from(pts))
            pts.append(ProjPoint(-q.y.conjugate(), q.x.conjugate()))
        else:
            x, y = (complex(draw(part), draw(part)) for _ in range(2))
            s = draw(scale)
            pts.append(ProjPoint(x * s, y * s) if x or y else ProjPoint.infinity())
    return pts


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_net_on_a_sphere_sample_matches_brute_force(data):
    pts = data.draw(sphere_lists())
    n = len(pts)
    base = sphere_sample(pts)
    index = st.one_of(st.integers(-2, n + 1), st.just(0.0))
    idx = tuple(data.draw(st.lists(index, max_size=n + 1)))
    rule = data.draw(st.sampled_from(["at", "above", "half", "free"]))
    free = data.draw(st.floats(1e-3, 4.0))
    valid = all(type(i) is int and 0 <= i < n for i in idx) and 0 < len(set(idx)) == len(idx)
    if not valid:
        with pytest.raises(InputError):
            Net(radius=free, indices=idx, base=base)
        return
    # full base-first rows, called as the kernel calls sphere_distances:
    # numpy's complex products round by call shape as well as operand order
    xs, ys, ns = base.xs, base.ys, base.ns
    rows = [sphere_distances(xs, ys, ns, xs[j], ys[j], ns[j]) for j in idx]
    brute = float(np.min(rows, axis=0).max())
    radius = {"at": brute, "above": math.nextafter(brute, math.inf),
              "half": brute / 2.0, "free": free}[rule]
    if radius <= 0.0:
        radius = math.nextafter(0.0, math.inf)
    if brute >= radius:
        with pytest.raises(VerificationError):
            Net(radius=radius, indices=idx, base=base)
        return
    net = Net(radius=radius, indices=idx, base=base)
    assert net.points == tuple(pts[i] for i in idx)
    assert net.covering_distance().hex() == brute.hex()


def _hopf_exact(p):
    x, y = mpmath.mpc(p.x), mpmath.mpc(p.y)
    n2 = abs(x) ** 2 + abs(y) ** 2
    w = 2 * x * mpmath.conj(y) / n2
    return [w.real, w.imag, (abs(x) ** 2 - abs(y) ** 2) / n2]


def test_hopf_units_stay_within_their_documented_bounds():
    """hopf_units' docstring bounds a computed component by 16u (first two)
    and 22u (third), a computed vector by 32u, and the screen's dot product
    g by 67u of the exact cosine.  Against a 200-bit oracle on Gaussian
    points, their norms scaled by 2^+-500, coordinates 2^+-250 apart in
    size, the poles, rescaled copies and antipodes, with g over about
    10,000 pairs, the worst seen is 4.7u, 4.4u, 5.4u, 5.8u and 9.4u; the
    4u per component that an earlier margin proof claimed does not hold.
    On broadcast (n, 2) arrays, as curves._near_pairs passes them, each
    column gives the same bits."""
    u = 2.0**-53
    rng = random.Random(2002)
    gauss = gaussian_sphere_points(rng, 900)
    pts = gauss[:300]
    pts += [ProjPoint(p.x * s, p.y * s)
            for p in gauss[300:600] for s in [2.0 ** rng.choice((-500, 500))]]
    pts += [ProjPoint(p.x * 2.0**250, p.y * 2.0**-250) for p in gauss[600:750]]
    pts += [ProjPoint(p.x * 2.0**-250, p.y * 2.0**250) for p in gauss[750:]]
    pts += [ProjPoint(0.0, 1.0), ProjPoint.infinity(), ProjPoint(0.0, 3.0 - 4j)]
    pts += [ProjPoint(p.x * (2.5 - 1j), p.y * (2.5 - 1j)) for p in gauss[:50]]
    pts += [ProjPoint(-p.y.conjugate(), p.x.conjugate()) for p in gauss[:50]]
    mpmath.mp.prec = 200
    try:
        exact = [_hopf_exact(p) for p in pts]
        base = sphere_sample(pts)
        err = np.array(
            [[float(abs(c - e)) for c, e in zip(col, ex)]
             for col, ex in zip(base.u.T.tolist(), exact)]
        )
        worst_g = 0.0
        for i in [0, 900, 901, 902, 300, 650] + rng.sample(range(len(pts)), 4):
            g = (base.u[:, i] @ base.u).tolist()
            for k in range(len(pts)):
                cos = sum(a * b for a, b in zip(exact[i], exact[k]))
                worst_g = max(worst_g, float(abs(g[k] - cos)))
    finally:
        mpmath.mp.prec = 53
    assert np.all(err.max(axis=0) <= np.array([16, 16, 22]) * u)
    assert np.sqrt((err**2).sum(axis=1)).max() <= 32 * u
    assert worst_g <= 67 * u
    cols = [np.stack([a, a[::-1]], axis=1) for a in (base.xs, base.ys, base.ns)]
    wide = hopf_units(*cols)
    assert wide.shape == (3, len(pts), 2)
    assert wide[:, :, 0].tobytes() == base.u.tobytes()
    assert wide[:, ::-1, 1].tobytes() == base.u.tobytes()


@pytest.mark.parametrize("n, gamma", [(300, 0.5), (1000, 0.2), (2000, 0.1)])
def test_covering_distance_in_blocks_matches_full_matrix(n, gamma):
    pts = fibonacci_sphere_points(n)
    net = greedy_net(pts, gamma)
    full = sphere_pairwise(pts, list(net.points)).min(axis=1).max()
    assert net.covering_distance() == float(full)


SCREEN_CASES = screen_cases()


@pytest.mark.parametrize("pts, gamma", SCREEN_CASES.values(), ids=SCREEN_CASES.keys())
def test_screened_greedy_net_matches_unscreened_bits(pts, gamma):
    order, points, cov = greedy_net_reference(pts, gamma)
    net = greedy_net(pts, gamma)
    assert net.indices == tuple(j for j, _ in order)
    assert net.points == points
    assert net.covering_distance().hex() == cov.hex()


def test_screened_greedy_net_keeps_operand_orders():
    # the traversal measures centre against base and the covering check base
    # against net point; on one of these sets of 40 either swap shows
    rng = random.Random(2003)
    for _ in range(20):
        pts = gaussian_sphere_points(rng, 200)
        for gamma in (1.0, 0.3):
            order, _, cov = greedy_net_reference(pts, gamma)
            steps = farthest_first(_sphere_lowering(sphere_sample(pts)), len(pts), 0)
            assert list(itertools.islice(steps, len(order))) == list(order)
            assert greedy_net(pts, gamma).covering_distance().hex() == cov.hex()


@pytest.mark.parametrize("base_first", [False, True])
def test_screened_lowering_matches_full_rows(base_first):
    rng = random.Random(1985)
    pts = gaussian_sphere_points(rng, 400)
    base = sphere_sample(pts)
    mind = np.full(len(pts), math.inf)
    cosm = np.full(len(pts), -math.inf)
    want = mind.copy()
    for k in rng.sample(range(len(pts)), 120):
        _lower_screened(mind, cosm, base, k, base_first)
        if base_first:
            row = sphere_pairwise(pts, [pts[k]])[:, 0]
        else:
            row = sphere_pairwise([pts[k]], pts)[0]
        np.minimum(want, row, out=want)
        assert mind.tobytes() == want.tobytes()


def test_greedy_net_rejects_non_finite_coordinates():
    for bad in (ProjPoint(math.nan, 1.0), ProjPoint(math.inf, 1.0)):
        with pytest.raises(InputError, match="coordinates must be finite"):
            greedy_net(fibonacci_sphere_points(5) + [bad], 0.5)


def test_screened_covering_check_is_strict():
    poles = (ProjPoint(0.0, 1.0), ProjPoint.infinity())
    # caps strictly within pi/4 of a pole, and one equator point whose
    # computed distance to both poles is the same double r (about pi/2)
    caps = [p for p in fibonacci_sphere_points(400) if abs(p.x) < 0.4 or abs(p.x) > 2.5]
    base = sphere_sample(poles + tuple(caps) + (ProjPoint(1.0, 1.0),))
    r, r_inf = sphere_pairwise(base.labels[-1:], poles)[0]
    assert r == r_inf
    with pytest.raises(VerificationError):
        Net(radius=r, indices=(0, 1), base=base)
    net = Net(radius=math.nextafter(r, math.inf), indices=(0, 1), base=base)
    assert net.covering_distance() == r


def test_screened_covering_check_misses_no_dropped_point():
    pts = fibonacci_sphere_points(1500)
    net = greedy_net(pts, 0.2)
    for k in (0, 1, net.size // 2, net.size - 1):
        keep = [i for i in range(net.size) if i != k]
        with pytest.raises(VerificationError):
            Net(radius=0.2, indices=tuple(net.indices[i] for i in keep), base=net.base)


def test_greedy_net_memory_stays_bounded():
    """The traversal and the covering check lower n minima one centre at a
    time and never hold the (base, net) distance matrix: on 4000
    Fibonacci points at gamma 0.07 (1184 net points) the whole greedy_net
    peaked at 152.3 MB of traced allocations with the full (4000, 1184)
    complex matrix, and must stay under a tenth of that."""
    pts = fibonacci_sphere_points(4000)
    tracemalloc.start()
    try:
        net = greedy_net(pts, 0.07)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.size == 1184
    assert peak < 152.3e6 / 10


def test_sphere_net_caps_and_coverage():
    sample = fibonacci_sphere_points(10_000)
    for gamma, expected in SPHERE_NET_SIZES.items():
        net = sphere_net(gamma)
        assert net.size == expected
        assert net.size <= math.floor(8.0 * math.pi / gamma**2)
        d = sphere_pairwise(list(net.points), sample)
        assert hausdorff_from_matrix(d) < gamma  # strict, both directions


def test_sphere_net_degenerate_radii():
    assert sphere_net(4.0).size == 1
    assert sphere_net(2.0).size == 2
    with pytest.raises(InputError):
        sphere_net(0.0)


def graph_hausdorff_reference(space_z, space_w, a, b):
    ga, gb = list(zip(a.fiber, a.values)), list(zip(b.fiber, b.values))
    return brute_hausdorff(
        ga,
        gb,
        lambda p, q: max(space_z.dist[p[0], q[0]], space_w.dist[p[1], q[1]]),
    )


def test_graph_hausdorff_constant_offset():
    rng = random.Random(61)
    for _ in range(3):
        zs = [rng.uniform(-3, 3) for _ in range(12)]
        c = rng.uniform(0.01, 0.2)  # offset small so it dominates via z' = z
        space_z = grid_space(zs)
        space_w = grid_space([0.0, c])
        fiber = tuple(range(len(zs)))
        a = FiberMap(t=0, fiber=fiber, values=(0,) * len(zs))
        b = FiberMap(t=0, fiber=fiber, values=(1,) * len(zs))
        got = graph_hausdorff(space_z, space_w, a, b)
        assert got == graph_hausdorff_reference(space_z, space_w, a, b)
        assert got <= c + 1e-12


def test_graph_hausdorff_empty_graphs():
    space = grid_space([0.0, 1.0])
    empty = FiberMap(t=0, fiber=(), values=())
    point = FiberMap(t=0, fiber=(0,), values=(0,))
    assert graph_hausdorff(space, space, empty, empty) == 0.0
    assert graph_hausdorff(space, space, empty, point) == math.inf
    assert graph_hausdorff(space, space, point, empty) == math.inf


def test_graph_hausdorff_matches_bruteforce_oracle():
    rng = random.Random(71)
    for _ in range(40):
        space_z = random_metric_space(rng, rng.randint(1, 9))
        space_w = random_metric_space(rng, rng.randint(1, 9))
        members = []
        for _ in range(2):
            fiber = tuple(rng.sample(range(space_z.n), rng.randint(1, space_z.n)))
            values = tuple(rng.randrange(space_w.n) for _ in fiber)
            members.append(FiberMap(t=0, fiber=fiber, values=values))
        a, b = members
        got = graph_hausdorff(space_z, space_w, a, b)
        assert type(got) is float
        assert got == graph_hausdorff_reference(space_z, space_w, a, b)
        assert got == graph_hausdorff(space_z, space_w, b, a)
        space_t = random_metric_space(rng, 3)
        a_t = FiberMap(t=rng.randrange(3), fiber=a.fiber, values=a.values)
        b_t = FiberMap(t=rng.randrange(3), fiber=b.fiber, values=b.values)
        d = mapspace_distance(space_t, space_z, space_w, a_t, b_t)
        assert type(d) is float
        assert d == max(space_t.dist[a_t.t, b_t.t], got)


# ---------------------------------------------------------------------------
# map-space cover: exhaustive oracle over all Lipschitz maps
# ---------------------------------------------------------------------------


def test_mapspace_cover_single_member():
    space_t = FiniteMetricSpace([[0.0]])
    space_z = grid_space([0.0, 1.0])
    space_w = grid_space([0.0, 1.0, 2.0])
    member = FiberMap(t=0, fiber=(0, 1), values=(0, 1))
    cover = mapspace_cover(space_t, space_z, space_w, [member], lam=1.0, delta=0.4)
    assert cover.sets == ((0,),)
    assert mapspace_distance(space_t, space_z, space_w, member, member) == 0.0


def test_mapspace_cover_exhaustive_family():
    lam, delta = 2.0, 0.6
    space_t = FiniteMetricSpace([[0.0]])
    space_z = grid_space([0.0, 0.5, 1.0, 1.5])
    space_w = grid_space([0.0, 1.0, 2.0])
    family = all_lipschitz_maps(space_z, space_w, 0, lam)
    assert len(family) > 1
    cover = mapspace_cover(space_t, space_z, space_w, family, lam=lam, delta=delta)

    everything = set()
    for cell in cover.sets:
        everything |= set(cell)
        for i, j in itertools.combinations(cell, 2):
            d = mapspace_distance(space_t, space_z, space_w, family[i], family[j])
            assert d < 4.0 * delta
    assert everything == set(range(len(family)))
    assert len(cover.sets) <= cover.count_bound
    assert cover.count_bound == cover.net_t.size * (1 + cover.net_w.size) ** (
        cover.net_z.size
    )
    assert 0.0 < cover.gamma < delta


def test_mapspace_cover_varying_base():
    lam, delta = 1.0, 0.7
    space_t = grid_space([0.0, 0.25, 2.0])
    space_z = grid_space([0.0, 1.0])
    space_w = grid_space([0.0, 1.0])
    family = []
    for t in range(space_t.n):
        family.extend(all_lipschitz_maps(space_z, space_w, t, lam))
    cover = mapspace_cover(space_t, space_z, space_w, family, lam=lam, delta=delta)
    for cell in cover.sets:
        for i, j in itertools.combinations(cell, 2):
            d = mapspace_distance(space_t, space_z, space_w, family[i], family[j])
            assert d < 4.0 * delta


@pytest.mark.parametrize("steps_below", [1, 0, -1])
def test_mapspace_cover_gamma_is_delta_times_one_minus_two_to_the_minus_20(
    steps_below,
):
    # one net point covers two base points at distance gap < delta, so the
    # threshold is gap; gamma = delta (1 - 2^-20) must exceed it
    delta = 0.5
    gamma = delta * (1.0 - 2.0**-20)
    gap = gamma
    for _ in range(abs(steps_below)):
        gap = math.nextafter(gap, 0.0 if steps_below > 0 else delta)
    space_t = grid_space([0.0, gap])
    space_z = FiniteMetricSpace([[0.0]])
    member = FiberMap(t=0, fiber=(0,), values=(0,))
    args = (space_t, space_z, space_z, [member])
    if steps_below > 0:
        assert mapspace_cover(*args, lam=1.0, delta=delta).gamma == gamma
    else:
        with pytest.raises(VerificationError, match="no gamma below delta"):
            mapspace_cover(*args, lam=1.0, delta=delta)


def test_mapspace_cover_rejects_non_lipschitz():
    space_t = FiniteMetricSpace([[0.0]])
    space_z = grid_space([0.0, 0.1])
    space_w = grid_space([0.0, 5.0])
    bad = FiberMap(t=0, fiber=(0, 1), values=(0, 1))
    with pytest.raises(VerificationError) as info:
        mapspace_cover(space_t, space_z, space_w, [bad], lam=1.0, delta=0.5)
    assert "(0, 1)" in str(info.value)  # names the violating pair


def test_mapspace_cover_handles_empty_fiber():
    space_t = FiniteMetricSpace([[0.0]])
    space_z = grid_space([0.0, 1.0])
    space_w = grid_space([0.0, 1.0])
    empty = FiberMap(t=0, fiber=(), values=())
    full = FiberMap(t=0, fiber=(0, 1), values=(0, 1))
    cover = mapspace_cover(space_t, space_z, space_w, [empty, full], lam=1.0, delta=0.4)
    for cell in cover.sets:
        assert set(cell) in ({0}, {1})  # never mixed: that would break diameter


def test_fibermap_validation():
    with pytest.raises(InputError):
        FiberMap(t=0, fiber=(0, 0), values=(1, 1))
    with pytest.raises(InputError):
        FiberMap(t=0, fiber=(0, 1), values=(1,))


def test_fibonacci_points_are_spread():
    pts = fibonacci_sphere_points(500)
    d = sphere_pairwise(pts, pts)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0.05  # no collisions, roughly uniform
