"""Seeded input generators for the benchmark workloads.

Every generator is a fixed number of draws (no rejection loops), so it
terminates for every seed.  Two random streams are kept apart: a *shape*
stream, seeded by a fixed string per stratum, decides the combinatorics (how
many centres per level, which centre is expanded), and the run's *geometry*
stream decides positions, radii, rotations and probes.  Every seed therefore
sees the same mix of tree shapes, and the cost mix of a workload does not
drift with the seed; the seed still changes every number the library reads.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from bubbletree import bubbles, curves, nets, trees

EPS = 0.125
BASE = 4.0 * EPS**3
# Cluster offsets below this (in units of the outer disc) leave too few
# significant digits to place a nested cluster, so such a level goes flat.
SCALE_FLOOR = 1e-12


def _centres(geo: random.Random, k: int) -> list[complex]:
    """0, a modulus-one point, and k - 2 points spread round the annulus
    0.5 <= |z| <= 0.9; every pair is at least 0.28 apart for k <= 4."""
    phi = geo.uniform(0.0, 2.0 * math.pi)
    out = [0j, cmath.exp(1j * phi)]
    m = k - 2
    for j in range(m):
        step = 2.0 * math.pi / (m + 1)
        ang = phi + step * (j + 1 + geo.uniform(-0.15, 0.15))
        out.append(geo.uniform(0.5, 0.9) * cmath.exp(1j * ang))
    return out


def _flat_disc(geo: random.Random, k: int) -> list[complex]:
    """k points on a jittered sunflower in the unit disc, with 0 and a
    modulus-one point; neighbours are of order 1 / sqrt(k) apart."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    rot = geo.uniform(0.0, 2.0 * math.pi)
    pts = [0j]
    for j in range(1, k):
        r = math.sqrt((j + 0.5) / k) * (1.0 + geo.uniform(-0.05, 0.05) / math.sqrt(k))
        pts.append(min(r, 1.0) * cmath.exp(1j * (rot + j * golden)))
    far = max(range(1, k), key=lambda i: abs(pts[i]))
    pts[far] /= abs(pts[far])
    return pts


def _cloud(shape: random.Random, geo: random.Random, size: int, head: float) -> list[complex]:
    """Nested points in the unit disc: 2-4 centres per level, satellites
    inside 0.4 (4 eps^3)^k of their centre so that reduction stops at the k
    centres.  head is a lower bound on the level's absolute scale; it
    depends only on the shape stream, so the shape is seed-independent."""
    if size == 1:
        return [0j]
    k = min(size, shape.randint(2, 4))
    ladder = BASE**k / EPS
    if size > k and head * 0.2 * ladder < SCALE_FLOOR:
        k = size
    pts = _centres(geo, k) if k <= 4 else _flat_disc(geo, k)
    if k == size:
        return pts
    # the modulus-one point stays a leaf so the supremum stays pinned
    expandable = [i for i in range(k) if i != 1]
    counts = [1] * k
    for _ in range(size - k):
        counts[shape.choice(expandable)] += 1
    out = []
    for c, count in zip(pts, counts):
        if count == 1:
            out.append(c)
            continue
        radius = geo.uniform(0.2, 0.4) * ladder
        sub = _cloud(shape, geo, count, head * 0.2 * ladder)
        out.extend(c + radius * u for u in sub)
    return out


def _standard(
    geo: random.Random, unit_pts: list[complex], zero_radius: bool
) -> bubbles.BubbleConfiguration:
    """Scale into the eps disc, give every point a radius that keeps the
    pairwise bound, and renormalize to standard form."""
    pts = [EPS * z for z in unit_pts]
    radius = {}
    for z in pts:
        if zero_radius:
            radius[z] = 0.0
            continue
        gap = min(abs(z - q) for q in pts if q != z)
        radius[z] = geo.uniform(0.05, 0.999) * (EPS * EPS / 8.0) * gap
    cfg, _, _ = bubbles.renormalize(bubbles.BubbleConfiguration(tuple(pts), radius), EPS)
    if not bubbles.is_standard(cfg, EPS):
        raise RuntimeError("generator produced a non-standard configuration")
    return cfg


def nested_configuration(
    shape: random.Random, geo: random.Random, size: int
) -> bubbles.BubbleConfiguration:
    return _standard(geo, _cloud(shape, geo, size, 1.0), zero_radius=False)


def flat_configuration(
    geo: random.Random, size: int, zero_radius: bool = False
) -> bubbles.BubbleConfiguration:
    """One wide level: every point becomes a centre of the root vertex."""
    return _standard(geo, _flat_disc(geo, size), zero_radius)


def chain_tree(depth: int, leaves: int = 3) -> trees.RootedTree:
    """Vertices 1..depth on a path, each carrying `leaves` external edges."""
    boundary: dict[int, tuple[int, ...]] = {0: (1,)}
    nxt = 1
    for i in range(1, depth):
        boundary[nxt] = (i, i + 1)
        nxt += 1
    for i in range(1, depth + 1):
        for _ in range(leaves):
            boundary[nxt] = (i,)
            nxt += 1
    return trees.RootedTree(trees.Tree(list(range(1, depth + 1)), boundary), 0)


def chain_params(tree: trees.RootedTree) -> curves.CompactnessParams:
    return curves.CompactnessParams(
        theta=1 / 8, tau=0.5, alpha={v: 1e-6 for v in tree.vertices}
    )


def chain_member(
    geo: random.Random, tree: trees.RootedTree, c: curves.CompactnessParams
) -> curves.ModuliPoint:
    """A point of the compact subset: child centres on the circle of radius
    0.9 theta at jittered, evenly spread angles; rho log-uniform between
    alpha and the sibling-separation cap; gamma log-uniform in
    [1e-3 tau, tau]."""
    zr = {}
    for v in sorted(tree.vertices):
        kids = tree.child_edges(v)
        k = len(kids)
        centres = {
            e: 0.9 * c.theta * cmath.exp(2j * math.pi * (i + 0.4 * geo.uniform(-1, 1)) / k)
            for i, e in enumerate(kids)
        }
        if k > 1:
            gap = min(abs(centres[a] - centres[b]) for a in kids for b in kids if a != b)
            cap = min(2.0 * c.theta, 0.5 * c.tau * gap)
        else:
            cap = 2.0 * c.theta
        for e in kids:
            r = math.exp(geo.uniform(math.log(c.alpha_of(v)), math.log(cap)))
            zr[(v, e)] = (centres[e], r * cmath.exp(2j * math.pi * geo.random()))
    gamma = {
        e: c.tau
        * math.exp(geo.uniform(math.log(1e-3), 0.0))
        * cmath.exp(2j * math.pi * geo.random())
        for e in tree.full_edges
    }
    return curves.ModuliPoint(tree, gamma, zr)


def unit_vectors(points) -> np.ndarray:
    """Points of the projective line as unit vectors in R^3 (stereographic)."""
    x = np.array([p.x for p in points], dtype=complex)
    y = np.array([p.y for p in points], dtype=complex)
    xy = x * np.conj(y)
    ax, ay = np.abs(x) ** 2, np.abs(y) ** 2
    return np.stack([2 * xy.real, 2 * xy.imag, ax - ay], axis=1) / (ax + ay)[:, None]


def random_rotation(geo: random.Random) -> np.ndarray:
    """Uniform rotation of R^3 from a random unit quaternion."""
    q = np.array([geo.gauss(0.0, 1.0) for _ in range(4)])
    a, b, c, d = q / np.linalg.norm(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def from_unit_vectors(vecs: np.ndarray) -> list[nets.ProjPoint]:
    out = []
    for x, y, z in vecs:
        w = complex(x, y)
        if w == 0 and z >= 1.0:
            out.append(nets.ProjPoint.infinity())
        else:
            out.append(nets.ProjPoint(w, 1.0 - z))
    return out


def rotated_fibonacci(geo: random.Random, n: int) -> list[nets.ProjPoint]:
    """The library's Fibonacci sphere sample of n points, randomly rotated."""
    vecs = unit_vectors(nets.fibonacci_sphere_points(n))
    return from_unit_vectors(vecs @ random_rotation(geo).T)


def sphere_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distances between rows of two unit-vector arrays."""
    chord = np.sqrt(np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T, 0.0
    ))
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def covering_distance(base: np.ndarray, net: np.ndarray, block: int = 256) -> float:
    """max over base rows of the distance to the nearest net row.  Both
    arrays are walked in blocks, so no temporary exceeds block^2 floats
    (0.5 MB) and the check stays below the library's own peak memory."""
    worst = 0.0
    for i in range(0, len(base), block):
        rows = base[i : i + block]
        nearest = np.full(len(rows), np.inf)
        for j in range(0, len(net), block):
            np.minimum(nearest, sphere_distances(rows, net[j : j + block]).min(1), out=nearest)
        worst = max(worst, float(nearest.max()))
    return worst
