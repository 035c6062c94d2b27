"""The two benchmark workloads: strata, generated inputs, the timed
operation and the output check of each.

A workload is a cycle of strata (size or kind of input).  One operation is
one top-level call on one generated input; the timed loop runs whole cycles,
so every run holds the same number of operations of each stratum and the
latency percentiles land on the same strata whatever the seed.

``pipeline`` runs run_pipeline.  ``toolbox`` mixes three groups of direct
library calls in one cycle: ``associate`` (bubbles and finite metric
spaces), ``fibers`` (curves used for checking) and ``catalog`` (nets, trees
and bounds).

Library calls go through the module attribute (``curves.classify``, not a
name imported here), so the traced run sees them.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from bubbletree import bounds, bubbles, curves, jsonio, nets, pipeline, trees
from bubbletree.errors import InputError

import inputs
from inputs import EPS

# Stable rooted tree counts from an independent brute-force enumeration
# (labelled parent arrays deduplicated by a canonical form).
TREE_COUNTS = {2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90, 8: 261, 9: 766}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    """cycle(quick) lists the strata; make(stratum, geo) draws one input;
    run(input) is the timed call; check(input, output) raises CheckFailed
    on a wrong output."""

    def recheck(self) -> int:
        """Checks that run once after the timed loop; returns failures."""
        return 0


class Pipeline(Workload):
    """run_pipeline on nested standard configurations: the user's path
    through every layer, writing seven artifacts per run."""


    def __init__(self, tmp: Path):
        self.out = tmp / "pipeline"
        self.rerun = tmp / "rerun"
        self.sample: tuple[object, dict[str, bytes]] | None = None

    def cycle(self, quick: bool) -> list:
        sizes = (4, 6, 8) if quick else (8, 12, 16, 20, 24)
        return [(n, j) for n in sizes for j in range(3)]

    def make(self, stratum, geo: random.Random):
        n, j = stratum
        cfg = inputs.nested_configuration(random.Random(f"pipeline:{n}:{j}"), geo, n)
        config = {"bubble": jsonio.bubble_to_json(cfg, EPS), "delta": 0.5}
        return config, geo.randrange(2**31)

    def run(self, inp):
        config, seed = inp
        return pipeline.run_pipeline(config, self.out, seed=seed)

    def _artifacts(self, report, where: Path) -> dict[str, bytes]:
        names = [a for s in report.stages for a in s.artifacts]
        return {a: (where / a).read_bytes() for a in names}

    def check(self, inp, report) -> None:
        require(report.ok, f"pipeline failed: {report.stages[-1].detail}")
        files = self._artifacts(report, self.out)
        require(len(files) == 7, f"{len(files)} artifacts instead of 7")
        if self.sample is None:
            self.sample = (inp, files)

    def recheck(self) -> int:
        """Rerun the first checked operation outside the timed loop; its
        artifacts must come back byte-identical.  Returns the failures."""
        if self.sample is None:
            return 0
        (config, seed), files = self.sample
        report = pipeline.run_pipeline(config, self.rerun, seed=seed)
        return 0 if report.ok and self._artifacts(report, self.rerun) == files else 1


class Associate(Workload):
    """associate_tree + verify_association on flat configurations: the
    bubbles / finite-metric path, with no curve decoration and no JSON."""


    def cycle(self, quick: bool) -> list:
        if quick:
            return [8, 16, 24]
        # two inputs at n = 128: in the toolbox cycle they hold the 90th
        # percentile, at least 1.4x from the strata above and below, so the
        # percentile does not flip between strata as the machine drifts
        return [32, 64, 96, 128, 128, 150]

    def make(self, n, geo: random.Random):
        return inputs.flat_configuration(geo, n)

    def run(self, cfg):
        assoc = bubbles.associate_tree(cfg, EPS)
        return assoc, bubbles.verify_association(cfg, assoc, EPS)

    def check(self, cfg, out) -> None:
        assoc, report = out
        require(report.ok, report.summary())
        mapped = list(assoc.edge_to_bubble.values())
        require(
            len(mapped) == cfg.size and set(mapped) == set(cfg.points),
            "edges do not map onto the bubble points",
        )


PROBES = 48


class Fibers(Workload):
    """Membership, discriminant, decomposition, region classification and
    the sampled map check on compact-subset members of chain trees: curves
    used for checking rather than constructing."""


    def cycle(self, quick: bool) -> list:
        if quick:
            return [3, 4, 5]
        # two members per depth: in the toolbox cycle the fibers group then
        # holds the median latency, so the scalar check path moves op_p50_ms
        return [d for d in range(4, 11) for _ in range(2)]

    def make(self, depth, geo: random.Random):
        tree = inputs.chain_tree(depth)
        c = inputs.chain_params(tree)
        p = inputs.chain_member(geo, tree, c)
        if not curves.in_compact_subset(p, c).ok:
            raise RuntimeError("generator produced a non-member")
        roots = [
            math.sqrt(geo.random()) * complex(math.cos(a), math.sin(a))
            for a in (geo.uniform(0.0, 2.0 * math.pi) for _ in range(PROBES // 2))
        ]
        necks = []
        full = tree.full_edges
        for i in range(PROBES - len(roots)):
            e = full[i % len(full)]
            half = -0.5 * math.log(abs(p.gamma_of(e)))
            necks.append((e, geo.uniform(-0.9, 0.9) * half, geo.uniform(0.0, 2 * math.pi)))
        regions = (
            [curves.Region("thick", vertex=v) for v in tree.vertices]
            + [curves.Region("neck", edge=e) for e in tree.full_edges]
            + [curves.Region("end", edge=e) for e in tree.half_edges]
        )
        # generous budgets: the sampled map below is the projection to the
        # root component, whose sampled ratios stay near 1
        lam = {r: 1.0 for r in regions}
        return p, c, roots, necks, lam

    def run(self, inp):
        p, c, roots, necks, lam = inp
        member = curves.in_compact_subset(p, c)
        disc = curves.fiber_discriminant(p)
        dec = curves.decomposition(p, c)
        samples = [curves.fiber_from_root(p, nets.ProjPoint.from_affine(z)) for z in roots]
        samples += [curves.neck_param(p, e, s, t) for e, s, t in necks]
        hits = [curves.classify(p, c, q) for q in samples]
        root = p.tree.root_vertex
        target = nets.FiniteMetricSpace.from_sphere([q.at(root) for q in samples])
        smap = curves.SampledMap(target, tuple((q, i) for i, q in enumerate(samples)))
        verdict = curves.check_map_membership(
            p, c, smap, range(len(samples)), 1.0, lam, 10.0, trees.Marking()
        )
        return member, disc, dec, hits, verdict

    def check(self, inp, out) -> None:
        p = inp[0]
        member, disc, dec, hits, verdict = out
        require(member.ok, f"member rejected: {member.first_violation}")
        require(math.isfinite(abs(disc)), "discriminant is not finite")
        t = p.tree
        require(
            len(dec.regions) == len(t.vertices) + len(t.full_edges) + len(t.half_edges),
            "decomposition region count",
        )
        require(all(hits), "a probe escaped the decomposition")
        require(not verdict.rejected, verdict.summary())


class Catalog(Workload):
    """Self-contained toolbox calls: nets on the sphere, map-space covers,
    tree enumeration and the bounds formulas."""


    def cycle(self, quick: bool) -> list:
        if quick:
            return [("greedy", 500, 0.3), ("sphere", 0.2), ("cover", 3, 2),
                    ("trees", 5), ("bounds", 1.0)]
        return [
            ("greedy", 2000, 0.1), ("greedy", 4000, 0.15), ("greedy", 8000, 0.2),
            ("greedy", 8000, 0.1),
            ("sphere", 0.05), ("sphere", 0.03),
            ("cover", 4, 3), ("cover", 4, 4), ("cover", 5, 3),
            ("trees", 7), ("trees", 9),
            ("bounds", 0.2), ("bounds", 1.0), ("bounds", 3.0),
        ]

    def make(self, stratum, geo: random.Random):
        kind = stratum[0]
        if kind == "greedy":
            _, n, gamma = stratum
            pts = inputs.rotated_fibonacci(geo, n)
            return kind, (pts, gamma), inputs.unit_vectors(pts)
        if kind == "sphere":
            # the net is explicit; the seed draws the spot-check sample
            check = inputs.random_rotation(geo) @ inputs.unit_vectors(
                nets.fibonacci_sphere_points(256)
            ).T
            return kind, (stratum[1],), check.T
        if kind == "cover":
            return kind, _cover_instance(geo, stratum[1], stratum[2]), None
        if kind == "trees":
            return kind, (stratum[1],), None
        return kind, _bounds_instance(geo, stratum[1]), None

    def run(self, inp):
        kind, args, _ = inp
        if kind == "greedy":
            return nets.greedy_net(*args)
        if kind == "sphere":
            return nets.sphere_net(*args)
        if kind == "cover":
            return nets.mapspace_cover(*args)
        if kind == "trees":
            return trees.enumerate_stable_rooted(*args)
        return bounds_sweep(*args)

    def check(self, inp, out) -> None:
        kind, args, extra = inp
        if kind in ("greedy", "sphere"):
            gamma = args[-1]
            net = inputs.unit_vectors(out.points)
            require(inputs.covering_distance(extra, net) < gamma, f"{kind} net misses a point")
        elif kind == "cover":
            family = args[3]
            covered = set().union(*map(set, out.sets))
            require(covered == set(range(len(family))), "cells miss a member")
            require(len(out.sets) <= out.count_bound, "more cells than the bound")
            require(0.0 < out.gamma < args[5], "cover scale outside (0, delta)")
        elif kind == "trees":
            n = args[0]
            require(len(out) == TREE_COUNTS[n], f"{len(out)} classes for n = {n}")
            require(all(t.is_stable() for t in out), "an enumerated tree is unstable")
        else:
            require(all(math.isfinite(v) for v in out), "a bound is not finite")


def _cover_instance(geo: random.Random, nz: int, nw: int):
    """Grid spaces with jittered spacing and every 2-Lipschitz map from the
    domain grid to the codomain grid.  Steps of 0.5 and 0.77 keep every
    Lipschitz test at least 0.15 from equality, so the jitter never changes
    which maps belong to the family, and the cost of a stratum is fixed."""
    zs, ws = [0.0], [0.0]
    for _ in range(nz - 1):
        zs.append(zs[-1] + geo.uniform(0.495, 0.505))
    for _ in range(nw - 1):
        ws.append(ws[-1] + geo.uniform(0.765, 0.775))
    line = lambda a, b: abs(a - b)
    space_t = nets.FiniteMetricSpace([[0.0]])
    space_z = nets.FiniteMetricSpace.from_points(zs, line)
    space_w = nets.FiniteMetricSpace.from_points(ws, line)
    lam = 2.0
    family = []
    for code in range(nw**nz):
        values = [(code // nw**i) % nw for i in range(nz)]
        if all(
            space_w.dist[values[i], values[j]] <= lam * space_z.dist[i, j]
            for i in range(nz)
            for j in range(i + 1, nz)
        ):
            family.append(nets.FiberMap(t=0, fiber=tuple(range(nz)), values=tuple(values)))
    return space_t, space_z, space_w, family, lam, 0.6


def _bounds_instance(geo: random.Random, area_factor: float):
    return (
        geo.uniform(0.05, 0.125),  # eps
        geo.uniform(0.3, 0.9),  # delta
        area_factor,  # area in units of lambda^2; sets the decoration budget
        geo.randint(3, 12),  # mu
        10.0 ** geo.uniform(0.0, 2.0 + 10.0 * (area_factor > 1.0)),  # Lambda_sup
        geo.uniform(0.05, 1.0),  # sphere net gamma
    )


def bounds_sweep(eps, delta, area_factor, mu, lam_sup, gamma) -> list[float]:
    """Every bounds formula once, with the pipeline's fallback from the
    count to its iterated log when the count leaves log space."""
    g = bounds.DEFAULT_CONSTANTS
    lam = bounds.choose_lambda(eps, g).value
    m, log_lip = bounds.decoration_budget(0, area_factor * lam * lam, lam, g.c_abs)
    try:
        total = bounds.total_cover_count(delta, g, 1, bounds.LogNumber(log_lip), m, 0).log10
    except InputError:
        total = bounds.total_cover_loglog(delta, g, 1, bounds.LogNumber(log_lip), m, 0)
    try:
        curve = bounds.curve_cover_count(delta, mu, lam_sup, g, 1).total.log10
    except InputError:
        curve = bounds.curve_cover_loglog(delta, mu, lam_sup, g, 1)
    exact, weak = bounds.sphere_net_bound(gamma)
    cells = bounds.mapspace_count(1 + mu, 2 + mu, m).log10
    return [lam, log_lip, total, curve, exact, weak, cells]


GROUPS = ("associate", "fibers", "catalog")


class Toolbox(Workload):
    """One cycle through the strata of three groups of direct library calls;
    an input is tagged with its group, which runs and checks it."""

    def __init__(self):
        self.groups = dict(zip(GROUPS, (Associate(), Fibers(), Catalog())))

    def cycle(self, quick: bool) -> list:
        return [(name, s) for name, g in self.groups.items() for s in g.cycle(quick)]

    def make(self, stratum, geo: random.Random):
        name, s = stratum
        return name, self.groups[name].make(s, geo)

    def run(self, inp):
        name, x = inp
        return self.groups[name].run(x)

    def check(self, inp, out) -> None:
        name, x = inp
        self.groups[name].check(x, out)


def make_workload(name: str, tmp: Path) -> Workload:
    return Pipeline(tmp) if name == "pipeline" else Toolbox()
