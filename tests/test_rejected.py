"""Input validation of public constructors and functions: each rejected
input raises its error type with a message that names the fault."""

import math
import random

import pytest

from bubbletree.bubbles import AffineMap, ConcentrationProfile, EnergyMeasure
from bubbletree.curves import (
    UNIT_TARGETS,
    FiberBatch,
    FiberPoint,
    ModuliPoint,
    Region,
    classify,
    decorate,
    fiber_from_root,
    four_point_value,
    mobius_through,
    neck_chart_values,
    region_contains,
    section,
)
from bubbletree.errors import InputError, VerificationError
from bubbletree.nets import FiniteMetricSpace, ProjPoint, fibonacci_sphere_points
from bubbletree.trees import Marking, TreeError, reglue, split, tree_count_bound

from helpers import chain_tree, default_params, random_member

INF = ProjPoint(1.0, 0.0)
ONE_ATOM = EnergyMeasure(((0.0, 1.0),))


def chain_member():
    """A member of chain_tree(2), whose edge 1 joins vertex 1 to vertex 2."""
    tree = chain_tree(2)
    return random_member(tree, default_params(tree), random.Random(9))


def neck_values(root):
    """neck_chart_values on edge 1 of chain_member() at the point whose
    root value is root(p): infinity leaves the parent chart, and z_{1,1}
    puts the chart value at vertex 2 at exactly 0, outside the child's."""
    p = chain_member()
    return neck_chart_values(p, 1, fiber_from_root(p, root(p)))


def with_larger_tree_point(judge):
    """judge(p, c, q) for a chain_tree(3) member p, its params c, and a
    point q of a chain_tree(4) member, which has a coordinate at vertex 4."""
    rng = random.Random(4)
    small, big = chain_tree(3), chain_tree(4)
    q = fiber_from_root(random_member(big, default_params(big), rng), INF)
    c = default_params(small)
    return judge(random_member(small, c, rng), c, q)


def chain_member_with(gamma=None, zr=None):
    """ModuliPoint on chain_member()'s tree with its gamma and zr updated by
    these entries."""
    p = chain_member()
    return ModuliPoint(p.tree, {**p.gamma, **(gamma or {})}, {**p.zr, **(zr or {})})


def decorate_nan_point():
    """decorate on chain_member() with a marked point whose coordinate at
    every vertex is NaN."""
    p = chain_member()
    nan = ProjPoint(complex(math.nan, math.nan), 1.0)
    return decorate(p, [FiberPoint({v: nan for v in p.tree.vertices})], 60)


# the two pieces of chain_tree(2) cut at edge 1: the root piece, then vertex 2's
CHAIN_PIECES = split(chain_tree(2), Marking(), [1])
EXTRA_VERTEX = "fiber point has a coordinate at vertex 4, which the tree lacks"

REJECTED = {
    "energy-no-atoms": (
        lambda: EnergyMeasure(()), InputError, "energy measure needs at least one atom"),
    "energy-atom-not-finite": (
        lambda: EnergyMeasure(((complex(math.inf, 0.0), 1.0),)), InputError,
        "atoms must be finite"),
    "energy-zero-mass": (
        lambda: EnergyMeasure(((0.5, 0.0),)), InputError,
        "atom at (0.5+0j) has nonpositive mass 0.0"),
    "profile-candidate-not-finite": (
        lambda: ConcentrationProfile(ONE_ATOM, ((0.1, math.nan),), ()), InputError,
        "candidates must be finite"),
    "profile-negative-gradient": (
        lambda: ConcentrationProfile(ONE_ATOM, ((0.1, -1.0),), ()), InputError,
        "candidate at (0.1+0j) has negative gradient -1.0"),
    "profile-repeated-seed": (
        lambda: ConcentrationProfile(ONE_ATOM, (), (0.1, 0.1)), InputError,
        "seeds must be distinct"),
    "profile-seed-not-finite": (
        lambda: ConcentrationProfile(ONE_ATOM, (), (complex(0.0, math.inf),)), InputError,
        "seed infj is not finite"),
    "affine-zero-scale": (
        lambda: AffineMap(0.0, 0.0), InputError, "scale must be positive, got 0.0"),
    "section-internal-edge": (
        lambda: section(chain_member(), 1), InputError, "edge 1 is not external"),
    "region-unknown-kind": (
        lambda: Region("ring"), InputError, "unknown region kind 'ring'"),
    "neck-leaves-parent-chart": (
        lambda: neck_values(lambda p: INF), InputError,
        "point leaves the parent chart of the neck"),
    "neck-leaves-child-chart": (
        lambda: neck_values(lambda p: ProjPoint(p.z(1, 1), 1.0)), InputError,
        "point leaves the child chart of the neck"),
    "mobius-two-sources": (
        lambda: mobius_through(UNIT_TARGETS[:2], UNIT_TARGETS), InputError,
        "need exactly three source and three target points"),
    "four-point-three-points": (
        lambda: four_point_value(UNIT_TARGETS), InputError, "need exactly four points"),
    "fibonacci-no-points": (
        lambda: fibonacci_sphere_points(0), InputError, "need at least one sample point"),
    "space-not-square": (
        lambda: FiniteMetricSpace([[0.0, 1.0]]), InputError, "distance matrix must be square"),
    "tree-count-below-two": (
        lambda: tree_count_bound(1), TreeError, "need n >= 2"),
    "reglue-one-side-of-a-cut": (
        lambda: reglue(CHAIN_PIECES[:1]), TreeError,
        "cut edge 1 does not have both sides present"),
    "reglue-no-root-piece": (
        lambda: reglue([]), TreeError, "no piece carries the original root edge"),
    "projpoint-slot-overflows": (
        lambda: ProjPoint(1.3e308 + 1.3e308j, 1.0), InputError,
        "the modulus of slot x = (1.3e+308+1.3e+308j) is not a finite double"),
    "projpoint-slot-infinite": (
        lambda: ProjPoint(1.0, complex(0.0, -math.inf)), InputError,
        "the modulus of slot y = -infj is not a finite double"),
    "classify-extra-vertex": (
        lambda: with_larger_tree_point(classify), InputError, EXTRA_VERTEX),
    "region-contains-extra-vertex": (
        lambda: with_larger_tree_point(
            lambda p, c, q: region_contains(p, Region("thick", vertex=1), q)),
        InputError, EXTRA_VERTEX),
    "moduli-point-nan-gamma": (
        lambda: chain_member_with(gamma={1: math.nan}), InputError,
        "gamma[1] = (nan+0j) is not finite"),
    "moduli-point-infinite-rho": (
        lambda: chain_member_with(zr={(1, 1): (0.1, complex(0.0, math.inf))}), InputError,
        "rho[1,1] = infj is not finite"),
    "decorate-nan-marked-point": (
        decorate_nan_point, VerificationError, "point is off the fiber: residual nan"),
    "fiber-batch-extra-vertex": (
        lambda: with_larger_tree_point(lambda p, c, q: FiberBatch.of(p.tree, [q])),
        InputError, EXTRA_VERTEX),
}


@pytest.mark.parametrize("call, error, message", REJECTED.values(), ids=REJECTED)
def test_rejected_inputs_name_their_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
