"""Input validation of public constructors and functions: each rejected
input raises its error type with a message that names the fault."""

import math
import random

import pytest

from bubbletree.bubbles import AffineMap, ConcentrationProfile, EnergyMeasure
from bubbletree.curves import (
    UNIT_TARGETS,
    Region,
    fiber_from_root,
    four_point_value,
    mobius_through,
    neck_chart_values,
    section,
)
from bubbletree.errors import InputError
from bubbletree.nets import FiniteMetricSpace, ProjPoint, fibonacci_sphere_points
from bubbletree.trees import TreeError, tree_count_bound

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
}


@pytest.mark.parametrize("call, error, message", REJECTED.values(), ids=REJECTED)
def test_rejected_inputs_name_their_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
