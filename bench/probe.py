"""Range probe: inputs inside the documented range on which the library
is known to fail (ROADMAP open item 2).  It runs outside the timed loops
and reports counts, not gates, so a fix shows as a count dropping to zero
rather than as a latency change."""

from __future__ import annotations

import random
from pathlib import Path

from bubbletree import bubbles, curves, jsonio, pipeline
from bubbletree.errors import InputError, ResourceCapError, VerificationError

import inputs
from inputs import EPS

TYPED = (InputError, VerificationError, ResourceCapError)


def range_probe(geo: random.Random, out_dir: Path) -> dict[str, int]:
    bubbles_fail = 0
    # flat standard configurations past 153 points: the scale ladder
    # (4 eps^3)^i underflows to 0 at i = 154
    for n in (160, 200):
        try:
            bubbles.associate_tree(inputs.flat_configuration(geo, n), EPS)
        except TYPED:
            bubbles_fail += 1
    curves_fail = 0
    # flat configurations of >= 6 zero-radius points: decoration anchors
    # sit closer than the absolute 1e-9 collision test
    for n in (6, 8):
        cfg = inputs.flat_configuration(geo, n, zero_radius=True)
        config = {"bubble": jsonio.bubble_to_json(cfg, EPS), "delta": 0.5}
        if not pipeline.run_pipeline(config, out_dir, seed=0).ok:
            curves_fail += 1
    # a chain member at depth 12: the discriminant underflows to exactly 0
    tree = inputs.chain_tree(12)
    p = inputs.chain_member(geo, tree, inputs.chain_params(tree))
    try:
        if curves.fiber_discriminant(p) == 0:
            curves_fail += 1
    except TYPED:
        curves_fail += 1
    return {"bubbles.range_fail": bubbles_fail, "curves.range_fail": curves_fail}
