"""JSON round trips for every data type, plus the SVG figure output."""

import json
import math
import os
import random
import stat
import threading
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletree.bounds import DEFAULT_CONSTANTS, GeometryConstants
from bubbletree.bubbles import (
    BubbleConfiguration,
    associate_tree,
    association_params,
)
from bubbletree.curves import FiberBatch, decomposition, in_compact_subset
from bubbletree.errors import InputError
from bubbletree.jsonio import (
    association_from_json,
    association_to_json,
    bubble_from_json,
    bubble_to_json,
    complex_from_json,
    complex_to_json,
    constants_from_json,
    constants_to_json,
    decomposition_svg,
    decomposition_to_json,
    dumps,
    int_field,
    load_json,
    number_field,
    membership_to_json,
    moduli_from_json,
    moduli_to_json,
    params_from_json,
    params_to_json,
    require_key,
    space_from_json,
    tree_from_json,
    tree_to_json,
    write_json,
    write_text,
)
from bubbletree.nets import FiniteMetricSpace
from bubbletree.trees import Marking

from helpers import (
    assert_tree_facts,
    chain_tree,
    default_params,
    random_member,
    star_tree,
)

BASE_POINTS = (0j, 0.125 + 0j)
TWO_LEVEL_POINTS = (0j, 1e-05 + 0j, 0.125 + 0j)


def config_of(points):
    return BubbleConfiguration(points, {z: 0.0 for z in points})


def reload(data):
    # through actual text, so only JSON-representable structure survives
    return json.loads(dumps(data))


def test_dumps_is_deterministic():
    a = dumps({"b": 1, "a": [2.5, {"y": 0, "x": 1}]})
    b = dumps({"a": [2.5, {"x": 1, "y": 0}], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": math.nan})
    with pytest.raises(ValueError):
        dumps({"x": math.inf})


def stdlib_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1e16, 0.1]),
    finite.map(np.float64),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u4e2d\U0001f600", "a\"b\\c"]),
)
number_keys = st.one_of(st.integers(), finite, st.booleans())
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(number_keys, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_dumps_matches_stdlib_indented_output(obj):
    assert dumps(obj) == stdlib_dumps(obj)


def test_dumps_matches_stdlib_on_edge_cases():
    for obj in ([], {}, (), [[], {}, ()], {"": [()]}, -0.0, "\u2028", {1.5: 0, 1: 1, True: 2}):
        assert dumps(obj) == stdlib_dumps(obj)


BATCH_VERTICES = (0, 1, 2, 9, 10, 11, 25, 100)


def batch_rows(batch):
    """The point objects a FiberBatch stands for, read from its arrays."""
    return [
        {
            str(v): [[x.real, x.imag], [y.real, y.imag]]
            for v, x, y in zip(batch.vertices, xrow, yrow)
        }
        for xrow, yrow in zip(batch.xs.tolist(), batch.ys.tolist())
    ]


def random_batch(rng, rows):
    # -0.0, the subnormal 5e-324, and the exponent switches of repr at 1e16
    # and 1e-4 / 1e-5 / 1e-7
    special = [0.0, -0.0, 1.0, 5e-324, -5e-324, 1e16, 9999999999999998.0,
               1e-7, 1e-4, 1e-5, -0.1, 1e308, -2.5e-310]
    shape = (rows, len(BATCH_VERTICES))

    def part():
        values = [rng.choice(special + [rng.uniform(-1, 1)]) for _ in range(xs.size)]
        return np.array(values).reshape(shape)

    xs, ys = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    xs.real, xs.imag, ys.real, ys.imag = part(), part(), part(), part()
    return FiberBatch(BATCH_VERTICES, xs, ys)


def test_dumps_writes_a_fiber_batch_like_stdlib():
    rng = random.Random(31)
    for rows in (0, 1, 2, 7):
        batch = random_batch(rng, rows)
        plain = batch_rows(batch)
        # at the top, as a dict value, and nested deeper, so every indent
        # of the template is exercised
        payloads = [
            (batch, plain),
            ({"m": rows, "count": len(batch), "points": batch},
             {"m": rows, "count": rows, "points": plain}),
            ({"a": [1.5, {"deep": [batch]}], "b": batch},
             {"a": [1.5, {"deep": [plain]}], "b": plain}),
        ]
        for obj, want in payloads:
            assert dumps(obj) == stdlib_dumps(want)
    assert dumps(random_batch(rng, 0)) == "[]\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_non_finite_batch_values_like_stdlib(bad):
    batch = random_batch(random.Random(32), 3)
    batch.ys.imag[1, 4] = bad
    with pytest.raises(ValueError) as ours:
        dumps({"points": batch})
    with pytest.raises(ValueError) as theirs:
        stdlib_dumps({"points": batch_rows(batch)})
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "obj, error",
    [
        (math.nan, ValueError),
        ([1.0, -math.inf], ValueError),
        ({"x": np.float64("inf")}, ValueError),
        ({math.nan: 1}, ValueError),
        (np.int64(3), TypeError),
        ({"x": [object()]}, TypeError),
        ({(1, 2): 0}, TypeError),
        ({1: 0, "a": 1}, TypeError),
    ],
)
def test_dumps_raises_like_stdlib(obj, error):
    with pytest.raises(error) as ours:
        dumps(obj)
    with pytest.raises(error) as theirs:
        stdlib_dumps(obj)
    assert str(ours.value) == str(theirs.value)


def test_complex_round_trip():
    for z in (0j, 1 + 2j, -0.5 + 0.25j, 1e-300 - 3e7j):
        assert complex_from_json(complex_to_json(z)) == z


def test_complex_from_json_rejects_malformed():
    for bad in ([1.0], [1.0, 2.0, 3.0], "1+2j", {"re": 1, "im": 2}, [1.0, "x"]):
        with pytest.raises(InputError):
            complex_from_json(bad, "spot")


def test_int_field_accepts_integers_and_integral_floats():
    for value, want in ((3, 3), (-2, -2), (0.0, 0), (7.0, 7), (1e20, 10**20)):
        got = int_field(value, "spot")
        assert got == want and type(got) is int
    for bad in (True, False, "3", 2.5, -0.1, math.inf, math.nan, None, [1]):
        with pytest.raises(InputError, match="spot must be an integer"):
            int_field(bad, "spot")


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_json(bad)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_non_finite_tokens(tmp_path, token):
    # json.loads accepts these, but JSON has no such numbers
    target = tmp_path / "config.json"
    target.write_text(f'{{"delta": {token}}}')
    with pytest.raises(InputError, match=f"is not valid JSON: {token} is not a JSON number"):
        load_json(target)


def test_number_field_is_the_one_reader_of_numbers():
    for value, want in ((3, 3.0), (-2.5, -2.5), (0, 0.0)):
        got = number_field(value, "spot")
        assert got == want and type(got) is float
    for bad in (True, "3", None, [1.0]):
        with pytest.raises(InputError, match="^spot must be a number$"):
            number_field(bad, "spot")
    with pytest.raises(InputError, match=r"^alpha\['1'\] must be a number$"):
        params_from_json({"theta": 0.125, "tau": 0.5, "alpha": {"1": "x"}})
    with pytest.raises(InputError, match="^constant 'C' must be a number$"):
        constants_from_json({"C": True})
    # require_key reads float fields through it
    for bad in (True, "0.1", None):
        with pytest.raises(InputError, match=r"^spot\['x'\] must be a number$"):
            require_key({"x": bad}, "x", float, "spot")
    got = require_key({"x": 1}, "x", float, "spot")
    assert got == 1.0 and type(got) is float


def test_write_json_round_trip(tmp_path):
    payload = {"z": [1.5, -2.25], "k": 3}
    target = tmp_path / "out.json"
    write_json(target, payload)
    assert load_json(target) == payload


def test_write_text_writes_through_a_fifo(tmp_path):
    # only a regular file is replaced; a FIFO (or a device) stays in place
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    write_text(fifo, "through\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["through\n"]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


@pytest.mark.parametrize(
    "tree", [star_tree(2), star_tree(4), chain_tree(2), chain_tree(3, leaves=3)]
)
def test_tree_round_trip(tree):
    data = reload(tree_to_json(tree))
    back, marking = tree_from_json(data)
    assert_tree_facts(back)
    assert back.vertices == tree.vertices
    assert back.boundary == tree.boundary
    assert back.root_edge == tree.root_edge
    expected = Marking(frozenset(
        e for e in tree.edges
        if len(tree.boundary[e]) == 1 and e != tree.root_edge
    ))
    assert marking == expected
    assert tree_to_json(back, marking) == data


def test_tree_from_json_rejects_bad_input():
    good = tree_to_json(star_tree(2))
    for key in ("vertices", "edges", "root_edge"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(InputError):
            tree_from_json(broken)
    dangling = {
        "vertices": [0],
        "edges": [{"id": 0, "endpoints": [0]}, {"id": 1, "endpoints": [0, 5]}],
        "root_edge": 0,
        "marked": [],
    }
    with pytest.raises(InputError):
        tree_from_json(dangling)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"vertices": [1, 1]}, "tree vertex 1 appears twice"),
        ({"marked": [2, 1, 2]}, "tree marked edge 2 appears twice"),
        (
            {"edges": [{"id": e, "endpoints": [1]} for e in (0, 1, 2, 1)]},
            "tree edge 1 appears twice",
        ),
    ],
)
def test_tree_from_json_rejects_repeated_ids(change, message):
    data = {**tree_to_json(star_tree(2)), **change}
    with pytest.raises(InputError) as exc:
        tree_from_json(data)
    assert str(exc.value) == message


def test_space_round_trip():
    space = FiniteMetricSpace.from_points(
        [0.0, 1.0, 2.5, 4.0], lambda a, b: abs(a - b)
    )
    back = space_from_json(
        reload({"n": space.n, "dist": [[float(x) for x in row] for row in space.dist]})
    )
    assert back.n == space.n
    assert np.array_equal(back.dist, space.dist)


def test_space_from_json_rejects_bad_matrix():
    with pytest.raises(InputError):
        space_from_json({"n": 2, "dist": [[0.0, 1.0]]})
    with pytest.raises(InputError):
        space_from_json({"n": 2, "dist": [[0.0, 1.0], [2.0, 0.0]]})


@pytest.mark.parametrize(
    "dist, message",
    [
        ([[0, True], [True, 0]], "metric space dist[0][1] must be a number"),
        ([[0, "1"], ["1", 0]], "metric space dist[0][1] must be a number"),
        ([[0, 1], [[1], 0]], "metric space dist[1][0] must be a number"),
        ([[None, 1], [1, 0]], "metric space dist[0][0] must be a number"),
    ],
)
def test_space_from_json_names_a_distance_that_is_not_a_number(dist, message):
    with pytest.raises(InputError) as exc:
        space_from_json({"n": 2, "dist": dist})
    assert str(exc.value) == message


@pytest.mark.parametrize("tree", [star_tree(3), chain_tree(3)])
def test_moduli_round_trip(tree):
    rng = random.Random(7)
    p = random_member(tree, default_params(tree), rng)
    data = reload(moduli_to_json(p))
    back = moduli_from_json(data)
    assert_tree_facts(back.tree)
    assert back.tree.boundary == p.tree.boundary
    assert back.gamma == p.gamma
    assert back.zr == p.zr
    assert moduli_to_json(back) == data


def test_moduli_from_json_rejects_bad_keys():
    p = random_member(star_tree(2), default_params(star_tree(2)), random.Random(1))
    data = moduli_to_json(p)
    broken = dict(data)
    broken["zr"] = {"nokey": {"z": [0.0, 0.0], "rho": [0.1, 0.0]}}
    with pytest.raises(InputError):
        moduli_from_json(broken)


def test_params_round_trip():
    c = default_params(chain_tree(3))
    data = reload(params_to_json(c))
    back = params_from_json(data)
    assert back.theta == c.theta
    assert back.tau == c.tau
    assert back.alpha == c.alpha
    assert params_to_json(back) == data


def test_constants_round_trip_and_partial():
    assert constants_from_json(None) == DEFAULT_CONSTANTS
    g = GeometryConstants(sigma=0.0, dim_half=1, c_abs=12.0)
    back = constants_from_json(reload(constants_to_json(g)))
    assert back == g
    partial = constants_from_json({"sigma": 2.0})
    assert partial.sigma == 2.0
    assert partial.lambda0 == DEFAULT_CONSTANTS.lambda0
    with pytest.raises(InputError):
        constants_from_json({"unknown_knob": 1.0})


def test_bubble_round_trip():
    cfg = config_of(TWO_LEVEL_POINTS)
    data = reload(bubble_to_json(cfg, 0.125))
    back, eps = bubble_from_json(data)
    assert eps == 0.125
    assert set(back.points) == set(cfg.points)
    assert back.radius == cfg.radius
    assert bubble_to_json(back, eps) == data


def test_bubble_from_json_rejects_duplicates():
    data = {
        "eps": 0.125,
        "points": [{"z": [0.0, 0.0], "rho": 0.0}, {"z": [0.0, 0.0], "rho": 0.0}],
    }
    with pytest.raises(InputError):
        bubble_from_json(data)


def test_association_round_trip():
    assoc = associate_tree(config_of(TWO_LEVEL_POINTS), 0.125)
    data = reload(association_to_json(assoc))
    back = association_from_json(data)
    assert back.root_vertex == assoc.root_vertex
    assert back.point.gamma == assoc.point.gamma
    assert back.point.zr == assoc.point.zr
    assert back.edge_to_bubble == assoc.edge_to_bubble
    assert association_to_json(back) == data


def test_membership_report_json():
    assoc = associate_tree(config_of(BASE_POINTS), 0.125)
    c = association_params(assoc.point.tree, 0.125)
    report = in_compact_subset(assoc.point, c)
    data = reload(membership_to_json(report))
    assert data["ok"] is True
    assert data["first_violation"] is None
    assert data["checked"] == report.checked


def decomposition_for(points):
    assoc = associate_tree(config_of(points), 0.125)
    c = association_params(assoc.point.tree, 0.125)
    return decomposition(assoc.point, c)


def test_decomposition_json_shape():
    dec = decomposition_for(TWO_LEVEL_POINTS)
    data = reload(decomposition_to_json(dec))
    assert set(data) == {"point", "params", "circles", "regions"}
    kinds = Counter(r["kind"] for r in data["regions"])
    assert kinds["thick"] == 2
    assert kinds["neck"] == 1
    assert kinds["end"] == 4


def svg_class_counts(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    counts = Counter()
    for el in root.iter():
        cls = el.get("class")
        if cls:
            counts[cls.split()[0]] += 1
    return counts


def test_svg_single_vertex_counts():
    # one disc and two interior circles for the minimal configuration
    text = decomposition_svg(decomposition_for(BASE_POINTS))
    counts = svg_class_counts(text)
    assert counts["vertex-disc"] == 1
    assert counts["child-circle"] == 2
    assert "neck" not in counts


def test_svg_two_level_counts():
    text = decomposition_svg(decomposition_for(TWO_LEVEL_POINTS))
    counts = svg_class_counts(text)
    assert counts["vertex-disc"] == 2
    assert counts["neck"] == 1
    assert "gamma" in text


def test_svg_deterministic_and_file_output(tmp_path):
    dec = decomposition_for(TWO_LEVEL_POINTS)
    text = decomposition_svg(dec)
    assert text == decomposition_svg(dec)
    target = tmp_path / "figure.svg"
    write_text(target, text)
    assert target.read_text(encoding="utf-8") == text
    ET.fromstring(text)
