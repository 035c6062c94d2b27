"""Command-line surface: outputs, exit codes, and the end-to-end pipeline."""

import contextlib
import hashlib
import io
import json
import itertools
import math
import os
import random
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import mpmath
import pytest

from bubbletree.bounds import choose_lambda
from bubbletree.bubbles import associate_tree
from bubbletree.cli import main
from bubbletree.curves import DECORATION_CAP
from bubbletree.jsonio import (
    association_to_json,
    bubble_from_json,
    bubble_to_json,
    dumps,
)
from bubbletree.nets import SPHERE_NET_CAP
from bubbletree.pipeline import STAGES

from helpers import flat_standard, random_standard

BASE_BUBBLE = {
    "eps": 0.125,
    "points": [{"z": [0.0, 0.0], "rho": 0.0}, {"z": [0.125, 0.0], "rho": 0.0}],
}
TWO_LEVEL_BUBBLE = {
    "eps": 0.125,
    "points": [
        {"z": [0.0, 0.0], "rho": 0.0},
        {"z": [1e-05, 0.0], "rho": 0.0},
        {"z": [0.125, 0.0], "rho": 0.0},
    ],
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert out, f"no stdout for {argv}: {err}"
    return code, json.loads(out)


def write(tmp_path, name, payload):
    # a str payload is written as it stands: JSON text that dumps refuses,
    # such as the infinite number 1e999
    target = tmp_path / name
    target.write_text(payload if isinstance(payload, str) else dumps(payload), encoding="utf-8")
    return str(target)


@pytest.fixture()
def no_env_seed(monkeypatch):
    monkeypatch.delenv("BUBBLETREE_SEED", raising=False)


def test_trees_enumerate(tmp_path):
    out_file = tmp_path / "trees.json"
    code, out, _ = invoke(
        ["trees", "enumerate", "--n", "4", "--out", str(out_file)]
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["count"] == 5
    assert len(data["trees"]) == 5
    assert data["bounds"]["combinatorial"] >= data["count"]
    assert out_file.read_text(encoding="utf-8") == out


def test_trees_enumerate_cap_exit_4():
    code, out, err = invoke(["trees", "enumerate", "--n", "12"])
    assert code == 4
    assert not out
    assert json.loads(err)["kind"] == "ResourceCapError"


def test_net_sphere():
    code, data = invoke_json(["net", "--space", "sphere", "--gamma", "1.0"])
    assert code == 0
    assert data["size"] == 19
    assert len(data["points"]) == 19


def test_net_sphere_over_the_point_cap_exit_4():
    code, out, err = invoke(["net", "--space", "sphere", "--gamma", "1e-12"])
    assert code == 4
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "ResourceCapError"
    assert fail["error"] == (
        "sphere net at gamma = 1e-12 needs at least 3490658503990 points, "
        f"over the cap {SPHERE_NET_CAP}"
    )


THREE_POINTS = {"n": 3, "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}


def test_net_from_space_file(tmp_path):
    code, data = invoke_json(
        ["net", "--space", write(tmp_path, "space.json", THREE_POINTS), "--gamma", "1.5"]
    )
    assert code == 0
    assert data["size"] == len(data["indices"])
    assert all(0 <= i < 3 for i in data["indices"])


# sha256 of `bubbletree net` stdout, recorded while nets still stored their
# points beside their indices: how a net is held must not change its bytes
NET_STDOUT_DIGESTS = {
    "2.0": "6f1e07f2909d34600e269a252902fd4de4486d8f78ddbecb64c2013df79fea35",
    "1.0": "c324a4605baad484a8afe81f2c03780d112fc1a5e7ed596a92ac9690649a96d6",
    "0.2": "1a07174c0bab72251493c85a9aac692fb4c7cac255dbc37e2452c5e04f47d7d7",
    "0.05": "83694ef6a47af992db07a4ed690c5ddda03eb0668d56cbd50eb175d696364ee2",
    "0.03": "97030101ac067c5e3ed3e3b843dba33efdfa31b56b8bafd7401d519b52105fc6",
    "space.json": "fcb031052c3ddb40f4447928ee8007389b87ae9cc77b5b3c642beef9dc7fa650",
}


@pytest.mark.parametrize("gamma", ["2.0", "1.0", "0.2", "0.05", "0.03"])
def test_net_sphere_stdout_is_pinned(gamma):
    code, out, _ = invoke(["net", "--space", "sphere", "--gamma", gamma])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NET_STDOUT_DIGESTS[gamma]


def test_net_space_file_stdout_is_pinned(tmp_path, monkeypatch):
    # stdout names the space file, so it is read by a relative path
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.json", THREE_POINTS)
    code, out, _ = invoke(["net", "--space", "space.json", "--gamma", "1.5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NET_STDOUT_DIGESTS["space.json"]


@pytest.mark.parametrize("entry", [True, "1", [1]])
def test_net_rejects_a_distance_that_is_not_a_number(tmp_path, entry):
    space = {"n": 2, "dist": [[0, entry], [entry, 0]]}
    code, out, err = invoke(
        ["net", "--space", write(tmp_path, "space.json", space), "--gamma", "0.5"]
    )
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": "metric space dist[0][1] must be a number",
        "kind": "InputError",
    }


LINE = {"n": 2, "dist": [[0.0, 1.0], [1.0, 0.0]]}
COVER_INSTANCE = {
    "space_t": {"n": 1, "dist": [[0.0]]},
    "space_z": LINE,
    "space_w": LINE,
    "members": [{"t": 0, "fiber": [0, 1], "values": [0, 1]}],
}


def test_cover(tmp_path):
    code, data = invoke_json(
        [
            "cover",
            "--instance",
            write(tmp_path, "instance.json", COVER_INSTANCE),
            "--lambda",
            "1.0",
            "--delta",
            "0.6",
        ]
    )
    assert code == 0
    assert data["count_bound"] >= len([c for c in data["cells"] if c])
    assert data["net_sizes"]["t"] >= 1


def test_cover_rejects_bad_member(tmp_path):
    instance = {
        "space_t": {"n": 1, "dist": [[0.0]]},
        "space_z": {"n": 1, "dist": [[0.0]]},
        "space_w": {"n": 1, "dist": [[0.0]]},
        "members": [{"t": 0, "fiber": [0]}],
    }
    code, _, err = invoke(
        [
            "cover",
            "--instance",
            write(tmp_path, "bad.json", instance),
            "--lambda",
            "1.0",
            "--delta",
            "0.5",
        ]
    )
    assert code == 3
    assert "member" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "member, field",
    [
        ({"t": 0.9, "fiber": [0, 1], "values": [0, 1]}, "cover member['t']"),
        ({"t": 0, "fiber": [True, 0.5], "values": [0, 1]}, "cover member fiber entry"),
        ({"t": 0, "fiber": [0, 1], "values": ["1", 0]}, "cover member value"),
    ],
)
def test_cover_rejects_non_integer_indices(tmp_path, member, field):
    line = {"n": 2, "dist": [[0.0, 1.0], [1.0, 0.0]]}
    instance = {
        "space_t": {"n": 1, "dist": [[0.0]]},
        "space_z": line,
        "space_w": line,
        "members": [member],
    }
    code, out, err = invoke(
        [
            "cover",
            "--instance",
            write(tmp_path, "instance.json", instance),
            "--lambda",
            "1.0",
            "--delta",
            "0.6",
        ]
    )
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(f"{field} must be an integer")


@pytest.mark.parametrize("entry", [True, "1", [1]])
def test_cover_rejects_a_distance_that_is_not_a_number(tmp_path, entry):
    instance = {**COVER_INSTANCE, "space_w": {"n": 2, "dist": [[0, 1], [entry, 0]]}}
    code, out, err = invoke(
        [
            "cover",
            "--instance",
            write(tmp_path, "instance.json", instance),
            "--lambda",
            "1.0",
            "--delta",
            "0.6",
        ]
    )
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": "metric space dist[1][0] must be a number",
        "kind": "InputError",
    }


SIZES_BELOW_ONE = [({"n": 0, "dist": []}, 0), ({"n": -1, "dist": [[0.0]]}, -1)]


@pytest.mark.parametrize("space, n", SIZES_BELOW_ONE)
def test_net_rejects_a_size_below_one(tmp_path, space, n):
    code, out, err = invoke(
        ["net", "--space", write(tmp_path, "space.json", space), "--gamma", "0.5"]
    )
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": f"metric space needs n >= 1 points, got n = {n}",
        "kind": "InputError",
    }


@pytest.mark.parametrize("space, n", SIZES_BELOW_ONE)
def test_cover_rejects_a_size_below_one(tmp_path, space, n):
    instance = {**COVER_INSTANCE, "space_t": space}
    code, out, err = invoke(
        [
            "cover",
            "--instance",
            write(tmp_path, "instance.json", instance),
            "--lambda",
            "1.0",
            "--delta",
            "0.6",
        ]
    )
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": f"metric space needs n >= 1 points, got n = {n}",
        "kind": "InputError",
    }


def test_cover_past_exact_net_cap_exit_4(tmp_path):
    dist = [[abs(i - j) / 25.0 for j in range(26)] for i in range(26)]
    grid = {"n": 26, "dist": dist}
    line = {"n": 2, "dist": [[0.0, 1.0], [1.0, 0.0]]}
    instance = {
        "space_t": grid,
        "space_z": line,
        "space_w": line,
        "members": [{"t": 0, "fiber": [0, 1], "values": [0, 1]}],
    }
    code, out, err = invoke(
        [
            "cover",
            "--instance",
            write(tmp_path, "big.json", instance),
            "--lambda",
            "1.0",
            "--delta",
            "0.5",
        ]
    )
    assert code == 4
    assert not out
    assert json.loads(err) == {
        "error": "26 points exceeds the exact-net cap 25",
        "kind": "ResourceCapError",
    }


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["cover", "--instance", "INSTANCE", "--lambda", "nan", "--delta", "0.6"],
         "Lipschitz constant"),
        (["cover", "--instance", "INSTANCE", "--lambda", "1.0", "--delta", "nan"],
         "delta"),
        (["net", "--space", "sphere", "--gamma", "nan"], "net radius"),
        (["net", "--space", "SPACE", "--gamma", "nan"], "net radius"),
        (["bounds", "curve", "--mu", "3", "--Lambda", "nan"], "Lipschitz bound"),
        (["bounds", "curve", "--mu", "3", "--Lambda", "inf"],
         "Lipschitz bound Lambda must be positive and finite, got inf"),
    ],
    ids=[
        "cover-lambda", "cover-delta", "net-sphere", "net-file", "bounds-curve",
        "bounds-curve-inf",
    ],
)
def test_nan_scales_exit_3_naming_the_quantity(tmp_path, argv, quantity):
    # NaN fails every comparison, so each range check is written to fail on it
    files = {
        "INSTANCE": write(tmp_path, "instance.json", COVER_INSTANCE),
        "SPACE": write(tmp_path, "space.json", LINE),
    }
    code, out, err = invoke([files.get(tok, tok) for tok in argv])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert quantity in fail["error"]


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["cover", "--instance", "INSTANCE", "--lambda", "inf", "--delta", "0.6"],
         "Lipschitz constant lambda"),
        (["cover", "--instance", "INSTANCE", "--lambda", "1.0", "--delta", "inf"],
         "delta"),
        (["net", "--space", "sphere", "--gamma", "inf"], "net radius gamma"),
        (["net", "--space", "SPACE", "--gamma", "inf"], "net radius gamma"),
        (["bounds", "N", "--lambda", "inf"], "lambda"),
    ],
    ids=["cover-lambda", "cover-delta", "net-sphere", "net-file", "bounds-n"],
)
def test_infinite_scales_exit_3_naming_the_quantity(tmp_path, argv, quantity):
    # inf passes a bare "> 0" check: net radius inf wrote an unwritable
    # payload, cover --lambda inf blamed a net radius of delta / inf = 0, and
    # bounds N --lambda inf counted zero decoration points with exit 0
    files = {
        "INSTANCE": write(tmp_path, "instance.json", COVER_INSTANCE),
        "SPACE": write(tmp_path, "space.json", LINE),
    }
    code, out, err = invoke([files.get(tok, tok) for tok in argv])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(quantity)
    assert fail["error"].endswith("finite, got inf")


def _two_level_association(edit=None):
    assoc = association_to_json(associate_tree(*bubble_from_json(TWO_LEVEL_BUBBLE)))
    if edit is not None:
        edit(assoc)
    return assoc


def _two_level_point(edit):
    return _two_level_association(lambda assoc: edit(assoc["point"]))["point"]


def _drop_first(table):
    del table[next(iter(table))]


def _line(xs):
    return {"n": len(xs), "dist": [[abs(a - b) for b in xs] for a in xs]}


# the file payloads that the table below names with "@name"
BAD_PAYLOADS = {
    "list": lambda: [],
    "cover-no-space-w": lambda: {
        k: v for k, v in COVER_INSTANCE.items() if k != "space_w"
    },
    "cover-no-members": lambda: {**COVER_INSTANCE, "members": []},
    "cover-base-index": lambda: {
        **COVER_INSTANCE, "members": [{"t": 1, "fiber": [0], "values": [0]}]
    },
    "cover-fiber-index": lambda: {
        **COVER_INSTANCE, "members": [{"t": 0, "fiber": [2], "values": [0]}]
    },
    "cover-value-index": lambda: {
        **COVER_INSTANCE, "members": [{"t": 0, "fiber": [0], "values": [2]}]
    },
    "no-bubble": lambda: {"delta": 0.5},
    "overrides-list": lambda: {"bubble": TWO_LEVEL_BUBBLE, "gamma_overrides": []},
    "overrides-unknown": lambda: {
        "bubble": TWO_LEVEL_BUBBLE, "gamma_overrides": {"99": [0.0, 0.0]}
    },
    "start-number": lambda: {"delta": 0.5, "start": 1, "end": {}},
    "marked-number": lambda: _two_level_point(lambda p: p["tree"].update(marked=5)),
    "gamma-missing": lambda: _two_level_point(lambda p: _drop_first(p["gamma"])),
    "zr-missing": lambda: _two_level_point(lambda p: _drop_first(p["zr"])),
    "bubble": lambda: TWO_LEVEL_BUBBLE,
    "assoc-missing-edge": lambda: _two_level_association(
        lambda assoc: _drop_first(assoc["edge_to_bubble"])
    ),
    "space-inf": lambda: '{"n": 2, "dist": [[0.0, 1e999], [1e999, 0.0]]}',
    "bubble-inf": lambda: (
        '{"eps": 0.125, "points": [{"z": [1e999, 0.0], "rho": 0.0}, '
        '{"z": [0.125, 0.0], "rho": 0.0}]}'
    ),
    # W's minimal 1-net is {0.5, 1.5}, both within 1 of the member's value
    # 1.0, so each of Z's 25 points, its own net point, has 2 choices
    "cover-cell-cap": lambda: {
        "space_t": {"n": 1, "dist": [[0.0]]},
        "space_z": _line([3.0 * i for i in range(25)]),
        "space_w": _line([0.0, 0.5, 1.0, 1.5, 2.0]),
        "members": [{"t": 0, "fiber": list(range(25)), "values": [2] * 25}],
    },
}

COVER = ["cover", "--lambda", "1.0", "--delta", "0.6", "--instance"]
PIPELINE = ["pipeline", "--out-dir", "OUT", "--config"]
# id: (argv, BUBBLETREE_SEED, exit code, a fragment of the message)
REJECTED = {
    "cover-not-object": (
        [*COVER, "@list"], None, 3, "cover instance must be a JSON object"),
    "cover-no-space": (
        [*COVER, "@cover-no-space-w"], None, 3, "cover instance is missing 'space_w'"),
    "cover-no-members": (
        [*COVER, "@cover-no-members"], None, 3, "needs a nonempty 'members' list"),
    "cover-base-index": (
        [*COVER, "@cover-base-index"], None, 3, "member 0: base index 1 out of range"),
    "cover-fiber-index": (
        [*COVER, "@cover-fiber-index"], None, 3, "member 0: fiber index 2 out of range"),
    "cover-value-index": (
        [*COVER, "@cover-value-index"], None, 3, "member 0: value index 2 out of range"),
    "pipeline-not-object": (
        [*PIPELINE, "@list"], None, 3, "pipeline config must be a JSON object"),
    "pipeline-no-bubble": (
        [*PIPELINE, "@no-bubble"], None, 3, "missing the key 'bubble'"),
    "overrides-not-object": (
        [*PIPELINE, "@overrides-list"], None, 3, "gamma_overrides must be a JSON object"),
    "overrides-unknown-edge": (
        [*PIPELINE, "@overrides-unknown"], None, 3,
        "gamma_overrides mention unknown edges [99]"),
    "seed-not-integer": (
        ["paths", "--random", "1"], "x", 3, "BUBBLETREE_SEED must be an integer, got 'x'"),
    "paths-both": (
        ["paths", "--instance", "@list", "--random", "1"], None, 3,
        "paths needs exactly one of --instance or --random"),
    "paths-neither": (
        ["paths"], None, 3, "paths needs exactly one of --instance or --random"),
    "consts-not-object": (
        ["bounds", "consts", "--consts", "@list"], None, 3,
        "constants must be a JSON object"),
    "require-key-not-object": (
        ["paths", "--instance", "@list"], None, 3, "paths instance must be a JSON object"),
    "require-key-wrong-type": (
        ["paths", "--instance", "@start-number"], None, 3,
        "paths instance['start'] must be of type dict"),
    "marked-not-list": (
        ["decorate", "--m", "1", "--point", "@marked-number"], None, 3,
        "tree['marked'] must be a list"),
    "gamma-misses-edge": (
        ["decorate", "--m", "1", "--point", "@gamma-missing"], None, 3,
        "gamma keys must be exactly the full edges"),
    "zr-misses-edge": (
        ["decorate", "--m", "1", "--point", "@zr-missing"], None, 3,
        "zr keys must be exactly the (vertex, child edge) pairs"),
    "curve-delta-zero-square": (
        ["bounds", "curve", "--mu", "3", "--delta", "1e-170"], None, 3,
        "delta = 1e-170 is too small"),
    "curve-delta-subnormal-square": (
        ["bounds", "curve", "--mu", "3", "--delta", "1e-160"], None, 3,
        "delta = 1e-160 is too small"),
    "edge-to-bubble-keys": (
        ["verify-association", "--config", "@bubble", "--assoc", "@assoc-missing-edge"],
        None, 2, "differ from the external non-root edges"),
    "net-distance-inf": (
        ["net", "--space", "@space-inf", "--gamma", "0.5"], None, 3,
        "distances must be finite"),
    "associate-coordinate-inf": (
        ["associate", "--config", "@bubble-inf"], None, 3, "is not finite"),
    "cover-cell-cap": (
        ["cover", "--lambda", "1", "--delta", "1", "--instance", "@cover-cell-cap"], None, 4,
        "cell enumeration needs 33554432 assignments at member 0, over the cap 2000000"),
}


@pytest.mark.parametrize("argv, seed, code, fragment", REJECTED.values(), ids=REJECTED)
def test_rejected_inputs_name_their_fault(tmp_path, monkeypatch, argv, seed, code, fragment):
    monkeypatch.delenv("BUBBLETREE_SEED", raising=False)
    if seed is not None:
        monkeypatch.setenv("BUBBLETREE_SEED", seed)
    files = {"OUT": str(tmp_path / "out")}
    for tok in argv:
        if tok.startswith("@"):
            files[tok] = write(tmp_path, f"{tok[1:]}.json", BAD_PAYLOADS[tok[1:]]())
    got, out, err = invoke([files.get(tok, tok) for tok in argv])
    assert got == code
    assert fragment in out + err


def associate_files(tmp_path, bubble):
    cfg = write(tmp_path, "bubble.json", bubble)
    assoc_path = tmp_path / "assoc.json"
    code, data = invoke_json(["associate", "--config", cfg, "--out", str(assoc_path)])
    assert code == 0
    return cfg, assoc_path, data


def test_associate_verify_round(tmp_path):
    cfg, assoc_path, _ = associate_files(tmp_path, TWO_LEVEL_BUBBLE)
    code, data = invoke_json(
        ["verify-association", "--config", cfg, "--assoc", str(assoc_path)]
    )
    assert code == 0
    assert data["ok"] is True
    assert data["summary"] == "association verified"


def test_verify_corrupted_gamma_exit_2(tmp_path):
    cfg, assoc_path, assoc = associate_files(tmp_path, TWO_LEVEL_BUBBLE)
    full = [e for e, v in assoc["point"]["gamma"].items() if v != [0.0, 0.0]]
    assert full
    assoc["point"]["gamma"][full[0]] = [0.0, 0.0]
    bad = write(tmp_path, "bad-assoc.json", assoc)
    code, data = invoke_json(["verify-association", "--config", cfg, "--assoc", bad])
    assert code == 2
    assert data["ok"] is False
    assert data["position_errors"] or data["gamma_errors"]


def point_and_params(tmp_path, bubble):
    _, _, assoc = associate_files(tmp_path, bubble)
    point = write(tmp_path, "point.json", assoc["point"])
    eps = bubble["eps"]
    deg = Counter()
    for edge in assoc["point"]["tree"]["edges"]:
        for v in edge["endpoints"]:
            deg[v] += 1
    alpha = {str(v): (4.0 * eps**3) ** d for v, d in deg.items()}
    params = write(
        tmp_path,
        "params.json",
        {"theta": eps, "tau": 4.0 * eps, "alpha": alpha},
    )
    return point, params


def test_check_membership_pass(tmp_path):
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    code, data = invoke_json(["check-membership", "--point", point, "--params", params])
    assert code == 0
    assert data["ok"] is True


def _set_vertices(tree):
    tree["vertices"][0] = 1.9


def _set_endpoint(value):
    def edit(tree):
        edge = next(e for e in tree["edges"] if e["endpoints"] == [1])
        edge["endpoints"] = [value]

    return edit


def _set_marked(tree):
    tree["marked"][0] += 0.7


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set_vertices, "tree vertex"),
        (_set_endpoint(1.2), "tree edge 0 endpoint"),
        (_set_endpoint(True), "tree edge 0 endpoint"),
        (_set_marked, "tree['marked'] entry"),
    ],
)
def test_tree_rejects_non_integer_ids(tmp_path, edit, field):
    # each edit truncates back to the original tree, which int() accepted
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    doc = json.loads((tmp_path / "point.json").read_text())
    assert doc["tree"]["vertices"][0] == 1 and doc["tree"]["marked"][0] == 2
    edit(doc["tree"])
    bad = write(tmp_path, "bad-point.json", doc)
    code, out, err = invoke(["check-membership", "--point", bad, "--params", params])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(f"{field} must be an integer")


@pytest.mark.parametrize("key", ["01", "1_0", " 2 "])
@pytest.mark.parametrize("field", ["alpha", "gamma", "zr"])
def test_noncanonical_integer_keys_exit_3(tmp_path, field, key):
    # int() reads each of these keys, so "01" would overwrite "1" and "1_0"
    # would become vertex 10
    files = dict(zip(["point", "params"], point_and_params(tmp_path, TWO_LEVEL_BUBBLE)))
    which = "params" if field == "alpha" else "point"
    doc = json.loads((tmp_path / f"{which}.json").read_text())
    table = doc[field]
    first = next(iter(table))
    table[f"{key},{first.split(',')[1]}" if field == "zr" else key] = table[first]
    files[which] = write(tmp_path, f"bad-{which}.json", doc)
    code, out, err = invoke(
        ["check-membership", "--point", files["point"], "--params", files["params"]]
    )
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(field)
    assert f"key {key!r} is not a canonical integer" in fail["error"]


def test_check_membership_fail_exit_2(tmp_path):
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    loose = json.loads((tmp_path / "params.json").read_text())
    # alpha at its cap theta exceeds the actual chart gaps of 0.9 theta
    loose["alpha"] = {v: loose["theta"] for v in loose["alpha"]}
    bad = write(tmp_path, "tight.json", loose)
    code, data = invoke_json(["check-membership", "--point", point, "--params", bad])
    assert code == 2
    assert data["ok"] is False
    assert data["first_violation"]


def test_decompose_with_svg(tmp_path):
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    svg_path = tmp_path / "figure.svg"
    code, data = invoke_json(
        ["decompose", "--point", point, "--params", params, "--svg", str(svg_path)]
    )
    assert code == 0
    assert data["svg"] == str(svg_path)
    kinds = Counter(r["kind"] for r in data["regions"])
    assert kinds["neck"] == 1
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    discs = [el for el in root.iter() if el.get("class") == "vertex-disc"]
    assert len(discs) == 2


def test_decorate(tmp_path):
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    code, data = invoke_json(["decorate", "--point", point, "--m", "20"])
    assert code == 0
    assert data["count"] == 20
    assert len(data["points"]) == 20
    code, _, err = invoke(["decorate", "--point", point, "--m", "3"])
    assert code == 3
    assert "anchor" in json.loads(err)["error"]
    code, out, err = invoke(["decorate", "--point", point, "--m", str(DECORATION_CAP + 1)])
    assert code == 4
    assert not out
    assert json.loads(err)["kind"] == "ResourceCapError"
    # decoration reads no params: the flag is a usage error
    code, out, err = invoke(
        ["decorate", "--point", point, "--params", params, "--m", "20"]
    )
    assert code == 3
    assert not out
    assert json.loads(err)["kind"] == "InputError"


def test_paths_instance(tmp_path):
    delta = 0.5
    instance = {
        "delta": delta,
        "start": {"z": [0.6, 0.0], "w": [delta * delta / 0.6, 0.0]},
        "end": {"z": [0.0, 0.3], "w": [0.0, -delta * delta / 0.3]},
    }
    code, data = invoke_json(
        ["paths", "--instance", write(tmp_path, "annulus.json", instance)]
    )
    assert code == 0
    assert data["within_bound"] is True
    assert data["total_length"] <= data["bound"] + 1e-9
    assert len(data["path_z"]) == len(data["path_w"])


def test_paths_instance_rejects_off_annulus(tmp_path):
    instance = {
        "delta": 0.5,
        "start": {"z": [0.6, 0.0], "w": [0.6, 0.0]},
        "end": {"z": [0.3, 0.0], "w": [0.3, 0.0]},
    }
    code, _, err = invoke(
        ["paths", "--instance", write(tmp_path, "off.json", instance)]
    )
    assert code == 3
    assert json.loads(err)["kind"] == "InputError"


def test_paths_random_deterministic(no_env_seed):
    code, out1, _ = invoke(["paths", "--random", "25", "--seed", "4"])
    code2, out2, _ = invoke(["paths", "--random", "25", "--seed", "4"])
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["count"] == 25
    assert data["violations"] == 0
    assert data["worst_ratio"] <= 1.0


def test_paths_random_rejects_a_negative_count():
    code, out, err = invoke(["paths", "--random", "-5"])
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": "paths --random must be nonnegative, got -5",
        "kind": "InputError",
    }


def test_env_seed_overrides_flag(monkeypatch):
    monkeypatch.delenv("BUBBLETREE_SEED", raising=False)
    _, baseline, _ = invoke(["paths", "--random", "10", "--seed", "9"])
    monkeypatch.setenv("BUBBLETREE_SEED", "9")
    _, via_env, _ = invoke(["paths", "--random", "10", "--seed", "4"])
    assert via_env == baseline


def test_bounds_lambda():
    code, data = invoke_json(["bounds", "lambda", "--eps", "0.125"])
    assert code == 0
    assert data["value"] == 7.0 / 4608.0
    assert data["binding"] == "decay"


def test_bounds_consts_round_trip(tmp_path):
    consts = tmp_path / "default.json"
    code, data = invoke_json(["bounds", "consts", "--out", str(consts)])
    assert code == 0
    assert data["c_abs"] == 9.0
    code, data2 = invoke_json(["bounds", "consts", "--consts", str(consts)])
    assert code == 0
    assert data2 == data


def test_bounds_n_output():
    code, data = invoke_json(
        [
            "bounds", "N",
            "--ell", "0",
            "--A", "0.78",
            "--lambda", "1.0",
            "--delta", "0.5",
        ]
    )
    assert code == 0
    assert set(data) == {"m", "logLambda", "log10N", "log10_log10N"}
    assert data["log10_log10N"] is None
    assert data["m"] == 7
    assert data["logLambda"] == pytest.approx(9.0 * 0.78)
    expo = math.exp(
        math.comb(7, 3)
        * (math.log(8.0 * math.pi) + 2.0 * data["logLambda"] + 2.0 * math.log(2.0))
    )
    expected = expo * math.log1p(16.0) / math.log(10.0)
    assert data["log10N"] == pytest.approx(expected, rel=1e-9)


def test_bounds_n_past_log_range_matches_pipeline(tmp_path, no_env_seed):
    # default eps: the derived lambda is tiny and the count leaves log space
    code, data = invoke_json(
        ["bounds", "N", "--ell", "0", "--A", "1.0", "--delta", "0.5"]
    )
    assert code == 0
    assert data["m"] == 3900060
    assert data["log10N"] is None
    assert math.isfinite(data["log10_log10N"])
    # at area 1.0 the pipeline would decorate 3.9 million points, so compare
    # at its default area, lambda^2 per bubble point
    lam = choose_lambda(0.125).value
    area = lam * lam * len(BASE_BUBBLE["points"])
    cfg = write(
        tmp_path, "pipe.json", {"bubble": BASE_BUBBLE, "area": area, "delta": 0.5}
    )
    code, _ = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 0
    bounds_doc = json.loads((tmp_path / "run" / "07-bounds.json").read_text())
    code, data = invoke_json(
        ["bounds", "N", "--ell", "0", "--A", repr(area), "--delta", "0.5"]
    )
    assert code == 0
    assert bounds_doc["log10N"] is None
    for key in ("m", "logLambda", "log10N", "log10_log10N"):
        assert data[key] == bounds_doc[key]


def _ln_ln_count(data):
    """ln ln N of the default-profile count at delta = 1/2, from the m and
    log Lambda that bounds N reports: binom(m, 3) ln(8 pi Lambda^2 delta^-2)
    + ln ln 17."""
    cells = mpmath.mpf(math.comb(data["m"], 3))
    per_layer = mpmath.log(8 * mpmath.pi) + 2 * mpmath.mpf(data["logLambda"])
    return cells * (per_layer + 2 * mpmath.log(2)) + mpmath.log(mpmath.log(17))


def test_bounds_n_top_of_log_log_range():
    code, data = invoke_json(["bounds", "N", "--lambda", "1e-38"])
    assert code == 0
    assert data["log10N"] is None
    with mpmath.workdps(60):
        ln10 = mpmath.log(10)
        oracle = float((_ln_ln_count(data) - mpmath.log(ln10)) / ln10)
    assert data["log10_log10N"] == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("lam", ["1e-40", "1e-60", "1e-150"])
def test_bounds_n_past_log_log_range_exit_3(lam):
    # log10 log10 N is 9.5e322, 9.5e482 and 9.5e1202 here: past any double
    code, out, err = invoke(["bounds", "N", "--lambda", lam])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    prefix = "count exceeds log-log space: its log log is e^"
    assert fail["error"].startswith(prefix)
    budget = 9.0 * (1.0 / (float(lam) * float(lam)))
    with mpmath.workdps(60):
        count = {"m": math.floor(budget), "logLambda": budget}
        oracle = float(mpmath.log(_ln_ln_count(count)))
    # the message gives six significant digits
    assert float(fail["error"][len(prefix) :]) == pytest.approx(oracle, rel=1e-5)


@pytest.mark.parametrize("lam", ["1e-155", "1e-162"])
def test_bounds_n_budget_past_double_range_exit_3(lam):
    # lambda^2 is subnormal at 1e-155 and underflows to 0 at 1e-162
    code, out, err = invoke(["bounds", "N", "--lambda", lam])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(
        "decoration budget c (ell + area / lambda^2) is not a finite double"
    )
    assert "lambda^2 = " in fail["error"]


def test_bounds_n_sigma_zero(tmp_path):
    consts = write(
        tmp_path,
        "flat.json",
        {"sigma": 0.0},
    )
    code, data = invoke_json(
        ["bounds", "N", "--A", "1.0", "--delta", "0.5", "--consts", consts]
    )
    assert code == 0
    assert data["log10N"] == 0.0


def test_bounds_curve():
    code, data = invoke_json(
        ["bounds", "curve", "--mu", "3", "--delta", "1.0", "--Lambda", "1.0"]
    )
    assert code == 0
    assert data["regions"] == 4
    assert data["log10_log10_total"] is None
    expected = (
        2.0 * math.log(4.0)
        + math.exp(3.0 * math.log(8.0 * math.pi) + math.log(4.0)) * math.log(2.0)
    ) / math.log(10.0)
    assert data["log10_total"] == pytest.approx(expected, rel=1e-12)
    code, _, err = invoke(["bounds", "curve"])
    assert code == 3
    assert "--mu" in json.loads(err)["error"]


def test_bounds_curve_mu_past_double_range_exit_3():
    code, out, err = invoke(["bounds", "curve", "--mu", str(10**310)])
    assert code == 3
    assert not out
    assert json.loads(err) == {
        "error": "mu = 10^310.0 is past double range",
        "kind": "InputError",
    }


def test_bounds_curve_mu_below_double_max_exits_3_naming_mu(tmp_path):
    code, data = invoke_json(["bounds", "curve", "--mu", str(3 * 10**307)])
    assert code == 0
    assert data["log10_total"] is None and data["log10_log10_total"] > 3e307
    # with sigma = 0 the count is the cell count alone, but the patch-net log
    # is reported too, and at 6e307 it is inf
    flat = ["--consts", write(tmp_path, "flat.json", {"sigma": 0.0})]
    for mu, extra, term in [
        (6 * 10**307, [], "2 mu ln(Lambda / delta)"),
        (6 * 10**307, flat, "2 mu ln(Lambda / delta)"),
        (10**308, [], "(mu - 1)"),
    ]:
        code, out, err = invoke(["bounds", "curve", "--mu", str(mu), *extra])
        assert code == 3
        assert not out
        fail = json.loads(err)
        assert fail["kind"] == "InputError"
        assert fail["error"].startswith(f"mu = {mu:.6g} is too large: ")
        assert term in fail["error"] and "is not a finite double" in fail["error"]


def test_bounds_curve_past_log_range():
    code, data = invoke_json(
        ["bounds", "curve", "--mu", "20", "--delta", "0.5", "--Lambda", "4e9"]
    )
    assert code == 0
    assert data["log10_total"] is None
    # ln ln N = ln of the tower exponent + ln ln 17; the cell factor is lost
    ln_ln = data["log_patch_net"] + math.log(21.0) + math.log(math.log(17.0))
    expected = (ln_ln - math.log(math.log(10.0))) / math.log(10.0)
    assert data["log10_log10_total"] == pytest.approx(expected, rel=1e-12)
    assert data["log_cells"] == pytest.approx(19.0 * math.log(16.0), rel=1e-12)


def readme_commands():
    """The README's sh blocks that need no file from outside the README, as
    (heredocs, command lines) per block; Install and Tests blocks hold no
    bubbletree command and are left out."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    made, runnable = set(), []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text("utf-8"), re.S):
        lines = iter(block.splitlines())
        heredocs, commands = {}, []
        for line in lines:
            target = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if target:
                body = list(itertools.takewhile(lambda s: s != "EOF", lines))
                heredocs[target.group(1)] = "\n".join(body) + "\n"
            else:
                commands.append(shlex.split(line, comments=True))
        if not all(argv[:1] == ["bubbletree"] for argv in commands):
            continue
        tokens = [tok for argv in commands for tok in argv]
        outputs = {b for a, b in zip(tokens, tokens[1:]) if a in ("--out", "--out-dir")}
        inputs = {tok for tok in tokens if tok.endswith(".json")} - outputs
        if inputs - made - set(heredocs):
            continue  # reads a file the README does not write
        made |= outputs | set(heredocs)
        runnable.append((heredocs, commands))
    return runnable


def test_readme_bounds_examples(tmp_path, monkeypatch, no_env_seed):
    # every README example that needs no outside file, in order, in one
    # directory, so later blocks can read what earlier ones wrote
    monkeypatch.chdir(tmp_path)

    def read_json(name):
        return json.loads((tmp_path / name).read_text(encoding="utf-8"))

    ran = Counter()
    for heredocs, commands in readme_commands():
        for name, text in heredocs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        for argv in commands:
            code, data = invoke_json(argv[1:])
            line = shlex.join(argv)
            assert code == 0, line
            ran[argv[1]] += 1
            if argv[1:3] == ["trees", "enumerate"]:
                assert data["count"] == 5
            elif argv[1] == "net":
                assert data["size"] == 19
            elif argv[1:3] == ["bounds", "N"]:
                assert data["m"] == 7
            elif argv[1] in ("verify-association", "pipeline"):
                assert data["ok"] is True
            elif argv[1] == "paths":
                assert data["violations"] == 0
            elif argv[1] == "decompose":
                # the README's point and params are those of its pipeline run
                assert data["point"] == read_json("run1/01-association.json")["point"]
                assert data["params"] == read_json("run1/03-params.json")["params"]
                assert len(data["regions"]) == 7
                assert ET.parse(tmp_path / data["svg"]).getroot().tag.endswith("svg")
            elif argv[1] == "decorate":
                assert data["count"] == len(data["points"]) == 20
    assert ran == {
        "trees": 1,
        "net": 1,
        "associate": 1,
        "verify-association": 1,
        "pipeline": 1,
        "bounds": 4,
        "decompose": 1,
        "decorate": 1,
        "paths": 1,
    }
    assert len(list((tmp_path / "run1").iterdir())) == len(ARTIFACTS)


LEAF_COMMANDS = {
    "trees enumerate": ["trees", "enumerate", "--n", "4"],
    "net": ["net", "--space", "sphere", "--gamma", "1.0"],
    "cover": ["cover", "--instance", "INSTANCE", "--lambda", "1.0", "--delta", "0.6"],
    "associate": ["associate", "--config", "BUBBLE"],
    "verify-association": ["verify-association", "--config", "BUBBLE", "--assoc", "ASSOC"],
    "check-membership": ["check-membership", "--point", "POINT", "--params", "PARAMS"],
    "decompose": ["decompose", "--point", "POINT", "--params", "PARAMS"],
    "decorate": ["decorate", "--point", "POINT", "--m", "20"],
    "paths": ["paths", "--random", "5", "--seed", "3"],
    "bounds": ["bounds", "curve", "--mu", "3"],
    "pipeline": ["pipeline", "--config", "PIPELINE", "--out-dir", "RUN"],
}


@pytest.mark.parametrize("argv", LEAF_COMMANDS.values(), ids=LEAF_COMMANDS)
def test_every_leaf_writes_its_stdout_to_out(tmp_path, no_env_seed, argv):
    point, params = point_and_params(tmp_path, TWO_LEVEL_BUBBLE)
    files = {
        "INSTANCE": write(tmp_path, "instance.json", COVER_INSTANCE),
        "BUBBLE": str(tmp_path / "bubble.json"),
        "ASSOC": str(tmp_path / "assoc.json"),
        "POINT": point,
        "PARAMS": params,
        "PIPELINE": write(tmp_path, "pipe.json", {"bubble": TWO_LEVEL_BUBBLE}),
        "RUN": str(tmp_path / "run"),
    }
    target = tmp_path / "stdout.json"
    code, out, _ = invoke([files.get(tok, tok) for tok in argv] + ["--out", str(target)])
    assert code == 0
    assert out
    assert target.read_bytes() == out.encode("utf-8")


def test_out_onto_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = invoke(LEAF_COMMANDS["net"] + ["--out", str(link)])
    assert code == 0
    assert link.is_symlink()
    assert link.readlink() == target
    assert target.read_text(encoding="utf-8") == out


def test_out_replaces_a_file_and_spares_its_hard_links(tmp_path):
    out_file = tmp_path / "net.json"
    code, first, _ = invoke(LEAF_COMMANDS["net"] + ["--out", str(out_file)])
    assert code == 0
    kept = tmp_path / "kept.json"
    os.link(out_file, kept)
    argv = ["net", "--space", "sphere", "--gamma", "2.0", "--out", str(out_file)]
    code, second, _ = invoke(argv)
    assert code == 0
    assert second != first
    assert out_file.read_text(encoding="utf-8") == second
    assert kept.read_text(encoding="utf-8") == first


def test_usage_error_exit_3():
    code, _, err = invoke(["trees", "enumerate"])
    assert code == 3
    code, _, _ = invoke(["net", "--gamma", "1.0"])
    assert code == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bubbletree.cli", "bounds", "lambda"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["binding"] == "decay"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

ARTIFACTS = (
    "01-association.json",
    "02-verification.json",
    "03-params.json",
    "04-membership.json",
    "05-decomposition.json",
    "06-decoration.json",
    "07-bounds.json",
)


def test_pipeline_base_case_full_pass(tmp_path, no_env_seed):
    cfg = write(tmp_path, "pipe.json", {"bubble": BASE_BUBBLE, "seed": 11})
    code, data = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 0
    assert data["ok"] is True
    assert [s["verdict"] for s in data["stages"]] == ["pass"] * 7
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == list(ARTIFACTS)
    bounds_doc = json.loads((tmp_path / "run" / ARTIFACTS[-1]).read_text())
    assert bounds_doc["m"] >= 9
    assert bounds_doc["log10N"] is not None or bounds_doc["log10_log10N"] is not None


def test_pipeline_same_seed_byte_identical(tmp_path, no_env_seed):
    cfg = write(tmp_path, "pipe.json", {"bubble": TWO_LEVEL_BUBBLE, "seed": 5})
    code1, out1, _ = invoke(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "a")]
    )
    code2, out2, _ = invoke(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "b")]
    )
    assert code1 == code2 == 0
    assert out1 == out2
    for name in ARTIFACTS:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_pipeline_rerun_into_the_same_out_dir_is_byte_identical(tmp_path, no_env_seed):
    cfg = write(tmp_path, "pipe.json", {"bubble": TWO_LEVEL_BUBBLE, "seed": 5})
    argv = ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    code1, out1, _ = invoke(argv)
    first = {name: (tmp_path / "run" / name).read_bytes() for name in ARTIFACTS}
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (tmp_path / "run" / name).read_bytes() == first[name]


def test_pipeline_gamma_fault_stops_at_verification(tmp_path, no_env_seed):
    _, _, assoc = associate_files(tmp_path, TWO_LEVEL_BUBBLE)
    full = [e for e, v in assoc["point"]["gamma"].items() if v != [0.0, 0.0]]
    cfg = write(
        tmp_path,
        "fault.json",
        {"bubble": TWO_LEVEL_BUBBLE, "gamma_overrides": {full[0]: [0.0, 0.0]}},
    )
    code, data = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 2
    assert data["ok"] is False
    assert [s["name"] for s in data["stages"]] == ["associate", "verify-association"]
    assert data["stages"][-1]["verdict"] == "fail"
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == list(ARTIFACTS[:2])


def _zero_a_full_edge():
    cfg, eps = bubble_from_json(TWO_LEVEL_BUBBLE)
    edge = min(associate_tree(cfg, eps).point.tree.full_edges)
    return {"gamma_overrides": {str(edge): [0.0, 0.0]}}


@pytest.mark.parametrize(
    "bubble, knobs, stage, code, written",
    [
        # the point at 0.5 lies outside the disc of radius eps
        ({"eps": 0.125, "points": [{"z": [0.0, 0.0], "rho": 0.0},
                                   {"z": [0.5, 0.0], "rho": 0.0}]},
         {}, "associate", 3, 0),
        (TWO_LEVEL_BUBBLE, None, "verify-association", 2, 2),
        (TWO_LEVEL_BUBBLE, {"area": -1.0}, "decoration", 3, 5),
        # m = 3,900,060 decoration points, refused before any is built
        (TWO_LEVEL_BUBBLE, {"area": 1.0}, "decoration", 4, 5),
        (TWO_LEVEL_BUBBLE, {"delta": 2.0}, "bounds", 3, 6),
    ],
    ids=["associate", "verify-association", "decoration", "decoration-cap", "bounds"],
)
def test_pipeline_failure_names_its_stage(
    tmp_path, no_env_seed, bubble, knobs, stage, code, written
):
    knobs = _zero_a_full_edge() if knobs is None else knobs
    cfg = write(tmp_path, "pipe.json", {"bubble": bubble, **knobs})
    run = tmp_path / "run"
    got, data = invoke_json(["pipeline", "--config", cfg, "--out-dir", str(run)])
    assert got == code
    assert data["ok"] is False
    done = STAGES.index(stage)
    assert [s["name"] for s in data["stages"]] == list(STAGES[: done + 1])
    assert [s["verdict"] for s in data["stages"]] == ["pass"] * done + ["fail"]
    listed = [name for s in data["stages"] for name in s["artifacts"]]
    assert listed == list(ARTIFACTS[:done])
    # a failing check still writes its own artifact, but does not list it
    assert sorted(p.name for p in run.iterdir()) == list(ARTIFACTS[:written])


@pytest.mark.parametrize("seed, vertex, degree", [(2, 4, 152), (3, 3, 153)])
def test_pipeline_names_an_overflowing_lambda_v(tmp_path, no_env_seed, seed, vertex, degree):
    # a level of about 150 centres: alpha_v = (4 eps^3)^deg is subnormal and
    # Lambda_v = (9 pi sqrt(C) / eps^2) / alpha_v overflows
    cfg = random_standard(random.Random(seed), 0.125, 154)
    path = write(tmp_path, "wide.json", {"bubble": bubble_to_json(cfg, 0.125)})
    run = tmp_path / "run"
    got, data = invoke_json(["pipeline", "--config", path, "--out-dir", str(run)])
    assert got == 3
    assert [s["verdict"] for s in data["stages"]] == ["pass", "pass", "fail"]
    assert data["stages"][2]["name"] == "params"
    assert re.fullmatch(
        rf"Lambda_v at vertex {vertex} \(degree {degree}\) is not a finite double: "
        r"alpha_v = \S+e-3\d\d, Lambda_v = inf",
        data["stages"][2]["detail"],
    )


@pytest.mark.parametrize("eps, size", [(0.125, 160), (0.03, 82)])
def test_pipeline_past_the_ladder_underflow_stops_at_params(tmp_path, no_env_seed, eps, size):
    # the flat level associates and verifies with alpha_v the stand-in
    # 5e-324, so Lambda_v = (9 pi sqrt(C) / eps^2) / alpha_v overflows;
    # a log-form Lambda_v is the next range edge (ROADMAP item 1d)
    cfg = flat_standard(random.Random(size), eps, size)
    path = write(tmp_path, "flat.json", {"bubble": bubble_to_json(cfg, eps)})
    run = tmp_path / "run"
    got, data = invoke_json(["pipeline", "--config", path, "--out-dir", str(run)])
    assert got == 3
    assert [s["name"] for s in data["stages"]] == ["associate", "verify-association", "params"]
    assert [s["verdict"] for s in data["stages"]] == ["pass", "pass", "fail"]
    assert data["stages"][2]["detail"] == (
        f"Lambda_v at vertex 1 (degree {size + 1}) is not a finite double: "
        "alpha_v = 4.94066e-324, Lambda_v = inf"
    )


@pytest.mark.parametrize("key", [" 1 ", "01", "1_0"])
def test_pipeline_gamma_override_keys_must_be_canonical(tmp_path, no_env_seed, key):
    # int() reads these keys as edges 1, 1 and 10, all full edges here, and
    # the override repeats the associated gamma, so only the key is at fault
    cfg = random_standard(random.Random(30), 0.125, 8)
    gamma = associate_tree(cfg, 0.125).point.gamma[int(key)]
    config = {
        "bubble": bubble_to_json(cfg, 0.125),
        "gamma_overrides": {key: [gamma.real, gamma.imag]},
    }
    path = write(tmp_path, "keys.json", config)
    code, out, err = invoke(["pipeline", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"] == f"gamma_overrides key {key!r} is not a canonical integer"


def test_pipeline_non_standard_configuration_exit_3(tmp_path, no_env_seed):
    # the point at 0.5 lies outside the disc of radius eps
    bubble = {
        "eps": 0.125,
        "points": [{"z": [0.0, 0.0], "rho": 0.0}, {"z": [0.5, 0.0], "rho": 0.0}],
    }
    cfg = write(tmp_path, "odd.json", {"bubble": bubble})
    code, data = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 3
    assert data["ok"] is False
    assert data["stages"] == [
        {
            "name": "associate",
            "verdict": "fail",
            "detail": "reduction requires a standard configuration",
            "artifacts": [],
        }
    ]


@pytest.mark.parametrize(
    "knobs, field",
    [
        ({"ell": 1.7}, "pipeline config 'ell'"),
        ({"nu_k": 2.9}, "pipeline config 'nu_k'"),
        ({"seed": 1.5}, "pipeline config 'seed'"),
        ({"seed": True}, "pipeline config 'seed'"),
        ({"constants": {"dim_half": 2.5}}, "constant 'dim_half'"),
    ],
)
def test_pipeline_rejects_non_integer_knobs(tmp_path, no_env_seed, knobs, field):
    cfg = write(tmp_path, "pipe.json", {"bubble": BASE_BUBBLE, **knobs})
    code, out, err = invoke(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"].startswith(f"{field} must be an integer")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "knobs, key",
    [({"detla": 0.3}, "detla"), ({"Area": 5}, "Area"), ({"detla": 0.3, "Area": 5}, "Area")],
)
def test_pipeline_rejects_unknown_config_keys(tmp_path, no_env_seed, knobs, key):
    cfg = write(tmp_path, "pipe.json", {"bubble": BASE_BUBBLE, **knobs})
    code, out, err = invoke(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 3
    assert not out
    fail = json.loads(err)
    assert fail["kind"] == "InputError"
    assert fail["error"] == f"unknown pipeline config key {key!r}"
    assert not (tmp_path / "run").exists()


def test_pipeline_accepts_integral_float_knobs(tmp_path, no_env_seed):
    reports = []
    for name, knobs in (
        ("int", {"ell": 1, "nu_k": 2, "seed": 11, "constants": {"dim_half": 2}}),
        ("float", {"ell": 1.0, "nu_k": 2.0, "seed": 11.0, "constants": {"dim_half": 2.0}}),
    ):
        cfg = write(tmp_path, f"{name}.json", {"bubble": BASE_BUBBLE, **knobs})
        run = str(tmp_path / name)
        code, out, _ = invoke(["pipeline", "--config", cfg, "--out-dir", run])
        assert code == 0
        reports.append(out.replace(run, "RUN"))
    assert reports[0] == reports[1]
    for artifact in ARTIFACTS:
        int_bytes = (tmp_path / "int" / artifact).read_bytes()
        assert int_bytes == (tmp_path / "float" / artifact).read_bytes()


def test_pipeline_sigma_zero_reports_log10n(tmp_path, no_env_seed):
    # without the target factor the count is 1, so 07-bounds.json takes its
    # level-1 form
    cfg = write(
        tmp_path,
        "flat.json",
        {"bubble": TWO_LEVEL_BUBBLE, "delta": 0.5, "constants": {"sigma": 0}},
    )
    code, data = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]
    )
    assert code == 0
    assert data["stages"][-1]["detail"] == "log10 N = 0"
    bounds_doc = json.loads((tmp_path / "run" / ARTIFACTS[-1]).read_text())
    assert bounds_doc["log10N"] == 0.0
    assert bounds_doc["log10_log10N"] is None


def test_cli_outputs_match_pipeline_artifacts(tmp_path, no_env_seed):
    bubble = write(tmp_path, "bubble.json", TWO_LEVEL_BUBBLE)
    cfg = write(tmp_path, "pipe.json", {"bubble": TWO_LEVEL_BUBBLE, "delta": 0.5})
    run = tmp_path / "run"
    code, _ = invoke_json(["pipeline", "--config", cfg, "--out-dir", str(run)])
    assert code == 0
    code, out, _ = invoke(
        [
            "verify-association",
            "--config",
            bubble,
            "--assoc",
            str(run / "01-association.json"),
        ]
    )
    assert code == 0
    assert out == (run / "02-verification.json").read_text()
    params_doc = json.loads((run / "03-params.json").read_text())
    code, out, _ = invoke(["bounds", "lambda", "--eps", "0.125"])
    assert code == 0
    assert out == dumps(params_doc["lambda"])
    point = write(
        tmp_path,
        "point.json",
        json.loads((run / "01-association.json").read_text())["point"],
    )
    decoration = json.loads((run / "06-decoration.json").read_text())
    del decoration["log_lip"]
    m = str(decoration["m"])
    code, out, _ = invoke(["decorate", "--point", point, "--m", m])
    assert code == 0
    assert out == dumps(decoration)


def test_pipeline_env_seed_brings_determinism(tmp_path, monkeypatch):
    cfg = write(tmp_path, "pipe.json", {"bubble": BASE_BUBBLE})
    monkeypatch.setenv("BUBBLETREE_SEED", "21")
    code, data = invoke_json(
        ["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "x"), "--seed", "3"]
    )
    assert code == 0
    assert data["seed"] == 21
