"""Command-line interface.

Every command prints one JSON document to stdout; --out additionally writes
the same bytes to a file.  Exit codes: 0 success, 2 verification failure,
3 malformed input, 4 resource cap exceeded.  The environment variable
BUBBLETREE_SEED overrides any --seed flag.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys

from . import jsonio
from .bounds import (
    DEFAULT_CONSTANTS,
    LogNumber,
    choose_lambda,
    curve_cover_count,
    decoration_budget,
    total_cover_count,
)
from .bubbles import associate_tree, verify_association
from .curves import annulus_path, decomposition, decorate, in_compact_subset
from .errors import BubbletreeError, InputError, exit_code
from .nets import greedy_net, mapspace_cover, sphere_net
from .pipeline import run_pipeline
from .trees import enumerate_stable_rooted, tree_count_bound


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as malformed input (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _emit(args, payload) -> None:
    text = jsonio.dumps(payload)
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        jsonio.write_text(out, text)


def _resolve_seed(args) -> int | None:
    env = os.environ.get("BUBBLETREE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(
                f"BUBBLETREE_SEED must be an integer, got {env!r}"
            ) from None
    return getattr(args, "seed", None)


def _constants(args):
    if getattr(args, "consts", None):
        return jsonio.constants_from_json(jsonio.load_json(args.consts))
    return DEFAULT_CONSTANTS


def cmd_trees_enumerate(args) -> int:
    trees = enumerate_stable_rooted(args.n)
    combinatorial, closed_form = tree_count_bound(args.n)
    _emit(
        args,
        {
            "n": args.n,
            "count": len(trees),
            "bounds": {"combinatorial": combinatorial, "closed_form": closed_form},
            "trees": [jsonio.tree_to_json(t) for t in trees],
        },
    )
    return 0


def cmd_net(args) -> int:
    if args.space == "sphere":
        net = sphere_net(args.gamma)
        xs, ys = net.points.xs.tolist(), net.points.ys.tolist()
        payload = {
            "space": "sphere",
            "gamma": args.gamma,
            "size": net.size,
            "points": [
                {"x": jsonio.complex_to_json(x), "y": jsonio.complex_to_json(y)}
                for x, y in zip(xs, ys)
            ],
        }
    else:
        space = jsonio.space_from_json(jsonio.load_json(args.space))
        net = greedy_net(space, args.gamma)
        payload = {
            "space": args.space,
            "gamma": args.gamma,
            "size": net.size,
            "indices": list(net.indices),
        }
    _emit(args, payload)
    return 0


def cmd_cover(args) -> int:
    space_t, space_z, space_w, members = jsonio.cover_from_json(
        jsonio.load_json(args.instance)
    )
    cover = mapspace_cover(
        space_t, space_z, space_w, members, lam=args.lam, delta=args.delta
    )
    _emit(
        args,
        {
            "gamma": cover.gamma,
            "count_bound": cover.count_bound,
            "cells": [list(cell) for cell in cover.sets],
            "net_sizes": {
                "t": cover.net_t.size,
                "z": cover.net_z.size,
                "w": cover.net_w.size,
            },
        },
    )
    return 0


def cmd_associate(args) -> int:
    cfg, eps = jsonio.bubble_from_json(jsonio.load_json(args.config))
    assoc = associate_tree(cfg, eps)
    _emit(args, jsonio.association_to_json(assoc))
    return 0


def cmd_verify_association(args) -> int:
    cfg, eps = jsonio.bubble_from_json(jsonio.load_json(args.config))
    assoc = jsonio.association_from_json(jsonio.load_json(args.assoc))
    report = verify_association(cfg, assoc, eps)
    _emit(args, jsonio.verification_to_json(report))
    return 0 if report.ok else 2


def cmd_check_membership(args) -> int:
    point = jsonio.moduli_from_json(jsonio.load_json(args.point))
    params = jsonio.params_from_json(jsonio.load_json(args.params))
    report = in_compact_subset(point, params)
    _emit(args, jsonio.membership_to_json(report))
    return 0 if report.ok else 2


def cmd_decompose(args) -> int:
    point = jsonio.moduli_from_json(jsonio.load_json(args.point))
    params = jsonio.params_from_json(jsonio.load_json(args.params))
    dec = decomposition(point, params)
    payload = jsonio.decomposition_to_json(dec)
    if args.svg:
        jsonio.write_text(args.svg, jsonio.decomposition_svg(dec))
        payload["svg"] = args.svg
    _emit(args, payload)
    return 0


def cmd_decorate(args) -> int:
    point = jsonio.moduli_from_json(jsonio.load_json(args.point))
    _emit(args, jsonio.decoration_to_json(args.m, decorate(point, (), args.m)))
    return 0


def _annulus_payload(delta: float, z, w, z2, w2):
    path = annulus_path(delta, z, w, z2, w2)
    gap = max(abs(z - z2), abs(w - w2))
    bound = 8.0 * math.pi * gap
    # absolute below 1: legs come from unit-disc coordinates, not from the gap
    within = path.total_length <= bound + 1e-9 * max(1.0, bound)
    payload = {
        "case": path.case,
        "length_z": path.length_z,
        "length_w": path.length_w,
        "total_length": path.total_length,
        "bound": bound,
        "within_bound": within,
    }
    return payload, within, path


def cmd_paths(args) -> int:
    if (args.instance is None) == (args.random is None):
        raise InputError("paths needs exactly one of --instance or --random")
    if args.instance is not None:
        data = jsonio.load_json(args.instance)
        delta = jsonio.require_key(data, "delta", float, "paths instance")
        ends = []
        for key in ("start", "end"):
            item = jsonio.require_key(data, key, dict, "paths instance")
            ends.append(
                (
                    jsonio.complex_from_json(item.get("z"), f"{key}.z"),
                    jsonio.complex_from_json(item.get("w"), f"{key}.w"),
                )
            )
        payload, within, path = _annulus_payload(
            delta, ends[0][0], ends[0][1], ends[1][0], ends[1][1]
        )
        payload["path_z"] = [jsonio.complex_to_json(v) for v in path.path_z]
        payload["path_w"] = [jsonio.complex_to_json(v) for v in path.path_w]
        _emit(args, payload)
        return 0 if within else 2

    if args.random < 0:
        raise InputError(f"paths --random must be nonnegative, got {args.random}")
    seed = _resolve_seed(args)
    rng = random.Random(0 if seed is None else seed)
    worst = 0.0
    violations = 0
    for _ in range(args.random):
        delta = rng.uniform(0.05, 0.85)
        pts = []
        for _ in range(2):
            mod = math.exp(rng.uniform(math.log(delta * delta), 0.0))
            z = cmath.rect(mod, rng.uniform(0.0, 2.0 * math.pi))
            pts.append((z, delta * delta / z))
        payload, within, _ = _annulus_payload(
            delta, pts[0][0], pts[0][1], pts[1][0], pts[1][1]
        )
        if not within:
            violations += 1
        if payload["bound"] > 1e-12:
            worst = max(worst, payload["total_length"] / payload["bound"])
    _emit(
        args,
        {
            "count": args.random,
            "worst_ratio": worst,
            "violations": violations,
        },
    )
    return 0 if violations == 0 else 2


def cmd_bounds(args) -> int:
    g = _constants(args)
    if args.what == "consts":
        _emit(args, jsonio.constants_to_json(g))
        return 0
    if args.what == "lambda":
        _emit(args, jsonio.lambda_to_json(choose_lambda(args.eps, g)))
        return 0
    if args.what == "N":
        lam = args.lam if args.lam is not None else choose_lambda(args.eps, g).value
        m, log_lip = decoration_budget(args.ell, args.area, lam, g.c_abs)
        total = total_cover_count(
            args.delta, g, args.nu_k, LogNumber(log_lip), m, args.ell
        )
        _emit(args, jsonio.total_cover_to_json(m, log_lip, total))
        return 0
    if args.mu is None:
        raise InputError("bounds curve requires --mu")
    out = curve_cover_count(args.delta, args.mu, args.lip, g, args.nu_k)
    _emit(args, jsonio.curve_cover_to_json(args.mu, out))
    return 0


def cmd_pipeline(args) -> int:
    report = run_pipeline(args.config, args.out_dir, seed=_resolve_seed(args))
    _emit(args, report.to_json())
    return report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="bubbletree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    trees = sub.add_parser("trees", help="stable rooted tree enumeration")
    tree_actions = trees.add_subparsers(dest="action", required=True)
    enum = tree_actions.add_parser("enumerate", help="list isomorphism classes")
    enum.add_argument("--n", type=int, required=True, help="external edge count")
    enum.set_defaults(func=cmd_trees_enumerate)

    net = sub.add_parser("net", help="construct a gamma-net")
    net.add_argument(
        "--space",
        required=True,
        help="'sphere' or a metric-space JSON file",
    )
    net.add_argument("--gamma", type=float, required=True)
    net.set_defaults(func=cmd_net)

    cover = sub.add_parser("cover", help="cover a family of Lipschitz maps")
    cover.add_argument("--instance", required=True, help="instance JSON file")
    cover.add_argument("--lambda", dest="lam", type=float, required=True)
    cover.add_argument("--delta", type=float, required=True)
    cover.set_defaults(func=cmd_cover)

    assoc = sub.add_parser("associate", help="tree association of a configuration")
    assoc.add_argument("--config", required=True, help="bubble configuration JSON")
    assoc.set_defaults(func=cmd_associate)

    verify = sub.add_parser(
        "verify-association", help="check an association against its configuration"
    )
    verify.add_argument("--config", required=True)
    verify.add_argument("--assoc", required=True)
    verify.set_defaults(func=cmd_verify_association)

    member = sub.add_parser(
        "check-membership", help="compact-subset membership of a moduli point"
    )
    member.add_argument("--point", required=True)
    member.add_argument("--params", required=True)
    member.set_defaults(func=cmd_check_membership)

    decomp = sub.add_parser("decompose", help="thick-thin decomposition")
    decomp.add_argument("--point", required=True)
    decomp.add_argument("--params", required=True)
    decomp.add_argument("--svg", help="also draw the decomposition")
    decomp.set_defaults(func=cmd_decompose)

    deco = sub.add_parser("decorate", help="deterministic extra marked points")
    deco.add_argument("--point", required=True)
    deco.add_argument("--m", type=int, required=True)
    deco.set_defaults(func=cmd_decorate)

    paths = sub.add_parser("paths", help="short paths on plumbing fibers")
    paths.add_argument("--instance", help="annulus instance JSON file")
    paths.add_argument(
        "--random", type=int, help="verify this many random instances"
    )
    paths.add_argument("--seed", type=int)
    paths.set_defaults(func=cmd_paths)

    bounds = sub.add_parser("bounds", help="constant and counting formulas")
    bounds.add_argument("what", choices=("N", "curve", "lambda", "consts"))
    bounds.add_argument("--ell", type=int, default=0)
    bounds.add_argument("--A", dest="area", type=float, default=1.0)
    bounds.add_argument("--delta", type=float, default=0.5)
    bounds.add_argument("--eps", type=float, default=0.125)
    bounds.add_argument("--nu-K", dest="nu_k", type=int, default=1)
    bounds.add_argument("--mu", type=int)
    bounds.add_argument("--Lambda", dest="lip", type=float, default=1.0)
    bounds.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        help="energy scale for N; derived from --eps when omitted",
    )
    bounds.add_argument("--consts", help="geometry constants JSON file")
    bounds.set_defaults(func=cmd_bounds)

    pipe = sub.add_parser("pipeline", help="run every stage end to end")
    pipe.add_argument("--config", required=True)
    pipe.add_argument("--out-dir", dest="out_dir", required=True)
    pipe.add_argument("--seed", type=int)
    pipe.set_defaults(func=cmd_pipeline)

    # every leaf writes its stdout bytes to --out too; added last, so the
    # flag stays last in each usage line
    leaves = (enum, net, cover, assoc, verify, member, decomp, deco, paths, bounds, pipe)
    for leaf in leaves:
        leaf.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (BubbletreeError, ValueError, OSError) as exc:
        sys.stderr.write(jsonio.dumps({"error": str(exc), "kind": type(exc).__name__}))
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
