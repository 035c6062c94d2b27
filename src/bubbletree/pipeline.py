"""End-to-end run: bubble configuration through counting bounds.

Stages run in a fixed order, each emitting one JSON artifact into the output
directory; a failing stage records its diagnostic and short-circuits the
rest.  Given the same configuration and seed, reruns produce byte-identical
artifacts.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import jsonio
from .bounds import (
    LogNumber,
    choose_lambda,
    curve_cover_count,
    decoration_budget,
    membership_scales,
    total_cover_count,
)
from .bubbles import TreeAssociation, associate_tree, verify_association
from .curves import (
    ModuliPoint,
    decomposition,
    decorate,
    fiber_from_root,
)
from .errors import BubbletreeError, InputError, VerificationError, exit_code
from .nets import ProjPoint

STAGES = (
    "associate",
    "verify-association",
    "params",
    "membership",
    "decomposition",
    "decoration",
    "bounds",
)

PROBE_COUNT = 8

CONFIG_KEYS = (
    "bubble", "ell", "area", "delta", "nu_k", "constants", "seed", "gamma_overrides"
)


@dataclass(frozen=True)
class StageResult:
    name: str
    verdict: str  # "pass" or "fail"
    detail: str
    artifacts: tuple[str, ...]
    exit_code: int = 0  # errors.exit_code of a failing stage's error


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[StageResult, ...]
    seed: int

    @property
    def ok(self) -> bool:
        return len(self.stages) == len(STAGES) and all(
            s.verdict == "pass" for s in self.stages
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else self.stages[-1].exit_code

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "stages": [
                {
                    "name": s.name,
                    "verdict": s.verdict,
                    "detail": s.detail,
                    "artifacts": list(s.artifacts),
                }
                for s in self.stages
            ],
        }


def run_pipeline(
    config: Mapping[str, Any] | str | Path,
    out_dir: str | Path,
    seed: int | None = None,
) -> PipelineReport:
    """Run every stage on the configured bubble configuration.

    The stages run as straight-line code in the order of STAGES and pass
    their values on as locals.  The first BubbletreeError or ValueError ends
    the run as the failure of the first stage that has not passed.

    config carries the bubble configuration inline under "bubble" plus
    optional knobs: "ell", "area" (default: lambda^2 per bubble point),
    "delta", "nu_k", "constants" (partial geometry profile), "seed", and
    "gamma_overrides" ({edge: [re, im]}, applied to the association before
    verification, for fault injection).  Any other key is rejected.

    Certificate: every decomposition probe lands in a region, with no
    check.  At each circle, inside the closed disc or outside the open disc
    holds for any chart value that is not NaN (_disc_verdicts and
    _outside_unit_as_none).  At the root vertex the value is outside the
    open unit disc, the root end, or inside the closed one; there it is
    thick, or inside the closed disc of a child edge e.  An external e
    gives its end; a full e gives its neck, or the value at e+ is inside the
    closed unit disc and the descent goes on from e+, so it stops in a
    region.  No chart value is NaN: a member's coordinates are finite,
    _normal keeps every slot of the propagated point finite, and a complex
    quotient of finite slots is finite or infinite.
    """
    if isinstance(config, (str, Path)):
        config = jsonio.load_json(config)
    if not isinstance(config, Mapping):
        raise InputError("pipeline config must be a JSON object")
    for key in config:
        if key not in CONFIG_KEYS:
            raise InputError(f"unknown pipeline config key {key!r}")
    if "bubble" not in config:
        raise InputError("pipeline config is missing the key 'bubble'")
    cfg, eps = jsonio.bubble_from_json(config["bubble"])

    def _num(key: str, default: float) -> float:
        return jsonio.number_field(config.get(key, default), f"pipeline config {key!r}")

    def _int(key: str, default: int) -> int:
        return jsonio.int_field(config.get(key, default), f"pipeline config {key!r}")

    ell = _int("ell", 0)
    delta = _num("delta", 0.5)
    nu_k = _int("nu_k", 1)
    g = jsonio.constants_from_json(config.get("constants"))
    if seed is None:
        seed = _int("seed", 0)
    overrides_raw = config.get("gamma_overrides", {})
    if not isinstance(overrides_raw, Mapping):
        raise InputError("gamma_overrides must be a JSON object")
    overrides = jsonio.int_keyed(
        overrides_raw, "gamma_overrides", jsonio.complex_from_json
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: list[StageResult] = []

    def passed(detail: str, name: str) -> None:
        results.append(StageResult(STAGES[len(results)], "pass", detail, (name,)))

    try:
        assoc = associate_tree(cfg, eps)
        if overrides:
            unknown = set(overrides) - set(assoc.point.gamma)
            if unknown:
                raise InputError(
                    f"gamma_overrides mention unknown edges {sorted(unknown)}"
                )
            point = ModuliPoint(
                assoc.point.tree,
                {**assoc.point.gamma, **overrides},
                assoc.point.zr,
            )
            assoc = TreeAssociation(
                assoc.tree, point, assoc.root_vertex, assoc.edge_to_bubble
            )
        point = assoc.point
        tree = point.tree
        name = "01-association.json"
        jsonio.write_json(out / name, jsonio.association_to_json(assoc))
        passed(f"{len(tree.vertices)} vertices, {len(tree.full_edges)} full edges", name)

        report = verify_association(cfg, assoc, eps)
        name = "02-verification.json"
        jsonio.write_json(out / name, jsonio.verification_to_json(report))
        if not report.ok:
            raise VerificationError(report.summary())
        passed(report.summary(), name)

        choice = choose_lambda(eps, g)
        scales = membership_scales(tree, eps, choice.value, g)
        name = "03-params.json"
        jsonio.write_json(
            out / name,
            {
                "lambda": jsonio.lambda_to_json(choice),
                "eta": scales.eta,
                "params": jsonio.params_to_json(scales.params),
                "lambda_v": {str(v): x for v, x in sorted(scales.lambda_v.items())},
                "lambda_e": scales.lambda_e,
                "lambda_sup": scales.lambda_sup,
            },
        )
        passed(f"lambda = {choice.value:.6g} ({choice.binding} bound)", name)

        # scales.params equal the association scales that stage 2 checked
        membership = report.membership
        name = "04-membership.json"
        jsonio.write_json(out / name, jsonio.membership_to_json(membership))
        passed(f"{membership.checked} inequalities checked", name)

        dec = decomposition(point, scales.params)
        rng = random.Random(seed)
        probes = []
        for _ in range(PROBE_COUNT):
            val = cmath.rect(
                math.sqrt(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
            )
            hits = dec.classify(fiber_from_root(point, ProjPoint.from_affine(val)))
            probes.append(
                {
                    "root_value": jsonio.complex_to_json(val),
                    "regions": [jsonio.region_to_json(r) for r in hits],
                }
            )
        payload = jsonio.decomposition_to_json(dec)
        payload["probes"] = probes
        name = "05-decomposition.json"
        jsonio.write_json(out / name, payload)
        kinds = [r.kind for r in dec.regions]
        passed(
            f"{kinds.count('thick')} thick, {kinds.count('neck')} neck, "
            f"{kinds.count('end')} end regions",
            name,
        )

        area = _num("area", choice.value * choice.value * cfg.size)
        m, log_lip = decoration_budget(ell, area, choice.value, g.c_abs)
        payload = jsonio.decoration_to_json(m, decorate(point, (), m))
        payload["log_lip"] = log_lip
        name = "06-decoration.json"
        jsonio.write_json(out / name, payload)
        passed(f"m = {m} decoration points", name)

        # Decorating a stable tree needs m >= 9 points, which already pushes
        # the family count past log range: such a count comes back at level 2
        # and is reported by its iterated log, log10_log10N.
        total = total_cover_count(delta, g, nu_k, LogNumber(log_lip), m, ell)
        payload = jsonio.total_cover_to_json(m, log_lip, total)
        mu = len(tree.incident_pairs())
        curve = curve_cover_count(delta, mu, scales.lambda_sup, g, nu_k)
        payload["curve"] = jsonio.curve_cover_to_json(mu, curve)
        name = "07-bounds.json"
        jsonio.write_json(out / name, payload)
        if total.level == 1:
            passed(f"log10 N = {total.log10:.6g}", name)
        else:
            passed(f"log10 log10 N = {total.loglog10:.6g}", name)
    except (BubbletreeError, ValueError) as exc:
        # the first stage that has not passed is the one that raised
        stage = STAGES[len(results)]
        results.append(StageResult(stage, "fail", str(exc), (), exit_code(exc)))
    return PipelineReport(tuple(results), seed)
