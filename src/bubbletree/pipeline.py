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
from typing import Any, Callable, Mapping

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
    in_compact_subset,
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

    config carries the bubble configuration inline under "bubble" plus
    optional knobs: "ell", "area" (default: lambda^2 per bubble point),
    "delta", "nu_k", "constants" (partial geometry profile), "seed", and
    "gamma_overrides" ({edge: [re, im]}, applied to the association before
    verification, for fault injection).
    """
    if isinstance(config, (str, Path)):
        config = jsonio.load_json(config)
    if not isinstance(config, Mapping):
        raise InputError("pipeline config must be a JSON object")
    if "bubble" not in config:
        raise InputError("pipeline config is missing the key 'bubble'")
    cfg, eps = jsonio.bubble_from_json(config["bubble"])

    def _num(key: str, default: float) -> float:
        value = config.get(key, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"pipeline config {key!r} must be a number")
        return float(value)

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
    overrides = {}
    for k, v in overrides_raw.items():
        try:
            edge = int(k)
        except (TypeError, ValueError):
            raise InputError(f"gamma_overrides key {k!r} is not an edge id") from None
        overrides[edge] = jsonio.complex_from_json(v, f"gamma_overrides[{k!r}]")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state: dict[str, Any] = {}

    def stage_associate() -> tuple[str, tuple[str, ...]]:
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
        state["assoc"] = assoc
        name = "01-association.json"
        jsonio.write_json(out / name, jsonio.association_to_json(assoc))
        tree = assoc.point.tree
        return (
            f"{len(tree.vertices)} vertices, {len(tree.full_edges)} full edges",
            (name,),
        )

    def stage_verify() -> tuple[str, tuple[str, ...]]:
        assoc = state["assoc"]
        report = verify_association(cfg, assoc, eps)
        name = "02-verification.json"
        jsonio.write_json(out / name, jsonio.verification_to_json(report))
        if not report.ok:
            raise VerificationError(report.summary())
        return report.summary(), (name,)

    def stage_params() -> tuple[str, tuple[str, ...]]:
        choice = choose_lambda(eps, g)
        scales = membership_scales(state["assoc"].point.tree, eps, choice.value, g)
        state["choice"] = choice
        state["scales"] = scales
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
        return f"lambda = {choice.value:.6g} ({choice.binding} bound)", (name,)

    def stage_membership() -> tuple[str, tuple[str, ...]]:
        report = in_compact_subset(state["assoc"].point, state["scales"].params)
        name = "04-membership.json"
        jsonio.write_json(out / name, jsonio.membership_to_json(report))
        if not report.ok:
            raise VerificationError(report.first_violation)
        return f"{report.checked} inequalities checked", (name,)

    def stage_decomposition() -> tuple[str, tuple[str, ...]]:
        point = state["assoc"].point
        params = state["scales"].params
        dec = decomposition(point, params)
        rng = random.Random(seed)
        probes = []
        for _ in range(PROBE_COUNT):
            val = cmath.rect(
                math.sqrt(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
            )
            q = fiber_from_root(point, ProjPoint.from_affine(val))
            hits = dec.classify(q)
            if not hits:
                raise VerificationError(f"probe at {val} escaped the decomposition")
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
        return (
            f"{kinds.count('thick')} thick, {kinds.count('neck')} neck, "
            f"{kinds.count('end')} end regions",
            (name,),
        )

    def stage_decoration() -> tuple[str, tuple[str, ...]]:
        point = state["assoc"].point
        lam = state["choice"].value
        area = _num("area", lam * lam * cfg.size)
        m, log_lip = decoration_budget(ell, area, lam, g.c_abs)
        points = decorate(point, state["scales"].params, (), m)
        state["m"] = m
        state["log_lip"] = log_lip
        name = "06-decoration.json"
        payload = jsonio.decoration_to_json(m, points)
        payload["log_lip"] = log_lip
        jsonio.write_json(out / name, payload)
        return f"m = {m} decoration points", (name,)

    def stage_bounds() -> tuple[str, tuple[str, ...]]:
        # Decorating a stable tree needs m >= 9 points, which already pushes
        # the family count past log range: such a count comes back at level 2
        # and is reported by its iterated log, log10_log10N.
        lip = LogNumber(state["log_lip"])
        total = total_cover_count(delta, g, nu_k, lip, state["m"], ell)
        payload = jsonio.total_cover_to_json(state["m"], state["log_lip"], total)
        mu = len(state["assoc"].point.tree.incident_pairs())
        curve = curve_cover_count(delta, mu, state["scales"].lambda_sup, g, nu_k)
        payload["curve"] = jsonio.curve_cover_to_json(mu, curve)
        name = "07-bounds.json"
        jsonio.write_json(out / name, payload)
        if total.level == 1:
            return f"log10 N = {total.log10:.6g}", (name,)
        return f"log10 log10 N = {total.loglog10:.6g}", (name,)

    bodies: tuple[Callable[[], tuple[str, tuple[str, ...]]], ...] = (
        stage_associate,
        stage_verify,
        stage_params,
        stage_membership,
        stage_decomposition,
        stage_decoration,
        stage_bounds,
    )
    results: list[StageResult] = []
    for stage_name, body in zip(STAGES, bodies):
        try:
            detail, artifacts = body()
        except (BubbletreeError, ValueError) as exc:
            code = exit_code(exc)
            results.append(StageResult(stage_name, "fail", str(exc), (), code))
            break
        results.append(StageResult(stage_name, "pass", detail, artifacts))
    return PipelineReport(tuple(results), seed)
