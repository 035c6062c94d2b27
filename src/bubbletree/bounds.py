"""Explicit constants and covering-count formulas.

Everything here is closed-form arithmetic: the admissible energy scale lambda,
the per-tree membership and Lipschitz scales, the decoration budget, and the
covering counts for a single tree's map space and for the full moduli space.
Counts grow as towers, so each is one LogNumber with two levels: at level 1
the natural log of the count, with an exact big-integer mirror whenever the
value is an integer of at most a million digits; at level 2, once that log
itself overflows a double (every decoration budget the pipeline meets), the
log of the log.  Each count formula is written once and returns whichever
level its value needs; a count whose log log overflows too raises
InputError.  The geometric constants of the target manifold are
user configuration with a neutral default profile; they are not computable
here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from .bubbles import association_params
from .curves import CompactnessParams
from .errors import InputError, VerificationError
from .trees import RootedTree

DIGIT_CAP = 10**6

# natural-log threshold beyond which log1p(e^t) and t agree to double precision
_LOG1P_EXACT = 50.0
_EXP_MAX = 709.0


@dataclass(frozen=True)
class GeometryConstants:
    """Bounds on the geometry of the target, plus the absolute constant.

    lambda0 is the injectivity-type scale, C and q the mean-value constants,
    l <= lambda0 and c_iso the decay-estimate scales, M the neck Lipschitz
    factor, sigma the target-net density factor (zero disables the target
    factor), dim_half half the real dimension, and c_abs >= 9 the absolute
    constant in the decoration budget.
    """

    lambda0: float = 1.0
    C: float = 1.0
    q: float = math.pi
    l: float = 1.0
    c_iso: float = 1.0
    M: float = 1.0
    sigma: float = 1.0
    dim_half: int = 2
    c_abs: float = 9.0

    def __post_init__(self):
        for name in ("lambda0", "C", "q", "l", "c_iso", "M"):
            if not getattr(self, name) > 0.0:
                raise InputError(f"{name} must be positive")
        if self.sigma < 0.0:
            raise InputError("sigma must be nonnegative")
        if self.C < 1.0 or self.M < 1.0:
            raise InputError("C and M must be at least 1")
        if self.l > self.lambda0:
            raise InputError("l must not exceed lambda0")
        if self.c_abs < 9.0:
            raise InputError("c_abs must be at least 9")
        if int(self.dim_half) != self.dim_half or self.dim_half < 1:
            raise InputError("dim_half must be a positive integer")


DEFAULT_CONSTANTS = GeometryConstants()


@dataclass(frozen=True)
class LogNumber:
    """Positive count N in two-level level-index form (Clenshaw & Olver 1984).

    At level 1, value is ln N, and exact, when present, is N itself (kept only
    up to DIGIT_CAP digits); the log and the mirror are checked for
    consistency and comparisons prefer the exact form.  At level 2, value is
    ln ln N: the count's log itself is past double range, so ln and log10
    raise and only loglog10 is defined.  A count goes to level 2 only once its
    log overflows, so ordering compares the level first.
    """

    value: float
    exact: int | None = None
    level: int = 1

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError(f"log value must be finite, got {self.value}")
        if self.level not in (1, 2):
            raise InputError(f"level must be 1 or 2, got {self.level}")
        if self.exact is not None:
            if self.exact < 1:
                raise InputError("exact mirror must be a positive integer")
            ref = math.log(self.exact)
            if abs(self.ln - ref) > 1e-9 * max(1.0, abs(ref)):
                raise VerificationError(
                    f"log value {self.ln} disagrees with exact mirror (log {ref})"
                )

    @classmethod
    def from_int(cls, n: int) -> "LogNumber":
        if n < 1:
            raise InputError("count must be a positive integer")
        keep = n if n.bit_length() * math.log10(2.0) <= DIGIT_CAP else None
        return cls(math.log(n), keep)

    @property
    def ln(self) -> float:
        if self.level == 2:
            raise InputError(
                f"count exceeds log space: its log is e^{self.value:.6g}"
            )
        return self.value

    @property
    def log10(self) -> float:
        return self.ln / math.log(10.0)

    @property
    def loglog10(self) -> float:
        """log10 log10 N, defined for every count above 1."""
        if self.level == 2:
            return (self.value - math.log(math.log(10.0))) / math.log(10.0)
        if self.value <= 0.0:
            raise InputError("the count is at most 1, so its iterated log is undefined")
        return math.log10(self.log10)

    def __lt__(self, other: "LogNumber") -> bool:
        if self.level != other.level:
            return self.level < other.level
        if self.exact is not None and other.exact is not None:
            return self.exact < other.exact
        return self.value < other.value

    def __le__(self, other: "LogNumber") -> bool:
        return not other < self


def _log1p_exp(ln_x: float) -> float:
    """log(1 + x) for x given by its log; exact to double precision."""
    if ln_x > _LOG1P_EXACT:
        return ln_x
    return math.log1p(math.exp(ln_x))


def _mirror_power(base: float, exponent: float) -> int | None:
    """base ** exponent as an exact integer when that is representable."""
    if not (float(base).is_integer() and float(exponent).is_integer()):
        return None
    b, e = int(base), int(exponent)
    if b < 1 or e < 0:
        return None
    if e * math.log10(max(b, 2)) > DIGIT_CAP:
        return None
    return b**e


@dataclass(frozen=True)
class LambdaChoice:
    """Energy scale with the two admissibility ceilings and the binding one."""

    value: float
    decay_bound: float
    quantum_bound: float
    binding: str  # "decay", "quantum" or "both"


def choose_lambda(eps: float, g: GeometryConstants = DEFAULT_CONSTANTS) -> LambdaChoice:
    """Largest admissible energy scale for the given eps.

    lambda is capped by the decay ceiling l eps^2 (1 - eps) / (9 sqrt(C)) and
    by the energy-quantum ceiling eps sqrt(q / pi); the choice attains the
    smaller of the two.
    """
    eps = float(eps)
    if not 0.0 < eps <= 0.125:
        raise InputError(f"eps must lie in (0, 0.125], got {eps}")
    decay = g.l * eps * eps * (1.0 - eps) / (9.0 * math.sqrt(g.C))
    quantum = eps * math.sqrt(g.q / math.pi)
    if decay < quantum:
        binding = "decay"
    elif quantum < decay:
        binding = "quantum"
    else:
        binding = "both"
    return LambdaChoice(min(decay, quantum), decay, quantum, binding)


@dataclass(frozen=True)
class MapScales:
    """Scales pinning a tree's map space: membership thresholds, energy
    fraction eta, and the per-region Lipschitz budgets."""

    params: CompactnessParams
    eta: float
    lambda_v: Mapping[int, float]
    lambda_e: float

    @property
    def lambda_sup(self) -> float:
        return max(max(self.lambda_v.values()), self.lambda_e)


def membership_scales(
    tree: RootedTree, eps: float, lam: float, g: GeometryConstants = DEFAULT_CONSTANTS
) -> MapScales:
    """theta = eps, tau = 4 eps, alpha_v = (4 eps^3)^deg(v), eta = lambda /
    (3 sqrt(C) lambda0), Lambda_v = (9 pi sqrt(C) / eps^2) / alpha_v and
    Lambda_e = M / eps^2."""
    lam = float(lam)
    if lam <= 0.0:
        raise InputError("lambda must be positive")
    if not tree.is_stable():
        raise InputError("map scales are defined for stable trees only")
    params = association_params(tree, eps)
    eta = lam / (3.0 * math.sqrt(g.C) * g.lambda0)
    vertex_factor = 9.0 * math.pi * math.sqrt(g.C) / (eps * eps)
    lambda_v = {v: vertex_factor / params.alpha_of(v) for v in tree.vertices}
    lambda_e = g.M / (eps * eps)
    return MapScales(params, eta, lambda_v, lambda_e)


def decoration_budget(
    ell: int, area: float, lam: float, c_abs: float = DEFAULT_CONSTANTS.c_abs
) -> tuple[int, float]:
    """Decoration count m and the natural log of the Lipschitz multiplier.

    Both come from the quantity c (ell + area / lambda^2); m is its floor and
    the log is the quantity itself, so m <= log Lambda always.  A quantity
    past double range (lambda^2 tiny against the area, or underflowing to 0)
    raises InputError.
    """
    ell = int(ell)
    area = float(area)
    lam = float(lam)
    if ell < 0 or area < 0.0:
        raise InputError("ell and area must be nonnegative")
    if lam <= 0.0:
        raise InputError("lambda must be positive")
    if c_abs < 9.0:
        raise InputError("c_abs must be at least 9")
    lam_sq = lam * lam
    try:
        budget = c_abs * (ell + area / lam_sq)
    except (OverflowError, ZeroDivisionError):
        budget = math.inf
    if not math.isfinite(budget):
        raise InputError(
            f"decoration budget c (ell + area / lambda^2) is not a finite double: "
            f"area = {area:.6g}, lambda^2 = {lam_sq:.6g}"
        )
    return math.floor(budget), budget


def _target_factor_log(delta: float, g: GeometryConstants, nu_k: int) -> float:
    """log(1 + sigma delta^(-2k) nu_K) for a nontrivial factor."""
    ln_x = math.log(g.sigma) - 2.0 * g.dim_half * math.log(delta) + math.log(nu_k)
    return _log1p_exp(ln_x)


def _tower(ln_base: float, ln_expo: float, factor_ln: float) -> LogNumber:
    """The count whose log is ln_base + e^ln_expo * factor_ln.

    Level 1 while that log fits a double; past it the count is stored at
    level 2 by ln_expo + ln factor_ln, next to which ln_base is below
    rounding.
    """
    if ln_expo <= _EXP_MAX:
        ln_total = ln_base + math.exp(ln_expo) * factor_ln
        if math.isfinite(ln_total):
            return LogNumber(ln_total)
    return LogNumber(ln_expo + math.log(factor_ln), level=2)


def total_cover_count(
    delta: float,
    g: GeometryConstants,
    nu_k: int,
    lip: LogNumber,
    m: int,
    ell: int,
) -> LogNumber:
    """Moduli-space covering count at resolution delta.

    (1 + sigma delta^(-2k) nu_K) raised to (8 pi Lambda^2 delta^-2) ^
    binom(m + ell, 3), with lip the Lipschitz multiplier Lambda, evaluated
    in log space; past log range (any decoration budget above a handful of
    points) the count is returned at level 2.  Once ln ln N, which is about
    binom(m + ell, 3) log(8 pi Lambda^2 delta^-2), is itself past double
    range, the count fits neither level and InputError names ln ln ln N.
    """
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise InputError(f"delta must lie in (0, 1], got {delta}")
    if nu_k < 0 or m < 0 or ell < 0:
        raise InputError("nu_K, m and ell must be nonnegative")
    if g.sigma == 0.0 or nu_k == 0:
        return LogNumber(0.0, 1)
    cells = math.comb(m + ell, 3)
    per_layer = math.log(8.0 * math.pi) + 2.0 * lip.ln - 2.0 * math.log(delta)
    try:
        ln_expo = cells * per_layer
    except OverflowError:  # cells itself is past double range
        ln_expo = math.copysign(math.inf, per_layer)
    if ln_expo == math.inf:
        # ln ln ln N = ln cells + ln per_layer, summed from per_layer / 2,
        # which stays finite where 2 lip.ln overflows
        half = lip.ln + 0.5 * math.log(8.0 * math.pi) - math.log(delta)
        raise InputError(
            "count exceeds log-log space: its log log is e^"
            f"{math.log(cells) + math.log(2.0) + math.log(half):.6g}"
        )
    total = _tower(0.0, ln_expo, _target_factor_log(delta, g, nu_k))
    if total.level == 2:
        return total
    try:
        base = 1.0 + g.sigma * delta ** (-2.0 * g.dim_half) * nu_k
    except OverflowError:
        return total
    return LogNumber(total.value, _mirror_power(base, math.exp(ln_expo)))


def total_cover_loglog(
    delta: float,
    g: GeometryConstants,
    nu_k: int,
    lip: LogNumber,
    m: int,
    ell: int,
) -> float:
    """log10 log10 of total_cover_count; kept for the benchmark's bounds sweep."""
    return total_cover_count(delta, g, nu_k, lip, m, ell).loglog10


@dataclass(frozen=True)
class CurveCoverCount:
    """Covering count for one tree's map space, with its factor sizes.

    log_cells bounds the moduli-cell count, log_patch_net the per-region
    domain net size, and regions = mu + 1 counts the vertices plus edges.
    """

    total: LogNumber
    log_cells: float
    log_patch_net: float
    regions: int


def curve_cover_count(
    delta: float,
    mu: int,
    lam_sup: float,
    g: GeometryConstants = DEFAULT_CONSTANTS,
    nu_k: int = 1,
) -> CurveCoverCount:
    """Covering count (4 / delta^2)^(mu - 1) * (1 + sigma delta^(-2k)
    nu_K) ^ ((8 pi)^mu (Lambda / delta)^(2 mu) (mu + 1)).

    mu is the total vertex degree of the tree and Lambda the largest region
    Lipschitz budget.  Past log range the total is returned at level 2.
    Where the log of the cell count or of the patch net is not a finite
    double, InputError names mu.
    """
    delta = float(delta)
    mu = int(mu)
    lam_sup = float(lam_sup)
    if not 0.0 < delta <= 1.0:
        raise InputError(f"delta must lie in (0, 1], got {delta}")
    if mu < 3:
        raise InputError(f"mu must be at least 3, got {mu}")
    if mu > sys.float_info.max:
        raise InputError(f"mu = 10^{math.log10(mu):.1f} is past double range")
    if lam_sup <= 0.0:
        raise InputError("the Lipschitz bound must be positive")
    if nu_k < 0:
        raise InputError("nu_K must be nonnegative")
    ln_cells = (mu - 1) * math.log(4.0 / (delta * delta))
    ln_patch = mu * math.log(8.0 * math.pi) + 2.0 * mu * (
        math.log(lam_sup) - math.log(delta)
    )
    for term, value in (
        ("(mu - 1) ln(4 / delta^2)", ln_cells),
        ("mu ln(8 pi) + 2 mu ln(Lambda / delta)", ln_patch),
    ):
        if not math.isfinite(value):
            raise InputError(
                f"mu = {mu:.6g} is too large: {term} is not a finite double"
            )
    if g.sigma == 0.0 or nu_k == 0:
        total = LogNumber(ln_cells, _mirror_power(4.0 / (delta * delta), mu - 1))
    else:
        ln_expo = ln_patch + math.log(mu + 1)
        total = _tower(ln_cells, ln_expo, _target_factor_log(delta, g, nu_k))
    return CurveCoverCount(total, ln_cells, ln_patch, mu + 1)


def curve_cover_loglog(
    delta: float,
    mu: int,
    lam_sup: float,
    g: GeometryConstants = DEFAULT_CONSTANTS,
    nu_k: int = 1,
) -> float:
    """log10 log10 of curve_cover_count; kept for the benchmark's bounds sweep."""
    return curve_cover_count(delta, mu, lam_sup, g, nu_k).total.loglog10


def sphere_net_bound(gamma: float) -> tuple[float, float]:
    """Net-size bounds for the round sphere at mesh gamma.

    Returns 2 / (1 - cos(gamma/2)) and the weaker closed form 8 pi / gamma^2;
    the first never exceeds the second for gamma in (0, pi).
    """
    gamma = float(gamma)
    if not 0.0 < gamma < math.pi:
        raise InputError(f"gamma must lie in (0, pi), got {gamma}")
    exact_form = 2.0 / (1.0 - math.cos(gamma / 2.0))
    weak_form = 8.0 * math.pi / (gamma * gamma)
    if exact_form > weak_form * (1.0 + 1e-12):
        raise VerificationError("area bound exceeded its weak form")
    return exact_form, weak_form


def mapspace_count(nu_t: int, nu_w: int, nu_z: int) -> LogNumber:
    """Cell-count bound nu_T (1 + nu_W)^nu_Z for a space of Lipschitz maps
    indexed by a base net of size nu_T, with domain and codomain nets of
    sizes nu_Z and nu_W."""
    nu_t, nu_w, nu_z = int(nu_t), int(nu_w), int(nu_z)
    if nu_t < 1:
        raise InputError("the base net must have at least one point")
    if nu_w < 0 or nu_z < 0:
        raise InputError("net sizes must be nonnegative")
    ln = math.log(nu_t) + nu_z * math.log1p(nu_w)
    exact = None
    if nu_z * math.log10(max(nu_w + 1, 2)) <= DIGIT_CAP:
        exact = nu_t * (1 + nu_w) ** nu_z
    return LogNumber(ln, exact)
