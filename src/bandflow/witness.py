"""Grid search for a stable zonal flow with positive curvature against a bump.

A certificate is a pair (f, h): f generates an Arnold-stable zonal flow on
the given band while the bump h makes the curvature of that flow against
the perturbation field strictly positive, with all three curvature routes
agreeing.  The search walks small deterministic parameter grids for f
(floored powers of the warp factor, floored Gaussians, and the
constant-slope family), optimizes the descent width of the plateau bump
for each stable candidate along the 1-d closed form, and re-verifies the
winner with the 2-d and direct routes before claiming anything.

A failed search is a result, not an error: the report carries the best
near-miss and the quantity that blocked it.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BandflowError
from .fields import ZonalVelocityProfile, zonal_from_f
from .geometry import ProfileCurve, SurfaceSpec, solve_profile
from .misiolek import (
    MCResult,
    bump_field,
    mc_bump_formula,
    mc_direct,
    mc_reduced,
    optimal_bump_ratio,
)
from .profiles import (
    CurvePowerProfile,
    GaussianProfile,
    HelmholtzProfile,
    PlateauProfile,
    RadialProfile,
)
from .stability import (
    Lambda1Result,
    ProfileConditions,
    StabilityReport,
    check_arnold,
    lambda1,
    profile_conditions,
)

__all__ = [
    "SWEEP_COLUMNS",
    "CandidateOutcome",
    "WitnessResult",
    "WitnessSearchConfig",
    "find_witness",
    "sweep",
    "sweep_summary",
]

SWEEP_COLUMNS = (
    "a",
    "b",
    "verdict",
    "branch",
    "fprime_min",
    "fprime_max",
    "lambda1",
    "mc_value",
    "mc_error",
    "p_or_kappa",
    "delta",
    "w",
)

_CERTIFIED = "certified"
_NOT_FOUND = "not-found"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class WitnessSearchConfig:
    """Deterministic search grids and tolerances.

    The width parameter w of the bump is the fraction of the half-band
    used by the descent; it is line-searched after the coarse grid.  All
    grids are fixed tuples so identical configs replay identically.
    workers is the number of cells `sweep` runs at once; one cell's
    search always runs in a single thread.
    """

    families: tuple[str, ...] = ("power", "gaussian", "helmholtz")
    p_grid: tuple[float, ...] = (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)
    delta_grid: tuple[float, ...] = (1e-3, 1e-2)
    decay_targets: tuple[float, ...] = (0.05, 0.1, 0.3)
    slope_fractions: tuple[float, ...] = (0.94, 0.85, 0.7, 0.5)
    w_count: int = 12
    w_lo: float = 0.05
    w_hi: float = 0.9
    w_tol: float = 1e-4
    rho: float = 0.1
    safety: float = 0.05
    fprime_grid: int = 1024
    eigen_grid: int = 2048
    mc_rel_tol: float = 1e-8
    workers: int = 4

    def describe(self) -> dict:
        """Every field, tuples as lists, for provenance records."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(self).items()
        }


@dataclass(frozen=True)
class CandidateOutcome:
    """One evaluated f candidate: stability, conditions, optimized bump."""

    order: int
    family: str
    params: dict
    admissible: bool
    branch: str
    margin: float
    conditions: ProfileConditions | None
    best_w: float
    best_mc: float
    mc_error: float

    @property
    def stable(self) -> bool:
        return self.branch in ("positive-branch", "negative-branch")

    def summary(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "admissible": self.admissible,
            "branch": self.branch,
            "margin": self.margin,
            "conditions": list(self.conditions.as_tuple()) if self.conditions else None,
            "best_w": self.best_w,
            "best_mc": self.best_mc,
        }


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one search, certified or not, with full diagnostics."""

    spec: SurfaceSpec
    verdict: str
    family: str | None
    f_params: dict | None
    w: float | None
    stability: StabilityReport | None
    conditions: ProfileConditions | None
    mc_results: tuple[MCResult, ...]
    implication: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == _CERTIFIED


def _candidate_profiles(
    curve: ProfileCurve, lam: Lambda1Result, config: WitnessSearchConfig
) -> list[tuple[str, dict, RadialProfile]]:
    out: list[tuple[str, dict, RadialProfile]] = []
    for family in config.families:
        if family == "power":
            grid = [
                {"p": float(p), "delta": float(delta)}
                for p in config.p_grid
                for delta in config.delta_grid
            ]
        elif family == "gaussian":
            grid = [
                {
                    "kappa": math.log(1.0 / target) / curve.r_b**2,
                    "delta": float(delta),
                    "edge_decay": float(target),
                }
                for target in config.decay_targets
                for delta in config.delta_grid
            ]
        elif family == "helmholtz":
            grid = [
                {"rate": fraction * lam.value, "fraction": float(fraction)}
                for fraction in config.slope_fractions
            ]
        else:
            raise ValueError(f"unknown profile family {family!r}")
        out.extend(
            (family, params, _profile_from_params(curve, family, params)) for params in grid
        )
    return out


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # golden-section ascent; fn is cached by the caller where it matters
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _optimize_bump(
    F: RadialProfile,
    curve: ProfileCurve,
    config: WitnessSearchConfig,
) -> tuple[float, float, float]:
    """Best descent width for the plateau bump, by coarse grid + line search."""
    widths = np.linspace(config.w_lo, config.w_hi, config.w_count)
    results: dict[float, MCResult] = {}

    def mc_at(w: float) -> float:
        h = PlateauProfile(curve.r_b, w)
        results[w] = mc_bump_formula(F, h, curve, rel_tol=config.mc_rel_tol)
        return results[w].value

    coarse = [mc_at(w) for w in widths]
    k = int(np.argmax(coarse))
    lo = widths[max(0, k - 1)]
    hi = widths[min(len(widths) - 1, k + 1)]
    best_w, best_val = _golden_max(mc_at, float(lo), float(hi), config.w_tol)
    if coarse[k] >= best_val:
        best_w, best_val = float(widths[k]), float(coarse[k])
    return float(best_w), float(best_val), float(results[best_w].error_estimate)


def _evaluate_candidate(
    order: int,
    family: str,
    params: dict,
    f: RadialProfile,
    curve: ProfileCurve,
    lam: Lambda1Result,
    config: WitnessSearchConfig,
) -> CandidateOutcome:
    probe = np.linspace(-curve.r_b, curve.r_b, 512)
    if float(np.min(f.value(probe))) <= 1e-12:
        return CandidateOutcome(
            order=order,
            family=family,
            params=params,
            admissible=False,
            branch="inadmissible",
            margin=-math.inf,
            conditions=None,
            best_w=math.nan,
            best_mc=-math.inf,
            mc_error=math.nan,
        )
    report = check_arnold(
        f,
        curve,
        grid_n=config.fprime_grid,
        safety=config.safety,
        lambda_result=lam,
    )
    conditions = profile_conditions(f, curve, rho=config.rho)
    best_w, best_mc, mc_err = _optimize_bump(
        ZonalVelocityProfile(f, curve), curve, config
    )
    return CandidateOutcome(
        order=order,
        family=family,
        params=params,
        admissible=True,
        branch=report.verdict,
        margin=report.margin,
        conditions=conditions,
        best_w=best_w,
        best_mc=best_mc,
        mc_error=mc_err,
    )


_CERTIFIED_NOTE = (
    "Positive curvature along an Arnold-stable zonal flow implies a conjugate "
    "point on the corresponding geodesic of the volume-preserving "
    "diffeomorphism group; the implication is asserted, not computed."
)
_NOT_FOUND_NOTE = (
    "No certified pair in the searched families; no conjugate-point "
    "implication is drawn."
)


def _empty_result(
    spec: SurfaceSpec, verdict: str, implication: str, diagnostics: dict
) -> WitnessResult:
    """A result that names no candidate: nothing found, or a failed cell."""
    return WitnessResult(
        spec=spec,
        verdict=verdict,
        family=None,
        f_params=None,
        w=None,
        stability=None,
        conditions=None,
        mc_results=(),
        implication=implication,
        diagnostics=diagnostics,
    )


def _agreement(x: MCResult, y: MCResult) -> bool:
    scale = max(abs(x.value), abs(y.value))
    return abs(x.value - y.value) <= max(1e-8, 1e-5 * scale)


def find_witness(
    spec: SurfaceSpec, config: WitnessSearchConfig = WitnessSearchConfig()
) -> WitnessResult:
    """Search the configured families for a certified (f, h) pair.

    Candidates are ranked by their optimized curvature among the
    Arnold-stable ones; the leader is re-verified with the reduced and
    direct routes, and certification additionally demands that the value
    clears ten times its own quadrature error.  Candidates run one after
    another in enumeration order, which also breaks ties, so results are
    reproducible.
    """
    curve = solve_profile(spec)
    lam = lambda1(curve, n=config.eigen_grid)
    candidates = _candidate_profiles(curve, lam, config)
    outcomes = [
        _evaluate_candidate(order, family, params, f, curve, lam, config)
        for order, (family, params, f) in enumerate(candidates)
    ]

    stable = [o for o in outcomes if o.stable]
    admissible = [o for o in outcomes if o.admissible]
    pool_for_best = stable if stable else admissible
    best = (
        max(pool_for_best, key=lambda o: (o.best_mc, -o.order))
        if pool_for_best
        else None
    )
    diagnostics = {
        "candidates_examined": len(outcomes),
        "stable_count": len(stable),
        "best_stability_margin": max((o.margin for o in admissible), default=-math.inf),
        "best_mc_over_stable": max((o.best_mc for o in stable), default=-math.inf),
        "best_mc_overall": max((o.best_mc for o in admissible), default=-math.inf),
        "candidates": [o.summary() for o in outcomes],
    }

    if best is None:
        return _empty_result(spec, _NOT_FOUND, _NOT_FOUND_NOTE, diagnostics)

    # rebuild the winner and re-verify, from its serialized parameters only
    f = _profile_from_params(curve, best.family, best.params)
    report = check_arnold(
        f,
        curve,
        grid_n=config.fprime_grid,
        safety=config.safety,
        lambda_result=lam,
    )
    conditions = profile_conditions(f, curve, rho=config.rho)
    h = PlateauProfile(curve.r_b, best.best_w)
    F = ZonalVelocityProfile(f, curve)
    formula = mc_bump_formula(F, h, curve, rel_tol=config.mc_rel_tol)
    # below one: some bump beats the penalty; at or above one: none can
    diagnostics["optimal_bump_ratio"] = optimal_bump_ratio(F, curve)

    mc_results: tuple[MCResult, ...] = (formula,)
    verdict = _NOT_FOUND
    if best.stable and formula.value > 0.0:
        W = bump_field(h, curve)
        reduced = mc_reduced(F, W, rel_tol=config.mc_rel_tol)
        direct = mc_direct(zonal_from_f(f, curve), W, rel_tol=config.mc_rel_tol)
        mc_results = (formula, reduced, direct)
        agree = _agreement(formula, reduced) and _agreement(reduced, direct)
        diagnostics["verification"] = {
            "methods_agree": agree,
            "significant": formula.significant,
        }
        if agree and formula.significant:
            verdict = _CERTIFIED

    return WitnessResult(
        spec=spec,
        verdict=verdict,
        family=best.family,
        f_params=best.params,
        w=best.best_w,
        stability=report,
        conditions=conditions,
        mc_results=mc_results,
        implication=_CERTIFIED_NOTE if verdict == _CERTIFIED else _NOT_FOUND_NOTE,
        diagnostics=diagnostics,
    )


def _profile_from_params(
    curve: ProfileCurve, family: str, params: dict
) -> RadialProfile:
    if family == "power":
        return CurvePowerProfile(curve, params["p"], params["delta"])
    if family == "gaussian":
        return GaussianProfile(params["delta"], params["kappa"])
    if family == "helmholtz":
        return HelmholtzProfile(curve, params["rate"])
    raise ValueError(f"unknown profile family {family!r}")


def sweep_summary(result: WitnessResult) -> dict:
    """Flatten one search outcome into the sweep's CSV row."""
    row: dict = {
        "a": result.spec.a,
        "b": result.spec.b,
        "verdict": result.verdict,
        "branch": result.stability.verdict if result.stability else "",
        "fprime_min": result.stability.fprime_min if result.stability else math.nan,
        "fprime_max": result.stability.fprime_max if result.stability else math.nan,
        "lambda1": result.stability.lambda1.value if result.stability else math.nan,
    }
    formula = next(
        (m for m in result.mc_results if m.method == "formula-1d"), None
    )
    row["mc_value"] = formula.value if formula else math.nan
    row["mc_error"] = formula.error_estimate if formula else math.nan
    params = result.f_params or {}
    row["p_or_kappa"] = params.get(
        "p", params.get("kappa", params.get("rate", math.nan))
    )
    row["delta"] = params.get("delta", 0.0 if result.f_params else math.nan)
    row["w"] = result.w if result.w is not None else math.nan
    return row


def sweep(
    a_values,
    b_values,
    config: WitnessSearchConfig = WitnessSearchConfig(),
) -> list[WitnessResult]:
    """Run find_witness over the grid of (a, b) pairs, a-major order.

    Cells run concurrently but are collected in grid order; a cell that
    raises is recorded as an error verdict in its row instead of aborting
    the remaining cells.
    """
    pairs = [
        (float(a), float(b)) for a in a_values for b in b_values
    ]

    def run_cell(pair: tuple[float, float]) -> WitnessResult:
        a, b = pair
        try:
            return find_witness(SurfaceSpec(a, b), config)
        except (BandflowError, ValueError) as exc:
            # record the offending cell without re-tripping spec validation
            spec = object.__new__(SurfaceSpec)
            object.__setattr__(spec, "a", a)
            object.__setattr__(spec, "b", b)
            return _empty_result(spec, "error", str(exc), {"error": str(exc)})

    workers = max(1, config.workers)
    if workers == 1 or len(pairs) == 1:
        return [run_cell(p) for p in pairs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, pairs))
