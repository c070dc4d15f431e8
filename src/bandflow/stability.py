"""Arnold stability certification for zonal flows on the band.

The criterion needs two ingredients: the slope F' of the vorticity-stream
relation along the flow, and the first Dirichlet eigenvalue lambda_1 of
minus the Laplace-Beltrami operator.  Separation of variables reduces the
eigenvalue problem to the radial Sturm-Liouville pencil

    -(c1 phi')' + (m^2 / c1) phi = lambda c1 phi,    phi(+-r_b) = 0,

whose first eigenvalue is monotone in m, so the scan over Fourier modes
terminates as soon as a mode fails to undercut the running minimum (m = 0
wins in practice).  Dirichlet data is a recorded choice, not a theorem:
stream perturbations are taken to vanish on the boundary circles.

Each pencil is discretized by symmetric finite differences and its
smallest eigenvalue found by shifted inverse iteration on the tridiagonal
K - sigma W (LAPACK dpttrf/dpttrs), with the shift kept below lambda_1
because the factorization fails otherwise.  The eigenvalue is read as the
energy-form Rayleigh quotient, a ratio of sums of positive terms, so it
is resolved to about 1e-15 relative however widely the coefficients
range; a solve takes at most a few factorizations and about five
tridiagonal solves.  optimal_bump_ratio in misiolek solves its bump
pencil the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConvergenceFailure
from .fields import fprime_from_f
from .geometry import ProfileCurve
from .profiles import RadialProfile

__all__ = [
    "EigenEstimate",
    "Lambda1Result",
    "ProfileConditions",
    "StabilityReport",
    "check_arnold",
    "lambda1",
    "lambda1_mode",
    "profile_conditions",
]

_STRICTNESS_SLACK = 1e-12
_PARITY_TOL = 1e-8
_PENCIL_MAX_STEPS = 64
_MAX_MODE = 64
_FPRIME_GRID = 1024
_CONDITION_GRID = 2048
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EigenEstimate:
    """First Sturm-Liouville eigenvalue of one Fourier mode on two grids.

    richardson combines the two second-order values as (4 fine - coarse)/3;
    error_bar is the conservative |fine - coarse|/3, the size of the
    correction itself.  It covers the discretization only: the solver
    error, about 1e-15 relative, is negligible beside it.
    """

    mode: int
    coarse: float
    fine: float
    richardson: float
    grids: tuple[int, int]

    @property
    def error_bar(self) -> float:
        return abs(self.fine - self.coarse) / 3.0


@dataclass(frozen=True)
class Lambda1Result:
    """First eigenvalue of -Laplacian with the per-mode scan that found it."""

    value: float
    error_bar: float
    modes: tuple[EigenEstimate, ...]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the branch criterion on a dense radial grid.

    verdict is positive-branch when F' stays strictly positive,
    negative-branch when F' stays strictly negative while clearing
    -lambda1 (1 - safety), and undetermined otherwise.  margin is the
    distance to the nearest violated branch constraint: positive for
    certified verdicts, nonpositive when undetermined.
    """

    verdict: str
    fprime_min: float
    fprime_max: float
    lambda1: Lambda1Result
    margin: float
    safety: float
    grid_n: int


@dataclass(frozen=True)
class ProfileConditions:
    """The five admissibility checks on f, evaluated on a dense grid."""

    positive: bool
    even: bool
    decreasing: bool
    small_at_boundary: bool
    ratio_decreasing: bool
    rho: float

    @property
    def all_hold(self) -> bool:
        return all(self.as_tuple())

    def as_tuple(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.positive,
            self.even,
            self.decreasing,
            self.small_at_boundary,
            self.ratio_decreasing,
        )


def _pencil_smallest(
    stiff: np.ndarray, potential: np.ndarray | float, mass: np.ndarray, step: float
) -> float:
    """Smallest lambda of -(stiff u')' + potential u = lambda mass u, u = 0 at both ends.

    Symmetric finite differences on n intervals of width step: stiff sits
    at the n interval midpoints, potential and mass at the n - 1 interior
    nodes.  Inverse iteration on the tridiagonal K - sigma W, with the
    shift sigma moved up toward lambda1 but kept strictly below it: K -
    sigma W factors (dpttrf) exactly while sigma < lambda1, so a failed
    pivot proves the shift overshot and it falls back halfway to the last
    good one.  lambda is read as the energy-form Rayleigh quotient, whose
    terms are all positive, and returned once two successive quotients
    agree to 4 eps relative, so a returned value is finite and positive.
    """
    k = stiff / step**2
    diag = k[:-1] + k[1:] + potential
    off = -k[1:-1]
    d, e, info = lapack.dpttrf(diag, off)
    if info != 0:
        raise ConvergenceFailure("eigen pencil is not positive definite")
    sigma = 0.0
    y = np.ones_like(mass)
    # the differences of y with its zero walls, one per interval
    dy = np.empty(k.size)
    prev = math.inf
    for _ in range(_PENCIL_MAX_STEPS):
        y = lapack.dpttrs(d, e, mass * y)[0]
        y /= np.max(np.abs(y))
        dy[0] = y[0]
        np.subtract(y[1:], y[:-1], out=dy[1:-1])
        dy[-1] = -y[-1]
        lam = float((k @ (dy * dy) + (potential * y) @ y) / (mass @ (y * y)))
        if abs(prev - lam) <= 4.0 * _EPS * lam:
            return lam
        # once its error shrinks threefold a step, the quotient overshoots
        # lambda1 by less than twice its last change.  Keeping the shift
        # 1e-4 below lam still cuts the error about 1e-9-fold a step when
        # lambda2 - lambda1 is of order lambda1, and keeps it clear of a
        # slowly converging overshoot.  Refactor only when the shift at
        # least halves its distance to lam.
        target = lam - max(2.0 * abs(prev - lam), 1e-4 * lam)
        prev = lam
        if target - sigma > 0.5 * (lam - sigma):
            d_new, e_new, info = lapack.dpttrf(diag - target * mass, off)
            if info > 0:
                target = 0.5 * (sigma + target)
                d_new, e_new, info = lapack.dpttrf(diag - target * mass, off)
            if info == 0:
                sigma, d, e = target, d_new, e_new
    raise ConvergenceFailure(
        f"eigen pencil iteration did not settle within {_PENCIL_MAX_STEPS} steps"
    )


def _sl_smallest(curve: ProfileCurve, m: int, n: int) -> float:
    # symmetric finite differences of the self-adjoint form on n intervals;
    # interior unknowns only, Dirichlet walls; the grids are the curve's,
    # shared by every mode
    c_mid = curve.c1(curve.sample_grid("mid", n))
    c_int = curve.c1(curve.sample_grid("interior", n))
    return _pencil_smallest(c_mid, (m * m) / c_int, c_int, 2.0 * curve.r_b / n)


def lambda1_mode(curve: ProfileCurve, m: int, n: int = 2048) -> EigenEstimate:
    """First eigenvalue of Fourier mode m, Richardson-extrapolated over n, 2n."""
    if m < 0:
        raise ValueError(f"Fourier index must be nonnegative, got {m}")
    if n < 32:
        raise ValueError(f"grid size must be at least 32, got {n}")
    coarse = _sl_smallest(curve, m, n)
    fine = _sl_smallest(curve, m, 2 * n)
    richardson = (4.0 * fine - coarse) / 3.0
    return EigenEstimate(
        mode=m, coarse=coarse, fine=fine, richardson=richardson, grids=(n, 2 * n)
    )


def lambda1(curve: ProfileCurve) -> Lambda1Result:
    """Scan Fourier modes for the global first eigenvalue of -Laplacian.

    The per-mode value increases with m (the m^2/c1 term only adds), so
    the scan stops at the first mode that does not fall below the running
    minimum; on thin or very wide bands neighbouring modes can tie to the
    last digit, and no later mode can then be lower.  The boundary
    condition is Dirichlet (see the module docstring).  Each mode is
    solved on lambda1_mode's default grids.
    """
    modes: list[EigenEstimate] = []
    best: EigenEstimate | None = None
    for m in range(_MAX_MODE + 1):
        est = lambda1_mode(curve, m)
        modes.append(est)
        if best is not None and est.richardson >= best.richardson:
            break
        best = est
    else:  # pragma: no cover
        raise ConvergenceFailure(
            f"mode scan did not settle within {_MAX_MODE} Fourier modes"
        )
    return Lambda1Result(
        value=best.richardson, error_bar=best.error_bar, modes=tuple(modes)
    )


def check_arnold(
    f: RadialProfile,
    curve: ProfileCurve,
    *,
    safety: float = 0.05,
    lambda_result: Lambda1Result | None = None,
) -> StabilityReport:
    """Assign the Arnold branch verdict for the zonal flow generated by f.

    F' is scanned on the curve's uniform grid of 1024 points across the
    band (ProfileCurve.sample_grid, shared by every profile checked); the
    negative branch keeps a safety fraction of lambda1 in hand because
    lambda1 is itself a numerical estimate.  A precomputed Lambda1Result
    may be injected to amortize scans over many candidate profiles.
    """
    if not 0.0 <= safety < 1.0:
        raise ValueError(f"safety must lie in [0, 1), got {safety}")
    lam = lambda_result if lambda_result is not None else lambda1(curve)
    radii = curve.sample_grid("band", _FPRIME_GRID)
    slope = fprime_from_f(f, curve, radii)
    fprime_min = float(np.min(slope))
    fprime_max = float(np.max(slope))
    floor = -lam.value * (1.0 - safety)
    positive_margin = fprime_min
    negative_margin = min(-fprime_max, fprime_min - floor)
    if fprime_min > 0.0:
        verdict, margin = "positive-branch", positive_margin
    elif fprime_max < 0.0 and fprime_min > floor:
        verdict, margin = "negative-branch", negative_margin
    else:
        verdict, margin = "undetermined", max(positive_margin, negative_margin)
    return StabilityReport(
        verdict=verdict,
        fprime_min=fprime_min,
        fprime_max=fprime_max,
        lambda1=lam,
        margin=margin,
        safety=safety,
        grid_n=_FPRIME_GRID,
    )


def profile_conditions(
    f: RadialProfile, curve: ProfileCurve, *, rho: float = 0.1
) -> ProfileConditions:
    """Evaluate the five admissibility conditions on f over a dense grid.

    The grid holds 2048 points on [0, r_b], mirrored for parity; both are
    the curve's own (ProfileCurve.sample_grid).  Strict
    monotonicity is tested between consecutive samples with slack 1e-12,
    skipping the pair touching r = 0 where even functions are flat to
    second order.  rho quantifies the boundary smallness requirement
    f(r_b) <= rho f(0).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    half = curve.sample_grid("half", _CONDITION_GRID)
    right = f.value(half)
    left = f.value(curve.sample_grid("mirror", _CONDITION_GRID))
    c1 = curve.c1(half)

    positive = bool(np.min(right) > 0.0 and np.min(left) > 0.0)
    even = bool(np.max(np.abs(right - left)) <= _PARITY_TOL)
    diffs = np.diff(right)[1:]  # first pair touches r=0, excluded
    decreasing = bool(np.all(diffs < -_STRICTNESS_SLACK))
    small_at_boundary = bool(right[-1] <= rho * right[0])
    ratio = right**2 / c1**4
    ratio_diffs = np.diff(ratio)[1:]
    ratio_decreasing = bool(np.all(ratio_diffs < -_STRICTNESS_SLACK))
    return ProfileConditions(
        positive=positive,
        even=even,
        decreasing=decreasing,
        small_at_boundary=small_at_boundary,
        ratio_decreasing=ratio_decreasing,
        rho=rho,
    )
