"""Arc-length geometry of a truncated ellipsoid of revolution.

The band is the surface x^2 + y^2 = a^2 (1 - z^2) with |z| <= b, carrying
the induced metric dr^2 + c1(r)^2 dtheta^2 once the meridian is traversed
by arc length.  The profile pair (c1, c2) = (distance from the axis,
height) solves the autonomous system

    (dc1/dr, dc2/dr) = (-a^2 c2, c1) / S,    S = sqrt(c1^2 + a^4 c2^2),

from (a, 0) at the equator until the height reaches b.  Everything
downstream (defect, connection coefficients, stream calculus) consumes the
derivatives of c1 up to third order, so all of them are produced here by
differentiating the right-hand side in closed form.  No derivative in this
module is ever taken by finite differences.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .errors import (
    EventNotReached,
    NegativeRadicand,
    QuadratureFailure,
    ToleranceFailure,
)

__all__ = [
    "PROFILE_COLUMNS",
    "ProfileCurve",
    "ProfileFrame",
    "SurfaceSpec",
    "arc_length_from_height",
    "curvature_defect",
    "profile_table",
    "solve_profile",
]

PROFILE_COLUMNS = ("r", "c1", "c2", "dc1", "dc2", "ddc1", "epsilon")

# DOP853 tolerances of every integration that carries the meridian: the
# profile solve here and the Helmholtz build in profiles
_RTOL = 1e-12
_ATOL = 1e-14


@dataclass(frozen=True)
class SurfaceSpec:
    """Shape parameters of the band: equatorial radius and truncation height.

    a >= 1 keeps the defect radicand nonnegative (a = 1 is the round
    sphere, the degenerate control case); 0 < b < 1 keeps the band away
    from the poles.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not self.a >= 1.0:
            raise ValueError(f"equatorial radius must satisfy a >= 1, got {self.a}")
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"truncation height must satisfy 0 < b < 1, got {self.b}")


@dataclass(frozen=True)
class ProfileFrame:
    """Batched profile values and radial derivatives at query points.

    Produced by ProfileCurve.frame; all members are 1-d arrays of equal
    length, derivatives are with respect to arc length r.  r, c1, c2, dc1,
    dc2 and ddc1 are computed with the frame; ddc2 and dddc1 are computed
    on first read and then kept, since the curvature integrands, the
    frame's main readers, need neither.
    """

    r: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    dc1: np.ndarray
    dc2: np.ndarray
    ddc1: np.ndarray
    # a^2, S and dS/dr of the derivative chain, which ddc2 and dddc1 read
    _a2: float = field(repr=False)
    _s: np.ndarray = field(repr=False)
    _sdot: np.ndarray = field(repr=False)

    @functools.cached_property
    def ddc2(self) -> np.ndarray:
        s = self._s
        return (self.dc1 * s - self.c1 * self._sdot) / (s * s)

    @functools.cached_property
    def dddc1(self) -> np.ndarray:
        a2, s, sdot = self._a2, self._s, self._sdot
        a4 = a2 * a2
        c1, c2, dc1, dc2, ddc1, ddc2 = self.c1, self.c2, self.dc1, self.dc2, self.ddc1, self.ddc2
        sddot = (dc1**2 + c1 * ddc1 + a4 * (dc2**2 + c2 * ddc2) - sdot**2) / s
        n = dc2 * s - c2 * sdot
        ndot = ddc2 * s - c2 * sddot
        return -a2 * (ndot * s - 2.0 * n * sdot) / s**3


def _like(values: np.ndarray, r) -> float | np.ndarray:
    """values as a float when r was a scalar, otherwise unchanged."""
    return float(values[0]) if np.ndim(r) == 0 else values


def _pointwise(fn):
    """Let an array-only radial function also take a scalar r.

    The last positional argument reaches fn as a float array of at least
    one dimension, and a scalar r gets a float back (see _like).  Arrays
    take the short path: this wraps every profile evaluation.
    """

    @functools.wraps(fn)
    def wrapper(*args):
        *head, r = args
        arr = np.asarray(r, dtype=float)
        if arr.ndim:
            return fn(*head, arr)
        return _like(fn(*head, arr.reshape(1)), r)

    return wrapper


class ProfileCurve:
    """Immutable arc-length profile supporting evaluation on [-r_b, r_b].

    Only the right half is stored (dense Hermite interpolation of c1 and
    c2 with their exact nodal slopes); queries are folded by the parity
    symmetry, c1 even and c2 odd.  Derivatives are reconstructed from the
    interpolated pair through the chain

        S     = sqrt(c1^2 + a^4 c2^2)
        dc1   = -a^2 c2 / S              dc2   = c1 / S
        Sdot  = (c1 dc1 + a^4 c2 dc2) / S
        ddc1  = -a^2 (dc2 S - c2 Sdot) / S^2
        ddc2  = (dc1 S - c1 Sdot) / S^2

    and one more derivative of ddc1 for the third order.  radii is the
    node grid on [0, r_b], uniform up to rounding.  A query finds its node
    interval once and evaluates both pieces from that one lookup.
    Instances are safe to share across threads.
    """

    def __init__(
        self,
        spec: SurfaceSpec,
        r_b: float,
        radii: np.ndarray,
        c1_nodes: np.ndarray,
        c2_nodes: np.ndarray,
    ):
        self.spec = spec
        self.r_b = float(r_b)
        a2 = spec.a ** 2
        a4 = a2 * a2
        s = np.sqrt(c1_nodes**2 + a4 * c2_nodes**2)
        # the pieces' coefficients, highest power first, one column per node
        # interval; _hermite evaluates them
        self._c1 = CubicHermiteSpline(radii, c1_nodes, -a2 * c2_nodes / s).c
        self._c2 = CubicHermiteSpline(radii, c2_nodes, c1_nodes / s).c
        self._per_step = (radii.size - 1) / radii[-1]
        self.radii = radii

    @property
    def a(self) -> float:
        return self.spec.a

    @property
    def b(self) -> float:
        return self.spec.b

    def __repr__(self) -> str:
        return (
            f"ProfileCurve(a={self.spec.a:g}, b={self.spec.b:g}, "
            f"r_b={self.r_b:.12g}, nodes={self.radii.size})"
        )

    def _fold(self, r) -> tuple[np.ndarray, np.ndarray]:
        """r as an array of at least one dimension, and |r| for the pieces."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        size = np.abs(rr)
        if np.any(size > self.r_b * (1.0 + 1e-12)):
            worst = float(np.max(size))
            raise ValueError(
                f"query radius {worst:.17g} outside the band [-{self.r_b:.17g}, {self.r_b:.17g}]"
            )
        return rr, np.minimum(size, self.r_b, out=size)

    def _hermite(self, x: np.ndarray, *pieces: np.ndarray) -> list[np.ndarray]:
        """The given Hermite pieces at x in [0, r_b], from one interval lookup.

        The arithmetic is scipy's PPoly evaluation, so the values equal the
        splines' bit for bit: the interval i with radii[i] <= x < radii[i+1]
        (the last one closed), then c3 + c2 s, + c1 s^2, + c0 s^3 in that
        order, with s = x - radii[i].
        """
        radii = self.radii
        last = radii.size - 2
        i = np.minimum((x * self._per_step).astype(np.intp), last)
        np.maximum(i, 0, out=i)  # a nan query casts to a negative index
        # the grid is uniform only up to rounding, so i may be one off
        i -= x < radii[i]
        i += x >= radii[i + 1]
        np.minimum(i, last, out=i)
        s = x - radii[i]
        s2 = s * s
        s3 = s2 * s
        return [
            ((c3.take(i) + c2.take(i) * s) + c1.take(i) * s2) + c0.take(i) * s3
            for c0, c1, c2, c3 in pieces
        ]

    def frame(self, r) -> ProfileFrame:
        """Evaluate the derivative chain at r (scalar or array)."""
        rr, folded = self._fold(r)
        c1, c2 = self._hermite(folded, self._c1, self._c2)
        c2 = np.sign(rr) * c2
        a2 = self.spec.a ** 2
        a4 = a2 * a2
        s = np.sqrt(c1 * c1 + a4 * c2 * c2)
        dc1 = -a2 * c2 / s
        dc2 = c1 / s
        sdot = (c1 * dc1 + a4 * c2 * dc2) / s
        ddc1 = -a2 * (dc2 * s - c2 * sdot) / (s * s)
        return ProfileFrame(
            r=rr, c1=c1, c2=c2, dc1=dc1, dc2=dc2, ddc1=ddc1, _a2=a2, _s=s, _sdot=sdot
        )

    def c1(self, r) -> float | np.ndarray:
        return _like(self._hermite(self._fold(r)[1], self._c1)[0], r)

    def c2(self, r) -> float | np.ndarray:
        rr, folded = self._fold(r)
        return _like(np.sign(rr) * self._hermite(folded, self._c2)[0], r)

    def dc1(self, r) -> float | np.ndarray:
        return _like(self.frame(r).dc1, r)

    def dc2(self, r) -> float | np.ndarray:
        return _like(self.frame(r).dc2, r)

    def ddc1(self, r) -> float | np.ndarray:
        return _like(self.frame(r).ddc1, r)

    def ddc2(self, r) -> float | np.ndarray:
        return _like(self.frame(r).ddc2, r)

    def dddc1(self, r) -> float | np.ndarray:
        return _like(self.frame(r).dddc1, r)

    def dlog_c1(self, r) -> float | np.ndarray:
        """Logarithmic derivative dc1/c1, the recurring metric weight."""
        fr = self.frame(r)
        return _like(fr.dc1 / fr.c1, r)


def meridian_slopes(c1: float, c2: float, a2: float, a4: float) -> tuple[float, float]:
    """Right-hand side (dc1, dc2) = (-a^2 c2, c1) / S of the profile system.

    Scalar floats in, scalar floats out; a2 and a4 are a^2 and a^4.  Every
    integration that carries the meridian (the profile solve and the
    Helmholtz build) calls this one copy.
    """
    s = math.sqrt(c1 * c1 + a4 * c2 * c2)
    return -a2 * c2 / s, c1 / s


def solve_profile(spec: SurfaceSpec) -> ProfileCurve:
    """Integrate the profile system and package it as a ProfileCurve.

    The integration runs forward from the equator with a terminal event at
    height b; the event is root-refined on the dense output, and the node
    grid (spacing <= 5e-4, at least 1001 points) stores values whose
    Hermite interpolation error sits far below the 1e-9 target.  Raises
    EventNotReached if the height never attains b and ToleranceFailure if
    the sampled curve drifts off the ellipse or misses the endpoint.
    """
    a, b = spec.a, spec.b
    a2, a4 = a * a, a**4

    def rhs(_r: float, y: np.ndarray) -> tuple[float, float]:
        c1, c2 = y.tolist()
        return meridian_slopes(c1, c2, a2, a4)

    def reach_height(_r: float, y: np.ndarray) -> float:
        return y[1] - b

    reach_height.terminal = True
    reach_height.direction = 1.0

    # a + 2 exceeds the quarter-meridian length, so a validated spec must
    # trip the event strictly inside the span
    span = a + 2.0
    sol = solve_ivp(
        rhs,
        (0.0, span),
        [a, 0.0],
        method="DOP853",
        rtol=_RTOL,
        atol=_ATOL,
        dense_output=True,
        events=reach_height,
    )
    if sol.t_events[0].size == 0:
        raise EventNotReached(
            f"height c2 never reached b={b} while integrating to r={span}"
        )
    # the event locator already root-finds on the dense output to ~4 eps
    r_b = float(sol.t_events[0][0])

    n = max(1001, math.ceil(r_b / 5e-4) + 1)
    radii = np.linspace(0.0, r_b, n)
    c1_nodes, c2_nodes = sol.sol(radii)

    ellipse_drift = float(np.max(np.abs(c1_nodes**2 + a2 * c2_nodes**2 - a2)))
    if ellipse_drift > 1e-8:
        raise ToleranceFailure(f"on-ellipse drift {ellipse_drift:.3e} exceeds 1e-8")
    s = np.sqrt(c1_nodes**2 + a4 * c2_nodes**2)
    speed_drift = float(np.max(np.abs((a4 * c2_nodes**2 + c1_nodes**2) / s**2 - 1.0)))
    if speed_drift > 1e-8:
        raise ToleranceFailure(f"unit-speed drift {speed_drift:.3e} exceeds 1e-8")
    end_misfit = abs(float(c2_nodes[-1]) - b)
    if end_misfit > 1e-10:
        raise ToleranceFailure(f"c2(r_b) misses b by {end_misfit:.3e} (> 1e-10)")
    if not (np.all(c1_nodes > 0.0) and np.all(c1_nodes / s > 0.0)):
        raise ToleranceFailure("profile positivity lost: need c1 > 0 and dc2 > 0")

    return ProfileCurve(spec, r_b, radii, c1_nodes, c2_nodes)


def arc_length_from_height(a: float, z: float) -> float:
    """Meridian arc length from the equator to height z, odd in z.

    Integrates the closed-form speed sqrt(1 + a^2 t^2 / (1 - t^2)) of the
    height parametrization.  This route never touches the ODE solver, so
    it serves as an independent check on r_b.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"height must satisfy |z| < 1, got {z}")
    if z == 0.0:
        return 0.0
    aa = float(a) ** 2

    def speed(t: float) -> float:
        return math.sqrt(1.0 + aa * t * t / (1.0 - t * t))

    value, estimate = quad(speed, 0.0, abs(z), epsabs=1e-13, epsrel=1e-13, limit=200)
    if estimate > 1e-10:
        raise QuadratureFailure(f"arc-length quadrature error {estimate:.3e} exceeds 1e-10")
    return math.copysign(value, z)


def curvature_defect(curve: ProfileCurve, r) -> float | np.ndarray:
    """Defect sqrt(dc1^2 - c1 ddc1 - 1), the profile's excess over the sphere.

    The radicand vanishes identically at a = 1 and equals a^2 - 1 at the
    equator.  Roundoff may push it a hair below zero, which is clamped;
    anything below -1e-8 means the profile itself is broken.
    """
    fr = curve.frame(r)
    radicand = fr.dc1**2 - fr.c1 * fr.ddc1 - 1.0
    low = float(np.min(radicand))
    if low < -1e-8:
        raise NegativeRadicand(f"defect radicand reached {low:.3e}, below -1e-8")
    return _like(np.sqrt(np.where(radicand < 0.0, 0.0, radicand)), r)


def profile_table(curve: ProfileCurve, n: int = 201) -> np.ndarray:
    """Uniform table of PROFILE_COLUMNS on [0, r_b] for CSV export."""
    if n < 2:
        raise ValueError("table needs at least 2 rows")
    radii = np.linspace(0.0, curve.r_b, n)
    fr = curve.frame(radii)
    eps = curvature_defect(curve, radii)
    return np.column_stack([fr.r, fr.c1, fr.c2, fr.dc1, fr.dc2, fr.ddc1, eps])
