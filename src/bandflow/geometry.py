"""Arc-length geometry of a truncated ellipsoid of revolution.

The band is the surface x^2 + y^2 = a^2 (1 - z^2) with |z| <= b, carrying
the induced metric dr^2 + c1(r)^2 dtheta^2 once the meridian is traversed
by arc length.  The meridian is the ellipse arc (c1, c2) = (a cos t, sin t),
0 <= t <= asin b, and its arc length from the equator has the closed form
r(t) = E(t | 1 - a^2), the incomplete elliptic integral of the second kind
(DLMF 19.2).  solve_profile samples it uniformly in t, so every node lies
on the ellipse and the last one at height b by construction; no ODE is
integrated.  Between nodes c1 and c2 are cubic Hermite pieces in r whose
slopes are the right-hand side of the arc-length system

    (dc1/dr, dc2/dr) = (-a^2 c2, c1) / S,    S = sqrt(c1^2 + a^4 c2^2).

Everything downstream (defect, connection coefficients, stream calculus)
consumes the derivatives of c1 up to third order, so all of them are
produced here by differentiating that right-hand side in closed form.  No
derivative in this module is ever taken by finite differences.

The Hermite pieces are computed here in closed form
(_hermite_coefficients), bit-identical to scipy's CubicHermiteSpline, so
the package never imports scipy.interpolate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipeinc

from .errors import NegativeRadicand, ToleranceFailure

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

# the criterion-1 tolerance of the on-ellipse invariant c1^2 - a^2 (1 - c2^2)
# at the node midpoints.  Its terms are of size a^2 and it rounds by up to
# four ulps of a^2 (measured), so above _A_MAX double precision cannot hold it
_INVARIANT_TOL = 1e-9
_A_MAX = math.sqrt(_INVARIANT_TOL / (4.0 * np.finfo(float).eps))


@dataclass(frozen=True)
class SurfaceSpec:
    """Shape parameters of the band: equatorial radius and truncation height.

    a >= 1 keeps the defect radicand nonnegative (a = 1 is the round
    sphere, the degenerate control case); 0 < b < 1 keeps the band away
    from the poles.

    solve_profile handles every accepted spec with a <= 1061 and b at
    least 4 a n^2 times the smallest normal double, for n = max(1001,
    128 a + 1) nodes (1.5e-294 at a = 1000, 8.9e-302 at a = 1): on a log
    grid of that box, b up to 1 - 1e-9, the criterion-1 invariants hold to
    <= 1e-9 at every node midpoint.  Outside it, solve_profile raises
    ToleranceFailure before making any node.
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
    dc2 and ddc1 are computed with the frame; ddc2, dddc1 and the defect
    radicand eps_sq are computed on first read and then kept, since not
    every reader needs them.  eps_sq is the package's one copy of the
    radicand.
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
    def eps_sq(self) -> np.ndarray:
        """The defect radicand dc1^2 - c1 ddc1 - 1, unclamped."""
        return self.dc1**2 - self.c1 * self.ddc1 - 1.0

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


def _hermite_coefficients(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> np.ndarray:
    """Cubic Hermite pieces through (x, y) with slopes dydx, shape (4, x.size - 1).

    Rows are the coefficients of the local variable s = t - x[i], highest
    power first, one column per interval: the arithmetic and layout of
    scipy's CubicHermiteSpline(x, y, dydx).c, so the two agree bit for bit.
    x must be strictly increasing; non-finite y or dydx raise ValueError.
    """
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dydx))):
        raise ValueError("Hermite node values and slopes must be finite")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


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
    ascending node grid on [0, r_b] and angles the nodes' angles t on the
    ellipse (a cos t, sin t).  A query finds its node interval once, by
    bisection, and evaluates both pieces from that one lookup.  Instances
    are safe to share across threads.
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
        self._c1 = _hermite_coefficients(radii, c1_nodes, -a2 * c2_nodes / s)
        self._c2 = _hermite_coefficients(radii, c2_nodes, c1_nodes / s)
        self.radii = radii
        self.angles = np.arctan2(spec.a * c2_nodes, c1_nodes)

    def __repr__(self) -> str:
        return (
            f"ProfileCurve(a={self.spec.a:g}, b={self.spec.b:g}, "
            f"r_b={self.r_b:.12g}, nodes={self.radii.size})"
        )

    def _fold(self, r) -> tuple[np.ndarray, np.ndarray]:
        """r as an array of at least one dimension, and |r| for the pieces."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        size = np.abs(rr)
        # written so that a nan radius fails it too
        if not np.all(size <= self.r_b * (1.0 + 1e-12)):
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
        i = np.searchsorted(radii[1:-1], x, side="right")
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


def solve_profile(spec: SurfaceSpec) -> ProfileCurve:
    """Sample the closed-form meridian and package it as a ProfileCurve.

    The nodes sit uniformly in the angle t on [0, asin b]: c1 = a cos t,
    c2 = sin t and r = E(t | 1 - a^2).  There are at least 1001 of them
    and 128 per unit of a, so the equator's tip, of curvature radius 1/a
    over t < 1/a, holds some 80 nodes.  Every node lies on the ellipse,
    the last one at height b and arc length arc_length_from_height(a, b),
    and c1 > 0 throughout, all by construction.

    Raises ToleranceFailure, before any node is made, where double
    precision cannot carry the profile: for a > _A_MAX the on-ellipse
    invariant rounds by more than its tolerance, and below a thinness of
    about a n^2 / 1.8e308 the c1 pieces' leading coefficients, which grow
    like a n^2 / b once a cos t rounds to a, come within a factor 4 of
    overflow.
    """
    a, b = spec.a, spec.b
    if a > _A_MAX:
        raise ToleranceFailure(
            f"a={a:g} exceeds {_A_MAX:.0f}: c1^2 ~ a^2 rounds by more than "
            f"the {_INVARIANT_TOL:g} on-ellipse tolerance"
        )
    n = max(1001, math.ceil(128.0 * a) + 1)
    thinnest = 4.0 * a * n * n * np.finfo(float).tiny
    if b < thinnest:
        raise ToleranceFailure(
            f"b={b:g} is below {thinnest:.3g}: the Hermite pieces of {n} nodes would overflow"
        )
    t = np.linspace(0.0, math.asin(b), n)
    radii = ellipeinc(t, 1.0 - a * a)
    return ProfileCurve(spec, radii[-1], radii, a * np.cos(t), np.sin(t))


def arc_length_from_height(a: float, z: float) -> float:
    """Meridian arc length from the equator to height z, odd in z.

    With z = sin t the meridian is (a cos t, sin t), whose speed is
    sqrt(1 - (1 - a^2) sin^2 t), so the length is the incomplete elliptic
    integral E(arcsin |z| | 1 - a^2), signed like z.  This route never
    touches the ODE solver, so it serves as an independent check on r_b.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"height must satisfy |z| < 1, got {z}")
    # + 0.0 keeps the length at z = -0.0 the exact +0.0 of z = 0.0
    return math.copysign(ellipeinc(math.asin(abs(z)), 1.0 - a * a), z) + 0.0


def curvature_defect(curve: ProfileCurve, r) -> float | np.ndarray:
    """Defect sqrt(dc1^2 - c1 ddc1 - 1), the profile's excess over the sphere.

    The radicand vanishes identically at a = 1 and equals a^2 - 1 at the
    equator.  Roundoff may push it a hair below zero, which is clamped;
    anything below -1e-8 means the profile itself is broken.
    """
    radicand = curve.frame(r).eps_sq
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
