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

The solver's dense output is read at the node grid in one vectorized pass
(_dense_rows) that is bit-identical to scipy's OdeSolution (verified on
scipy 1.17.1), and the cubic Hermite pieces built on those nodes are
computed here in closed form (_hermite_coefficients), so the package never
imports scipy.interpolate.

The arc-length oracle arc_length_from_height is closed-form: the
incomplete elliptic integral of the meridian.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ellipeinc

from .errors import EventNotReached, NegativeRadicand, ToleranceFailure

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

    solve_profile does not handle every accepted spec.  Measured on the
    edge probes of perfbench's surfaces workload, seeds 1-8:
      - oblate, a in [100, 1000]: 11 of 32 solve within the criterion-1
        invariants, 15 raise ToleranceFailure, and 6 solve but leave the
        ellipse by 1.4e-8 to 2.5e-5 between nodes;
      - near the pole, a = 1 and b in [0.99, 0.9999]: 27 of 32 solve, 5
        raise EventNotReached;
      - thin, b in [1e-7, 1e-3]: all 32 solve.
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


def _dense_rows(sol, nodes: np.ndarray, rows: list[int]) -> np.ndarray:
    """State rows `rows` of a forward DOP853 OdeSolution at ascending nodes.

    One vectorized pass with the arithmetic of scipy's OdeSolution.__call__
    and Dop853DenseOutput._call_impl, so the result equals
    sol(nodes)[rows] bit for bit (verified on scipy 1.17.1): each node takes
    the step searchsorted(ts_sorted, node, side) - 1, clipped to the steps;
    with x = (node - t_old) / h it sums the step's coefficients F from the
    last, multiplying by x and 1 - x in turn, onto zeros, and adds y_old.
    Ascending nodes visit the steps in order, so each step's coefficients
    are repeated over its run of nodes rather than gathered node by node.
    """
    steps = sol.interpolants
    step = np.searchsorted(sol.ts_sorted, nodes, side=sol.side)
    step -= 1
    np.clip(step, 0, len(steps) - 1, out=step)
    counts = np.bincount(step, minlength=len(steps))

    def spread(per_step: np.ndarray) -> np.ndarray:
        return np.repeat(per_step, counts, axis=-1)

    t_old = spread(np.array([s.t_old for s in steps]))
    x = (nodes - t_old) / spread(np.array([s.h for s in steps]))
    x_bar = 1 - x
    # (power, row, step), the power order reversed as the Horner loop reads it
    coeff = np.array([s.F for s in steps])[:, ::-1, rows].transpose(1, 2, 0)
    y = np.zeros((len(rows), nodes.size))
    for i, per_step in enumerate(coeff):
        y += spread(per_step)
        y *= x if i % 2 == 0 else x_bar
    y += spread(np.array([s.y_old for s in steps])[:, rows].T)
    return y


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
        self._c1 = _hermite_coefficients(radii, c1_nodes, -a2 * c2_nodes / s)
        self._c2 = _hermite_coefficients(radii, c2_nodes, c1_nodes / s)
        self._per_step = (radii.size - 1) / radii[-1]
        self.radii = radii

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
    Hermite interpolation error sits far below the 1e-9 target.  The nodes
    are read from the dense output in one vectorized pass (_dense_rows),
    bit-identical to scipy's OdeSolution (verified on scipy 1.17.1).  Raises
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
    c1_nodes, c2_nodes = _dense_rows(sol.sol, radii, [0, 1])

    ellipse_drift = float(np.max(np.abs(c1_nodes**2 + a2 * c2_nodes**2 - a2)))
    if ellipse_drift > 1e-8:
        raise ToleranceFailure(f"on-ellipse drift {ellipse_drift:.3e} exceeds 1e-8")
    end_misfit = abs(float(c2_nodes[-1]) - b)
    if end_misfit > 1e-10:
        raise ToleranceFailure(f"c2(r_b) misses b by {end_misfit:.3e} (> 1e-10)")
    # dc2 = c1 / S, so c1 > 0 is also dc2 > 0
    if not np.all(c1_nodes > 0.0):
        raise ToleranceFailure("profile positivity lost: need c1 > 0 and dc2 > 0")

    return ProfileCurve(spec, r_b, radii, c1_nodes, c2_nodes)


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
