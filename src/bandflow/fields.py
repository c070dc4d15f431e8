"""Stream-function calculus and coordinate vector fields on the band.

Coordinates are (r, theta) with metric dr^2 + c1(r)^2 dtheta^2.  The Hodge
star follows the convention star(dr-direction) = -(1/c1) * theta-direction,
so a stream function psi induces the velocity u = star grad psi with
u = -(psi' / c1) dtheta-direction.  The three routes to the slope F' of the
vorticity-stream relation omega = F(psi) are implemented side by side and
kept deliberately independent: one through f, one through psi derivatives,
one through the gradient ratio.  Their agreement is a load-bearing check,
not a convenience.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import DivisionNearZero, QuadratureFailure
from .geometry import ProfileCurve, _pointwise
from .profiles import RadialProfile
from .quadrature import adaptive_gauss_legendre

__all__ = [
    "SeparableField",
    "StreamFunction",
    "VectorField",
    "ZonalField",
    "ZonalVelocityProfile",
    "divergence",
    "fprime_from_f",
    "fprime_from_psi",
    "fprime_numerator",
    "fprime_ratio",
    "zonal_from_f",
]

_NEAR_ZERO = 1e-14
# largest |u1| on the boundary circles that still counts as tangent; the
# curvature routes (misiolek) hold perturbation fields to the same bound
_TANGENCY_TOL = 1e-10


@_pointwise
def fprime_numerator(f: RadialProfile, curve: ProfileCurve, r) -> float | np.ndarray:
    """The second-order combination f'' - (dc1/c1) f'.

    This is the numerator of the slope of the vorticity-stream relation;
    its sign against f decides the Arnold branch.
    """
    fr = curve.frame(r)
    return f.d2(r) - (fr.dc1 / fr.c1) * f.d1(r)


@_pointwise
def fprime_from_f(f: RadialProfile, curve: ProfileCurve, r) -> float | np.ndarray:
    """Slope of the vorticity-stream relation as (f'' - (dc1/c1) f') / f."""
    values = f.value(r)
    small = float(np.min(np.abs(values)))
    if small < _NEAR_ZERO:
        raise DivisionNearZero(f"|f| dropped to {small:.3e} on the requested points")
    return fprime_numerator(f, curve, r) / values


class StreamFunction(RadialProfile):
    """Stream function of the zonal flow generated by f, normalized to 0 at r=0.

    The value integrates f/c1 adaptively from the equator; the derivatives
    expand psi' = f/c1 through the curve's exact c1 chain, so the third
    derivative that the slope formula needs is free of numerical
    differencing.
    """

    def __init__(self, f: RadialProfile, curve: ProfileCurve):
        self.f = f
        self.curve = curve

    def value(self, r):
        def integrand(x: np.ndarray) -> np.ndarray:
            return self.f.value(x) / self.curve.c1(x)

        out = np.zeros_like(r)
        for i, radius in enumerate(r.flat):
            if radius == 0.0:
                continue
            result = adaptive_gauss_legendre(
                integrand, 0.0, abs(radius), rel_tol=1e-10, abs_tol=1e-13
            )
            if result.error > 1e-9:
                raise QuadratureFailure(
                    f"stream quadrature error {result.error:.3e} exceeds 1e-9"
                )
            out.flat[i] = math.copysign(result.value, radius)
        return out

    def d1(self, r):
        return self.f.value(r) / self.curve.frame(r).c1

    def d2(self, r):
        fr = self.curve.frame(r)
        return self.f.d1(r) / fr.c1 - self.f.value(r) * fr.dc1 / fr.c1**2

    def d3(self, r):
        fr = self.curve.frame(r)
        fv, fd, fdd = self.f.value(r), self.f.d1(r), self.f.d2(r)
        c1, dc1, ddc1 = fr.c1, fr.dc1, fr.ddc1
        return (
            fdd / c1
            - 2.0 * fd * dc1 / c1**2
            - fv * ddc1 / c1**2
            + 2.0 * fv * dc1**2 / c1**3
        )

    def describe(self) -> dict:
        return {"family": "stream", "f": self.f.describe()}


def _psi_slope_guard(d1: np.ndarray) -> None:
    small = float(np.min(np.abs(d1)))
    if small < _NEAR_ZERO:
        raise DivisionNearZero(
            f"|psi'| dropped to {small:.3e}; the flow is degenerate there"
        )


@_pointwise
def fprime_from_psi(psi: StreamFunction, r) -> float | np.ndarray:
    """Slope via the three-term stream expansion.

    psi'''/psi' + (dc1/c1) psi''/psi' + (ddc1 c1 - dc1^2)/c1^2; equivalent
    to fprime_from_f wherever psi' does not vanish.
    """
    fr = psi.curve.frame(r)
    d1 = psi.d1(r)
    _psi_slope_guard(d1)
    d2, d3 = psi.d2(r), psi.d3(r)
    c1, dc1, ddc1 = fr.c1, fr.dc1, fr.ddc1
    return d3 / d1 + (dc1 / c1) * (d2 / d1) + (ddc1 * c1 - dc1**2) / c1**2


@_pointwise
def fprime_ratio(psi: StreamFunction, r) -> float | np.ndarray:
    """Slope as the gradient ratio omega' / psi'.

    omega = psi'' + (dc1/c1) psi' is differentiated analytically; no part
    of this route shares cancellations with fprime_from_psi.
    """
    fr = psi.curve.frame(r)
    d1 = psi.d1(r)
    _psi_slope_guard(d1)
    d2, d3 = psi.d2(r), psi.d3(r)
    c1, dc1, ddc1 = fr.c1, fr.dc1, fr.ddc1
    omega_dot = d3 + (ddc1 / c1 - (dc1 / c1) ** 2) * d1 + (dc1 / c1) * d2
    return omega_dot / d1


class VectorField(ABC):
    """Vector field u1 partial_r + u2 partial_theta on the band.

    Subclasses provide the two components and all five derivatives the
    curvature routes read, each exact; there is no numerical fallback.
    Fields of the form radial(r) x trig(m theta) get all seven from one
    radial method by deriving from SeparableField.  Every method accepts
    broadcastable (r, theta) arrays and returns their broadcast shape.
    Callers only read the arrays returned, so a method may return a
    read-only broadcast view, or the same array as another method.
    """

    def __init__(self, curve: ProfileCurve):
        self.curve = curve

    @abstractmethod
    def u1(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def u2(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def du1_dr(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def du1_dtheta(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def d2u1_dtheta2(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def du2_dtheta(self, r, theta) -> np.ndarray: ...

    @abstractmethod
    def d2u2_dtheta2(self, r, theta) -> np.ndarray: ...

    def is_boundary_tangent(self) -> bool:
        """Whether u1 vanishes on both boundary circles, at 64 angles each."""
        thetas = -math.pi + 2.0 * math.pi * np.arange(64) / 64
        edge = np.array([-self.curve.r_b, self.curve.r_b])
        worst = float(
            np.max(np.abs(self.u1(edge[:, None], thetas[None, :])))
        )
        return worst <= _TANGENCY_TOL


class SeparableField(VectorField):
    """Field u1 = P(r) sin(m theta + phase), u2 = Q(r) cos(m theta + phase).

    Subclasses supply radial(r) -> (P, P', Q); the components and their
    derivatives follow from these three factors and the harmonic m.  The
    factors are evaluated on r in the shape it arrives in and meet theta
    only in the final product, so a column of n radii against a row of
    angles costs n radial evaluations, not one per (r, theta) cell.

    The last radii and their factors are kept, so the several component
    calls a curvature density makes on one node column evaluate radial()
    once.  The memo is keyed on the values of r, not on the array object,
    so an array refilled in place misses it.
    """

    def __init__(self, curve: ProfileCurve, *, harmonic: int = 1, phase: float = 0.0):
        super().__init__(curve)
        self.harmonic = int(harmonic)
        self.phase = float(phase)
        self._memo: tuple[np.ndarray, tuple] | None = None

    @abstractmethod
    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factors P, P' and Q at r."""

    def _factors(self, r, theta):
        r = np.asarray(r, dtype=float)
        # one read of the slot: a thread that misses computes its own factors
        memo = self._memo
        if memo is None or not np.array_equal(memo[0], r):
            factors = tuple(np.reshape(x, r.shape) for x in self.radial(r))
            memo = self._memo = (r.copy(), factors)
        angle = self.harmonic * np.asarray(theta, dtype=float) + self.phase
        return (*memo[1], angle)

    def is_boundary_tangent(self) -> bool:
        """Whether u1 vanishes on both boundary circles, at every angle.

        Decided from P at +-r_b: the supremum of |sin(m theta + phase)| is
        1 for m >= 1 and |sin(phase)| for m = 0, so no sample of angles
        can miss a harmonic.
        """
        edge = self.radial(np.array([-self.curve.r_b, self.curve.r_b]))[0]
        reach = 1.0 if self.harmonic else abs(math.sin(self.phase))
        return float(np.max(np.abs(edge))) * reach <= _TANGENCY_TOL

    def u1(self, r, theta) -> np.ndarray:
        p, _, _, angle = self._factors(r, theta)
        return p * np.sin(angle)

    def u2(self, r, theta) -> np.ndarray:
        _, _, q, angle = self._factors(r, theta)
        return q * np.cos(angle)

    def du1_dr(self, r, theta) -> np.ndarray:
        _, dp, _, angle = self._factors(r, theta)
        return dp * np.sin(angle)

    def du1_dtheta(self, r, theta) -> np.ndarray:
        p, _, _, angle = self._factors(r, theta)
        return self.harmonic * p * np.cos(angle)

    def d2u1_dtheta2(self, r, theta) -> np.ndarray:
        p, _, _, angle = self._factors(r, theta)
        return -self.harmonic**2 * p * np.sin(angle)

    def du2_dtheta(self, r, theta) -> np.ndarray:
        _, _, q, angle = self._factors(r, theta)
        return -self.harmonic * q * np.sin(angle)

    def d2u2_dtheta2(self, r, theta) -> np.ndarray:
        _, _, q, angle = self._factors(r, theta)
        return -self.harmonic**2 * q * np.cos(angle)


def divergence(field: VectorField, r, theta) -> np.ndarray:
    """Coordinate divergence (partial_r + dc1/c1) u1 + partial_theta u2.

    Serves as the verification oracle for every divergence-free claim in
    the package.  r and theta reach the field as given, so a column of
    radii against a row of angles costs a separable field one radial
    evaluation per radius.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    fr = field.curve.frame(np.ravel(r))
    weight = (fr.dc1 / fr.c1).reshape(r.shape)
    return (
        field.du1_dr(r, theta)
        + weight * np.asarray(field.u1(r, theta), dtype=float)
        + field.du2_dtheta(r, theta)
    )


class ZonalVelocityProfile(RadialProfile):
    """Angular velocity -f/c1^2 of the zonal flow generated by f."""

    def __init__(self, f: RadialProfile, curve: ProfileCurve):
        self.f = f
        self.curve = curve

    def _chain(self, r: np.ndarray):
        fr = self.curve.frame(r)
        c1, dc1, ddc1, dddc1 = fr.c1, fr.dc1, fr.ddc1, fr.dddc1
        u = c1**-2.0
        du = -2.0 * c1**-3.0 * dc1
        ddu = 6.0 * c1**-4.0 * dc1**2 - 2.0 * c1**-3.0 * ddc1
        dddu = (
            -24.0 * c1**-5.0 * dc1**3
            + 18.0 * c1**-4.0 * dc1 * ddc1
            - 2.0 * c1**-3.0 * dddc1
        )
        return u, du, ddu, dddu

    def _value_at(self, r, c1):
        return -self.f._value_at(r, c1) * c1 ** -2.0

    def value(self, r):
        return self._value_at(r, self.curve.c1(r))

    def d1(self, r):
        u, du, _, _ = self._chain(r)
        return -(self.f.d1(r) * u + self.f.value(r) * du)

    def d2(self, r):
        u, du, ddu, _ = self._chain(r)
        fv, fd, fdd = self.f.value(r), self.f.d1(r), self.f.d2(r)
        return -(fdd * u + 2.0 * fd * du + fv * ddu)

    def d3(self, r):
        u, du, ddu, dddu = self._chain(r)
        fv, fd, fdd, fddd = self.f.value(r), self.f.d1(r), self.f.d2(r), self.f.d3(r)
        return -(fddd * u + 3.0 * fdd * du + 3.0 * fd * ddu + fv * dddu)

    def describe(self) -> dict:
        return {"family": "zonal-velocity", "f": self.f.describe()}


class ZonalField(SeparableField):
    """Purely rotational field coefficient(r) partial_theta: harmonic 0, P = 0."""

    def __init__(self, curve: ProfileCurve, coefficient: RadialProfile):
        super().__init__(curve, harmonic=0)
        self.coefficient = coefficient

    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        zero = np.zeros_like(r)
        return zero, zero, self.coefficient.value(r)


def zonal_from_f(f: RadialProfile, curve: ProfileCurve) -> ZonalField:
    """The stationary zonal flow -f/c1^2 partial_theta generated by f."""
    return ZonalField(curve, ZonalVelocityProfile(f, curve))
