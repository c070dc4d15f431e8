"""Radial profile families with closed-form derivatives up to third order.

Everything downstream (stream calculus, stability scans, curvature
integrals) consumes a profile through the four-method surface value/d1/d2/d3
and differentiates nothing numerically, so each family carries its own
derivative algebra.  All shipped families are even in r by construction;
oddness only enters through the polynomial family, which tests use to break
parity on purpose.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .geometry import ProfileCurve

__all__ = [
    "ConstantProfile",
    "CurvePowerProfile",
    "GaussianProfile",
    "HelmholtzProfile",
    "PlateauProfile",
    "PolynomialProfile",
    "ProductProfile",
    "RadialProfile",
    "SumProfile",
]


def _batch(r) -> tuple[np.ndarray, bool]:
    return np.atleast_1d(np.asarray(r, dtype=float)), np.asarray(r).ndim == 0


def _unbatch(values: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(values[0]) if scalar else values


class RadialProfile(ABC):
    """A function of the radial coordinate with three exact derivatives.

    `joins` lists, in ascending order, the radii where the profile is only
    finitely smooth (piecewise families switch formula there).  Quadrature
    over a profile passes them as breakpoints so that every panel sees one
    smooth piece; smooth families have none.
    """

    joins: tuple[float, ...] = ()

    @abstractmethod
    def value(self, r) -> float | np.ndarray: ...

    @abstractmethod
    def d1(self, r) -> float | np.ndarray: ...

    @abstractmethod
    def d2(self, r) -> float | np.ndarray: ...

    @abstractmethod
    def d3(self, r) -> float | np.ndarray: ...

    @abstractmethod
    def describe(self) -> dict:
        """Family tag and parameters, JSON-ready, for provenance records."""

    def __call__(self, r) -> float | np.ndarray:
        return self.value(r)

    def __add__(self, other: "RadialProfile") -> "SumProfile":
        return SumProfile(self, other)

    def __mul__(self, other) -> "ProductProfile":
        if isinstance(other, RadialProfile):
            return ProductProfile(self, other)
        return ProductProfile(self, ConstantProfile(float(other)))

    __rmul__ = __mul__


class ConstantProfile(RadialProfile):
    """The constant function; the degenerate control case everywhere."""

    def __init__(self, c: float):
        self.c = float(c)

    def value(self, r):
        arr, scalar = _batch(r)
        return _unbatch(np.full_like(arr, self.c), scalar)

    def d1(self, r):
        arr, scalar = _batch(r)
        return _unbatch(np.zeros_like(arr), scalar)

    d2 = d1
    d3 = d1

    def describe(self) -> dict:
        return {"family": "constant", "c": self.c}


class PolynomialProfile(RadialProfile):
    """Polynomial in r from ascending coefficients."""

    def __init__(self, coefficients):
        self._c = [np.asarray(coefficients, dtype=float)]
        for _ in range(3):
            self._c.append(P.polyder(self._c[-1]))

    def _eval(self, r, order: int):
        arr, scalar = _batch(r)
        return _unbatch(P.polyval(arr, self._c[order]), scalar)

    def value(self, r):
        return self._eval(r, 0)

    def d1(self, r):
        return self._eval(r, 1)

    def d2(self, r):
        return self._eval(r, 2)

    def d3(self, r):
        return self._eval(r, 3)

    def describe(self) -> dict:
        return {"family": "polynomial", "coefficients": self._c[0].tolist()}


class GaussianProfile(RadialProfile):
    """Floored Gaussian bell delta + (1 - delta) exp(-kappa r^2)."""

    def __init__(self, delta: float, kappa: float):
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"floor must satisfy 0 <= delta < 1, got {delta}")
        if kappa <= 0.0:
            raise ValueError(f"width must satisfy kappa > 0, got {kappa}")
        self.delta = float(delta)
        self.kappa = float(kappa)

    def _bell(self, arr: np.ndarray) -> np.ndarray:
        return (1.0 - self.delta) * np.exp(-self.kappa * arr * arr)

    def value(self, r):
        arr, scalar = _batch(r)
        return _unbatch(self.delta + self._bell(arr), scalar)

    def d1(self, r):
        arr, scalar = _batch(r)
        return _unbatch(-2.0 * self.kappa * arr * self._bell(arr), scalar)

    def d2(self, r):
        arr, scalar = _batch(r)
        k = self.kappa
        return _unbatch((4.0 * k * k * arr * arr - 2.0 * k) * self._bell(arr), scalar)

    def d3(self, r):
        arr, scalar = _batch(r)
        k = self.kappa
        return _unbatch(
            (12.0 * k * k * arr - 8.0 * k**3 * arr**3) * self._bell(arr), scalar
        )

    def describe(self) -> dict:
        return {"family": "gaussian", "delta": self.delta, "kappa": self.kappa}


class CurvePowerProfile(RadialProfile):
    """Floored power of the normalized warp factor, delta + (1-delta)(c1/a)^p.

    Even and strictly decreasing away from the equator because c1 is; the
    chain rule runs through the curve's exact c1 derivatives.
    """

    def __init__(self, curve: ProfileCurve, p: float, delta: float):
        if p <= 0.0:
            raise ValueError(f"exponent must be positive, got {p}")
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"floor must satisfy 0 <= delta < 1, got {delta}")
        self.curve = curve
        self.p = float(p)
        self.delta = float(delta)

    def _parts(self, r):
        fr = self.curve.frame(r)
        a = self.curve.spec.a
        return fr.c1 / a, fr.dc1 / a, fr.ddc1 / a, fr.dddc1 / a

    def value(self, r):
        arr, scalar = _batch(r)
        u = self._parts(arr)[0]
        return _unbatch(self.delta + (1.0 - self.delta) * u**self.p, scalar)

    def d1(self, r):
        arr, scalar = _batch(r)
        u, du, _, _ = self._parts(arr)
        p = self.p
        return _unbatch((1.0 - self.delta) * p * u ** (p - 1.0) * du, scalar)

    def d2(self, r):
        arr, scalar = _batch(r)
        u, du, ddu, _ = self._parts(arr)
        p = self.p
        core = (p - 1.0) * u ** (p - 2.0) * du * du + u ** (p - 1.0) * ddu
        return _unbatch((1.0 - self.delta) * p * core, scalar)

    def d3(self, r):
        arr, scalar = _batch(r)
        u, du, ddu, dddu = self._parts(arr)
        p = self.p
        core = (
            (p - 1.0) * (p - 2.0) * u ** (p - 3.0) * du**3
            + 3.0 * (p - 1.0) * u ** (p - 2.0) * du * ddu
            + u ** (p - 1.0) * dddu
        )
        return _unbatch((1.0 - self.delta) * p * core, scalar)

    def describe(self) -> dict:
        return {
            "family": "curve-power",
            "p": self.p,
            "delta": self.delta,
            "a": self.curve.spec.a,
            "b": self.curve.spec.b,
        }


def _smoothstep(t: np.ndarray, order: int) -> np.ndarray:
    # C^3 septic smoothstep: value and first three derivatives vanish at
    # t=0 and match the flat top at t=1
    if order == 0:
        return t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))
    if order == 1:
        return 140.0 * t**3 * (1.0 - t) ** 3
    if order == 2:
        return 420.0 * t**2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t)
    return 840.0 * t * (1.0 - t) * (1.0 - 5.0 * t + 5.0 * t * t)


class PlateauProfile(RadialProfile):
    """Unit plateau with a smooth descent to zero at +-half_width.

    The profile is exactly 1 on |r| <= (1 - edge_fraction) * half_width,
    exactly 0 at |r| >= half_width, and a septic smoothstep in between, so
    it is C^3 across both joins, which `joins` lists on each side.  Used as
    the bump h generating the perturbation field; the descent width is the
    search parameter w.
    """

    def __init__(self, half_width: float, edge_fraction: float):
        if half_width <= 0.0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        if not 0.0 < edge_fraction < 1.0:
            raise ValueError(
                f"edge_fraction must lie in (0, 1), got {edge_fraction}"
            )
        self.half_width = float(half_width)
        self.edge_fraction = float(edge_fraction)
        self._start = (1.0 - self.edge_fraction) * self.half_width
        self._span = self.edge_fraction * self.half_width
        self.joins = (-self.half_width, -self._start, self._start, self.half_width)

    def _pieces(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = (np.abs(arr) - self._start) / self._span
        inside = (t > 0.0) & (t < 1.0)
        return np.clip(t, 0.0, 1.0), inside

    def value(self, r):
        arr, scalar = _batch(r)
        t, _ = self._pieces(arr)
        return _unbatch(1.0 - _smoothstep(t, 0), scalar)

    def d1(self, r):
        arr, scalar = _batch(r)
        t, inside = self._pieces(arr)
        out = np.where(
            inside, -_smoothstep(t, 1) * np.sign(arr) / self._span, 0.0
        )
        return _unbatch(out, scalar)

    def d2(self, r):
        arr, scalar = _batch(r)
        t, inside = self._pieces(arr)
        out = np.where(inside, -_smoothstep(t, 2) / self._span**2, 0.0)
        return _unbatch(out, scalar)

    def d3(self, r):
        arr, scalar = _batch(r)
        t, inside = self._pieces(arr)
        out = np.where(
            inside, -_smoothstep(t, 3) * np.sign(arr) / self._span**3, 0.0
        )
        return _unbatch(out, scalar)

    def describe(self) -> dict:
        return {
            "family": "plateau",
            "half_width": self.half_width,
            "w": self.edge_fraction,
        }


class HelmholtzProfile(RadialProfile):
    """Profile whose vorticity-stream relation has exactly constant slope.

    Solves f'' - (dc1/c1) f' = -rate * f with f(0) = 1, f'(0) = 0, which
    makes the induced relation slope identically -rate; no other even
    profile decays faster at the same slope budget, which is why the
    witness search carries this family alongside the closed-form ones.
    A negative rate selects the growing branch with slope +|rate|.
    Second and third derivatives come from the equation itself, so only f
    and f' are interpolated.
    """

    def __init__(self, curve: ProfileCurve, rate: float, *, step: float = 5e-4):
        if not math.isfinite(rate) or rate == 0.0:
            raise ValueError(f"rate must be finite and nonzero, got {rate}")
        self.curve = curve
        self.rate = float(rate)

        def rhs(r: float, y: np.ndarray) -> list[float]:
            fr = curve.frame(r)
            slope = float(fr.dc1[0] / fr.c1[0])
            return [y[1], slope * y[1] - self.rate * y[0]]

        sol = solve_ivp(
            rhs,
            (0.0, curve.r_b),
            [1.0, 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        n = max(1001, math.ceil(curve.r_b / step) + 1)
        radii = np.linspace(0.0, curve.r_b, n)
        f_nodes, df_nodes = sol.sol(radii)
        fr = curve.frame(radii)
        ddf_nodes = (fr.dc1 / fr.c1) * df_nodes - self.rate * f_nodes
        self._f = CubicHermiteSpline(radii, f_nodes, df_nodes)
        self._df = CubicHermiteSpline(radii, df_nodes, ddf_nodes)

    def _fold(self, arr: np.ndarray) -> np.ndarray:
        return np.minimum(np.abs(arr), self.curve.r_b)

    def value(self, r):
        arr, scalar = _batch(r)
        return _unbatch(np.asarray(self._f(self._fold(arr))), scalar)

    def d1(self, r):
        arr, scalar = _batch(r)
        out = np.sign(arr) * np.asarray(self._df(self._fold(arr)))
        return _unbatch(out, scalar)

    def d2(self, r):
        arr, scalar = _batch(r)
        fr = self.curve.frame(arr)
        f = np.asarray(self._f(self._fold(arr)))
        df = np.sign(arr) * np.asarray(self._df(self._fold(arr)))
        return _unbatch((fr.dc1 / fr.c1) * df - self.rate * f, scalar)

    def d3(self, r):
        arr, scalar = _batch(r)
        fr = self.curve.frame(arr)
        slope = fr.dc1 / fr.c1
        f = np.asarray(self._f(self._fold(arr)))
        df = np.sign(arr) * np.asarray(self._df(self._fold(arr)))
        ddf = slope * df - self.rate * f
        dslope = fr.ddc1 / fr.c1 - slope * slope
        return _unbatch(dslope * df + slope * ddf - self.rate * df, scalar)

    def describe(self) -> dict:
        return {
            "family": "helmholtz",
            "rate": self.rate,
            "a": self.curve.spec.a,
            "b": self.curve.spec.b,
        }


def _merged_joins(left: RadialProfile, right: RadialProfile) -> tuple[float, ...]:
    return tuple(sorted(set(left.joins) | set(right.joins)))


class SumProfile(RadialProfile):
    """Pointwise sum of two profiles."""

    def __init__(self, left: RadialProfile, right: RadialProfile):
        self.left = left
        self.right = right
        self.joins = _merged_joins(left, right)

    def value(self, r):
        return self.left.value(r) + self.right.value(r)

    def d1(self, r):
        return self.left.d1(r) + self.right.d1(r)

    def d2(self, r):
        return self.left.d2(r) + self.right.d2(r)

    def d3(self, r):
        return self.left.d3(r) + self.right.d3(r)

    def describe(self) -> dict:
        return {
            "family": "sum",
            "terms": [self.left.describe(), self.right.describe()],
        }


class ProductProfile(RadialProfile):
    """Pointwise product of two profiles, derivatives by Leibniz."""

    def __init__(self, left: RadialProfile, right: RadialProfile):
        self.left = left
        self.right = right
        self.joins = _merged_joins(left, right)

    def value(self, r):
        return self.left.value(r) * self.right.value(r)

    def d1(self, r):
        return self.left.d1(r) * self.right.value(r) + self.left.value(r) * self.right.d1(r)

    def d2(self, r):
        return (
            self.left.d2(r) * self.right.value(r)
            + 2.0 * self.left.d1(r) * self.right.d1(r)
            + self.left.value(r) * self.right.d2(r)
        )

    def d3(self, r):
        return (
            self.left.d3(r) * self.right.value(r)
            + 3.0 * self.left.d2(r) * self.right.d1(r)
            + 3.0 * self.left.d1(r) * self.right.d2(r)
            + self.left.value(r) * self.right.d3(r)
        )

    def describe(self) -> dict:
        return {
            "family": "product",
            "factors": [self.left.describe(), self.right.describe()],
        }
