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

from .errors import ConvergenceFailure
from .geometry import ProfileCurve, _hermite_coefficients, _pointwise

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

# DOP853 tolerances of the one integration in the package, the Helmholtz build
_RTOL = 1e-12
_ATOL = 1e-14


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


class RadialProfile(ABC):
    """A function of the radial coordinate with three exact derivatives.

    value, d1, d2 and d3 take r as a scalar or an array of any shape.
    Subclasses write them for arrays only: the base class wraps each one a
    subclass defines so that r arrives as a float array of at least one
    dimension, and a scalar r gets a float back.

    `joins` lists, in ascending order, the radii where the profile is only
    finitely smooth (piecewise families switch formula there).  Quadrature
    over a profile passes them as breakpoints so that every panel sees one
    smooth piece; smooth families have none.
    """

    joins: tuple[float, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("value", "d1", "d2", "d3"):
            if name in cls.__dict__:
                setattr(cls, name, _pointwise(cls.__dict__[name]))

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

    def _value_at(self, r: np.ndarray, c1: np.ndarray) -> np.ndarray:
        """value at the array r, given the curve's c1 at r.

        Families built on the warp factor override it to use that c1
        instead of evaluating the curve again.
        """
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
        return np.full_like(r, self.c)

    def d1(self, r):
        return np.zeros_like(r)

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

    def value(self, r):
        return P.polyval(r, self._c[0])

    def d1(self, r):
        return P.polyval(r, self._c[1])

    def d2(self, r):
        return P.polyval(r, self._c[2])

    def d3(self, r):
        return P.polyval(r, self._c[3])

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

    def _bell(self, r: np.ndarray) -> np.ndarray:
        return (1.0 - self.delta) * np.exp(-self.kappa * r * r)

    def value(self, r):
        return self.delta + self._bell(r)

    def d1(self, r):
        return -2.0 * self.kappa * r * self._bell(r)

    def d2(self, r):
        k = self.kappa
        return (4.0 * k * k * r * r - 2.0 * k) * self._bell(r)

    def d3(self, r):
        k = self.kappa
        return (12.0 * k * k * r - 8.0 * k**3 * r**3) * self._bell(r)

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
        return fr, fr.c1 / a, fr.dc1 / a, fr.ddc1 / a

    def _value_at(self, r, c1):
        u = c1 / self.curve.spec.a
        return self.delta + (1.0 - self.delta) * u**self.p

    def value(self, r):
        return self._value_at(r, self.curve.c1(r))

    def d1(self, r):
        _, u, du, _ = self._parts(r)
        p = self.p
        return (1.0 - self.delta) * p * u ** (p - 1.0) * du

    def d2(self, r):
        _, u, du, ddu = self._parts(r)
        p = self.p
        core = (p - 1.0) * u ** (p - 2.0) * du * du + u ** (p - 1.0) * ddu
        return (1.0 - self.delta) * p * core

    def d3(self, r):
        fr, u, du, ddu = self._parts(r)
        dddu = fr.dddc1 / self.curve.spec.a
        p = self.p
        core = (
            (p - 1.0) * (p - 2.0) * u ** (p - 3.0) * du**3
            + 3.0 * (p - 1.0) * u ** (p - 2.0) * du * ddu
            + u ** (p - 1.0) * dddu
        )
        return (1.0 - self.delta) * p * core

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


def _plateau(r, start, span, *orders: int) -> list[np.ndarray]:
    """Derivatives `orders` (each 0-3) at r of the plateau that descends
    over start <= |r| <= start + span, computed from one descent
    coordinate; start and span may be arrays matching r, so that plateaus
    of many widths evaluate in one pass.

    The smoothstep is evaluated only where the plateau descends, 0 < t <
    1; elsewhere the value is exactly 1 (flat top) or 0 (beyond the
    edge) and every derivative exactly 0.
    """
    t = (np.abs(r) - start) / span
    descent = np.flatnonzero((t > 0.0) & (t < 1.0))
    t_in = t.take(descent)
    span_in = span.take(descent) if np.ndim(span) else span
    out = []
    for order in orders:
        if order == 0:
            part = (t <= 0.0).astype(float)
            np.put(part, descent, 1.0 - _smoothstep(t_in, 0))
            out.append(part)
            continue
        slope = -_smoothstep(t_in, order)
        if order % 2:
            slope = slope * np.sign(r.take(descent))
        part = np.zeros_like(t)
        np.put(part, descent, slope / span_in**order)
        out.append(part)
    return out


class PlateauProfile(RadialProfile):
    """Unit plateau with a smooth descent to zero at +-half_width.

    The profile is exactly 1 on |r| <= start = (1 - edge_fraction) *
    half_width, exactly 0 at |r| >= half_width, and a septic smoothstep
    over the descent of length span = edge_fraction * half_width, so it is
    C^3 across both joins, which `joins` lists on each side.  Used as the
    bump h generating the perturbation field; the descent width is the
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
        self.start = (1.0 - self.edge_fraction) * self.half_width
        self.span = self.edge_fraction * self.half_width
        self.joins = (-self.half_width, -self.start, self.start, self.half_width)

    def value(self, r):
        return _plateau(r, self.start, self.span, 0)[0]

    def d1(self, r):
        return _plateau(r, self.start, self.span, 1)[0]

    def d2(self, r):
        return _plateau(r, self.start, self.span, 2)[0]

    def d3(self, r):
        return _plateau(r, self.start, self.span, 3)[0]

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
    and f' are interpolated, as Hermite pieces on the curve's node grid.
    Every read goes through the curve's own fold and interval lookup
    (ProfileCurve._hermite): a query outside the band raises ValueError
    here as it does on the curve, and on a grid the curve owns the lookup,
    like the frame, is the one the curve already computed.

    The state (f, f') is integrated in the meridian angle t, where the
    arc-length speed is s = dr/dt = sqrt(1 + (a^2 - 1) sin^2 t) and the
    weight is dc1/c1 = -tan(t) / s, so the right-hand side

        d(f, f')/dt = (s f', -tan(t) f' - rate s f)

    is plain float arithmetic and the meridian itself is never integrated.
    The dense output is read at the curve's node angles in one vectorized
    pass (_dense_rows), bit-identical to scipy's OdeSolution (verified on
    scipy 1.17.1).  Raises ConvergenceFailure when the integrator stops
    short of the band edge (a rate too large to resolve).
    """

    def __init__(self, curve: ProfileCurve, rate: float):
        if not math.isfinite(rate) or rate == 0.0:
            raise ValueError(f"rate must be finite and nonzero, got {rate}")
        self.curve = curve
        self.rate = rate = float(rate)
        a2m1 = curve.spec.a ** 2 - 1.0

        def rhs(t: float, y: np.ndarray) -> list[float]:
            f, df = y.tolist()
            sin_t = math.sin(t)
            s = math.sqrt(1.0 + a2m1 * sin_t * sin_t)
            return [s * df, -math.tan(t) * df - rate * s * f]

        angles = curve.angles
        sol = solve_ivp(
            rhs,
            (0.0, angles[-1]),
            [1.0, 0.0],
            method="DOP853",
            rtol=_RTOL,
            atol=_ATOL,
            dense_output=True,
        )
        if sol.status != 0:
            raise ConvergenceFailure(
                f"Helmholtz integration at rate {self.rate:.6g} stopped at "
                f"t={sol.t[-1]:.6g} of {angles[-1]:.6g}: {sol.message}"
            )
        radii = curve.radii
        f_nodes, df_nodes = _dense_rows(sol.sol, angles, [0, 1])
        # the curve owns its node grid, so every build reads one frame there
        fr = curve.frame(radii)
        ddf_nodes = (fr.dc1 / fr.c1) * df_nodes - self.rate * f_nodes
        # Hermite coefficients on the curve's node grid, which the curve's
        # own interval lookup evaluates
        self._f = _hermite_coefficients(radii, f_nodes, df_nodes)
        self._df = _hermite_coefficients(radii, df_nodes, ddf_nodes)

    def _f_df(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and f' at r, from one interval lookup."""
        f, df = self.curve._hermite(self.curve._fold(r)[1], self._f, self._df)
        return f, np.sign(r) * df

    def value(self, r):
        return self.curve._hermite(self.curve._fold(r)[1], self._f)[0]

    def d1(self, r):
        return np.sign(r) * self.curve._hermite(self.curve._fold(r)[1], self._df)[0]

    def d2(self, r):
        fr = self.curve.frame(r)
        f, df = self._f_df(r)
        return (fr.dc1 / fr.c1) * df - self.rate * f

    def d3(self, r):
        fr = self.curve.frame(r)
        slope = fr.dc1 / fr.c1
        f, df = self._f_df(r)
        ddf = slope * df - self.rate * f
        dslope = fr.ddc1 / fr.c1 - slope * slope
        return dslope * df + slope * ddf - self.rate * df

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
