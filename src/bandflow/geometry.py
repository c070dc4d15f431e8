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
    radicand.  The frame of a grid the curve owns is shared by all its
    readers, so every member of it, the later ones too, is read-only.
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

    def _kept(self, values: np.ndarray) -> np.ndarray:
        """values, read-only when the frame's own members are."""
        if not self.c1.flags.writeable:
            values.flags.writeable = False
        return values

    @functools.cached_property
    def eps_sq(self) -> np.ndarray:
        """The defect radicand dc1^2 - c1 ddc1 - 1, unclamped."""
        return self._kept(self.dc1**2 - self.c1 * self.ddc1 - 1.0)

    @functools.cached_property
    def ddc2(self) -> np.ndarray:
        s = self._s
        return self._kept((self.dc1 * s - self.c1 * self._sdot) / (s * s))

    @functools.cached_property
    def dddc1(self) -> np.ndarray:
        a2, s, sdot = self._a2, self._s, self._sdot
        a4 = a2 * a2
        c1, c2, dc1, dc2, ddc1, ddc2 = self.c1, self.c2, self.dc1, self.dc2, self.ddc1, self.ddc2
        sddot = (dc1**2 + c1 * ddc1 + a4 * (dc2**2 + c2 * ddc2) - sdot**2) / s
        n = dc2 * s - c2 * sdot
        ndot = ddc2 * s - c2 * sddot
        return self._kept(-a2 * (ndot * s - 2.0 * n * sdot) / s**3)


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


# a curve owns at most this many sample grids (ProfileCurve.sample_grid);
# the package's own checks ask for ten, besides the node grid
_MAX_OWNED_GRIDS = 16


def _interval_table(radii: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, tuple[int, ...]]:
    """(scale, table, edges, steps) of ProfileCurve._interval on radii.

    [0, r_b] is cut into 4 (n - 1) equal buckets, and x falls in bucket
    int(x * scale), which never decreases as x grows.  table[j] counts the
    interior nodes of the buckets below j: they lie below every x of
    bucket j and the nodes of later buckets above it, so x's interval is
    table[j] plus the number of bucket-j nodes at or below x.  A bisection
    in the power-of-two steps that cover the fullest bucket counts them.
    edges is radii[:-1] padded with +inf, so no step reads past the last
    interval, which is closed.
    """
    n = radii.size
    buckets = 4 * (n - 1)
    scale = buckets / radii[-1]
    counts = np.bincount((radii[1:-1] * scale).astype(np.intp), minlength=buckets + 1)
    table = np.zeros(buckets + 1, dtype=np.intp)
    np.cumsum(counts[:-1], out=table[1:])
    bits = int(counts.max()).bit_length()
    edges = np.concatenate((radii[:-1], np.full(1 << bits, np.inf)))
    return scale, table, edges, tuple(1 << k for k in reversed(range(bits)))


class _OwnedGrid:
    """A sample grid a curve handed out: the grid, its folded radii, and
    the interval lookup and frame once computed."""

    __slots__ = ("grid", "folded", "lookup", "frame")

    def __init__(self, grid: np.ndarray, folded: np.ndarray):
        self.grid = grid
        self.folded = folded
        self.lookup: tuple[np.ndarray, ...] | None = None
        self.frame: ProfileFrame | None = None


def _readonly(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


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
    ascending node grid on [0, r_b], read-only, and angles the nodes'
    angles t on the ellipse (a cos t, sin t).  A query finds its node
    interval once, from a table over uniform buckets of r built with the
    curve (_interval_table): one multiply, one table read and a bisection
    of a fixed number of steps, one on every band with a <= 3.  Both pieces
    are evaluated from that one lookup.

    The fixed sample grids of the stability checks (sample_grid) and the
    node grid belong to the curve: each is read-only, and the curve
    computes its interval lookup and its frame once, for every profile
    and every check that reads the same grid.  Instances are safe to
    share across threads.
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
        self.radii = radii = _readonly(np.array(radii, dtype=float))
        self.angles = np.arctan2(spec.a * c2_nodes, c1_nodes)
        self._scale, self._table, self._edges, self._steps = _interval_table(radii)
        # owned grids by (kind, n), and their records by the id of the grid
        # and of its folded radii; a record keeps both arrays alive
        self._grids: dict[tuple[str, int], np.ndarray] = {}
        self._owned: dict[int, _OwnedGrid] = {id(radii): _OwnedGrid(radii, radii)}

    def __repr__(self) -> str:
        return (
            f"ProfileCurve(a={self.spec.a:g}, b={self.spec.b:g}, "
            f"r_b={self.r_b:.12g}, nodes={self.radii.size})"
        )

    def sample_grid(self, kind: str, n: int) -> np.ndarray:
        """A sample grid of the band, owned by the curve and read-only.

        kind "band" is np.linspace(-r_b, r_b, n), "half" is np.linspace(0,
        r_b, n) and "mirror" its negation; "interior" and "mid" are the
        interior nodes and the interval midpoints of np.linspace(-r_b, r_b,
        n + 1), the grids of a finite-difference pencil on n intervals.
        The same (kind, n) returns the same array, whose lookup and frame
        the curve computes once; the mirror shares the half grid's lookup.
        Past _MAX_OWNED_GRIDS grids a request gets a new array, equal in
        value, that the curve does not keep.
        """
        key = (kind, n)
        grid = self._grids.get(key)
        if grid is not None:
            return grid
        r_b = self.r_b
        folded = None
        if kind == "band":
            grid = np.linspace(-r_b, r_b, n)
        elif kind == "half":
            grid = folded = np.linspace(0.0, r_b, n)
        elif kind == "mirror":
            folded = self.sample_grid("half", n)
            grid = -folded
        elif kind in ("interior", "mid"):
            nodes = np.linspace(-r_b, r_b, n + 1)
            grid = nodes[1:-1].copy() if kind == "interior" else 0.5 * (nodes[:-1] + nodes[1:])
        else:
            raise ValueError(f"unknown sample grid {kind!r}")
        if len(self._grids) >= _MAX_OWNED_GRIDS:
            return grid
        if folded is None:
            folded = self._fold(grid)[1]
        owned = _OwnedGrid(_readonly(grid), _readonly(folded))
        self._owned.setdefault(id(owned.folded), owned)
        self._owned[id(grid)] = owned
        return self._grids.setdefault(key, grid)

    def _record(self, x: np.ndarray) -> _OwnedGrid | None:
        """The record of x when x is an owned grid or its folded radii."""
        owned = self._owned.get(id(x))
        return owned if owned is not None and (owned.grid is x or owned.folded is x) else None

    def _fold(self, r) -> tuple[np.ndarray, np.ndarray]:
        """r as an array of at least one dimension, and |r| for the pieces."""
        owned = self._record(r)
        if owned is not None and owned.grid is r:
            return r, owned.folded
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        size = np.abs(rr)
        # written so that a nan radius fails it too, before _interval casts
        # any radius to an index
        if not np.all(size <= self.r_b * (1.0 + 1e-12)):
            worst = float(np.max(size))
            raise ValueError(
                f"query radius {worst:.17g} outside the band [-{self.r_b:.17g}, {self.r_b:.17g}]"
            )
        return rr, np.minimum(size, self.r_b, out=size)

    def _interval(self, x: np.ndarray) -> np.ndarray:
        """np.searchsorted(radii[1:-1], x, side="right") for x in [0, r_b],
        exactly: the i with radii[i] <= x < radii[i+1], the last interval
        closed, from the bucket table (see _interval_table)."""
        edges = self._edges
        i = self._table.take((x * self._scale).astype(np.intp))
        for step in self._steps:
            if step == 1:
                i += x >= edges.take(i + 1)
            else:
                i += step * (x >= edges.take(i + step))
        return i

    def _lookup(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """The interval i of each x and the powers of s = x - radii[i],
        computed once for the folded radii of an owned grid."""
        owned = self._record(x)
        if owned is not None and owned.lookup is not None:
            return owned.lookup
        i = self._interval(x)
        s = x - self.radii.take(i)
        s2 = s * s
        lookup = (i, s, s2, s2 * s)
        if owned is not None:
            owned.lookup = lookup
        return lookup

    def _hermite(self, x: np.ndarray, *pieces: np.ndarray) -> list[np.ndarray]:
        """The given Hermite pieces at x in [0, r_b], from one interval lookup.

        The arithmetic is scipy's PPoly evaluation, so the values equal the
        splines' bit for bit: the interval i with radii[i] <= x < radii[i+1]
        (the last one closed), then c3 + c2 s, + c1 s^2, + c0 s^3 in that
        order, with s = x - radii[i].
        """
        i, s, s2, s3 = self._lookup(x)
        return [
            ((c3.take(i) + c2.take(i) * s) + c1.take(i) * s2) + c0.take(i) * s3
            for c0, c1, c2, c3 in pieces
        ]

    def frame(self, r) -> ProfileFrame:
        """Evaluate the derivative chain at r (scalar or array).

        The frame of an owned grid is computed once and then shared, with
        read-only members.
        """
        owned = self._record(r)
        if owned is None or owned.grid is not r:
            return self._frame(*self._fold(r))
        if owned.frame is None:
            fr = self._frame(r, owned.folded)
            for values in (fr.c1, fr.c2, fr.dc1, fr.dc2, fr.ddc1, fr._s, fr._sdot):
                _readonly(values)
            owned.frame = fr
        return owned.frame

    def _frame(self, rr: np.ndarray, folded: np.ndarray) -> ProfileFrame:
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
