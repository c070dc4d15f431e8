"""Misiolek curvature of zonal flows against bump-generated perturbations.

Three independent routes compute the same number.  The 1-d closed form
integrates pi F^2 c1 (h^2 eps^2 - c1^2 h'^2) radially; the reduced 2-d
route integrates the quadratic expression in the perturbation's radial
component over the full band; the direct route assembles Lie brackets and
covariant derivatives from the connection coefficients and integrates the
raw metric pairing.  The direct route shares no algebra with the other
two, which is what makes the three-way agreement a genuine oracle rather
than a tautology.

Sign conventions follow the package's Hodge star; the area form is
c1 dr wedge dtheta.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BoundaryViolation, TangencyViolation
from .fields import _TANGENCY_TOL, SeparableField, VectorField, ZonalField, divergence
from .geometry import ProfileCurve
from .profiles import PlateauProfile, RadialProfile, _plateau
from .quadrature import IntegralResult, adaptive_gauss_legendre, integrate_batch
from .stability import _pencil_smallest

__all__ = [
    "BumpField",
    "MCResult",
    "StreamPotentialField",
    "bump_field",
    "field_from_stream",
    "mc_bump_formula",
    "mc_bump_formula_batch",
    "mc_direct",
    "mc_reduced",
    "optimal_bump_ratio",
]

_BUMP_EDGE_TOL = 1e-12
_DIVERGENCE_TOL = 1e-8
_SAMPLE_POINTS = 401


@dataclass(frozen=True)
class MCResult:
    """One curvature evaluation: value, method tag, and quadrature budget.

    error_estimate covers the adaptive radial quadrature alone.  The 2-d
    routes sum the angle by the periodic trapezoid rule on n_theta points,
    which is exact for a trigonometric polynomial of degree below n_theta;
    their densities are quadratic in a separable field of harmonic m, so of
    degree 2m, and the routes refuse such a field unless 2m < n_theta, so
    the angular direction has no error term.  samples holds (r, radial
    integrand) rows for plotting and is not part of the serialized result;
    sampler builds them on first read, so results that are never plotted
    cost no sample table.
    """

    value: float
    method: str
    error_estimate: float
    n_nodes: int
    sampler: Callable[[], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def samples(self) -> np.ndarray | None:
        return None if self.sampler is None else self.sampler()

    @property
    def significant(self) -> bool:
        """Whether the value stands clear of its own error estimate."""
        return abs(self.value) > 10.0 * self.error_estimate

    def to_json(self) -> dict:
        # samples are a CSV concern; the JSON form is exactly these four keys
        return {
            "value": self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "n_nodes": self.n_nodes,
        }


def _runs(
    profiles: Sequence[RadialProfile], owner: np.ndarray
) -> Iterator[tuple[RadialProfile, slice]]:
    """Each run of consecutive nodes whose owners share a profile, with it."""
    ids: dict[int, int] = {}
    key = np.array([ids.setdefault(id(p), len(ids)) for p in profiles])[owner]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield profiles[owner[lo]], slice(lo, hi)


def _checked_bumps(
    hs: Sequence[RadialProfile], curve: ProfileCurve
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(r, owner) -> (h, h') of each node's bump hs[owner].

    Plateau bumps of any widths evaluate together in one pass.  Raises
    BoundaryViolation for the first bump that does not vanish at the
    boundary circles.
    """
    if all(isinstance(h, PlateauProfile) for h in hs):
        starts = np.array([h.start for h in hs])
        spans = np.array([h.span for h in hs])

        def terms(r, owner):
            return _plateau(r, starts[owner], spans[owner], 0, 1)

    else:

        def terms(r, owner):
            hv, hd = np.empty_like(r), np.empty_like(r)
            for h, part in _runs(hs, owner):
                hv[part], hd[part] = h.value(r[part]), h.d1(r[part])
            return hv, hd

    edges = np.tile([-curve.r_b, curve.r_b], len(hs))
    edge_values, _ = terms(edges, np.repeat(np.arange(len(hs)), 2))
    for edge in np.abs(edge_values).reshape(-1, 2).max(axis=1).tolist():
        if edge > _BUMP_EDGE_TOL:
            raise BoundaryViolation(
                f"bump reaches {edge:.3e} at the boundary circles (tolerance {_BUMP_EDGE_TOL:.0e})"
            )
    return terms


class BumpField(SeparableField):
    """The divergence-free perturbation generated by a radial bump h.

    Components are h sin(theta) radially and (h' + h dc1/c1) cos(theta)
    angularly; equivalently the field is star grad of -c1 h cos(theta).
    The divergence cancels exactly, not just numerically.
    """

    def __init__(self, curve: ProfileCurve, h: RadialProfile):
        super().__init__(curve)
        _checked_bumps([h], curve)
        self.h = h

    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fr = self.curve.frame(r)
        hv, hd = self.h.value(r), self.h.d1(r)
        return hv, hd, hd + hv * fr.dc1 / fr.c1


def bump_field(h: RadialProfile, curve: ProfileCurve) -> BumpField:
    """Build the perturbation field of a bump vanishing at the boundary."""
    return BumpField(curve, h)


class StreamPotentialField(SeparableField):
    """star grad of the separable potential g(r) cos(m theta + phase).

    Divergence-free by construction; tangency needs g to vanish at the
    boundary circles whenever m >= 1 (a radial potential, m = 0, is
    always tangent).
    """

    def __init__(
        self,
        curve: ProfileCurve,
        g: RadialProfile,
        *,
        harmonic: int = 1,
        phase: float = 0.0,
    ):
        if harmonic < 0:
            raise ValueError(f"harmonic index must be nonnegative, got {harmonic}")
        if harmonic >= 1:
            edge = float(np.max(np.abs(g.value(np.array([-curve.r_b, curve.r_b])))))
            if edge > _TANGENCY_TOL:
                raise TangencyViolation(
                    f"potential reaches {edge:.3e} at the boundary; the field "
                    f"would cross the boundary circles"
                )
        super().__init__(curve, harmonic=harmonic, phase=phase)
        self.g = g

    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fr = self.curve.frame(r)
        gv, gd = self.g.value(r), self.g.d1(r)
        m = self.harmonic
        return (
            -m * gv / fr.c1,
            -m * (gd * fr.c1 - gv * fr.dc1) / fr.c1**2,
            -gd / fr.c1,
        )


def field_from_stream(
    g: RadialProfile,
    curve: ProfileCurve,
    *,
    harmonic: int = 1,
    phase: float = 0.0,
) -> StreamPotentialField:
    """Divergence-free field from a separable stream potential."""
    return StreamPotentialField(curve, g, harmonic=harmonic, phase=phase)


# the periodic trapezoid rule on n points integrates every trigonometric
# polynomial of degree below n exactly, so 32 angles take any separable
# field up to harmonic 15; the shipped fields have harmonics 0 to 3
_N_THETA = 32


def _angular_rule(W: VectorField, n_theta: int) -> np.ndarray:
    """The route's angles, once the rule is known to be exact for W.

    Raises TypeError for a count that is not an integer, ValueError for
    fewer than one angle, and ValueError for a separable field whose
    density, of degree 2 * harmonic in theta, the rule would alias.
    """
    if operator.index(n_theta) < 1:
        raise ValueError(f"n_theta must be at least 1, got {n_theta}")
    if isinstance(W, SeparableField) and 2 * W.harmonic >= n_theta:
        raise ValueError(
            f"harmonic {W.harmonic} needs n_theta > {2 * W.harmonic} for an "
            f"exact angular rule, got {n_theta}"
        )
    # periodic trapezoid: -pi counted once, +pi excluded as the same point
    return -math.pi + 2.0 * math.pi * np.arange(n_theta) / n_theta


def _mc_result(
    method: str,
    result: IntegralResult,
    curve: ProfileCurve,
    per_node: int,
    density: Callable[[np.ndarray], np.ndarray],
) -> MCResult:
    def sampler() -> np.ndarray:
        grid = np.linspace(-curve.r_b, curve.r_b, _SAMPLE_POINTS)
        return np.column_stack([grid, density(grid)])

    return MCResult(
        value=result.value,
        method=method,
        error_estimate=result.error,
        n_nodes=result.n_evals * per_node,
        sampler=sampler,
    )


def _radial_mc(
    method: str,
    density,
    curve: ProfileCurve,
    rel_tol: float,
    per_node: int,
    **options,
) -> MCResult:
    """Integrate a radial density across the band; options go to the quadrature."""
    result = adaptive_gauss_legendre(
        density, -curve.r_b, curve.r_b, rel_tol=rel_tol, abs_tol=1e-12, **options
    )
    return _mc_result(method, result, curve, per_node, density)


# the band is split at the joins of h, and each smooth piece is one
# 32-node panel checked against its two 32-node halves
_FORMULA_PANELS = {"initial_panels": 1, "nodes_per_panel": 32}


def _formula_density(
    pairs: Sequence[tuple[RadialProfile, RadialProfile]], curve: ProfileCurve
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """density(r, owner): the closed-form integrand of each node's pair.

    The frame and its eps_sq are computed once per call, F once per run of
    nodes that share it, and h by `_checked_bumps`.  c1 is read once per
    node, from the frame: F = -f/c1^2 and a warp-factor f take it from
    there.
    """
    big_fs = [F for F, _ in pairs]
    bumps = _checked_bumps([h for _, h in pairs], curve)

    def density(r: np.ndarray, owner: np.ndarray) -> np.ndarray:
        fr = curve.frame(r)
        c1 = fr.c1
        fv = np.empty_like(r)
        for F, part in _runs(big_fs, owner):
            fv[part] = F._value_at(r[part], c1[part])
        hv, hd = bumps(r, owner)
        return math.pi * fv**2 * c1 * (hv**2 * fr.eps_sq - c1**2 * hd**2)

    return density


def mc_bump_formula(
    F: RadialProfile,
    h: RadialProfile,
    curve: ProfileCurve,
    *,
    rel_tol: float = 1e-8,
) -> MCResult:
    """Closed-form radial integral of the curvature for the bump family.

    Integrand pi F^2 c1 (h^2 eps^2 - c1^2 h'^2) with eps^2 the frame's
    eps_sq; the defect term is the only positive contribution
    and vanishes identically on the sphere.  The band is split at the
    joins of h, and each smooth piece is one 32-node panel checked against
    its two 32-node halves, so a plateau bump usually needs a single
    integrand call.  It integrates the batched density of
    `mc_bump_formula_batch` for this one pair through
    `adaptive_gauss_legendre`, itself a batch of one, so the two give the
    same result bit for bit.
    """
    density = _formula_density([(F, h)], curve)
    return _radial_mc(
        "formula-1d",
        lambda r: density(r, np.zeros(r.size, dtype=np.intp)),
        curve,
        rel_tol,
        1,
        points=h.joins,
        **_FORMULA_PANELS,
    )


def mc_bump_formula_batch(
    pairs: Sequence[tuple[RadialProfile, RadialProfile]],
    curve: ProfileCurve,
    *,
    rel_tol: float,
) -> list[MCResult]:
    """`mc_bump_formula` for every (F, h) pair, in shared integrand calls.

    One batched quadrature integrates all pairs: each refinement round is
    one density call over the pending panels of every pair.  Each result,
    its sample table included, equals that of a lone `mc_bump_formula`
    call on its pair.  Raises BoundaryViolation, before any quadrature,
    for the first bump that does not vanish at the boundary circles.
    """
    density = _formula_density(pairs, curve)
    results = integrate_batch(
        density,
        [(-curve.r_b, curve.r_b)] * len(pairs),
        [h.joins for _, h in pairs],
        rel_tol=rel_tol,
        abs_tol=1e-12,
        **_FORMULA_PANELS,
    )
    return [
        _mc_result(
            "formula-1d",
            result,
            curve,
            1,
            lambda grid, i=i: density(grid, np.full(grid.size, i)),
        )
        for i, result in enumerate(results)
    ]


def _require_admissible(W: VectorField, thetas: np.ndarray) -> None:
    # the divergence of a separable field is a radial factor times
    # sin(m theta + phase), which cannot vanish at all of the route's n
    # angles when 0 < 2m < n; a fixed probe grid could sit on its zeros
    if not W.is_boundary_tangent():
        raise TangencyViolation(
            "perturbation field does not vanish radially at the boundary circles"
        )
    interior = np.linspace(-W.curve.r_b, W.curve.r_b, 14)[1:-1]
    worst = float(np.max(np.abs(divergence(W, interior[:, None], thetas[None, :]))))
    if worst > _DIVERGENCE_TOL:
        raise ValueError(
            f"perturbation field has divergence {worst:.3e}; the reduced "
            f"integral only applies to divergence-free fields"
        )


def mc_reduced(
    F: RadialProfile,
    W: VectorField,
    *,
    rel_tol: float = 1e-8,
    n_theta: int = _N_THETA,
) -> MCResult:
    """Two-dimensional curvature integral in terms of the radial component.

    Refuses fields that are not boundary-tangent and divergence-free; the
    reduction is only valid under those hypotheses, so violating inputs
    get an error rather than a number.  The angle is summed on n_theta
    equally spaced points, exact for a separable field of harmonic m when
    2m < n_theta; a smaller n_theta, or one below 1, raises ValueError.
    """
    thetas = _angular_rule(W, n_theta)
    _require_admissible(W, thetas)
    curve = W.curve
    weight = 2.0 * math.pi / n_theta

    def density(r: np.ndarray) -> np.ndarray:
        fr = curve.frame(r)
        fv = F.value(r)
        rr = r[:, None]
        tt = thetas[None, :]
        c1 = fr.c1[:, None]
        sharpness = (fr.dc1**2 - fr.c1 * fr.ddc1)[:, None]
        # -dw1_dth^2 - c1^2 dw1_dr^2 + sharpness w1^2; each owned buffer is
        # made by the square that fills it, so a field read, whose broadcast
        # product numpy stages through its own buffers, meets at most one
        # of them; arrays the field returns are only read
        cell = np.square(W.du1_dtheta(rr, tt))
        np.negative(cell, out=cell)
        term = np.square(W.du1_dr(rr, tt))
        term *= c1**2
        cell -= term
        del term
        term = np.square(W.u1(rr, tt))
        term *= sharpness
        cell += term
        return (fv**2 * fr.c1) * cell.sum(axis=1) * weight

    return _radial_mc("reduced-2d", density, curve, rel_tol, n_theta)


def mc_direct(
    Z: ZonalField,
    W: VectorField,
    *,
    rel_tol: float = 1e-8,
    n_theta: int = _N_THETA,
) -> MCResult:
    """Curvature from the definition: brackets, connection, metric pairing.

    Computes [Z, W] componentwise, applies the covariant derivatives along
    Z and along the bracket via the Christoffel coefficients, pairs with W
    under g = diag(1, c1^2) and integrates against the area form c1 dr
    dtheta.  Knows nothing of the reductions it is used to validate.  The
    angle is summed on n_theta equally spaced points, exact for a
    separable W of harmonic m when 2m < n_theta; a smaller n_theta, or one
    below 1, raises ValueError.
    """
    if not isinstance(Z, ZonalField):
        raise ValueError("the base flow must be a zonal field")
    if Z.curve is not W.curve and Z.curve.spec != W.curve.spec:
        raise ValueError("base flow and perturbation live on different surfaces")
    curve = W.curve
    coeff = Z.coefficient
    thetas = _angular_rule(W, n_theta)
    weight = 2.0 * math.pi / n_theta

    def density(r: np.ndarray) -> np.ndarray:
        fr = curve.frame(r)
        big_f = coeff.value(r)[:, None]
        big_f_dot = coeff.d1(r)[:, None]
        gamma_r = (-fr.c1 * fr.dc1)[:, None]
        gamma_th = (fr.dc1 / fr.c1)[:, None]
        c1 = fr.c1[:, None]
        rr = r[:, None]
        tt = thetas[None, :]

        # three owned (r, theta) buffers carry the pairing; arrays the field
        # returns are only read.  The bracket [Z, W] has components
        # b1 = F dw1/dtheta and b2 = F dw2/dtheta - F' w1.
        acc, b2, term = np.empty((3, r.size, n_theta))
        w1 = W.u1(rr, tt)
        np.multiply(big_f, W.du2_dtheta(rr, tt), out=b2)
        np.multiply(big_f_dot, w1, out=acc)
        b2 -= acc
        # radial: F (db1/dtheta + gamma_r b2) + F gamma_r b2, paired with w1
        np.multiply(gamma_r, b2, out=acc)
        np.multiply(big_f, W.d2u1_dtheta2(rr, tt), out=term)
        acc += term
        acc *= big_f
        np.multiply(big_f * gamma_r, b2, out=term)
        acc += term
        acc *= w1
        del w1
        # angular: F (db2/dtheta + gamma_th b1) + b1 (F' + F gamma_th), in
        # b2's buffer; b1 is rebuilt from dw1/dtheta each time it is read
        dw1_dth = W.du1_dtheta(rr, tt)
        ang = np.multiply(big_f, W.d2u2_dtheta2(rr, tt), out=b2)
        np.multiply(big_f_dot, dw1_dth, out=term)
        ang -= term
        np.multiply(big_f, dw1_dth, out=term)
        term *= gamma_th
        ang += term
        ang *= big_f
        np.multiply(big_f, dw1_dth, out=term)
        del dw1_dth
        term *= big_f_dot + big_f * gamma_th
        ang += term
        ang *= c1**2
        ang *= W.u2(rr, tt)
        acc += ang
        acc *= c1
        return acc.sum(axis=1) * weight

    return _radial_mc("direct-geometric", density, curve, rel_tol, n_theta)


def optimal_bump_ratio(F: RadialProfile, curve: ProfileCurve, n: int = 4000) -> float:
    """Infimum over all admissible bumps of the negative-to-positive ratio.

    The 1-d form splits as gain minus penalty: positive curvature needs
    the h^2-weighted gain to beat the h'^2-weighted penalty.  Minimizing
    penalty over gain across every h vanishing at the band edges is a
    generalized eigenvalue problem; a value below one means some bump
    certifies this flow, a value at or above one means none does, plateau
    or otherwise.  On the round sphere the gain weight vanishes and the
    ratio is infinite.  The pencil -(penalty h')' = ratio gain h is solved
    by the same shifted inverse iteration as lambda1
    (`stability._pencil_smallest`), which resolves the ratio to about
    1e-15 relative however many decades the gain weight spans.
    """
    if n < 16:
        raise ValueError("grid too coarse for the eigenvalue bound")
    # the pencil grids of np.linspace(-r_b, r_b, n + 1), owned by the curve
    mid = curve.sample_grid("mid", n)
    interior = curve.sample_grid("interior", n)
    # r[1] - r[0] of that linspace, whose r[0] is exactly -r_b
    step = interior[0] + curve.r_b
    c1_mid = curve.c1(mid)
    fi = curve.frame(interior)
    big_f_mid = F.value(mid)
    big_f_int = F.value(interior)
    penalty = big_f_mid**2 * c1_mid**3
    gain = big_f_int**2 * fi.c1 * np.maximum(fi.eps_sq, 0.0)
    peak = float(np.max(gain))
    if peak <= 1e-12 * float(np.max(penalty)):
        return math.inf
    # flooring the mass where the defect vanishes perturbs the bound by O(floor)
    gain = np.maximum(gain, 1e-14 * peak)
    return _pencil_smallest(penalty, 0.0, gain, step)
