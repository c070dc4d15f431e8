"""Curvature of zonal flows: three routes, one number.

The 1-d closed form, the reduced 2-d integral, and the direct assembly
from brackets and covariant derivatives share no algebra, so their
agreement at 1e-5 relative is treated as mutual validation.  Scaling laws
and angular symmetry give additional free oracles.
"""
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from bandflow import (
    ConstantProfile,
    CurvePowerProfile,
    GaussianProfile,
    PlateauProfile,
    PolynomialProfile,
    RadialProfile,
    SeparableField,
    StreamPotentialField,
    TangencyViolation,
    VectorField,
    ZonalVelocityProfile,
    adaptive_gauss_legendre,
    bump_field,
    field_from_stream,
    mc_bump_formula,
    mc_direct,
    mc_reduced,
    optimal_bump_ratio,
    zonal_from_f,
)

MC_P6_W03 = -8.370673593506833  # frozen regression value on the a=2, b=0.5 band


def _tolerance(value):
    return max(1e-8, 1e-5 * abs(value))


def test_three_routes_agree(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    h = PlateauProfile(band.r_b, 0.3)
    formula = mc_bump_formula(big_f, h, band)
    reduced = mc_reduced(big_f, bump_field(h, band))
    direct = mc_direct(zonal_from_f(f, band), bump_field(h, band))
    assert abs(formula.value - reduced.value) <= _tolerance(formula.value)
    assert abs(reduced.value - direct.value) <= _tolerance(reduced.value)
    assert math.isclose(formula.value, MC_P6_W03, rel_tol=1e-9)
    assert formula.method == "formula-1d"
    assert reduced.method == "reduced-2d"
    assert direct.method == "direct-geometric"


def test_zero_bump_gives_zero(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    h = ConstantProfile(0.0)
    assert mc_bump_formula(big_f, h, band).value == 0.0
    W = bump_field(h, band)
    assert mc_reduced(big_f, W).value == 0.0
    assert mc_direct(zonal_from_f(f, band), W).value == 0.0


def test_quadratic_scaling_in_flow(band):
    f = GaussianProfile(1e-2, 3.0)
    h = PlateauProfile(band.r_b, 0.4)
    base = mc_bump_formula(ZonalVelocityProfile(f, band), h, band).value
    scaled = mc_bump_formula(ZonalVelocityProfile(2.0 * f, band), h, band).value
    assert math.isclose(scaled, 4.0 * base, rel_tol=1e-10)
    flipped = mc_direct(zonal_from_f(-1.0 * f, band), bump_field(h, band)).value
    reference = mc_direct(zonal_from_f(f, band), bump_field(h, band)).value
    assert math.isclose(flipped, reference, rel_tol=1e-12)


def test_quadratic_scaling_in_bump(band):
    f = CurvePowerProfile(band, 8.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    h = PlateauProfile(band.r_b, 0.25)
    base = mc_bump_formula(big_f, h, band).value
    tripled = mc_bump_formula(big_f, 3.0 * h, band).value
    assert math.isclose(tripled, 9.0 * base, rel_tol=1e-10)


def _formula_density(big_f, h, band):
    # the 1-d integrand written out again from the public profile surface
    def density(r):
        fr = band.frame(r)
        eps_sq = fr.dc1**2 - fr.c1 * fr.ddc1 - 1.0
        gain = np.asarray(h.value(r)) ** 2 * eps_sq
        penalty = fr.c1**2 * np.asarray(h.d1(r)) ** 2
        return math.pi * np.asarray(big_f.value(r)) ** 2 * fr.c1 * (gain - penalty)

    return density


@pytest.mark.parametrize("w", [0.05, 0.3, 0.9])
def test_formula_lies_within_its_error_estimate(band, w):
    big_f = ZonalVelocityProfile(CurvePowerProfile(band, 6.0, 1e-3), band)
    h = PlateauProfile(band.r_b, w)
    res = mc_bump_formula(big_f, h, band)
    # an independent panel layout, refined until rounding is all that is left
    ref = adaptive_gauss_legendre(
        _formula_density(big_f, h, band),
        -band.r_b,
        band.r_b,
        rel_tol=1e-13,
        abs_tol=0.0,
        initial_panels=8,
        points=h.joins,
    )
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error
    assert res.error_estimate <= 1e-8 * abs(res.value)


def test_scaled_bump_keeps_its_joins(band):
    big_f = ZonalVelocityProfile(CurvePowerProfile(band, 8.0, 1e-3), band)
    h = PlateauProfile(band.r_b, 0.25)
    tripled = 3.0 * h
    inner = 0.75 * band.r_b
    assert tripled.joins == h.joins == (-band.r_b, -inner, inner, band.r_b)
    assert (h + tripled).joins == h.joins
    # the same panels, so the same node count and an exact factor of nine
    base = mc_bump_formula(big_f, h, band)
    scaled = mc_bump_formula(big_f, tripled, band)
    assert scaled.n_nodes == base.n_nodes
    assert math.isclose(scaled.value, 9.0 * base.value, rel_tol=1e-13)


class _CountingProfile(RadialProfile):
    def __init__(self, inner):
        self.inner = inner
        self.sizes = []
        self.derivative_sizes = []

    def value(self, r):
        self.sizes.append(np.size(r))
        return self.inner.value(r)

    def d1(self, r):
        self.derivative_sizes.append(np.size(r))
        return self.inner.d1(r)

    def d2(self, r):
        return self.inner.d2(r)

    def d3(self, r):
        return self.inner.d3(r)

    def describe(self):
        return self.inner.describe()


def test_sample_table_is_built_only_when_read(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    counting = _CountingProfile(ZonalVelocityProfile(f, band))
    res = mc_bump_formula(counting, PlateauProfile(band.r_b, 0.3), band)
    # the three smooth pieces and their halves go out in one call
    assert counting.sizes == [res.n_nodes]
    rows = res.samples
    assert counting.sizes[1:] == [401]
    assert rows.shape == (401, 2)
    # a second read reuses the table
    assert res.samples is rows
    assert counting.sizes[1:] == [401]


def _even_vanishing_stream(r_b, coefficients):
    # (r_b^2 - r^2)^2 times an even polynomial: tangent at the boundary
    edge = np.array([r_b**4, 0.0, -2.0 * r_b**2, 0.0, 1.0])
    inner = np.zeros(2 * len(coefficients) - 1)
    inner[::2] = coefficients
    return PolynomialProfile(tuple(np.polynomial.polynomial.polymul(edge, inner)))


def test_angular_phase_is_irrelevant(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    g = _even_vanishing_stream(band.r_b, (1.0, -0.4))
    base = mc_reduced(
        ZonalVelocityProfile(f, band), field_from_stream(g, band, harmonic=1)
    )
    shifted = mc_reduced(
        ZonalVelocityProfile(f, band),
        field_from_stream(g, band, harmonic=1, phase=1.234),
    )
    assert abs(base.value - shifted.value) <= 1e-9 * max(1.0, abs(base.value))


def test_higher_harmonic_cross_check(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    W = field_from_stream(_even_vanishing_stream(band.r_b, (0.8, 0.3)), band, harmonic=2)
    reduced = mc_reduced(ZonalVelocityProfile(f, band), W)
    direct = mc_direct(zonal_from_f(f, band), W)
    assert abs(reduced.value - direct.value) <= _tolerance(reduced.value)


def test_radial_work_does_not_grow_with_angular_nodes(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)

    def radial_points(n_theta):
        h = _CountingProfile(PlateauProfile(band.r_b, 0.3))
        g = _CountingProfile(_even_vanishing_stream(band.r_b, (1.0, -0.4)))
        nodes = []
        for W in (bump_field(h, band), field_from_stream(g, band, harmonic=2, phase=0.7)):
            for res in (
                mc_reduced(ZonalVelocityProfile(f, band), W, n_theta=n_theta),
                mc_direct(zonal_from_f(f, band), W, n_theta=n_theta),
            ):
                nodes.append(res.n_nodes // n_theta)
        counts = [sum(p.sizes) + sum(p.derivative_sizes) for p in (h, g)]
        return counts, nodes

    coarse, coarse_nodes = radial_points(64)
    fine, fine_nodes = radial_points(256)
    # the same radial nodes, so the same radial work, whatever n_theta is
    assert coarse_nodes == fine_nodes
    assert coarse == fine
    assert min(coarse) > 0


def _probe_grids(r_b, n=5, m=4):
    r = np.linspace(-0.9 * r_b, 0.9 * r_b, n)
    theta = np.linspace(-3.0, 3.0, m)
    rr, tt = np.broadcast_arrays(r[:, None], theta[None, :])
    return [(r[:, None], theta[None, :]), (rr, tt), (r, 0.4), (0.3 * r_b, -1.1)]


@pytest.mark.parametrize("harmonic", [0, 1, 2, 3])
def test_separable_components_match_closed_forms(band, harmonic):
    g = _even_vanishing_stream(band.r_b, (1.0, -0.4))
    phase = 0.37
    W = field_from_stream(g, band, harmonic=harmonic, phase=phase)
    assert isinstance(W, SeparableField)
    m = harmonic
    for r, theta in _probe_grids(band.r_b):
        c1 = np.asarray(band.c1(r))
        dc1 = np.asarray(band.dc1(r))
        gv = np.asarray(g.value(r))
        gd = np.asarray(g.d1(r))
        s = np.sin(m * np.asarray(theta) + phase)
        c = np.cos(m * np.asarray(theta) + phase)
        expected = {
            "u1": -m * gv * s / c1,
            "u2": -gd * c / c1,
            "du1_dr": -m * (gd * c1 - gv * dc1) / c1**2 * s,
            "du1_dtheta": -(m**2) * gv * c / c1,
            "d2u1_dtheta2": m**3 * gv * s / c1,
            "du2_dtheta": m * gd * s / c1,
            "d2u2_dtheta2": m**2 * gd * c / c1,
        }
        shape = np.broadcast_shapes(np.shape(r), np.shape(theta))
        for name, want in expected.items():
            got = getattr(W, name)(r, theta)
            assert np.shape(got) == shape, (name, np.shape(r), np.shape(theta))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15), name


def test_stream_field_requires_boundary_tangency(band):
    with pytest.raises(TangencyViolation):
        field_from_stream(ConstantProfile(1.0), band, harmonic=1)


class _Compressible(VectorField):
    """u = cos(r) d/dr, with its exact derivatives."""

    def u1(self, r, theta):
        return np.cos(np.asarray(r, dtype=float)) + self._zero(r, theta)

    def du1_dr(self, r, theta):
        return -np.sin(np.asarray(r, dtype=float)) + self._zero(r, theta)

    def _zero(self, r, theta):
        return np.zeros(np.broadcast_shapes(np.shape(r), np.shape(theta)))

    u2 = du1_dtheta = d2u1_dtheta2 = du2_dtheta = d2u2_dtheta2 = _zero


def test_reduced_route_rejects_bad_fields(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    with pytest.raises((TangencyViolation, ValueError)):
        mc_reduced(ZonalVelocityProfile(f, band), _Compressible(band))


def test_direct_route_type_and_surface_checks(band, sphere):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    h = PlateauProfile(band.r_b, 0.3)
    W = bump_field(h, band)
    with pytest.raises(ValueError):
        mc_direct(W, W)
    with pytest.raises(ValueError):
        mc_direct(zonal_from_f(ConstantProfile(1.0), sphere), W)


def test_result_metadata(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    h = PlateauProfile(band.r_b, 0.3)
    res = mc_bump_formula(ZonalVelocityProfile(f, band), h, band)
    assert res.samples is not None and res.samples.shape[1] == 2
    assert res.samples[0, 0] == -band.r_b and res.samples[-1, 0] == band.r_b
    assert res.n_nodes > 0
    assert res.error_estimate >= 0.0
    assert res.significant
    assert set(res.to_json()) == {"value", "method", "error_estimate", "n_nodes"}


def test_sphere_curvature_never_positive(sphere):
    f = CurvePowerProfile(sphere, 1.0, 0.0)
    big_f = ZonalVelocityProfile(f, sphere)
    for w in np.linspace(0.05, 0.9, 12):
        value = mc_bump_formula(big_f, PlateauProfile(sphere.r_b, w), sphere).value
        assert value <= 1e-10
        assert value < 0.0
    assert optimal_bump_ratio(big_f, sphere) == math.inf


@pytest.mark.parametrize("family", ["power", "helmholtz"])
def test_optimal_bump_ratio_matches_a_dense_pencil(band, family):
    from bandflow import HelmholtzProfile, lambda1

    if family == "power":
        f = CurvePowerProfile(band, 4.0, 0.05)
    else:
        f = HelmholtzProfile(band, 0.9 * lambda1(band).value)
    big_f = ZonalVelocityProfile(f, band)
    n = 64
    # penalty F^2 c1^3 between nodes, gain F^2 c1 eps^2 at interior nodes
    r = np.linspace(-band.r_b, band.r_b, n + 1)
    h = r[1] - r[0]
    mid = 0.5 * (r[:-1] + r[1:])
    inner = r[1:-1]
    penalty = np.asarray(big_f.value(mid)) ** 2 * np.asarray(band.c1(mid)) ** 3
    c1 = np.asarray(band.c1(inner))
    eps_sq = np.asarray(band.dc1(inner)) ** 2 - c1 * np.asarray(band.ddc1(inner)) - 1.0
    gain = np.asarray(big_f.value(inner)) ** 2 * c1 * eps_sq
    # the package floors the gain at 1e-14 of its peak; not active here
    assert np.min(gain) > 1e-14 * np.max(gain)
    stiffness = (
        np.diag((penalty[:-1] + penalty[1:]) / h**2)
        - np.diag(penalty[1:-1] / h**2, 1)
        - np.diag(penalty[1:-1] / h**2, -1)
    )
    smallest = float(eigh(stiffness, np.diag(gain), eigvals_only=True)[0])
    assert math.isclose(optimal_bump_ratio(big_f, band, n=n), smallest, rel_tol=1e-10)


def test_optimal_bump_ratio_explains_failures(band):
    from bandflow import HelmholtzProfile, lambda1

    lam = lambda1(band).value
    f = HelmholtzProfile(band, 0.94 * lam)
    big_f = ZonalVelocityProfile(f, band)
    ratio = optimal_bump_ratio(big_f, band)
    assert math.isclose(ratio, 2.1108647898783, rel_tol=1e-6)
    # a ratio above one promises every bump loses; spot-check a few widths
    for w in (0.1, 0.3, 0.6, 0.9):
        assert mc_bump_formula(big_f, PlateauProfile(band.r_b, w), band).value < 0.0
