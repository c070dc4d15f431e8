"""Curvature of zonal flows: three routes, one number.

The 1-d closed form, the reduced 2-d integral, and the direct assembly
from brackets and covariant derivatives share no algebra, so their
agreement at 1e-5 relative is treated as mutual validation.  Scaling laws
and angular symmetry give additional free oracles.
"""
import inspect
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from bandflow import (
    BoundaryViolation,
    ConstantProfile,
    CurvePowerProfile,
    GaussianProfile,
    HelmholtzProfile,
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
from bandflow.misiolek import mc_bump_formula_batch

MC_P6_W03 = -8.370673593506833  # frozen regression value on the a=2, b=0.5 band
# the angular rule both 2-d routes use unless told otherwise
N_THETA = inspect.signature(mc_reduced).parameters["n_theta"].default


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


class _SineSpray(SeparableField):
    """u1 = (r_b^2 - r^2) sin(m theta), u2 = 0: tangent, not divergence-free."""

    def radial(self, r):
        r_b = self.curve.r_b
        return r_b**2 - r**2, -2.0 * r, np.zeros_like(r)


@pytest.mark.parametrize("harmonic", [5, 6, 7, 12])
def test_reduced_route_rejects_a_compressible_field_of_any_harmonic(band, harmonic):
    # harmonics 6 and 12 vanish on every angle of a 12-point probe
    big_f = ZonalVelocityProfile(CurvePowerProfile(band, 6.0, 1e-3), band)
    W = _SineSpray(band, harmonic=harmonic)
    assert W.is_boundary_tangent()
    with pytest.raises(ValueError, match="divergence"):
        mc_reduced(big_f, W)


@pytest.mark.parametrize(
    "n_theta, error, message",
    [(0, ValueError, "at least 1"), (-4, ValueError, "at least 1"), (32.0, TypeError, None)],
)
def test_two_d_routes_refuse_a_bad_angle_count(band, n_theta, error, message):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    W = bump_field(PlateauProfile(band.r_b, 0.3), band)
    with pytest.raises(error, match=message):
        mc_reduced(ZonalVelocityProfile(f, band), W, n_theta=n_theta)
    with pytest.raises(error, match=message):
        mc_direct(zonal_from_f(f, band), W, n_theta=n_theta)


def test_two_d_routes_refuse_an_aliased_harmonic(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    # the bump's density has degree 2 in theta, which 2 angles alias
    bump = bump_field(PlateauProfile(band.r_b, 0.3), band)
    for route in (
        lambda n: mc_reduced(big_f, bump, n_theta=n),
        lambda n: mc_direct(zonal, bump, n_theta=n),
    ):
        with pytest.raises(ValueError, match="harmonic 1"):
            route(2)
        assert math.isclose(route(3).value, MC_P6_W03, rel_tol=1e-5)
    g = _even_vanishing_stream(band.r_b, (1.0, -0.4))
    top = field_from_stream(g, band, harmonic=N_THETA // 2, phase=0.7)
    with pytest.raises(ValueError, match="harmonic"):
        mc_reduced(big_f, top)
    with pytest.raises(ValueError, match="harmonic"):
        mc_direct(zonal, top)


def test_default_angular_rule_is_exact_for_the_route_fields(band):
    assert inspect.signature(mc_direct).parameters["n_theta"].default == N_THETA
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    g = _even_vanishing_stream(band.r_b, (1.0, -0.4))
    fields = _route_fields(band) + [field_from_stream(g, band, harmonic=0, phase=0.7)]
    for W in fields:
        for route in (
            lambda **kw: mc_reduced(big_f, W, **kw),
            lambda **kw: mc_direct(zonal, W, **kw),
        ):
            coarse, fine = route(), route(n_theta=256)
            assert abs(coarse.value - fine.value) <= 1e-13 * abs(fine.value)
            assert coarse.n_nodes // N_THETA == fine.n_nodes // 256


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


class _Wobble(RadialProfile):
    """1 + amplitude cos(r): a smooth relative change of size amplitude."""

    def __init__(self, amplitude):
        self.amplitude = amplitude

    def value(self, r):
        return 1.0 + self.amplitude * np.cos(r)

    def d1(self, r):
        return -self.amplitude * np.sin(r)

    def d2(self, r):
        return -self.amplitude * np.cos(r)

    def d3(self, r):
        return self.amplitude * np.sin(r)

    def describe(self):
        return {"family": "wobble", "amplitude": self.amplitude}


def test_optimal_bump_ratio_is_resolved_on_a_graded_pencil(monkeypatch):
    # at a=12, b=0.98 the gain weight spans more than five decades
    from bandflow import HelmholtzProfile, SurfaceSpec, lambda1, misiolek, solve_profile
    from bandflow.stability import _pencil_smallest

    curve = solve_profile(SurfaceSpec(12.0, 0.98))
    big_f = ZonalVelocityProfile(HelmholtzProfile(curve, 0.85 * lambda1(curve).value), curve)
    pencils = []

    def recording(stiff, potential, mass, step):
        pencils.append((stiff, potential, mass, step))
        return _pencil_smallest(stiff, potential, mass, step)

    monkeypatch.setattr(misiolek, "_pencil_smallest", recording)
    ratio = optimal_bump_ratio(big_f, curve)
    wobbled = optimal_bump_ratio(big_f * _Wobble(1e-12), curve)
    # a 1e-12 change of F moves F^2 and so the ratio by about 2e-12
    assert abs(wobbled - ratio) <= 1e-10 * ratio
    stiff, potential, mass, step = pencils[0]
    assert np.max(mass) > 1e5 * np.min(mass)
    assert math.isclose(
        _pencil_smallest(stiff, potential, 1e8 * mass, step), 1e-8 * ratio, rel_tol=1e-13
    )


@pytest.mark.parametrize("a, b", [(1.5, 0.3), (2.0, 0.5), (3.0, 0.7)])
def test_helmholtz_at_the_m1_eigenvalue_has_ratio_one(a, b):
    # at slope -lambda1(m = 1) the bump pencil's ratio tends to one as
    # O(n^-2); the two pencils are assembled independently in stability
    # and misiolek, so this agreement checks both
    from bandflow import HelmholtzProfile, SurfaceSpec, lambda1_mode, solve_profile

    curve = solve_profile(SurfaceSpec(a, b))
    f = HelmholtzProfile(curve, lambda1_mode(curve, 1).richardson)
    big_f = ZonalVelocityProfile(f, curve)
    excess = [optimal_bump_ratio(big_f, curve, n=n) - 1.0 for n in (2000, 4000, 8000)]
    assert all(e > 0.0 for e in excess)
    for coarse, fine in zip(excess, excess[1:]):
        assert 3.9 <= coarse / fine <= 4.1


# ------------------------------------------- the 2-d densities' arithmetic


def _reference_reduced_density(F, W, n_theta=N_THETA):
    """The reduced density in expression form: one temporary per operation."""
    curve = W.curve
    thetas = -math.pi + 2.0 * math.pi * np.arange(n_theta) / n_theta
    weight = 2.0 * math.pi / n_theta

    def density(r):
        fr = curve.frame(r)
        fv = F.value(r)
        rr = r[:, None]
        tt = thetas[None, :]
        w1 = W.u1(rr, tt)
        dw1_dth = W.du1_dtheta(rr, tt)
        dw1_dr = W.du1_dr(rr, tt)
        c1 = fr.c1[:, None]
        sharpness = (fr.dc1**2 - fr.c1 * fr.ddc1)[:, None]
        cell = -dw1_dth**2 - c1**2 * dw1_dr**2 + sharpness * w1**2
        return (fv**2 * fr.c1) * cell.sum(axis=1) * weight

    return density


def _reference_direct_density(Z, W, n_theta=N_THETA):
    """The direct density in expression form, every field output kept."""
    curve = W.curve
    coeff = Z.coefficient
    thetas = -math.pi + 2.0 * math.pi * np.arange(n_theta) / n_theta
    weight = 2.0 * math.pi / n_theta

    def density(r):
        fr = curve.frame(r)
        big_f = coeff.value(r)[:, None]
        big_f_dot = coeff.d1(r)[:, None]
        gamma_r = (-fr.c1 * fr.dc1)[:, None]
        gamma_th = (fr.dc1 / fr.c1)[:, None]
        c1 = fr.c1[:, None]
        rr = r[:, None]
        tt = thetas[None, :]
        w1 = W.u1(rr, tt)
        w2 = W.u2(rr, tt)
        dw1_dth = W.du1_dtheta(rr, tt)
        b1 = big_f * dw1_dth
        b2 = big_f * W.du2_dtheta(rr, tt) - big_f_dot * w1
        db1_dth = big_f * W.d2u1_dtheta2(rr, tt)
        db2_dth = big_f * W.d2u2_dtheta2(rr, tt) - big_f_dot * dw1_dth
        nabla_z_br = big_f * (db1_dth + gamma_r * b2)
        nabla_z_bth = big_f * (db2_dth + gamma_th * b1)
        nabla_b_zr = big_f * gamma_r * b2
        nabla_b_zth = b1 * (big_f_dot + big_f * gamma_th)
        paired = (nabla_z_br + nabla_b_zr) * w1 + c1**2 * (
            nabla_z_bth + nabla_b_zth
        ) * w2
        return (paired * c1).sum(axis=1) * weight

    return density


def _recording_quadrature(monkeypatch, on_call=None):
    """Route misiolek's quadrature through a recorder of density calls.

    Returns the list that collects one (r, density(r)) pair per call;
    on_call(r) runs before each call.
    """
    from bandflow import misiolek, quadrature

    calls = []
    real = quadrature.adaptive_gauss_legendre

    def quadrature(density, lo, hi, **options):
        def recorded(r):
            if on_call is not None:
                on_call(r)
            out = density(r)
            calls.append((r.copy(), out.copy()))
            return out

        return real(recorded, lo, hi, **options)

    monkeypatch.setattr(misiolek, "adaptive_gauss_legendre", quadrature)
    return calls


def _route_fields(band):
    g = _even_vanishing_stream(band.r_b, (1.0, -0.4))
    fields = [bump_field(PlateauProfile(band.r_b, 0.3), band)]
    fields += [field_from_stream(g, band, harmonic=m, phase=0.7) for m in (1, 2, 3)]
    return fields


def test_two_d_densities_match_the_expression_form_exactly(band, monkeypatch):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    grid = np.linspace(-band.r_b, band.r_b, 401)
    for W in _route_fields(band):
        for route, reference in (
            (lambda: mc_reduced(big_f, W), _reference_reduced_density(big_f, W)),
            (lambda: mc_direct(zonal, W), _reference_direct_density(zonal, W)),
        ):
            calls = _recording_quadrature(monkeypatch)
            res = route()
            # round 0 and every later round, then the sample table
            assert len(calls) >= 1 and calls[0][0].size == 3 * 4 * 64
            for r, got in calls:
                assert np.array_equal(got, reference(r))
            assert np.array_equal(res.samples[:, 0], grid)
            assert np.array_equal(res.samples[:, 1], reference(grid))


def test_two_d_densities_keep_few_round_arrays(band):
    import tracemalloc

    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    W = bump_field(PlateauProfile(band.r_b, 0.3), band)
    # one (r, theta) array of round 0: 4 panels and their halves, 64 nodes each
    unit = 3 * 4 * 64 * N_THETA * 8

    def peak_units(route):
        route()  # quadrature rules and lazy set-up are not counted
        tracemalloc.start()
        try:
            route()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    assert peak_units(lambda: mc_direct(zonal, W)) <= 8.0
    assert peak_units(lambda: mc_reduced(big_f, W)) <= 4.0


def test_radial_factors_are_evaluated_once_per_round(band, monkeypatch):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    for route in (lambda W: mc_reduced(big_f, W), lambda W: mc_direct(zonal, W)):
        # fresh fields, so no round is served by another route's factors
        for W in _route_fields(band):
            rounds = [[]]  # radial sizes before the first density call, then per call
            real_radial = W.radial

            def counting(r, real_radial=real_radial, rounds=rounds):
                rounds[-1].append(np.size(r))
                return real_radial(r)

            W.radial = counting
            calls = _recording_quadrature(monkeypatch, lambda r: rounds.append([]))
            route(W)
            assert rounds[1:] == [[r.size] for r, _ in calls]


class _ReadOnlyView(VectorField):
    """Another field's components, each returned as a read-only view."""

    def __init__(self, inner):
        super().__init__(inner.curve)
        self.inner = inner

    def _view(name):
        def component(self, r, theta):
            out = getattr(self.inner, name)(r, theta)
            return np.broadcast_to(out, out.shape)

        return component

    u1 = _view("u1")
    u2 = _view("u2")
    du1_dr = _view("du1_dr")
    du1_dtheta = _view("du1_dtheta")
    d2u1_dtheta2 = _view("d2u1_dtheta2")
    du2_dtheta = _view("du2_dtheta")
    d2u2_dtheta2 = _view("d2u2_dtheta2")


def test_two_d_routes_only_read_field_arrays(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    big_f = ZonalVelocityProfile(f, band)
    zonal = zonal_from_f(f, band)
    for W in _route_fields(band)[:2]:
        view = _ReadOnlyView(W)
        assert mc_reduced(big_f, view).value == mc_reduced(big_f, W).value
        assert mc_direct(zonal, view).value == mc_direct(zonal, W).value


def _assert_same_as_alone(pairs, curve, batch, rel_tol=1e-8):
    """Each batch result equals a lone mc_bump_formula call, bit for bit."""
    assert len(batch) == len(pairs)
    for (big_f, h), res in zip(pairs, batch):
        alone = mc_bump_formula(big_f, h, curve, rel_tol=rel_tol)
        assert (res.value, res.error_estimate, res.n_nodes) == (
            alone.value,
            alone.error_estimate,
            alone.n_nodes,
        )
        assert res.method == alone.method
        assert res.samples.tobytes() == alone.samples.tobytes()


def _mixed_flows(curve):
    fs = [
        CurvePowerProfile(curve, 6.0, 1e-3),
        GaussianProfile(1e-2, 3.0),
        HelmholtzProfile(curve, 2.0),
    ]
    return [ZonalVelocityProfile(f, curve) for f in fs]


def test_batch_matches_lone_calls_exactly(band):
    flows = _mixed_flows(band)
    widths = (0.05, 0.3, 0.62, 0.9)
    # interleaved, so that runs of nodes sharing an F are short
    pairs = [(big_f, PlateauProfile(band.r_b, w)) for w in widths for big_f in flows]
    _assert_same_as_alone(pairs, band, mc_bump_formula_batch(pairs, band, rel_tol=1e-8))
    # a bump that is no plateau takes the per-profile path for every h
    pairs.append((flows[0], 2.0 * PlateauProfile(band.r_b, 0.4)))
    _assert_same_as_alone(pairs, band, mc_bump_formula_batch(pairs, band, rel_tol=1e-8))
    assert mc_bump_formula_batch([], band, rel_tol=1e-8) == []


def test_batch_round_over_the_node_cap_is_sliced(band, monkeypatch):
    from bandflow import misiolek

    sizes = []
    real = misiolek.integrate_batch

    def recording(density, *args, **kwargs):
        def recorded(r, owner):
            sizes.append(r.size)
            return density(r, owner)

        return real(recorded, *args, **kwargs)

    monkeypatch.setattr(misiolek, "integrate_batch", recording)
    flows = _mixed_flows(band)
    pairs = [
        (big_f, PlateauProfile(band.r_b, w))
        for big_f in flows
        for w in np.linspace(0.05, 0.9, 80).tolist()
    ]
    batch = mc_bump_formula_batch(pairs, band, rel_tol=1e-8)
    # round 0 holds 240 x 3 pieces x 3 panels x 32 nodes, more than 2^16
    assert sizes[:2] == [2**16, 240 * 288 - 2**16]
    _assert_same_as_alone(pairs, band, batch)


def test_batch_pairs_refine_on_their_own(band):
    # a tolerance and a thin width that the narrow pairs meet only after
    # extra rounds, above the roundoff floor of 1e-14
    rel_tol = 1e-12
    flows = _mixed_flows(band)
    pairs = [(big_f, PlateauProfile(band.r_b, w)) for big_f in flows for w in (0.01, 0.5)]
    batch = mc_bump_formula_batch(pairs, band, rel_tol=rel_tol)
    nodes = {res.n_nodes for res in batch}
    # some pairs settle in round 0, others need extra rounds
    assert min(nodes) == 288 and max(nodes) > 288
    _assert_same_as_alone(pairs, band, batch, rel_tol)


@pytest.mark.parametrize(
    "bad",
    [lambda r_b: PlateauProfile(2.0 * r_b, 0.3), lambda r_b: ConstantProfile(1.0)],
)
def test_batch_refuses_a_bump_that_breaks_the_boundary(band, bad):
    big_f = _mixed_flows(band)[0]
    pairs = [(big_f, PlateauProfile(band.r_b, 0.3)), (big_f, bad(band.r_b))]
    with pytest.raises(BoundaryViolation):
        mc_bump_formula_batch(pairs, band, rel_tol=1e-8)
    with pytest.raises(BoundaryViolation):
        mc_bump_formula(big_f, bad(band.r_b), band)


def test_batched_density_is_the_expression_form_and_reads_c1_once(band, monkeypatch):
    """On the nodes of a real coarse round, the batched density equals
    pi F^2 c1 (h^2 eps^2 - c1^2 h'^2) built from the public surface, bit
    for bit, and evaluates the c1 piece once per node: F and a warp-factor
    f take c1 from the frame instead of evaluating the curve again."""
    from bandflow import misiolek
    from bandflow.geometry import ProfileCurve

    flows = _mixed_flows(band)
    widths = np.linspace(0.05, 0.9, 12).tolist()
    pairs = [(big_f, PlateauProfile(band.r_b, w)) for w in widths for big_f in flows]
    rounds = []
    real = misiolek.integrate_batch

    def recording(density, *args, **kwargs):
        def recorded(r, owner):
            rounds.append((r.copy(), owner.copy()))
            return density(r, owner)

        return real(recorded, *args, **kwargs)

    monkeypatch.setattr(misiolek, "integrate_batch", recording)
    mc_bump_formula_batch(pairs, band, rel_tol=1e-8)
    r, owner = rounds[0]
    assert r.size == len(pairs) * 288

    reference = np.empty_like(r)
    for i, (big_f, h) in enumerate(pairs):
        mine = owner == i
        x = r[mine]
        fr = band.frame(x)
        eps_sq = fr.dc1**2 - fr.c1 * fr.ddc1 - 1.0
        fv, hv, hd = big_f.value(x), h.value(x), h.d1(x)
        reference[mine] = math.pi * fv**2 * fr.c1 * (hv**2 * eps_sq - fr.c1**2 * hd**2)

    density = misiolek._formula_density(pairs, band)
    c1_nodes = []
    hermite = ProfileCurve._hermite

    def counting(self, x, *pieces):
        c1_nodes.extend(x.size for piece in pieces if piece is self._c1)
        return hermite(self, x, *pieces)

    monkeypatch.setattr(ProfileCurve, "_hermite", counting)
    got = density(r, owner)
    assert got.tobytes() == reference.tobytes()
    assert sum(c1_nodes) == r.size
