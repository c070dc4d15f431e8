"""Radial profile families: derivative chains, parity, and shape."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bandflow import (
    ConstantProfile,
    ConvergenceFailure,
    CurvePowerProfile,
    GaussianProfile,
    HelmholtzProfile,
    PlateauProfile,
    PolynomialProfile,
    ProfileCurve,
    SurfaceSpec,
    lambda1,
    solve_profile,
)


def _check_derivatives(profile, radii, tol=5e-6):
    step = 2e-5
    chains = [
        (profile.value, profile.d1),
        (profile.d1, profile.d2),
        (profile.d2, profile.d3),
    ]
    for get, diff in chains:
        fd = (np.asarray(get(radii + step)) - np.asarray(get(radii - step))) / (2 * step)
        exact = np.asarray(diff(radii))
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(fd - exact) / scale) <= tol


def test_gaussian_chain(rng):
    f = GaussianProfile(0.01, 3.0)
    _check_derivatives(f, rng.uniform(-0.5, 0.5, 30))
    assert float(f.value(0.0)) == 1.0
    # curvature at the center comes straight from the decay rate
    assert math.isclose(float(f.d2(0.0)), -2.0 * 3.0 * 0.99, rel_tol=1e-12)


def test_curve_power_chain(band, rng):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    _check_derivatives(f, rng.uniform(-0.9 * band.r_b, 0.9 * band.r_b, 30))
    assert math.isclose(float(f.value(0.0)), 1.0, rel_tol=1e-12)
    edge = float(f.value(band.r_b))
    assert 1e-3 < edge < 1.0


def test_plateau_shape(band, rng):
    r_b = band.r_b
    h = PlateauProfile(r_b, 0.4)
    inner = rng.uniform(-0.6 * r_b, 0.6 * r_b, 20)
    assert np.all(np.asarray(h.value(inner)) == 1.0)
    assert np.all(np.asarray(h.d1(inner)) == 0.0)
    assert float(h.value(r_b)) == 0.0
    assert float(h.value(-r_b)) == 0.0
    ramp = np.linspace(0.61 * r_b, 0.99 * r_b, 50)
    vals = np.asarray(h.value(ramp))
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals >= 0) & (vals <= 1))
    # stay away from the joins where the fourth derivative jumps
    interior = rng.uniform(0.63 * r_b, 0.97 * r_b, 30)
    _check_derivatives(h, interior, tol=2e-5)


def test_plateau_validation(band):
    with pytest.raises(ValueError):
        PlateauProfile(band.r_b, 0.0)
    with pytest.raises(ValueError):
        PlateauProfile(band.r_b, 1.5)
    with pytest.raises(ValueError):
        PlateauProfile(-1.0, 0.5)


def test_helmholtz_construction(band, rng):
    rate = 2.0
    f = HelmholtzProfile(band, rate)
    assert float(f.value(0.0)) == 1.0
    assert float(f.d1(0.0)) == 0.0
    r = rng.uniform(-0.95 * band.r_b, 0.95 * band.r_b, 30)
    residual = (
        np.asarray(f.d2(r))
        - np.asarray(band.dc1(r)) / np.asarray(band.c1(r)) * np.asarray(f.d1(r))
        + rate * np.asarray(f.value(r))
    )
    assert np.max(np.abs(residual)) <= 1e-10
    _check_derivatives(f, r)


def test_helmholtz_build_reads_the_frame_once(band, monkeypatch):
    # the solver stages take dc1/c1 in closed form in the angle; only the
    # node grid goes through the curve
    calls = []
    frame = ProfileCurve.frame

    def counting(self, r):
        calls.append(r)
        return frame(self, r)

    monkeypatch.setattr(ProfileCurve, "frame", counting)
    HelmholtzProfile(band, 2.0)
    assert len(calls) <= 1


def _helmholtz_through_the_frame(curve, rate, radii):
    # independent route: read dc1/c1 from the curve at every solver stage
    # and take f, f' from the dense output instead of Hermite nodes
    def rhs(r, y):
        fr = curve.frame(r)
        return [y[1], float(fr.dc1[0] / fr.c1[0]) * y[1] - rate * y[0]]

    sol = solve_ivp(
        rhs,
        (0.0, curve.r_b),
        [1.0, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    f, df = sol.sol(np.abs(radii))
    df = np.sign(radii) * df
    fr = curve.frame(radii)
    slope = fr.dc1 / fr.c1
    ddf = slope * df - rate * f
    dddf = (fr.ddc1 / fr.c1 - slope * slope) * df + slope * ddf - rate * df
    return f, df, ddf, dddf


@pytest.mark.parametrize("a", [1.5, 3.0, 12.0])
@pytest.mark.parametrize("b", [0.1, 0.5, 0.98])
def test_helmholtz_matches_an_integration_through_the_frame(a, b):
    curve = solve_profile(SurfaceSpec(a, b))
    lam = lambda1(curve).value
    radii = np.linspace(-curve.r_b, curve.r_b, 2001)
    for rate in (0.85 * lam, -0.5 * lam):
        f = HelmholtzProfile(curve, rate)
        got = (f.value(radii), f.d1(radii), f.d2(radii), f.d3(radii))
        for mine, ref in zip(got, _helmholtz_through_the_frame(curve, rate, radii)):
            assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_helmholtz_unresolvable_rate_is_a_typed_error(band):
    # the integrator gives up at the first step and returns no dense output
    with pytest.raises(ConvergenceFailure):
        HelmholtzProfile(band, 1e160)


def test_parity_exact(band):
    r = np.array([0.05, 0.2, 0.45])
    for f in (
        GaussianProfile(0.01, 4.0),
        CurvePowerProfile(band, 8.0, 1e-2),
        PlateauProfile(band.r_b, 0.3),
        HelmholtzProfile(band, 1.5),
    ):
        assert np.array_equal(f.value(-r), f.value(r))
        assert np.array_equal(f.d1(-r), -np.asarray(f.d1(r)))


def test_polynomial_profile():
    f = PolynomialProfile((1.0, 0.0, -2.0))
    assert float(f.value(3.0)) == 1.0 - 18.0
    assert float(f.d1(3.0)) == -12.0
    assert float(f.d2(3.0)) == -4.0
    assert float(f.d3(3.0)) == 0.0


def test_algebraic_composition(rng):
    g = GaussianProfile(0.0, 2.0)
    r = rng.uniform(-0.8, 0.8, 25)
    doubled = 2.0 * g
    assert np.allclose(doubled.value(r), 2.0 * np.asarray(g.value(r)), rtol=1e-15)
    total = g + ConstantProfile(0.3)
    assert np.allclose(total.value(r), np.asarray(g.value(r)) + 0.3, rtol=1e-15)
    product = g * g
    _check_derivatives(product, r)
    assert np.allclose(product.value(r), np.asarray(g.value(r)) ** 2, rtol=1e-14)


def test_describe_tags(band):
    assert GaussianProfile(0.01, 1.0).describe()["family"] == "gaussian"
    assert CurvePowerProfile(band, 3.0, 1e-3).describe()["family"] == "curve-power"
    assert PlateauProfile(band.r_b, 0.5).describe()["family"] == "plateau"
    assert HelmholtzProfile(band, 1.0).describe()["family"] == "helmholtz"
    assert (GaussianProfile(0.0, 1.0) * ConstantProfile(2.0)).describe()["family"] == "product"


def test_family_validation(band):
    with pytest.raises(ValueError):
        GaussianProfile(1.0, 2.0)
    with pytest.raises(ValueError):
        GaussianProfile(0.1, 0.0)
    with pytest.raises(ValueError):
        CurvePowerProfile(band, 0.0, 1e-3)


@pytest.mark.parametrize("outside", [1.5, math.nan])
def test_helmholtz_refuses_radii_off_the_band(band, outside):
    # f and f' fold through the curve, so they check the band as f'' and
    # f''' (which read the curve's frame) do
    f = HelmholtzProfile(band, 1.5)
    r = outside * band.r_b
    for method in (f.value, f.d1, f.d2, f.d3):
        with pytest.raises(ValueError):
            method(r)
        with pytest.raises(ValueError):
            method(np.array([0.0, -r]))


def test_plateau_off_the_descent_is_exact_and_on_it_the_smoothstep():
    """The plateau evaluates its smoothstep only where it descends; every
    value and derivative equals the smoothstep of the clipped descent
    coordinate, bit for bit, for one width and for a batch of widths, on
    1-d and 2-d radii, with the flat top exactly (1, 0) and the outside
    exactly (0, 0)."""
    from bandflow.profiles import _plateau, _smoothstep

    def clipped_form(r, start, span, order):
        t = (np.abs(r) - start) / span
        clipped = np.clip(t, 0.0, 1.0)
        if order == 0:
            return 1.0 - _smoothstep(clipped, 0)
        slope = -_smoothstep(clipped, order)
        if order % 2:
            slope = slope * np.sign(r)
        return np.where((t > 0.0) & (t < 1.0), slope / span**order, 0.0)

    rng = np.random.default_rng(7)
    h = PlateauProfile(0.9, 0.3)
    r = np.concatenate([rng.uniform(-1.0, 1.0, 500), [0.0, h.start, -h.start, 0.9, -0.9, 1.0]])
    orders = (0, 1, 2, 3)
    for got, order in zip(_plateau(r, h.start, h.span, *orders), orders):
        assert got.tobytes() == clipped_form(r, h.start, h.span, order).tobytes()
    grid = r[:500].reshape(20, 25)
    for got, order in zip(_plateau(grid, h.start, h.span, *orders), orders):
        assert got.shape == grid.shape
        assert got.tobytes() == clipped_form(grid, h.start, h.span, order).tobytes()
    starts, spans = rng.uniform(0.1, 0.8, r.size), rng.uniform(0.05, 0.5, r.size)
    for got, order in zip(_plateau(r, starts, spans, *orders), orders):
        assert got.tobytes() == clipped_form(r, starts, spans, order).tobytes()
    flat = np.array([0.0, 0.5 * h.start, -h.start])
    outside = np.array([0.9, -0.95, 1.0])
    assert _plateau(flat, h.start, h.span, 0)[0].tolist() == [1.0] * 3
    assert _plateau(outside, h.start, h.span, 0)[0].tolist() == [0.0] * 3
    for order in (1, 2, 3):
        assert not np.any(_plateau(np.concatenate([flat, outside]), h.start, h.span, order)[0])
