"""Profile solver against closed forms and independent integrals.

The frozen arc-length values below were produced by symbolic integration
of sqrt(1 + a^2 t^2 / (1 - t^2)) at 25 digits, so they are independent of
both the ODE solver and the adaptive quadrature under test.
"""
import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from bandflow import (
    PROFILE_COLUMNS,
    ProfileCurve,
    SurfaceSpec,
    arc_length_from_height,
    curvature_defect,
    profile_table,
    solve_profile,
)

ARC_LENGTHS = {
    (1.0, 0.5): 0.5235987755982988730771072,
    (1.5, 0.3): 0.3103829161329567970486918,
    (2.0, 0.5): 0.5853254665042683872318349,
    (3.0, 0.7): 1.168997584145623443999669,
}


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(0.5, 0.5)
    with pytest.raises(ValueError):
        SurfaceSpec(2.0, 0.0)
    with pytest.raises(ValueError):
        SurfaceSpec(2.0, 1.0)
    spec = SurfaceSpec(2, 0.5)
    assert isinstance(spec.a, float)


def test_arc_length_matches_symbolic_values():
    for (a, z), expected in ARC_LENGTHS.items():
        got = arc_length_from_height(a, z)
        assert math.isclose(got, expected, rel_tol=1e-12), (a, z)


def test_arc_length_is_odd():
    assert arc_length_from_height(2.0, 0.0) == 0.0
    plus = arc_length_from_height(2.0, 0.4)
    minus = arc_length_from_height(2.0, -0.4)
    assert minus == -plus


def test_band_height_reached():
    for a, b in [(1.2, 0.3), (2.0, 0.5), (3.0, 0.7)]:
        curve = solve_profile(SurfaceSpec(a, b))
        assert abs(float(curve.c2(curve.r_b)) - b) <= 1e-10
        assert abs(curve.r_b - arc_length_from_height(a, b)) <= 1e-8


def test_sphere_closed_form(sphere):
    r = np.linspace(0.0, sphere.r_b, 400)
    assert np.max(np.abs(sphere.c1(r) - np.cos(r))) <= 1e-8
    assert np.max(np.abs(sphere.c2(r) - np.sin(r))) <= 1e-8
    assert abs(sphere.r_b - math.asin(0.5)) <= 1e-10


def test_profile_parity_is_exact(band):
    r = np.array([0.1, 0.25, 0.4, band.r_b])
    assert np.array_equal(band.c1(-r), band.c1(r))
    assert np.array_equal(band.c2(-r), -band.c2(r))
    assert np.array_equal(band.dc1(-r), -band.dc1(r))


def test_on_ellipse_and_unit_speed(band, rng):
    a = band.spec.a
    r = rng.uniform(-band.r_b, band.r_b, 200)
    c1, c2 = band.c1(r), band.c2(r)
    assert np.max(np.abs(c1**2 - a**2 * (1.0 - c2**2))) <= 1e-8
    assert np.max(np.abs(band.dc1(r) ** 2 + band.dc2(r) ** 2 - 1.0)) <= 1e-8


def test_derivative_chain_against_finite_differences(band, rng):
    r = rng.uniform(-0.9 * band.r_b, 0.9 * band.r_b, 40)
    step = 2e-5
    for get, diff in [(band.c1, band.dc1), (band.dc1, band.ddc1), (band.ddc1, band.dddc1)]:
        fd = (np.asarray(get(r + step)) - np.asarray(get(r - step))) / (2 * step)
        scale = np.maximum(np.abs(np.asarray(diff(r))), 1.0)
        assert np.max(np.abs(fd - np.asarray(diff(r))) / scale) <= 5e-6


def test_second_derivative_closed_form(band, rng):
    # on the ellipse the chain collapses to ddc1 = -a^4 c1 / S^4
    a = band.spec.a
    r = rng.uniform(-band.r_b, band.r_b, 100)
    c1, c2 = band.c1(r), band.c2(r)
    s_sq = c1**2 + a**4 * c2**2
    assert np.max(np.abs(band.ddc1(r) + a**4 * c1 / s_sq**2)) <= 1e-8


def test_defect_closed_form(band, rng):
    a = band.spec.a
    assert math.isclose(float(curvature_defect(band, 0.0)), math.sqrt(a**2 - 1.0), rel_tol=1e-12)
    r = rng.uniform(-band.r_b, band.r_b, 100)
    c1, c2 = band.c1(r), band.c2(r)
    s_sq = c1**2 + a**4 * c2**2
    expected = np.sqrt(c1**4 * (a**2 - 1.0) / s_sq**2)
    assert np.max(np.abs(curvature_defect(band, r) - expected)) <= 1e-8


def test_sphere_defect_stays_tiny(sphere):
    r = np.linspace(-sphere.r_b, sphere.r_b, 1000)
    assert np.max(curvature_defect(sphere, r)) <= 1e-6


def test_accessors_read_the_frame_values(band, rng):
    r = np.concatenate([rng.uniform(-band.r_b, band.r_b, 50), [0.0, -band.r_b, band.r_b]])
    fr = band.frame(r)
    assert np.array_equal(band.c1(r), fr.c1)
    assert np.array_equal(band.c2(r), fr.c2)
    assert band.c2(float(r[0])) == fr.c2[0]


@pytest.mark.parametrize("b", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("a", [1.0, 1.5, 3.0, 12.0, 150.0])
def test_one_lookup_evaluation_equals_the_splines(a, b):
    """c1 and c2, evaluated from one interval lookup on the node grid,
    equal scipy's CubicHermiteSpline on the same nodes bit for bit."""
    solved = solve_profile(SurfaceSpec(a, b))
    radii, r_b = solved.radii, solved.r_b
    # any node values serve; these are the solved curve's
    c1_nodes, c2_nodes = solved.c1(radii), solved.c2(radii)
    curve = ProfileCurve(solved.spec, r_b, radii, c1_nodes, c2_nodes)
    a2 = solved.spec.a ** 2
    s = np.sqrt(c1_nodes**2 + a2 * a2 * c2_nodes**2)
    c1_spline = CubicHermiteSpline(radii, c1_nodes, -a2 * c2_nodes / s)
    c2_spline = CubicHermiteSpline(radii, c2_nodes, c1_nodes / s)
    rng = np.random.default_rng(int(a * 100 + b * 1000))
    # a rounded lookup is one off most easily at and one ulp beside a node
    beside = np.concatenate([np.nextafter(radii, 0.0), np.nextafter(radii, r_b)])
    r = np.concatenate(
        [radii, -radii, beside, [0.0, r_b, -r_b], rng.uniform(-r_b, r_b, 10_000)]
    )
    want_c1 = c1_spline(np.abs(r))
    want_c2 = np.sign(r) * c2_spline(np.abs(r))
    fr = curve.frame(r)
    for got in (fr.c1, curve.c1(r)):
        assert got.tobytes() == want_c1.tobytes()
    for got in (fr.c2, curve.c2(r)):
        assert got.tobytes() == want_c2.tobytes()


def test_domain_guard(band):
    for accessor in (band.c1, band.c2, band.frame):
        with pytest.raises(ValueError):
            accessor(band.r_b * 1.01)


def test_profile_table_layout(band):
    table = profile_table(band, n=51)
    assert table.shape == (51, len(PROFILE_COLUMNS))
    assert table[0, 0] == 0.0
    assert math.isclose(table[-1, 0], band.r_b, rel_tol=1e-15)
    # epsilon column is the defect evaluated on the same radii
    eps = curvature_defect(band, table[:, 0])
    assert np.array_equal(table[:, 6], eps)
