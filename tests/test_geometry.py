"""Profile solver against closed forms and independent integrals.

The frozen arc-length values below were produced by symbolic integration
of sqrt(1 + a^2 t^2 / (1 - t^2)) at 25 digits, so they are independent of
both the ODE solver and the adaptive quadrature under test.
"""
import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicHermiteSpline

from bandflow import (
    PROFILE_COLUMNS,
    EventNotReached,
    HelmholtzProfile,
    ProfileCurve,
    SurfaceSpec,
    ToleranceFailure,
    arc_length_from_height,
    curvature_defect,
    lambda1,
    profile_table,
    solve_profile,
)
from bandflow import geometry, profiles

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


@pytest.mark.filterwarnings("error")
def test_domain_guard(band):
    # a nan radius fails the band check like an out-of-band one, before
    # the interval lookup would cast it to an index
    for accessor in (band.c1, band.c2, band.frame):
        for r in (band.r_b * 1.01, math.nan, np.array([math.nan, 0.1])):
            with pytest.raises(ValueError, match="outside the band"):
                accessor(r)


def test_hermite_pieces_equal_scipys_coefficients(band):
    radii = band.radii
    c1_nodes, slopes = band.c1(radii), band.dc1(radii)
    want = CubicHermiteSpline(radii, c1_nodes, slopes).c
    assert geometry._hermite_coefficients(radii, c1_nodes, slopes).tobytes() == want.tobytes()
    for bad in (math.nan, math.inf):
        broken = c1_nodes.copy()
        broken[7] = bad
        with pytest.raises(ValueError, match="finite"):
            geometry._hermite_coefficients(radii, broken, slopes)
        with pytest.raises(ValueError, match="finite"):
            geometry._hermite_coefficients(radii, c1_nodes, broken)


def _step_boundary_queries(sol, r_b: float) -> np.ndarray:
    """Ascending queries that pin the step choice: every interior step
    endpoint, its neighbours one ulp either side, and both span ends."""
    inner = sol.ts[1:-1]
    return np.sort(
        np.concatenate(
            [inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf), [0.0, r_b]]
        )
    )


def _spy_dense_rows(monkeypatch, module) -> list:
    """Record the (sol, nodes, rows) of every _dense_rows call made
    through module."""
    seen = []
    read = module._dense_rows

    def spy(sol, nodes, rows):
        seen.append((sol, nodes, rows))
        return read(sol, nodes, rows)

    monkeypatch.setattr(module, "_dense_rows", spy)
    return seen


def test_node_read_takes_scipys_step_at_each_endpoint(rng):
    # on a solved meridian the two steps that share an endpoint agree
    # there bit for bit; random coefficients make them disagree, so only
    # the dense output's own step rule reproduces its values
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.4, 6))])
    steps = [
        Dop853DenseOutput(t0, t1, rng.normal(size=3), rng.normal(size=(7, 3)))
        for t0, t1 in zip(ts[:-1], ts[1:])
    ]
    sol = OdeSolution(ts, steps)
    inside = rng.uniform(0.0, ts[-1], 50)
    query = np.sort(np.concatenate([_step_boundary_queries(sol, ts[-1]), inside]))
    for rows in ([0, 1, 2], [2], [1, 0]):
        assert geometry._dense_rows(sol, query, rows).tobytes() == sol(query)[rows].tobytes()


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (2.0, 0.5), (12.0, 0.98), (150.0, 0.5)])
def test_node_read_equals_the_dense_output(monkeypatch, a, b):
    seen = _spy_dense_rows(monkeypatch, geometry)
    curve = solve_profile(SurfaceSpec(a, b))
    ((sol, nodes, rows),) = seen
    assert rows == [0, 1] and nodes is curve.radii
    for query in (nodes, _step_boundary_queries(sol, curve.r_b)):
        got = geometry._dense_rows(sol, query, rows)
        assert got.tobytes() == sol(query).tobytes()


@pytest.mark.parametrize("share", [0.85, -0.85])
def test_helmholtz_node_read_equals_the_dense_output(monkeypatch, band, share):
    rate = share * lambda1(band).value
    seen = _spy_dense_rows(monkeypatch, profiles)
    f = HelmholtzProfile(band, rate)
    ((sol, nodes, rows),) = seen
    assert rows == [2, 3] and nodes is band.radii
    for query in (nodes, _step_boundary_queries(sol, band.r_b)):
        want = sol(query)
        assert geometry._dense_rows(sol, query, rows).tobytes() == want[2:].tobytes()
        assert geometry._dense_rows(sol, query, [0, 1, 2, 3]).tobytes() == want.tobytes()
    # the pieces built on those nodes are scipy's spline coefficients
    f_nodes, df_nodes = sol(nodes)[2:]
    fr = band.frame(nodes)
    ddf_nodes = (fr.dc1 / fr.c1) * df_nodes - rate * f_nodes
    assert f._f.tobytes() == CubicHermiteSpline(nodes, f_nodes, df_nodes).c.tobytes()
    assert f._df.tobytes() == CubicHermiteSpline(nodes, df_nodes, ddf_nodes).c.tobytes()


@pytest.mark.parametrize(
    "a, b, outcome",
    [
        (387.58, 0.8968, ToleranceFailure),
        (755.12, 0.9471, ToleranceFailure),
        (1.0, 0.99856, EventNotReached),
        (162.03, 0.4316, None),
        (215.98, 0.0341, None),
    ],
)
def test_edge_probe_outcomes(a, b, outcome):
    # oblate and near-pole inputs that validation accepts: each keeps the
    # outcome it had when the nodes were read through scipy's OdeSolution
    if outcome is None:
        assert isinstance(solve_profile(SurfaceSpec(a, b)), ProfileCurve)
    else:
        with pytest.raises(outcome):
            solve_profile(SurfaceSpec(a, b))


def test_profile_table_layout(band):
    table = profile_table(band, n=51)
    assert table.shape == (51, len(PROFILE_COLUMNS))
    assert table[0, 0] == 0.0
    assert math.isclose(table[-1, 0], band.r_b, rel_tol=1e-15)
    # epsilon column is the defect evaluated on the same radii
    eps = curvature_defect(band, table[:, 0])
    assert np.array_equal(table[:, 6], eps)
