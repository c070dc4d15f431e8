"""Profile solver against closed forms and independent integrals.

The frozen arc-length values below were produced by symbolic integration
of sqrt(1 + a^2 t^2 / (1 - t^2)) at 25 digits, so they are independent of
the elliptic integral that both the node grid and the arc-length oracle
use.  A DOP853 run of the arc-length meridian system is the second,
numerical, independent route.
"""
import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicHermiteSpline

from bandflow import (
    PROFILE_COLUMNS,
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
    # both zeros give +0.0
    assert math.copysign(1.0, arc_length_from_height(2.0, -0.0)) == 1.0
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
    # on a smooth solution the two steps that share an endpoint agree
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
        assert profiles._dense_rows(sol, query, rows).tobytes() == sol(query)[rows].tobytes()


@pytest.mark.parametrize("share", [0.85, -0.85])
def test_helmholtz_node_read_equals_the_dense_output(monkeypatch, band, share):
    rate = share * lambda1(band).value
    seen = _spy_dense_rows(monkeypatch, profiles)
    f = HelmholtzProfile(band, rate)
    ((sol, nodes, rows),) = seen
    assert rows == [0, 1] and nodes is band.angles
    for query in (nodes, _step_boundary_queries(sol, band.angles[-1])):
        want = sol(query)
        assert profiles._dense_rows(sol, query, rows).tobytes() == want.tobytes()
        assert profiles._dense_rows(sol, query, [1]).tobytes() == want[1:].tobytes()
    # the pieces built on those nodes are scipy's spline coefficients in r
    f_nodes, df_nodes = sol(nodes)
    radii = band.radii
    fr = band.frame(radii)
    ddf_nodes = (fr.dc1 / fr.c1) * df_nodes - rate * f_nodes
    assert f._f.tobytes() == CubicHermiteSpline(radii, f_nodes, df_nodes).c.tobytes()
    assert f._df.tobytes() == CubicHermiteSpline(radii, df_nodes, ddf_nodes).c.tobytes()


def _worst_invariant(curve) -> float:
    """Worst criterion-1 deviation of a curve, read at every midpoint of
    its node grid on both halves: on the ellipse, unit speed, the end
    height and the closed-form arc length."""
    a, b = curve.spec.a, curve.spec.b
    mid = 0.5 * (curve.radii[:-1] + curve.radii[1:])
    fr = curve.frame(np.concatenate([mid, -mid]))
    return max(
        float(np.max(np.abs(fr.c1**2 - a * a * (1.0 - fr.c2**2)))),
        float(np.max(np.abs(fr.dc1**2 + fr.dc2**2 - 1.0))),
        abs(float(curve.c2(curve.r_b)) - b),
        abs(curve.r_b - arc_length_from_height(a, b)),
    )


@pytest.mark.parametrize(
    "a, b, ode_outcome",
    [
        (387.58, 0.8968, "ToleranceFailure"),
        (755.12, 0.9471, "ToleranceFailure"),
        (1.0, 0.99856, "EventNotReached"),
        (162.03, 0.4316, "None"),
        (215.98, 0.0341, "None"),
        (101.8, 0.953, "off-ellipse"),
        (390.5, 0.246, "off-ellipse"),
        (1000.0, 0.98, "off-ellipse"),
    ],
)
def test_edge_probe_outcomes(a, b, ode_outcome):
    # oblate and near-pole inputs that validation accepts; ode_outcome is
    # what the DOP853 profile solve gave them (an error it raised, None, or
    # a curve that left the ellipse between nodes); the closed-form nodes
    # solve every one within the invariants
    assert _worst_invariant(solve_profile(SurfaceSpec(a, b))) <= 1e-9


@pytest.mark.parametrize("a", np.geomspace(1.0, geometry._A_MAX, 7))
def test_invariants_hold_between_nodes_over_the_envelope(a):
    n = max(1001, math.ceil(128.0 * a) + 1)
    thinnest = 4.0 * a * n * n * np.finfo(float).tiny
    for b in (2.0 * thinnest, 1e-150, 1e-7, 0.02, 0.5, 0.98, 0.9999, 1.0 - 1e-9):
        assert _worst_invariant(solve_profile(SurfaceSpec(a, b))) <= 1e-9, (a, b)


@pytest.mark.parametrize(
    "a, b", [(1e6, 0.5), (np.nextafter(geometry._A_MAX, 2e3), 0.5), (3.0, 1e-305)]
)
def test_refusal_comes_before_any_node(monkeypatch, a, b):
    # a = 1e6 would take 1.28e8 nodes, about 1 GB per array, so a node
    # grid made before the refusal fails here instead of being allocated
    def no_grid(*args, **kwargs):
        raise AssertionError("node grid made before the refusal")

    monkeypatch.setattr(geometry.np, "linspace", no_grid)
    with pytest.raises(ToleranceFailure):
        solve_profile(SurfaceSpec(a, b))


def test_every_accepted_spec_solves_or_is_refused():
    # log-uniform draws over the whole box SurfaceSpec accepts, a up to
    # 1e7 and b from subnormal to within 1e-12 of the pole
    rng = np.random.default_rng(20)
    tiny = np.finfo(float).tiny
    for _ in range(40):
        a = 10.0 ** rng.uniform(0.0, 7.0)
        b = 10.0 ** rng.uniform(-320.0, 0.0) if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)
        n = max(1001, math.ceil(128.0 * a) + 1)
        spec = SurfaceSpec(a, b)
        if a > geometry._A_MAX or b < 4.0 * a * n * n * tiny:
            with pytest.raises(ToleranceFailure):
                solve_profile(spec)
        else:
            assert _worst_invariant(solve_profile(spec)) <= 1e-9, (a, b)


def _meridian_by_dop853(a: float, b: float):
    """r_b and the dense (c1, c2) of the arc-length meridian system
    integrated from the equator to height b: an oracle that never calls
    the elliptic integral."""
    a2, a4 = a * a, a**4

    def rhs(_r, y):
        c1, c2 = y
        s = math.sqrt(c1 * c1 + a4 * c2 * c2)
        return [-a2 * c2 / s, c1 / s]

    def reach_height(_r, y):
        return y[1] - b

    reach_height.terminal = True
    reach_height.direction = 1.0
    sol = solve_ivp(
        rhs,
        (0.0, a + 2.0),
        [a, 0.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        dense_output=True,
        events=reach_height,
    )
    return float(sol.t_events[0][0]), sol.sol


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.5, 0.3), (2.0, 0.5), (3.0, 0.7), (12.0, 0.98)])
def test_profile_matches_the_integrated_meridian(a, b):
    curve = solve_profile(SurfaceSpec(a, b))
    r_b, sol = _meridian_by_dop853(a, b)
    assert abs(curve.r_b - r_b) <= 1e-10
    r = np.linspace(0.0, min(r_b, curve.r_b), 2001)
    c1, c2 = sol(r)
    dc1 = -a * a * c2 / np.sqrt(c1**2 + a**4 * c2**2)
    fr = curve.frame(r)
    for mine, ref in ((fr.c1, c1), (fr.c2, c2), (fr.dc1, dc1)):
        assert np.max(np.abs(mine - ref)) <= 1e-10


def test_profile_table_layout(band):
    table = profile_table(band, n=51)
    assert table.shape == (51, len(PROFILE_COLUMNS))
    assert table[0, 0] == 0.0
    assert math.isclose(table[-1, 0], band.r_b, rel_tol=1e-15)
    # epsilon column is the defect evaluated on the same radii
    eps = curvature_defect(band, table[:, 0])
    assert np.array_equal(table[:, 6], eps)
