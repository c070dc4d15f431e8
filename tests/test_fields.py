"""Velocity fields, stream functions, and the slope of the vorticity map.

The sphere gives closed forms for everything here: with f equal to the
distance-to-axis profile, the vorticity slope is -1/cos(r)^2, and the
divergence of the radial spray r d/dr is 1 - r tan(r).
"""
import math

import numpy as np
import pytest

from bandflow import (
    ConstantProfile,
    CurvePowerProfile,
    DivisionNearZero,
    GaussianProfile,
    HelmholtzProfile,
    PlateauProfile,
    PolynomialProfile,
    RadialProfile,
    SeparableField,
    StreamFunction,
    StreamPotentialField,
    VectorField,
    ZonalVelocityProfile,
    curvature_defect,
    divergence,
    fprime_from_f,
    fprime_from_psi,
    fprime_numerator,
    fprime_ratio,
    lambda1,
    zonal_from_f,
)


def test_laplacian_and_slope_numerator_differ_by_drift(band, rng):
    f = GaussianProfile(0.01, 2.5)
    r = rng.uniform(-0.9 * band.r_b, 0.9 * band.r_b, 30)
    weight = np.asarray(band.dc1(r)) / np.asarray(band.c1(r))
    drift = 2.0 * weight * np.asarray(f.d1(r))
    # Laplace-Beltrami of the radial function f: f'' + (dc1/c1) f'
    laplacian = np.asarray(f.d2(r)) + weight * np.asarray(f.d1(r))
    lhs = laplacian - np.asarray(fprime_numerator(f, band, r))
    assert np.allclose(lhs, drift, rtol=1e-12, atol=1e-14)


def test_slope_routes_agree(band, rng):
    lam = lambda1(band).value
    families = [
        CurvePowerProfile(band, 6.0, 1e-3),
        GaussianProfile(1e-2, math.log(10.0) / band.r_b**2),
        HelmholtzProfile(band, 0.85 * lam),
    ]
    r = rng.uniform(-0.98 * band.r_b, 0.98 * band.r_b, 20)
    for f in families:
        psi = StreamFunction(f, band)
        direct = np.asarray(fprime_from_f(f, band, r))
        chained = np.asarray(fprime_from_psi(psi, r))
        ratio = np.asarray(fprime_ratio(psi, r))
        scale = np.maximum(np.abs(direct), 1e-12)
        assert np.max(np.abs(direct - chained) / scale) <= 1e-6
        assert np.max(np.abs(chained - ratio) / scale) <= 1e-6


def test_sphere_slope_closed_form(sphere):
    # f = c1 makes the stream function the radius itself
    f = CurvePowerProfile(sphere, 1.0, 0.0)
    assert math.isclose(float(fprime_from_f(f, sphere, 0.0)), -1.0, rel_tol=1e-9)
    got = float(fprime_from_f(f, sphere, 0.2))
    assert math.isclose(got, -1.0 / math.cos(0.2) ** 2, rel_tol=1e-9)
    psi = StreamFunction(f, sphere)
    assert math.isclose(float(fprime_ratio(psi, 0.2)), got, rel_tol=1e-8)


def test_slope_rejects_vanishing_profile(band):
    f = GaussianProfile(0.0, 200.0)
    with pytest.raises(DivisionNearZero):
        fprime_from_f(f, band, np.array([0.0, band.r_b * 0.99]))


def test_stream_function_basics(band):
    f = CurvePowerProfile(band, 6.0, 1e-3)
    psi = StreamFunction(f, band)
    assert float(psi.value(0.0)) == 0.0
    r = np.array([0.1, 0.3, 0.5])
    slope = np.asarray(psi.d1(r))
    assert np.allclose(slope, np.asarray(f.value(r)) / np.asarray(band.c1(r)), rtol=1e-12)
    assert np.allclose(psi.value(-r), -np.asarray(psi.value(r)), rtol=1e-12)
    # spot value pinned against an independent quadrature of f / c1
    assert math.isclose(float(psi.value(0.4)), 0.17756698937922005, rel_tol=1e-9)


def test_zonal_velocity_profile_is_scaled_f(band, rng):
    f = GaussianProfile(1e-3, 3.0)
    big_f = ZonalVelocityProfile(f, band)
    r = rng.uniform(-band.r_b, band.r_b, 40)
    expected = -np.asarray(f.value(r)) / np.asarray(band.c1(r)) ** 2
    assert np.allclose(big_f.value(r), expected, rtol=1e-13)
    step = 2e-5
    fd = (np.asarray(big_f.value(r + step)) - np.asarray(big_f.value(r - step))) / (2 * step)
    inner = np.abs(r) < 0.9 * band.r_b
    assert np.max(np.abs((fd - np.asarray(big_f.d1(r)))[inner])) <= 1e-5


def test_zonal_field_is_divergence_free(band, rng):
    field = zonal_from_f(CurvePowerProfile(band, 6.0, 1e-3), band)
    r = rng.uniform(-band.r_b, band.r_b, 8)
    theta = rng.uniform(-math.pi, math.pi, 5)
    div = divergence(field, r[:, None], theta[None, :])
    assert np.max(np.abs(div)) == 0.0
    assert np.all(np.asarray(field.u1(r[:, None], theta[None, :])) == 0.0)
    assert field.is_boundary_tangent()


class _CountedStream(StreamPotentialField):
    """A stream field that counts its radial() evaluations."""

    calls = 0

    def radial(self, r):
        self.calls += 1
        return super().radial(r)


def _tangent_stream(r_b):
    # (r_b^2 - r^2)^2: vanishes at both boundary circles
    return PolynomialProfile((r_b**4, 0.0, -2.0 * r_b**2, 0.0, 1.0))


def test_separable_memo_is_keyed_on_the_radii(band):
    field = _CountedStream(band, _tangent_stream(band.r_b), harmonic=2, phase=0.3)
    fresh = StreamPotentialField(band, _tangent_stream(band.r_b), harmonic=2, phase=0.3)
    theta = np.linspace(-3.0, 3.0, 7)[None, :]
    r = np.linspace(-0.9, 0.9, 5)[:, None] * band.r_b

    def check(radii, calls):
        for name in ("u1", "u2", "du1_dr", "du1_dtheta", "du2_dtheta"):
            assert np.array_equal(getattr(field, name)(radii, theta), getattr(fresh, name)(radii, theta))
        assert field.calls == calls

    check(r, 1)
    # a new array with the same radii is served from the memo
    check(r.copy(), 1)
    # a new array with other radii misses it, and so does one refilled in place
    other = 0.5 * r
    check(other, 2)
    other += 0.01
    check(other, 3)
    check(r[:3], 4)


def test_separable_memo_shared_across_threads(band):
    import sys
    import threading

    field = StreamPotentialField(band, _tangent_stream(band.r_b), harmonic=3)
    theta = np.linspace(-3.0, 3.0, 16)[None, :]
    grids = [np.linspace(-0.9, 0.9, 8)[:, None] * band.r_b * s for s in (1.0, 0.7, 0.4, 0.1)]
    want = [(field.u1(r, theta).copy(), field.du1_dr(r, theta).copy()) for r in grids]
    wrong = []

    def worker(k):
        for _ in range(300):
            r = grids[k]
            if not (
                np.array_equal(field.u1(r, theta), want[k][0])
                and np.array_equal(field.du1_dr(r, theta), want[k][1])
            ):
                wrong.append(k)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


class _RadialSpray(VectorField):
    """u = r d/dr, angular component zero, with its exact derivatives."""

    def u1(self, r, theta):
        return np.asarray(r, dtype=float) + self._zero(r, theta)

    def du1_dr(self, r, theta):
        return 1.0 + self._zero(r, theta)

    def _zero(self, r, theta):
        return np.zeros(np.broadcast_shapes(np.shape(r), np.shape(theta)))

    u2 = du1_dtheta = d2u1_dtheta2 = du2_dtheta = d2u2_dtheta2 = _zero


def test_divergence_of_radial_spray_on_sphere(sphere):
    field = _RadialSpray(sphere)
    r = np.array([0.15, 0.3, 0.45])
    theta = np.array([0.0, 2.0])
    div = divergence(field, r[:, None], theta[None, :])
    expected = 1.0 - r * np.tan(r)
    assert np.max(np.abs(div - expected[:, None])) <= 1e-8
    assert not field.is_boundary_tangent()


class _UnitEdge(SeparableField):
    """u1 = sin(m theta + phase) everywhere, so on both boundary circles."""

    def radial(self, r):
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)


@pytest.mark.parametrize(
    "harmonic, phase, tangent",
    [(31, 0.0, False), (32, 0.0, False), (64, 0.0, False), (0, 0.5, False), (0, 0.0, True)],
)
def test_separable_tangency_is_decided_at_every_angle(band, harmonic, phase, tangent):
    # harmonics 32 and 64 vanish on all 64 equally spaced angles
    field = _UnitEdge(band, harmonic=harmonic, phase=phase)
    assert field.is_boundary_tangent() is tangent


class _ArrayOnly(RadialProfile):
    """Written for arrays only; the base class must supply scalar support."""

    def value(self, r):
        return np.full(r.shape, 2.0)

    d1 = d2 = d3 = value

    def describe(self):
        return {"family": "array-only"}


def _radial_evaluators(curve):
    lam = lambda1(curve).value
    f = CurvePowerProfile(curve, 6.0, 1e-3)
    psi = StreamFunction(f, curve)
    plateau = PlateauProfile(curve.r_b, 0.3)
    profiles = {
        "constant": ConstantProfile(1.5),
        "polynomial": PolynomialProfile([1.0, 0.5, -2.0, 0.25]),
        "gaussian": GaussianProfile(1e-2, 3.0),
        "power": f,
        "plateau": plateau,
        "helmholtz": HelmholtzProfile(curve, 0.85 * lam),
        "sum": plateau + f,
        "product": 3.0 * plateau,
        "stream": psi,
        "zonal-velocity": ZonalVelocityProfile(f, curve),
        "array-only": _ArrayOnly(),
    }
    out = {}
    for name, profile in profiles.items():
        for method in ("value", "d1", "d2", "d3"):
            out[f"{name}.{method}"] = getattr(profile, method)
    for name in ("c1", "c2", "dc1", "dc2", "ddc1", "ddc2", "dddc1", "dlog_c1"):
        out[f"curve.{name}"] = getattr(curve, name)
    out["fprime_numerator"] = lambda r: fprime_numerator(f, curve, r)
    out["fprime_from_f"] = lambda r: fprime_from_f(f, curve, r)
    out["fprime_from_psi"] = lambda r: fprime_from_psi(psi, r)
    out["fprime_ratio"] = lambda r: fprime_ratio(psi, r)
    out["curvature_defect"] = lambda r: curvature_defect(curve, r)
    return out


def test_scalar_and_array_convention(band):
    radii = np.array([-0.8, -0.35, 0.2, 0.6]) * band.r_b
    for name, evaluate in _radial_evaluators(band).items():
        row = evaluate(radii)
        assert row.shape == radii.shape, name
        for k, radius in enumerate(radii):
            got = evaluate(float(radius))
            assert type(got) is float, name
            assert got == row[k], name
        column = evaluate(radii[:, None])
        assert column.shape == (radii.size, 1), name
        assert np.array_equal(column[:, 0], row), name
    assert _ArrayOnly().value(0.3) == 2.0
