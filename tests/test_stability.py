"""Eigenvalue solver and the stability verdict logic."""
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from bandflow import (
    ConstantProfile,
    CurvePowerProfile,
    HelmholtzProfile,
    SurfaceSpec,
    check_arnold,
    lambda1,
    lambda1_mode,
    profile_conditions,
    solve_profile,
)
from bandflow.errors import ConvergenceFailure
from bandflow.stability import _pencil_smallest

# high-resolution reference values (n = 8192, Richardson), frozen
LAMBDA1_SPHERE_HALF = 8.490488177921101
LAMBDA1_A2_HALF = 6.779857910327131


def test_lambda1_reference_values(sphere, band):
    assert math.isclose(lambda1(sphere).value, LAMBDA1_SPHERE_HALF, rel_tol=1e-5)
    assert math.isclose(lambda1(band).value, LAMBDA1_A2_HALF, rel_tol=1e-5)


def test_mode_estimates_converge(band):
    est = lambda1_mode(band, 0, n=2048)
    assert abs(est.fine - est.coarse) / est.richardson < 1e-4
    assert est.error_bar < 1e-4 * est.richardson
    finer = lambda1_mode(band, 0, n=4096)
    assert math.isclose(est.richardson, finer.richardson, rel_tol=1e-6)


def test_eigenvalue_monotone_in_mode(band):
    values = [lambda1_mode(band, m).richardson for m in range(4)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_eigenvalue_decreases_with_band_height():
    values = []
    for b in (0.3, 0.5, 0.7):
        curve = solve_profile(SurfaceSpec(2.0, b))
        values.append(lambda1(curve).value)
    assert values[0] > values[1] > values[2]


def test_thin_band_limit():
    curve = solve_profile(SurfaceSpec(2.0, 0.05))
    flat = (math.pi / (2.0 * curve.r_b)) ** 2
    assert abs(lambda1(curve).value - flat) <= 0.05 * flat


def test_negative_branch_verdict(band):
    lam = lambda1(band)
    rate = 0.85 * lam.value
    report = check_arnold(HelmholtzProfile(band, rate), band, lambda_result=lam)
    assert report.verdict == "negative-branch"
    assert report.margin > 0
    # the slope family pins the vorticity slope to a constant
    assert math.isclose(report.fprime_min, -rate, rel_tol=1e-6)
    assert math.isclose(report.fprime_max, -rate, rel_tol=1e-6)


def test_positive_branch_verdict(band):
    lam = lambda1(band)
    report = check_arnold(HelmholtzProfile(band, -1.0), band, lambda_result=lam)
    assert report.verdict == "positive-branch"
    assert math.isclose(report.fprime_min, 1.0, rel_tol=1e-6)
    assert report.margin > 0


def test_constant_profile_is_undetermined(band):
    report = check_arnold(ConstantProfile(1.0), band)
    assert report.verdict == "undetermined"


def test_safety_margin_tightens_the_floor(band):
    lam = lambda1(band)
    f = HelmholtzProfile(band, 0.85 * lam.value)
    assert check_arnold(f, band, lambda_result=lam, safety=0.05).verdict == "negative-branch"
    assert check_arnold(f, band, lambda_result=lam, safety=0.5).verdict == "undetermined"


def test_verdict_invariant_under_profile_scaling(band):
    lam = lambda1(band)
    f = HelmholtzProfile(band, 0.7 * lam.value)
    base = check_arnold(f, band, lambda_result=lam)
    scaled = check_arnold(2.7 * f, band, lambda_result=lam)
    assert scaled.verdict == base.verdict
    assert math.isclose(scaled.fprime_min, base.fprime_min, rel_tol=1e-9)
    assert math.isclose(scaled.fprime_max, base.fprime_max, rel_tol=1e-9)


def test_profile_conditions_for_sharp_power(band):
    f = CurvePowerProfile(band, 16.0, 1e-3)
    cond = profile_conditions(f, band)
    # the boundary value lands one percent above the 0.1 cutoff
    assert cond.as_tuple() == (True, True, True, False, True)
    assert not cond.all_hold
    relaxed = profile_conditions(f, band, rho=0.102)
    assert relaxed.small_at_boundary


def test_eigen_solver_validation(band):
    with pytest.raises(ValueError):
        lambda1_mode(band, -1)
    with pytest.raises(ValueError):
        lambda1_mode(band, 0, n=8)


def _smallest_of_dense_pencil(curve, m, n):
    # -(c1 phi')' + (m^2/c1) phi = lambda c1 phi on n intervals, as a
    # dense generalized problem K phi = lambda M phi over interior nodes
    nodes = np.linspace(-curve.r_b, curve.r_b, n + 1)
    h = nodes[1] - nodes[0]
    c_mid = np.asarray(curve.c1(0.5 * (nodes[:-1] + nodes[1:])))
    c_int = np.asarray(curve.c1(nodes[1:-1]))
    stiffness = (
        np.diag((c_mid[:-1] + c_mid[1:]) / h**2 + m * m / c_int)
        - np.diag(c_mid[1:-1] / h**2, 1)
        - np.diag(c_mid[1:-1] / h**2, -1)
    )
    return float(eigh(stiffness, np.diag(c_int), eigvals_only=True)[0])


@pytest.mark.parametrize("m", [0, 1, 5])
def test_eigenvalue_only_solve_matches_a_dense_pencil(band, m):
    est = lambda1_mode(band, m, n=64)
    assert math.isclose(est.coarse, _smallest_of_dense_pencil(band, m, 64), rel_tol=1e-10)
    assert math.isclose(est.fine, _smallest_of_dense_pencil(band, m, 128), rel_tol=1e-10)


@pytest.mark.parametrize("a, b", [(3.0, 1e-7), (1.0, 1e-7), (12.0, 1e-5)])
def test_thin_band_mode_scan_settles(a, b):
    # neighbouring modes differ by m^2/c1^2 against lambda ~ 1/b^2: a few ulps
    curve = solve_profile(SurfaceSpec(a, b))
    result = lambda1(curve)
    flat = math.pi**2 / (4.0 * curve.r_b**2)
    assert len(result.modes) <= 3
    assert math.isclose(result.value, flat, rel_tol=1e-6)


def test_indefinite_pencil_is_a_convergence_failure():
    n = 16
    with pytest.raises(ConvergenceFailure, match="not positive definite"):
        _pencil_smallest(np.zeros(n), np.zeros(n - 1), np.ones(n - 1), 1.0 / n)


def test_unsettled_pencil_iteration_is_a_convergence_failure(band, monkeypatch):
    # one inverse-iteration step gives one quotient, never two that agree
    monkeypatch.setattr("bandflow.stability._PENCIL_MAX_STEPS", 1)
    with pytest.raises(ConvergenceFailure, match="did not settle"):
        lambda1_mode(band, 0, n=64)
