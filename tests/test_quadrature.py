"""Adaptive quadrature against closed-form integrals."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bandflow import PlateauProfile
from bandflow.errors import QuadratureFailure
from bandflow.quadrature import IntegralResult, adaptive_gauss_legendre, integrate_batch


def test_polynomial_is_exact():
    coeffs = np.arange(1.0, 22.0)

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    anti = np.polynomial.polynomial.polyint(coeffs)
    exact = np.polynomial.polynomial.polyval(3.0, anti) - np.polynomial.polynomial.polyval(-1.0, anti)
    res = adaptive_gauss_legendre(poly, -1.0, 3.0)
    assert math.isclose(res.value, exact, rel_tol=1e-13)


def test_sine_integral():
    res = adaptive_gauss_legendre(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert math.isclose(res.value, 2.0, rel_tol=1e-12)
    assert res.n_evals > 0


def test_empty_interval_returns_zero():
    res = adaptive_gauss_legendre(np.cos, 1.0, 1.0)
    assert res.value == 0.0
    assert res.error == 0.0


def test_reversed_interval_gives_the_negated_integral():
    ref, _ = quad(np.cos, 1.0, 0.0, epsabs=0.0, epsrel=1e-13)
    reversed_ = adaptive_gauss_legendre(np.cos, 1.0, 0.0)
    assert math.isclose(reversed_.value, ref, rel_tol=1e-12)
    forward = adaptive_gauss_legendre(np.cos, 0.0, 1.0)
    assert reversed_ == IntegralResult(-forward.value, forward.error, forward.n_evals)


def test_oscillatory_integral_meets_tolerance():
    exact = (1.0 - math.cos(70.0)) / 7.0
    res = adaptive_gauss_legendre(lambda x: np.sin(7.0 * x), 0.0, 10.0, rel_tol=1e-10)
    assert abs(res.value - exact) <= 1e-9 * abs(exact)
    assert res.error >= 0.0
    # the reported error honors the requested tolerance with modest slack
    assert res.error <= 2.0 * max(1e-12, 1e-10 * abs(res.value))


def test_result_is_frozen():
    res = IntegralResult(1.0, 0.0, 8)
    with pytest.raises(AttributeError):
        res.value = 2.0


def test_discontinuity_exhausts_panel_budget():
    jump = math.sqrt(2.0) / 2.0

    def step(x):
        return np.where(x < jump, 0.0, 1.0)

    with pytest.raises(QuadratureFailure):
        adaptive_gauss_legendre(step, 0.0, 1.0, rel_tol=1e-12, max_panels=8)


def test_one_integrand_call_per_refinement_round():
    calls = []

    def counting(x):
        calls.append(np.array(x))
        return np.sin(7.0 * x)

    n, k = 8, 2
    res = adaptive_gauss_legendre(
        counting, 0.0, 10.0, rel_tol=1e-10, nodes_per_panel=n, initial_panels=k
    )
    assert len(calls) >= 3
    assert sum(c.size for c in calls) == res.n_evals
    # round 0: every initial panel and both of its halves
    assert calls[0].size == 3 * k * n
    x = np.polynomial.legendre.leggauss(n)[0]
    for level, nodes in enumerate(calls[1:], start=2):
        # each later round holds the halves of one bisection level, nothing else
        assert nodes.size % (4 * n) == 0
        panels = nodes.reshape(-1, n)
        widths = 2.0 * (panels[:, -1] - panels[:, 0]) / (x[-1] - x[0])
        np.testing.assert_allclose(widths, 10.0 / (k * 2**level), rtol=1e-9)


def test_points_outside_the_interval_are_ignored():
    plain = adaptive_gauss_legendre(np.exp, -1.0, 2.0)
    ignored = adaptive_gauss_legendre(np.exp, -1.0, 2.0, points=(-5.0, -1.0, 2.0, 20.0))
    assert ignored == plain


def test_points_at_plateau_joins_save_evaluations():
    h = PlateauProfile(1.0, 0.3)

    def bump(x):
        return np.asarray(h.d1(x)) ** 2 * np.cos(3.0 * x) + np.asarray(h.value(x)) ** 2

    ref, _ = quad(bump, -1.2, 1.2, points=h.joins, epsabs=0.0, epsrel=1e-13, limit=200)
    split = adaptive_gauss_legendre(bump, -1.2, 1.2, rel_tol=1e-12, points=h.joins)
    blind = adaptive_gauss_legendre(bump, -1.2, 1.2, rel_tol=1e-12)
    # a few ulps of slack for the reference's own rounding
    assert abs(split.value - ref) <= split.error + 1e-14 * abs(ref)
    assert abs(blind.value - ref) <= blind.error + 1e-14 * abs(ref)
    assert split.n_evals < blind.n_evals


def test_a_round_is_evaluated_in_capped_slices():
    sizes = []

    def fast_sine(x):
        sizes.append(x.size)
        return np.sin(1e5 * x)

    res = adaptive_gauss_legendre(fast_sine, 0.0, 1.0, rel_tol=1e-12)
    assert math.isclose(res.value, (1.0 - math.cos(1e5)) / 1e5, rel_tol=1e-10)
    # the round of 2^17 nodes is split; no slice exceeds 2^16 nodes
    assert max(sizes) == 2**16
    assert sum(sizes) == res.n_evals


def _reference_integral(f, lo, hi, points, *, rel_tol, abs_tol, nodes_per_panel, initial_panels):
    """The adaptive rule for one integral as a plain loop over its panels:
    the arithmetic that the batched, array-held refinement must reproduce."""
    n = nodes_per_panel
    x, w = np.polynomial.legendre.leggauss(n)
    inner = [float(q) for q in points if lo < q < hi]
    edges = np.unique(np.concatenate([np.linspace(lo, hi, initial_panels + 1), inner]))
    a, b = edges[:-1], edges[1:]
    width = hi - lo
    whole, scale, accepted, n_evals = None, 0.0, [], 0
    while a.size:
        mid = 0.5 * (a + b)
        if whole is None:
            lo_r, hi_r = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        else:
            lo_r, hi_r = np.concatenate([a, mid]), np.concatenate([mid, b])
        half = 0.5 * (hi_r - lo_r)
        nodes = (half[:, None] * x + (0.5 * (hi_r + lo_r))[:, None]).ravel()
        vals = half * (f(nodes).reshape(half.size, n) @ w)
        n_evals += vals.size * n
        k = a.size
        if whole is None:
            whole, vals = vals[:k], vals[k:]
            scale = abs(sum(whole.tolist()))
        left, right = vals[:k], vals[k:]
        refined = left + right
        err = np.abs(refined - whole)
        budget = max(abs_tol, rel_tol * scale) * ((b - a) / width)
        done = (err <= budget) | ((b - a) < 1e-14 * width)
        accepted += zip(a[done].tolist(), refined[done].tolist(), err[done].tolist())
        scale = max(scale, abs(sum(v for _, v, _ in accepted)))
        split = ~done
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        whole = np.concatenate([left[split], right[split]])
    accepted.sort(key=lambda item: item[0])
    value = float(sum(v for _, v, _ in accepted))
    return IntegralResult(value, float(sum(e for _, _, e in accepted)), n_evals)


@pytest.mark.parametrize(
    "f, lo, hi, points",
    [
        (lambda x: np.sin(7.0 * x), 0.0, 10.0, ()),
        (lambda x: np.sin(60.0 * x) * np.exp(-x), -1.0, 4.0, (0.3, 2.0)),
        (lambda x: np.sqrt(np.abs(x - 0.4)), 0.0, 1.0, ()),
        # a peak the coarse rule misses: only the refreshed scale stops refinement
        (lambda x: 1e4 * np.exp(-(((x - 0.37) / 0.001) ** 2)), 0.0, 1.0, ()),
    ],
)
def test_lone_integral_matches_the_plain_panel_loop(f, lo, hi, points):
    options = {"rel_tol": 1e-12, "abs_tol": 1e-13, "nodes_per_panel": 16, "initial_panels": 2}
    got = adaptive_gauss_legendre(f, lo, hi, points=points, **options)
    assert got == _reference_integral(f, lo, hi, points, **options)
    assert got.n_evals > 3 * 2 * 16


def _many_integrals():
    """120 integrals whose refinement ends in different rounds: rates from
    0.5 to 60, some with breakpoints, some reversed, one empty."""
    rng = np.random.default_rng(11)
    rates = np.geomspace(0.5, 60.0, 120)
    intervals, points = [], []
    for i in range(120):
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
        intervals.append((hi, lo) if i % 7 == 3 else (lo, hi))
        points.append(tuple(rng.uniform(lo, hi, i % 3).tolist()))
    intervals[50] = (0.25, 0.25)
    return intervals, points, rates


def _assert_batch_equals_lone_calls(intervals, points, rates):
    calls = []

    def batched(x, owner):
        calls.append(np.array(owner))
        return np.sin(rates[owner] * x) + owner

    options = {"rel_tol": 1e-12, "abs_tol": 1e-12, "nodes_per_panel": 16, "initial_panels": 2}
    batch = integrate_batch(batched, intervals, points, **options)
    lone_rounds = []
    for i, ((lo, hi), breaks) in enumerate(zip(intervals, points)):
        rounds = []

        def lone(x, i=i, rounds=rounds):
            rounds.append(x.size)
            return np.sin(rates[i] * x) + i

        assert batch[i] == adaptive_gauss_legendre(lone, lo, hi, points=breaks, **options)
        lone_rounds.append(len(rounds))
        if lo == hi:
            assert batch[i] == IntegralResult(0.0, 0.0, 0)
    # one call per round, over the pending panels of every integral
    assert len(calls) == max(lone_rounds) > 1
    for i, count in enumerate(lone_rounds):
        assert sum(i in c for c in calls) == count
    return lone_rounds


def test_batch_integrals_equal_lone_integrals():
    _assert_batch_equals_lone_calls(
        [(0.0, 10.0), (1.0, 1.0), (-2.0, 3.0), (0.0, 10.0)],
        [(), (), (0.5, 2.5), (3.0,)],
        np.array([7.0, 1.0, 0.5, 2.0]),
    )
    lone_rounds = _assert_batch_equals_lone_calls(*_many_integrals())
    assert len(set(lone_rounds) - {0}) >= 3


def test_batch_fails_when_one_integral_exhausts_its_panels():
    jump = math.sqrt(2.0) / 2.0

    def mixed(x, owner):
        return np.where((owner == 1) & (x > jump), 1.0, np.cos(x))

    with pytest.raises(QuadratureFailure):
        integrate_batch(
            mixed,
            [(0.0, 1.0), (0.0, 1.0)],
            [(), ()],
            rel_tol=1e-12,
            abs_tol=1e-12,
            nodes_per_panel=8,
            initial_panels=1,
            max_panels=8,
        )
