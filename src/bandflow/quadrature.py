"""Adaptive composite Gauss-Legendre quadrature.

The integrands in this package are smooth apart from isolated derivative
kinks (plateau joins), so a high-order panel rule with bisection converges
very fast and gives a usable error estimate: each panel's contribution is
accepted once splitting it changes the value by less than its share of the
global budget.  Known kinks can be passed as breakpoints (`points`, as in
scipy.integrate.quad) so that no panel straddles one.

Refinement runs in rounds, and each round makes one integrand call:
round 0 evaluates every initial panel together with both of its halves,
and each later round evaluates the halves of all panels still pending.
Integrands therefore see one long node vector per round rather than one
short vector per panel.  A round of more than 2^16 nodes is evaluated in
slices of at most that many, so an integrand that never settles cannot
build arrays of unbounded size before the panel budget runs out.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureFailure

__all__ = ["IntegralResult", "adaptive_gauss_legendre"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_NODES_PER_CALL = 2**16


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _RULES:
        _RULES[n] = np.polynomial.legendre.leggauss(n)
    return _RULES[n]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    n_evals: int


def _panels(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, n: int
) -> np.ndarray:
    """Rule values on every panel [lo[i], hi[i]], f called on capped slices."""
    x, w = _rule(n)
    half = 0.5 * (hi - lo)
    nodes = (half[:, None] * x + (0.5 * (hi + lo))[:, None]).ravel()
    vals = np.concatenate(
        [
            np.asarray(f(nodes[i : i + _MAX_NODES_PER_CALL]), dtype=float)
            for i in range(0, nodes.size, _MAX_NODES_PER_CALL)
        ]
    )
    return half * (vals.reshape(len(lo), n) @ w)


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    nodes_per_panel: int = 64,
    initial_panels: int = 4,
    max_panels: int = 4096,
    points: Iterable[float] = (),
) -> IntegralResult:
    """Integrate a vectorized callable over [lo, hi].

    The initial panels split [lo, hi] evenly, and every breakpoint in
    `points` that lies strictly inside (lo, hi) becomes an extra panel
    edge; breakpoints elsewhere are ignored.  A panel is accepted when
    bisecting it moves its estimate by less than
    max(abs_tol, rel_tol * |global estimate|) scaled by the panel's width
    fraction.  Accepted panels are summed left to right so the result is
    independent of refinement order.
    """
    if hi <= lo:
        return IntegralResult(0.0, 0.0, 0)
    width = hi - lo
    inner = [float(p) for p in points if lo < p < hi]
    edges = np.unique(np.concatenate([np.linspace(lo, hi, initial_panels + 1), inner]))
    a, b = edges[:-1], edges[1:]
    k = len(a)
    mid = 0.5 * (a + b)
    lows, highs = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
    whole, left, right = np.split(_panels(f, lows, highs, nodes_per_panel), 3)
    n_evals = 3 * k * nodes_per_panel
    scale = abs(sum(whole.tolist()))

    accepted: list[tuple[float, float, float]] = []  # (lo, value, error)
    n_panels = k
    while True:
        refined = left + right
        err = np.abs(refined - whole)
        budget = max(abs_tol, rel_tol * scale) * ((b - a) / width)
        done = (err <= budget) | ((b - a) < 1e-14 * width)
        accepted += zip(a[done].tolist(), refined[done].tolist(), err[done].tolist())
        # refresh the scale with the best current information
        scale = max(scale, abs(sum(v for _, v, _ in accepted)))
        split = ~done
        k = int(np.count_nonzero(split))
        if k == 0:
            break
        n_panels += 2 * k
        if n_panels > max_panels:
            raise QuadratureFailure(
                f"adaptive quadrature exceeded {max_panels} panels on [{lo}, {hi}]"
            )
        # the halves of the split panels are the next round's panels
        a = np.concatenate([a[split], mid[split]])
        b = np.concatenate([mid[split], b[split]])
        whole = np.concatenate([left[split], right[split]])
        mid = 0.5 * (a + b)
        lows, highs = np.concatenate([a, mid]), np.concatenate([mid, b])
        left, right = np.split(_panels(f, lows, highs, nodes_per_panel), 2)
        n_evals += 4 * k * nodes_per_panel

    accepted.sort(key=lambda t: t[0])
    value = float(sum(v for _, v, _ in accepted))
    error = float(sum(e for _, _, e in accepted))
    return IntegralResult(value, error, n_evals)
