"""Adaptive composite Gauss-Legendre quadrature, for one integral or a batch.

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

`integrate_batch` runs many integrals in the same rounds: each round is
one integrand call over the pending panels of every integral, and the
integrand is told which integral each node belongs to.  Acceptance, the
error scale and the left-to-right sum stay per integral, so every integral
of a batch comes out exactly as it would alone.  `adaptive_gauss_legendre`
is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import QuadratureFailure

__all__ = ["IntegralResult", "adaptive_gauss_legendre", "integrate_batch"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_NODES_PER_CALL = 2**16
_MAX_PANELS = 4096


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _RULES:
        _RULES[n] = np.polynomial.legendre.leggauss(n)
    return _RULES[n]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    n_evals: int


class _Integral:
    """Refinement state of one integral: its pending panels and accepted sum."""

    def __init__(self, index: int, lo: float, hi: float, edges: np.ndarray):
        self.index, self.lo, self.hi = index, lo, hi
        self.width = hi - lo
        self.a, self.b = edges[:-1], edges[1:]
        self.mid = 0.5 * (self.a + self.b)
        self.whole: np.ndarray | None = None
        self.scale = 0.0
        self.accepted: list[tuple[float, float, float]] = []  # (lo, value, error)
        self.n_panels = len(self.a)
        self.n_evals = 0

    def round_panels(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper edges of the panels this round evaluates."""
        a, b, mid = self.a, self.b, self.mid
        if self.whole is None:
            return np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        return np.concatenate([a, mid]), np.concatenate([mid, b])

    def refine(
        self, values: np.ndarray, n: int, rel_tol: float, abs_tol: float, max_panels: int
    ) -> bool:
        """Accept the converged panels of a round; False once none are left."""
        a, b = self.a, self.b
        k = len(a)
        if self.whole is None:
            self.whole, left, right = values[:k], values[k : 2 * k], values[2 * k :]
            self.n_evals = 3 * k * n
            self.scale = abs(sum(self.whole.tolist()))
        else:
            left, right = values[:k], values[k:]
            self.n_evals += 2 * k * n
        refined = left + right
        err = np.abs(refined - self.whole)
        budget = max(abs_tol, rel_tol * self.scale) * ((b - a) / self.width)
        done = (err <= budget) | ((b - a) < 1e-14 * self.width)
        self.accepted += zip(a[done].tolist(), refined[done].tolist(), err[done].tolist())
        # refresh the scale with the best current information
        self.scale = max(self.scale, abs(sum(v for _, v, _ in self.accepted)))
        split = ~done
        k = int(np.count_nonzero(split))
        if k == 0:
            return False
        self.n_panels += 2 * k
        if self.n_panels > max_panels:
            raise QuadratureFailure(
                f"adaptive quadrature exceeded {max_panels} panels on [{self.lo}, {self.hi}]"
            )
        # the halves of the split panels are the next round's panels
        self.a = np.concatenate([a[split], self.mid[split]])
        self.b = np.concatenate([self.mid[split], b[split]])
        self.whole = np.concatenate([left[split], right[split]])
        self.mid = 0.5 * (self.a + self.b)
        return True

    def result(self) -> IntegralResult:
        self.accepted.sort(key=lambda t: t[0])
        value = float(sum(v for _, v, _ in self.accepted))
        error = float(sum(e for _, _, e in self.accepted))
        return IntegralResult(value, error, self.n_evals)


def _panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    integrals: list[_Integral],
    n: int,
) -> list[np.ndarray]:
    """Rule values on every integral's round panels, f called on capped slices.

    Each integral's values are summed in its own (panels, n) block: one
    product over the stacked blocks of a batch rounds differently in the
    last bit.
    """
    x, w = _rule(n)
    edges = [s.round_panels() for s in integrals]
    halves = [0.5 * (hi - lo) for lo, hi in edges]
    nodes = np.concatenate(
        [
            (half[:, None] * x + (0.5 * (hi + lo))[:, None]).ravel()
            for half, (lo, hi) in zip(halves, edges)
        ]
    )
    owner = np.repeat([s.index for s in integrals], [half.size * n for half in halves])
    vals = np.concatenate(
        [
            np.asarray(
                f(nodes[i : i + _MAX_NODES_PER_CALL], owner[i : i + _MAX_NODES_PER_CALL]),
                dtype=float,
            )
            for i in range(0, nodes.size, _MAX_NODES_PER_CALL)
        ]
    )
    out = []
    start = 0
    for half in halves:
        stop = start + half.size * n
        out.append(half * (vals[start:stop].reshape(half.size, n) @ w))
        start = stop
    return out


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    intervals: Sequence[tuple[float, float]],
    points: Sequence[Iterable[float]],
    *,
    rel_tol: float,
    abs_tol: float,
    nodes_per_panel: int,
    initial_panels: int,
    max_panels: int = _MAX_PANELS,
) -> list[IntegralResult]:
    """Integrate one vectorized integrand over each interval of a batch.

    f(x, owner) gets the nodes of a round and, for each node, the index
    in `intervals` of the integral it belongs to.  `points[i]` are the
    breakpoints of integral i.  Each integral is refined, accepted and
    summed exactly as `adaptive_gauss_legendre` does it alone; the batch
    only shares the integrand calls.  The first integral to exceed the
    panel budget raises QuadratureFailure for the whole batch.
    """
    results = [IntegralResult(0.0, 0.0, 0)] * len(intervals)
    pending = []
    for index, ((lo, hi), breaks) in enumerate(zip(intervals, points, strict=True)):
        if hi <= lo:
            continue
        inner = [float(p) for p in breaks if lo < p < hi]
        edges = np.unique(np.concatenate([np.linspace(lo, hi, initial_panels + 1), inner]))
        pending.append(_Integral(index, lo, hi, edges))
    while pending:
        values = _panels(f, pending, nodes_per_panel)
        still = []
        for integral, vals in zip(pending, values):
            if integral.refine(vals, nodes_per_panel, rel_tol, abs_tol, max_panels):
                still.append(integral)
            else:
                results[integral.index] = integral.result()
        pending = still
    return results


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    nodes_per_panel: int = 64,
    initial_panels: int = 4,
    max_panels: int = _MAX_PANELS,
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
    (result,) = integrate_batch(
        lambda x, _owner: f(x),
        [(lo, hi)],
        [points],
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        nodes_per_panel=nodes_per_panel,
        initial_panels=initial_panels,
        max_panels=max_panels,
    )
    return result
