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
integrand is told which integral each node belongs to.  The pending panels
of all integrals live in flat arrays, grouped integral by integral, so a
round's node layout, acceptance test and bisection take a fixed number of
numpy calls however many integrals are pending.  What decides the bits
stays per integral: each integral's rule sums are one (panels, n) product
of their own, and its error scale and result are left-to-right Python
sums, so every integral of a batch comes out exactly as it would alone.
`adaptive_gauss_legendre` is a batch of one.  An interval given with its
ends reversed integrates to the negated value, as in scipy's quad.
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


def _layout(first: np.ndarray, count: np.ndarray, slot: np.ndarray, parts: int) -> list:
    """Where each panel's parts go when a round is laid out integral by integral.

    Panel t belongs to the integral in slot[t], whose panels start at
    first[slot] and number count[slot].  Each integral's block holds its
    panels' part 0, then their part 1, and so on, each in panel order;
    element q of the result holds the position of part q of every panel.
    """
    base = (parts - 1) * first[slot] + np.arange(slot.size)
    step = count[slot]
    return [base + q * step for q in range(parts)]


def _interleave(parts: Sequence[np.ndarray], where: list) -> np.ndarray:
    """One array holding parts[q] at the positions where[q]."""
    out = np.empty(len(parts) * parts[0].size)
    for part, at in zip(parts, where):
        out[at] = part
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
    only shares the integrand calls.  An interval (lo, hi) with hi < lo
    gives the negated integral over (hi, lo).  The first integral to
    exceed the panel budget raises QuadratureFailure for the whole batch.
    """
    n = nodes_per_panel
    x, w = _rule(n)
    results = [IntegralResult(0.0, 0.0, 0)] * len(intervals)
    # the integrals to refine, one slot each: index, ascending ends, sign
    index, ends, signs, breaks = [], [], [], []
    for i, ((lo, hi), inside) in enumerate(zip(intervals, points, strict=True)):
        if lo != hi:
            index.append(i)
            ends.append((hi, lo) if hi < lo else (lo, hi))
            signs.append(-1.0 if hi < lo else 1.0)
            breaks.append(inside)
    if not index:
        return results
    slots = len(index)
    lo_s, hi_s = np.array(ends, dtype=float).T
    width = hi_s - lo_s
    # the pending panels of every integral as flat arrays, slot by slot
    a_list, b_list, count = [], [], []
    grid = np.linspace(lo_s, hi_s, initial_panels + 1, axis=1).tolist()
    for row, (lo, hi), inside in zip(grid, ends, breaks):
        edges = sorted({*row, *(float(q) for q in inside if lo < q < hi)})
        a_list += edges[:-1]
        b_list += edges[1:]
        count.append(len(edges) - 1)
    a, b = np.array(a_list), np.array(b_list)
    count = np.array(count)
    slot = np.repeat(np.arange(slots), count)
    owner_of = np.array(index)
    n_panels = count.copy()
    evaluated = np.zeros_like(count)  # panels evaluated by the rule
    whole = None
    scale = [0.0] * slots
    total = [0] * slots  # left-to-right sum of the accepted values
    accepted = []  # per round: (slot, lo, value, error) of its accepted panels
    while slot.size:
        mid = 0.5 * (a + b)
        # round 0 evaluates each panel and both halves, later rounds the halves
        lo_parts, hi_parts = ((a, a, mid), (b, mid, b)) if whole is None else ((a, mid), (mid, b))
        p = len(lo_parts)
        first = np.cumsum(count) - count
        where = _layout(first, count, slot, p)
        lo_r, hi_r = _interleave(lo_parts, where), _interleave(hi_parts, where)
        half = 0.5 * (hi_r - lo_r)
        nodes = (half[:, None] * x + (0.5 * (hi_r + lo_r))[:, None]).ravel()
        owner = np.repeat(owner_of, p * count * n)
        vals = np.concatenate(
            [
                np.asarray(
                    f(nodes[i : i + _MAX_NODES_PER_CALL], owner[i : i + _MAX_NODES_PER_CALL]),
                    dtype=float,
                )
                for i in range(0, nodes.size, _MAX_NODES_PER_CALL)
            ]
        ).reshape(-1, n)
        # each integral's rows are summed in their own (rows, n) block: one
        # product over the stacked blocks of a batch rounds differently in
        # the last bit
        sums = np.empty(half.size)
        first_l, count_l = first.tolist(), count.tolist()
        live = np.flatnonzero(count).tolist()
        for j in live:
            s, e = p * first_l[j], p * (first_l[j] + count_l[j])
            sums[s:e] = vals[s:e] @ w
        sums = half * sums
        evaluated += p * count
        got = [sums[at] for at in where]
        if whole is None:
            whole = got[0]
            whole_l = whole.tolist()
            for j in live:
                scale[j] = abs(sum(whole_l[first_l[j] : first_l[j] + count_l[j]]))
        left, right = got[-2:]
        refined = left + right
        err = np.abs(refined - whole)
        budget = np.array([max(abs_tol, rel_tol * s) for s in scale])[slot]
        span = b - a
        done = (err <= budget * (span / width[slot])) | (span < 1e-14 * width[slot])
        kept = refined[done]
        accepted.append((slot[done], a[done], kept, err[done]))
        # refresh the scale with the best current information
        new = np.bincount(slot[done], minlength=slots).tolist()
        kept_l = kept.tolist()
        s = 0
        for j, k in enumerate(new):
            if k:
                total[j] = sum(kept_l[s : s + k], total[j])
                scale[j] = max(scale[j], abs(total[j]))
                s += k
        split = ~done
        cut = np.bincount(slot[split], minlength=slots)
        n_panels += 2 * cut
        over = np.flatnonzero((n_panels > max_panels) & (cut > 0))
        if over.size:
            lo, hi = ends[over[0]]
            raise QuadratureFailure(
                f"adaptive quadrature exceeded {max_panels} panels on [{lo}, {hi}]"
            )
        # the halves of the split panels, left ones first, are the next
        # round's panels
        slot = slot[split]
        where = _layout(np.cumsum(cut) - cut, cut, slot, 2)
        a = _interleave((a[split], mid[split]), where)
        b = _interleave((mid[split], b[split]), where)
        whole = _interleave((left[split], right[split]), where)
        count = 2 * cut
        slot = np.repeat(np.arange(slots), count)
    # each integral's accepted panels, summed left to right
    slot, lo, value, error = (np.concatenate(c) for c in zip(*accepted))
    order = np.lexsort((lo, slot))
    value, error = value[order].tolist(), error[order].tolist()
    stop = np.cumsum(np.bincount(slot, minlength=slots)).tolist()
    for j, (i, sign, s, e) in enumerate(zip(index, signs, [0, *stop], stop)):
        result = float(sum(value[s:e]))
        results[i] = IntegralResult(sign * result, float(sum(error[s:e])), int(evaluated[j]) * n)
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

    hi < lo gives the negated integral over [hi, lo], and hi == lo gives 0.
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
