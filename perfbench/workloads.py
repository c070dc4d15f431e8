"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``make_inputs(workload, seed)`` draws
the inputs of one pass from the seed alone; the operations then hand only
those generated values to bandflow.  Draws are stratified (one draw per
equal slice of each range, in shuffled order) so that a pass covers its
input box evenly and two seeds give passes of similar total cost.

Checks are plain functions of the computed values, so the tests can feed
them deliberately wrong values.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bandflow
from bandflow import (
    BandflowError,
    CurvePowerProfile,
    GaussianProfile,
    HelmholtzProfile,
    PlateauProfile,
    PolynomialProfile,
    SurfaceSpec,
    ZonalVelocityProfile,
    arc_length_from_height,
    bump_field,
    check_arnold,
    field_from_stream,
    lambda1,
    mc_bump_formula,
    mc_direct,
    mc_reduced,
    optimal_bump_ratio,
    profile_conditions,
    solve_profile,
    zonal_from_f,
)
from bandflow import cli
from bandflow.witness import SWEEP_COLUMNS

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "sweep_reference.json"

WORKLOADS = ("sweep", "routes", "surfaces")

# sweep: one a from each half of [1.5, 3] and one b from each half of
# [0.3, 0.7].  The values sit on the grid that sweep_reference.json was
# recorded on, so every cell a seed can draw has a reference row.
SWEEP_A = ((1.5, 1.65, 1.8, 1.95, 2.1), (2.4, 2.55, 2.7, 2.85, 3.0))
SWEEP_B = ((0.3, 0.35, 0.4, 0.45), (0.55, 0.6, 0.65, 0.7))

# one Latin square of family by stream harmonic
ROUTES_OPS = 9
ROUTE_FAMILIES = ("power", "gaussian", "helmholtz")
SURFACES_OPS = 120
# one op in ten probes an input that validation accepts but the solver is
# known not to handle; the same number of each kind in every pass
SURFACE_EDGES = ("pole", "oblate", "thin")

INVARIANT_TOL = 1e-8


def agree(x: float, y: float) -> bool:
    """The rule of the witness search and of criterion 4."""
    return abs(x - y) <= max(1e-8, 1e-5 * max(abs(x), abs(y)))


# ---------------------------------------------------------------- inputs


def _stratified(rng: random.Random, n: int, lo: float, hi: float, log=False):
    """n draws, one in each of n equal slices of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    values = [lo + (k + rng.random()) * width for k in range(n)]
    keys = [rng.random() for _ in range(n)]
    values = [v for _, v in sorted(zip(keys, values))]
    return [math.exp(v) for v in values] if log else values


def _pick(rng: random.Random, choices):
    return choices[min(int(rng.random() * len(choices)), len(choices) - 1)]


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def sweep_inputs(rng: random.Random) -> dict:
    return {
        "a": [_pick(rng, half) for half in SWEEP_A],
        "b": [_pick(rng, half) for half in SWEEP_B],
    }


def routes_inputs(rng: random.Random, n: int = ROUTES_OPS) -> list[dict]:
    a_vals = _stratified(rng, n, 1.5, 3.0)
    b_vals = _stratified(rng, n, 0.3, 0.7)
    w_vals = _stratified(rng, n, 0.2, 0.6)
    ops = []
    for k in range(n):
        family = ROUTE_FAMILIES[k % len(ROUTE_FAMILIES)]
        if family == "power":
            params = {"p": _uniform(rng, 4.0, 16.0), "delta": _pick(rng, (1e-3, 1e-2))}
        elif family == "gaussian":
            params = {
                "edge_decay": _uniform(rng, 0.05, 0.3),
                "delta": _pick(rng, (1e-3, 1e-2)),
            }
        else:
            params = {"fraction": _uniform(rng, 0.5, 0.94)}
        ops.append(
            {
                "a": a_vals[k],
                "b": b_vals[k],
                "family": family,
                "params": params,
                "w": w_vals[k],
                "stream": {
                    "coefficients": [_uniform(rng, 0.3, 1.5) for _ in range(3)],
                    # with the family, a Latin square over each nine ops
                    "harmonic": 1 + (k // len(ROUTE_FAMILIES)) % 3,
                    "phase": _uniform(rng, 0.0, 2.0 * math.pi),
                },
            }
        )
    return ops


def _edge_surface(rng: random.Random, kind: str, u: float) -> tuple[float, float]:
    """An edge input of the given kind; u in [0, 1) places it along the
    kind's range (b toward the pole, a toward oblate, b toward thin)."""
    if kind == "pole":
        return 1.0, 0.99 + u * (0.9999 - 0.99)
    if kind == "oblate":
        return 10.0 ** (2.0 + u), _uniform(rng, 0.02, 0.98)
    return 12.0 ** rng.random(), 10.0 ** (-3.0 - 4.0 * u)


def surfaces_inputs(rng: random.Random, n: int = SURFACES_OPS) -> list[dict]:
    n_edge = n // 10
    n_main = n - n_edge
    a_vals = _stratified(rng, n_main, 1.0, 12.0, log=True)
    b_vals = _stratified(rng, n_main, 0.02, 0.98)
    ops = [{"a": a, "b": b, "edge": None} for a, b in zip(a_vals, b_vals)]
    per_kind = n_edge // len(SURFACE_EDGES)
    for k in range(n_edge):
        kind = SURFACE_EDGES[k % len(SURFACE_EDGES)]
        slot = k // len(SURFACE_EDGES)
        a, b = _edge_surface(rng, kind, (slot + rng.random()) / per_kind)
        # spread the edge ops evenly through the pass
        ops.insert((k + 1) * 10 - 1, {"a": a, "b": b, "edge": kind})
    for op in ops:
        op["p"] = _uniform(rng, 3.0, 24.0)
        op["edge_decay"] = _uniform(rng, 0.05, 0.3)
        op["delta"] = _pick(rng, (1e-3, 1e-2))
    return ops


def make_inputs(workload: str, seed: int):
    """The inputs of one pass; the same (workload, seed) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return sweep_inputs(rng)
    if workload == "routes":
        return routes_inputs(rng)
    if workload == "surfaces":
        return surfaces_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def check_routes(triple, pair) -> list[str]:
    """Criterion 4: three routes on the bump, two on the stream field."""
    if not all(math.isfinite(v) for v in (*triple, *pair)):
        return [f"non-finite curvature {triple} {pair}"]
    problems = []
    if not agree(min(triple), max(triple)):
        problems.append(f"bump routes disagree: {triple}")
    if not agree(*pair):
        problems.append(f"stream routes disagree: {pair}")
    return problems


def surface_invariants(curve, a: float, b: float, n: int = 400) -> dict:
    """Worst deviations of the criterion-1 invariants of a solved profile."""
    r = np.linspace(-curve.r_b, curve.r_b, n)
    return {
        "unit_speed": float(np.max(np.abs(curve.dc1(r) ** 2 + curve.dc2(r) ** 2 - 1.0))),
        "on_ellipse": float(
            np.max(np.abs(curve.c1(r) ** 2 - a * a * (1.0 - curve.c2(r) ** 2)))
        ),
        "endpoint": abs(float(curve.c2(curve.r_b)) - b),
        "arc_length": abs(curve.r_b - arc_length_from_height(a, b)),
    }


def check_surface(invariants: dict, lambda1_error_bar: float) -> list[str]:
    problems = [
        f"{name} deviates by {value:.3e}"
        for name, value in invariants.items()
        if not value <= INVARIANT_TOL
    ]
    if not math.isfinite(lambda1_error_bar):
        problems.append(f"lambda1 error bar {lambda1_error_bar} is not finite")
    return problems


_FINITE_COLUMNS = ("fprime_min", "fprime_max", "lambda1", "mc_value", "mc_error", "w")


def parse_sweep_csv(text: str) -> list[dict]:
    """Data rows of a sweep CSV, header checked against SWEEP_COLUMNS."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader, None)
    if tuple(header or ()) != SWEEP_COLUMNS:
        raise ValueError(f"sweep CSV header {header} is not {SWEEP_COLUMNS}")
    rows = []
    for cells in reader:
        if len(cells) != len(SWEEP_COLUMNS):
            raise ValueError(f"sweep CSV row has {len(cells)} cells")
        row = dict(zip(SWEEP_COLUMNS, cells))
        for name in ("a", "b", *_FINITE_COLUMNS, "p_or_kappa", "delta"):
            row[name] = float(row[name])
        rows.append(row)
    return rows


def check_sweep_row(row: dict, reference: dict | None) -> list[str]:
    """One cell against criterion 6's mechanics and the recorded reference."""
    problems = []
    if row["verdict"] not in ("certified", "not-found"):
        problems.append(f"verdict {row['verdict']!r}")
    bad = [c for c in _FINITE_COLUMNS if not math.isfinite(row[c])]
    if bad:
        problems.append(f"non-finite diagnostics {bad}")
    if reference is None:
        problems.append(f"no reference for a={row['a']}, b={row['b']}")
        return problems
    for name in ("verdict", "branch"):
        if row[name] != reference[name]:
            problems.append(f"{name} {row[name]!r} != reference {reference[name]!r}")
    for name in ("p_or_kappa", "delta", "mc_value"):
        if not agree(row[name], reference[name]):
            problems.append(f"{name} {row[name]!r} != reference {reference[name]!r}")
    return problems


def load_reference() -> dict:
    rows = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["rows"]
    return {(r["a"], r["b"]): r for r in rows}


# ---------------------------------------------------------------- operations


@dataclass
class OpResult:
    """One operation: its latency and how it ended.

    status is "ok" (every check passed) or "failed".  A surface-edge probe
    (an input that validation accepts but the solver is known not to
    handle) instead ends "refused" when it raises a typed BandflowError,
    the outcome the robustness envelope allows, or "invalid" when it
    returns a result that fails the invariant checks.  Probe latencies are
    kept out of the latency percentiles, which describe the workload's
    ordinary inputs.
    """

    seconds: float
    status: str
    detail: str = ""
    probe: bool = False


def _timed(fn, op: dict) -> OpResult:
    edge = op.get("edge") is not None
    start = time.perf_counter()
    try:
        problems = fn(op)
    except BandflowError as exc:
        status = "refused" if edge else "failed"
        return OpResult(time.perf_counter() - start, status, f"{type(exc).__name__}: {exc}", edge)
    except (ValueError, ArithmeticError) as exc:
        return OpResult(time.perf_counter() - start, "failed", f"{type(exc).__name__}: {exc}", edge)
    elapsed = time.perf_counter() - start
    if problems:
        return OpResult(elapsed, "invalid" if edge else "failed", "; ".join(problems), edge)
    return OpResult(elapsed, "ok", probe=edge)


def _route_profile(op: dict, curve):
    params = op["params"]
    if op["family"] == "power":
        return CurvePowerProfile(curve, params["p"], params["delta"])
    if op["family"] == "gaussian":
        kappa = math.log(1.0 / params["edge_decay"]) / curve.r_b**2
        return GaussianProfile(params["delta"], kappa)
    return HelmholtzProfile(curve, params["fraction"] * lambda1(curve).value)


def _boundary_tangent_stream(r_b: float, coefficients) -> PolynomialProfile:
    # (r_b^2 - r^2)^2 times an even polynomial: tangent at both circles
    edge = np.array([r_b**4, 0.0, -2.0 * r_b**2, 0.0, 1.0])
    inner = np.zeros(2 * len(coefficients) - 1)
    inner[::2] = coefficients
    return PolynomialProfile(tuple(np.polynomial.polynomial.polymul(edge, inner)))


def routes_op(op: dict) -> list[str]:
    curve = solve_profile(SurfaceSpec(op["a"], op["b"]))
    f = _route_profile(op, curve)
    big_f = ZonalVelocityProfile(f, curve)
    zonal = zonal_from_f(f, curve)
    h = PlateauProfile(curve.r_b, op["w"])
    W = bump_field(h, curve)
    triple = (
        mc_bump_formula(big_f, h, curve).value,
        mc_reduced(big_f, W).value,
        mc_direct(zonal, W).value,
    )
    stream = op["stream"]
    V = field_from_stream(
        _boundary_tangent_stream(curve.r_b, stream["coefficients"]),
        curve,
        harmonic=stream["harmonic"],
        phase=stream["phase"],
    )
    pair = (mc_reduced(big_f, V).value, mc_direct(zonal, V).value)
    return check_routes(triple, pair)


def surfaces_op(op: dict) -> list[str]:
    a, b = op["a"], op["b"]
    curve = solve_profile(SurfaceSpec(a, b))
    invariants = surface_invariants(curve, a, b)
    lam = lambda1(curve)
    problems = check_surface(invariants, lam.error_bar)
    families = (
        CurvePowerProfile(curve, op["p"], op["delta"]),
        GaussianProfile(op["delta"], math.log(1.0 / op["edge_decay"]) / curve.r_b**2),
        HelmholtzProfile(curve, 0.85 * lam.value),
    )
    for f in families:
        report = check_arnold(f, curve, lambda_result=lam)
        profile_conditions(f, curve)
        ratio = optimal_bump_ratio(ZonalVelocityProfile(f, curve), curve)
        if not (math.isfinite(report.margin) and ratio > 0.0):
            problems.append(f"{type(f).__name__}: margin {report.margin}, ratio {ratio}")
    return problems


def run_routes(inputs) -> list[OpResult]:
    return [_timed(routes_op, op) for op in inputs]


def run_surfaces(inputs) -> list[OpResult]:
    return [_timed(surfaces_op, op) for op in inputs]


def run_sweep(inputs, workers: int, out_path: Path, reference: dict) -> list[OpResult]:
    """One CLI sweep over the 2 x 2 grid; one op per cell.

    Cell latency is the wall time of that cell's find_witness call, taken
    by a timing shim on the witness module's binding (four clock reads per
    cell), since the CLI reports only the whole grid.
    """
    a_vals, b_vals = inputs["a"], inputs["b"]
    cells = [(a, b) for a in a_vals for b in b_vals]
    latency: dict[tuple[float, float], float] = {}
    witness = bandflow.witness
    inner = witness.find_witness

    def timed_cell(spec, *args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(spec, *args, **kwargs)
        finally:
            latency[(spec.a, spec.b)] = time.perf_counter() - start

    argv = [
        "sweep",
        "--a", ",".join(repr(a) for a in a_vals),
        "--b", ",".join(repr(b) for b in b_vals),
        "--workers", str(workers),
        "--out", str(out_path),
    ]
    start = time.perf_counter()
    witness.find_witness = timed_cell
    try:
        code = cli.main(argv)
    finally:
        witness.find_witness = inner
    total = time.perf_counter() - start
    if code != 0:
        return [OpResult(total, "failed", f"bandflow sweep exited {code}") for _ in cells]
    try:
        rows = parse_sweep_csv(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [OpResult(total, "failed", str(exc)) for _ in cells]
    finally:
        out_path.unlink(missing_ok=True)
    if [(r["a"], r["b"]) for r in rows] != cells:
        got = [(r["a"], r["b"]) for r in rows]
        return [OpResult(total, "failed", f"rows {got} != cells {cells}") for _ in cells]
    results = []
    for cell, row in zip(cells, rows):
        problems = check_sweep_row(row, reference.get(cell))
        status = "failed" if problems else "ok"
        results.append(OpResult(latency.get(cell, total), status, "; ".join(problems)))
    return results
