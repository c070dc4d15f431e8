"""Tests of the benchmark itself: its checks can fail, its counts repeat.

Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import workloads  # noqa: E402
from bandflow import cli, misiolek  # noqa: E402
from bandflow.serialize import render_csv  # noqa: E402

WRONG = 1.0 + 1e-3


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_inputs_repeat_per_seed_and_stay_on_the_reference_grid(reference):
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)
    for seed in range(200):
        grid = workloads.make_inputs("sweep", seed)
        assert all((a, b) in reference for a in grid["a"] for b in grid["b"])
    ops = workloads.make_inputs("surfaces", 3)
    edges = [op["edge"] for op in ops if op["edge"]]
    assert len(ops) == 10 * len(edges)
    assert sorted(edges) == sorted(workloads.SURFACE_EDGES * (len(edges) // 3))


def test_route_checks_reject_a_route_off_by_a_part_in_a_thousand():
    triple, pair = (-4.82552, -4.82552, -4.82552), (-1.7, -1.7)
    assert workloads.check_routes(triple, pair) == []
    for k in range(3):
        wrong = list(triple)
        wrong[k] *= WRONG
        assert workloads.check_routes(wrong, pair)
    assert workloads.check_routes(triple, (pair[0], pair[1] * WRONG))


def test_a_wrong_route_marks_the_routes_op_failed(monkeypatch):
    op = workloads.make_inputs("routes", 1)[0]
    assert workloads.run_routes([op])[0].status == "ok"
    direct = misiolek.mc_direct

    def skewed(*args, **kwargs):
        res = direct(*args, **kwargs)
        return misiolek.MCResult(res.value * WRONG, res.method, res.error_estimate, res.n_nodes)

    monkeypatch.setattr(workloads, "mc_direct", skewed)
    result = workloads.run_routes([op])[0]
    assert result.status == "failed", result
    assert "disagree" in result.detail


def test_surface_checks_reject_broken_invariants():
    good = {"unit_speed": 1e-12, "on_ellipse": 1e-11, "endpoint": 0.0, "arc_length": 1e-13}
    assert workloads.check_surface(good, 1e-6) == []
    assert workloads.check_surface({**good, "on_ellipse": 2e-8}, 1e-6)
    assert workloads.check_surface(good, math.nan)


def test_a_wrong_invariant_marks_the_surface_op_failed(monkeypatch):
    ops = workloads.make_inputs("surfaces", 1)
    main = next(op for op in ops if op["edge"] is None)
    assert workloads.run_surfaces([main])[0].status == "ok"
    arc = workloads.arc_length_from_height
    monkeypatch.setattr(workloads, "arc_length_from_height", lambda a, z: arc(a, z) * WRONG)
    assert workloads.run_surfaces([main])[0].status == "failed"


def _fake_sweep(monkeypatch, rows):
    """Make the CLI write the given rows instead of running the search."""

    def main(argv):
        out = argv[argv.index("--out") + 1]
        body = [tuple(r[c] for c in workloads.SWEEP_COLUMNS) for r in rows]
        Path(out).write_text(render_csv(workloads.SWEEP_COLUMNS, body, config={}))
        return 0

    monkeypatch.setattr(cli, "main", main)


def test_sweep_checks_reject_a_wrong_verdict_or_value(monkeypatch, reference, tmp_path):
    grid = workloads.make_inputs("sweep", 5)
    cells = [(a, b) for a in grid["a"] for b in grid["b"]]
    rows = [dict(reference[c]) for c in cells]
    for r in rows:
        assert workloads.check_sweep_row(r, reference[(r["a"], r["b"])]) == []
    rows[1]["verdict"] = "certified"
    rows[2]["mc_value"] *= WRONG
    rows[3]["w"] = math.nan
    _fake_sweep(monkeypatch, rows)
    results = workloads.run_sweep(grid, 2, tmp_path / "sweep.csv", reference)
    assert [r.status for r in results] == ["ok", "failed", "failed", "failed"]
    assert "verdict" in results[1].detail
    assert "mc_value" in results[2].detail
    assert "non-finite" in results[3].detail


def test_sweep_rows_must_match_the_requested_cells(monkeypatch, reference, tmp_path):
    grid = workloads.make_inputs("sweep", 5)
    cells = [(a, b) for a in grid["a"] for b in grid["b"]]
    _fake_sweep(monkeypatch, [reference[c] for c in cells[:3]])
    results = workloads.run_sweep(grid, 2, tmp_path / "sweep.csv", reference)
    assert all(r.status == "failed" for r in results)


def _traced_counts(run_pass) -> dict:
    tracer = layertrace.Tracer()
    tracer.install(workloads)
    try:
        results = run_pass()
    finally:
        tracer.uninstall()
    assert all(r.status != "failed" for r in results), results
    spans = tracer.by_name()
    return {
        "geometry.frame.calls": spans["geometry.frame"]["calls"],
        "quadrature.evals": tracer.counters["quadrature.evals"],
        "misiolek.mc_bump_formula.calls": spans.get("misiolek.mc_bump_formula", {}).get("calls", 0),
        "stability.eigensolves": 2 * spans["stability.lambda1_mode"]["calls"],
    }


@pytest.mark.parametrize("workload", ["routes", "surfaces", "sweep"])
def test_exact_counts_repeat_across_traced_runs(workload, reference, tmp_path):
    if workload == "sweep":
        # two cells, so that the thread pool runs; the full grid only costs more
        grid = {"a": [1.5], "b": [0.3, 0.7]}
        run_pass = lambda: workloads.run_sweep(grid, 2, tmp_path / "sweep.csv", reference)
    elif workload == "routes":
        ops = workloads.make_inputs("routes", 4)[:3]
        run_pass = lambda: workloads.run_routes(ops)
    else:
        ops = workloads.make_inputs("surfaces", 4)[:10]
        run_pass = lambda: workloads.run_surfaces(ops)
    first = _traced_counts(run_pass)
    assert first == _traced_counts(run_pass)
    assert first["geometry.frame.calls"] > 0 and first["stability.eigensolves"] > 0
    if workload != "surfaces":
        assert first["quadrature.evals"] > 0
        assert first["misiolek.mc_bump_formula.calls"] > 0


def test_quadrature_panels_follow_the_node_count_of_each_call():
    from bandflow import quadrature

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        default = quadrature.adaptive_gauss_legendre(np.sin, 0.0, 1.0)
        coarse = quadrature.adaptive_gauss_legendre(np.sin, 0.0, 1.0, nodes_per_panel=5)
    finally:
        tracer.uninstall()
    assert tracer.counters["quadrature.evals"] == default.n_evals + coarse.n_evals
    default_nodes = inspect.signature(quadrature.adaptive_gauss_legendre).parameters["nodes_per_panel"].default
    assert tracer.counters["quadrature.panels"] == default.n_evals // default_nodes + coarse.n_evals // 5


def test_tracer_restores_every_binding():
    before = {name: getattr(workloads, name) for name in ("mc_direct", "solve_profile", "cli")}
    frame = workloads.bandflow.ProfileCurve.frame
    tracer = layertrace.Tracer()
    tracer.install(workloads)
    assert workloads.mc_direct is not before["mc_direct"]
    tracer.uninstall()
    assert {name: getattr(workloads, name) for name in before} == before
    assert workloads.bandflow.ProfileCurve.frame is frame


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [*spec["command"], "--workload", "routes", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
