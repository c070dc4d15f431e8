"""End-to-end search behavior: determinism, diagnostics, honest verdicts."""
import math
import threading
from dataclasses import FrozenInstanceError, replace

import pytest

import bandflow.witness as witness
from bandflow import (
    SWEEP_COLUMNS,
    CurvePowerProfile,
    PlateauProfile,
    SurfaceSpec,
    WitnessSearchConfig,
    ZonalVelocityProfile,
    canonical_json,
    find_witness,
    jsonify,
    sweep,
    sweep_summary,
)

# trimmed grids keep each search under a second while still covering
# both a power and a slope candidate
SMALL = WitnessSearchConfig(
    families=("power", "helmholtz"),
    p_grid=(3.0, 16.0),
    delta_grid=(1e-3,),
    slope_fractions=(0.85,),
    w_count=5,
)


def test_small_search_on_reference_band():
    res = find_witness(SurfaceSpec(2.0, 0.5), SMALL)
    assert res.verdict == "not-found"
    assert not res.certified
    d = res.diagnostics
    assert d["candidates_examined"] == 3
    assert d["stable_count"] >= 1
    assert d["best_mc_over_stable"] < 0.0
    assert d["optimal_bump_ratio"] > 1.0
    assert len(res.mc_results) == 1
    assert res.mc_results[0].method == "formula-1d"
    assert res.stability is not None and res.conditions is not None
    assert "No certified pair" in res.implication


def test_search_is_deterministic():
    first = canonical_json(jsonify(find_witness(SurfaceSpec(2.0, 0.5), SMALL)))
    second = canonical_json(jsonify(find_witness(SurfaceSpec(2.0, 0.5), SMALL)))
    assert first == second


def test_sphere_yields_no_witness():
    res = find_witness(SurfaceSpec(1.0, 0.5), SMALL)
    assert res.verdict == "not-found"
    assert res.diagnostics["optimal_bump_ratio"] == math.inf


def test_empty_family_list():
    res = find_witness(SurfaceSpec(2.0, 0.5), replace(SMALL, families=()))
    assert res.verdict == "not-found"
    assert res.diagnostics["candidates_examined"] == 0
    assert res.mc_results == ()


def test_config_is_frozen_and_described():
    with pytest.raises(FrozenInstanceError):
        SMALL.w_count = 9
    desc = SMALL.describe()
    assert desc["families"] == ["power", "helmholtz"]
    # the search space only; grids and tolerances it does not vary are not config
    assert set(desc) == {
        "families",
        "p_grid",
        "delta_grid",
        "decay_targets",
        "slope_fractions",
        "w_count",
        "mc_rel_tol",
    }


def test_sweep_row_matches_standalone_search():
    rows = sweep([2.0], [0.5], SMALL)
    assert len(rows) == 1
    standalone = find_witness(SurfaceSpec(2.0, 0.5), SMALL)
    assert canonical_json(jsonify(rows[0])) == canonical_json(jsonify(standalone))


def test_sweep_survives_a_bad_cell():
    rows = sweep([0.5], [0.5], SMALL)
    assert len(rows) == 1
    assert rows[0].verdict == "error"
    assert "error" in rows[0].diagnostics


def test_sweep_runs_cells_in_grid_order_on_the_calling_thread(monkeypatch):
    calls = []
    search = witness.find_witness

    def recording(spec, config):
        calls.append((spec.a, spec.b, threading.get_ident()))
        return search(spec, config)

    monkeypatch.setattr(witness, "find_witness", recording)
    rows = sweep([0.5, 2.0], [0.3, 0.5], SMALL)
    caller = threading.get_ident()
    # SurfaceSpec refuses a=0.5 before the search is called, so only the
    # a=2 cells reach it
    assert calls == [(2.0, 0.3, caller), (2.0, 0.5, caller)]
    assert [(r.spec.a, r.spec.b) for r in rows] == [
        (0.5, 0.3),
        (0.5, 0.5),
        (2.0, 0.3),
        (2.0, 0.5),
    ]
    assert [r.verdict for r in rows[:2]] == ["error", "error"]


def test_sweep_summary_columns():
    rows = sweep([2.0], [0.5], SMALL)
    summary = sweep_summary(rows[0])
    assert tuple(summary) == SWEEP_COLUMNS
    assert summary["verdict"] == "not-found"
    assert summary["a"] == 2.0 and summary["b"] == 0.5
    assert math.isfinite(summary["lambda1"])


def test_bump_search_evaluates_each_width_once(band, monkeypatch):
    formula_calls = []
    golden_calls = []
    formula = witness.mc_bump_formula
    golden = witness._golden_max

    def counting_formula(*args, **kwargs):
        formula_calls.append(args[1])
        return formula(*args, **kwargs)

    def counting_golden(fn, *args):
        def probe(w):
            golden_calls.append(w)
            return fn(w)

        return golden(probe, *args)

    monkeypatch.setattr(witness, "mc_bump_formula", counting_formula)
    monkeypatch.setattr(witness, "_golden_max", counting_golden)
    big_f = ZonalVelocityProfile(CurvePowerProfile(band, 6.0, 1e-3), band)
    config = WitnessSearchConfig()
    best_w, best_mc, err = witness._optimize_bump(big_f, band, config)
    assert golden_calls
    assert len(formula_calls) == config.w_count + len(golden_calls)
    # the error bar is the one computed during the search at best_w
    again = formula(big_f, PlateauProfile(band.r_b, best_w), band, rel_tol=config.mc_rel_tol)
    assert (again.value, again.error_estimate) == (best_mc, err)
