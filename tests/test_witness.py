"""End-to-end search behavior: determinism, diagnostics, honest verdicts."""
import math
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import bandflow.misiolek as misiolek
import bandflow.witness as witness
from bandflow import (
    SWEEP_COLUMNS,
    CurvePowerProfile,
    PlateauProfile,
    ProfileCurve,
    SurfaceSpec,
    WitnessSearchConfig,
    ZonalVelocityProfile,
    canonical_json,
    check_arnold,
    find_witness,
    jsonify,
    lambda1,
    mc_bump_formula,
    optimal_bump_ratio,
    profile_conditions,
    solve_profile,
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


def _sequential_search(big_f, curve, config, evaluated=None):
    """One candidate's width search as it ran before the lockstep search.

    Coarse grid, then golden section, one mc_bump_formula call per width;
    `evaluated` collects the widths in the order they are integrated.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    widths = np.linspace(witness._W_LO, witness._W_HI, config.w_count)
    results = {}

    def mc_at(w):
        if evaluated is not None:
            evaluated.append(float(w))
        h = PlateauProfile(curve.r_b, w)
        results[w] = mc_bump_formula(big_f, h, curve, rel_tol=config.mc_rel_tol)
        return results[w].value

    coarse = [mc_at(w) for w in widths]
    k = int(np.argmax(coarse))
    lo = float(widths[max(0, k - 1)])
    hi = float(widths[min(len(widths) - 1, k + 1)])
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = mc_at(x1), mc_at(x2)
    while hi - lo > witness._W_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = mc_at(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = mc_at(x1)
    best_w, best_val = (x1, f1) if f1 >= f2 else (x2, f2)
    if coarse[k] >= best_val:
        best_w, best_val = float(widths[k]), float(coarse[k])
    return float(best_w), float(best_val), float(results[best_w].error_estimate)


def test_bump_search_evaluates_each_width_once(band, monkeypatch):
    asked = []
    batch = witness.mc_bump_formula_batch

    def recording(pairs, curve, **kwargs):
        asked.extend((id(big_f), h.edge_fraction) for big_f, h in pairs)
        return batch(pairs, curve, **kwargs)

    monkeypatch.setattr(witness, "mc_bump_formula_batch", recording)
    config = WitnessSearchConfig()
    flows = [
        ZonalVelocityProfile(CurvePowerProfile(band, p, 1e-3), band) for p in (3.0, 6.0, 24.0)
    ]
    found = witness._search_widths(flows, band, config)
    for big_f, (best_w, best_mc, err) in zip(flows, found):
        widths = [w for key, w in asked if key == id(big_f)]
        sequential = []
        _sequential_search(big_f, band, config, sequential)
        # the w_count grid widths, then the golden-step widths, each once
        assert widths == sequential
        assert widths[: config.w_count] == np.linspace(0.05, 0.9, config.w_count).tolist()
        assert len(widths) > config.w_count + 2
        assert len(set(widths)) == len(widths)
        # the error bar is the one computed during the search at best_w
        again = mc_bump_formula(
            big_f, PlateauProfile(band.r_b, best_w), band, rel_tol=config.mc_rel_tol
        )
        assert (again.value, again.error_estimate) == (best_mc, err)


@pytest.mark.parametrize("a, b", [(2.0, 0.5), (3.0, 0.3)])
def test_lockstep_search_matches_the_sequential_search(a, b):
    curve = solve_profile(SurfaceSpec(a, b))
    config = WitnessSearchConfig()
    outcomes = witness._candidate_outcomes(curve, lambda1(curve), config)
    searched = [o for o in outcomes if o.admissible]
    assert len(searched) >= 20
    for o in searched:
        f = witness._profile_from_params(curve, o.family, o.params)
        expected = _sequential_search(ZonalVelocityProfile(f, curve), curve, config)
        assert (o.best_w, o.best_mc, o.mc_error) == expected, (o.family, o.params)


def test_one_cell_makes_few_formula_density_calls(monkeypatch):
    calls = []
    real = misiolek._formula_density

    def counting(pairs, curve):
        density = real(pairs, curve)

        def counted(r, owner):
            calls.append(r.size)
            return density(r, owner)

        return counted

    monkeypatch.setattr(misiolek, "_formula_density", counting)
    res = find_witness(SurfaceSpec(2.0, 0.5))
    assert res.diagnostics["candidates_examined"] == 24
    # one call per refinement round of each lockstep step, all candidates
    # together, against one per round per width when each width ran alone
    assert 0 < len(calls) <= 40


def _every_report_positive(monkeypatch):
    # the lab-frame certificate never fires on the searched families
    # (criterion 6), so the certification branch is reached by relabeling
    real = witness.check_arnold
    monkeypatch.setattr(
        witness,
        "check_arnold",
        lambda *args, **kwargs: replace(real(*args, **kwargs), verdict="positive-branch"),
    )


def test_certification_branch_verifies_the_winner_on_three_routes(monkeypatch):
    _every_report_positive(monkeypatch)
    res = find_witness(SurfaceSpec(3.0, 0.7))
    assert res.verdict == "certified" and res.certified
    assert (res.family, res.f_params) == ("power", {"p": 12.0, "delta": 1e-3})
    assert abs(res.w - 0.1739) <= 1e-4
    assert [m.method for m in res.mc_results] == [
        "formula-1d",
        "reduced-2d",
        "direct-geometric",
    ]
    for m in res.mc_results:
        assert abs(m.value - 0.32814) <= 1e-5
    assert res.diagnostics["verification"] == {"methods_agree": True, "significant": True}
    assert "conjugate point" in res.implication


def test_certification_refuses_routes_that_disagree(monkeypatch):
    _every_report_positive(monkeypatch)
    real = witness.mc_direct

    def shifted(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, value=result.value + 1e-3)

    monkeypatch.setattr(witness, "mc_direct", shifted)
    res = find_witness(SurfaceSpec(3.0, 0.7))
    assert res.verdict == "not-found"
    assert len(res.mc_results) == 3
    assert res.diagnostics["verification"]["methods_agree"] is False
    assert "No certified pair" in res.implication


@pytest.mark.parametrize(
    "x, y, agree",
    [
        (1.0, 1.0 + 0.9e-5, True),
        (1.0, 1.0 + 1.1e-5, False),
        (-2.0, -2.0 - 1.9e-5, True),
        (0.0, 0.9e-8, True),
        (0.0, 1.1e-8, False),
        (1e-4, -1e-4, False),
    ],
)
def test_route_agreement_rule(x, y, agree):
    # relative 1e-5 of the larger magnitude, with an absolute floor of 1e-8
    def result(value):
        return misiolek.MCResult(value, "formula-1d", 0.0, 1)

    assert witness._agreement(result(x), result(y)) is agree
    assert witness._agreement(result(y), result(x)) is agree


# the candidate-independent grids of one cell: the admissibility probe,
# check_arnold's scan, profile_conditions' half grid (its mirror shares the
# lookup), lambda1's pencils at 2048 and 4096 intervals and
# optimal_bump_ratio's at 4000
_CELL_GRIDS = (
    ("band", 512),
    ("band", 1024),
    ("half", 2048),
    ("interior", 2048),
    ("mid", 2048),
    ("interior", 4096),
    ("mid", 4096),
    ("interior", 4000),
    ("mid", 4000),
)


def test_one_cell_looks_up_each_fixed_grid_once(monkeypatch):
    """In a default find_witness cell each fixed sample grid, and the node
    grid that the Helmholtz builds read, is looked up once for all
    candidates (before the curve owned them, the 1024-, 2048- and
    512-point grids were looked up 87, 65 and 18 times)."""
    curves, lookups = [], []
    real_solve, real_interval = witness.solve_profile, ProfileCurve._interval

    def solve(spec):
        curves.append(real_solve(spec))
        return curves[-1]

    def interval(self, x):
        lookups.append(x.copy())
        return real_interval(self, x)

    monkeypatch.setattr(witness, "solve_profile", solve)
    monkeypatch.setattr(ProfileCurve, "_interval", interval)
    find_witness(SurfaceSpec(2.0, 0.5))
    (curve,) = curves
    grids = [np.abs(curve.sample_grid(kind, n)) for kind, n in _CELL_GRIDS]
    for grid, name in zip([*grids, curve.radii], [*_CELL_GRIDS, "nodes"]):
        seen = sum(x.size == grid.size and np.array_equal(x, grid) for x in lookups)
        assert seen == 1, name


def _fresh_grid(curve, kind, n):
    """The grids as a fresh np.linspace, which the checks built per call
    before the curve owned them."""
    r_b = curve.r_b
    if kind == "band":
        return np.linspace(-r_b, r_b, n)
    if kind in ("half", "mirror"):
        half = np.linspace(0.0, r_b, n)
        return half if kind == "half" else -half
    nodes = np.linspace(-r_b, r_b, n + 1)
    return nodes[1:-1] if kind == "interior" else 0.5 * (nodes[:-1] + nodes[1:])


def test_checks_on_owned_grids_equal_fresh_linspace(monkeypatch):
    """Every check that reads the curve's owned grids gives, for each of a
    default cell's candidates, the bits it gives on fresh np.linspace
    grids, which the curve does not own and so neither memoizes."""
    curve = solve_profile(SurfaceSpec(2.0, 0.5))
    lam = lambda1(curve)
    profiles = [f for _, _, f in witness._candidate_profiles(curve, lam, WitnessSearchConfig())]

    def run():
        checks = [
            (
                check_arnold(f, curve, lambda_result=lam),
                profile_conditions(f, curve),
                optimal_bump_ratio(ZonalVelocityProfile(f, curve), curve).hex(),
            )
            for f in profiles
        ]
        return repr((checks, lambda1(curve)))

    owned = run()
    monkeypatch.setattr(ProfileCurve, "sample_grid", _fresh_grid)
    assert run() == owned
