"""Command-line behavior: outputs, precedence, determinism, exit codes."""
import json
import math
from pathlib import Path

import pytest

from bandflow import SurfaceSpec, solve_profile
from bandflow.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_profile_csv_sphere_matches_cosine(capsys):
    code, out, _ = _run(capsys, ["profile", "--a", "1", "--b", "0.5", "--n", "41"])
    assert code == 0
    lines = _data_lines(out)
    header = lines[0].split(",")
    i_r, i_c1 = header.index("r"), header.index("c1")
    for ln in lines[1:]:
        cells = ln.split(",")
        assert abs(float(cells[i_c1]) - math.cos(float(cells[i_r]))) <= 1e-8


def test_profile_first_row_is_the_equator(capsys):
    code, out, _ = _run(capsys, ["profile", "--a", "2", "--b", "0.5"])
    assert code == 0
    lines = _data_lines(out)
    header = lines[0].split(",")
    first = lines[1].split(",")
    assert float(first[header.index("r")]) == 0.0
    assert abs(float(first[header.index("epsilon")]) - math.sqrt(3.0)) <= 1e-8


def test_profile_output_is_reproducible(capsys):
    argv = ["profile", "--a", "1.5", "--b", "0.3", "--n", "31"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 1.0, "b": 0.5}))
    code, out, _ = _run(
        capsys,
        ["stability", "--config", str(cfg), "--a", "2", "--family", "constant"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["a"] == 2.0
    assert payload["config"]["b"] == 0.5
    assert payload["stability"]["verdict"] == "undetermined"
    assert len(payload["config_sha256"]) == 64


def test_stability_json_booleans(capsys):
    code, out, _ = _run(capsys, ["stability", "--a", "2", "--b", "0.5"])
    assert code == 0
    assert '"even": true' in out
    payload = json.loads(out)
    assert payload["config"]["lambda1_only"] is False
    assert all(type(v) is bool for k, v in payload["conditions"].items() if k != "rho")


def test_stability_modes_table(capsys):
    code, out, _ = _run(
        capsys, ["stability", "--a", "2", "--b", "0.5", "--lambda1-only"]
    )
    assert code == 0
    payload = json.loads(out)
    modes = payload["lambda1"]["modes"]
    values = [m["richardson"] for m in modes]
    assert values == sorted(values)
    assert payload["lambda1"]["value"] == values[0]


def test_mc_zero_bump_gives_three_zeros(capsys):
    code, out, _ = _run(capsys, ["mc", "--a", "2", "--b", "0.5", "--h", "zero"])
    assert code == 0
    payload = json.loads(out)
    values = {res["method"]: res["value"] for res in payload["results"]}
    assert set(values) == {"formula-1d", "reduced-2d", "direct-geometric"}
    assert all(v == 0.0 for v in values.values())


def test_mc_csv_sample_table(capsys):
    code, out, _ = _run(
        capsys,
        ["mc", "--a", "2", "--b", "0.5", "--methods", "formula", "--format", "csv"],
    )
    assert code == 0
    lines = _data_lines(out)
    assert lines[0] == "method,r,integrand"
    assert all(ln.startswith("formula-1d,") for ln in lines[1:])


def test_witness_on_sphere_exits_cleanly(capsys):
    code, out, _ = _run(capsys, ["witness", "--a", "1", "--b", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["verdict"] == "not-found"
    assert payload["witness"]["diagnostics"]["optimal_bump_ratio"] == "inf"


def test_sweep_single_cell(capsys):
    code, out, _ = _run(
        capsys, ["sweep", "--a", "1", "--b", "0.5", "--workers", "1"]
    )
    assert code == 0
    lines = _data_lines(out)
    assert lines[0].split(",")[:4] == ["a", "b", "verdict", "branch"]
    assert len(lines) == 2
    assert lines[1].startswith("1,0.5,not-found")


def test_default_sweep_rows_match_the_recorded_bytes(capsys):
    """The data rows of the default 3 x 3 sweep, header included and the
    provenance lines left out, equal tests/data/default_sweep.csv byte for
    byte.  A change meant to leave the sweep's numbers alone, such as a
    speed-up, must keep this test passing unedited.  A declared change to
    the sweep's numbers re-records this file together with
    perfbench/sweep_reference.json."""
    code, out, _ = _run(capsys, ["sweep"])
    assert code == 0
    rows = "".join(ln for ln in out.splitlines(keepends=True) if not ln.startswith("#"))
    recorded = Path(__file__).parent / "data" / "default_sweep.csv"
    assert rows.encode() == recorded.read_bytes()


def test_sweep_workers_flag_is_accepted_and_ignored(capsys):
    argv = ["sweep", "--a", "1.5", "--b", "0.5"]
    outputs = [
        _run(capsys, argv + extra)
        for extra in (["--workers", "1"], ["--workers", "4"], [])
    ]
    assert all(code == 0 for code, _, _ in outputs)
    texts = [out for _, out, _ in outputs]
    assert texts[0] == texts[1] == texts[2]
    config_line = next(ln for ln in texts[0].splitlines() if ln.startswith("# config:"))
    assert "workers" not in config_line
    assert any(ln.startswith("# config-sha256:") for ln in texts[0].splitlines())


def test_invalid_geometry_is_a_clean_error(capsys):
    code, _, err = _run(capsys, ["profile", "--a", "0.5", "--b", "0.5"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--a", "1", "--b", "0.999"],
        ["stability", "--a", "300", "--b", "0.5", "--lambda1-only"],
    ],
)
def test_accepted_but_unsolvable_input_ends_cleanly(capsys, argv):
    # validation accepts these bands; the solver may still refuse them, but
    # only with a typed error that names no setting the user cannot change
    code, _, err = _run(capsys, argv)
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:")
        assert "rtol" not in err and "atol" not in err


def test_unknown_method_is_a_clean_error(capsys):
    code, _, err = _run(capsys, ["mc", "--a", "2", "--b", "0.5", "--methods", "bogus"])
    assert code == 1
    assert "bogus" in err


def test_bad_format_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--a", "2", "--b", "0.5", "--format", "yaml"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["profile", "--a", "2", "--b", "0.5", "--n", "21"]
    _, streamed, _ = _run(capsys, argv)
    target = tmp_path / "profile.csv"
    code, piped, _ = _run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert piped == ""
    assert target.read_text() == streamed


@pytest.mark.parametrize("command", ["profile", "stability"])
def test_tol_is_refused_where_nothing_integrates(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--a", "2", "--b", "0.5", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    code, out, _ = _run(capsys, [command, "--a", "2", "--b", "0.5", "--format", "json"])
    assert code == 0
    assert "tol" not in json.loads(out)["config"]


def _csv_rows(text):
    lines = _data_lines(text)
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_stability_csv_row_matches_the_json_report(capsys):
    argv = ["stability", "--a", "2", "--b", "0.5"]
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert _data_lines(out)[0] == "verdict,fprime_min,fprime_max,lambda1,margin"
    (row,) = _csv_rows(out)
    _, text, _ = _run(capsys, argv)
    report = json.loads(text)["stability"]
    assert row["verdict"] == report["verdict"]
    for key in ("fprime_min", "fprime_max", "margin"):
        assert float(row[key]) == report[key]
    assert float(row["lambda1"]) == report["lambda1"]["value"]


def test_lambda1_only_csv_lists_the_modes_of_the_json_table(capsys):
    argv = ["stability", "--a", "2", "--b", "0.5", "--lambda1-only"]
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert _data_lines(out)[0] == "mode,coarse,fine,richardson,error_bar"
    rows = _csv_rows(out)
    _, text, _ = _run(capsys, argv)
    modes = json.loads(text)["lambda1"]["modes"]
    assert len(rows) == len(modes) >= 2
    for row, mode in zip(rows, modes):
        assert int(row["mode"]) == mode["mode"]
        for key in ("coarse", "fine", "richardson"):
            assert float(row[key]) == mode[key]
        # the JSON table leaves out the bar, |fine - coarse| / 3
        assert math.isclose(
            float(row["error_bar"]), abs(mode["fine"] - mode["coarse"]) / 3.0, rel_tol=1e-12
        )


def test_gaussian_family_defaults_kappa_to_a_tenth_at_the_edge(capsys):
    code, out, _ = _run(capsys, ["stability", "--a", "2", "--b", "0.5", "--family", "gaussian"])
    assert code == 0
    config = json.loads(out)["config"]
    r_b = solve_profile(SurfaceSpec(2.0, 0.5)).r_b
    assert config["kappa"] == math.log(10.0) / r_b**2
    assert config["delta"] == 1e-3


def test_helmholtz_family_rate_is_the_fraction_of_lambda1(capsys):
    code, out, _ = _run(capsys, ["stability", "--a", "3", "--b", "0.7", "--family", "helmholtz"])
    assert code == 0
    payload = json.loads(out)
    lam = payload["stability"]["lambda1"]["value"]
    assert payload["config"]["fraction"] == 0.85
    assert payload["config"]["rate"] == 0.85 * lam
    # the slope of the Helmholtz flow is -rate everywhere
    assert math.isclose(payload["stability"]["fprime_min"], -0.85 * lam, rel_tol=1e-6)
    assert math.isclose(payload["stability"]["fprime_max"], -0.85 * lam, rel_tol=1e-6)


def test_witness_csv_row_is_the_sweep_row_of_its_cell(capsys):
    cell = ["--a", "1.5", "--b", "0.3"]
    code, out, _ = _run(capsys, ["witness", *cell, "--format", "csv"])
    assert code == 0
    _, swept, _ = _run(capsys, ["sweep", *cell])
    assert _data_lines(out) == _data_lines(swept)
    assert len(_data_lines(out)) == 2


def test_sweep_json_rows_equal_the_csv_rows(capsys):
    grid = ["--a", "1.5,2", "--b", "0.5"]
    code, out, _ = _run(capsys, ["sweep", *grid, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    _, text, _ = _run(capsys, ["sweep", *grid])
    csv_rows = _csv_rows(text)
    assert len(rows) == len(csv_rows) == 2
    for row, cells in zip(rows, csv_rows):
        assert set(row) == set(cells)
        assert row["verdict"] == cells["verdict"] and row["branch"] == cells["branch"]
        for key, cell in cells.items():
            if key not in ("verdict", "branch"):
                assert float(cell) == row[key], key


def test_config_file_grid_lists(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"a": [2, 1.5], "b": [0.5]}))
    code, out, _ = _run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0
    config_line = next(ln for ln in out.splitlines() if ln.startswith("# config:"))
    config = json.loads(config_line[len("# config:"):])
    assert (config["a"], config["b"]) == ([2.0, 1.5], [0.5])
    rows = _csv_rows(out)
    assert [(float(r["a"]), float(r["b"])) for r in rows] == [(2.0, 0.5), (1.5, 0.5)]
