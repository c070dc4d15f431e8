"""Serialization round trips and provenance headers."""
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from bandflow import (
    canonical_json,
    config_digest,
    fmt_float,
    jsonify,
    pretty_json,
    render_csv,
)


@pytest.mark.parametrize(
    "x", [1.0 / 3.0, 0.1, 1e-308, 6.02214076e23, -0.0, 2.0, -1.5e-7]
)
def test_float_formatting_round_trips(x):
    assert float(fmt_float(x)) == x


def test_float_formatting_is_shortest_faithful():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(2.0) == "2"


def test_canonical_json_ignores_key_order():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1}'


def test_config_digest_is_sha256_of_canonical_form():
    cfg = {"a": 2.0, "b": 0.5, "nested": {"y": 2, "x": 1}}
    expected = hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()
    assert config_digest(cfg) == expected


def test_jsonify_numpy_and_containers():
    out = jsonify(
        {
            "scalar": np.float64(0.25),
            "ints": np.arange(3),
            "pair": (1, 2),
            "flag": np.bool_(True),
            "python_flag": False,
        }
    )
    assert out == {
        "scalar": 0.25,
        "ints": [0, 1, 2],
        "pair": [1, 2],
        "flag": True,
        "python_flag": False,
    }
    # bool is a subclass of int; a flag must not come out as 0 or 1
    assert out["python_flag"] is False and jsonify(True) is True
    assert json.dumps(out)  # nothing numpy-flavored survives


def test_jsonify_nonfinite():
    assert jsonify(math.nan) == "nan"
    assert jsonify(math.inf) == "inf"
    assert jsonify(-math.inf) == "-inf"


def test_jsonify_dataclass_and_hook():
    @dataclass(frozen=True)
    class Point:
        x: float
        y: float

    assert jsonify(Point(1.0, 2.5)) == {"x": 1.0, "y": 2.5}

    class Custom:
        def to_json(self):
            return {"kind": "custom"}

    assert jsonify(Custom()) == {"kind": "custom"}


def test_mc_result_json_shape(band):
    from bandflow import CurvePowerProfile, PlateauProfile, ZonalVelocityProfile
    from bandflow import mc_bump_formula

    f = CurvePowerProfile(band, 6.0, 1e-3)
    res = mc_bump_formula(ZonalVelocityProfile(f, band), PlateauProfile(band.r_b, 0.3), band)
    out = jsonify(res)
    assert set(out) == {"value", "method", "error_estimate", "n_nodes"}
    assert out["method"] == "formula-1d"


def test_render_csv_headers_and_cells():
    cfg = {"a": 2.0}
    text = render_csv(("x", "label"), [(0.1, "row one"), (2, "row two")], config=cfg)
    lines = text.splitlines()
    assert lines[0] == f"# config: {canonical_json(cfg)}"
    assert lines[1] == f"# config-sha256: {config_digest(cfg)}"
    assert lines[2] == "x,label"
    assert lines[3] == "0.10000000000000001,row one"
    assert lines[4] == "2,row two"
    assert text.endswith("\n")


def test_render_csv_without_config_has_no_provenance():
    text = render_csv(("x",), [(1.0,)])
    assert text == "x\n1\n"


def test_render_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_csv(("x", "y"), [(1.0,)])


def test_pretty_json_ends_with_newline():
    text = pretty_json({"k": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"k": [1, 2]}
