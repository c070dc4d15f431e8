"""Command-line frontend.

Five subcommands cover the library surface: profile (geometry table),
stability (Arnold verdict for a chosen radial profile), mc (curvature of
a zonal flow against a bump, by any subset of the three routes), witness
(single-cell certificate search), and sweep (the search over a grid of
bands).  Flags override a JSON config file, which overrides defaults;
the fully resolved configuration and its SHA-256 digest are echoed into
every artifact so a result can always be traced back to its inputs.
Outputs carry no timestamps: identical configs give identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import BandflowError
from .fields import ZonalVelocityProfile, zonal_from_f
from .geometry import PROFILE_COLUMNS, SurfaceSpec, profile_table, solve_profile
from .misiolek import bump_field, mc_bump_formula, mc_direct, mc_reduced
from .profiles import ConstantProfile, PlateauProfile
from .serialize import config_digest, jsonify, pretty_json, render_csv
from .stability import check_arnold, lambda1, profile_conditions
from .witness import (
    SWEEP_COLUMNS,
    WitnessSearchConfig,
    _profile_from_params,
    find_witness,
    sweep,
    sweep_summary,
)

__all__ = ["main"]

_COMMON_DEFAULTS = {
    "a": 2.0,
    "b": 0.5,
    "out": None,
}

# only the commands that integrate curvature take a quadrature tolerance
_TOL_DEFAULT = {"tol": 1e-8}

_FAMILY_DEFAULTS = {
    "family": "power",
    "p": 6.0,
    "delta": 1e-3,
    "kappa": None,
    "fraction": 0.85,
}

_DEFAULTS = {
    "profile": {**_COMMON_DEFAULTS, "format": "csv", "n": 201},
    "stability": {
        **_COMMON_DEFAULTS,
        **_FAMILY_DEFAULTS,
        "format": "json",
        "lambda1_only": False,
    },
    "mc": {
        **_COMMON_DEFAULTS,
        **_TOL_DEFAULT,
        **_FAMILY_DEFAULTS,
        "format": "json",
        "h": "plateau",
        "w": 0.3,
        "methods": "all",
    },
    "witness": {**_COMMON_DEFAULTS, **_TOL_DEFAULT, "format": "json"},
    "sweep": {
        "a": "1.5,2,3",
        "b": "0.3,0.5,0.7",
        **_TOL_DEFAULT,
        "out": None,
        "format": "csv",
    },
}

_METHOD_NAMES = ("formula", "reduced", "direct")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandflow",
        description="Zonal-flow stability and curvature on truncated ellipsoid bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, grid: bool = False) -> None:
        if grid:
            p.add_argument("--a", type=str, help="comma-separated equator radii")
            p.add_argument("--b", type=str, help="comma-separated height cutoffs")
        else:
            p.add_argument("--a", type=float, help="equator radius (>= 1)")
            p.add_argument("--b", type=float, help="height cutoff in (0, 1)")
        p.add_argument("--out", type=str, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", type=str, help="JSON config file; flags win")

    def family(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--family",
            choices=("power", "gaussian", "constant", "helmholtz"),
            help="radial profile family for f",
        )
        p.add_argument("--p", type=float, help="power-family exponent")
        p.add_argument("--delta", type=float, help="floor value for f")
        p.add_argument("--kappa", type=float, help="gaussian decay rate")
        p.add_argument(
            "--fraction",
            type=float,
            help="helmholtz rate as a fraction of lambda1",
        )

    p = sub.add_parser("profile", help="solve the band profile, write the table")
    common(p)
    p.add_argument("--n", type=int, help="number of table rows")

    p = sub.add_parser("stability", help="Arnold verdict for a radial profile")
    common(p)
    family(p)
    p.add_argument(
        "--lambda1-only",
        dest="lambda1_only",
        action="store_const",
        const=True,
        help="report only the eigenvalue scan, per mode",
    )

    def tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, help="relative quadrature tolerance")

    p = sub.add_parser("mc", help="curvature of a zonal flow against a bump")
    common(p)
    tolerance(p)
    family(p)
    p.add_argument("--h", choices=("zero", "plateau"), help="bump choice")
    p.add_argument("--w", type=float, help="plateau descent width fraction")
    p.add_argument(
        "--methods",
        type=str,
        help="comma-separated subset of formula,reduced,direct (or 'all')",
    )

    p = sub.add_parser("witness", help="search one band for a certificate")
    common(p)
    tolerance(p)

    p = sub.add_parser("sweep", help="witness search over a grid of bands")
    common(p, grid=True)
    tolerance(p)
    # accepted and ignored: perfbench's sweep workload still passes it
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[args.command]
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
    resolved = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = fallback
    resolved["command"] = args.command
    return resolved


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_payload(resolved: dict, body: dict) -> str:
    payload = {
        "config": resolved,
        "config_sha256": config_digest(resolved),
    }
    payload.update(body)
    return pretty_json(payload)


def _family_profile(resolved: dict, curve, lam_value: float | None):
    """Build f from the resolved family parameters, normalizing them in place.

    The witness search's family map builds the profile; the CLI adds only
    the constant family, the default gaussian kappa (the bell falls to a
    tenth at the band edge) and the helmholtz rate as a fraction of
    lambda1.
    """
    fam = resolved["family"]
    if fam == "constant":
        return ConstantProfile(1.0)
    if fam == "power":
        resolved["p"] = float(resolved["p"])
        resolved["delta"] = float(resolved["delta"])
    elif fam == "gaussian":
        kappa = resolved["kappa"]
        if kappa is None:
            kappa = math.log(10.0) / curve.r_b**2
        resolved["kappa"] = float(kappa)
        resolved["delta"] = float(resolved["delta"])
    elif fam == "helmholtz":
        if lam_value is None:
            raise ValueError("helmholtz family needs the eigenvalue")
        resolved["fraction"] = float(resolved["fraction"])
        resolved["rate"] = resolved["fraction"] * lam_value
    return _profile_from_params(curve, fam, resolved)


def _surface(resolved: dict) -> SurfaceSpec:
    return SurfaceSpec(float(resolved["a"]), float(resolved["b"]))


def cmd_profile(resolved: dict) -> str:
    curve = solve_profile(_surface(resolved))
    table = profile_table(curve, n=int(resolved["n"]))
    if resolved["format"] == "json":
        return _json_payload(
            resolved,
            {"columns": list(PROFILE_COLUMNS), "rows": table.tolist()},
        )
    return render_csv(PROFILE_COLUMNS, table, config=resolved)


def cmd_stability(resolved: dict) -> str:
    curve = solve_profile(_surface(resolved))
    lam = lambda1(curve)
    if resolved.get("lambda1_only"):
        if resolved["format"] == "csv":
            rows = [
                (e.mode, e.coarse, e.fine, e.richardson, e.error_bar)
                for e in lam.modes
            ]
            return render_csv(
                ("mode", "coarse", "fine", "richardson", "error_bar"),
                rows,
                config=resolved,
            )
        return _json_payload(resolved, {"lambda1": jsonify(lam)})
    f = _family_profile(resolved, curve, lam.value)
    report = check_arnold(f, curve, lambda_result=lam)
    conditions = profile_conditions(f, curve)
    if resolved["format"] == "csv":
        row = (
            report.verdict,
            report.fprime_min,
            report.fprime_max,
            report.lambda1.value,
            report.margin,
        )
        return render_csv(
            ("verdict", "fprime_min", "fprime_max", "lambda1", "margin"),
            [row],
            config=resolved,
        )
    return _json_payload(
        resolved,
        {"stability": jsonify(report), "conditions": jsonify(conditions)},
    )


def _parse_methods(spec_str: str) -> tuple[str, ...]:
    if spec_str.strip() == "all":
        return _METHOD_NAMES
    names = tuple(s.strip() for s in spec_str.split(",") if s.strip())
    for name in names:
        if name not in _METHOD_NAMES:
            raise ValueError(f"unknown mc method {name!r}")
    if not names:
        raise ValueError("no mc methods requested")
    return names


def cmd_mc(resolved: dict) -> str:
    curve = solve_profile(_surface(resolved))
    methods = _parse_methods(str(resolved["methods"]))
    lam_value = lambda1(curve).value if resolved["family"] == "helmholtz" else None
    f = _family_profile(resolved, curve, lam_value)
    F = ZonalVelocityProfile(f, curve)
    if resolved["h"] == "zero":
        h = ConstantProfile(0.0)
    else:
        resolved["w"] = float(resolved["w"])
        h = PlateauProfile(curve.r_b, resolved["w"])
    tol = float(resolved["tol"])
    results = []
    W = None
    for name in methods:
        if name == "formula":
            results.append(mc_bump_formula(F, h, curve, rel_tol=tol))
        elif name == "reduced":
            W = W if W is not None else bump_field(h, curve)
            results.append(mc_reduced(F, W, rel_tol=tol))
        else:
            W = W if W is not None else bump_field(h, curve)
            results.append(mc_direct(zonal_from_f(f, curve), W, rel_tol=tol))
    if resolved["format"] == "csv":
        rows = []
        for res in results:
            for r, integrand in res.samples:
                rows.append((res.method, r, integrand))
        return render_csv(("method", "r", "integrand"), rows, config=resolved)
    return _json_payload(resolved, {"results": jsonify(results)})


def cmd_witness(resolved: dict) -> str:
    config = WitnessSearchConfig(mc_rel_tol=float(resolved["tol"]))
    resolved["search"] = config.describe()
    result = find_witness(_surface(resolved), config)
    if resolved["format"] == "csv":
        row = sweep_summary(result)
        return render_csv(
            SWEEP_COLUMNS,
            [tuple(row[c] for c in SWEEP_COLUMNS)],
            config=resolved,
        )
    return _json_payload(resolved, {"witness": jsonify(result)})


def _parse_grid(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    if isinstance(value, (int, float)):
        return [float(value)]
    parts = [s.strip() for s in str(value).split(",") if s.strip()]
    if not parts:
        raise ValueError("empty grid")
    return [float(s) for s in parts]


def cmd_sweep(resolved: dict) -> str:
    a_values = _parse_grid(resolved["a"])
    b_values = _parse_grid(resolved["b"])
    resolved["a"] = a_values
    resolved["b"] = b_values
    config = WitnessSearchConfig(mc_rel_tol=float(resolved["tol"]))
    resolved["search"] = config.describe()
    results = sweep(a_values, b_values, config)
    rows = [sweep_summary(r) for r in results]
    if resolved["format"] == "json":
        return _json_payload(resolved, {"rows": jsonify(rows)})
    return render_csv(
        SWEEP_COLUMNS,
        [tuple(row[c] for c in SWEEP_COLUMNS) for row in rows],
        config=resolved,
    )


_COMMANDS = {
    "profile": cmd_profile,
    "stability": cmd_stability,
    "mc": cmd_mc,
    "witness": cmd_witness,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args)
        # the destination is not provenance: the same document goes either way
        out = resolved.pop("out", None)
        text = _COMMANDS[args.command](resolved)
        _emit(text, out)
    except (BandflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
