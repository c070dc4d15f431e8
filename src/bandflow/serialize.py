"""Deterministic serialization helpers.

Every artifact the package writes goes through here: floats are printed
with 17 significant digits (round-trip exact for doubles), JSON keys are
sorted, and CSV files carry the resolved run configuration plus its
SHA-256 digest as comment lines.  Nothing here writes timestamps,
hostnames, or anything else that varies between identical runs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "canonical_json",
    "config_digest",
    "fmt_float",
    "jsonify",
    "pretty_json",
    "render_csv",
]


def fmt_float(x: float) -> str:
    """Shortest representation that round-trips a double."""
    return f"{float(x):.17g}"


def jsonify(obj: Any) -> Any:
    """Recursively convert to plain JSON types.

    Dataclasses become dicts, numpy scalars and arrays become Python
    booleans, numbers and lists, tuples become lists.  Non-finite floats
    become strings, since JSON has no spelling for them.  Booleans are
    tested before integers because bool is a subclass of int.
    """
    to_json = getattr(obj, "to_json", None)
    if callable(to_json) and not isinstance(obj, type):
        return jsonify(to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            out[f.name] = jsonify(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def canonical_json(obj: Any) -> str:
    """Minified JSON with sorted keys; the hashing form."""
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def pretty_json(obj: Any) -> str:
    """Indented JSON with sorted keys; the output form."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


def config_digest(config: Any) -> str:
    """SHA-256 of the canonical JSON form of a configuration."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _cell(value: Any) -> str:
    if isinstance(value, (np.floating, float)):
        return fmt_float(float(value))
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return str(int(value))
    return str(value)


def render_csv(
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    config: Any | None = None,
) -> str:
    """CSV text with provenance comments, header, and %.17g floats."""
    lines = []
    if config is not None:
        canon = canonical_json(config)
        lines.append(f"# config: {canon}")
        lines.append(f"# config-sha256: {config_digest(config)}")
    lines.append(",".join(columns))
    for row in rows:
        cells = [_cell(v) for v in row]
        if len(cells) != len(columns):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(columns)}"
            )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
