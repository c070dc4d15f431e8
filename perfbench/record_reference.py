"""Record the sweep rows that the sweep workload's checks compare against.

Runs ``bandflow sweep`` through the CLI over every (a, b) pair that the
sweep workload can draw and stores the parsed rows in
sweep_reference.json.  Run it from the repository root, only when the
reference must be re-recorded:

    python3 perfbench/record_reference.py

The cells are independent and the worker count never changes a result,
so the grid is split into one CLI call per a value, as many at a time as
this process has CPUs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_build" / "perfbench"


def _record_row(a: float, b_values: list[float]) -> list[dict]:
    out = OUT_DIR / f"reference-{a!r}.csv"
    code = (
        "import sys; from bandflow.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [
        sys.executable, "-c", code, "sweep",
        "--a", repr(a),
        "--b", ",".join(repr(b) for b in b_values),
        "--workers", "1",
        "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, check=True, cwd=ROOT, env=env)
    try:
        return workloads.parse_sweep_csv(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    a_values = [a for half in workloads.SWEEP_A for a in half]
    b_values = [b for half in workloads.SWEEP_B for b in half]
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        rows = [r for chunk in pool.map(lambda a: _record_row(a, b_values), a_values) for r in chunk]
    payload = {
        "note": "bandflow sweep rows, one per (a, b) the sweep workload can draw",
        "columns": list(workloads.SWEEP_COLUMNS),
        "rows": rows,
    }
    workloads.REFERENCE_FILE.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(rows)} rows written to {workloads.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
