"""bandflow benchmark: one closed-loop client per workload, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,routes,surfaces} \\
        --seed N --seconds S --trace {0,1}

Workloads (see workloads.py for the inputs and checks):

  sweep     the CLI ``bandflow sweep`` over a seeded 2 x 2 grid with
            --workers set to the CPUs this process may use; one op per cell.
  routes    the three curvature routes on a seeded bump plus the two
            general routes on a seeded stream field; one op per surface.
  surfaces  profile solve, invariants, lambda1, Helmholtz build and the
            stability checks and bump ratio of three profile families; one
            op in ten probes an edge input.

With --trace 0 the run measures end-to-end metrics with tracing off: it
times fresh-interpreter set-up several times, runs the first ops of the
pass untimed as a warm-up, then repeats the workload's pass until the next
pass would end more than S seconds after the run started, set-up included
(at least one pass).
With --trace 1 it warms up the same way, runs one pass untraced and one
pass with every layer traced, and reports per-layer metrics plus the
tracing overhead; the spans go to .bench_build/perfbench/trace-<workload>.npz.

Every line but the last is a human-readable table; the last line is one
JSON object with keys correct, attempted, failed and metrics, the metrics
being those that BENCHMARK.json lists for the mode.  ``failed`` counts ops
whose output failed a check or that raised; surface-edge probes that end
in a typed error ("refused") or in an invalid result ("invalid") are
reported in the table and in failed_ratio, not in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
# Tail percentile per workload, fixed so that it means the same on every
# commit: one with at least ten ok samples beyond it at the run lengths
# the workload reaches.  The sweep has four cells a run, so no percentile
# above the median qualifies; its tail is the slowest cell of a pass
# (p100), median over the passes.
TAIL_PERCENTILE = {"sweep": 100.0, "routes": 60.0, "surfaces": 95.0}


@dataclass
class Pass:
    wall: float
    cpu: float
    results: list


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing bandflow and drawing inputs."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))"
    )
    argv = [sys.executable, "-c", code, str(HERE), str(SRC), workload, str(seed)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _pass_runner(workloads, workload: str, inputs, nproc: int):
    """The pass, and a warm-up that runs the first of its ops untimed
    (none on sweep, whose every cell costs seconds)."""
    if workload == "sweep":
        reference = workloads.load_reference()
        out = WORK_DIR / f"sweep-{os.getpid()}.csv"
        return lambda: workloads.run_sweep(inputs, nproc, out, reference), lambda: None
    if workload == "routes":
        return lambda: workloads.run_routes(inputs), lambda: workloads.run_routes(inputs[:1])
    # the first nine surfaces ops precede the first edge probe
    return lambda: workloads.run_surfaces(inputs), lambda: workloads.run_surfaces(inputs[:9])


def _timed_pass(runner) -> Pass:
    start, cpu = time.perf_counter(), time.process_time()
    results = runner()
    return Pass(time.perf_counter() - start, time.process_time() - cpu, results)


def _nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    rank = min(int(rank), len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _counts(passes: list[Pass]) -> dict:
    out = {"ok": 0, "failed": 0, "refused": 0, "invalid": 0}
    for p in passes:
        for r in p.results:
            out[r.status] += 1
    return out


def end_to_end(workload: str, passes: list[Pass], setup: list[float]) -> tuple[dict, list[str]]:
    ok_per_pass = [
        [r.seconds for r in p.results if r.status == "ok" and not r.probe] for p in passes
    ]
    ok_latency = [t for ok in ok_per_pass for t in ok]
    counts = _counts(passes)
    attempted = sum(counts.values())
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "ops_per_s": (
            statistics.median(
                sum(r.status == "ok" for r in p.results) / p.wall for p in passes
            ),
            "1/s",
        ),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": ((attempted - counts["ok"]) / attempted, "ratio"),
    }
    notes = [
        f"passes {len(passes)}, ops per pass {len(passes[0].results)}, "
        f"attempted {attempted}: ok {counts['ok']}, failed {counts['failed']}, "
        f"edge refused {counts['refused']}, edge invalid {counts['invalid']}",
        "setup runs (s): " + ", ".join(f"{s:.4f}" for s in setup),
    ]
    if ok_latency:
        metrics["op_p50_s"] = (statistics.median(ok_latency), "s")
        if pct < 100:
            tail, beyond = _nearest_rank(ok_latency, pct)
            notes.append(
                f"op_tail_s is p{pct:g} of {len(ok_latency)} latencies of ok ops (not probes), "
                f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10)")
            )
        else:
            # a maximum grows with the number of samples, so take it per
            # pass: the tail then does not depend on how many passes fit
            slowest = [max(ok) for ok in ok_per_pass if ok]
            tail = statistics.median(slowest)
            notes.append(
                f"op_tail_s is p100: the slowest of each pass's ok ops, median over "
                f"{len(slowest)} passes ({len(ok_latency)} latencies)"
            )
        metrics["op_tail_s"] = (tail, "s")
    return metrics, notes


def per_layer(tracer, traced: Pass, untraced: Pass) -> dict:
    spans = tracer.by_name()

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer_self = {}
    for name, entry in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
    c = tracer.counters
    frame_calls = get("geometry.frame", "calls")
    integrals = get("quadrature.adaptive_gauss_legendre", "calls")
    candidates = c["witness.candidates"]
    metrics = {
        "geometry.frame.calls": (frame_calls, "count"),
        "geometry.frame.points": (get("geometry.frame", "points"), "count"),
        "geometry.frame.points_per_call": (ratio(get("geometry.frame", "points"), frame_calls), "points"),
        "geometry.frame.self_s": (get("geometry.frame", "self_s"), "s"),
        "geometry.solve_profile.calls": (get("geometry.solve_profile", "calls"), "count"),
        "geometry.solve_profile.self_s": (get("geometry.solve_profile", "self_s"), "s"),
        "profiles.helmholtz_build.calls": (get("profiles.helmholtz_build", "calls"), "count"),
        "profiles.helmholtz_build.self_s": (get("profiles.helmholtz_build", "self_s"), "s"),
        "profiles.evals": (get("profiles.eval", "calls"), "count"),
        "profiles.eval_self_s": (get("profiles.eval", "self_s"), "s"),
        "fields.field_evals": (get("fields.field_eval", "calls"), "count"),
        "fields.field_points": (get("fields.field_eval", "points"), "count"),
        "fields.self_s": (layer_self.get("fields", 0.0), "s"),
        "fields.fprime_from_f.self_s": (get("fields.fprime_from_f", "self_s"), "s"),
        "stability.lambda1.calls": (get("stability.lambda1", "calls"), "count"),
        # lambda1 spends its time in its per-mode solves
        "stability.lambda1.self_s": (
            get("stability.lambda1", "self_s") + get("stability.lambda1_mode", "self_s"),
            "s",
        ),
        "stability.eigensolves": (2 * get("stability.lambda1_mode", "calls"), "count"),
        "stability.check_arnold.self_s": (get("stability.check_arnold", "self_s"), "s"),
        "stability.profile_conditions.self_s": (get("stability.profile_conditions", "self_s"), "s"),
        "quadrature.integrals": (integrals, "count"),
        "quadrature.evals": (c["quadrature.evals"], "count"),
        "quadrature.panels": (c["quadrature.panels"], "count"),
        "quadrature.evals_per_integral": (ratio(c["quadrature.evals"], integrals), "count"),
        "quadrature.self_s": (layer_self.get("quadrature", 0.0), "s"),
    }
    for route in ("mc_bump_formula", "mc_reduced", "mc_direct", "optimal_bump_ratio"):
        metrics[f"misiolek.{route}.calls"] = (get(f"misiolek.{route}", "calls"), "count")
        metrics[f"misiolek.{route}.self_s"] = (get(f"misiolek.{route}", "self_s"), "s")
    metrics.update(
        {
            "witness.find_witness.self_s": (get("witness.find_witness", "self_s"), "s"),
            "witness.candidates": (candidates, "count"),
            "witness.candidates_stable": (c["witness.candidates_stable"], "count"),
            "witness.stable_ratio": (ratio(c["witness.candidates_stable"], candidates), "ratio"),
            "witness.formula_calls_per_candidate": (
                ratio(get("misiolek.mc_bump_formula", "calls"), candidates) if candidates else 0.0,
                "count",
            ),
            "witness.cores_busy": (ratio(traced.cpu, traced.wall) if candidates else 0.0, "cores"),
            "witness.cell_wait_s": (
                statistics.mean(tracer.cell_waits) if tracer.cell_waits else 0.0,
                "s",
            ),
            "serialize.render_csv.self_s": (get("serialize.render_csv", "self_s"), "s"),
            "cli.main.self_s": (get("cli.main", "self_s"), "s"),
            "trace.spans": (sum(e["calls"] for e in spans.values()), "count"),
            "trace.untraced_wall_s": (untraced.wall, "s"),
            "trace.traced_wall_s": (traced.wall, "s"),
            "trace.overhead_s": (traced.wall - untraced.wall, "s"),
        }
    )
    for layer in sorted(layer_self):
        metrics.setdefault(f"{layer}.layer_self_s", (layer_self[layer], "s"))
    return metrics


def _declared(spec: dict, key: str, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists under key, in its order and units."""
    out = {}
    for entry in spec[key]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bandflow benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "routes", "surfaces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.perf_counter() + args.seconds

    if not (SRC / "bandflow" / "__init__.py").is_file():
        print(f"error: no bandflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import bandflow
    import workloads

    if Path(bandflow.__file__).resolve().parent != (SRC / "bandflow").resolve():
        print(f"error: imported bandflow from {bandflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))

    setup = []
    if not args.trace:
        setup = [_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    inputs = workloads.make_inputs(args.workload, args.seed)
    runner, warm_up = _pass_runner(workloads, args.workload, inputs, nproc)

    import numpy
    import scipy

    lines = [
        f"bandflow benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}",
        f"nproc {nproc} (sweep --workers {nproc}), python {sys.version.split()[0]}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}",
    ]
    warm_up()
    if not args.trace:
        passes = []
        while True:
            passes.append(_timed_pass(runner))
            if time.perf_counter() + passes[-1].wall > deadline:
                break
        metrics, notes = end_to_end(args.workload, passes, setup)
        declared = _declared(spec, "end_to_end", metrics)
    else:
        import layertrace

        untraced = _timed_pass(runner)
        tracer = layertrace.Tracer()
        tracer.install(workloads)
        try:
            traced = _timed_pass(runner)
        finally:
            tracer.uninstall()
        tracer.save(WORK_DIR / f"trace-{args.workload}.npz")
        passes = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        counts = _counts(passes)
        notes = [f"attempted {sum(counts.values())} over the two passes: {counts}"]
        declared = _declared(spec, "per_layer", metrics)

    lines += notes
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    problems = [r.detail for p in passes for r in p.results if r.status == "failed"]
    for detail in problems[:10]:
        lines.append(f"FAILED: {detail}")
    print("\n".join(lines))
    counts = _counts(passes)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(counts.values()),
                "failed": counts["failed"],
                "metrics": declared,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
