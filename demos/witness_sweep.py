#!/usr/bin/env python3
"""Search the default parameter grid for a stable flow with positive curvature.

A certified cell needs one profile that is Arnold stable and one bump
width whose curvature integral is positive with all three evaluation
routes agreeing.  For every cell the search also reports the quantity
that decides the sign question outright: the boundary-penalty to
interior-gain ratio minimized over all admissible bumps.  Below 1 some
bump wins; at or above 1 none can, no matter how the width is tuned.

Runs the full 3 x 3 grid; expect a few seconds (about 4 s on a 2-core
Xeon host).
"""
from bandflow import SWEEP_COLUMNS, WitnessSearchConfig, sweep, sweep_summary


def main():
    config = WitnessSearchConfig()
    rows = sweep((1.5, 2.0, 3.0), (0.3, 0.5, 0.7), config)

    picked = ("a", "b", "verdict", "branch", "fprime_min", "lambda1", "mc_value")
    print("  ".join(f"{c:>15}" for c in picked))
    for row in rows:
        summary = sweep_summary(row)
        cells = []
        for c in picked:
            v = summary[c]
            cells.append(f"{v:15.5f}" if isinstance(v, float) else f"{v:>15}")
        print("  ".join(cells))

    print("\nper-cell sign obstruction (min bump ratio, certified needs < 1):")
    for row in rows:
        d = row.diagnostics
        print(
            f"  a={row.spec.a:<4g} b={row.spec.b:<4g} ratio={d['optimal_bump_ratio']:.3f}"
            f"  best stable curvature={d['best_mc_over_stable']:+.3f}"
            f"  stable candidates={d['stable_count']}/{d['candidates_examined']}"
        )

    certified = sum(row.verdict == "certified" for row in rows)
    print(f"\ncertified cells: {certified} of {len(rows)}")
    if certified == 0:
        print(
            "the ratio sits above 1 in every cell: each stable candidate pays\n"
            "more curvature at the boundary walls than the interior defect\n"
            "returns, so every bump width integrates negative"
        )
    unused = set(SWEEP_COLUMNS) - set(picked)
    print(f"(columns also available per row: {', '.join(sorted(unused))})")


if __name__ == "__main__":
    main()
