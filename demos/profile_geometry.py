#!/usr/bin/env python3
"""Walk the profile solver across a few bands and read off the geometry.

Each band is cut from an ellipsoid of revolution with equatorial radius a
at height |z| <= b; the solver samples its meridian (a cos t, sin t) in
closed form and turns it into an arc-length curve (c1, c2) with the
equator at r = 0.  The table below checks the curve against anchors that
do not share that closed form: the quarter-meridian arc length by adaptive
quadrature of the speed sqrt(1 + (a^2 - 1) sin^2 t), the flatness defect
at the equator, which has the closed value sqrt(a^2 - 1), and how far the
interpolated curve strays from the ellipse halfway between its nodes.
"""
import math

import numpy as np
from scipy.integrate import quad

from bandflow import SurfaceSpec, curvature_defect, solve_profile


def main():
    print(
        f"{'a':>5} {'b':>5} {'r_b':>12} {'quadrature':>12} {'eps(0)':>10}"
        f" {'sqrt(a^2-1)':>12} {'off-ellipse':>12}"
    )
    for a in (1.0, 1.2, 1.5, 2.0, 3.0):
        for b in (0.3, 0.7):
            curve = solve_profile(SurfaceSpec(a, b))
            arc, _ = quad(
                lambda t: math.sqrt(1.0 + (a * a - 1.0) * math.sin(t) ** 2),
                0.0,
                math.asin(b),
                epsabs=0.0,
                epsrel=1e-12,
            )
            eps0 = curvature_defect(curve, 0.0)
            mid = 0.5 * (curve.radii[:-1] + curve.radii[1:])
            off = np.max(np.abs(curve.c1(mid) ** 2 - a * a * (1.0 - curve.c2(mid) ** 2)))
            print(
                f"{a:5.1f} {b:5.1f} {curve.r_b:12.8f} {arc:12.8f}"
                f" {eps0:10.6f} {math.sqrt(a * a - 1.0):12.6f} {off:12.1e}"
            )

    sphere = solve_profile(SurfaceSpec(1.0, 0.5))
    worst = max(
        abs(sphere.c1(r) - math.cos(r))
        for r in [i * sphere.r_b / 50 for i in range(51)]
    )
    print(f"\nsphere check: max |c1 - cos| = {worst:.2e} (the a = 1 band is a spherical zone)")
    print("the defect column is what curvature integrals can spend; it vanishes on the sphere")


if __name__ == "__main__":
    main()
